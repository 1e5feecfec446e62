"""The benchmark's server process: the product's own CLI, nothing else.

    python bench/serve.py [--trace FILE] -- serve --db DIR --program FILE --port 0

Without ``--trace`` this only calls ``repro.core.cli.main`` with the
arguments after ``--``: the default configuration, no mode flags.  With
``--trace FILE`` it first installs the timing wrappers of ``bench/spans.py``
and writes the recorded spans to FILE on SIGUSR1.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_path is not None:
        import spans  # bench/ is sys.path[0] when this file runs as a script

        spans.install(trace_path)
    from repro.core.cli import main as gluenail

    return gluenail(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
