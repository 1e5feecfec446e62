"""Server start-up: spawn to the first ``rels`` reply, cold and warm.

Times ``gluenail serve --db <empty dir> --program bench/program.glue``
from the spawn of the process to the first reply of a ``rels`` request,
the median of 9 starts in each of two states of a copy of ``src/``:

* cold: no ``__pycache__`` and ``PYTHONDONTWRITEBYTECODE=1``, so every
  start compiles every module from source (a fresh checkout, as the
  benchmark under ``bench/`` runs it);
* warm: a populated bytecode cache.

    PYTHONPATH=src:. python -m benchmarks.bench_startup

The shape test (run under ``--benchmark-disable`` too) starts the server
once in each state and checks that it answered; it has no timing bound.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ROOT / "bench" / "program.glue"
RUNS = 9
REQUEST = b'{"op": "rels"}\n'


def start_once(src: Path, db_dir: Path, cold: bool) -> tuple:
    """``(seconds from spawn to the first rels reply, the reply line)``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if cold:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    shutil.rmtree(db_dir, ignore_errors=True)
    command = [sys.executable, "-m", "repro.core.cli", "serve", "--db", str(db_dir),
               "--program", str(PROGRAM), "--port", "0"]
    t0 = time.perf_counter()
    process = subprocess.Popen(command, env=env, stdin=subprocess.DEVNULL,
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        line = process.stderr.readline()
        if "serving" not in line:
            raise RuntimeError(f"server did not start: {line}{process.stderr.read()}")
        port = int(line.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port)) as conn:
            conn.sendall(REQUEST)
            reply = conn.makefile("rb").readline()
        return time.perf_counter() - t0, reply.decode()
    finally:
        process.kill()
        process.wait()
        process.stderr.close()


def measure(runs: int = RUNS) -> dict:
    """``{"cold_s": median, "warm_s": median, "replies": [...]}``."""
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        out: dict = {"replies": []}
        for state in ("cold", "warm"):
            src = scratch / state / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            if state == "warm":
                start_once(src, scratch / "db", cold=False)  # fills the cache
            times = []
            for _ in range(runs):
                seconds, reply = start_once(src, scratch / "db", cold=state == "cold")
                times.append(seconds)
                out["replies"].append(reply)
            out[f"{state}_s"] = statistics.median(times)
        return out


def test_cold_and_warm_starts_answer():
    result = measure(runs=1)
    assert result["cold_s"] > 0 and result["warm_s"] > 0
    assert [json.loads(reply)["ok"] for reply in result["replies"]] == [True, True]


if __name__ == "__main__":
    result = measure()
    print(f"server start to first rels reply, median of {RUNS}: "
          f"cold {result['cold_s'] * 1000:.0f} ms, warm {result['warm_s'] * 1000:.0f} ms")
