"""The serve process sizes the cycle collector's young generation, and the
`stats` reply shows what the collector did.

The server is spawned the way a user (and the benchmark) starts it,
``gluenail serve --port 0`` in a process of its own, because the policy
is per process: an in-process server keeps the interpreter's defaults.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.server.client import Client
from repro.server.gcpolicy import YOUNG_GENERATION

SRC = Path(__file__).resolve().parents[2] / "src"
PATH_RULES = "path(X, Y) :- edge(X, Y). path(X, Z) :- path(X, Y) & edge(Y, Z)."


@pytest.fixture
def serve_port(tmp_path):
    program = tmp_path / "rules.glue"
    program.write_text(PATH_RULES)
    log = tmp_path / "serve.stderr"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "w", encoding="utf-8") as stderr:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", "serve", "--port", "0",
             "--program", str(program)],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=stderr,
        )
    try:
        deadline = time.monotonic() + 30
        while not (match := re.search(r"serving .* on \S+:(\d+)", log.read_text())):
            if process.poll() is not None or time.monotonic() > deadline:
                pytest.fail(f"server did not start: {log.read_text()[-2000:]}")
            time.sleep(0.01)
        yield int(match.group(1))
    finally:
        process.kill()
        process.wait()


def test_serve_runs_with_the_policy_and_reports_the_collector(serve_port):
    with Client(port=serve_port, timeout=30) as client:
        before = client.stats()["gc"]
        client.facts("edge", [(i, i + 1) for i in range(300)])
        assert len(client.query("path(0, X)?")) == 300
        after = client.stats()["gc"]
    assert before["threshold"] == after["threshold"] == YOUNG_GENERATION
    assert len(after["generations"]) == 3
    young_before, young_after = before["generations"][0], after["generations"][0]
    # Deriving path/2 over a 300-edge chain allocates far more than one
    # young generation's worth of tracked containers.
    assert young_after["collections"] > young_before["collections"]
    assert young_after["collected"] >= young_before["collected"]
    assert young_after["pause_ms"] > young_before["pause_ms"] >= 0
