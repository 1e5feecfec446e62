"""Process, clock and statistics helpers shared by the workloads."""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")
PROGRAM = os.path.join(BENCH_DIR, "program.glue")

now_ns = time.perf_counter_ns   # the clock bench/spans.py stamps spans with

READY_TIMEOUT_S = 60.0
CLIENT_TIMEOUT_S = 60.0


try:
    CPUS = frozenset(os.sched_getaffinity(0))     # before place() narrows it
except AttributeError:  # not Linux
    CPUS = frozenset(range(os.cpu_count() or 1))
SERVER_CPU = max(CPUS)


def cores() -> int:
    return len(CPUS)


def place(one_core: bool) -> None:
    """Who runs where, by plain CPU affinity.  The servers this process
    starts and its speed probe always get SERVER_CPU: the cores of the
    reference box change speed independently, and the probe has to read
    the one the server is on.  The load generator gets the other cores,
    or, with ``one_core``, the same one: a closed loop with one client
    never works while its server does, so sharing costs it nothing, and the
    probe then covers the client's share of a request too."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {SERVER_CPU} if one_core else (CPUS - {SERVER_CPU} or CPUS))


def pin_to_server_cpu(pid: int) -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(pid, {SERVER_CPU})


class Server:
    """One `bench/serve.py` subprocess over a database directory."""

    def __init__(self, db_dir: str, trace_path: Optional[str] = None):
        self.db_dir = db_dir
        self.trace_path = trace_path
        self.port = 0
        self.process: Optional[subprocess.Popen] = None
        self._log_path = db_dir.rstrip("/") + ".stderr"
        self._log = None

    def start(self) -> "Server":
        """Spawn the server and wait until it has bound its port."""
        command = [sys.executable, os.path.join(BENCH_DIR, "serve.py")]
        if self.trace_path is not None:
            command += ["--trace", self.trace_path]
        command += ["--", "serve", "--db", self.db_dir, "--program", PROGRAM, "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self._log = open(self._log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                        stdout=subprocess.DEVNULL, stderr=self._log)
        pin_to_server_cpu(self.process.pid)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self._log_path, "r", encoding="utf-8") as handle:
                match = re.search(r"serving .* on \S+:(\d+)", handle.read())
            if match:
                self.port = int(match.group(1))
                return self
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        with open(self._log_path, "r", encoding="utf-8") as handle:
            raise RuntimeError(f"server did not start: {handle.read().strip()[-2000:]}")

    def rss_peak_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", "r", encoding="utf-8") as handle:
            match = re.search(r"VmHWM:\s+(\d+) kB", handle.read())
        return int(match.group(1)) / 1024.0 if match else 0.0

    def dump_trace(self) -> Optional[dict]:
        """Have a traced server write its spans; returns the document."""
        if self.trace_path is None:
            return None
        if os.path.exists(self.trace_path):
            os.unlink(self.trace_path)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + READY_TIMEOUT_S
        while not os.path.exists(self.trace_path):
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("traced server did not write its spans")
            time.sleep(0.01)
        with open(self.trace_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self) -> None:
        """SIGKILL and reap: the server gets no chance to flush or clean up."""
        if self.process is not None:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            self.process = None
        if self._log is not None:
            self._log.close()
            self._log = None


def discard_unsynced(db_dir: str, synced: Dict[str, int]) -> int:
    """Cut every file under ``db_dir`` back to its length at its last fsync
    (0 if it never was): what an operating-system crash may leave.  Returns
    the number of bytes discarded."""
    discarded = 0
    for name in os.listdir(db_dir):
        path = os.path.join(db_dir, name)
        if not os.path.isfile(path):
            continue
        info = os.stat(path)
        keep = min(info.st_size, synced.get(str(info.st_ino), 0))
        if keep < info.st_size:
            discarded += info.st_size - keep
            os.truncate(path, keep)
    return discarded


class Scratch:
    """A per-run directory under bench/out/ for database dirs and traces."""

    def __init__(self, label: str):
        self.path = os.path.join(OUT, f"tmp-{label}-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        self._serial = 0

    def fresh(self, stem: str) -> str:
        self._serial += 1
        return os.path.join(self.path, f"{stem}{self._serial}")

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class Budget:
    """When a measured phase ends: ``seconds`` after it began, or, if ``ops``
    is given, after exactly that many ops, which is what makes the work
    counters of two runs comparable number for number (bench/agree.py)."""

    def __init__(self, seconds: float, ops: Optional[int]):
        self.start = now_ns()
        self.deadline = self.start + int(seconds * 1e9)
        self.seconds = seconds
        self.ops = ops
        self.taken = 0

    def split(self, ways: int) -> List["Budget"]:
        """One budget per closed-loop client."""
        share = None if self.ops is None else max(1, self.ops // ways)
        return [Budget(self.seconds, share) for _ in range(ways)]

    def more(self) -> bool:
        """Asked once before each op; the first op always runs."""
        if self.taken and ((self.taken >= self.ops) if self.ops is not None
                           else (now_ns() >= self.deadline)):
            return False
        self.taken += 1
        return True

    def scheduled(self, per_second: float) -> int:
        """How many ops an open loop at this rate is due to send."""
        return self.ops if self.ops is not None else max(1, math.ceil(self.seconds * per_second))


class SpeedProbe:
    """How fast the machine is, sampled while a workload runs.

    Between ``with probe:`` and its end a thread of the load generator times,
    every PERIOD_S, one pass of a fixed piece of pure Python (no I/O,
    nothing of the product) and keeps (when, ms).  A reading over
    REFERENCE_MS, what a pass takes on the reference box at its fast speed
    when nothing else wants the core, is the factor by which the machine is
    slower than that at that moment; ``scaled`` divides a duration by the
    median factor read while it lasted.  A pass costs 2 % of one core.

    A pass does what the product does all day: it builds tuples of strings
    and hashes them into a set and a dict of lists, over a working set
    (PAIRS) far larger than a cache.  That matters: at the reference box's
    slow speed a tight arithmetic loop takes 1.8 times as long, this pass 1.5
    times, and the product's requests 1.45 to 1.6 times, so only a probe of
    the same kind of work scales them to the same number at both speeds.

    Why at all: the reference box changes speed for a fraction of a second
    or for minutes at a time, whatever runs on it, so a latency measured
    there says as much about the minute as about the program.  Everything
    the benchmark gates on is scaled this way; the raw values are printed
    and kept in the result document beside it."""

    PERIOD_S = 0.05
    PAIRS = [(f"p{i}", f"p{i * 7 % 60000}") for i in range(60000)]
    SLICE = 2000            # pairs a pass goes through; the next pass takes the next ones
    REFERENCE_MS = 0.75

    def __init__(self):
        self.samples: list = []      # (seconds on the shared clock, ms)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        pin_to_server_cpu(threading.get_native_id())
        at = 0
        while not self._stop.wait(self.PERIOD_S):
            pairs = self.PAIRS[at:at + self.SLICE]
            at = (at + self.SLICE) % len(self.PAIRS)
            began = now_ns()
            seen: set = set()
            index: dict = {}
            for first, second in pairs:
                row = (first, second)
                if row not in seen:
                    seen.add(row)
                    index.setdefault(first, []).append(row)
            self.samples.append((began / 1e9, (now_ns() - began) / 1e6))

    def factor(self, start_s: float, end_s: float) -> float:
        """The machine's slowness over an interval: the median of the
        readings taken inside it (a pass the scheduler interrupted reads
        far too high; the median does not care), or else of the readings
        on either side of it."""
        if not self.samples:
            return 1.0
        times = [at for at, _ms in self.samples]
        low, high = bisect.bisect_left(times, start_s), bisect.bisect_right(times, end_s)
        if low == high:
            low, high = max(0, low - 1), min(len(times), high + 1)
        return median([ms for _at, ms in self.samples[low:high]]) / self.REFERENCE_MS

    def scaled(self, samples: Sequence[Tuple[float, float]]) -> list:
        """(start in seconds, ms) samples as ms at reference speed."""
        return [ms / self.factor(at - self.PERIOD_S, at + ms / 1e3 + self.PERIOD_S)
                for at, ms in samples]


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #

def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``samples`` (q in 0..100)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def tail(samples: Sequence[float]) -> tuple:
    """(q, value) for the highest percentile that still has at least ten
    samples beyond it; the median when the sample is too small for any."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(samples) * (100.0 - q) / 100.0 >= 10:
            return q, percentile(samples, q)
    return 50.0, median(samples)


# ---------------------------------------------------------------------- #
# provenance
# ---------------------------------------------------------------------- #

def source_digest() -> str:
    """sha256 over the product and benchmark sources: the key of a result
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in (os.path.join(SRC, "repro"), BENCH_DIR):
        for directory, subdirs, files in os.walk(top):
            subdirs[:] = sorted(d for d in subdirs if d not in ("__pycache__", "out"))
            for name in sorted(files):
                if name.endswith((".py", ".glue", ".json")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode("utf-8"))
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def commit_hash() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):   # not some enclosing repository's
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else None


def provenance() -> dict:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "commit": commit_hash(),
        "source_sha256": source_digest(),
        "cores": cores(),
        "python": sys.version,
        "gil_enabled": gil,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


