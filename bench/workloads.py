"""The workloads: what each sends, times and checks.

Every workload talks to a real ``gluenail serve`` subprocess through
``repro.server.client.Client`` over TCP, from this one process, on at most
two connections at a time.  Every reply is compared with the plain-Python
answer from ``bench/gen.py``; errors, time-outs, wrong answers and rows
lost across a SIGKILL all count as failed.

The driver wants every end-to-end metric from every workload, so a kind of
operation that needs its own regression gate is its own workload: the four
kinds of analytic request each have one (``analytic_magic`` ...), sharing
the ``Analytic`` class.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.server.client import Client, RemoteError

import gen
from harness import (CLIENT_TIMEOUT_S, Budget, Scratch, Server, SpeedProbe, cores,
                     discard_unsynced, now_ns, percentile)

# mixed_rw: transactions per second the open-loop writer is due to send.
# A transaction, the wait for its notification and the repair it causes its
# reader take 150-300 ms of server time at seed state, so a backlog (which
# multiplies every slowdown, the machine's own included) forms only if that
# gets twice as slow.
WRITE_RATE = 2.0
NOTIFY_TIMEOUT_S = 20.0
# ... and the pause of its closed-loop reader between a reply and the next
# read.  A reader that never pauses keeps the server's interpreter lock
# contended all the time, and the writer's latency then measures how the
# threads happened to be scheduled: twice the run-to-run spread.
READ_THINK_S = 0.005

CONNECTION_ERRORS = (TimeoutError, ConnectionError, OSError)


class SetupError(RuntimeError):
    """The server answered wrongly before the measured phase began."""


class MeteredClient(Client):
    """The product's client, also summing the time spent inside requests."""

    busy_ns = 0

    def request(self, op, timeout=None, **fields):
        start = now_ns()
        try:
            return super().request(op, timeout, **fields)
        finally:
            self.busy_ns += now_ns() - start


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, ok: bool, note: str = "", count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < 5:
                self.notes.append(note)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes = (self.notes + other.notes)[:5]


@dataclass
class Phase:
    """What one measured phase observed."""

    primary: str = ""            # the latency kind p50_ms is taken over
    ops: int = 0                 # what per-layer numbers are "per op" of
    rate_count: int = 0          # what ops_per_s counts ...
    rate_wall_s: float = 0.0     # ... over this wall time
    # kind -> [(start, seconds on the shared monotonic clock; latency, ms)]
    samples: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    setup_kind: str = ""         # ... and setup_s, where a workload sets up once per op
    speed: Optional[SpeedProbe] = None       # the workload's
    tally: Tally = field(default_factory=Tally)
    rss_peak_mb: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)
    # filled in traced phases only
    window: Optional[tuple] = None           # (start ns, end ns); None = whole traces
    traces: List[dict] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    client_busy_ms: float = 0.0
    exec_ms: float = 0.0
    rows_returned: int = 0

    def add(self, kind: str, start_ns: int, end_ns: int) -> None:
        self.samples.setdefault(kind, []).append((start_ns / 1e9, (end_ns - start_ns) / 1e6))

    def latencies(self, *kinds: str) -> List[float]:
        return [ms for kind in kinds for _at, ms in self.samples.get(kind, ())]


def flatten_stats(payload: dict) -> Dict[str, float]:
    """The public `stats` reply as one flat name -> number map."""
    flat = dict(payload.get("server_counters", {}))
    flat["wal_commits"] = payload.get("wal_commits", 0)
    flat["wal_fsyncs"] = payload.get("wal_fsyncs", 0)
    flat["mvcc_publishes"] = payload.get("mvcc", {}).get("publishes", 0)
    subs = payload.get("subscriptions", {})
    flat["sub_resyncs"] = subs.get("resyncs", 0)
    flat["sub_dropped"] = subs.get("dropped", 0)
    flat["parallel_workers"] = payload.get("parallel", {}).get("workers", 1)
    return flat


def add_counters(total: Dict[str, float], after: dict, before: Optional[dict] = None) -> None:
    for key, value in after.items():
        total[key] = total.get(key, 0) + value - (before or {}).get(key, 0)


class Workload:
    name = ""
    clients = 1          # load-generator connections in use at once
    one_core = False     # never two of them busy at once: see harness.place

    def __init__(self, dataset: gen.Dataset, scratch: Scratch, traced: bool):
        self.dataset = dataset
        self.scratch = scratch
        self.traced = traced
        self.speed = SpeedProbe()
        self.server: Optional[Server] = None
        self.connections: List[MeteredClient] = []

    # ------------------------------------------------------------------ #

    def start_server(self, db_dir: Optional[str] = None) -> Server:
        trace_path = self.scratch.fresh("spans") + ".json" if self.traced else None
        self.server = Server(db_dir or self.scratch.fresh("db"), trace_path).start()
        return self.server

    def connect(self) -> MeteredClient:
        client = MeteredClient(port=self.server.port, timeout=CLIENT_TIMEOUT_S)
        if not self.connections:
            # The default is serial; should that change, threads the machine
            # cannot run side by side would only measure the interpreter lock.
            workers = client.stats()["parallel"]["workers"]
            if workers > cores():
                client.close()
                raise SetupError(f"refusing: the server runs {workers} parallel workers "
                                 f"on {cores()} core(s)")
        self.connections.append(client)
        return client

    def bulk_load(self, client: Client) -> None:
        """The whole dataset in one transaction, LOAD_BATCH_ROWS rows a request."""
        client.begin()
        for name, rows in self.dataset.relations():
            for i in range(0, len(rows), gen.LOAD_BATCH_ROWS):
                batch = rows[i:i + gen.LOAD_BATCH_ROWS]
                if client.facts(name, batch) != len(batch):
                    raise SetupError(f"bulk load of {name} did not insert every row")
        client.commit()

    @staticmethod
    def expect(result, expected: Set[tuple]) -> bool:
        return len(result.values) == len(expected) and set(result.values) == expected

    def warm(self, result, expected: Set[tuple], what: str) -> None:
        if not self.expect(result, expected):
            raise SetupError(f"wrong answer to {what} during warm-up")

    def setup(self) -> Tuple[float, float]:
        """Start the server, load, warm up; returns the seconds it took, as
        measured and at reference speed."""
        start = now_ns()
        self.prepare()
        end = now_ns()
        seconds = (end - start) / 1e9
        return seconds, seconds / self.speed.factor(start / 1e9, end / 1e9)

    def prepare(self) -> None:
        raise NotImplementedError

    def measure(self, budget: Budget) -> Phase:
        raise NotImplementedError

    def teardown(self) -> None:
        for client in self.connections:
            try:
                client.close()
            except CONNECTION_ERRORS:
                pass
        self.connections = []
        if self.server is not None:
            self.server.kill()
            self.server = None

    def finish_phase(self, phase: Phase, before: Optional[dict]) -> Phase:
        """Common tail of a measured phase on the live server."""
        phase.rss_peak_mb = self.server.rss_peak_mb()
        if self.traced:
            add_counters(phase.counters, flatten_stats(self.connections[0].stats()), before)
            phase.traces.append(self.server.dump_trace())
        return phase

    def stats_before(self) -> Optional[dict]:
        return flatten_stats(self.connections[0].stats()) if self.traced else None


# ---------------------------------------------------------------------- #

class PointReads(Workload):
    """Closed loop, 2 clients, warm sessions.  One op is a "paper page":
    three requests on one connection -- the paper, its authors, and one
    author's coauthors."""

    name = "point_reads"
    clients = 2

    def page_queries(self, paper: str, author: str):
        d = self.dataset
        return (
            (f"paper({paper}, V, Y)?", d.expect_paper(paper)),
            (f"wrote(A, {paper})?", d.expect_wrote(paper)),
            (f"coauthor({author}, B)?", d.expect_coauthor(author)),
        )

    def prepare(self) -> None:
        self.start_server()
        first, second = self.connect(), self.connect()
        self.bulk_load(first)
        for index, client in enumerate((first, second)):
            paper, author = next(self.dataset.pages(index))
            for text, expected in self.page_queries(paper, author):
                self.warm(client.query(text), expected, text)

    def _client_loop(self, index: int, budget: Budget, phase: Phase, out: list) -> None:
        client = self.connections[index]
        tally = Tally()
        exec_ms = 0.0
        rows = 0
        busy_start = client.busy_ns
        for paper, author in self.dataset.pages(index):
            if not budget.more():
                break
            before = client.busy_ns
            start = now_ns()
            ok = True
            try:
                for text, expected in self.page_queries(paper, author):
                    result = client.query(text)
                    ok = self.expect(result, expected) and ok
                    exec_ms += result.stats["elapsed_ms"]
                    rows += len(result.values)
            except RemoteError as exc:
                tally.record(False, f"page {paper}: {exc}")
                continue
            except CONNECTION_ERRORS as exc:
                tally.record(False, f"page {paper}: {type(exc).__name__}: {exc}")
                break
            # the three requests, without the checking in between
            phase.add("page", start, start + client.busy_ns - before)
            tally.record(ok, f"wrong answer on page {paper}/{author}")
        out[index] = (tally, exec_ms, rows, now_ns(), client.busy_ns - busy_start)

    def measure(self, budget: Budget) -> Phase:
        before = self.stats_before()
        phase = Phase(primary="page", speed=self.speed)
        out = [None, None]
        threads = [threading.Thread(target=self._client_loop, args=(i, share, phase, out))
                   for i, share in enumerate(budget.split(2))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = budget.start
        for tally, exec_ms, rows, finished, busy in out:
            phase.tally.merge(tally)
            phase.exec_ms += exec_ms
            phase.rows_returned += rows
            phase.client_busy_ms += busy / 1e6
            end = max(end, finished)
        phase.ops = phase.rate_count = len(phase.samples.get("page", ()))
        phase.rate_wall_s = (end - budget.start) / 1e9
        phase.window = (budget.start, end)
        return self.finish_phase(phase, before)


# ---------------------------------------------------------------------- #

class Analytic(Workload):
    """Closed loop, 1 client, one kind of request per workload:

    magic    `reach(p, Q)?` with ``magic=True`` on the warm session
    closure  new connection -> `reach(p, Q)?` -> close: parse, compile,
             plan and the full fixpoint for a small reply
    report   `call venue_report` (Glue procedure, two aggregates)
    export   `reach(P, Q)?` on the warm session: the fixpoint is cached,
             materializing and encoding the whole closure is the work
    """

    kind = ""
    clients = 2   # the warm session plus the `closure` op's short-lived connection
    one_core = True

    def prepare(self) -> None:
        self.start_server()
        client = self.connect()
        self.bulk_load(client)
        d = self.dataset
        self.closure_rows = d.expect_closure()
        self.report_rows = d.expect_report()
        self.warm(client.query("reach(P, Q)?"), self.closure_rows, "reach(P, Q)?")
        source = d.sources[0]
        self.warm(client.query(f"reach({source}, Q)?", magic=True), d.expect_reach(source),
                  "a magic reach query")
        self.warm(client.call("venue_report"), self.report_rows, "venue_report")
        self.warm(client.query("uncited(P)?"), d.expect_uncited(), "uncited(P)?")

    def _one(self, phase: Phase, sources) -> None:
        warm = self.connections[0]
        d = self.dataset
        kind = self.kind
        start = now_ns()
        try:
            if kind == "export":
                result, expected = warm.query("reach(P, Q)?"), self.closure_rows
            elif kind == "report":
                result, expected = warm.call("venue_report"), self.report_rows
            elif kind == "magic":
                source = next(sources)
                result = warm.query(f"reach({source}, Q)?", magic=True)
                expected = d.expect_reach(source)
            else:
                source = next(sources)
                expected = d.expect_reach(source)
                fresh = MeteredClient(port=self.server.port, timeout=CLIENT_TIMEOUT_S)
                try:
                    result = fresh.query(f"reach({source}, Q)?")
                finally:
                    fresh.close()
                    phase.client_busy_ms += fresh.busy_ns / 1e6
        except (RemoteError, *CONNECTION_ERRORS) as exc:
            phase.tally.record(False, f"{kind}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, RemoteError):
                raise
            return
        phase.add(kind, start, now_ns())
        phase.tally.record(self.expect(result, expected), f"wrong answer to a {kind} op")
        phase.exec_ms += result.stats["elapsed_ms"]
        phase.rows_returned += len(result.values)

    def measure(self, budget: Budget) -> Phase:
        before = self.stats_before()
        warm = self.connections[0]
        busy_start = warm.busy_ns
        phase = Phase(primary=self.kind, speed=self.speed)
        sources = self.dataset.reach_sources(self.kind)
        try:
            while budget.more():
                self._one(phase, sources)
        except CONNECTION_ERRORS:
            pass   # already tallied; the phase ends with the connection
        end = now_ns()
        phase.ops = phase.rate_count = len(phase.samples.get(self.kind, ()))
        phase.rate_wall_s = (end - budget.start) / 1e9
        phase.window = (budget.start, end)
        phase.client_busy_ms += (warm.busy_ns - busy_start) / 1e6
        return self.finish_phase(phase, before)


ANALYTIC_KINDS = ("magic", "closure", "report", "export")
ANALYTIC = [type(f"Analytic{kind.title()}", (Analytic,), {"name": f"analytic_{kind}", "kind": kind})
            for kind in ANALYTIC_KINDS]


# ---------------------------------------------------------------------- #

class MixedRW(Workload):
    """Connection W: open loop at WRITE_RATE transactions a second, each
    `begin; facts(wrote, 5 rows); facts(paper, 2 rows); commit`, timed from
    the moment it was due; W also holds `subscribe("coauthor", 2)` and reads
    each commit's notification.  Connection R: closed loop of
    `coauthor(a, B)?` on one session with READ_THINK_S between reads, so the
    first read after every commit repairs the IDB.  `ops_per_s` counts reads
    and transactions completed per second of wall time."""

    name = "mixed_rw"
    clients = 2

    def prepare(self) -> None:
        self.start_server()
        writer, reader = self.connect(), self.connect()
        self.bulk_load(writer)
        author = self.dataset.hot_authors[0]
        self.warm(reader.query(f"coauthor({author}, B)?"), self.dataset.expect_coauthor(author),
                  "a coauthor query")
        self.subscription = writer.subscribe("coauthor", 2, snapshot=True)
        self.replica = set(self.subscription.snapshot)
        if self.replica != self.dataset.expect_coauthor_all():
            raise SetupError("the subscription snapshot is not coauthor/2")

    def _writer(self, start: int, txns: List[gen.WriteTxn], phase: Phase, tally: Tally) -> None:
        client = self.connections[0]
        period = 1e9 / WRITE_RATE
        queued_max = 0
        for k, txn in enumerate(txns):
            due = start + int(k * period)
            wait = due - now_ns()
            if wait > 0:
                time.sleep(wait / 1e9)
            phase.add("late", due, max(due, now_ns()))
            try:
                client.begin()
                inserted = client.facts("wrote", txn.wrote) + client.facts("paper", txn.paper)
                self.sent = k + 1          # set before the commit can become visible
                commit_sent = now_ns()
                client.commit()
                acked = now_ns()
                self.acked = k + 1
            except RemoteError as exc:
                tally.record(False, f"transaction {k}: {exc}")
                continue
            except CONNECTION_ERRORS as exc:
                tally.record(False, f"transaction {k}: {type(exc).__name__}: {exc}")
                break
            phase.add("write", due, acked)
            got: Set[tuple] = set()
            give_up = time.monotonic() + NOTIFY_TIMEOUT_S
            while not txn.coauthor_delta <= got:
                note = self.subscription.next(timeout=max(0.0, give_up - time.monotonic()))
                if note is None:
                    break
                rows = set(note.rows)
                if note.op == "insert":
                    self.replica |= rows
                    got |= rows
                elif note.op == "delete":
                    self.replica -= rows
                else:
                    self.resynced = True
            phase.add("notify", commit_sent, now_ns())
            tally.record(inserted == 7 and got == txn.coauthor_delta,
                         f"transaction {k}: wrong insert count or notification")
            if self.traced:
                queued_max = max(queued_max, client.stats()["subscriptions"]["queued"])
        self.writer_done = True
        phase.extra["sub_queued_max"] = queued_max

    def _reader(self, history: gen.WriteHistory, phase: Phase, tally: Tally) -> None:
        client = self.connections[1]
        for author in self.dataset.read_authors():
            if self.writer_done:
                break
            lo = self.acked
            start = now_ns()
            try:
                result = client.query(f"coauthor({author}, B)?")
            except RemoteError as exc:
                tally.record(False, f"read {author}: {exc}")
                continue
            except CONNECTION_ERRORS as exc:
                tally.record(False, f"read {author}: {type(exc).__name__}: {exc}")
                break
            phase.add("read", start, now_ns())
            hi = self.sent
            got = set(result.values)
            tally.record(len(got) == len(result.values) and got in history.states(author, lo, hi),
                         f"read {author}: not a state between {lo} and {hi} commits")
            phase.exec_ms += result.stats["elapsed_ms"]
            phase.rows_returned += len(result.values)
            time.sleep(READ_THINK_S)

    def measure(self, budget: Budget) -> Phase:
        before = self.stats_before()
        txns = self.dataset.write_txns(budget.scheduled(WRITE_RATE))
        history = gen.WriteHistory(self.dataset, txns)
        self.sent = self.acked = 0
        self.writer_done = False
        self.resynced = False
        phase = Phase(primary="write", speed=self.speed)
        tallies = Tally(), Tally()
        busy_start = sum(c.busy_ns for c in self.connections)
        start = now_ns()
        threads = [
            threading.Thread(target=self._writer, args=(start, txns, phase, tallies[0])),
            threading.Thread(target=self._reader, args=(history, phase, tallies[1])),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = now_ns()
        for tally in tallies:
            phase.tally.merge(tally)
        phase.ops = len(phase.samples.get("write", ()))
        phase.rate_count = phase.ops + len(phase.samples.get("read", ()))
        phase.rate_wall_s = (end - start) / 1e9
        phase.window = (start, end)
        phase.client_busy_ms = (sum(c.busy_ns for c in self.connections) - busy_start) / 1e6
        phase.extra["late_p95_ms"] = percentile(phase.latencies("late"), 95)
        # The subscriber's replica (snapshot + deltas) against a re-query
        # and against the oracle; and the server must have pushed something.
        final = self.connections[1].query("coauthor(A, B)?")
        # (`subscriptions.notifications_pushed` in the same reply counts only
        # the asking connection's thread, so a reader always sees 0 there.)
        pushed = self.connections[1].stats()["server_counters"].get("notifications_pushed", 0)
        replica_ok = (not self.resynced and pushed > 0 and set(final.values) == self.replica
                      and self.replica == history.final_coauthor(self.acked))
        phase.tally.record(replica_ok, "subscriber replica differs from coauthor/2")
        return self.finish_phase(phase, before)


# ---------------------------------------------------------------------- #

class IngestRecover(Workload):
    """Closed loop, 1 client, a fresh durable directory per cycle: autocommit
    `facts` batches of 250 rows; the same inside `begin`/`commit`, ten
    batches a transaction; `checkpoint`; one more transaction and a short
    autocommit tail for recovery to replay; SIGKILL; restart; first correct
    `rels` reply; then every acknowledged row is read back.

    `p50_ms` is a transaction, `begin` to the acknowledgement of `commit`:
    2 500 rows made durable.  `ops_per_s` is acknowledged batches over the
    whole ingest (autocommit batches, transactions and checkpoint), that is
    rows per second / 250.  `setup_s` is what bringing a server up costs
    here: from the spawn after SIGKILL to the first correct reply."""

    name = "ingest_recover"
    clients = 1
    one_core = True

    def prepare(self) -> None:
        pass    # each cycle starts, kills and restarts its own server

    def _batch(self, client, name: str, rows: list, kind: str, phase: Phase,
               ledger: Dict[str, Set[tuple]]) -> None:
        start = now_ns()
        try:
            inserted = client.facts(name, rows)
        except RemoteError as exc:
            phase.tally.record(False, f"facts {name}: {exc}")
            return
        phase.add(kind, start, now_ns())
        phase.tally.record(inserted == len(rows), f"facts {name}: {inserted} of {len(rows)} rows")
        ledger.setdefault(name, set()).update(tuple(row) for row in rows)
        phase.ops += 1

    def _cycle(self, index: int, phase: Phase) -> None:
        plan = self.dataset.ingest_cycle(index)
        ledger: Dict[str, Set[tuple]] = {}
        db_dir = self.scratch.fresh("db")
        self.start_server(db_dir)
        client = self.connect()
        client.ping()

        ingest_start = now_ns()
        def transactions(txns) -> None:
            for txn in txns:
                began = now_ns()
                client.begin()
                for name, rows in txn:
                    self._batch(client, name, rows, "txn_batch", phase, ledger)
                start = now_ns()
                client.commit()
                phase.add("commit", start, now_ns())
                phase.add("txn", began, now_ns())

        for name, rows in plan.auto:
            self._batch(client, name, rows, "write", phase, ledger)
        transactions(plan.txns)
        start = now_ns()
        client.checkpoint()
        phase.add("checkpoint", start, now_ns())
        transactions(plan.tail_txns)
        for name, rows in plan.tail:
            self._batch(client, name, rows, "write", phase, ledger)
        phase.rate_wall_s += (now_ns() - ingest_start) / 1e9
        phase.rate_count = phase.ops
        phase.extra["rows"] = phase.extra.get("rows", 0) + sum(len(r) for r in ledger.values())

        trace = self._retire(phase)
        if self.traced:
            # SIGKILL leaves the operating system's cache intact; an OS crash
            # would not, so drop what was never fsynced.
            phase.extra["unsynced_bytes"] = (phase.extra.get("unsynced_bytes", 0)
                                             + discard_unsynced(db_dir, trace["synced"]))

        spawned = now_ns()
        self.start_server(db_dir)
        client = self.connect()
        catalog = {(entry["name"], entry["arity"]): entry["rows"] for entry in client.rels()}
        recovered = now_ns()
        expected = {(name, len(next(iter(rows)))): len(rows) for name, rows in ledger.items()}
        phase.tally.record(catalog == expected, f"after restart rels says {catalog}")
        phase.add("recover", spawned, recovered)
        for name, rows in ledger.items():
            arity = len(next(iter(rows)))
            got = set(client.rows(name, arity).values)
            lost, unsent = len(rows - got), len(got - rows)
            phase.tally.record(True, count=len(rows) - lost)
            if lost:
                phase.tally.record(False, f"{lost} acknowledged {name} rows lost", count=lost)
            if unsent:
                phase.tally.record(False, f"{unsent} {name} rows nobody sent", count=unsent)
        self._retire(phase)

    def _retire(self, phase: Phase) -> Optional[dict]:
        """Read what the live server knows, then SIGKILL it; returns its trace."""
        client = self.connections[0]
        phase.rss_peak_mb = max(phase.rss_peak_mb, self.server.rss_peak_mb())
        phase.client_busy_ms += client.busy_ns / 1e6
        trace = None
        if self.traced:
            add_counters(phase.counters, flatten_stats(client.stats()))
            trace = self.server.dump_trace()
            phase.traces.append(trace)
        self.server.kill()      # before the client could say goodbye
        self.teardown()
        return trace

    def measure(self, budget: Budget) -> Phase:
        phase = Phase(primary="txn", setup_kind="recover", speed=self.speed)
        cycles = 0
        try:
            while budget.more():
                self._cycle(cycles, phase)
                cycles += 1
        except (RemoteError, *CONNECTION_ERRORS) as exc:
            phase.tally.record(False, f"cycle {cycles}: {type(exc).__name__}: {exc}")
            self.teardown()
        return phase


WORKLOADS = {cls.name: cls for cls in (PointReads, *ANALYTIC, MixedRW, IngestRecover)}
