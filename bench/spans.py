"""Server-side span recording for ``bench/serve.py --trace FILE``.

Timing wrappers are installed, from here, around the public entry points
of each layer (package under ``src/repro``) before the server starts; the
product itself is not edited.  Each wrapper records one span::

    (name id, start ns, duration ns, self ns, request id, n, span id, parent id)

``self`` is the duration minus the time spent in wrapped calls made from
inside it, so the self times under one ``server.dispatch`` span add up to
its duration.  ``request id`` is shared by every span a connection thread
records between one ``protocol.decode`` and the next.  ``n`` is a size the
wrapper measured where the work happens (bytes, rows, cache hits).  Spans
stay in memory and are written, as JSON, when the process gets SIGUSR1.

Start times are ``time.perf_counter_ns()``: CLOCK_MONOTONIC on Linux,
which every process on the machine shares, so the load generator can cut
the spans of its measured phase out by time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import pkgutil
import signal
import sys
import threading
import time

_now = time.perf_counter_ns


def _size_first_arg(args, result):
    return len(args[0])


def _size_result(args, result):
    return len(result)


def _size_rows(args, result):
    return len(result.get("rows", ()))


def _number_result(args, result):
    return result


def _file_bytes(args, result):
    return os.path.getsize(args[1])


# (span name, module, attribute path, options).  Options: ``size`` computes
# the span's n from (args, result); ``before`` computes a value before the
# call that ``size`` receives as a third argument; ``leaf`` marks a hot
# function whose calls are summed per enclosing top-level span instead of
# recorded one by one; ``request`` marks the span that opens a request.
TARGETS = [
    ("server.decode", "repro.server.protocol", "decode",
     {"size": _size_first_arg, "request": True}),
    ("server.encode", "repro.server.protocol", "encode", {"size": _size_result}),
    ("server.payload", "repro.server.protocol", "rows_payload", {"size": _size_rows}),
    ("server.dispatch", "repro.server.server", "Session.dispatch", {}),
    ("server.lock_wait", "repro.server.rwlock", "RWLock.acquire_read", {}),
    ("server.lock_wait", "repro.server.rwlock", "RWLock.acquire_write", {}),
    ("lang.parse", "repro.lang.parser", "parse_query", {}),
    ("lang.parse", "repro.lang.parser", "parse_program", {}),
    ("core.compile", "repro.core.system", "GlueNailSystem.compile",
     {"before": lambda args: getattr(args[0], "_compiled", None) is None,
      "size": lambda args, result, fresh: int(fresh)}),
    ("core.facade", "repro.core.system", "GlueNailSystem.query", {}),
    ("core.facade", "repro.core.system", "GlueNailSystem.query_magic", {}),
    ("core.facade", "repro.core.system", "GlueNailSystem.call", {}),
    ("core.facade", "repro.core.system", "GlueNailSystem.facts", {}),
    ("vm.compile", "repro.vm.compiler", "ProgramCompiler.compile_program", {}),
    ("opt.plan", "repro.opt.passes", "optimize", {}),
    ("nail.query", "repro.nail.engine", "NailEngine.query", {}),
    ("nail.query", "repro.nail.engine", "NailEngine.materialize", {}),
    ("nail.magic", "repro.nail.engine", "magic_query", {}),
    ("vm.call", "repro.vm.machine", "Machine.call_proc", {}),
    ("glue.agg", "repro.glue.aggregates", "apply_aggregate", {}),
    ("col.kernel", "repro.col.kernels", "run_probe", {}),
    ("col.kernel", "repro.col.kernels", "run_broadcast", {}),
    ("col.kernel", "repro.col.kernels", "run_member", {}),
    # n = 1 when the kernel-table cache answered, 0 when the table was built.
    *[("col.table", "repro.col.kernels", f"ColumnarContext.{method}",
       {"before": lambda args: args[0].hits,
        "size": lambda args, result, hits: args[0].hits - hits})
      for method in ("probe_table", "rowset", "broadcast_columns", "glue_probe_table")],
    ("col.intern", "repro.col.atoms", "AtomTable.intern_row", {"leaf": True}),
    ("col.intern", "repro.col.atoms", "AtomTable.intern_column", {"leaf": True}),
    ("storage.insert", "repro.storage.database", "Database.facts", {"size": _number_result}),
    ("storage.checkpoint", "repro.storage.persist", "save_database", {"size": _file_bytes}),
    ("storage.load", "repro.storage.persist", "load_database", {}),
    ("txn.commit", "repro.txn.manager", "TransactionManager.commit", {}),
    # n = bytes the commit appended to the log file.
    ("txn.wal_append", "repro.txn.wal", "WriteAheadLog.append_commit",
     {"before": lambda args: os.path.getsize(args[0].path),
      "size": lambda args, result, size: os.path.getsize(args[0].path) - size}),
    ("txn.replay", "repro.txn.wal", "replay_wal", {}),
    ("txn.fsync", "os", "fsync", {}),
    ("mvcc.publish", "repro.mvcc.store", "VersionStore.publish", {}),
    ("mvcc.pin", "repro.mvcc.store", "VersionStore.pin", {}),
    ("sub.on_commit", "repro.sub.manager", "SubscriptionManager.on_commit", {}),
]


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []      # one [child ns, span id] cell per open span
        self.request = 0
        self.leaves = {}     # name id -> [calls, ns] since the last flush


class Recorder:
    """The process-wide span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self.leaf_names = set()
        self.missing = []
        self.spans = []
        self.synced = {}         # inode -> file size at its last fsync
        self.columnar = []       # every ColumnarContext created
        self._tls = _ThreadState()
        self._requests = itertools.count(1)
        self._span_ids = itertools.count(1)

    # ------------------------------------------------------------------ #

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _flush_leaves(self, tls, start: int, parent: int) -> None:
        for name_id, (calls, total) in tls.leaves.items():
            self.spans.append((name_id, start, total, total, tls.request, calls,
                               next(self._span_ids), parent))
        tls.leaves.clear()

    def wrap(self, fn, name, size=None, before=None, leaf=False, request=False):
        name_id = self._name_id(name)
        tls = self._tls
        spans = self.spans
        span_ids = self._span_ids
        if leaf:
            self.leaf_names.add(name)

            def leaf_wrapper(*args, **kwargs):
                start = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    took = _now() - start
                    stack = tls.stack
                    if stack:
                        stack[-1][0] += took
                        cell = tls.leaves.get(name_id)
                        if cell is None:
                            tls.leaves[name_id] = [1, took]
                        else:
                            cell[0] += 1
                            cell[1] += took
                    else:
                        spans.append((name_id, start, took, took, tls.request, 1,
                                      next(span_ids), 0))

            return leaf_wrapper

        def wrapper(*args, **kwargs):
            stack = tls.stack
            if request and not stack:
                tls.request = next(self._requests)
            cell = [0, next(span_ids)]
            parent = stack[-1][1] if stack else 0
            n = 0
            try:
                prior = before(args) if before is not None else None
            except Exception:  # noqa: BLE001 - as for `size` below
                prior = None
            stack.append(cell)
            start = _now()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    try:
                        n = size(args, result) if before is None else size(args, result, prior)
                    except Exception:  # noqa: BLE001 - a measurement must not break the call
                        n = -1
                return result
            finally:
                took = _now() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                spans.append((name_id, start, took, took - cell[0], tls.request, n,
                              cell[1], parent))
                if not stack and tls.leaves:
                    self._flush_leaves(tls, start, cell[1])

        return wrapper

    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every target that exists; list the ones that do not."""
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            try:
                importlib.import_module(info.name)
            except ImportError:
                pass
        for name, module_name, path, options in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self._name_id(name)
                self.missing.append({"metric": name, "target": f"{module_name}.{path}"})
                continue
            wrapper = self.wrap(original, name, **options)
            setattr(owner, attr, wrapper)
            if not parents:
                # `from module import fn [as other]` bound the original in the
                # importer's namespace: rebind those names too.
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro"):
                        for key, value in list(vars(module).items()):
                            if value is original:
                                setattr(module, key, wrapper)
        self._track_fsync_sizes()
        self._track_columnar_contexts()

    def _track_fsync_sizes(self) -> None:
        """Remember how long each file was when it was last fsynced, so the
        durability check can cut off bytes that were never flushed."""
        timed_fsync = os.fsync
        synced = self.synced

        def fsync(fd):
            timed_fsync(fd)
            info = os.fstat(fd)
            synced[info.st_ino] = info.st_size

        os.fsync = fsync

    def _track_columnar_contexts(self) -> None:
        try:
            from repro.col.kernels import ColumnarContext
        except ImportError:
            return
        original = ColumnarContext.__init__
        seen = self.columnar

        def init(context, *args, **kwargs):
            original(context, *args, **kwargs)
            seen.append(context)

        ColumnarContext.__init__ = init

    # ------------------------------------------------------------------ #

    def dump(self, path: str) -> None:
        document = {
            "pid": os.getpid(),
            "names": self.names,
            "leaf_names": sorted(self.leaf_names),
            "missing": self.missing,
            "spans": list(self.spans),
            "synced": {str(inode): size for inode, size in self.synced.items()},
            "columnar": [context.stats() for context in list(self.columnar)],
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
        os.replace(tmp, path)


def install(path: str) -> Recorder:
    """Install the wrappers; SIGUSR1 writes the spans recorded so far."""
    recorder = Recorder()
    recorder.install()
    signal.signal(signal.SIGUSR1, lambda signum, frame: recorder.dump(path))
    return recorder
