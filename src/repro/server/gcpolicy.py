"""The serve process's cycle-collector policy, and what the collector did.

``gluenail serve`` calls :func:`set_gc_policy` once, before it builds the
server; an embedded system and an in-process
:class:`~repro.server.server.GlueNailServer` keep the interpreter's
defaults.  The server's objects form no reference cycles, so what a
request leaves behind is freed by reference counting, and a rarer
collector holds none of it longer.
"""

from __future__ import annotations

import gc
from time import perf_counter

# The young generation's size, in net tracked allocations.  One
# `analytic_closure` request (a fresh connection deriving reach/2 over the
# bench dataset) allocates ~250 k net tracked containers: 358 gen-0
# collections at the default 700.  At 700 its working set is promoted and
# re-walked by 0.95 full collections per request, 136-176 ms of collector
# pause per request; at 10 000, 0.10 full collections and 41-49 ms
# (in-process, 20 requests, 2-vCPU Xeon, CPython 3.11.7).  See
# docs/PERFORMANCE.md, "The cycle collector", for the larger sizes tried.
YOUNG_GENERATION = 10_000

# Collector pause per generation, in seconds, since set_gc_policy().
_pause_s = [0.0] * len(gc.get_threshold())
_started = 0.0


def _time_collection(phase: str, info: dict) -> None:
    # Collections never overlap: each runs to completion holding the GIL.
    global _started
    if phase == "start":
        _started = perf_counter()
    else:
        _pause_s[info["generation"]] += perf_counter() - _started


def set_gc_policy() -> None:
    """Size the young generation for one request and start timing the
    collector's pauses (installed once per process)."""
    gc.set_threshold(YOUNG_GENERATION, *gc.get_threshold()[1:])
    if _time_collection not in gc.callbacks:
        gc.callbacks.append(_time_collection)


def gc_stats() -> dict:
    """The `stats` reply's ``gc`` block: process-wide, every session and
    thread included.  ``pause_ms`` is null unless the policy is set."""
    timed = _time_collection in gc.callbacks
    return {
        "threshold": gc.get_threshold()[0],
        "generations": [
            {
                "collections": generation["collections"],
                "collected": generation["collected"],
                "pause_ms": round(_pause_s[index] * 1e3, 3) if timed else None,
            }
            for index, generation in enumerate(gc.get_stats())
        ],
    }
