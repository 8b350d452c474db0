"""Span tracing of the library's public functions, installed from outside.

The tracer replaces each traced function, in every cmtrace module that
holds a reference to it, with a wrapper that records a span: name, start,
end and parent. Each thread keeps its own span stack and its own columns,
so no lock is taken on the hot path. The pools inside sweep and
density_oracle run their work on threads whose stacks start empty; a span
opened there is parented to the caller thread's innermost open span, which
is the sweep or density_oracle call that owns the pool (the benchmark has a
single caller thread, and it is blocked in that call while the pool runs).

Spans stay in memory until the run ends. Self time is a span's duration
minus the part of it its children cover; children from several pool
threads overlap, so the covered part is the union of their intervals.
"""

from __future__ import annotations

import sys
import threading
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


class _ThreadLog:
    __slots__ = ("tid", "name", "start", "end", "ptid", "pidx", "stack")

    def __init__(self, tid: int):
        self.tid = tid
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.ptid = array("i")  # parent's thread log, -1 for a root span
        self.pidx = array("q")  # parent's index in that log
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._caller = self._log()
        self._patched: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.counters: Counter = Counter()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def wrap(self, name: str, fn, observe=None):
        """fn with a span around each call; observe(counters, args, result) after success."""
        nid = len(self.names)
        self.names.append(name)
        caller = self._caller

        def traced(*args, **kwargs):
            log = self._log()
            if log.stack:
                ptid, pidx = log.tid, log.stack[-1]
            elif log is not caller and caller.stack:
                ptid, pidx = caller.tid, caller.stack[-1]
            else:
                ptid, pidx = -1, -1
            i = len(log.start)
            log.name.append(nid)
            log.ptid.append(ptid)
            log.pidx.append(pidx)
            log.end.append(0.0)
            log.stack.append(i)
            log.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[i] = perf_counter()
                log.stack.pop()
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each (module, function, observe) in every cmtrace module that references it."""
        mods = [m for n, m in sys.modules.items() if n == "cmtrace" or n.startswith("cmtrace.")]
        for modname, fname, observe in targets:
            orig = getattr(sys.modules[f"cmtrace.{modname}"], fname)
            wrapper = self.wrap(f"{modname}.{fname}", orig, observe)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def columns(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; parent is an index into the same arrays, -1 for roots."""
        logs = list(self._logs)
        sizes = [len(g.start) for g in logs]
        offset = np.concatenate(([0], np.cumsum(sizes)[:-1])).astype(np.int64)
        cols = {
            key: np.concatenate([np.frombuffer(getattr(g, key), dtype=dt) for g in logs])
            for key, dt in (("name", np.uint16), ("start", np.float64), ("end", np.float64),
                            ("ptid", np.int32), ("pidx", np.int64))
        }
        ptid, pidx = cols.pop("ptid"), cols.pop("pidx")
        cols["parent"] = np.where(ptid >= 0, offset[np.maximum(ptid, 0)] + pidx, -1)
        cols["thread"] = np.repeat(np.arange(len(logs), dtype=np.int32), sizes)
        return cols


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals."""
    covered = np.zeros(len(start))
    kids = np.nonzero(parent >= 0)[0]
    if len(kids):
        p = parent[kids]
        s = np.maximum(start[kids], start[p])
        e = np.minimum(end[kids], end[p])
        order = np.lexsort((s, p))
        p, s, e = p[order], s[order], e[order]
        # Shift each parent's children into a band of their own so that one
        # running maximum of end times serves every parent at once.
        t0 = start.min()
        width = end.max() - t0 + 1.0
        band = np.unique(p, return_inverse=True)[1] * width
        s, e = s - t0 + band, e - t0 + band
        reached = np.concatenate(([-np.inf], np.maximum.accumulate(e)[:-1]))
        np.add.at(covered, p, np.maximum(0.0, e - np.maximum(s, reached)))
    return (end - start) - covered


def span_cost(repeats: int = 5, calls: int = 20_000) -> float:
    """Seconds one traced call adds over a bare call (fastest of several tries)."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)
