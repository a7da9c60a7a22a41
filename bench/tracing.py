"""Span tracer that measures avipack's layers from outside the program.

The benchmark never edits ``src/``: :class:`Tracer` replaces a fixed list
of public avipack functions and methods (:data:`TARGETS`) with wrappers
that record one span per call — name, start, end, self time (duration
minus the time of child spans on the same thread) and the parent span's
name.  Module-level functions are replaced wherever a module of the
package bound them (``from ..fingerprint import stable_fingerprint``
creates one binding per importing module), so every call site is seen.

Spans are buffered per process and appended to
``<trace_dir>/spans.<pid>.jsonl``: by a pool worker after every
candidate, by a traced server after every job or ``results`` request,
and by the benchmark process between campaigns, outside the timed
intervals.  Pool workers inherit the installed wrappers because the
sweep runner's pool forks; a fork hook clears the inherited buffer and
stack.

``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, so span times
from different processes share one time base and can be matched to the
campaign that caused them.

Run as a script, it starts the sweep job server with tracing installed::

    python bench/tracing.py TRACE_DIR serve --socket S --journal-dir D
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Tuple

clock = time.perf_counter

#: ``(module, attribute path, span name)`` of every wrapped callable.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("avipack.sweep.runner", "SweepRunner.run", "sweep.run"),
    ("avipack.sweep.runner", "SweepRunner.resume", "sweep.resume"),
    ("avipack.sweep.runner", "evaluate_candidate", "sweep.evaluate"),
    ("avipack.sweep.space", "Candidate.build", "sweep.build"),
    ("avipack.fingerprint", "stable_fingerprint", "sweep.fingerprint"),
    ("avipack.core.levels", "run_level1", "core.level1"),
    ("avipack.core.levels", "run_level2", "core.level2"),
    ("avipack.core.levels", "run_level3", "core.level3"),
    ("avipack.core.design_flow", "run_mechanical_branch", "core.mechanical"),
    ("avipack.durability.journal", "SweepJournal.create",
     "durability.journal.create"),
    ("avipack.durability.journal", "SweepJournal.append_to",
     "durability.journal.append_to"),
    ("avipack.durability.journal", "SweepJournal.record_plan",
     "durability.journal.record_plan"),
    ("avipack.durability.journal", "SweepJournal.record_dispatched",
     "durability.journal.record_dispatched"),
    ("avipack.durability.journal", "SweepJournal.record_outcome",
     "durability.journal.record_outcome"),
    ("avipack.durability.journal", "replay_journal", "durability.replay"),
    ("avipack.durability.audit", "audit_outcomes", "durability.audit"),
    ("avipack.results.store", "ResultStoreWriter.add", "results.write"),
    ("avipack.results.store", "ResultStoreWriter.close", "results.close"),
    ("avipack.results.store", "publish_shard", "results.publish"),
    ("avipack.results.store", "ResultStore.open", "results.open"),
    ("avipack.results.store", "ResultStore.live_fingerprints",
     "results.open"),
    ("avipack.results.query", "ranked_row_ids", "results.query"),
    ("avipack.results.query", "ranking_signature", "results.query"),
    ("avipack.results.query", "headroom_histogram", "results.query"),
    ("avipack.results.report", "render_store_report", "results.query"),
    ("avipack.retention.checkpoint", "compact_journal",
     "retention.compact_journal"),
    ("avipack.retention.storecompact", "compact_store",
     "retention.compact_store"),
)

#: Prefix of the journal spans; an ``os.fsync`` issued inside one of
#: them is recorded as a ``durability.fsync`` span.
JOURNAL_PREFIX = "durability.journal."


def _evaluate_attrs(outcome: Any) -> Dict[str, Any]:
    """Cache and solver counters one candidate evaluation carried back."""
    return {
        "hits": getattr(outcome, "cache_hits", 0),
        "misses": getattr(outcome, "cache_misses", 0),
        "perf": {stats.kernel: [stats.factorizations, stats.wall_s]
                 for stats in getattr(outcome, "perf", ())},
    }


def _report_attrs(report: Any) -> Dict[str, Any]:
    """Pool width of one campaign."""
    return {"workers": report.workers}


_ATTRS: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "sweep.evaluate": _evaluate_attrs,
    "sweep.run": _report_attrs,
    "sweep.resume": _report_attrs,
}


class Tracer:
    """Records spans of the wrapped avipack callables in this process.

    :meth:`install` replaces the :data:`TARGETS` (and ``os.fsync``) and
    :meth:`uninstall` restores the originals, so a benchmark can trace
    some campaigns and not others.  :meth:`span` records a span around
    the benchmark's own code while installed.

    With ``flush_roots=False`` this process keeps its spans in memory
    until :meth:`flush` (called by :meth:`uninstall`), so serialising
    them never lands inside a timed interval; forked children always
    flush after each root span.
    """

    def __init__(self, trace_dir: str, flush_roots: bool = True) -> None:
        self.trace_dir = trace_dir
        self.flush_roots = flush_roots
        self.installed = False
        self._patches: List[Tuple[Any, str, Any]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffer: List[tuple] = []

    def _after_fork(self) -> None:
        self._reset()
        self.flush_roots = True

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [name, 0.0, clock()]
        self._stack().append(frame)
        return frame

    def _close(self, frame: list, result: Any = None) -> None:
        end = clock()
        stack = self._stack()
        stack.pop()
        name, child_s, start = frame
        duration = end - start
        if stack:
            stack[-1][1] += duration
        attrs = _ATTRS.get(name)
        record = (name, start, end, duration - child_s,
                  stack[-1][0] if stack else None, self.pid,
                  attrs(result) if attrs and result is not None else None)
        with self._lock:
            self._buffer.append(record)
        if not stack and self.flush_roots:
            self.flush()

    def flush(self) -> None:
        """Append buffered spans to this process's trace file."""
        with self._lock:
            records, self._buffer = self._buffer, []
        if records:
            path = os.path.join(self.trace_dir, f"spans.{self.pid}.jsonl")
            with open(path, "a", encoding="utf-8") as stream:
                stream.write("".join(json.dumps(record) + "\n"
                                     for record in records))

    def _call(self, name: str, fn: Callable, args: tuple,
              kwargs: dict) -> Any:
        frame = self._open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            self._close(frame, result)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the block as a span (no-op while not installed)."""
        if not self.installed:
            yield
            return
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    # -- wrapping ------------------------------------------------------------

    def _wrap_function(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return wrapper

    def _wrap_fsync(self, fsync: Callable) -> Callable:
        tracer = self

        @functools.wraps(fsync)
        def wrapper(fd):
            stack = tracer._stack()
            if any(frame[0].startswith(JOURNAL_PREFIX) for frame in stack):
                return tracer._call("durability.fsync", fsync, (fd,), {})
            return fsync(fd)

        return wrapper

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; idempotent."""
        if self.installed:
            return
        for module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, classmethod(
                        self._wrap_function(raw.__func__, name)))
                else:
                    self._patch(owner, attr,
                                self._wrap_function(raw, name))
                continue
            original = getattr(module, path)
            wrapper = self._wrap_function(original, name)
            for other in list(sys.modules.values()):
                if not getattr(other, "__name__", "").startswith("avipack"):
                    continue
                for attr, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, attr, wrapper)
        self._patch(os, "fsync", self._wrap_fsync(os.fsync))
        self.installed = True

    def uninstall(self) -> None:
        """Restore every original callable, then flush."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.installed = False
        self.flush()


#: Field order of a span record on disk (one JSON array per line); the
#: last field holds extra counters or ``null``.
FIELDS = ("name", "start", "end", "self", "parent", "pid")


def load_spans(trace_dir: str) -> List[Dict[str, Any]]:
    """Every span any process appended under ``trace_dir``, as dicts."""
    spans: List[Dict[str, Any]] = []
    for entry in sorted(os.listdir(trace_dir)):
        if entry.startswith("spans.") and entry.endswith(".jsonl"):
            with open(os.path.join(trace_dir, entry),
                      encoding="utf-8") as stream:
                for line in stream:
                    row = json.loads(line)
                    span = dict(zip(FIELDS, row))
                    span.update(row[-1] or {})
                    spans.append(span)
    return spans


def _serve(argv: List[str]) -> int:
    """Run ``python -m avipack`` with tracing installed."""
    trace_dir, rest = argv[0], argv[1:]
    from avipack.__main__ import main

    tracer = Tracer(trace_dir)
    tracer.install()
    return main(rest)


if __name__ == "__main__":
    sys.exit(_serve(sys.argv[1:]))
