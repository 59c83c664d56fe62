"""Tracing for the benchmark's traced run.

The tracer patches the public entry points of each ``repro`` layer at
class level (installed *before* the database is built, because
``StorageManager.__init__`` binds ``buffer.fetch`` onto the instance, and
restored afterwards).  Two kinds of records come out of it:

* **spans** — one per user op or transaction, reorganization pass,
  reorganizer/daemon process and ``Scheduler.run`` call, each with a name,
  wall start and end, simulated start and end where a scheduler is
  running, its parent span and the op/txn/protocol identifier;
* **frames** — every wrapped call (and every resume of a wrapped protocol
  generator, plus the ``Call`` functions it yields) pushes a frame on a
  stack.  A frame's self time is its duration minus the time of the frames
  nested in it.  Frames are not kept one by one: calls and self time are
  summed per (parent span, frame name), because the hot calls run about a
  million times per run.

Attribution is sticky: resuming a protocol generator makes its span the
current one, and it stays current while the scheduler executes the op the
generator yielded (a lock request, a page fetch), until another generator
resumes.  Spans are written as Chrome trace-event JSON, which Perfetto
and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.btree.tree import BPlusTree
from repro.locks.manager import LockManager
from repro.metrics import FragmentationStats
from repro.reorg.daemon import ReorgDaemon
from repro.reorg.protocols import ReorgProtocol
from repro.reorg.sidefile import SideFile
from repro.shard.router import ShardRouter
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk
from repro.txn.ops import Call
from repro.txn.scheduler import Scheduler
from repro.wal.log import LogManager

#: (class, method, frame name) of every plain call the tracer times.
CALL_FRAMES: list[tuple[type, str, str]] = [
    (BufferPool, "fetch", "storage.fetch"),
    (BufferPool, "flush_page", "storage.flush_page"),
    (BufferPool, "flush_all", "storage.flush_all"),
    (BufferPool, "force", "storage.force"),
    (SimulatedDisk, "read", "storage.disk_read"),
    (SimulatedDisk, "read_batch", "storage.disk_read_batch"),
    (SimulatedDisk, "write", "storage.disk_write"),
    (BPlusTree, "search", "btree.search"),
    (BPlusTree, "insert", "btree.insert"),
    (BPlusTree, "delete", "btree.delete"),
    (BPlusTree, "range_scan", "btree.scan"),
    (BPlusTree, "leaf_ids_in_key_order", "btree.leaf_chain_sweep"),
    (LogManager, "append", "wal.append"),
    (LogManager, "flush", "wal.flush"),
    (LockManager, "request", "locks.request"),
    (LockManager, "convert", "locks.convert"),
    (LockManager, "release", "locks.release"),
    (LockManager, "release_all", "locks.release_all"),
    (LockManager, "downgrade", "locks.downgrade"),
    (SideFile, "append", "reorg.side_file_append"),
    (ShardRouter, "shard_for", "shard.route"),
    (FragmentationStats, "sync_from_tree", "frag.sync"),
]

#: (class, generator method, frame and span name, top level): each call
#: returns a protocol generator whose resumes are timed under one span.  A
#: top-level span's parent is the ``Scheduler.run`` span; a nested one's
#: is the span that delegated to it (a pass under the daemon).
GENERATOR_FRAMES: list[tuple[type, str, str, bool]] = [
    (ReorgProtocol, "pass1", "reorg.pass1", False),
    (ReorgProtocol, "pass2", "reorg.pass2", False),
    (ReorgProtocol, "pass3", "reorg.pass3", False),
    (ReorgDaemon, "run", "reorg.daemon", True),
]

#: Frame-name prefix -> the ``repro`` module that owns the frame.
LAYER_OF_PREFIX = {
    "storage": "repro.storage",
    "btree": "repro.btree",
    "wal": "repro.wal",
    "locks": "repro.locks",
    "txn": "repro.txn",
    "reorg": "repro.reorg",
    "shard": "repro.shard",
    "frag": "repro.metrics",
}


class Span:
    """One traced boundary: an op, a txn, a pass, a process, a run."""

    __slots__ = (
        "span_id", "name", "ident", "parent", "start", "end",
        "sim_start", "sim_end", "agg_key", "sync",
    )

    def __init__(self, span_id, name, ident, parent, start, sim_start, agg_key, sync):
        self.span_id = span_id
        self.name = name
        self.ident = ident
        self.parent = parent
        self.start = start
        self.end = start
        self.sim_start = sim_start
        self.sim_end = sim_start
        self.agg_key = agg_key
        #: True when the span nests on the call stack (complete event);
        #: False for DES spans that interleave with others (async event).
        self.sync = sync


class Tracer:
    """Class-level call wrappers, a frame stack and the recorded spans."""

    def __init__(self) -> None:
        self.enabled = False
        #: Open frames; each holds the summed duration of its children.
        self.stack: list[list[float]] = []
        #: (parent span aggregation key, frame name) -> [calls, self seconds]
        self.agg: dict[tuple[Any, str], list] = {}
        self.spans: list[Span] = []
        self.current: Span | None = None
        #: Innermost open call-stack span (the ``Scheduler.run`` span while
        #: the scheduler runs): the parent of top-level protocol spans.
        self.sync_span: Span | None = None
        #: Running scheduler, for simulated span times (None outside DES).
        self.scheduler: Scheduler | None = None
        self._patches: list[tuple[type, str, Any]] = []
        self._ids = 0
        #: Wall seconds the tracer has been recording (between start/stop).
        self.window_s = 0.0
        self._started = 0.0

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for cls, attr, name in CALL_FRAMES:
            self._patch(cls, attr, self._frame_wrapper(getattr(cls, attr), name))
        self._patch(Scheduler, "run", self._span_wrapper(Scheduler.run, "txn.run"))
        for cls, attr, name, top_level in GENERATOR_FRAMES:
            self._patch(
                cls, attr,
                self._generator_wrapper(getattr(cls, attr), name, top_level),
            )

    def restore(self) -> None:
        for cls, attr, original in reversed(self._patches):
            setattr(cls, attr, original)
        self._patches.clear()
        self.enabled = False

    def start(self, scheduler: Scheduler | None = None) -> None:
        """Begin recording (the measured phase starts)."""
        self.scheduler = scheduler
        self.enabled = True
        self._started = time.perf_counter()

    def stop(self) -> None:
        """Stop recording (the measured phase ended)."""
        self.enabled = False
        self.scheduler = None
        self.current = None
        self.window_s += time.perf_counter() - self._started

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    # -- spans ------------------------------------------------------------------

    def _sim_now(self) -> float | None:
        return self.scheduler.now if self.scheduler is not None else None

    def open_span(
        self, name: str, ident=None, parent: Span | None = None, *,
        agg_key=None, sync: bool = True,
    ) -> Span:
        self._ids += 1
        span = Span(
            self._ids, name, ident,
            parent.span_id if parent is not None else 0,
            time.perf_counter(), self._sim_now(),
            self._ids if agg_key is None else agg_key, sync,
        )
        self.spans.append(span)
        return span

    def close_span(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.sim_end = self._sim_now()

    # -- frames -------------------------------------------------------------------

    def _account(self, span: Span | None, name: str, self_time: float) -> None:
        key = (span.agg_key if span is not None else 0, name)
        record = self.agg.get(key)
        if record is None:
            self.agg[key] = [1, self_time]
        else:
            record[0] += 1
            record[1] += self_time

    def timed(self, fn: Callable, name: str, span: Span | None, *args, **kwargs):
        """Run ``fn`` as one frame charged to ``span``."""
        stack = self.stack
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            self._account(span, name, duration - frame[0])

    def _frame_wrapper(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.timed(fn, name, tracer.current, *args, **kwargs)

        return wrapper

    def _span_wrapper(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            outer, outer_sync = tracer.current, tracer.sync_span
            span = tracer.open_span(name, parent=outer)
            tracer.current = tracer.sync_span = span
            try:
                return tracer.timed(fn, name, span, *args, **kwargs)
            finally:
                tracer.close_span(span)
                tracer.current, tracer.sync_span = outer, outer_sync

        return wrapper

    def _generator_wrapper(self, fn: Callable, name: str, top_level: bool) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(owner, *args, **kwargs):
            gen = fn(owner, *args, **kwargs)
            if not tracer.enabled:
                return gen
            return tracer.wrap_generator(
                gen, name, ident=id(owner), top_level=top_level
            )

        return wrapper

    def wrap_generator(
        self, gen, name: str, *, span_name: str | None = None, ident=None,
        top_level: bool = True,
    ):
        """Time every resume of ``gen`` (and the ``Call`` functions it
        yields) as frames named ``name`` under one async span.

        The span opens at the first resume and closes when ``gen``
        returns.  Its parent is the innermost call-stack span when
        ``top_level``, else the span current at the first resume.
        """
        span: Span | None = None
        value: Any = None
        error: BaseException | None = None
        try:
            while True:
                if span is None and self.enabled:
                    span = self.open_span(
                        span_name or name, ident,
                        self.sync_span if top_level else self.current,
                        sync=False,
                    )
                if span is not None:
                    self.current = span
                    if error is not None:
                        op = self.timed(gen.throw, name, span, error)
                    else:
                        op = self.timed(gen.send, name, span, value)
                elif error is not None:
                    op = gen.throw(error)
                else:
                    op = gen.send(value)
                error = None
                if span is not None and op.__class__ is Call:
                    op = Call(functools.partial(self._run_call, op.fn, name, span))
                try:
                    value = yield op
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # delivered into the protocol
                    value, error = None, exc
        except StopIteration as stop:
            return stop.value
        finally:
            if span is not None:
                self.close_span(span)

    def _run_call(self, fn: Callable, name: str, span: Span):
        self.current = span
        return self.timed(fn, name, span)

    # -- results ------------------------------------------------------------------

    def frame_totals(self) -> dict[str, list]:
        """Frame name -> [calls, self seconds], summed over parent spans."""
        totals: dict[str, list] = {}
        for (_key, name), (calls, self_s) in self.agg.items():
            record = totals.setdefault(name, [0, 0.0])
            record[0] += calls
            record[1] += self_s
        return totals

    def calls_under(self, span_names: set[str], frame: str) -> int:
        """Calls of ``frame`` charged to spans with one of ``span_names``."""
        keys = {s.agg_key for s in self.spans if s.name in span_names}
        keys |= span_names  # spans aggregated by name rather than by id
        return sum(
            calls for (key, name), (calls, _s) in self.agg.items()
            if name == frame and key in keys
        )

    def sim_time(self, name: str) -> float:
        """Summed simulated duration of the spans called ``name``."""
        return sum(
            span.sim_end - span.sim_start
            for span in self.spans
            if span.name == name and span.sim_start is not None
        )

    def reorg_makespans(self) -> list[float]:
        """Simulated start-to-finish time of each reorganization: from
        its protocol's first pass span to its last."""
        bounds: dict[Any, list[float]] = {}
        for span in self.spans:
            if span.name.startswith("reorg.pass") and span.sim_start is not None:
                lo_hi = bounds.setdefault(span.ident, [span.sim_start, span.sim_end])
                lo_hi[0] = min(lo_hi[0], span.sim_start)
                lo_hi[1] = max(lo_hi[1], span.sim_end)
        return [hi - lo for lo, hi in bounds.values()]

    def layer_table(self, wall: float) -> list[tuple[str, int, float, float]]:
        """(module, calls, self seconds, share of ``wall``) per layer; the
        ``bench`` row is the wall time no traced frame covers."""
        rows: dict[str, list] = {}
        for name, (calls, self_s) in self.frame_totals().items():
            layer = LAYER_OF_PREFIX[name.split(".", 1)[0]]
            row = rows.setdefault(layer, [0, 0.0])
            row[0] += calls
            row[1] += self_s
        covered = sum(row[1] for row in rows.values())
        table = [
            (layer, calls, self_s, self_s / wall if wall > 0 else 0.0)
            for layer, (calls, self_s) in sorted(rows.items())
        ]
        rest = max(0.0, wall - covered)
        table.append(("bench", 0, rest, rest / wall if wall > 0 else 0.0))
        return table

    def write_chrome_trace(self, path: Path, origin: float) -> None:
        """Write the spans as Chrome trace-event JSON (times in µs from
        ``origin``); each span's args carry its parent, ident, simulated
        times and the frame calls charged to it."""
        by_key: dict[Any, dict[str, list]] = {}
        for (key, name), (calls, self_s) in self.agg.items():
            by_key.setdefault(key, {})[name] = [calls, round(self_s * 1e6, 1)]
        events = []
        for span in self.spans:
            args = {"parent": span.parent, "ident": str(span.ident)}
            if span.sim_start is not None:
                args["sim_start"] = span.sim_start
                args["sim_end"] = span.sim_end
            if span.agg_key == span.span_id and span.span_id in by_key:
                args["calls"] = by_key[span.span_id]
            ts = round((span.start - origin) * 1e6, 3)
            cat = span.name.split(".", 1)[0]
            if span.sync:
                events.append({
                    "name": span.name, "cat": cat, "ph": "X", "ts": ts,
                    "dur": round((span.end - span.start) * 1e6, 3),
                    "pid": 1, "tid": 1, "args": args,
                })
            else:
                common = {"name": span.name, "cat": cat, "id": span.span_id, "pid": 1, "tid": 2}
                events.append({**common, "ph": "b", "ts": ts, "args": args})
                events.append({**common, "ph": "e", "ts": round((span.end - origin) * 1e6, 3)})
        for key, calls in by_key.items():
            if isinstance(key, str):  # ops aggregated by kind
                events.append({
                    "name": f"calls under {key}", "ph": "i", "s": "g", "ts": 0,
                    "pid": 1, "tid": 1, "args": {"calls": calls},
                })
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
