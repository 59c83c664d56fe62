"""The benchmark's workloads.

Each workload builds its starting database from a seed (``setup``), then
runs one *round* (``run_round``): the measured phase, a closed-loop
latency probe where the phase is a DES run, the end-of-run measurements
and the correctness gate.  Everything goes through the library's public
API with the default ``TreeConfig`` performance knobs; only sizes are set.

* ``online_reorg`` — the paper's scenario: the full three-pass
  reorganizer (``ReorgProtocol`` + ``full_reorganization``) on the DES
  against an open-loop read-mostly user stream, on a sparse tree about
  five times the buffer pool.
* ``point_ops`` — one closed-loop client calling ``BPlusTree`` directly:
  no DES, no locks, no reorganizer; the tree is about sixteen times the
  buffer pool.
* ``sharded_churn`` — a 4-shard ``ShardedDatabase`` that fits in the
  buffer pool when loaded: a write-heavy DES stream routed by the shard
  router fragments it, then ``ReorgDaemon.for_shards`` reorganizes the
  shards under a stream of point reads.
* ``sharded_churn_online`` — the same, with the daemon running during the
  write stream.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import random
import statistics
import time
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any

from repro import Database, Record, ReorgConfig, TreeConfig, measure_range_scan
from repro.config import DaemonConfig, ShardConfig
from repro.errors import ReproError
from repro.perf import PERF
from repro.reorg.daemon import ReorgDaemon
from repro.reorg.protocols import ReorgProtocol, full_reorganization
from repro.shard import ShardedDatabase
from repro.sim.workload import PlannedTxn, transaction_generator
from repro.storage.store import INTERNAL_EXTENT, LEAF_EXTENT
from repro.txn.scheduler import Scheduler

from perfbench.model import Model

#: Payload of every loaded record; DES inserts carry the library's "w".
PAYLOAD = "x" * 16
#: Payload of records the closed-loop clients insert.
NEW_PAYLOAD = "y" * 16

#: DES cost model: the defaults of the library's concurrency experiment
#: (``repro.sim.driver.ExperimentSetup``).
IO_TIME = 0.2
HIT_TIME = 0.01
UNIT_PAUSE = 0.05
SCAN_PAUSE = 0.02
OP_DURATION = 0.3

#: Closed-loop latency probe run after each DES phase.
PROBE_LOOKUPS = 2000
PROBE_UPDATES = 2000
PROBE_SCANS = 1000

#: Ops per slice of a closed loop whose throughput is reported (see
#: ``RoundResult.rates``).
RATE_SLICE = 1000

#: The clock of every timed metric: the CPU time of the benchmark's one
#: thread.  The benchmark is single-threaded and does no real I/O (the
#: disk is simulated), so on an idle machine this is its wall time; on a
#: shared host it leaves out the time the host gives to other processes.
CLOCK = time.thread_time

#: Keys of the calibration loop (see ``calibrate``).
_CALIBRATION_KEYS = random.Random(0).choices(range(1 << 20), k=20_000)
#: CPU seconds of the calibration loop at the reference speed every timing
#: is scaled to (about its time on an idle 2 GHz virtual core).
CALIBRATION_REF = 0.007
#: Every calibration time of the current round (``Workload.measure``).
CALIBRATIONS: list[float] = []


def calibrate() -> float:
    """CPU seconds of a fixed loop of dict work, timed next to each timed
    stretch of the benchmark.

    Other tenants of a shared host slow this process's CPU time too, by
    half or more for minutes at a time, and the loop slows with it.  Every
    timing is multiplied by ``CALIBRATION_REF`` / the loop's time measured
    beside it (``speed_scale``): a change to the program moves the timing,
    not the loop.
    """
    counts: dict[int, int] = {}
    start = CLOCK()
    for key in _CALIBRATION_KEYS:
        counts[key] = counts.get(key, 0) + 1
    for key in sorted(counts)[::2]:
        del counts[key]
    elapsed = CLOCK() - start
    CALIBRATIONS.append(elapsed)
    return elapsed


def speed_scale(*calibrations: float) -> float:
    """Factor that takes CPU seconds measured beside ``calibrations`` to
    seconds at the reference speed."""
    return CALIBRATION_REF / statistics.fmean(calibrations)


@dataclass
class RoundResult:
    """One round's measurements; ``det`` and ``counters`` repeat exactly
    for a given seed, the timings do not."""

    setup_s: float
    phase_s: float
    #: Ops attempted and completed: user ops plus background processes.
    attempted: int
    completed: int
    #: User ops completed in the measured phase (the ``ops_per_s`` count).
    user_ops: int
    #: Throughput samples of the measured phase, ops/s: one per
    #: ``RATE_SLICE`` ops of a closed loop, one per DES phase.
    rates: list[float]
    #: Seconds per closed-loop call at the reference speed, by kind.
    lookups: list[float]
    updates: list[float]
    scans: list[float]
    #: Deterministic end-to-end metrics.
    det: dict[str, float]
    #: Deterministic per-layer counters from the library's stats objects.
    counters: dict[str, float]
    problems: list[str]
    error: str | None
    #: Workload facts for the notes: op-kind shares, pages per pool page.
    info: dict[str, Any] = field(default_factory=dict)
    #: Median CPU seconds of the round's calibration loops.
    calibration_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.attempted - self.completed


# -- shared helpers ----------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def _stats_snapshot(store, log, locks) -> dict[str, float]:
    """Every counter of the stats objects the ledger reads."""
    snap: dict[str, float] = {}
    for prefix, values in (
        ("perf", PERF.counters.snapshot()),
        ("gap", PERF.gap.snapshot()),
        ("io", store.disk.stats.snapshot()),
        ("log", log.stats.snapshot()),
        ("lock", dataclasses.asdict(locks.stats)),
    ):
        for name, value in values.items():
            snap[f"{prefix}.{name}"] = value
    return snap


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {name: after[name] - before.get(name, 0) for name in after}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_counters(d: dict[str, float]) -> dict[str, float]:
    """Per-layer counters from a stats delta (see BENCHMARK.json)."""
    fetches = d["perf.buffer_hits"] + d["perf.buffer_misses"]
    return {
        "storage.fetches": fetches,
        "storage.hit_rate": _ratio(d["perf.buffer_hits"], fetches),
        "storage.misses": d["perf.buffer_misses"],
        "storage.disk_reads": d["io.reads"],
        "storage.disk_seeks": d["io.seeks"],
        "storage.disk_writes": d["io.writes"],
        "storage.read_cost": d["io.read_cost"],
        "storage.write_cost": d["io.write_cost"],
        "btree.leaf_splits": d["gap.leaf_splits"],
        "wal.appends": d["log.records_appended"],
        "wal.bytes": d["log.bytes_appended"],
        "wal.reorg_bytes": d["log.reorg_bytes"],
        "wal.move_bytes": d["log.move_bytes"],
        "wal.swap_bytes": d["log.swap_bytes"],
        "wal.flushes": d["log.flushes"],
        "locks.requests": d["lock.requests"],
        "locks.fast_path_rate": _ratio(d["lock.fast_path_grants"], d["lock.requests"]),
        "locks.waits": d["lock.waits"],
        "locks.rx_rejections": d["lock.rx_rejections"],
        "locks.deadlocks": d["lock.deadlocks"],
        "locks.conversions": d["lock.conversions"],
        "txn.des_events": d["perf.des_events"],
        "txn.des_steps": d["perf.des_steps"],
    }


def _reorg_counters(results: list[dict]) -> dict[str, float]:
    """Sum the pass-stats dicts that ``full_reorganization`` returns."""
    def total(pass_name: str, key: str) -> int:
        return sum(r.get(pass_name, {}).get(key, 0) for r in results)

    return {
        "reorg.pass1_units": total("pass1", "units"),
        "reorg.pass2_swaps": total("pass2", "swaps"),
        "reorg.pass2_moves": total("pass2", "moves"),
        "reorg.pass3_pages": total("pass3", "base_pages"),
    }


def _end_state(trees, live: int, leaf_capacity: int) -> tuple[dict, dict]:
    """Final layout metrics over every tree (after a flush)."""
    leaves = 0
    read_cost = 0.0
    for tree in trees:
        leaves += len(tree.leaf_ids_in_key_order())
        keys = [r.key for r in tree.items()]
        if keys:
            read_cost += measure_range_scan(tree, keys[0], keys[-1]).read_cost
    det = {
        "scan_cost_per_krec": _ratio(read_cost, live / 1000.0),
        "space_amp": _ratio(leaves, math.ceil(live / leaf_capacity)),
    }
    counters = {"frag.fill_factor_end": _ratio(live, leaves * leaf_capacity)}
    return det, counters


def _pages_per_pool(store, config: TreeConfig) -> float:
    pages = store.free_map.allocated_count(LEAF_EXTENT) + store.free_map.allocated_count(
        INTERNAL_EXTENT
    )
    return pages / config.buffer_pool_pages


def _shares(kinds: list[str]) -> dict[str, float]:
    return {k: round(kinds.count(k) / len(kinds), 4) for k in sorted(set(kinds))}


# -- the closed loop -------------------------------------------------------------


@dataclass
class ClosedOp:
    kind: str  # lookup | insert | delete | scan
    key: int
    high: int = 0


def run_closed_loop(api, ops: list[ClosedOp], model: Model, tracer=None):
    """Issue ``ops`` one after another through ``api`` (a ``BPlusTree`` or
    a ``ShardedDatabase``), timing each call; then check every result
    against ``model`` in issue order.  Returns (lookups, updates, scans,
    completed, loop seconds, throughput per ``RATE_SLICE`` ops), every
    time scaled to the reference speed by a calibration before each
    slice of ``RATE_SLICE`` ops."""
    lookups: list[float] = []
    updates: list[float] = []
    scans: list[float] = []
    results: list[Any] = []
    slices: list[float] = []
    perf = CLOCK
    search, insert, delete, range_scan = (
        api.search, api.insert, api.delete, api.range_scan
    )
    run_span = tracer.open_span("bench.closed_loop") if tracer else None
    for index, op in enumerate(ops):
        if index % RATE_SLICE == 0:
            if index:
                slices.append((perf() - slice_start) * scale)
            scale = speed_scale(calibrate())
            slice_start = perf()
        kind = op.kind
        if tracer is not None:
            span = tracer.open_span(
                f"op.{kind}", index, run_span, agg_key=f"op.{kind}"
            )
            tracer.current = span
        try:
            if kind == "lookup":
                start = perf()
                result = search(op.key)
                lookups.append((perf() - start) * scale)
            elif kind == "insert":
                start = perf()
                result = insert(Record(op.key, NEW_PAYLOAD))
                updates.append((perf() - start) * scale)
            elif kind == "delete":
                start = perf()
                result = delete(op.key)
                updates.append((perf() - start) * scale)
            else:
                start = perf()
                result = range_scan(op.key, op.high)
                scans.append((perf() - start) * scale)
        except ReproError as exc:
            result = exc
        results.append(result)
        if tracer is not None:
            tracer.close_span(span)
    if ops:
        slices.append((perf() - slice_start) * scale)
    if tracer is not None:
        tracer.close_span(run_span)
    completed = 0
    for op, result in zip(ops, results):
        if isinstance(result, ReproError):
            model.mismatches.append(f"{op.kind} {op.key} raised {result!r}")
            continue
        completed += 1
        if op.kind == "lookup":
            model.check_read(op.key, result)
        elif op.kind == "insert":
            model.apply_insert(op.key, NEW_PAYLOAD, True)
        elif op.kind == "delete":
            model.apply_delete(op.key, True)
        else:
            model.check_scan(op.key, op.high, result)
    sizes = [min(RATE_SLICE, len(ops) - i * RATE_SLICE) for i in range(len(slices))]
    rates = [n / seconds for n, seconds in zip(sizes, slices)]
    return lookups, updates, scans, completed, sum(slices), rates


def plan_probe(
    rng: random.Random, key_space: int, inserts: list[int], deletes: list[int],
    scan_width: int,
) -> list[ClosedOp]:
    """The closed-loop latency probe: lookups over the key space, inserts
    of the given absent keys, deletes of the given present keys and short
    scans, in a seeded order."""
    ops = [ClosedOp("lookup", rng.randrange(key_space)) for _ in range(PROBE_LOOKUPS)]
    ops += [ClosedOp("insert", k) for k in inserts]
    ops += [ClosedOp("delete", k) for k in deletes]
    for _ in range(PROBE_SCANS):
        low = rng.randrange(key_space)
        ops.append(ClosedOp("scan", low, low + scan_width))
    rng.shuffle(ops)
    return ops


# -- the DES stream ----------------------------------------------------------------


@dataclass
class DesOutcome:
    phase_s: float
    #: User transactions planned and committed.
    attempted: int
    completed: int
    #: Background processes (reorganizer, daemon) spawned and finished.
    background: int
    background_done: int
    error: str | None
    latencies: list[float]
    waits: list[float]
    blocked: int
    rx_backoffs: int
    #: Results the reorganizer process returned, if it finished.
    reorg_results: list[dict]
    #: Simulated time the last committed insert or delete ended.
    last_update_end: float


def run_des_stream(
    scheduler: Scheduler,
    plans: list[PlannedTxn],
    target_for,
    think: float,
    model: Model,
    tracer=None,
) -> DesOutcome:
    """Spawn one user transaction per plan (the one background process
    already spawned — the reorganizer or the daemon — runs alongside), run
    the scheduler and replay the results.

    ``target_for(key)`` gives the ``(database-like, tree name)`` a plan
    runs against.  Results are checked against ``model`` in commit order,
    the order the scheduler finished them: conflicting transactions hold
    their page locks to commit, so that is their serialization order.
    When an exception escapes ``Scheduler.run``, the run is recorded and
    every transaction that had not committed counts as failed.  The
    background process counts as one attempted op as well, so a
    reorganizer that dies is a failed op even when every user op finished.
    """
    index_of = {}
    for index, plan in enumerate(plans):
        db, tree_name = target_for(plan.key)
        gen = transaction_generator(db, tree_name, plan, think)
        if tracer is not None:
            gen = tracer.wrap_generator(
                gen, "btree.protocol", span_name=f"op.{plan.kind}", ident=index
            )
        txn = scheduler.spawn(gen, name=f"{plan.kind}-{index}", at=plan.arrival)
        index_of[txn] = index
    error = None
    before = calibrate()
    start = CLOCK()
    try:
        scheduler.run()
    except Exception as exc:  # noqa: BLE001 - a run that raises is recorded
        error = f"{type(exc).__name__}: {exc}"
    phase_s = (CLOCK() - start) * speed_scale(before, calibrate())

    latencies: list[float] = []
    waits: list[float] = []
    blocked = rx_backoffs = background_done = 0
    last_update_end = 0.0
    reorg_results: list[dict] = []
    for txn, result in scheduler.completed:
        index = index_of.get(txn)
        if index is None:
            background_done += 1
            if isinstance(result, dict):
                reorg_results.append(result)
            continue
        plan = plans[index]
        if plan.kind == "read":
            model.check_read(plan.key, result)
        elif plan.kind == "scan":
            model.check_scan(plan.key, plan.high, result)
        elif plan.kind == "insert":
            model.apply_insert(plan.key, "w", bool(result))
        else:
            model.apply_delete(plan.key, bool(result))
        if plan.kind in ("insert", "delete"):
            last_update_end = max(last_update_end, txn.metrics.end_time)
        latencies.append(txn.metrics.end_time - plan.arrival)
        waits.append(txn.metrics.wait_time)
        if txn.metrics.blocks or txn.metrics.rx_backoffs:
            blocked += 1
        rx_backoffs += txn.metrics.rx_backoffs
    for txn, _exc in scheduler.failed:
        if txn in index_of:
            rx_backoffs += txn.metrics.rx_backoffs
    return DesOutcome(
        phase_s, len(plans), len(latencies), 1, background_done,
        error, latencies, waits, blocked, rx_backoffs, reorg_results,
        last_update_end,
    )


def _des_det(outcome: DesOutcome) -> dict[str, float]:
    """Simulated-time figures of a DES phase (per-layer, deterministic)."""
    waits = outcome.waits
    return {
        "txn.latency_p50_sim": percentile(outcome.latencies, 0.50),
        "txn.latency_p99_sim": percentile(outcome.latencies, 0.99),
        "txn.wait_mean_sim": sum(waits) / len(waits) if waits else 0.0,
        "txn.blocked_txns": outcome.blocked,
        "txn.rx_backoffs": outcome.rx_backoffs,
    }


def _random_arrivals(rng: random.Random, n: int, mean: float) -> list[float]:
    clock = 0.0
    out = []
    for _ in range(n):
        clock += rng.expovariate(1.0 / mean)
        out.append(clock)
    return out


# -- workloads ---------------------------------------------------------------------


class Workload:
    """Base: ``setup(seed)`` builds the state, ``run_round`` measures it."""

    name = ""
    #: Data sets a run measures (see ``perfbench/run.py``): as many as fit
    #: into a run at least once, because their mean carries less of what
    #: one seed's data happens to contain.
    data_sets = 3

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def run_round(self, state, tracer=None) -> RoundResult:
        raise NotImplementedError

    def measure(self, seed: int, tracer=None) -> RoundResult:
        """One full round: set-up (timed) then ``run_round``.

        The cyclic garbage collector is paused for the round, as ``timeit``
        does, and run between rounds: its pauses scale with the
        benchmark's own heap (model, plans, results), not with the
        library's work.
        """
        gc.collect()
        gc.disable()
        CALIBRATIONS.clear()
        try:
            before = calibrate()
            start = CLOCK()
            state = self.setup(seed)
            setup_s = (CLOCK() - start) * speed_scale(before, calibrate())
            result = self.run_round(state, tracer)
        finally:
            gc.enable()
        result.setup_s = setup_s
        result.calibration_s = statistics.median(CALIBRATIONS)
        return result


@dataclass
class OnlineReorgState:
    db: Database
    model: Model
    plans: list[PlannedTxn]
    probe: list[ClosedOp]
    info: dict


class OnlineReorg(Workload):
    name = "online_reorg"
    config = TreeConfig(
        leaf_capacity=16,
        internal_capacity=8,
        leaf_extent_pages=8192,
        internal_extent_pages=2048,
        buffer_pool_pages=512,
    )
    reorg_config = ReorgConfig(target_fill=0.9)
    n_records = 40_000
    fill_after = 0.3
    n_txns = 10_000
    #: Mean inter-arrival time: the arrivals span about 2500 units of
    #: simulated time, longer than the reorganization (about 1000-1900).
    mean_interarrival = 0.25
    think = 0.1
    mix = (("read", 0.60), ("scan", 0.10), ("insert", 0.15), ("delete", 0.15))
    scan_width = 50

    def setup(self, seed: int) -> OnlineReorgState:
        rng = random.Random(seed)
        n = self.n_records
        db = Database(self.config)
        tree = db.bulk_load_tree([Record(k, PAYLOAD) for k in range(n)], leaf_fill=1.0)
        victims = rng.sample(range(n), int(n * (1.0 - self.fill_after)))
        for key in victims:
            tree.delete(key)
        db.flush()
        db.checkpoint()
        victim_set = set(victims)
        present = [k for k in range(n) if k not in victim_set]
        # Inserts take initially absent keys and deletes initially present
        # ones, each at most once: every update must succeed.
        absent = list(victims)
        rng.shuffle(absent)
        rng.shuffle(present)
        model = Model({k: PAYLOAD for k in present})
        kinds = [k for k, _ in self.mix]
        weights = [w for _, w in self.mix]
        plans = []
        for arrival in _random_arrivals(rng, self.n_txns, self.mean_interarrival):
            kind = rng.choices(kinds, weights)[0]
            if kind == "insert":
                key = absent.pop()
            elif kind == "delete":
                key = present.pop()
            else:
                key = rng.randrange(n)
            plans.append(
                PlannedTxn(kind, key, arrival, min(key + self.scan_width, n - 1))
            )
        half = PROBE_UPDATES // 2
        probe = plan_probe(rng, n, absent[:half], present[:half], self.scan_width * 4)
        info = {
            "op_shares": _shares([p.kind for p in plans]),
            "pages_per_pool": round(_pages_per_pool(db.store, self.config), 2),
        }
        return OnlineReorgState(db, model, plans, probe, info)

    def run_round(self, state: OnlineReorgState, tracer=None) -> RoundResult:
        db, model = state.db, state.model
        scheduler = Scheduler(
            db.locks, store=db.store, log=db.log, io_time=IO_TIME, hit_time=HIT_TIME
        )
        spawn_reorganizer(db, scheduler, self.reorg_config, tracer)
        before = _stats_snapshot(db.store, db.log, db.locks)
        if tracer is not None:
            tracer.start(scheduler)
        outcome = run_des_stream(
            scheduler, state.plans, lambda key: (db, "primary"), self.think,
            model, tracer,
        )
        if tracer is not None:
            tracer.stop()
        delta = _delta(_stats_snapshot(db.store, db.log, db.locks), before)
        result = _finish_des_round(
            self.config, [db.tree("primary")], db.flush, model, outcome, delta,
            Probe(db.tree("primary"), state.probe), state.info,
            counters=_reorg_counters(outcome.reorg_results),
        )
        if outcome.error is None and not outcome.reorg_results:
            result.problems.append("the reorganizer did not finish")
        return result


def spawn_reorganizer(db, scheduler: Scheduler, reorg_config, tracer=None) -> None:
    """Spawn the paper's three-pass reorganizer at time 0, as
    ``run_concurrent_experiment`` does."""
    protocol = ReorgProtocol(
        db, "primary", reorg_config,
        unit_pause=UNIT_PAUSE, scan_pause=SCAN_PAUSE, op_duration=OP_DURATION,
    )
    protocol.abort_hook = lambda victims: [
        scheduler.abort_transaction(v, "old-tree drain timeout") for v in victims
    ]
    reorg = full_reorganization(protocol)
    if tracer is not None:
        reorg = tracer.wrap_generator(reorg, "reorg.run", ident="reorganizer")
    scheduler.spawn(reorg, name="reorganizer", at=0.0, is_reorganizer=True)


def _finish_des_round(
    config, trees, flush, model, outcome: DesOutcome, delta, probe, info,
    counters,
) -> RoundResult:
    """Probe, end-state metrics and gate after a DES phase.

    When the phase raised, the round fails the gate: the failed ops are
    still counted, but the database is left as the failure left it, with
    no probe and no end-state metrics taken from it.
    """
    ops = outcome.attempted
    attempted = ops + outcome.background
    completed = outcome.completed + outcome.background_done
    det = {
        "io_cost_per_op": _ratio(delta["io.read_cost"] + delta["io.write_cost"], ops),
        "log_bytes_per_op": _ratio(delta["log.bytes_appended"], ops),
        "completed_share": _ratio(completed, attempted),
    }
    all_counters = {**_layer_counters(delta), **_des_det(outcome), **counters}
    lookups: list[float] = []
    updates: list[float] = []
    scans: list[float] = []
    if outcome.error is None:
        lookups, updates, scans, *_ = run_closed_loop(probe.api, probe.ops, model)
        flush()
        end_det, end_counters = _end_state(
            trees, len(model.records), config.leaf_capacity
        )
        det.update(end_det)
        all_counters.update(end_counters)
        problems = model.gate(trees)
    else:
        problems = gate_after_failure(model, trees, outcome.error)
    return RoundResult(
        setup_s=0.0,
        phase_s=outcome.phase_s,
        attempted=attempted,
        completed=completed,
        user_ops=outcome.completed,
        rates=[_ratio(outcome.completed, outcome.phase_s)],
        lookups=lookups,
        updates=updates,
        scans=scans,
        det=det,
        counters=all_counters,
        problems=problems,
        error=outcome.error,
        info=info,
    )


def gate_after_failure(model: Model, trees, error: str) -> list[str]:
    """The gate's problems after a run that raised ``error``: the error
    itself, plus whatever the gate finds in what the database still holds."""
    try:
        problems = model.gate(trees)
    except ReproError as exc:
        problems = [
            *model.mismatches, f"database unreadable after the run raised: {exc!r}"
        ]
    return [f"run raised: {error}", *problems]


@dataclass
class Probe:
    """The closed-loop latency probe of a DES workload and its target."""

    api: Any
    ops: list[ClosedOp]


@dataclass
class PointOpsState:
    db: Database
    model: Model
    ops: list[ClosedOp]
    info: dict


class PointOps(Workload):
    name = "point_ops"
    config = TreeConfig(leaf_extent_pages=8192, buffer_pool_pages=224)
    n_records = 100_000
    n_ops = 100_000
    leaf_fill = 0.9
    zipf_theta = 0.99
    mix = (("lookup", 0.60), ("insert", 0.15), ("delete", 0.15), ("scan", 0.10))
    scan_records = 200
    #: Loaded keys are multiples of this; inserts fill the gaps between.
    spacing = 4

    def setup(self, seed: int) -> PointOpsState:
        rng = random.Random(seed)
        n, s = self.n_records, self.spacing
        db = Database(self.config)
        db.bulk_load_tree(
            [Record(s * i, PAYLOAD) for i in range(n)], leaf_fill=self.leaf_fill
        )
        db.flush()
        db.checkpoint()
        model = Model({s * i: PAYLOAD for i in range(n)})
        kinds = rng.choices(
            [k for k, _ in self.mix], [w for _, w in self.mix], k=self.n_ops
        )
        n_lookups = kinds.count("lookup")
        # Zipf ranks over a seeded permutation: hot keys spread over leaves.
        hot_order = list(range(n))
        rng.shuffle(hot_order)
        cum = list(accumulate(1.0 / (r + 1) ** self.zipf_theta for r in range(n)))
        lookups = iter(rng.choices(hot_order, cum_weights=cum, k=n_lookups))
        gaps = iter(rng.sample(range(n * (s - 1)), kinds.count("insert")))
        victims = iter(rng.sample(range(n), kinds.count("delete")))
        ops = []
        for kind in kinds:
            if kind == "lookup":
                ops.append(ClosedOp(kind, s * next(lookups)))
            elif kind == "insert":
                gap = next(gaps)
                ops.append(ClosedOp(kind, s * (gap // (s - 1)) + 1 + gap % (s - 1)))
            elif kind == "delete":
                ops.append(ClosedOp(kind, s * next(victims)))
            else:
                low = s * rng.randrange(n)
                ops.append(ClosedOp(kind, low, low + s * self.scan_records))
        info = {
            "op_shares": _shares(kinds),
            "pages_per_pool": round(_pages_per_pool(db.store, self.config), 2),
        }
        return PointOpsState(db, model, ops, info)

    def run_round(self, state: PointOpsState, tracer=None) -> RoundResult:
        db, model = state.db, state.model
        tree = db.tree("primary")
        before = _stats_snapshot(db.store, db.log, db.locks)
        if tracer is not None:
            tracer.start()
        lookups, updates, scans, completed, phase_s, rates = run_closed_loop(
            tree, state.ops, model, tracer
        )
        if tracer is not None:
            tracer.stop()
        delta = _delta(_stats_snapshot(db.store, db.log, db.locks), before)
        ops = len(state.ops)
        db.flush()
        trees = [db.tree("primary")]
        end_det, end_counters = _end_state(trees, len(model.records), self.config.leaf_capacity)
        det = {
            **end_det,
            "io_cost_per_op": _ratio(delta["io.read_cost"] + delta["io.write_cost"], ops),
            "log_bytes_per_op": _ratio(delta["log.bytes_appended"], ops),
            "completed_share": _ratio(completed, ops),
        }
        counters = {**_layer_counters(delta), **end_counters}
        return RoundResult(
            setup_s=0.0, phase_s=phase_s, attempted=ops, completed=completed,
            user_ops=completed, rates=rates, lookups=lookups, updates=updates,
            scans=scans, det=det,
            counters=counters, problems=model.gate(trees), error=None,
            info=state.info,
        )


@dataclass
class ShardedChurnState:
    sdb: ShardedDatabase
    model: Model
    plans: list[PlannedTxn]
    probe: list[ClosedOp]
    #: Simulated time the reorg daemon starts polling.
    daemon_at: float
    info: dict


class ShardedChurn(Workload):
    """Write churn on a 4-shard forest, then the daemon's per-shard
    reorganizations under a stream of point reads.

    The churn stream ends before the daemon starts, so no update runs
    while a reorganization does (checked): on-line reorganization with
    concurrent updates loses records (``ShardedChurnOnline``, defect 2 in
    ``perfbench/NOTES.md``).
    """

    name = "sharded_churn"
    data_sets = 8
    config = TreeConfig(buffer_pool_pages=1024)
    shard_config = ShardConfig(n_shards=4)
    n_records = 20_000
    n_ops = 10_000
    mean_interarrival = 1.0
    #: Fixed time updaters (and readers) hold their locks.
    think = 0.05
    mix = (("insert", 0.45), ("delete", 0.45), ("read", 0.10))
    #: Point reads that arrive while the daemon reorganizes, and their
    #: mean gap: they span about 600 units of simulated time, longer than
    #: the four reorganizations (about 400).
    n_reads = 2400
    read_interarrival = 0.25
    #: Simulated time between the last churn arrival and the daemon's
    #: start, for the last updates to commit.
    settle = 10.0
    #: Whether the daemon runs during the churn instead of after it.
    updates_during_reorg = False
    scan_width = 400

    def setup(self, seed: int) -> ShardedChurnState:
        rng = random.Random(seed)
        n = self.n_records
        sdb = ShardedDatabase(self.config, self.shard_config)
        sdb.bulk_load([Record(2 * k, PAYLOAD) for k in range(n)], leaf_fill=1.0)
        sdb.flush()
        sdb.checkpoint()
        model = Model({2 * k: PAYLOAD for k in range(n)})
        new_keys = [2 * k + 1 for k in range(n)]
        old_keys = [2 * k for k in range(n)]
        rng.shuffle(new_keys)
        rng.shuffle(old_keys)
        kinds = [k for k, _ in self.mix]
        weights = [w for _, w in self.mix]
        plans = []
        for arrival in _random_arrivals(rng, self.n_ops, self.mean_interarrival):
            kind = rng.choices(kinds, weights)[0]
            if kind == "insert":
                key = new_keys.pop()
            elif kind == "delete":
                key = old_keys.pop()
            else:
                key = rng.randrange(2 * n)
            plans.append(PlannedTxn(kind, key, arrival))
        daemon_at = 0.0
        if not self.updates_during_reorg:
            daemon_at = plans[-1].arrival + self.settle
            for gap in _random_arrivals(rng, self.n_reads, self.read_interarrival):
                plans.append(PlannedTxn("read", rng.randrange(2 * n), daemon_at + gap))
        half = PROBE_UPDATES // 2
        probe = plan_probe(rng, 2 * n, new_keys[:half], old_keys[:half], self.scan_width)
        info = {
            "op_shares": _shares([p.kind for p in plans]),
            "pages_per_pool": round(_pages_per_pool(sdb.store, self.config), 2),
        }
        return ShardedChurnState(sdb, model, plans, probe, daemon_at, info)

    def run_round(self, state: ShardedChurnState, tracer=None) -> RoundResult:
        sdb, model = state.sdb, state.model
        scheduler = Scheduler(
            sdb.locks, store=sdb.store, log=sdb.log, io_time=IO_TIME, hit_time=HIT_TIME
        )
        daemon = ReorgDaemon.for_shards(
            sdb, DaemonConfig(), ReorgConfig(),
            unit_pause=UNIT_PAUSE, scan_pause=SCAN_PAUSE, op_duration=OP_DURATION,
        )
        last_arrival = state.plans[-1].arrival
        before = _stats_snapshot(sdb.store, sdb.log, sdb.locks)
        if tracer is not None:
            tracer.start(scheduler)
        daemon.spawn(scheduler, horizon=last_arrival, at=state.daemon_at)
        router, handles = sdb.router, sdb.handles

        def target_for(key: int):
            handle = handles[router.shard_for(key)]
            return handle, handle.tree_name

        outcome = run_des_stream(
            scheduler, state.plans, target_for, self.think, model, tracer
        )
        if tracer is not None:
            tracer.stop()
        delta = _delta(_stats_snapshot(sdb.store, sdb.log, sdb.locks), before)
        results = [r for rs in daemon.results.values() for r in rs]
        triggers = [t for t, _name, action in daemon.history if action == "trigger"]
        counters = {
            **_reorg_counters(results),
            "reorg.daemon_polls": daemon.stats.polls,
            "reorg.daemon_triggers": daemon.stats.triggers,
        }
        result = _finish_des_round(
            self.config, [h.tree() for h in handles], sdb.flush, model, outcome,
            delta, Probe(sdb, state.probe), state.info, counters,
        )
        if outcome.error is None:
            per_shard = [h.tree().record_count() for h in handles]
            result.counters["shard.record_skew"] = max(per_shard) / statistics.mean(
                per_shard
            )
        if not triggers:
            result.problems.append("the daemon never triggered a reorganization")
        elif max(triggers) >= last_arrival:
            result.problems.append("a daemon reorganization started after the stream ended")
        elif not self.updates_during_reorg and outcome.last_update_end >= min(triggers):
            result.problems.append("an update ran while the daemon reorganized")
        return result


class ShardedChurnOnline(ShardedChurn):
    """``sharded_churn`` with the daemon running during the churn, so that
    updates run while shards are reorganized.  Not in ``BENCHMARK.json``:
    some data sets lose records (defect 2 in ``perfbench/NOTES.md``)."""

    name = "sharded_churn_online"
    updates_during_reorg = True


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (OnlineReorg(), PointOps(), ShardedChurn(), ShardedChurnOnline())
}


def reproduce_careful_write_defect(seed: int = 11) -> tuple[DesOutcome, list[str]]:
    """The known ``CarefulWriteViolation`` (see ``perfbench/NOTES.md``),
    run through the benchmark's failure accounting instead of raising.

    Builds exactly what ``run_concurrent_experiment`` builds for the
    reproduction's settings and spawns the same processes in the same
    order.  Returns the DES outcome and the gate's problems.
    """
    from repro.sim.driver import ExperimentSetup, prepare_database
    from repro.sim.workload import WorkloadConfig, plan_workload

    setup = ExperimentSetup(
        OnlineReorg.config,
        ReorgConfig(target_fill=0.9),
        WorkloadConfig(
            n_transactions=8000, key_space=40_000, mean_interarrival=0.1, seed=seed
        ),
        n_records=40_000,
        fill_after=0.3,
        op_duration=0.3,
    )
    db = prepare_database(setup)
    model = Model({r.key: r.payload for r in db.tree("primary").items()})
    scheduler = Scheduler(
        db.locks, store=db.store, log=db.log, io_time=IO_TIME, hit_time=HIT_TIME
    )
    spawn_reorganizer(db, scheduler, setup.reorg_config)
    outcome = run_des_stream(
        scheduler, plan_workload(setup.workload), lambda key: (db, "primary"),
        setup.workload.think, model,
    )
    trees = [db.tree("primary")]
    if outcome.error is None:
        return outcome, model.gate(trees)
    return outcome, gate_after_failure(model, trees, outcome.error)
