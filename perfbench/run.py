#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload online_reorg --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report --seconds 5   # BENCHMARK.json workloads, both modes

``--trace 0`` repeats rounds (set-up, measured phase, gate) of the
workload over its data sets (``seed * n`` to ``seed * n + n - 1`` for the
workload's ``data_sets`` n) until ``--seconds`` have passed and every data
set ran, and reports every end-to-end metric of ``BENCHMARK.json``: timed
metrics (CPU time of the benchmark's thread, scaled to a reference speed
by a calibration loop timed beside it) as medians over all rounds,
deterministic metrics as the mean over the data sets (every repeat of a
data set must reproduce them exactly).
``--trace 1`` runs one untraced round of data set ``seed * n``, then
traced rounds of the same data set, checks that the traced rounds' deterministic counters equal the
untraced round's, prints the per-layer table, writes the spans of the
first traced round as Chrome trace-event JSON under ``perfbench/out/`` and
reports every per-layer metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
correctness gate fails prints its problems, reports no metrics and exits
with status 1; a checkout without the library exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128


def load_spec() -> dict:
    """BENCHMARK.json, with its metric names checked."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, per_layer = spec["end_to_end"], spec["per_layer"]
    if len(e2e) > MAX_END_TO_END or len(per_layer) > MAX_PER_LAYER:
        raise ValueError("too many metrics in BENCHMARK.json")
    names = [m["name"] for m in e2e + per_layer]
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    if bad or len(set(names)) != len(names):
        raise ValueError(f"bad or repeated metric names: {bad or names}")
    return spec


def import_library():
    """Put the checkout's ``src`` and root on the path and import the
    benchmark; exits 2 when the library is not in this checkout."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
        from perfbench import trace, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: library found outside this checkout: {repro.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return trace, workloads


# -- metrics -------------------------------------------------------------------------


def end_to_end(rounds, data_sets: int, percentile) -> dict[str, float]:
    """Timed metrics over every round plus each deterministic metric as
    the mean over the data sets.

    Times are CPU seconds of the benchmark's thread (``workloads.CLOCK``)
    scaled to the reference speed (``workloads.calibrate``).  Set-up time and throughput are medians: over rounds, and over every
    ``rates`` sample of every round.  Each latency percentile is taken
    over every call of its kind in the run.

    A metric that some round did not measure (a latency kind with no
    calls, an end-state metric missing from a data set) is left out, so
    the run reports it as not measured instead of averaging in zeros.
    """
    out = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "ops_per_s": statistics.median(x for r in rounds for x in r.rates),
    }
    for kind, attr in (("lookup", "lookups"), ("update", "updates"), ("scan", "scans")):
        pooled = [t for r in rounds for t in getattr(r, attr)]
        if pooled:
            for p in (50, 90):
                out[f"{kind}_p{p}_us"] = percentile(pooled, p / 100) * 1e6
    parts = rounds[:data_sets]
    for name in set.intersection(*(set(r.det) for r in parts)):
        out[name] = statistics.fmean(r.det[name] for r in parts)
    return out


def tail_latencies(rounds, percentile) -> dict[str, float]:
    """p99 of each call kind over every round: printed with its sample
    count, not gated (it does not repeat within the bounds on a shared
    machine)."""
    return {
        f"{kind}_p99_us": percentile([t for r in rounds for t in getattr(r, attr)], 0.99) * 1e6
        for kind, attr in (("lookup", "lookups"), ("update", "updates"), ("scan", "scans"))
    }


def per_layer(ref, traced, tracers, percentile) -> dict[str, float]:
    """Per-layer metrics: deterministic counters of the untraced round
    plus call counts, self times (median over traced rounds) and
    simulated pass times from the tracer."""
    totals = [t.frame_totals() for t in tracers]

    def calls(*frames):
        return sum(totals[0].get(f, [0, 0.0])[0] for f in frames)

    def self_s(*frames):
        return statistics.median(
            sum(t.get(f, [0, 0.0])[1] for f in frames) for t in totals
        )

    tracer = tracers[0]
    lookup_spans = {"op.read", "op.lookup"}
    lookups = sum(1 for s in tracer.spans if s.name in lookup_spans)
    out = dict(ref.counters)
    out.update({
        "storage.fetch_self_s": self_s(
            "storage.fetch", "storage.disk_read", "storage.disk_read_batch"
        ),
        "storage.flush_self_s": self_s(
            "storage.flush_page", "storage.flush_all", "storage.force",
            "storage.disk_write",
        ),
        "btree.searches": calls("btree.search"),
        "btree.inserts": calls("btree.insert"),
        "btree.deletes": calls("btree.delete"),
        "btree.scans": calls("btree.scan"),
        "btree.pages_per_lookup": (
            tracer.calls_under(lookup_spans, "storage.fetch") / lookups
            if lookups else 0.0
        ),
        "btree.leaf_chain_sweeps": calls("btree.leaf_chain_sweep"),
        "btree.leaf_chain_sweep_self_s": self_s("btree.leaf_chain_sweep"),
        "btree.search_self_s": self_s("btree.search"),
        "btree.insert_self_s": self_s("btree.insert"),
        "btree.delete_self_s": self_s("btree.delete"),
        "btree.scan_self_s": self_s("btree.scan"),
        "btree.protocol_self_s": self_s("btree.protocol"),
        "wal.append_self_s": self_s("wal.append"),
        "wal.flush_self_s": self_s("wal.flush"),
        "locks.request_self_s": self_s("locks.request", "locks.convert"),
        "locks.release_self_s": self_s(
            "locks.release", "locks.release_all", "locks.downgrade"
        ),
        "txn.run_self_s": self_s("txn.run"),
        "reorg.side_file_entries": calls("reorg.side_file_append"),
        "reorg.pass1_sim": tracer.sim_time("reorg.pass1"),
        "reorg.pass2_sim": tracer.sim_time("reorg.pass2"),
        "reorg.pass3_sim": tracer.sim_time("reorg.pass3"),
        "reorg.makespan_sim": sum(tracer.reorg_makespans()),
        "reorg.pass1_self_s": self_s("reorg.pass1"),
        "reorg.pass2_self_s": self_s("reorg.pass2"),
        "reorg.pass3_self_s": self_s("reorg.pass3"),
        "reorg.daemon_self_s": self_s("reorg.daemon"),
        "shard.route_calls": calls("shard.route"),
        "shard.route_self_s": self_s("shard.route"),
        "frag.syncs": calls("frag.sync"),
        "frag.sync_self_s": self_s("frag.sync"),
        **{
            f"bench.{name}": value
            for name, value in tail_latencies([ref], percentile).items()
        },
        "bench.trace_overhead": statistics.median(r.phase_s for r in traced) / ref.phase_s,
        "bench.calibration_ms": ref.calibration_s * 1e3,
        "bench.rounds": len(traced),
        "bench.lookup_samples": len(ref.lookups),
        "bench.update_samples": len(ref.updates),
        "bench.scan_samples": len(ref.scans),
        "bench.txn_samples": ref.user_ops,
    })
    return out


# -- running ---------------------------------------------------------------------------


def deterministic(result) -> dict:
    return {**result.det, **result.counters}


def run_untraced(workload, seed: int, seconds: float):
    """Rounds over the run's data sets in turn, until ``seconds`` have
    passed and every data set has been measured."""
    rounds = []
    deadline = time.perf_counter() + seconds
    n = workload.data_sets
    while True:
        rounds.append(workload.measure(seed * n + len(rounds) % n))
        if rounds[-1].problems:
            return rounds
        if len(rounds) >= n and time.perf_counter() >= deadline:
            return rounds


def run_traced(trace, workload, seed: int, seconds: float, out_dir: Path):
    """One untraced reference round, then traced rounds until ``seconds``."""
    deadline = time.perf_counter() + seconds
    ref = workload.measure(seed * workload.data_sets)
    traced, tracers = [], []
    while not ref.problems:
        tracer = trace.Tracer()
        with tracer:
            result = workload.measure(seed * workload.data_sets, tracer)
        traced.append(result)
        tracers.append(tracer)
        if len(tracers) == 1:
            origin = min((s.start for s in tracer.spans), default=0.0)
            path = out_dir / f"trace_{workload.name}_seed{seed}.json"
            tracer.write_chrome_trace(path, origin)
            print(f"trace: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
        if result.problems or time.perf_counter() >= deadline:
            break
    return ref, traced, tracers


def gate_problems(rounds, parts: int) -> list[str]:
    """Every round's gate problems, plus any deterministic metric that
    did not repeat exactly across the rounds of one data set."""
    problems = [p for r in rounds for p in r.problems]
    for index, r in enumerate(rounds[parts:], start=parts):
        first, again = deterministic(rounds[index % parts]), deterministic(r)
        differs = sorted(k for k in first.keys() | again.keys() if first.get(k) != again.get(k))
        if differs:
            problems.append(f"round {index} repeated differently: {differs[:8]}")
    return problems


def report_metrics(spec_metrics, values, workload_name, counts) -> dict:
    """The JSON metrics object, printing one line per metric."""
    out = {}
    for metric in spec_metrics:
        name, unit = metric["name"], metric["unit"]
        value = float(values.get(name, 0.0))
        out[name] = {"value": value, "unit": unit}
        note = f"  (n={counts[name]})" if name in counts else ""
        print(f"{workload_name:14s} {name:32s} {value:16.6g} {unit}{note}")
    return out


def sample_counts(rounds) -> dict[str, int]:
    """Calls timed over the run, by kind and by latency metric."""
    counts = {
        kind: sum(len(getattr(r, attr)) for r in rounds)
        for kind, attr in (("lookup", "lookups"), ("update", "updates"), ("scan", "scans"))
    }
    for kind in list(counts):
        for p in ("p50", "p90"):
            counts[f"{kind}_{p}_us"] = counts[kind]
    return counts


def run_one(spec, trace, workloads, name: str, seed: int, seconds: float, traced: bool):
    """Run one workload in one mode; returns (result dict, exit status)."""
    workload = workloads.WORKLOADS[name]
    if not traced:
        rounds = run_untraced(workload, seed, seconds)
        problems = gate_problems(rounds, workload.data_sets)
        first = rounds[0]
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        for r in rounds:
            if r.error:
                print(f"{name}: run raised, {r.failed} ops counted failed: {r.error}")
        calibration_ms = statistics.median(r.calibration_s for r in rounds) * 1e3
        print(f"{name}: calibration loop {calibration_ms:.3f} ms (reference "
              f"{workloads.CALIBRATION_REF * 1e3:g} ms)")
        print(f"{name}: seed {seed}, {len(rounds)} rounds over {workload.data_sets} data sets, op shares "
              f"{first.info['op_shares']}, tree pages per pool page "
              f"{first.info['pages_per_pool']}")
        spec_metrics = spec["end_to_end"]
        values = {}
        if not problems:
            values = end_to_end(rounds, workload.data_sets, workloads.percentile)
            problems = [
                f"end-to-end metric {m['name']} was not measured"
                for m in spec_metrics if m["name"] not in values
            ]
        counts = sample_counts(rounds)
        if not problems:
            for metric, value in tail_latencies(rounds, workloads.percentile).items():
                kind = metric.split("_")[0]
                print(f"{name:14s} {metric:32s} {value:16.6g} us  (n={counts[kind]}, not gated)")
    else:
        ref, traced_rounds, tracers = run_traced(
            trace, workload, seed, seconds, ROOT / "perfbench" / "out"
        )
        rounds = [ref, *traced_rounds]
        problems = gate_problems(rounds, 1)
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        values = {}
        if not problems:
            values = per_layer(ref, traced_rounds, tracers, workloads.percentile)
            print(f"{'layer':16s} {'calls':>12s} {'self s':>10s} {'share':>7s}")
            for layer, calls, self_s, share in tracers[0].layer_table(
                tracers[0].window_s
            ):
                print(f"{layer:16s} {calls:12d} {self_s:10.4f} {share:7.1%}")
        spec_metrics = spec["per_layer"]
        counts = {}
    if problems:
        for problem in problems:
            print(f"{name}: GATE FAILED: {problem}", file=sys.stderr)
        return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}, 1
    metrics = report_metrics(spec_metrics, values, name, counts)
    return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}, 0


def pin_hash_seed() -> None:
    """Re-execute under a fixed ``PYTHONHASHSEED`` so that dict and set
    layouts, and the timings that depend on them, repeat across runs."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--report", action="store_true",
        help="run every BENCHMARK.json workload untraced and traced and "
        "print every metric",
    )
    args = parser.parse_args(argv)
    spec = load_spec()
    trace, workloads = import_library()
    if args.report:
        status = 0
        for name in (w["name"] for w in spec["workloads"]):
            for traced in (False, True):
                _result, code = run_one(
                    spec, trace, workloads, name, args.seed, args.seconds, traced
                )
                status = max(status, code)
        return status
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result, status = run_one(
        spec, trace, workloads, args.workload, args.seed, args.seconds,
        bool(args.trace),
    )
    print(json.dumps(result))
    return status


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
