"""Tests of the benchmark itself, at small sizes.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import workloads as W
from perfbench.trace import Tracer

ROOT = Path(__file__).resolve().parents[2]


def small(workload: W.Workload, **sizes) -> W.Workload:
    """A copy of ``workload`` with smaller sizes (instance attributes)."""
    copy = type(workload)()
    for name, value in sizes.items():
        setattr(copy, name, value)
    return copy


SMALL = {
    "online_reorg": small(W.OnlineReorg(), n_records=3000, n_txns=600),
    "point_ops": small(W.PointOps(), n_records=5000, n_ops=3000),
    "sharded_churn": small(W.ShardedChurn(), n_records=3000, n_ops=1500, n_reads=600),
}


def deterministic(result: W.RoundResult) -> dict:
    return {**result.det, **result.counters}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_round_passes_gate_and_repeats_exactly(name):
    workload = SMALL[name]
    first = workload.measure(7)
    second = workload.measure(7)
    assert first.problems == [] and first.error is None
    assert first.failed == 0
    assert deterministic(first) == deterministic(second)
    assert first.setup_s > 0 and first.phase_s > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gate_fails_on_a_perturbed_model(name):
    workload = SMALL[name]
    state = workload.setup(3)
    result = workload.run_round(state)
    assert result.problems == []
    model = state.model
    trees = (
        [h.tree() for h in state.sdb.handles]
        if name == "sharded_churn" else [state.db.tree("primary")]
    )
    extra = max(model.records) + 1
    model.records[extra] = W.PAYLOAD  # one key the database never saw
    assert any("digest" in p for p in model.gate(trees))
    del model.records[extra]
    assert model.gate(trees) == []
    dropped = min(model.records)
    del model.records[dropped]  # one key the database does hold
    assert any("digest" in p for p in model.gate(trees))


def test_model_flags_wrong_results():
    model = W.Model({1: "a", 2: "b"})
    model.apply_insert(1, "c", True)  # the key was already there
    model.apply_delete(5, True)  # the key was never there
    model.check_read(2, None)
    assert len(model.mismatches) == 3


def traced_round(workload, seed):
    tracer = Tracer()
    with tracer:
        result = workload.measure(seed, tracer)
    return result, tracer


@pytest.mark.parametrize("name", sorted(SMALL))
def test_tracing_changes_no_counter(name):
    workload = SMALL[name]
    plain = workload.measure(5)
    traced, tracer = traced_round(workload, 5)
    assert deterministic(plain) == deterministic(traced)
    totals = tracer.frame_totals()
    assert tracer.window_s > 0 and tracer.spans
    calls = {frame: totals.get(frame, [0])[0] for frame in (
        "btree.leaf_chain_sweep", "shard.route", "txn.run", "reorg.pass1",
    )}
    counters = traced.counters
    if name == "point_ops":
        assert counters["locks.requests"] == 0
        assert counters["txn.des_events"] == 0
        assert counters.get("reorg.pass1_units", 0) == 0
        assert calls == {
            "btree.leaf_chain_sweep": 0, "shard.route": 0, "txn.run": 0,
            "reorg.pass1": 0,
        }
    else:
        assert counters["locks.requests"] > 0
        assert counters["txn.des_events"] > 0
        assert calls["btree.leaf_chain_sweep"] > 0
        assert calls["reorg.pass1"] > 0
        assert (calls["shard.route"] > 0) == (name == "sharded_churn")


def test_sharded_churn_updates_never_overlap_a_reorganization():
    workload = SMALL["sharded_churn"]
    state = workload.setup(4)
    updates = [p for p in state.plans if p.kind != "read"]
    assert max(p.arrival for p in updates) < state.daemon_at
    assert any(p.arrival > state.daemon_at for p in state.plans)  # reads go on
    assert workload.run_round(state).problems == []


def test_online_variant_shows_the_lost_records_defect():
    """Defect 2 of NOTES.md: with the daemon reorganizing during the write
    stream, data set 141 loses a leaf of records."""
    result = W.ShardedChurnOnline().measure(141)
    assert result.error is None
    assert any(
        "digest differs: database holds 19969 records, model 19985" in p
        for p in result.problems
    )


def test_traced_run_is_restored():
    original = W.Scheduler.run
    with Tracer():
        assert W.Scheduler.run is not original
    assert W.Scheduler.run is original


def test_careful_write_defect_is_counted_not_raised():
    """The known CarefulWriteViolation (see NOTES.md) is recorded as a
    failed op, the reorganizer, and fails the gate."""
    outcome, problems = W.reproduce_careful_write_defect(seed=11)
    assert outcome.error.startswith("CarefulWriteViolation")
    assert "page 719" in outcome.error
    assert outcome.background_done < outcome.background
    assert problems[0] == f"run raised: {outcome.error}"
    assert any("unreadable" in p for p in problems)


def test_unmeasured_metric_is_not_averaged_in():
    """A deterministic metric missing from one data set, and a latency
    kind with no calls, are left out rather than reported as 0."""
    from perfbench.run import end_to_end

    def round_(det):
        return W.RoundResult(
            setup_s=0.1, phase_s=1.0, attempted=1, completed=1, user_ops=1, rates=[1.0],
            lookups=[1e-5], updates=[], scans=[], det=det, counters={},
            problems=[], error=None,
        )

    values = end_to_end(
        [round_({"space_amp": 1.5, "io_cost_per_op": 2.0}), round_({"io_cost_per_op": 4.0})],
        2, W.percentile,
    )
    assert values["io_cost_per_op"] == 3.0
    assert "space_amp" not in values
    assert "lookup_p50_us" in values and "update_p50_us" not in values


def run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_every_named_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_cli(
        ROOT, "--workload", "sharded_churn", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_cli_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = run_cli(
        tmp_path, "--workload", "point_ops", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
