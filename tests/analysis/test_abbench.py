"""The A/B runner's bookkeeping: run order, spread and pair counts.

The runs themselves are ``perfbench/run.py`` subprocesses; these tests
drive the pure parts with stand-in runs.
"""

import pytest

from abbench.cli import interleave, main, spread, summarize


def test_interleave_alternates_which_side_goes_first():
    calls = []

    def run(side):
        def go():
            calls.append(side)
            return {"m": float(len(calls))}
        return go

    base, cand = interleave(3, run("base"), run("cand"))
    assert calls == ["base", "cand", "cand", "base", "base", "cand"]
    assert [r["m"] for r in base] == [1.0, 4.0, 5.0]
    assert [r["m"] for r in cand] == [2.0, 3.0, 6.0]


def test_spread_is_iqr_over_median():
    median, rel = spread([10.0, 12.0, 14.0, 16.0, 18.0])
    assert median == 14.0
    assert rel == pytest.approx((16.0 - 12.0) / 14.0)
    assert spread([5.0]) == (5.0, 0.0)
    assert spread([0.0, 0.0]) == (0.0, 0.0)


def test_summarize_counts_pairs_in_the_better_direction():
    spec = [
        {"name": "scan_p50_us", "unit": "us", "better": "lower"},
        {"name": "ops_per_s", "unit": "ops/s", "better": "higher"},
        {"name": "absent", "unit": "x", "better": "lower"},
    ]
    base = [{"scan_p50_us": 140.0, "ops_per_s": 30.0},
            {"scan_p50_us": 138.0, "ops_per_s": 31.0}]
    cand = [{"scan_p50_us": 90.0, "ops_per_s": 36.0},
            {"scan_p50_us": 139.0, "ops_per_s": 30.0}]
    rows = {row["name"]: row for row in summarize(spec, base, cand)}
    assert set(rows) == {"scan_p50_us", "ops_per_s"}
    assert rows["scan_p50_us"]["cand_better"] == 1
    assert rows["ops_per_s"]["cand_better"] == 1
    assert rows["scan_p50_us"]["pairs"] == 2
    assert rows["scan_p50_us"]["change"] == pytest.approx((114.5 - 139.0) / 139.0)


def test_bad_run_count_is_a_usage_error():
    assert main(["--base", "HEAD", "--workload", "point_ops", "--runs", "0"]) == 2


def test_unknown_workload_is_a_usage_error(capsys):
    assert main(["--base", "HEAD", "--workload", "nope", "--runs", "1"]) == 2
    assert "point_ops" in capsys.readouterr().err
