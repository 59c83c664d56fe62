"""Command-line front end: alternate base and candidate benchmark runs.

``python -m abbench --base REF --workload W --runs N --seconds S``
exports ``REF`` with ``git archive`` into a temporary directory and runs
``perfbench/run.py --trace 0`` N times there and N times in the candidate,
this checkout's working tree.  Runs alternate, and the side that goes first alternates with them
(base, cand, cand, base, ...), so a slow drift of the host loads both
sides alike.  For every end-to-end metric of the candidate's
``BENCHMARK.json`` it prints the median and IQR / median of each side,
the change of the medians, and in how many of the N pairs the candidate
was better.  A run that fails its correctness gate stops the comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parents[2]
USAGE_EXIT = 2
FAILED_EXIT = 1

Metrics = dict[str, float]


class RunFailed(RuntimeError):
    """A benchmark run exited non-zero or failed its correctness gate."""


def export_ref(ref: str, dest: Path) -> None:
    """Write the committed tree of ``ref`` into ``dest`` (``git archive``)."""
    archive = dest / "ref.tar"
    subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive), ref],
        check=True,
    )
    with tarfile.open(archive) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # pragma: no cover - Python without extraction filters
            tar.extractall(dest)
    archive.unlink()


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> Metrics:
    """One ``perfbench/run.py --trace 0`` run; its metric values by name."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        tail = "\n".join((proc.stdout + proc.stderr).strip().splitlines()[-5:])
        raise RunFailed(f"{checkout}: exit {proc.returncode}\n{tail}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def interleave(
    runs: int,
    base: Callable[[], Metrics],
    candidate: Callable[[], Metrics],
    progress: Callable[[str], None] = lambda _: None,
) -> tuple[list[Metrics], list[Metrics]]:
    """``runs`` pairs; the first run of pair i is the base when i is even."""
    base_runs: list[Metrics] = []
    cand_runs: list[Metrics] = []
    for i in range(runs):
        order = ("base", "cand") if i % 2 == 0 else ("cand", "base")
        for side in order:
            progress(f"pair {i + 1}/{runs}: {side}")
            if side == "base":
                base_runs.append(base())
            else:
                cand_runs.append(candidate())
    return base_runs, cand_runs


def spread(values: Sequence[float]) -> tuple[float, float]:
    """(median, IQR / median); the spread of one value, or of a zero
    median, reads 0."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, (q3 - q1) / abs(median)


def summarize(
    spec: list[dict], base_runs: list[Metrics], cand_runs: list[Metrics]
) -> list[dict]:
    """One row per end-to-end metric of ``spec`` that both sides report."""
    rows = []
    for metric in spec:
        name = metric["name"]
        if not all(name in run for run in base_runs + cand_runs):
            continue
        base = [run[name] for run in base_runs]
        cand = [run[name] for run in cand_runs]
        base_median, base_spread = spread(base)
        cand_median, cand_spread = spread(cand)
        lower = metric.get("better") == "lower"
        wins = sum(
            (c < b) if lower else (c > b) for b, c in zip(base, cand)
        )
        change = (cand_median - base_median) / abs(base_median) if base_median else 0.0
        rows.append({
            "name": name, "unit": metric.get("unit", ""),
            "better": metric.get("better", ""),
            "base_median": base_median, "base_spread": base_spread,
            "cand_median": cand_median, "cand_spread": cand_spread,
            "change": change, "cand_better": wins, "pairs": len(base),
        })
    return rows


def format_table(rows: list[dict]) -> str:
    header = (
        f"{'metric':22s} {'unit':6s} {'base median':>13s} {'IQR/med':>8s} "
        f"{'cand median':>13s} {'IQR/med':>8s} {'change':>8s} {'cand better':>11s}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['name']:22s} {row['unit']:6s} {row['base_median']:13.6g} "
            f"{row['base_spread']:8.3f} {row['cand_median']:13.6g} "
            f"{row['cand_spread']:8.3f} {row['change']:+8.1%} "
            f"{str(row['cand_better']) + '/' + str(row['pairs']):>11s}"
        )
    return "\n".join(lines)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abbench",
        description="Interleaved base/candidate runs of perfbench/run.py.",
    )
    parser.add_argument("--base", required=True, metavar="REF",
                        help="git ref of the base side")
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=5, metavar="N",
                        help="runs per side (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=40.0, metavar="S",
                        help="--seconds of each run (default %(default)s)")
    parser.add_argument("--seed", type=int, default=1,
                        help="--seed of each run (default %(default)s)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        print("abbench: --runs must be >= 1 and --seconds > 0", file=sys.stderr)
        return USAGE_EXIT
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"abbench: unknown workload {args.workload!r}; known: {names}",
              file=sys.stderr)
        return USAGE_EXIT
    with tempfile.TemporaryDirectory(prefix="abbench-") as tmp:
        base_dir = Path(tmp)
        try:
            export_ref(args.base, base_dir)
        except subprocess.CalledProcessError as err:
            print(f"abbench: git archive failed: {err}", file=sys.stderr)
            return USAGE_EXIT

        def side(checkout: Path) -> Callable[[], Metrics]:
            return lambda: run_benchmark(checkout, args.workload, args.seed, args.seconds)

        try:
            base_runs, cand_runs = interleave(
                args.runs, side(base_dir), side(ROOT),
                lambda note: print(f"abbench: {note}", file=sys.stderr),
            )
        except RunFailed as err:
            print(f"abbench: run failed: {err}", file=sys.stderr)
            return FAILED_EXIT
    print(f"{args.workload}: base {args.base} vs working tree, "
          f"{args.runs} interleaved pairs, {args.seconds:g} s each, seed {args.seed}")
    print(format_table(summarize(spec["end_to_end"], base_runs, cand_runs)))
    return 0
