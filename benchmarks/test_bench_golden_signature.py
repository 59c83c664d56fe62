"""BENCH check: the default configuration's golden signature.

Every performance feature of :class:`repro.config.TreeConfig` defaults off
(group commit, elevator write-back, readahead, optimistic reads, placement
policy, leaf gaps), no :class:`repro.reorg.daemon.ReorgDaemon` runs unless
a workload spawns one, and the analysis tools (sanitizer, race detector,
explorer) change nothing until they are installed or attached.  The
default paths must therefore reproduce, byte for byte, the signature
recorded in the BENCH file written just before each feature landed:

============  ==========================================  ==================
BENCH file    workloads pinned                            off path guarded
============  ==========================================  ==================
BENCH_1.json  bulk_insert, mixed_e2, reorg_20k            batched I/O,
                                                          sanitizer, explorer
BENCH_3.json  mixed_e2, range_scan_e6                     optimistic reads
BENCH_4.json  read_mostly_e6, mixed_e2_optimistic         race detector
BENCH_5.json  mixed_e2, range_scan_e6, placement_policies gapped leaves
============  ==========================================  ==================

Each workload runs once per session (best of three repeats), with the
sanitizer, the race detector and the explorer imported but never
installed.  Four assertion families:

* **Identity** (machine-independent): every pinned (workload, BENCH file)
  pair reproduces the recorded perf ``counters`` and ``checks`` exactly.
  Any always-on work — a prefetch issued without the flag, a reordered
  write-back, a version probe in the locked descent, a slack slot reserved
  at gap 0.0, a shadow check left in a hot path — shifts them.
* **Import does not patch**: importing the sanitizer or the race detector
  leaves every method they wrap as the original function, and importing
  the explorer leaves the scheduler and lock-manager hooks detached.
* **Wall clock** (generous noise bound): each pinned pair stays within 2x
  of the slowest repeat recorded in its BENCH file — a tripwire for an
  accidentally enabled feature or installed tool, not a precision
  benchmark.
* **Headlines**: BENCH_4.json and BENCH_6.json carry the acceptance
  numbers of the optimistic-read and gapped-leaf/daemon features.
"""

import json
from pathlib import Path

import pytest

from conftest import banner
from perf_harness import run_suite

pytestmark = pytest.mark.bench

_ROOT = Path(__file__).resolve().parent.parent
BENCH = {
    name: json.loads((_ROOT / f"{name}.json").read_text())
    for name in ("BENCH_1", "BENCH_3", "BENCH_4", "BENCH_5", "BENCH_6")
}

#: Every pinned (BENCH file, workload) pair.
PINS = [
    ("BENCH_1", "bulk_insert"),
    ("BENCH_1", "mixed_e2"),
    ("BENCH_1", "reorg_20k"),
    ("BENCH_3", "mixed_e2"),
    ("BENCH_3", "range_scan_e6"),
    ("BENCH_4", "read_mostly_e6"),
    ("BENCH_4", "mixed_e2_optimistic"),
    ("BENCH_5", "mixed_e2"),
    ("BENCH_5", "range_scan_e6"),
    ("BENCH_5", "placement_policies"),
]

WORKLOADS = sorted({workload for _, workload in PINS})

_PIN_IDS = [f"{bench}-{workload}" for bench, workload in PINS]


@pytest.fixture(scope="module")
def default_results():
    """Every pinned workload on current code: default config, analysis
    tools imported but never installed."""
    import repro.analysis.explorer  # noqa: F401 (import is the point)
    import repro.analysis.racedetect as racedetect
    import repro.analysis.sanitizer as sanitizer

    assert sanitizer.active() is None, "sanitizer must be off for this bench"
    assert racedetect.active() is None, "detector must be off for this bench"
    return run_suite(WORKLOADS, repeats=3)


# -- identity ----------------------------------------------------------------


@pytest.mark.parametrize("bench,workload", PINS, ids=_PIN_IDS)
def test_counters_identical(default_results, bench, workload):
    """The deterministic signature of the hot paths is unchanged."""
    expected = BENCH[bench]["workloads"][workload]["counters"]
    assert default_results[workload]["counters"] == expected


@pytest.mark.parametrize("bench,workload", PINS, ids=_PIN_IDS)
def test_checks_identical(default_results, bench, workload):
    expected = BENCH[bench]["workloads"][workload]["checks"]
    assert default_results[workload]["checks"] == expected


# -- import does not patch ---------------------------------------------------


def test_sanitizer_import_does_not_patch():
    import repro.analysis.sanitizer as sanitizer
    from repro.locks.manager import LockManager
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import SimulatedDisk
    from repro.txn.scheduler import Scheduler

    if sanitizer.active() is not None:
        pytest.skip("sanitizer installed session-wide; off-path not testable")
    for cls, attr in [
        (LockManager, "request"),
        (LockManager, "release"),
        (BufferPool, "fetch"),
        (BufferPool, "mark_dirty"),
        (SimulatedDisk, "write"),
        (Scheduler, "_step"),
    ]:
        fn = getattr(cls, attr)
        assert not hasattr(fn, "__wrapped__"), f"{cls.__name__}.{attr} patched"


def test_race_detector_import_does_not_patch():
    import repro.analysis.racedetect as racedetect
    from repro.locks.manager import LockManager
    from repro.storage.buffer import BufferPool
    from repro.storage.store import StorageManager
    from repro.txn.scheduler import Scheduler
    from repro.wal.log import LogManager

    if racedetect.active() is not None:
        pytest.skip("detector installed session-wide; off-path not testable")
    for cls, attr in [
        (BufferPool, "fetch"),
        (BufferPool, "mark_dirty"),
        (BufferPool, "put_new"),
        (BufferPool, "drop"),
        (LockManager, "request"),
        (LockManager, "release"),
        (LockManager, "convert"),
        (Scheduler, "spawn"),
        (Scheduler, "_step"),
        (LogManager, "append"),
        (LogManager, "flush"),
        (StorageManager, "__init__"),
    ]:
        fn = getattr(cls, attr)
        assert not hasattr(fn, "__wrapped__"), f"{cls.__name__}.{attr} patched"


def test_explorer_import_leaves_hooks_detached():
    import repro.analysis.explorer  # noqa: F401
    from repro.locks.manager import LockManager
    from repro.txn.scheduler import Scheduler

    lm = LockManager()
    assert lm.grant_order is None
    assert lm.on_victim is None
    assert Scheduler(lm).pick_next is None


# -- wall clock --------------------------------------------------------------


@pytest.mark.parametrize("bench,workload", PINS, ids=_PIN_IDS)
def test_wall_clock_within_noise(default_results, bench, workload):
    recorded = BENCH[bench]["workloads"][workload]
    now = default_results[workload]["wall_s"]
    bound = 2.0 * max(recorded["wall_all_s"] or [recorded["wall_s"]])
    banner(f"Default-config overhead — {workload} vs {bench}")
    print(
        f"  {bench} best {recorded['wall_s']:.4f}s   "
        f"now {now:.4f}s   bound {bound:.4f}s"
    )
    assert now <= bound, (
        f"default {workload} took {now:.4f}s, over the {bound:.4f}s noise "
        f"bound vs {bench}.json — is a feature accidentally on by default, "
        f"or an analysis tool installed?"
    )


# -- headlines ---------------------------------------------------------------


def test_read_mostly_headline_is_recorded():
    """BENCH_4.json carries the optimistic-read acceptance numbers: >= 5x
    fewer lock-manager requests on the read-mostly cell, with the
    optimistic scan digest byte-identical to the locked one
    (run_read_mostly_e6 raises before returning checks if either clause
    fails)."""
    checks = BENCH["BENCH_4"]["workloads"]["read_mostly_e6"]["checks"]
    assert checks["lock_reduction"] >= 5.0
    assert checks["optimistic_lock_requests"] < checks["locked_lock_requests"]
    assert checks["optimistic_searches"] > 0 and checks["optimistic_scans"] > 0


def test_churn_daemon_headline_is_recorded():
    """BENCH_6.json carries the gapped-leaf/daemon acceptance numbers:
    gapped bulk load + churn cuts leaf splits >= 2x with identical
    contents, the daemon-off churn degrades range scans >= 1.5x, and the
    daemon holds the same churn within ~10% (run_churn_daemon raises
    before returning checks if any clause fails)."""
    checks = BENCH["BENCH_6"]["workloads"]["churn_daemon"]["checks"]
    assert checks["split_reduction"] >= 2.0
    assert checks["off_degradation"] >= 1.5
    assert checks["on_degradation"] <= 1.10
    assert checks["daemon_reorgs"] >= 1
    assert checks["gapped_absorbed"] > 0
