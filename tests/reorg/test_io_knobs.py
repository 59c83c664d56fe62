"""The batched-I/O knobs change how pages move, never what the tree holds.

``group_commit_window``, ``elevator_writeback`` and ``readahead_pages`` are
off by default.  Each one, set alone, must leave a reorganization's outcome
identical to the default configuration's: the same leaf layout on disk,
the same records, the same pass counts and the same reorganization log
volume — only the I/O schedule (absorbed log flushes, write-back sweeps,
batch reads) may differ.
"""

import hashlib
import random

import pytest

from repro.config import ReorgConfig, SidePointerKind, TreeConfig
from repro.db import Database
from repro.reorg.reorganizer import Reorganizer
from repro.storage.page import Record

N_RECORDS = 1_200

#: Knob -> (TreeConfig override, the I/O counter that shows it acted).
KNOBS = {
    "group_commit_window": (
        dict(group_commit_window=16),
        lambda db: db.log.stats.absorbed_flushes,
    ),
    "elevator_writeback": (
        dict(elevator_writeback=True),
        lambda db: db.store.buffer.writeback_sweeps,
    ),
    "readahead_pages": (
        dict(readahead_pages=8),
        lambda db: db.store.disk.stats.batch_reads,
    ),
}


def _reorganize_and_scan(**overrides):
    """Grow a tree by random inserts (scattering its leaves), thin it to a
    third, run the synchronous three-pass reorg, then range-scan it."""
    db = Database(
        TreeConfig(
            leaf_capacity=8,
            internal_capacity=6,
            leaf_extent_pages=1024,
            internal_extent_pages=512,
            buffer_pool_pages=24,
            side_pointers=SidePointerKind.ONE_WAY,
            **overrides,
        )
    )
    tree = db.create_tree()
    rng = random.Random(11)
    keys = list(range(N_RECORDS))
    rng.shuffle(keys)
    for key in keys:
        tree.insert(Record(key, f"v{key}"))
    for key in rng.sample(range(N_RECORDS), 2 * N_RECORDS // 3):
        tree.delete(key)
    db.flush()
    db.checkpoint()
    report = Reorganizer(db, tree, ReorgConfig(target_fill=0.9)).run()
    final = db.tree()
    final.validate()
    records = final.range_scan(0, N_RECORDS)
    digest = hashlib.sha256(
        repr([(r.key, r.payload) for r in records]).encode()
    ).hexdigest()
    outcome = dict(
        leaves=final.leaf_ids_in_key_order(),
        digest=digest,
        records=len(records),
        pass1_units=report.pass1.units,
        leaves_after=report.pass1.leaves_after,
        pass2_swaps=report.pass2.swaps,
        pass2_moves=report.pass2.moves,
        pass3_base_pages=report.pass3.new_base_pages,
        pass3_internal_pages=report.pass3.new_internal_pages,
        reorg_log_bytes=db.log.stats.reorg_bytes,
    )
    return db, outcome


@pytest.fixture(scope="module")
def default_run():
    return _reorganize_and_scan()


def test_default_run_exercises_every_pass(default_run):
    db, outcome = default_run
    assert outcome["records"] == N_RECORDS - 2 * N_RECORDS // 3
    assert outcome["pass1_units"] > 0
    assert outcome["pass2_swaps"] > 0 and outcome["pass2_moves"] > 0
    assert outcome["pass3_base_pages"] > 0
    # With every knob off, none of the batched-I/O counters moves.
    for _, acted in KNOBS.values():
        assert acted(db) == 0


@pytest.mark.parametrize("knob", sorted(KNOBS))
def test_knob_alone_keeps_the_outcome(default_run, knob):
    overrides, acted = KNOBS[knob]
    db, outcome = _reorganize_and_scan(**overrides)
    assert acted(db) > 0, f"{knob} never acted; the test proves nothing"
    assert outcome == default_run[1]
