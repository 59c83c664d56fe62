"""Crash recovery: redo, transaction undo, and forward-recovery analysis.

The paper assumes a [GR93]-style recovery substrate: "a redo pass is run
first ... After the redo pass, all forward operations from the log will
have been installed in the database", then incomplete transactions are
undone — and, the paper's novelty, an incomplete *reorganization unit* is
**not** undone: recovery gathers "all the information about the one
possible incomplete reorganization unit ... One finds out what remains to
be done and what locks must be obtained to do it" (section 5.1).  Finishing
the unit is the reorganizer's job (:mod:`repro.reorg.unit`); this module
performs redo + undo and reports everything forward recovery needs.

Checkpoints here are *sharp*: :func:`take_checkpoint` flushes all dirty
pages first, so redo starts at the last checkpoint record.  The checkpoint
carries the reorg progress table (section 5), each tree's pass-3 state
(sections 7.2-7.3) and the active-transaction table; recovery rebuilds
reorganization state per tree (:attr:`RecoveryReport.trees`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.storage.page import PageId
from repro.storage.store import StorageManager
from repro.wal.apply import MoveStash, apply_record, is_redoable
from repro.wal.log import LogManager
from repro.wal.progress import (
    NO_KEY_YET,
    Pass3State,
    ProgressSnapshot,
    ReorgProgressTable,
)
from repro.wal.records import (
    AbortRecord,
    ReorgMoveInRecord,
    ReorgMoveOutRecord,
    AllocRecord,
    CheckpointRecord,
    CommitRecord,
    CompensationRecord,
    EndRecord,
    LeafDeleteRecord,
    LeafInsertRecord,
    LogRecord,
    NEW_TREE_SUFFIX,
    ReorgBeginRecord,
    ReorgEndRecord,
    ReorgDoneRecord,
    ReorgRecord,
    ReorgUnitType,
    SideFileApplyRecord,
    TreeSwitchRecord,
    SideFileInsertRecord,
    StableKeyRecord,
    SYSTEM_TXN,
    TxnRecord,
)


@dataclass
class PendingReorgUnit:
    """Everything forward recovery needs about the in-flight unit.

    "We know what type it is by looking at the Type field of the BEGIN log
    record" (section 5.1); the record chain tells how far the unit got.
    """

    unit_id: int
    unit_type: ReorgUnitType
    base_pages: tuple[PageId, ...]
    leaf_pages: tuple[PageId, ...]
    dest_page: PageId
    #: All destinations (multi-output extension); (dest_page,) otherwise.
    dest_pages: tuple[PageId, ...] = ()
    #: The tree the unit reorganizes.
    tree_name: str = "primary"
    #: The unit's log records in log order (BEGIN first).
    records: list[ReorgRecord] = field(default_factory=list)

    @classmethod
    def from_begin(cls, begin: ReorgBeginRecord) -> "PendingReorgUnit":
        return cls(
            unit_id=begin.unit_id,
            unit_type=begin.unit_type,
            base_pages=begin.base_pages,
            leaf_pages=begin.leaf_pages,
            dest_page=begin.dest_page,
            dest_pages=begin.all_dest_pages(),
            tree_name=begin.tree_name,
        )


@dataclass
class TreeRecovery:
    """What recovery rebuilt for one tree's reorganization."""

    pass3: Pass3State = field(default_factory=Pass3State)
    #: In-flight units of this tree, to be finished by forward recovery
    #: (several with the parallel extension), in unit-id order.
    pending_units: list[PendingReorgUnit] = field(default_factory=list)
    #: Internal pages allocated after the last stable point — pass 3 may
    #: deallocate these on restart (section 7.3).
    allocs_after_stable: list[PageId] = field(default_factory=list)
    #: Set when the switch had begun: (old_root, new_root, old_lock_name).
    switch_pending: tuple[PageId, PageId, str] | None = None


@dataclass
class RecoveryReport:
    """Outcome of one recovery run."""

    redo_scanned: int = 0
    redo_applied: int = 0
    undone_txns: list[int] = field(default_factory=list)
    largest_finished_key: int = NO_KEY_YET
    #: Reorganization state per tree name.
    trees: dict[str, TreeRecovery] = field(default_factory=dict)

    def for_tree(self, name: str) -> TreeRecovery:
        """``name``'s entry; an empty one if recovery saw nothing of it."""
        return self.trees.get(name) or TreeRecovery()

    @property
    def pending_units(self) -> list[PendingReorgUnit]:
        "Every tree's in-flight units, in unit-id order."
        units = [u for tree in self.trees.values() for u in tree.pending_units]
        return sorted(units, key=lambda u: u.unit_id)

    @property
    def pending_unit(self) -> PendingReorgUnit | None:
        "The single in-flight unit, if any (the paper's base configuration)."
        units = self.pending_units
        return units[0] if units else None


def take_checkpoint(
    store: StorageManager,
    log: LogManager,
    *,
    active_txns: dict[int, int] | None = None,
    progress: ReorgProgressTable | None = None,
    pass3: Mapping[str, Pass3State] | None = None,
) -> int:
    """Take a sharp checkpoint; returns its LSN.

    ``pass3`` maps each tree name to its live pass-3 state; the record
    keeps a copy.
    """
    store.flush_all()
    snapshot = (
        progress.snapshot()
        if progress is not None
        else ProgressSnapshot(NO_KEY_YET, 0, 0)
    )
    record = CheckpointRecord(
        active_txns=tuple((active_txns or {}).items()),
        progress=(
            snapshot.largest_finished_key,
            snapshot.begin_lsn,
            snapshot.recent_lsn,
        ),
        progress_units=snapshot.units,
        pass3=tuple((name, state.copy()) for name, state in (pass3 or {}).items()),
    )
    lsn = log.append(record)
    log.flush()
    return lsn


class RecoveryManager:
    """Runs redo + undo over the stable log after a crash."""

    def __init__(self, store: StorageManager, log: LogManager):
        self.store = store
        self.log = log

    def run(self, *, undo: bool = True) -> RecoveryReport:
        """Perform recovery; returns the report for forward recovery.

        The caller must already have discarded volatile state (buffer pool,
        lock table) and truncated the log to its stable prefix — the crash
        harness in :mod:`repro.sim.crash` does both.
        """
        report = RecoveryReport()
        checkpoint = self._load_checkpoint()
        active: dict[int, int] = {}
        committed: set[int] = set()
        units: dict[int, PendingReorgUnit] = {}
        if checkpoint is not None:
            active.update(dict(checkpoint.active_txns))
            lk, begin_lsn, _recent = checkpoint.progress
            report.largest_finished_key = lk
            for name, state in checkpoint.pass3:
                report.trees[name] = TreeRecovery(pass3=state.copy())
            if checkpoint.progress_units:
                for _uid, unit_begin, unit_recent in checkpoint.progress_units:
                    unit = self._reconstruct_unit_from(unit_begin, unit_recent)
                    units[unit.unit_id] = unit
            elif begin_lsn:
                unit = self._reconstruct_unit_from(begin_lsn, _recent)
                units[unit.unit_id] = unit
        start_lsn = (checkpoint.lsn + 1) if checkpoint is not None else 1

        # A MoveOut whose matching MoveIn never reached the stable log must
        # not be redone: applying it would strand the moved records in the
        # stash.  Careful writing guarantees the org page cannot be on disk
        # without the dest being durable (which implies the MoveIn record
        # was flushed), so skipping is consistent — forward recovery simply
        # re-moves the records.
        matched_move_outs = {
            record.move_out_lsn
            for record in self.log.records_from(start_lsn)
            if isinstance(record, ReorgMoveInRecord)
        }
        stash: MoveStash = {}
        for record in self.log.records_from(start_lsn):
            report.redo_scanned += 1
            if (
                isinstance(record, ReorgMoveOutRecord)
                and record.lsn not in matched_move_outs
            ):
                continue
            if is_redoable(record):
                apply_record(self.store, record, redo=True, stash=stash)
                report.redo_applied += 1
            self._track_transactions(record, active, committed)
            self._track_reorg(record, report, units)

        for unit_id in sorted(units):
            unit = units[unit_id]
            tree = report.trees.setdefault(unit.tree_name, TreeRecovery())
            tree.pending_units.append(unit)

        if undo:
            report.undone_txns = self._undo_incomplete(active, committed)
        return report

    # -- analysis helpers --------------------------------------------------------

    def _load_checkpoint(self) -> CheckpointRecord | None:
        lsn = self.log.last_checkpoint_lsn
        if lsn <= 0:
            return None
        record = self.log.get(lsn)
        assert isinstance(record, CheckpointRecord)
        return record

    def _reconstruct_unit_from(
        self, begin_lsn: int, recent_lsn: int
    ) -> PendingReorgUnit:
        """Rebuild a unit in flight at checkpoint time.

        Its pre-checkpoint records are not re-scanned by redo, so they are
        recovered here by walking the unit's prev-LSN chain backwards from
        the checkpointed recent LSN (section 5: "the chain of prev LSNs can
        be used to find log records" of a unit).
        """
        begin = self.log.get(begin_lsn)
        assert isinstance(begin, ReorgBeginRecord)
        unit = PendingReorgUnit.from_begin(begin)
        chain: list[ReorgRecord] = []
        cursor = max(recent_lsn, begin_lsn)
        while cursor >= begin_lsn and cursor > 0:
            record = self.log.get(cursor)
            if isinstance(record, ReorgRecord) and record.unit_id == begin.unit_id:
                chain.append(record)
            if cursor == begin_lsn:
                break
            cursor = record.prev_lsn
        unit.records.extend(reversed(chain))
        return unit

    def _track_transactions(
        self,
        record: LogRecord,
        active: dict[int, int],
        committed: set[int],
    ) -> None:
        if not isinstance(record, TxnRecord) or record.txn_id == SYSTEM_TXN:
            return
        if isinstance(record, CommitRecord):
            committed.add(record.txn_id)
            active.pop(record.txn_id, None)
        elif isinstance(record, EndRecord):
            active.pop(record.txn_id, None)
        elif isinstance(record, (LeafInsertRecord, LeafDeleteRecord,
                                 CompensationRecord, AbortRecord,
                                 SideFileInsertRecord)):
            if record.txn_id not in committed:
                active[record.txn_id] = record.lsn

    def _track_reorg(
        self,
        record: LogRecord,
        report: RecoveryReport,
        units: dict[int, PendingReorgUnit],
    ) -> None:
        if isinstance(record, ReorgBeginRecord):
            unit = PendingReorgUnit.from_begin(record)
            unit.records.append(record)
            units[record.unit_id] = unit
            return
        if isinstance(record, ReorgEndRecord):
            report.largest_finished_key = max(
                report.largest_finished_key, record.largest_key
            )
            units.pop(record.unit_id, None)
            return
        if isinstance(record, AllocRecord):
            if record.kind == "internal":
                owner = record.tree_name.removesuffix(NEW_TREE_SUFFIX)
                tree = report.trees.setdefault(owner, TreeRecovery())
                tree.allocs_after_stable.append(record.page_id)
            return
        if isinstance(record, (StableKeyRecord, TreeSwitchRecord, ReorgDoneRecord,
                               SideFileInsertRecord, SideFileApplyRecord)):
            tree = report.trees.setdefault(record.tree_name, TreeRecovery())
            self._track_pass3(record, tree)
            return
        if isinstance(record, ReorgRecord):
            unit = units.get(record.unit_id)
            if unit is not None:
                unit.records.append(record)

    @staticmethod
    def _track_pass3(record: LogRecord, tree: TreeRecovery) -> None:
        state = tree.pass3
        if isinstance(record, StableKeyRecord):
            # The scan anchors a stable point at its very start, so seeing
            # one means internal-page reorganization is in progress — the
            # reorganization bit is re-derived from the log even when no
            # checkpoint captured it.
            state.reorg_bit = True
            state.stable_key = record.stable_key
            state.new_root = record.new_root
            state.built_entries = list(record.built_entries)
            tree.allocs_after_stable.clear()
        elif isinstance(record, TreeSwitchRecord):
            tree.switch_pending = (
                record.old_root, record.new_root, record.old_lock_name
            )
        elif isinstance(record, ReorgDoneRecord):
            tree.switch_pending = None
            state.clear()
        elif isinstance(record, SideFileInsertRecord):
            state.side_file_entries.append((record.key, record.child, record.op))
        elif isinstance(record, SideFileApplyRecord):
            entry = (record.key, record.child, record.op)
            if entry in state.side_file_entries:
                state.side_file_entries.remove(entry)

    # -- undo -----------------------------------------------------------------

    def _undo_incomplete(
        self, active: dict[int, int], committed: set[int]
    ) -> list[int]:
        """Roll back every incomplete user transaction with CLRs."""
        undone = []
        for txn_id, last_lsn in sorted(active.items()):
            if txn_id in committed:
                continue
            self._undo_one(txn_id, last_lsn)
            undone.append(txn_id)
        return undone

    def _undo_one(self, txn_id: int, last_lsn: int) -> None:
        cursor = last_lsn
        clr_prev = last_lsn
        while cursor > 0:
            record = self.log.get(cursor)
            if isinstance(record, CompensationRecord):
                # Crash during a previous rollback: skip what is already
                # compensated.
                cursor = record.undo_next_lsn
                continue
            if isinstance(record, (LeafInsertRecord, LeafDeleteRecord)):
                clr_prev = self._undo_leaf_action(txn_id, record, clr_prev)
            cursor = record.prev_lsn
        end = EndRecord(txn_id=txn_id, prev_lsn=clr_prev)
        self.log.append(end)

    def _undo_leaf_action(self, txn_id: int, record, clr_prev: int) -> int:
        """Logically undo one leaf insert/delete.

        The record may have been moved off its original page by a split or
        a reorganization unit before the rollback runs, so undo locates the
        key by descending the tree named in the record, then compensates on
        the page it actually finds (a CLR there), or — for a re-insert into
        a now-full page — through the ordinary insert path.
        """
        from repro.btree.tree import BPlusTree
        from repro.errors import BTreeError

        is_insert_undo = isinstance(record, LeafInsertRecord)
        key = record.record.key
        try:
            tree = BPlusTree.attach(self.store, self.log, name=record.tree_name)
        except BTreeError:
            return clr_prev  # the tree itself is gone; nothing to undo
        leaf = tree.leaf_for(key)
        if is_insert_undo:
            if not leaf.contains(key):
                return clr_prev  # already gone (e.g. page freed + rebuilt)
            clr = CompensationRecord(
                txn_id=txn_id,
                prev_lsn=clr_prev,
                page_id=leaf.page_id,
                undone_lsn=record.lsn,
                undo_next_lsn=record.prev_lsn,
                is_insert=False,
                record=record.record,
            )
            self.log.append(clr)
            apply_record(self.store, clr)
            if leaf.is_empty and leaf.page_id != tree.root_id:
                # Free-at-empty applies to compensating deletes too.
                tree._free_at_empty(tree.path_to_leaf(key))
            return clr.lsn
        # Undo of a delete: re-insert.
        if leaf.contains(key):
            return clr_prev  # already compensated / re-inserted
        if not leaf.is_full:
            clr = CompensationRecord(
                txn_id=txn_id,
                prev_lsn=clr_prev,
                page_id=leaf.page_id,
                undone_lsn=record.lsn,
                undo_next_lsn=record.prev_lsn,
                is_insert=True,
                record=record.record,
            )
            self.log.append(clr)
            apply_record(self.store, clr)
            return clr.lsn
        # The leaf filled up meanwhile: logical undo goes through the
        # ordinary insert path (which may split; structure changes are
        # never themselves undone).
        tree.insert(record.record)
        return clr_prev
