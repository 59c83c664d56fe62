"""Switching from the old B+-tree to the new one (paper section 7.4).

"A detailed description of switching from the old B+-tree to the new
B+-tree is described for the first time" — the paper's own headline.  The
protocol:

1. X-lock the **side file**.  "This will prevent any further updates on
   base pages of either the new or the old tree" (updaters must IX the side
   file before a base-page change while the reorg bit is set), while plain
   readers and non-structural updaters proceed.
2. Final catch-up: apply the handful of side-file entries appended while
   waiting for the X lock, and log those changes.
3. Flip the root: "we change the information about the location of the
   root of the old B+-tree to that of the new B+-tree.  This information is
   usually on a special place on the disk."  The new tree also gets a lock
   name distinct from the old one, so new transactions lock the new name.
4. X-lock the **old tree** (its old lock name).  Every transaction using
   the old tree holds an IS/IX intention lock on it, so this grant means
   they have all drained.  An optional wait limit aborts stragglers
   ("we might set a time limit ... then it will force the on-going
   transactions that use the old tree to abort").
5. Discard the old upper levels and reclaim their disk space; clear the
   reorganization bit; release the X locks.

The synchronous engine here performs steps 2, 3 and 5 plus the bookkeeping;
the lock choreography of steps 1 and 4 is exercised for real by the DES
protocols in :mod:`repro.reorg.protocols`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.btree.tree import BPlusTree
from repro.db import Database
from repro.errors import ReorgError
from repro.locks.modes import LockMode
from repro.locks.resources import sidefile_lock, tree_lock
from repro.reorg.shrink import TreeShrinker
from repro.storage.page import PageId, PageKind
from repro.txn.transaction import Transaction
from repro.wal.records import FreeRecord, ReorgDoneRecord, TreeSwitchRecord


@dataclass
class SwitchStats:
    """Outcome of the switch."""

    final_catchup_entries: int = 0
    old_internal_freed: int = 0
    old_root: PageId = -1
    new_root: PageId = -1


def current_lock_name(db: Database, tree_name: str) -> str:
    """The tree's current lock name; distinct per tree incarnation."""
    name = db.store.disk.get_meta(f"lockname:{tree_name}")
    return name if name is not None else f"{tree_name}@0"  # type: ignore[return-value]


def _bump_lock_name(db: Database, tree_name: str) -> tuple[str, str]:
    old = current_lock_name(db, tree_name)
    epoch = int(old.rsplit("@", 1)[1]) + 1
    new = f"{tree_name}@{epoch}"
    db.store.disk.set_meta(f"lockname:{tree_name}", new)
    return old, new


class Switcher:
    """Performs the switch for a finished :class:`TreeShrinker`."""

    def __init__(
        self,
        db: Database,
        tree: BPlusTree,
        shrinker: TreeShrinker,
        *,
        reorg_txn: Transaction | None = None,
    ):
        self.db = db
        self.tree = tree
        self.shrinker = shrinker
        self.reorg_txn = reorg_txn or Transaction("switcher", is_reorganizer=True)
        #: Per-shard side files: a shard handle names its own side file.
        self._sidefile = sidefile_lock(getattr(db, "sidefile_name", ""))

    def run(self) -> SwitchStats:
        stats = SwitchStats()
        if self.shrinker.new_root < 0:
            raise ReorgError("new upper levels are not built; run pass 3 first")
        locks = self.db.locks
        # 1. X lock the side file: stops base-page updaters on both trees.
        locks.request(self.reorg_txn, self._sidefile, LockMode.X)
        try:
            # 2. Catch up the stragglers appended while acquiring the lock.
            stats.final_catchup_entries = self.shrinker.apply_side_file_once()
            # 3. Flip the root pointer and the tree lock name.  The switch
            #    record is forced to the log *first*, so a crash anywhere
            #    from here on can finish the switch forward (both roots and
            #    the old lock name are known).
            stats.old_root = self.tree.root_id
            stats.new_root = self.shrinker.new_root
            old_lock_name = current_lock_name(self.db, self.tree.name)
            self.db.log.append(
                TreeSwitchRecord(
                    old_root=stats.old_root,
                    new_root=stats.new_root,
                    old_lock_name=old_lock_name,
                    tree_name=self.tree.name,
                )
            )
            self.db.log.flush()
            _bump_lock_name(self.db, self.tree.name)
            self.tree.set_root(stats.new_root)
            # Invalidate in-flight optimistic descents anchored at the old
            # root: bump its version stamp so their next validation fails
            # and they restart against the new access path.  (An internal
            # old root is bumped again by the discard below; a *leaf* old
            # root is shared with the new tree and would otherwise never
            # change, leaving lock-free readers pinned to the old route.)
            self.db.store.buffer.bump_version(stats.old_root)
            self.db.store.disk.del_meta(f"root:{self.tree.name}.new")
            # 4. Drain old-tree transactions by X-locking the old lock name.
            #    (Synchronous callers hold no tree locks, so this grants at
            #    once; the DES protocol version waits here, with the
            #    configured time limit and abort policy.)
            locks.request(self.reorg_txn, tree_lock(old_lock_name), LockMode.X)
            # 5. Discard the old upper levels and reclaim the space.
            stats.old_internal_freed = self._discard_internals_under(
                stats.old_root
            )
            self._clear_pass3_state()
            locks.release(self.reorg_txn, tree_lock(old_lock_name), LockMode.X)
        finally:
            locks.release(self.reorg_txn, self._sidefile, LockMode.X)
        return stats

    def finish_pending_switch(
        self, old_root: PageId, new_root: PageId, old_lock_name: str
    ) -> SwitchStats:
        """Forward-complete a switch interrupted by a crash.

        Recovery saw the TreeSwitchRecord but no ReorgDoneRecord: the root
        flip and/or the old-tree discard may or may not have happened.
        Both are idempotent, so simply redo them.
        """
        stats = SwitchStats(old_root=old_root, new_root=new_root)
        locks = self.db.locks
        locks.request(self.reorg_txn, self._sidefile, LockMode.X)
        try:
            if self.db.store.disk.get_meta(f"root:{self.tree.name}.new") is not None:
                stats.final_catchup_entries = self.shrinker.apply_side_file_once()
            if self.tree.root_id == old_root:
                _bump_lock_name(self.db, self.tree.name)
                self.tree.set_root(new_root)
                # Same optimistic-reader invalidation as the normal switch.
                self.db.store.buffer.bump_version(old_root)
            self.db.store.disk.del_meta(f"root:{self.tree.name}.new")
            locks.request(self.reorg_txn, tree_lock(old_lock_name), LockMode.X)
            stats.old_internal_freed = self._discard_internals_under(old_root)
            self._clear_pass3_state()
            locks.release(self.reorg_txn, tree_lock(old_lock_name), LockMode.X)
        finally:
            locks.release(self.reorg_txn, self._sidefile, LockMode.X)
        return stats

    def _clear_pass3_state(self) -> None:
        self.db.log.append(ReorgDoneRecord(tree_name=self.tree.name))
        self.db.log.flush()
        self.db.pass3.clear()
        self.shrinker.detach_listener()

    def _discard_internals_under(self, root: PageId) -> int:
        """Free the internal pages of the tree rooted at ``root``,
        children before parents so an interrupted discard stays walkable.
        Already-freed pages (a previous attempt got partway) are skipped.
        """
        if self.db.store.free_map.is_free(root):
            return 0
        post_order: list[PageId] = []

        def walk(page_id: PageId) -> None:
            if self.db.store.free_map.is_free(page_id):
                return
            page = self.db.store.get(page_id)
            if page.kind is not PageKind.INTERNAL:
                return
            for child in page.children():  # type: ignore[union-attr]
                walk(child)
            post_order.append(page_id)

        walk(root)
        for page_id in post_order:
            self.db.log.append(FreeRecord(page_id=page_id))
            self.db.store.deallocate(page_id)
        return len(post_order)
