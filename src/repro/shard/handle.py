"""Shard handles: one Database-shaped view per shard.

A :class:`ShardHandle` duck-types the slice of
:class:`repro.db.Database` that the tree protocols, the reorganizer
(:class:`~repro.reorg.protocols.ReorgProtocol`,
:class:`~repro.reorg.shrink.TreeShrinker`, ...) and the checkpoint
machinery consume: ``config``, ``store``, ``log``, ``locks``,
``progress``, ``pass3``, ``pass3_tree`` and ``tree()``.  The store is the
shard's leased :class:`~repro.shard.store.ShardStore`; log, locks and
progress are the shared instances; ``pass3`` is the shard's *own*
:class:`~repro.wal.progress.Pass3State`, so each shard's side file, stable
key and new-root bookkeeping evolve independently and are checkpointed and
recovered under the shard's tree name.

All tree access goes through the shard's own store view — never through
``Database.tree()`` (enforced statically by the ``shard-router-only``
reprolint rule), so a handle can only ever reach its own tree.
"""

from __future__ import annotations

from repro.btree.tree import BPlusTree
from repro.config import TreeConfig, gapped_leaf_fill
from repro.locks.manager import LockManager
from repro.metrics import FragmentationStats, ShardStats
from repro.shard.store import ShardStore
from repro.storage.page import Record
from repro.wal.log import LogManager
from repro.wal.progress import Pass3State, ReorgProgressTable


class ShardHandle:
    """Database-shaped facade over one shard of the forest."""

    def __init__(
        self,
        *,
        index: int,
        tree_name: str,
        config: TreeConfig,
        store: ShardStore,
        log: LogManager,
        locks: LockManager,
        progress: ReorgProgressTable,
    ):
        self.shard_index = index
        self.tree_name = tree_name
        self.config = config
        self.store = store
        self.log = log
        self.locks = locks
        self.progress = progress
        self.pass3 = Pass3State()
        #: As on :class:`repro.db.Database`; a shard only ever runs pass 3
        #: on its own tree.
        self.pass3_tree = tree_name
        #: Names this shard's side file: shard switches X-lock
        #: ``sidefile_lock(tree_name)``, and shard updaters IX the same
        #: resource, so switch drains never entangle other shards.
        self.sidefile_name = tree_name
        self.stats = ShardStats()
        #: Live fill-factor/split-rate tracker for this shard's tree;
        #: :meth:`tree` wires it onto every handle it returns, and the
        #: auto-reorg daemon polls it (after a ``sync_from_tree``
        #: baseline).
        self.frag = FragmentationStats(
            leaf_capacity=gapped_leaf_fill(config, 1.0)
        )

    # -- tree access ---------------------------------------------------------

    def tree(self, name: str | None = None) -> BPlusTree:
        if name is not None and name != self.tree_name:
            raise ValueError(
                f"shard {self.shard_index} owns tree {self.tree_name!r}, "
                f"not {name!r} — route through the ShardedDatabase instead"
            )
        tree = BPlusTree.attach(self.store, self.log, name=self.tree_name)
        tree.frag_stats = self.frag
        return tree

    def has_tree(self, name: str | None = None) -> bool:
        target = name if name is not None else self.tree_name
        return (
            target == self.tree_name
            and self.store.disk.get_meta(f"root:{target}") is not None
        )

    def create_tree(self) -> BPlusTree:
        return BPlusTree.create(self.store, self.log, name=self.tree_name)

    def bulk_load_tree(
        self,
        records: list[Record],
        *,
        leaf_fill: float = 1.0,
        internal_fill: float = 1.0,
    ) -> BPlusTree:
        from repro.btree.bulkload import bulk_load

        tree = bulk_load(
            self.store,
            self.log,
            records,
            name=self.tree_name,
            leaf_fill=leaf_fill,
            internal_fill=internal_fill,
        )
        tree.frag_stats = self.frag
        return tree

    def __repr__(self) -> str:
        return (
            f"<ShardHandle {self.shard_index} {self.tree_name!r} "
            f"leaf=[{self.store.leaf_lease.start},{self.store.leaf_lease.end})>"
        )
