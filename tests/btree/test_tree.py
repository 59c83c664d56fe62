"""Unit tests for B+-tree structure and operations."""

import pytest

from repro.btree.tree import BPlusTree
from repro.config import SidePointerKind
from repro.errors import BTreeError, KeyNotFoundError
from repro.perf import PERF
from repro.storage.page import NO_PAGE, PageKind, Record
from repro.txn.transaction import Transaction

from tests.conftest import make_env


def make_tree(**env_kwargs):
    store, log = make_env(**env_kwargs)
    tree = BPlusTree.create(store, log)
    return tree


def fill_tree(tree, keys):
    for k in keys:
        tree.insert(Record(k, f"v{k}"))


class TestCreation:
    def test_empty_tree_is_a_leaf_root(self):
        tree = make_tree()
        root = tree.store.get(tree.root_id)
        assert root.kind is PageKind.LEAF
        assert tree.height() == 1
        assert tree.search(1) is None

    def test_create_twice_raises(self):
        tree = make_tree()
        with pytest.raises(BTreeError):
            BPlusTree.create(tree.store, tree.log)

    def test_attach_missing_raises(self):
        store, log = make_env()
        with pytest.raises(BTreeError):
            BPlusTree.attach(store, log)

    def test_attach_existing(self):
        tree = make_tree()
        fill_tree(tree, [1, 2, 3])
        again = BPlusTree.attach(tree.store, tree.log)
        assert again.search(2).payload == "v2"


class TestInsertAndSearch:
    def test_insert_search_round_trip(self):
        tree = make_tree()
        fill_tree(tree, [5, 1, 9])
        assert tree.search(5).payload == "v5"
        assert tree.search(2) is None

    def test_root_leaf_split_grows_height(self):
        tree = make_tree(leaf_capacity=4)
        fill_tree(tree, range(5))
        assert tree.height() == 2
        tree.validate()

    def test_many_inserts_sequential(self):
        tree = make_tree(leaf_capacity=4, internal_capacity=4)
        fill_tree(tree, range(200))
        tree.validate()
        assert tree.record_count() == 200
        assert [r.key for r in tree.items()] == list(range(200))

    def test_many_inserts_reverse(self):
        tree = make_tree(leaf_capacity=4, internal_capacity=4)
        fill_tree(tree, reversed(range(200)))
        tree.validate()
        assert [r.key for r in tree.items()] == list(range(200))

    def test_many_inserts_shuffled(self):
        import random

        rng = random.Random(7)
        keys = list(range(300))
        rng.shuffle(keys)
        tree = make_tree(leaf_capacity=6, internal_capacity=5)
        fill_tree(tree, keys)
        tree.validate()
        assert [r.key for r in tree.items()] == list(range(300))

    def test_internal_split_and_root_growth(self):
        tree = make_tree(leaf_capacity=2, internal_capacity=3)
        fill_tree(tree, range(30))
        assert tree.height() >= 3
        tree.validate()

    def test_txn_chain_recorded(self):
        tree = make_tree()
        txn = Transaction("writer")
        tree.insert(Record(1), txn)
        first = txn.last_lsn
        tree.insert(Record(2), txn)
        assert txn.last_lsn > first
        record = tree.log.get(txn.last_lsn)
        assert record.prev_lsn == first
        assert record.txn_id == txn.txn_id


class TestDelete:
    def test_delete_returns_record(self):
        tree = make_tree()
        fill_tree(tree, [1, 2])
        assert tree.delete(1).payload == "v1"
        assert tree.search(1) is None

    def test_delete_missing_raises(self):
        tree = make_tree()
        with pytest.raises(KeyNotFoundError):
            tree.delete(404)

    def test_free_at_empty_deallocates_leaf(self):
        tree = make_tree(leaf_capacity=2)
        fill_tree(tree, range(10))
        leaf_count_before = len(tree.leaf_ids_in_key_order())
        # Empty out one leaf entirely.
        first_leaf = tree.store.get_leaf(tree.leftmost_leaf_id())
        victims = [r.key for r in first_leaf.records]
        freed_id = first_leaf.page_id
        for key in victims:
            tree.delete(key)
        assert tree.store.free_map.is_free(freed_id)
        assert len(tree.leaf_ids_in_key_order()) == leaf_count_before - 1
        tree.validate()

    def test_sparse_leaves_are_not_consolidated(self):
        """Free-at-empty: leaves at 1 record stay allocated (no merging)."""
        tree = make_tree(leaf_capacity=4)
        fill_tree(tree, range(40))
        leaf_ids = tree.leaf_ids_in_key_order()
        # Delete all but the smallest record of every leaf.
        for leaf_id in leaf_ids:
            leaf = tree.store.get_leaf(leaf_id)
            for key in [r.key for r in leaf.records][1:]:
                tree.delete(key)
        assert tree.leaf_ids_in_key_order() == leaf_ids
        tree.validate()

    def test_delete_everything_leaves_empty_tree(self):
        tree = make_tree(leaf_capacity=2, internal_capacity=3)
        fill_tree(tree, range(20))
        for key in range(20):
            tree.delete(key)
        assert tree.record_count() == 0
        root = tree.store.get(tree.root_id)
        assert root.kind is PageKind.LEAF
        tree.validate()

    def test_reinsert_after_drain(self):
        tree = make_tree(leaf_capacity=2, internal_capacity=3)
        fill_tree(tree, range(20))
        for key in range(20):
            tree.delete(key)
        fill_tree(tree, range(100, 120))
        assert tree.record_count() == 20
        tree.validate()

    def test_free_at_empty_propagates_up(self):
        tree = make_tree(leaf_capacity=2, internal_capacity=3)
        fill_tree(tree, range(40))
        internal_before = self._count_internal(tree)
        for key in range(20):
            tree.delete(key)
        assert self._count_internal(tree) < internal_before
        tree.validate()

    @staticmethod
    def _count_internal(tree):
        count = 0
        stack = [tree.root_id]
        while stack:
            page = tree.store.get(stack.pop())
            if page.kind is PageKind.INTERNAL:
                count += 1
                stack.extend(page.children())
        return count


class TestRangeScan:
    def test_scan_within_one_leaf(self):
        tree = make_tree()
        fill_tree(tree, range(0, 20, 2))
        assert [r.key for r in tree.range_scan(4, 10)] == [4, 6, 8, 10]

    def test_scan_across_leaves(self):
        tree = make_tree(leaf_capacity=3)
        fill_tree(tree, range(50))
        assert [r.key for r in tree.range_scan(10, 30)] == list(range(10, 31))

    def test_scan_bounds_outside_data(self):
        tree = make_tree(leaf_capacity=3)
        fill_tree(tree, range(10, 20))
        assert [r.key for r in tree.range_scan(-5, 100)] == list(range(10, 20))
        assert tree.range_scan(50, 60) == []
        assert tree.range_scan(9, 5) == []

    def test_scan_empty_tree(self):
        tree = make_tree()
        assert tree.range_scan(0, 10) == []

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("low,high", [(40, 52), (100, 900), (-10, 5000)])
    def test_scan_fetches_bounded_by_height_plus_three_per_leaf(
        self, sparse, low, high
    ):
        """Without side pointers a scan descends once and then steps a
        cursor: at most ``height + 3k`` buffer fetches for k leaves, where
        re-descending from the root pays ``height + 2`` per leaf."""
        tree = make_tree(leaf_capacity=4, internal_capacity=8)
        fill_tree(tree, range(0, 1200, 2))
        if sparse:
            # Free-at-empty never merges: one record per leaf is the
            # sparsest a leaf gets without being freed.
            for leaf_id in tree.leaf_ids_in_key_order():
                leaf = tree.store.get_leaf(leaf_id)
                for key in [r.key for r in leaf.records][1:]:
                    tree.delete(key)
        height = tree.height()
        assert height >= 3
        leaf_ids = tree.leaf_ids_in_key_order()
        first = leaf_ids.index(tree.path_to_leaf(low)[-1])
        touched = 0
        for leaf_id in leaf_ids[first:]:
            touched += 1
            leaf = tree.store.get_leaf(leaf_id)
            if not leaf.is_empty and leaf.max_key() > high:
                break
        expected = [r.key for r in tree.items() if low <= r.key <= high]
        counters = PERF.counters
        before = counters.buffer_hits + counters.buffer_misses
        got = [r.key for r in tree.range_scan(low, high)]
        fetches = counters.buffer_hits + counters.buffer_misses - before
        assert got == expected
        assert touched >= 2
        assert fetches <= height + 3 * touched, (fetches, height, touched)


class TestSidePointers:
    @pytest.mark.parametrize(
        "kind", [SidePointerKind.ONE_WAY, SidePointerKind.TWO_WAY]
    )
    def test_chain_maintained_through_splits(self, kind):
        tree = make_tree(leaf_capacity=3, side_pointers=kind)
        fill_tree(tree, range(60))
        tree.validate()  # validates the chain

    @pytest.mark.parametrize(
        "kind", [SidePointerKind.ONE_WAY, SidePointerKind.TWO_WAY]
    )
    def test_chain_maintained_through_free_at_empty(self, kind):
        import random

        rng = random.Random(3)
        tree = make_tree(leaf_capacity=3, side_pointers=kind)
        keys = list(range(60))
        fill_tree(tree, keys)
        rng.shuffle(keys)
        for key in keys[:45]:
            tree.delete(key)
        tree.validate()
        survivors = sorted(keys[45:])
        assert [r.key for r in tree.items()] == survivors

    def test_two_way_scan_uses_pointers(self):
        tree = make_tree(leaf_capacity=3, side_pointers=SidePointerKind.TWO_WAY)
        fill_tree(tree, range(30))
        assert [r.key for r in tree.range_scan(0, 29)] == list(range(30))

    def test_no_side_pointers_leaves_defaults(self):
        tree = make_tree(leaf_capacity=3)
        fill_tree(tree, range(30))
        for leaf_id in tree.leaf_ids_in_key_order():
            leaf = tree.store.get_leaf(leaf_id)
            assert leaf.next_leaf == NO_PAGE
            assert leaf.prev_leaf == NO_PAGE


class TestBasePageHelpers:
    def test_base_page_for_returns_parent_of_leaf(self):
        tree = make_tree(leaf_capacity=3, internal_capacity=3)
        fill_tree(tree, range(40))
        base = tree.base_page_for(0)
        assert base.level == 1
        leaf_id = tree.path_to_leaf(0)[-1]
        assert leaf_id in base.children()

    def test_base_page_for_leaf_root_is_none(self):
        tree = make_tree()
        fill_tree(tree, [1])
        assert tree.base_page_for(1) is None

    def test_low_marks_set_on_base_pages(self):
        tree = make_tree(leaf_capacity=3, internal_capacity=3)
        fill_tree(tree, range(60))
        base = tree.base_page_for(0)
        assert base.low_mark is not None
