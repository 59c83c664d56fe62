"""Property-based tests: the B+-tree behaves like a sorted dict.

Hypothesis drives random operation sequences against the tree and a plain
dict model; after every batch the tree must validate and agree with the
model on content, order, and range queries.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.btree.bulkload import bulk_load
from repro.btree.tree import BPlusTree
from repro.config import SidePointerKind
from repro.storage.page import Record

from tests.conftest import make_env

KEYS = st.integers(min_value=-10_000, max_value=10_000)

# An operation is ("insert", key) or ("delete", key).
OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), KEYS),
    min_size=1,
    max_size=200,
)

SIDE_KINDS = st.sampled_from(
    [SidePointerKind.NONE, SidePointerKind.ONE_WAY, SidePointerKind.TWO_WAY]
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPS, side=SIDE_KINDS)
def test_tree_matches_dict_model(ops, side):
    store, log = make_env(
        leaf_capacity=4, internal_capacity=4, side_pointers=side
    )
    tree = BPlusTree.create(store, log)
    model: dict[int, str] = {}
    for action, key in ops:
        if action == "insert":
            if key not in model:
                tree.insert(Record(key, f"v{key}"))
                model[key] = f"v{key}"
        else:
            if key in model:
                tree.delete(key)
                del model[key]
    tree.validate()
    assert [r.key for r in tree.items()] == sorted(model)
    for key in list(model)[:20]:
        assert tree.search(key).payload == model[key]


@settings(max_examples=40, deadline=None)
@given(ops=OPS, low=KEYS, high=KEYS)
def test_range_scan_matches_model(ops, low, high):
    store, log = make_env(leaf_capacity=4, internal_capacity=4)
    tree = BPlusTree.create(store, log)
    model: set[int] = set()
    for action, key in ops:
        if action == "insert" and key not in model:
            tree.insert(Record(key))
            model.add(key)
        elif action == "delete" and key in model:
            tree.delete(key)
            model.discard(key)
    expected = sorted(k for k in model if low <= k <= high)
    assert [r.key for r in tree.range_scan(low, high)] == expected


SCAN_KEYS = st.integers(min_value=0, max_value=400)
SCAN_BOUNDS = st.lists(
    st.tuples(
        st.integers(min_value=-60, max_value=460),
        st.integers(min_value=-60, max_value=460),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    loaded=st.lists(SCAN_KEYS, unique=True, max_size=150),
    cut=st.tuples(SCAN_KEYS, SCAN_KEYS),
    victims=st.lists(SCAN_KEYS, max_size=40),
    below=st.lists(
        st.integers(min_value=-50, max_value=-1), unique=True, max_size=8
    ),
    bounds=SCAN_BOUNDS,
    side=SIDE_KINDS,
)
# The empty tree, a leaf root, and a scan with high < low.
@example(loaded=[], cut=(0, 0), victims=[], below=[], bounds=[(0, 10), (5, 1)],
         side=SidePointerKind.NONE)
@example(loaded=[3, 1, 2], cut=(0, 0), victims=[], below=[-1],
         bounds=[(-5, 2), (2, 2), (9, -9)], side=SidePointerKind.NONE)
def test_range_scan_after_free_at_empty_matches_model(
    loaded, cut, victims, below, bounds, side
):
    """Scans over a tree whose leaves and internal pages were freed at
    empty, and whose minimum was pushed down, return the model's slice."""
    store, log = make_env(
        leaf_capacity=4, internal_capacity=4, side_pointers=side
    )
    tree = BPlusTree.create(store, log)
    model: dict[int, str] = {}
    for key in loaded:
        tree.insert(Record(key, f"v{key}"))
        model[key] = f"v{key}"
    # A contiguous run of deletions empties whole leaves and, with four
    # entries per internal page, whole subtrees above them.
    first, last = min(cut), max(cut)
    for key in sorted(model):
        if first <= key <= last:
            tree.delete(key)
            del model[key]
    for key in victims:
        if key in model:
            tree.delete(key)
            del model[key]
    # Descending, so each insert lands below the current tree minimum.
    for key in sorted(below, reverse=True):
        tree.insert(Record(key, f"v{key}"))
        model[key] = f"v{key}"
    tree.validate()
    for low, high in bounds:
        expected = [(k, model[k]) for k in sorted(model) if low <= k <= high]
        got = [(r.key, r.payload) for r in tree.range_scan(low, high)]
        assert got == expected, (low, high)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(KEYS, unique=True, min_size=1, max_size=300),
    leaf_fill=st.floats(min_value=0.3, max_value=1.0),
    internal_fill=st.floats(min_value=0.5, max_value=1.0),
)
def test_bulk_load_equivalent_to_inserts(keys, leaf_fill, internal_fill):
    records = [Record(k, f"v{k}") for k in sorted(keys)]
    store, log = make_env(leaf_capacity=8, internal_capacity=8)
    tree = bulk_load(
        store, log, records, leaf_fill=leaf_fill, internal_fill=internal_fill
    )
    tree.validate()
    assert [r.key for r in tree.items()] == sorted(keys)
    # Bulk-loaded trees are updatable afterwards.
    probe = max(keys) + 1
    tree.insert(Record(probe))
    assert tree.search(probe) is not None
    tree.validate()


@settings(max_examples=30, deadline=None)
@given(keys=st.lists(KEYS, unique=True, min_size=5, max_size=200))
def test_bulk_load_leaves_are_in_disk_and_key_order(keys):
    records = [Record(k) for k in sorted(keys)]
    store, log = make_env(leaf_capacity=4, internal_capacity=4)
    tree = bulk_load(store, log, records, leaf_fill=1.0)
    leaf_ids = tree.leaf_ids_in_key_order()
    assert leaf_ids == sorted(leaf_ids)
    assert leaf_ids == list(range(leaf_ids[0], leaf_ids[0] + len(leaf_ids)))
