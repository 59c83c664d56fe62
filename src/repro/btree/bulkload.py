"""Bottom-up B+-tree construction from sorted input.

"Constructing a B+-tree from sorted records in a bottom-up fashion is
described in chapter 5 section 5 of [Sal88].  Essentially, the records are
copied to newly allocated empty pages as they arrive.  When a new page is
added, no splitting is necessary.  The first page is filled to a
pre-assigned fill factor, and then the next records go in the next page.
Each new page requires a new entry in the level above." (paper section 7.1)

Two entry points:

* :func:`bulk_load` — build a complete tree from sorted records (used to
  set up experiment trees and by the quickstart example);
* :func:`build_upper_levels` — build only the levels *above* the leaves
  from a stream of (separator key, leaf page id) entries.  This is exactly
  what pass 3 of the reorganizer does: the leaves stay in place and a new
  upper tree is constructed beside the old one.  The optional
  ``on_page_built`` callback lets the caller implement the paper's stable
  points (force-write every N pages, section 7.3).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.errors import BTreeError
from repro.storage.page import InternalPage, PageId, Record
from repro.storage.store import StorageManager
from repro.wal.apply import apply_record
from repro.wal.log import LogManager
from repro.wal.records import (
    AllocRecord,
    InternalFormatRecord,
    LeafFormatRecord,
    SidePointerRecord,
)
from repro.config import SidePointerKind, gapped_leaf_fill, leaf_gap_slots
from repro.perf import PERF


def _fill_count(capacity: int, fill: float) -> int:
    """Records per page for a fill factor, at least 1."""
    return max(1, math.floor(capacity * fill + 1e-9))


def _chunk(items: Sequence, size: int) -> list[list]:
    return [list(items[i : i + size]) for i in range(0, len(items), size)]


def _log_apply(store: StorageManager, log: LogManager, record) -> None:
    log.append(record)
    apply_record(store, record)


def build_leaf_level(
    store: StorageManager,
    log: LogManager,
    records: Sequence[Record],
    *,
    fill: float,
    side_pointers: SidePointerKind = SidePointerKind.NONE,
) -> list[tuple[int, PageId]]:
    """Pack sorted records into new leaves; returns (min key, page id) pairs."""
    keys = [r.key for r in records]
    if keys != sorted(keys):
        raise BTreeError("bulk load input must be sorted by key")
    if len(set(keys)) != len(keys):
        raise BTreeError("bulk load input must not contain duplicate keys")
    # Leaf packing honours the configured gap: gapped_leaf_fill clamps the
    # fill-count so each new leaf keeps its reserved slack free (identical
    # to the historical fill arithmetic when leaf_gap_fraction is 0).
    per_page = gapped_leaf_fill(store.config, fill)
    gapped = leaf_gap_slots(store.config) > 0
    entries: list[tuple[int, PageId]] = []
    previous_id: PageId | None = None
    for chunk in _chunk(records, per_page):
        leaf = store.allocate_leaf()
        _log_apply(store, log, AllocRecord(page_id=leaf.page_id, kind="leaf"))
        prev_ptr = (
            previous_id
            if side_pointers is SidePointerKind.TWO_WAY and previous_id is not None
            else -1
        )
        _log_apply(
            store,
            log,
            LeafFormatRecord(
                page_id=leaf.page_id,
                records=tuple(chunk),
                next_leaf=-1,
                prev_leaf=prev_ptr,
            ),
        )
        if previous_id is not None and side_pointers is not SidePointerKind.NONE:
            previous = store.get_leaf(previous_id)
            _log_apply(
                store,
                log,
                SidePointerRecord(
                    page_id=previous_id,
                    next_leaf=leaf.page_id,
                    prev_leaf=previous.prev_leaf,
                ),
            )
        entries.append((chunk[0].key, leaf.page_id))
        previous_id = leaf.page_id
    if gapped:
        PERF.gap.gapped_leaves_built += len(entries)
    return entries


def build_upper_levels(
    store: StorageManager,
    log: LogManager,
    entries: Sequence[tuple[int, PageId]],
    *,
    fill: float,
    on_page_built: Callable[[InternalPage], None] | None = None,
    start_level: int = 1,
    place: Callable[[int, int], PageId | None] | None = None,
    tree_name: str = "primary",
) -> PageId:
    """Build internal levels over (key, child) entries; returns the root id.

    ``on_page_built`` fires after each new internal page is formatted —
    pass 3 counts pages here to place its stable points.  ``start_level``
    is the level of the first level built (1 when the children are leaves;
    2 when the children are already-built base pages, as in pass 3).
    ``place(level, index)`` may name a specific free page for the
    ``index``-th page of ``level`` — the placement-policy hook pass 3 uses
    for vEB layout; None (per call or overall) keeps first-fit allocation.
    ``tree_name`` names the tree the pages' Alloc records belong to.
    """
    if not entries:
        raise BTreeError("cannot build upper levels over zero entries")
    per_page = _fill_count(store.config.internal_capacity, fill)
    level = start_level
    current: list[tuple[int, PageId]] = list(entries)
    while len(current) > 1 or level == start_level:
        next_level: list[tuple[int, PageId]] = []
        for index, chunk in enumerate(_chunk(current, per_page)):
            page = store.allocate_internal(
                level=level,
                page_id=place(level, index) if place is not None else None,
            )
            _log_apply(
                store, log,
                AllocRecord(
                    page_id=page.page_id,
                    kind="internal",
                    level=level,
                    tree_name=tree_name,
                ),
            )
            _log_apply(
                store, log,
                InternalFormatRecord(
                    page_id=page.page_id,
                    level=level,
                    entries=tuple(chunk),
                    low_mark=chunk[0][0],
                ),
            )
            if on_page_built is not None:
                on_page_built(store.get_internal(page.page_id))
            next_level.append((chunk[0][0], page.page_id))
        if len(next_level) == 1:
            return next_level[0][1]
        current = next_level
        level += 1
    # Single entry at level 1: wrap it in one root page anyway (handled in
    # the loop), so reaching here means a single child entry was passed.
    return current[0][1]


def bulk_load(
    store: StorageManager,
    log: LogManager,
    records: Sequence[Record],
    *,
    name: str = "primary",
    leaf_fill: float = 1.0,
    internal_fill: float = 1.0,
):
    """Build a complete tree from sorted records; returns a BPlusTree."""
    from repro.btree.tree import BPlusTree

    if store.disk.get_meta(f"root:{name}") is not None:
        raise BTreeError(f"tree {name!r} already exists")
    if not records:
        return BPlusTree.create(store, log, name=name)
    side = store.config.side_pointers
    entries = build_leaf_level(
        store, log, records, fill=leaf_fill, side_pointers=side
    )
    if len(entries) == 1:
        root_id = entries[0][1]
    else:
        root_id = build_upper_levels(
            store, log, entries, fill=internal_fill, tree_name=name
        )
    store.disk.set_meta(f"root:{name}", root_id)
    return BPlusTree.attach(store, log, name=name)
