"""Property-based tests for the buffer pool.

Invariant under any interleaving of page updates, flushes, evictions and
crashes: the stable image of a page is always some *prefix* of its logged
update history (never a torn or reordered state), and careful-writing
dependencies are never violated on disk.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import CarefulWriteViolation
from repro.storage.buffer import BufferPool
from repro.storage.disk import Extent, SimulatedDisk
from repro.storage.page import LeafPage, Record


class CountingWAL:
    def __init__(self):
        self.flushed_lsn = 0

    def flush(self, up_to_lsn):
        self.flushed_lsn = max(self.flushed_lsn, up_to_lsn)


ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["update", "flush", "fetch", "crash_check"]),
        st.integers(min_value=0, max_value=5),  # page index
    ),
    min_size=1,
    max_size=100,
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(actions=ACTIONS, capacity=st.integers(min_value=2, max_value=8))
def test_stable_images_are_update_prefixes(actions, capacity):
    disk = SimulatedDisk([Extent("leaf", 0, 16)])
    wal = CountingWAL()
    pool = BufferPool(disk, capacity, wal=wal)
    n_pages = 6
    lsn = 0
    #: Per page: number of updates applied in memory.
    applied = [0] * n_pages
    live_pages = {}

    def page_of(index):
        if index not in live_pages:
            page = LeafPage(index, capacity=200)
            pool.put_new(page)
            live_pages[index] = page
        elif not pool.contains(index):
            live_pages[index] = pool.fetch(index)
        return live_pages[index]

    for action, index in actions:
        if action == "update":
            lsn += 1
            page = page_of(index)
            page.insert(Record(applied[index], payload=str(lsn)))
            applied[index] += 1
            pool.mark_dirty(index, lsn=lsn)
        elif action == "flush":
            if index in live_pages and pool.contains(index):
                pool.flush_page(index)
        elif action == "fetch":
            if index in live_pages:
                live_pages[index] = pool.fetch(index)
        elif action == "crash_check":
            # The stable image must be a prefix of the update history:
            # exactly its first `k` records for some k <= applied count,
            # and its page_lsn consistent with the WAL flush point.
            for pid in range(n_pages):
                if not disk.has_image(pid):
                    continue
                stable = disk.peek(pid)
                keys = stable.keys()
                assert keys == list(range(len(keys)))  # prefix of history
                assert len(keys) <= applied[pid]
                assert stable.page_lsn <= wal.flushed_lsn

    # Final full flush: disk must converge to memory exactly.
    for index, page in live_pages.items():
        if pool.contains(index):
            pool.flush_page(index)
            assert disk.peek(index).keys() == page.keys()


@settings(max_examples=60, deadline=None)
@given(
    chain=st.lists(
        st.integers(min_value=0, max_value=7), min_size=2, max_size=8,
        unique=True,
    )
)
def test_careful_writing_chain_order_always_respected(chain):
    """For any dependency chain p0 <- p1 <- ... (each must be durable
    before its successor), flushing any member writes its transitive
    dependencies first."""
    disk = SimulatedDisk([Extent("leaf", 0, 16)])
    pool = BufferPool(disk, capacity=16, careful_writing=True)
    for pid in chain:
        pool.put_new(LeafPage(pid, 4))
    for earlier, later in zip(chain, chain[1:]):
        # `later` holds records copied from `earlier`... the paper's rule:
        # source must not be written before dest; here dest=earlier.
        pool.add_write_dependency(source=later, dest=earlier)
    writes = []
    original = disk.write

    def spy(page):
        writes.append(page.page_id)
        original(page)

    disk.write = spy
    pool.flush_page(chain[-1])
    # Every dependency precedes its dependent in the write order.
    positions = {pid: i for i, pid in enumerate(writes)}
    for earlier, later in zip(chain, chain[1:]):
        assert positions[earlier] < positions[later]


DEPENDENCY_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["depend", "depend", "undo", "dirty", "flush", "drop", "crash"]
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(actions=DEPENDENCY_ACTIONS)
def test_destination_index_mirrors_write_before_edges(actions):
    """The dest -> sources index that lets a write clear only the edges
    into the written page stays the exact inverse of the edge map through
    every way an edge appears or goes: added, undone, cleared by a write
    (direct, recursive, by eviction or before a drop), crashed."""
    disk = SimulatedDisk([Extent("leaf", 0, 16)])
    pool = BufferPool(disk, 4, wal=CountingWAL())
    live: set[int] = set()
    lsn = 0
    for action, page, other in actions:
        try:
            if action == "depend" and page != other:
                pool.add_write_dependency(source=page, dest=other)
            elif action == "undo":
                edges = sorted(
                    (source, dest)
                    for source, dests in pool._write_before.items()
                    for dest in dests
                )
                if edges:
                    source, dest = edges[(8 * page + other) % len(edges)]
                    pool.remove_write_dependency(source=source, dest=dest)
            elif action == "dirty":
                if page not in live:
                    pool.put_new(LeafPage(page, 4))
                    live.add(page)
                pool.fetch(page)
                lsn += 1
                pool.mark_dirty(page, lsn=lsn)
            elif action == "flush":
                pool.flush_page(page)
            elif action == "drop" and page in live:
                pool.drop(page)
                disk.erase(page)
                live.discard(page)
            elif action == "crash":
                pool.crash()
                live = {p for p in live if disk.has_image(p)}
        except CarefulWriteViolation:
            pass  # a cycle of edges: refused, and the maps stay consistent
        inverse: dict[int, set[int]] = {}
        for source, dests in pool._write_before.items():
            assert dests, "a source with no edges must be removed"
            for dest in dests:
                inverse.setdefault(dest, set()).add(source)
        assert pool._sources_of == inverse
