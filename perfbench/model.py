"""The correctness gate's reference model.

The benchmark keeps its own ``dict`` of the records it expects the
database to hold, built only from the records it loaded, the operations it
issued and the results those operations returned.  At the end of every
run the database must validate structurally and its record set must
digest to the same value as the model.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

from repro.errors import TreeInvariantError


def digest(pairs: Iterable[tuple[int, str]]) -> str:
    """Order-sensitive md5 over ``(key, payload)`` pairs in key order."""
    h = hashlib.md5()
    for key, payload in pairs:
        h.update(f"{key}:{payload};".encode())
    return h.hexdigest()


class Model:
    """Expected contents of the database, plus every mismatch seen."""

    def __init__(self, records: dict[int, str]):
        self.records = dict(records)
        #: The model's keys in order, for range scans.
        self.keys = sorted(self.records)
        self.mismatches: list[str] = []

    def _fail(self, message: str) -> None:
        # Keep the report short; the count is what the gate needs.
        if len(self.mismatches) < 20:
            self.mismatches.append(message)
        else:
            self.mismatches[-1] = f"... and more (last: {message})"

    # -- checking one operation's result, then applying its effect ---------

    def check_read(self, key: int, found) -> None:
        expected = self.records.get(key)
        got = None if found is None else found.payload
        if found is not None and found.key != key:
            self._fail(f"read {key} returned record {found.key}")
        elif got != expected:
            self._fail(f"read {key}: got {got!r}, model has {expected!r}")

    def check_scan(self, low: int, high: int, records) -> None:
        got = [(r.key, r.payload) for r in records]
        keys = self.keys[
            bisect.bisect_left(self.keys, low) : bisect.bisect_right(self.keys, high)
        ]
        expected = [(k, self.records[k]) for k in keys]
        if got != expected:
            self._fail(
                f"scan [{low}, {high}]: got {len(got)} records, model has "
                f"{len(expected)}"
            )

    def apply_insert(self, key: int, payload: str, applied: bool) -> None:
        present = key in self.records
        if applied == present:
            self._fail(
                f"insert {key} returned {applied} but the model "
                f"{'has' if present else 'lacks'} the key"
            )
        if applied and not present:
            bisect.insort(self.keys, key)
        if applied:
            self.records[key] = payload

    def apply_delete(self, key: int, applied: bool) -> None:
        present = key in self.records
        if applied != present:
            self._fail(
                f"delete {key} returned {applied} but the model "
                f"{'has' if present else 'lacks'} the key"
            )
        if applied and present:
            del self.records[key]
            del self.keys[bisect.bisect_left(self.keys, key)]

    # -- the end-of-run gate ------------------------------------------------

    def digest(self) -> str:
        return digest(sorted(self.records.items()))

    def gate(self, trees) -> list[str]:
        """Validate every tree and compare the record-set digest.

        Returns the list of problems (empty when the gate passes).
        """
        problems = list(self.mismatches)
        pairs: list[tuple[int, str]] = []
        for tree in trees:
            try:
                tree.validate()
            except TreeInvariantError as exc:
                problems.append(f"validate({tree.name}): {exc}")
            pairs.extend((r.key, r.payload) for r in tree.items())
        if digest(pairs) != self.digest():
            problems.append(
                f"record-set digest differs: database holds {len(pairs)} "
                f"records, model {len(self.records)}"
            )
        return problems
