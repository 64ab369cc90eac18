"""Attribute (hash) indexes for equality predicates.

The spatial R-trees accelerate the map-display path; analysis-mode
queries also filter on conventional attributes (``pole_type = 1``,
``status = 'maintenance'``). A :class:`HashIndex` maps attribute values
to oid sets and is maintained by the database on every commit; the query
engine consults it for top-level (or conjunctive) ``=`` / ``in``
predicates.

Only hashable scalar values are indexed; ``None`` (attribute unset) is
not an index key — equality with ``None`` falls back to scanning, which
matches the predicate semantics (absent attributes never match ``=``).
"""

from __future__ import annotations

from typing import Any, Iterable

from ..errors import IndexError_


def _indexable(value: Any) -> bool:
    return isinstance(value, (int, float, str, bool)) and value is not None


#: Shared empty bucket returned by :meth:`HashIndex.lookup_view` misses;
#: frozen so an accidental mutation raises instead of corrupting state.
_EMPTY_BUCKET: frozenset = frozenset()


class HashIndex:
    """value -> set of oids, for one attribute of one class."""

    def __init__(self, attr: str):
        self.attr = attr
        self._buckets: dict[Any, set[str]] = {}
        self._size = 0

    def insert(self, value: Any, oid: str) -> None:
        if not _indexable(value):
            return
        bucket = self._buckets.setdefault(value, set())
        if oid in bucket:
            raise IndexError_(
                f"oid {oid} already indexed under {self.attr}={value!r}"
            )
        bucket.add(oid)
        self._size += 1

    def delete(self, value: Any, oid: str) -> None:
        if not _indexable(value):
            return
        bucket = self._buckets.get(value)
        if bucket is None or oid not in bucket:
            raise IndexError_(
                f"oid {oid} not indexed under {self.attr}={value!r}"
            )
        bucket.discard(oid)
        if not bucket:
            del self._buckets[value]
        self._size -= 1

    def clear(self) -> None:
        """Drop every entry; the index object stays the same."""
        self._buckets.clear()
        self._size = 0

    def lookup(self, value: Any) -> set[str]:
        """A **copy** of the bucket for ``value`` (safe to mutate)."""
        if not _indexable(value):
            return set()
        return set(self._buckets.get(value, ()))

    def lookup_view(self, value: Any) -> "frozenset[str] | set[str]":
        """The bucket for ``value`` without copying it.

        This is the executor's path: the query engine iterates the
        bucket once per probe and materializing a per-call copy showed
        up in the C11 profile. The returned object is the index's
        **live internal set** (or a shared empty frozenset) — callers
        must not mutate it and must not hold it across index mutations;
        external code should use :meth:`lookup` instead.
        """
        if not _indexable(value):
            return _EMPTY_BUCKET
        return self._buckets.get(value, _EMPTY_BUCKET)

    def lookup_many(self, values: Iterable[Any]) -> set[str]:
        out: set[str] = set()
        for value in values:
            out |= self.lookup_view(value)
        return out

    def __len__(self) -> int:
        return self._size

    def distinct_values(self) -> int:
        return len(self._buckets)

    def stats(self) -> dict[str, Any]:
        sizes = [len(b) for b in self._buckets.values()]
        return {
            "attr": self.attr,
            "entries": self._size,
            "distinct_values": len(sizes),
            "max_bucket": max(sizes) if sizes else 0,
        }
