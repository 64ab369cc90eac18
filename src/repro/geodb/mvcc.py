"""Multi-version concurrency control: per-oid version chains.

The geodb promises each :class:`~repro.geodb.transactions.Transaction` a
*consistent snapshot*: every read inside the transaction observes the
database exactly as it stood at the transaction's begin, no matter what
other transactions commit meanwhile. This module supplies the storage
side of that promise — a :class:`VersionStore` mapping oids to *version
chains*, each version stamped with the commit timestamp that produced
it.

Design notes
------------
* Versions are only materialized for objects that have actually been
  written since the process started (or since the last garbage
  collection). An oid without a chain is *stable*: its current committed
  state is the answer for every live snapshot, so reads fall through to
  the extent. This keeps snapshot reads on untouched data at pointer-
  chase cost and bounds memory by write traffic, not database size.
* A version with ``values=None`` is a **tombstone** — the object was
  deleted at that timestamp.
* Garbage collection runs at a *watermark* (the oldest snapshot still
  live). Any chain whose newest version is at or below the watermark is
  dropped entirely (the extent fallback gives the same answer); chains
  with newer versions keep exactly one base version at or below the
  watermark.
* Readers are **lock-free** while commits and GC run under the
  database's commit lock, so every chain mutation here must be safe
  against a concurrent reader holding a reference to the chain list:
  chains are installed fully built (never empty), same-timestamp
  rewrites replace ``chain[-1]`` in place instead of pop-then-append,
  and GC publishes a trimmed *copy* rather than deleting slices out of
  a list a reader may be iterating.
"""

from __future__ import annotations

from typing import Any


class Version:
    """One committed state of one object."""

    __slots__ = ("ts", "values", "schema_name", "class_name")

    def __init__(self, ts: int, values: dict[str, Any] | None,
                 schema_name: str, class_name: str):
        self.ts = ts
        #: attribute values at ``ts``; ``None`` marks a tombstone (deleted)
        self.values = values
        self.schema_name = schema_name
        self.class_name = class_name

    @property
    def is_tombstone(self) -> bool:
        return self.values is None

    def __repr__(self) -> str:
        state = "tombstone" if self.is_tombstone else f"{len(self.values)} values"
        return f"<Version ts={self.ts} {state}>"


class _Unknown:
    """Sentinel: the store holds no history for the oid (fall through)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - repr only
        return "<UNKNOWN>"


class VersionStore:
    """Per-oid version chains, ordered by commit timestamp (ascending)."""

    #: returned by :meth:`visible` when no chain exists for the oid; the
    #: caller resolves the read against the current committed state.
    UNKNOWN = _Unknown()

    def __init__(self) -> None:
        self._chains: dict[str, list[Version]] = {}
        #: (schema, class) -> oids with at least one version of that class
        self._by_class: dict[tuple[str, str], set[str]] = {}
        self._version_count = 0

    # -- recording -------------------------------------------------------------

    def seed_base(self, oid: str, values: dict[str, Any] | None,
                  schema_name: str, class_name: str) -> None:
        """Install a timestamp-0 pre-image for a previously unversioned oid.

        Called *before* a commit's first versioned write of a chain-less
        oid mutates the extents, so concurrent snapshot readers resolve
        through the chain instead of the mid-mutation extent. ``values``
        is the pre-commit state: the existing object's attributes, or
        ``None`` (a base tombstone) when the commit is inserting an oid
        that did not exist — older snapshots must keep reading "absent".
        """
        if oid in self._chains:
            return
        self._append(
            oid,
            Version(0, None if values is None else dict(values),
                    schema_name, class_name),
        )

    def record(self, oid: str, ts: int, values: dict[str, Any] | None,
               schema_name: str, class_name: str) -> None:
        """Append the state of ``oid`` as of commit timestamp ``ts``."""
        chain = self._chains.get(oid)
        version = Version(ts, None if values is None else dict(values),
                          schema_name, class_name)
        if chain and chain[-1].ts == ts:
            # One transaction may touch an oid several times; the final
            # state per commit wins. Replace in place — a pop would
            # momentarily shrink the list under a lock-free reader's
            # reverse iterator, which could then miss older versions.
            chain[-1] = version
            self._by_class.setdefault(
                (schema_name, class_name), set()
            ).add(oid)
            return
        self._append(oid, version)

    def _append(self, oid: str, version: Version) -> None:
        chain = self._chains.get(oid)
        if chain is None:
            # Install fully built: a reader must never observe an empty
            # chain (it would read as "object did not exist at ts").
            self._chains[oid] = [version]
        else:
            chain.append(version)
        self._by_class.setdefault(
            (version.schema_name, version.class_name), set()
        ).add(oid)
        self._version_count += 1

    # -- reading ---------------------------------------------------------------

    def visible(self, oid: str, ts: int) -> Version | _Unknown | None:
        """The version of ``oid`` a snapshot at ``ts`` observes.

        Returns :data:`UNKNOWN` when no history exists (caller falls
        through to the live extent), ``None`` when the chain proves the
        object did not exist at ``ts`` (created later), or the newest
        :class:`Version` with ``version.ts <= ts`` (possibly a
        tombstone).
        """
        chain = self._chains.get(oid)
        if chain is None:
            return self.UNKNOWN
        for version in reversed(chain):
            if version.ts <= ts:
                return version
        return None

    def has_chain(self, oid: str) -> bool:
        return oid in self._chains

    def class_oids(self, schema_name: str, class_name: str) -> set[str]:
        """Oids holding any version of the given class (for snapshot scans)."""
        return set(self._by_class.get((schema_name, class_name), ()))

    # -- garbage collection -----------------------------------------------------

    def gc(self, watermark: int) -> int:
        """Drop versions no live snapshot can observe; returns the count.

        ``watermark`` is the oldest snapshot timestamp still live (or the
        current commit timestamp when no snapshot is open). A chain whose
        newest version is ``<= watermark`` matches the live extent and is
        removed wholesale; otherwise everything below the newest
        at-or-below-watermark version goes.
        """
        reclaimed = 0
        for oid in list(self._chains):
            chain = self._chains[oid]
            if chain[-1].ts <= watermark:
                reclaimed += len(chain)
                self._drop_chain(oid, chain)
                continue
            keep_from = 0
            for index in range(len(chain) - 1, -1, -1):
                if chain[index].ts <= watermark:
                    keep_from = index
                    break
            if keep_from:
                removed = chain[:keep_from]
                # Publish a trimmed copy instead of deleting in place: a
                # lock-free reader still iterating the old list keeps a
                # consistent (if stale-but-visible) chain.
                remaining = chain[keep_from:]
                self._chains[oid] = remaining
                reclaimed += len(removed)
                self._version_count -= len(removed)
                self._unindex(oid, removed, remaining)
        return reclaimed

    def _drop_chain(self, oid: str, chain: list[Version]) -> None:
        self._version_count -= len(chain)
        del self._chains[oid]
        self._unindex(oid, chain, [])

    def _unindex(self, oid: str, removed: list[Version],
                 remaining: list[Version]) -> None:
        still = {(v.schema_name, v.class_name) for v in remaining}
        for version in removed:
            key = (version.schema_name, version.class_name)
            if key in still:
                continue
            oids = self._by_class.get(key)
            if oids is not None:
                oids.discard(oid)
                if not oids:
                    del self._by_class[key]

    # -- introspection ---------------------------------------------------------

    @property
    def total_versions(self) -> int:
        return self._version_count

    def chain_length(self, oid: str) -> int:
        return len(self._chains.get(oid, ()))

    def stats(self) -> dict[str, Any]:
        return {
            "chains": len(self._chains),
            "versions": self._version_count,
            # list(): commits add chains while a status read iterates
            "tombstones": sum(
                1 for chain in list(self._chains.values())
                for v in chain if v.is_tombstone
            ),
        }

    def __repr__(self) -> str:
        return (f"VersionStore(chains={len(self._chains)}, "
                f"versions={self._version_count})")
