"""Scenario sandboxes for the *simulation* interaction mode.

§2.2: "Other common interaction modes include simulation, where users
build scenarios to test their hypotheses." A :class:`Scenario` is a
hypothetical overlay on a database: updates applied inside it are visible
to scenario reads and scenario queries, but the underlying database is
untouched until (and unless) the scenario is committed.

Implementation: the scenario keeps an overlay of staged object states
(the same values-dict model transactions use) and answers reads by
merging overlay over base. Committing replays the staged operations as
one real transaction (so integrity rules and events fire normally);
discarding simply drops the overlay.

Example::

    with db.scenario() as what_if:
        what_if.update(pole, {"pole_location": Point(500, 500)})
        hits = what_if.run_query("phone_net",
            "select * from Pole where within(pole_location, bbox(...))")
        ...  # inspect the hypothetical world
        what_if.discard()       # or what_if.commit()
"""

from __future__ import annotations

from typing import Any, Iterator

from ..errors import ObjectNotFoundError, SessionError
from .columns import ClassColumns
from .instances import GeoObject, fresh_oid
from .query import Query
from .query_engine import QueryEngine, QueryResult


class Scenario:
    """A hypothetical, discardable view over a database schema's data."""

    def __init__(self, database, schema_name: str):
        self.database = database
        self.schema_name = schema_name
        self.database.get_schema_object(schema_name)  # fail fast
        #: oid -> staged values dict, or None for hypothetically deleted
        self._overlay: dict[str, dict[str, Any] | None] = {}
        #: (op, class_name, oid, values) replay log for commit
        self._log: list[tuple[str, str, str, dict[str, Any] | None]] = []
        self._closed = False

    # -- guards ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise SessionError("this scenario is already closed")

    # -- hypothetical mutations -----------------------------------------------------

    def insert(self, class_name: str, values: dict[str, Any],
               oid: str | None = None) -> str:
        self._require_open()
        schema = self.database.get_schema_object(self.schema_name)
        GeoObject.create(schema, class_name, values, oid="staged#0")
        new_oid = oid or fresh_oid(class_name)
        if self.exists(new_oid):
            raise SessionError(f"oid {new_oid} already exists in scenario")
        self._overlay[new_oid] = dict(values)
        self._log.append(("insert", class_name, new_oid, dict(values)))
        return new_oid

    def update(self, oid: str, changes: dict[str, Any]) -> None:
        self._require_open()
        current = self.values_of(oid)
        if current is None:
            raise ObjectNotFoundError(f"object {oid} does not exist "
                                      f"in this scenario")
        class_name = self._class_of(oid)
        schema = self.database.get_schema_object(self.schema_name)
        probe = GeoObject(oid, class_name, current)
        probe.update(schema, changes)   # validate types/required
        self._overlay[oid] = probe.values()
        self._log.append(("update", class_name, oid, dict(changes)))

    def delete(self, oid: str) -> None:
        self._require_open()
        if not self.exists(oid):
            raise ObjectNotFoundError(f"object {oid} does not exist "
                                      f"in this scenario")
        class_name = self._class_of(oid)
        self._overlay[oid] = None
        self._log.append(("delete", class_name, oid, None))

    # -- hypothetical reads ------------------------------------------------------------

    def _class_of(self, oid: str) -> str:
        location = self.database.locate_object(oid)
        if location is not None:
            return location[1]
        for op, class_name, logged_oid, __ in self._log:
            if logged_oid == oid and op == "insert":
                return class_name
        raise ObjectNotFoundError(f"object {oid} is unknown to the scenario")

    def exists(self, oid: str) -> bool:
        if oid in self._overlay:
            return self._overlay[oid] is not None
        return self.database.find_object(oid) is not None

    def values_of(self, oid: str) -> dict[str, Any] | None:
        """Attribute values in the hypothetical world (None if absent)."""
        if oid in self._overlay:
            staged = self._overlay[oid]
            return dict(staged) if staged is not None else None
        obj = self.database.find_object(oid)
        return obj.values() if obj is not None else None

    def get_object(self, oid: str) -> GeoObject:
        values = self.values_of(oid)
        if values is None:
            raise ObjectNotFoundError(f"object {oid} does not exist "
                                      f"in this scenario")
        return GeoObject(oid, self._class_of(oid), values)

    def extent(self, class_name: str) -> Iterator[GeoObject]:
        """The class extension as the hypothetical world sees it."""
        self._require_open()
        seen: set[str] = set()
        extent = self.database.extent(self.schema_name, class_name)
        for obj in self.database._read_stable(lambda: list(extent)):
            seen.add(obj.oid)
            staged = self._overlay.get(obj.oid, "absent")
            if staged is None:
                continue  # hypothetically deleted
            if staged == "absent":
                yield obj
            else:
                yield GeoObject(obj.oid, class_name, staged)
        for oid, staged in self._overlay.items():
            if oid in seen or staged is None:
                continue
            if self._class_of(oid) == class_name:
                yield GeoObject(oid, class_name, staged)

    def execute(self, query: Query) -> QueryResult:
        """Run a declarative query against the hypothetical extension.

        Always a full scan over the scenario view (the base indexes do not
        know about the overlay): the candidates of every closure class
        form one transient column batch, which the query's column kernel
        selects and the engine's shaper shapes, as for any engine plan.
        """
        self._require_open()
        engine = QueryEngine(self.database)
        schema = self.database.get_schema_object(self.schema_name)
        geo_class = schema.get_class(query.class_name)
        candidates = [obj for name in engine.planner.class_closure(
                          self.schema_name, query)
                      for obj in self.extent(name)]
        batch = ClassColumns.transient(candidates)
        rows = query.where.compile_columns(geo_class, batch)(
            range(len(candidates)))
        report = {"plan": "scenario-scan", "index": None,
                  "candidates": len(candidates)}
        return engine.shape(query, geo_class, [(batch, rows)], report)

    def run_query(self, text: str) -> QueryResult:
        """Textual analysis query evaluated in the hypothetical world."""
        from .query_language import parse_query

        return self.execute(parse_query(text))

    # -- resolution ---------------------------------------------------------------------

    def commit(self) -> int:
        """Make the hypothesis real: replay the log as one transaction.

        Integrity rules and events fire as for any other transaction; a
        veto aborts the whole scenario application. Returns the number of
        operations applied.
        """
        self._require_open()
        with self.database.transaction() as txn:
            for op, __, oid, values in self._log:
                if op == "insert":
                    txn.insert(self.schema_name, self._class_of(oid),
                               values or {}, oid=oid)
                elif op == "update":
                    txn.update(oid, values or {})
                else:
                    txn.delete(oid)
        applied = len(self._log)
        self._closed = True
        return applied

    def discard(self) -> None:
        """Drop the hypothesis; the database was never touched."""
        self._require_open()
        self._overlay.clear()
        self._log.clear()
        self._closed = True

    @property
    def pending_operations(self) -> int:
        return len(self._log)

    def __enter__(self) -> "Scenario":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._closed:
            self.discard()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"<Scenario on {self.schema_name!r}, "
                f"{len(self._log)} ops, {state}>")
