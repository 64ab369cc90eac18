"""Query execution: cost-based planning, column selection, shaping.

The engine evaluates a :class:`repro.geodb.query.Query` against a
:class:`repro.geodb.database.GeographicDatabase`:

1. **Plan** — the :class:`~repro.geodb.planner.QueryPlanner` chooses,
   per class of the query's closure, the cheapest of R-tree scan, hash
   scan and full extent scan from the live catalog (extent length,
   bucket sizes, R-tree size and coverage). Mixed closures mix
   access paths; every per-class decision lands in the execution
   report.
2. **Select** — every class plan selects row positions of the class's
   version-stamped column set (:mod:`repro.geodb.columns`, patched past
   every commit). A full scan takes every row; an index or hash scan
   maps its probe's oids to rows through ``row_of`` and sorts them into
   extent order, reading the probe and the class version as one stable
   read, so the hits and the set come from one commit state. The
   predicate's fused column kernel
   (:meth:`~repro.geodb.query.Predicate.compile_columns`) then narrows
   the rows without touching a single :class:`GeoObject`; browse
   queries (``TruePredicate``) skip it.
3. **Shape** — ordering, limiting and projection/aggregation, in one
   shaper that reads columns (:meth:`QueryEngine.shape`).

Every selection reaches the shaper as a list of ``(columns, selected
row positions)`` parts, one per closure class, in extent order whatever
the plan. Scenario queries shape through the same entry over a
transient batch of their overlay candidates. A mixed closure shapes one
part per class: one sort on the total order ``(value is None, value,
oid)`` and one aggregate whose float sums are correctly rounded
(:func:`finalize_aggregate`). The engine always answers at the **latest
committed state** — MVCC snapshot readers and mid-transaction overlays
resolve through ``Transaction.query``/``read`` and never reach this
module.

The returned :class:`QueryResult` carries the rows plus an execution
report (overall plan, truthful per-class plan list, candidates
examined) used by the explanation interaction mode, the CLI ``query``
command and benchmarks C5/C11.
"""

from __future__ import annotations

import heapq
import math
from itertools import repeat
from typing import Any

from .. import obs
from ..errors import QueryError
from .database import GeographicDatabase
from .instances import GeoObject
from .planner import FULL_SCAN, INDEX_SCAN, ClassPlan, QueryPlanner
from .query import MISSING, Query, TruePredicate, compile_path
from .schema import GeoClass


def finalize_aggregate(op: str, values) -> Any:
    """One aggregate over the non-null values of a path, SQL-style.

    ``count`` counts the values; ``min``/``max``/``sum``/``avg`` yield
    ``None`` on empty input. A float sum is computed with
    :func:`math.fsum` — correctly rounded, so independent of the order
    the values arrive in (extent order, closure class order, a live
    watch's contribution map); integer sums stay plain ``sum`` and keep
    their type. The one statement of these rules for the engine's shaper
    and live-query recombination.
    """
    if op == "count":
        return len(values)
    if not values:
        return None
    if op == "min":
        return min(values)
    if op == "max":
        return max(values)
    total = sum(values)
    if isinstance(total, float):
        total = math.fsum(values)
    return total if op == "sum" else total / len(values)


class QueryResult:
    """Rows plus the execution report."""

    def __init__(self, query: Query, objects: list[GeoObject],
                 rows: list[dict[str, Any]] | None, report: dict[str, Any],
                 _oids: list[str] | None = None):
        self.query = query
        self.objects = objects
        #: projected rows when the query had a projection, else None
        self.rows = rows
        self.report = report
        self._oids = _oids

    def __len__(self) -> int:
        return len(self.objects)

    def __iter__(self):
        return iter(self.rows if self.rows is not None else self.objects)

    def oids(self) -> list[str]:
        """Matching oids, computed once per result.

        Results are shared immutable snapshots (the kernel result cache
        hands the same object to every hit) and live-query maintenance
        re-reads the oid set on every delta, so the list is cached on
        first call instead of rebuilt per call.
        """
        if self._oids is None:
            self._oids = [obj.oid for obj in self.objects]
        return self._oids

    def with_report(self, **extra: Any) -> "QueryResult":
        """A shallow view sharing objects/rows but owning its report.

        Cached results are shared, immutable objects; per-call metadata
        (cache hit/miss, live-maintenance provenance) must not be
        written into the shared report another caller already holds.
        """
        return QueryResult(self.query, self.objects, self.rows,
                           {**self.report, **extra}, _oids=self._oids)

    def explain(self) -> str:
        """Human-readable plan summary (explanation mode, §2.2)."""
        r = self.report
        lines = [
            f"query: {self.query.describe()}",
            f"plan: {r['plan']}",
            f"candidates examined: {r['candidates']}",
            f"matches: {r['matches']}",
        ]
        if r.get("index"):
            lines.insert(2, f"index: {r['index']}")
        for class_plan in r.get("plans", ()):
            detail = f"  {class_plan['class']}: {class_plan['plan']}"
            if class_plan.get("index"):
                detail += f" via {class_plan['index']}"
            detail += (f" (cost ~{class_plan['est_cost']}, "
                       f"rows ~{class_plan['est_rows']})")
            if class_plan.get("reason"):
                detail += f" — {class_plan['reason']}"
            lines.append(detail)
        if r.get("cache"):
            lines.append(f"cache: {r['cache']}")
        return "\n".join(lines)


class QueryEngine:
    """Executes queries against one database."""

    def __init__(self, database: GeographicDatabase):
        self.database = database
        self.planner = QueryPlanner(database)

    def execute(self, schema_name: str, query: Query) -> QueryResult:
        rec = obs.RECORDER
        if not rec.enabled:
            return self._execute(schema_name, query)
        with rec.timed("query.seconds"), \
                rec.span("query.execute", cls=query.class_name) as span:
            result = self._execute(schema_name, query)
            span.annotate(plan=result.report["plan"],
                          candidates=result.report["candidates"],
                          matches=result.report["matches"])
        rec.inc("query.executed", plan=result.report["plan"])
        for class_plan in result.report["plans"]:
            rec.inc("query.plan", choice=class_plan["plan"])
        rec.registry.histogram(
            "query.candidates", buckets=obs.COUNT_BUCKETS
        ).observe(result.report["candidates"])
        return result

    def _execute(self, schema_name: str, query: Query) -> QueryResult:
        db = self.database
        schema = db.get_schema_object(schema_name)
        geo_class = schema.get_class(query.class_name)
        planner = self.planner
        prefilter, equality = planner.prefilters(query)
        plans = [
            planner.plan_class(schema_name, class_name, prefilter, equality)
            for class_name in planner.class_closure(schema_name, query)
        ]
        parts: list[tuple] = []
        candidates = 0
        for class_plan in plans:
            part, examined = self._select(schema_name, class_plan, prefilter,
                                          equality, query, geo_class)
            parts.append(part)
            candidates += examined
        return self.shape(query, geo_class, parts,
                          self._report(plans, candidates))

    def _select(self, schema_name: str, class_plan: ClassPlan, prefilter,
                equality, query: Query, geo_class: GeoClass):
        """Run one class plan's selection as a shaping part.

        Returns ``((columns, selected row positions), candidates
        examined)``: the plan's candidate rows of the class's column
        set, narrowed by the predicate's column kernel.
        """
        class_name = class_plan.class_name
        if class_plan.kind == FULL_SCAN:
            columns = self.database.column_cache.for_class(schema_name,
                                                           class_name)
            rows: Any = range(columns.cardinality)
        else:
            columns, rows = self._probe_rows(schema_name, class_plan,
                                             prefilter, equality)
        if isinstance(query.where, TruePredicate):
            return (columns, rows), len(rows)
        kernel = query.where.compile_columns(geo_class, columns)
        return (columns, kernel(rows)), len(rows)

    def _probe_rows(self, schema_name: str, class_plan: ClassPlan,
                    prefilter, equality) -> tuple:
        """``(columns, rows)``: an index or hash probe's hits as sorted
        row positions of the class's column set.

        The probe and the class version are read as one stable read;
        if that version is not the set's, a commit landed between the
        two and the set is fetched again, so hits and rows always come
        from one commit state. Hits the set does not hold are skipped.
        """
        db = self.database
        class_name = class_plan.class_name
        if class_plan.kind == INDEX_SCAN:
            attr, box = prefilter
            rtree = db.spatial_index(schema_name, class_name, attr)

            def probe():
                return rtree.search(box)
        else:
            attr, values = equality
            index = db.attribute_index(schema_name, class_name, attr)

            def probe():
                return index.lookup_many(values)
        while True:
            columns = db.column_cache.for_class(schema_name, class_name)
            row_of = columns.row_of
            version, rows = db._read_stable(lambda: (
                db.class_version(schema_name, class_name),
                [row for oid in probe()
                 if (row := row_of.get(oid)) is not None]))
            if version == columns.version:
                rows.sort()
                return columns, rows

    @staticmethod
    def _report(plans, candidates: int) -> dict[str, Any]:
        """The execution report skeleton, truthful about mixed plans."""
        kinds = {class_plan.kind for class_plan in plans}
        overall = kinds.pop() if len(kinds) == 1 else "mixed"
        index_names = [class_plan.index for class_plan in plans
                       if class_plan.index]
        return {
            "plan": overall if plans else FULL_SCAN,
            "index": ", ".join(index_names) if index_names else None,
            "plans": [class_plan.describe() for class_plan in plans],
            "candidates": candidates,
            "matches": 0,
        }

    # -- shaping ---------------------------------------------------------------

    @staticmethod
    def _order_key(geo_class: GeoClass, query: Query):
        """The (key function, descending) pair for ``order_by``.

        The one statement of the result order: :meth:`_order_columns`
        decorates rows with exactly these key tuples, and live-query
        maintenance bisects on them.
        """
        path = query.order_by
        descending = path.startswith("-")
        if descending:
            path = path[1:]
        accessor = compile_path(path, geo_class)

        def key(obj: GeoObject):
            value = accessor(obj)
            if value is MISSING:
                value = None
            # None sorts last regardless of direction; the oid breaks
            # ties so the ordering is total — any partition of the
            # matches sorts back into the same sequence.
            return (value is None, value, obj.oid)

        return key, descending

    def shape(self, query: Query, geo_class: GeoClass, parts: list[tuple],
              report: dict[str, Any]) -> QueryResult:
        """Shape a selection straight from the columns — every route's
        one shaper.

        ``parts`` holds one ``(columns, selected row positions)`` pair
        per closure class, in plan order: cached column sets for engine
        plans, a transient batch for scenario queries. Ordering,
        aggregation and projection read value columns;
        objects are referenced only for the rows that survive selection
        (and limit, for ordered queries' projections).
        """
        if query.aggregates:
            rows = [self._aggregate_columns(parts, geo_class, query)]
            matches = [columns.objects[i]
                       for columns, selected in parts for i in selected]
            report["matches"] = len(matches)
            return QueryResult(query, matches, rows, report)
        if query.order_by:
            pairs = self._order_columns(parts, geo_class, query)
        else:
            pairs = [(columns, i)
                     for columns, selected in parts for i in selected]
            if query.limit is not None:
                pairs = pairs[: query.limit]
        matches = [columns.objects[i] for columns, i in pairs]
        rows = self._project_columns(pairs, geo_class, query)
        report["matches"] = len(matches)
        return QueryResult(query, matches, rows, report)

    def _order_columns(self, parts: list[tuple], geo_class: GeoClass,
                       query: Query) -> list[tuple]:
        """Sort selected ``(columns, row)`` pairs by the order column.

        The key tuples are exactly :meth:`_order_key`'s — ``(value is
        None, value, oid)`` with MISSING folded to None — and the oid
        tiebreak makes the ordering total, so sorting any partition of
        the matches (closure classes) yields one sequence. A ``limit``
        switches the full sort to a heap top-k (same total order, so
        the same prefix) and is applied before the pairs are rebuilt.
        """
        path = query.order_by
        descending = path.startswith("-")
        if descending:
            path = path[1:]
        # Decorated flat tuples sorted without a key function: oids are
        # unique, so the trailing (part, row) fields never reach the
        # comparison — they only carry the payload through the sort.
        keyed = []
        for part, (columns, selected) in enumerate(parts):
            column = columns.path_column(path, geo_class)
            oids = columns.oids
            if len(selected) == columns.cardinality and not any(
                    v is None or v is MISSING for v in column):
                # Unfiltered scan, no null keys: decorate at C speed.
                keyed.extend(zip(repeat(False), column, oids,
                                 repeat(part), range(len(column))))
                continue
            append = keyed.append
            for i in selected:
                value = column[i]
                if value is MISSING or value is None:
                    append((True, None, oids[i], part, i))
                else:
                    append((False, value, oids[i], part, i))
        limit = query.limit
        try:
            if limit is not None and 0 <= limit < len(keyed):
                keyed = (heapq.nlargest if descending else
                         heapq.nsmallest)(limit, keyed)
            else:
                keyed.sort(reverse=descending)
        except TypeError as exc:
            raise QueryError(
                f"order by {query.order_by!r}: values are not comparable ({exc})"
            ) from exc
        part_columns = [columns for columns, __ in parts]
        return [(part_columns[entry[3]], entry[4]) for entry in keyed]

    def _aggregate_columns(self, parts: list[tuple], geo_class: GeoClass,
                           query: Query) -> dict[str, Any]:
        """One row of aggregates over the selection's value columns.

        ``count(*)`` counts selected rows; every other aggregate reads
        the path's non-null, resolvable values through
        :func:`finalize_aggregate`.
        """
        row: dict[str, Any] = {}
        #: path -> non-null value list, shared across aggregate ops
        #: (min/max/avg over one path scan the column once, not thrice)
        values_by_path: dict[str, list] = {}
        for op, path in query.aggregates or ():
            label = f"{op}({path or '*'})"
            if op == "count" and path is None:
                row[label] = sum(len(selected) for __, selected in parts)
                continue
            values = values_by_path.get(path)
            if values is None:
                values = values_by_path[path] = []
                for columns, selected in parts:
                    column = columns.path_column(path, geo_class)
                    values.extend(
                        v for i in selected
                        if (v := column[i]) is not MISSING and v is not None)
            row[label] = finalize_aggregate(op, values)
        return row

    def _project_columns(self, pairs: list[tuple], geo_class: GeoClass,
                         query: Query) -> list[dict[str, Any]] | None:
        """Projected rows for the surviving (post-limit) pairs: the oid
        plus each projected path, ``None`` where a path is missing. A
        projected ``oid`` is the object's oid, never an attribute."""
        if query.projection is None:
            return None
        paths = [path for path in query.projection if path != "oid"]
        #: id(columns) -> (oid column, [(path, value column)])
        resolved: dict[int, tuple] = {}
        rows = []
        for columns, i in pairs:
            entry = resolved.get(id(columns))
            if entry is None:
                entry = (columns.oids,
                         [(path, columns.path_column(path, geo_class))
                          for path in paths])
                resolved[id(columns)] = entry
            oids, path_columns = entry
            row: dict[str, Any] = {"oid": oids[i]}
            for path, column in path_columns:
                value = column[i]
                row[path] = None if value is MISSING else value
            rows.append(row)
        return rows
