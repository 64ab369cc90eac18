"""Query execution: cost-based planning, refine, shaping.

The engine evaluates a :class:`repro.geodb.query.Query` against a
:class:`repro.geodb.database.GeographicDatabase`:

1. **Plan** — the :class:`~repro.geodb.planner.QueryPlanner` chooses,
   per class of the query's closure, the cheapest of R-tree scan, hash
   scan and full extent scan from the live catalog (extent length,
   bucket sizes, R-tree size and coverage). Mixed closures mix
   access paths; every per-class decision lands in the execution
   report.
2. **Refine** — one evaluator per access shape: a column kernel over a
   snapshot, :meth:`~repro.geodb.query.Predicate.matches` over objects
   (candidates are batch-fetched from their class extent, not resolved
   oid-by-oid). Browse queries (``TruePredicate``) skip the refine
   entirely.
3. **Shape** — ordering, limiting and projection/aggregation, in one
   shaper that reads columns (:meth:`QueryEngine._shape_columns`).

Every selection reaches the shaper as a list of ``(columns, selected
row positions)`` parts, one per closure class. Full and hash scans
select **columnar** over the class's version-stamped column snapshot
(:mod:`repro.geodb.columns`, patched past every commit; a build that
meets an applying commit waits for it): the predicate compiles to a
fused column kernel (:meth:`~repro.geodb.query.Predicate.compile_columns`)
that selects row positions without touching a single :class:`GeoObject`.
Everything else — index scans (whose candidates come from the R-tree),
an engine built with ``use_columns=False`` and
:meth:`QueryEngine.shape_rows` callers — refines object by object with
``matches`` and wraps the matches in a transient, unversioned column
batch, so one set of ordering, aggregate and projection rules answers
every route. A mixed closure shapes one part per class: one sort on the
total order ``(value is None, value, oid)`` and one aggregate whose
float sums are correctly rounded (:func:`finalize_aggregate`). The
per-class plan report records which selection ran (``columns:
true/false`` plus a reason). The engine always answers at the **latest committed state** —
MVCC snapshot readers and mid-transaction overlays resolve through
``Transaction.query``/``read`` and never reach this module.

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
from .columns import ClassColumns
from .database import GeographicDatabase
from .instances import GeoObject
from .planner import FULL_SCAN, HASH_SCAN, INDEX_SCAN, ClassPlan, QueryPlanner
from .query import MISSING, Predicate, Query, TruePredicate, compile_path
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


def _refine(objects: list, where: Predicate, geo_class: GeoClass) -> list:
    """The candidates ``where`` matches, one ``matches`` call each
    (the candidate list itself for a browse query)."""
    if isinstance(where, TruePredicate):
        return objects
    matches = where.matches
    return [obj for obj in objects if matches(obj, geo_class)]


def _row_part(matches: list) -> tuple:
    """Refined objects as a shaping part.

    The matches are wrapped in a transient, unversioned column batch
    (never cached) that selects every row, so the row routes shape
    through the same code as column snapshots.
    """
    return ClassColumns("", "", -1, matches), range(len(matches))


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
            if "columns" in class_plan:
                if class_plan["columns"]:
                    detail += " [columns]"
                elif class_plan.get("columns_reason"):
                    detail += f" [rows: {class_plan['columns_reason']}]"
                else:
                    detail += " [rows]"
            lines.append(detail)
        if r.get("cache"):
            lines.append(f"cache: {r['cache']}")
        return "\n".join(lines)


class QueryEngine:
    """Executes queries against one database."""

    def __init__(self, database: GeographicDatabase,
                 use_columns: bool = True):
        self.database = database
        self.planner = QueryPlanner(database)
        #: columnar execution switch — False forces the row path on
        #: every scan (benchmark baselines, equivalence tests)
        self.use_columns = use_columns

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
        return self._shape_columns(query, geo_class, parts,
                                   self._report(plans, candidates))

    def _select(self, schema_name: str, class_plan: ClassPlan, prefilter,
                equality, query: Query, geo_class: GeoClass):
        """Run one class plan's selection as a shaping part.

        Returns ``((columns, selected row positions), candidates
        examined)``. Full and hash scans select over the class's column
        snapshot; index scans, and every scan of an engine built with
        ``use_columns=False``, refine the planned candidates with
        ``matches`` into a transient batch — ``class_plan.columns``/
        ``columns_reason`` always end up describing what actually
        happened.
        """
        if class_plan.columns and not self.use_columns:
            class_plan.columns = False
            class_plan.columns_reason = "columns disabled"
            if obs.RECORDER.enabled:
                obs.RECORDER.inc("query.columns.fallback", reason="disabled")
        if not class_plan.columns:
            objects = self._class_candidates(schema_name, class_plan,
                                             prefilter, equality)
            return (_row_part(_refine(objects, query.where, geo_class)),
                    len(objects))
        columns = self.database.column_cache.for_class(
            schema_name, class_plan.class_name)
        if class_plan.kind == HASH_SCAN:
            # Same candidate order as the row path: sorted oids, absent
            # members skipped.
            row_of = columns.row_of
            rows: Any = [row for oid in self._hash_oids(
                             schema_name, class_plan.class_name, equality)
                         if (row := row_of.get(oid)) is not None]
        else:
            rows = range(columns.cardinality)
        if isinstance(query.where, TruePredicate):
            return (columns, rows), len(rows)
        kernel = query.where.compile_columns(geo_class, columns)
        return (columns, kernel(rows)), len(rows)

    def _hash_oids(self, schema_name: str, class_name: str,
                   equality) -> list[str]:
        """A hash scan's candidate oids, sorted."""
        attr, values = equality
        index = self.database.attribute_index(schema_name, class_name, attr)
        if len(values) == 1:
            return sorted(index.lookup_view(values[0]))
        return sorted(index.lookup_many(values))

    def _class_candidates(self, schema_name: str, class_plan: ClassPlan,
                          prefilter, equality):
        """Candidates for one class via its planned access path, as a
        fresh list (a full scan snapshots the extent under the seqlock,
        so concurrent commits cannot resize it mid-refine)."""
        db = self.database
        class_name = class_plan.class_name
        if class_plan.kind == INDEX_SCAN:
            attr, box = prefilter
            index = db.spatial_index(schema_name, class_name, attr)
            return db.fetch_objects(schema_name, class_name,
                                    index.search(box))
        if class_plan.kind == HASH_SCAN:
            return db.fetch_objects(
                schema_name, class_name,
                self._hash_oids(schema_name, class_name, equality))
        extent = db.extent(schema_name, class_name)
        return db._read_stable(lambda: list(extent))

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

    def shape_rows(self, query: Query, geo_class: GeoClass,
                   matches: list[GeoObject],
                   report: dict[str, Any]) -> QueryResult:
        """The result of an already-filtered match list: one aggregate
        row, or the ordered, limited and projected matches."""
        return self._shape_columns(query, geo_class,
                                   [_row_part(list(matches))], report)

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

    def _shape_columns(self, query: Query, geo_class: GeoClass,
                       parts: list[tuple], report: dict[str, Any]
                       ) -> QueryResult:
        """Shape a selection straight from the columns — every route's
        one shaper.

        ``parts`` holds one ``(columns, selected row positions)`` pair
        per closure class, in plan order: column snapshots for
        columnar selections, transient batches for row-refined ones.
        Ordering, aggregation and projection read value columns;
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
