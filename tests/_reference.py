"""A naive reference evaluator for :class:`repro.geodb.query.Query`.

Plain Python over the class extents, sharing no code with the query
engine, so it can judge every engine route (columnar, row, mixed
closure):

* filter with the interpreted ``Predicate.matches``;
* order with ``sorted`` on ``(value is None, value, oid)`` plus
  ``reverse`` for descending, then apply the limit;
* aggregate with plain ``min``/``max``/``sum`` and the SQL empty-input
  rules (``count`` 0, everything else ``None``), summing floats with
  :func:`math.fsum`;
* project ``{"oid": ..., path: value}`` with ``None`` for a path that
  does not resolve; a projected ``oid`` is the object's oid.
"""

from __future__ import annotations

import math
from typing import Any

_ABSENT = object()


def resolve(obj, geo_class, path: str) -> Any:
    """A (possibly dotted) path's value, or ``_ABSENT``."""
    head, __, rest = path.partition(".")
    value = obj.get(head, geo_class)
    for field in rest.split(".") if rest else ():
        if not isinstance(value, dict) or field not in value:
            return _ABSENT
        value = value[field]
    return value


def aggregate(op: str, values: list) -> Any:
    if op == "count":
        return len(values)
    if not values:
        return None
    if op == "min":
        return min(values)
    if op == "max":
        return max(values)
    if any(isinstance(value, float) for value in values):
        total = math.fsum(values)
    else:
        total = sum(values)
    return total if op == "sum" else total / len(values)


def evaluate(db, schema_name: str, query) -> tuple[list, list | None]:
    """``(matching objects, rows)`` as the engine must answer ``query``.

    Objects of an unordered result come in extent order; callers
    compare them as a set, since the engine's order then depends on the
    plan (extent order, closure class order).
    """
    schema = db.get_schema_object(schema_name)
    geo_class = schema.get_class(query.class_name)
    names, pending = [], [query.class_name]
    while pending:
        name = pending.pop()
        names.append(name)
        if query.include_subclasses:
            pending.extend(schema.subclasses(name))
    matches = [obj for name in names for obj in db.extent(schema_name, name)
               if query.where.matches(obj, geo_class)]

    if query.aggregates:
        row = {}
        for op, path in query.aggregates:
            if path is None:
                values = matches
            else:
                values = [value for obj in matches
                          if (value := resolve(obj, geo_class, path))
                          is not _ABSENT and value is not None]
            row[f"{op}({path or '*'})"] = aggregate(op, values)
        return matches, [row]

    if query.order_by:
        path = query.order_by.lstrip("-")

        def key(obj):
            value = resolve(obj, geo_class, path)
            if value is _ABSENT:
                value = None
            return (value is None, value, obj.oid)

        matches = sorted(matches, key=key,
                         reverse=query.order_by.startswith("-"))
    if query.limit is not None:
        matches = matches[: query.limit]
    if query.projection is None:
        return matches, None
    rows = []
    for obj in matches:
        row = {"oid": obj.oid}
        for path in query.projection:
            if path == "oid":
                continue
            value = resolve(obj, geo_class, path)
            row[path] = None if value is _ABSENT else value
        rows.append(row)
    return matches, rows
