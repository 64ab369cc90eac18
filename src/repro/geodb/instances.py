"""Instances (geo-objects) of database classes.

A :class:`GeoObject` carries an object id, its class name, and a value per
attribute. Objects validate against their class definition on creation and
on every update; the Instance window of the interface displays one panel
per attribute of the effective (inherited + own) attribute list.
"""

from __future__ import annotations

import itertools
from typing import Any

from ..errors import SchemaError, TypeMismatchError
from ..spatial.geometry import BBox, Geometry
from .schema import Attribute, GeoClass, Schema

_oid_counter = itertools.count(1)


def fresh_oid(class_name: str) -> str:
    """Generate a readable, unique object id like ``Pole#42``."""
    return f"{class_name}#{next(_oid_counter)}"


def ensure_oid_counter_above(value: int) -> None:
    """Advance the oid counter past ``value``.

    Called when loading persisted objects so freshly generated oids never
    collide with restored ones.
    """
    global _oid_counter
    current = next(_oid_counter)
    _oid_counter = itertools.count(max(current, value + 1))


class GeoObject:
    """One database instance.

    Values are kept in a plain dict keyed by attribute name. Unset optional
    attributes are simply absent; reads through :meth:`get` fall back to the
    type's neutral default so display code never sees ``KeyError``.
    """

    __slots__ = ("oid", "class_name", "_values", "version")

    def __init__(self, oid: str, class_name: str, values: dict[str, Any]):
        self.oid = oid
        self.class_name = class_name
        self._values = dict(values)
        #: bumped on every update; lets displays detect staleness.
        self.version = 0

    # -- validation -----------------------------------------------------------

    @classmethod
    def create(
        cls,
        schema: Schema,
        class_name: str,
        values: dict[str, Any],
        oid: str | None = None,
    ) -> "GeoObject":
        """Build and validate an instance of ``class_name``."""
        attrs = schema.effective_attributes(class_name)
        obj = cls(oid or fresh_oid(class_name), class_name, {})
        obj._validate_and_set(attrs, values, require_required=True)
        return obj

    def _validate_and_set(
        self,
        attrs: list[Attribute],
        values: dict[str, Any],
        require_required: bool,
    ) -> None:
        by_name = {a.name: a for a in attrs}
        unknown = set(values) - set(by_name)
        if unknown:
            raise SchemaError(
                f"object of class {self.class_name!r} got unknown attributes "
                f"{sorted(unknown)}"
            )
        for name, value in values.items():
            if value is None:
                self._values.pop(name, None)
                continue
            by_name[name].type.validate(value, name)
            self._values[name] = value
        if require_required:
            missing = [
                a.name for a in attrs if a.required and a.name not in self._values
            ]
            if missing:
                raise TypeMismatchError(
                    f"object of class {self.class_name!r} is missing required "
                    f"attributes {missing}"
                )

    def update(self, schema: Schema, changes: dict[str, Any]) -> dict[str, Any]:
        """Apply ``changes`` (None removes an optional value); returns the
        previous values of the touched attributes (for undo logs)."""
        attrs = schema.effective_attributes(self.class_name)
        required = {a.name for a in attrs if a.required}
        previous = {name: self._values.get(name) for name in changes}
        for name, value in changes.items():
            if value is None and name in required:
                raise TypeMismatchError(
                    f"cannot unset required attribute {name!r} of {self.oid}"
                )
        self._validate_and_set(attrs, changes, require_required=False)
        self.version += 1
        return previous

    # -- access ----------------------------------------------------------------

    def get(self, name: str, geo_class: GeoClass | None = None) -> Any:
        """Value of attribute ``name``; unset attributes fall back to the
        type default when the class is supplied, else ``None``."""
        if name in self._values:
            return self._values[name]
        if geo_class is not None and geo_class.has_attribute(name):
            return geo_class.attribute(name).type.default()
        return None

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def values(self) -> dict[str, Any]:
        """A snapshot copy of the set attributes."""
        return dict(self._values)

    def geometry(self, attr_name: str | None = None) -> Geometry | None:
        """The object's geometry: the named attribute, or the first
        geometry-valued attribute found."""
        if attr_name is not None:
            value = self._values.get(attr_name)
            return value if isinstance(value, Geometry) else None
        for value in self._values.values():
            if isinstance(value, Geometry):
                return value
        return None

    def bbox(self, attr_name: str | None = None) -> BBox | None:
        geom = self.geometry(attr_name)
        return geom.bbox() if geom is not None else None

    def __repr__(self) -> str:
        return f"GeoObject({self.oid}, {len(self._values)} values, v{self.version})"


class Extent:
    """The set of live instances of one class (its *extension*).

    Iteration order is insertion order, which the Class-set window relies
    on for stable list displays.
    """

    def __init__(self, class_name: str):
        self.class_name = class_name
        self._objects: dict[str, GeoObject] = {}

    def add(self, obj: GeoObject) -> None:
        if obj.class_name != self.class_name:
            raise SchemaError(
                f"object {obj.oid} of class {obj.class_name!r} cannot join "
                f"extent of {self.class_name!r}"
            )
        if obj.oid in self._objects:
            raise SchemaError(f"duplicate oid {obj.oid} in extent {self.class_name!r}")
        self._objects[obj.oid] = obj

    def remove(self, oid: str) -> GeoObject:
        if oid not in self._objects:
            raise SchemaError(f"extent {self.class_name!r} has no object {oid}")
        return self._objects.pop(oid)

    def restore(self, obj: GeoObject, order: list[str]) -> None:
        """Undo a :meth:`remove`: re-add ``obj`` at its old position.

        ``order`` is :meth:`oids` as it was before the removal. The dict
        is reordered in place, because transactions alias it.
        """
        objects = self._objects
        objects[obj.oid] = obj
        by_oid = dict(objects)
        objects.clear()
        objects.update((oid, by_oid[oid]) for oid in order)

    def get(self, oid: str) -> GeoObject | None:
        return self._objects.get(oid)

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self):
        return iter(self._objects.values())

    def oids(self) -> list[str]:
        return list(self._objects)
