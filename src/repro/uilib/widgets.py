"""The kernel widget classes of paper Figure 2.

The OMT diagram defines eight classes and their composition structure::

    Window ◇— Panel ◇— { Panel (recursive), Text, Drawing Area,
                         List, Button, Menu ◇— Menu Item }

"The root of the hierarchy is the Window element ... These elements are
grouped in control Panels. Therefore, a Window is composed of a set of
Panels, each one aggregating functionally related interface components.
The recursive relationship allows the specification of complex control
panels using other panels" (§3.2).

Widgets here are *headless*: they hold state, fire events and describe
themselves; rendering is a separate concern
(:mod:`repro.uilib.rendering`).
"""

from __future__ import annotations

from itertools import compress, repeat
from typing import Any, Sequence

from ..errors import WidgetError
from ..spatial.algorithms import densify_line
from ..spatial.geometry import (
    BBox,
    Geometry,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)
from ..spatial.scale import Viewport
from .base import InterfaceObject

#: The widget types a Panel may aggregate (Figure 2 aggregation edges).
PANEL_CHILDREN = (
    "panel", "text", "drawing_area", "list", "button", "menu", "slider",
)


class Window(InterfaceObject):
    """Top-level interaction window.

    "The window may not be graphical, but it always contains the interface
    elements used in the user dialog." Windows aggregate Panels only.
    """

    widget_type = "window"
    allowed_children = ("panel",)
    default_events = ("open", "close")

    def __init__(self, name: str | None = None, title: str = "", **props: Any):
        super().__init__(name, **props)
        self.properties.setdefault("title", title or self.name)

    @property
    def title(self) -> str:
        return self.properties["title"]

    def panels(self) -> list["Panel"]:
        return [c for c in self.children if isinstance(c, Panel)]

    def _describe_extra(self) -> dict[str, Any]:
        return {"title": self.title}


class Panel(InterfaceObject):
    """A grouping of functionally related components; panels may nest."""

    widget_type = "panel"
    allowed_children = PANEL_CHILDREN

    def __init__(self, name: str | None = None, layout: str = "vertical",
                 **props: Any):
        if layout not in ("vertical", "horizontal"):
            raise WidgetError(f"unknown panel layout {layout!r}")
        super().__init__(name, layout=layout, **props)

    @property
    def layout(self) -> str:
        return self.properties["layout"]


class Text(InterfaceObject):
    """A labelled text field (read-only or editable)."""

    widget_type = "text"
    allowed_children = None
    default_events = ("change", "notify")

    def __init__(self, name: str | None = None, label: str = "",
                 value: str = "", editable: bool = False, **props: Any):
        super().__init__(name, label=label, editable=editable, **props)
        self._value = str(value)

    @property
    def value(self) -> str:
        return self._value

    def set_value(self, value: str, interactive: bool = False) -> None:
        """Change the field value; fires ``change`` when interactive."""
        if interactive and not self.properties.get("editable", False):
            raise WidgetError(f"text field {self.name!r} is not editable")
        old, self._value = self._value, str(value)
        if interactive:
            self.fire("change", old=old, new=self._value)

    def _describe_extra(self) -> dict[str, Any]:
        return {"label": self.properties.get("label", ""), "value": self._value}


class DrawingArea(InterfaceObject):
    """The cartographic display surface.

    Holds *layers* of ``(oid, geometry, symbol)`` triples plus a viewport.
    The Class-set window's presentation area is a DrawingArea; picking an
    object in the map fires ``pick`` with its oid (§4 step 3: "The user
    finally selects an instance of the class in the graphical area").
    """

    widget_type = "drawing_area"
    allowed_children = None
    default_events = ("pick", "pan", "zoom")

    def __init__(self, name: str | None = None, width: int = 60,
                 height: int = 20, **props: Any):
        if width < 4 or height < 2:
            raise WidgetError("drawing area must be at least 4x2 cells")
        super().__init__(name, **props)
        self.width = int(width)
        self.height = int(height)
        #: the features as aligned columns: oid, Geometry, symbol-char
        self._oids: list[str] = []
        self._geoms: list[Geometry] = []
        self._symbols: list[str] = []
        #: ``_oids`` and ``_geoms`` are shared with the caller of
        #: :meth:`add_features` and are copied before the next change
        self._borrowed = False
        self._viewport: Viewport | None = None
        # Memos, None until first read. A change to the features drops
        # both; a change to the viewport drops the raster.
        self._extent: BBox | None = None
        #: (col, row) -> (symbol, oid)
        self._raster: dict[tuple[int, int], tuple[str, str]] | None = None

    def _own(self) -> None:
        """Before a feature change: drop both memos, copy shared columns."""
        self._extent = self._raster = None
        if self._borrowed:
            self._oids, self._geoms = list(self._oids), list(self._geoms)
            self._borrowed = False

    def add_feature(self, oid: str, geometry: Geometry, symbol: str = "*") -> None:
        if not isinstance(geometry, Geometry):
            raise WidgetError("drawing area features need a Geometry")
        if len(symbol) != 1:
            raise WidgetError("feature symbol must be a single character")
        self._own()
        self._oids.append(oid)
        self._geoms.append(geometry)
        self._symbols.append(symbol)

    def add_features(self, oids: Sequence[str], geometries: Sequence,
                     symbol: str = "*") -> None:
        """Add aligned ``(oid, geometry)`` columns as one batch.

        Rows whose value is not a :class:`Geometry` (``None`` included)
        are skipped. An empty area shares columns in which every value is
        a geometry instead of copying them, so callers pass columns they
        no longer change (the columns of a class column set never change).
        """
        if len(symbol) != 1:
            raise WidgetError("feature symbol must be a single character")
        drawn = list(map(isinstance, geometries, repeat(Geometry)))
        share = all(drawn) and not self._oids
        self._own()
        if share:
            self._oids, self._geoms = oids, geometries
            self._borrowed = True
        else:
            self._oids.extend(compress(oids, drawn))
            self._geoms.extend(compress(geometries, drawn))
        self._symbols.extend(repeat(symbol, len(self._oids)
                                    - len(self._symbols)))

    def clear_features(self) -> None:
        self._oids, self._geoms, self._symbols = [], [], []
        self._borrowed = False
        self._extent = self._raster = None

    @property
    def features(self) -> list[tuple[str, Geometry, str]]:
        return list(zip(self._oids, self._geoms, self._symbols))

    @property
    def feature_count(self) -> int:
        return len(self._oids)

    def data_extent(self) -> BBox:
        if self._extent is None:
            self._extent = BBox.union_all(
                [geom.bbox() for geom in self._geoms])
        return self._extent

    @property
    def viewport(self) -> Viewport:
        """Current viewport; defaults to the data extent plus a margin."""
        if self._viewport is not None:
            return self._viewport
        extent = self.data_extent()
        if extent.is_empty():
            extent = BBox(0.0, 0.0, 1.0, 1.0)
        if extent.width == 0 or extent.height == 0:
            extent = extent.expanded(max(1.0, extent.width, extent.height) or 1.0)
        margin = 0.05 * max(extent.width, extent.height)
        return Viewport(extent.expanded(margin), self.width, self.height)

    def set_viewport(self, viewport: Viewport) -> None:
        self._viewport = viewport
        self._raster = None

    def pick_at(self, col: int, row: int) -> str | None:
        """The oid whose rendering occupies cell (col, row), if any.

        Fires the ``pick`` event when something is hit.
        """
        oid = self._drawn().get((col, row), (None, None))[1]
        if oid is not None:
            self.fire("pick", oid=oid, col=col, row=row)
        return oid

    def rasterize(self) -> dict[tuple[int, int], tuple[str, str]]:
        """Map (col, row) -> (symbol, oid) for the current viewport.

        Later features overdraw earlier ones (painter's order). The result
        is the caller's own copy.
        """
        return dict(self._drawn())

    def _drawn(self) -> dict[tuple[int, int], tuple[str, str]]:
        """The raster memo; callers must not mutate it."""
        if self._raster is None:
            self._raster = self._draw()
        return self._raster

    def _draw(self) -> dict[tuple[int, int], tuple[str, str]]:
        viewport = self.viewport
        extent = viewport.extent
        min_x, min_y = extent.min_x, extent.min_y
        max_x, max_y = extent.max_x, extent.max_y
        ground_w, ground_h = extent.width, extent.height
        cols, rows = viewport.width, viewport.height
        cell_w, cell_h = viewport.cell_ground_size()
        step = max(min(cell_w, cell_h) / 2.0, 1e-9)
        cells: dict[tuple[int, int], tuple[str, str]] = {}
        for oid, geom, symbol in zip(self._oids, self._geoms, self._symbols):
            hit = (symbol, oid)
            if isinstance(geom, Point):
                points = ((geom.x, geom.y),)
            else:
                points = _raster_points(geom, step)
            for x, y in points:
                # Viewport.to_cell's arithmetic, operation for operation
                if min_x <= x <= max_x and min_y <= y <= max_y:
                    col = min(cols - 1, int((x - min_x) / ground_w * cols))
                    row = min(rows - 1,
                              int((1.0 - (y - min_y) / ground_h) * rows))
                    cells[(col, max(0, row))] = hit
        return cells

    def _describe_extra(self) -> dict[str, Any]:
        return {
            "width": self.width,
            "height": self.height,
            "feature_count": len(self._oids),
        }


def _raster_points(geom: Geometry, step: float):
    """Sample a geometry every ``step`` ground units, so that each crossed
    cell gets a hit."""
    if isinstance(geom, Point):
        yield (geom.x, geom.y)
    elif isinstance(geom, LineString):
        yield from densify_line(geom.coords, step)
    elif isinstance(geom, Polygon):
        for ring in geom.rings():
            yield from densify_line(ring.closed_coords(), step)
    elif isinstance(geom, (MultiPoint, MultiLineString, MultiPolygon)):
        for member in geom:
            yield from _raster_points(member, step)


class ListWidget(InterfaceObject):
    """A selectable list of labelled items.

    Items are ``(key, label)`` pairs; selection fires ``select`` with the
    item key — the Schema window's class list uses this (§4 step 2: "The
    user next selects a class in that list").
    """

    widget_type = "list"
    allowed_children = None
    default_events = ("select",)

    def __init__(self, name: str | None = None,
                 items: Sequence[tuple[str, str]] = (), **props: Any):
        super().__init__(name, **props)
        self._keys: list[str] = []
        self._labels: list[str] = []
        #: key -> position in ``_keys``
        self._index: dict[str, int] = {}
        #: the three above are shared with the caller of :meth:`add_items`
        #: and are copied before the first change
        self._borrowed = False
        self._selected: int | None = None
        for key, label in items:
            self.add_item(key, label)

    def _own(self) -> None:
        """Before an item change: copy shared lists."""
        if self._borrowed:
            self._keys, self._labels = list(self._keys), list(self._labels)
            self._index = dict(self._index)
            self._borrowed = False

    def add_item(self, key: str, label: str | None = None) -> None:
        if key in self._index:
            raise WidgetError(f"list {self.name!r} already has item {key!r}")
        self._own()
        self._index[key] = len(self._keys)
        self._keys.append(key)
        self._labels.append(label if label is not None else key)

    def add_items(self, keys: Sequence[str],
                  index: dict[str, int] | None = None) -> None:
        """Append one item per key, labelled with its key, all or none.

        ``index`` maps each of ``keys`` to its position (a class column
        set's ``oids`` and ``row_of``): an empty list then shares both
        until its first change instead of copying them. Otherwise one
        dict build and one duplicate check cover the whole batch.
        """
        start = len(self._keys)
        share = index is not None and not start
        if not share:
            index = dict(zip(keys, range(start, start + len(keys))))
        if len(index) != len(keys) or not self._index.keys().isdisjoint(
                index):
            raise WidgetError(f"list {self.name!r} would repeat an item key")
        if share:
            self._keys = self._labels = keys
            self._index = index
            self._borrowed = True
            return
        self._own()
        self._index.update(index)
        self._keys.extend(keys)
        self._labels.extend(keys)

    def remove_item(self, key: str) -> None:
        i = self._index.get(key)
        if i is None:
            raise WidgetError(f"list {self.name!r} has no item {key!r}")
        self._own()
        del self._index[key]
        if self._selected == i:
            self._selected = None
        elif self._selected is not None and self._selected > i:
            self._selected -= 1
        del self._keys[i]
        del self._labels[i]
        for j in range(i, len(self._keys)):
            self._index[self._keys[j]] = j

    @property
    def items(self) -> list[tuple[str, str]]:
        return list(zip(self._keys, self._labels))

    @property
    def selected_key(self) -> str | None:
        if self._selected is None:
            return None
        return self._keys[self._selected]

    def select(self, key: str) -> list[Any]:
        """Select by key and fire ``select``; returns callback results."""
        i = self._index.get(key)
        if i is None:
            raise WidgetError(f"list {self.name!r} has no item {key!r}")
        self._selected = i
        return self.fire("select", key=key, index=i)

    def _describe_extra(self) -> dict[str, Any]:
        return {
            "items": list(self._labels),
            "selected": self.selected_key,
        }


class Button(InterfaceObject):
    """A push button; ``click()`` fires the ``click`` event."""

    widget_type = "button"
    allowed_children = None
    default_events = ("click",)

    def __init__(self, name: str | None = None, label: str = "", **props: Any):
        super().__init__(name, **props)
        self.properties.setdefault("label", label or self.name)

    @property
    def label(self) -> str:
        return self.properties["label"]

    def click(self) -> list[Any]:
        return self.fire("click")

    def _describe_extra(self) -> dict[str, Any]:
        return {"label": self.label}


class Menu(InterfaceObject):
    """A menu aggregating :class:`MenuItem` children (Figure 2)."""

    widget_type = "menu"
    allowed_children = ("menu_item",)

    def __init__(self, name: str | None = None, label: str = "", **props: Any):
        super().__init__(name, **props)
        self.properties.setdefault("label", label or self.name)

    @property
    def label(self) -> str:
        return self.properties["label"]

    def add_item(self, name: str, label: str | None = None) -> "MenuItem":
        item = MenuItem(name, label=label if label is not None else name)
        self.add_child(item)
        return item

    def activate(self, item_name: str) -> list[Any]:
        """Activate a menu item by name; fires its ``activate`` event."""
        item = self.child(item_name)
        return item.fire("activate")

    def _describe_extra(self) -> dict[str, Any]:
        return {"label": self.label}


class MenuItem(InterfaceObject):
    widget_type = "menu_item"
    allowed_children = None
    default_events = ("activate",)

    def __init__(self, name: str | None = None, label: str = "", **props: Any):
        super().__init__(name, **props)
        self.properties.setdefault("label", label or self.name)

    @property
    def label(self) -> str:
        return self.properties["label"]

    def _describe_extra(self) -> dict[str, Any]:
        return {"label": self.label}


class Slider(InterfaceObject):
    """A bounded numeric control.

    Not part of the Figure 2 kernel: it demonstrates §3.2 extensibility
    ("it is possible to add classes to it, which corresponds to the
    incorporation of new interface elements"). The §4 example's
    ``poleWidget`` is "defined as a slider".
    """

    widget_type = "slider"
    allowed_children = None
    default_events = ("change",)

    def __init__(self, name: str | None = None, minimum: float = 0.0,
                 maximum: float = 100.0, value: float | None = None,
                 **props: Any):
        if minimum >= maximum:
            raise WidgetError("slider needs minimum < maximum")
        super().__init__(name, **props)
        self.minimum = float(minimum)
        self.maximum = float(maximum)
        self._value = float(value) if value is not None else self.minimum

    @property
    def value(self) -> float:
        return self._value

    def set_value(self, value: float, interactive: bool = False) -> None:
        value = float(value)
        if not self.minimum <= value <= self.maximum:
            raise WidgetError(
                f"slider value {value} outside [{self.minimum}, {self.maximum}]"
            )
        old, self._value = self._value, value
        if interactive:
            self.fire("change", old=old, new=value)

    def _describe_extra(self) -> dict[str, Any]:
        return {"min": self.minimum, "max": self.maximum, "value": self._value}


#: name -> class map of the kernel (plus the Slider extension),
#: keyed the way the customization language refers to them.
KERNEL_CLASSES: dict[str, type[InterfaceObject]] = {
    "window": Window,
    "panel": Panel,
    "text": Text,
    "drawing_area": DrawingArea,
    "list": ListWidget,
    "button": Button,
    "menu": Menu,
    "menu_item": MenuItem,
}

EXTENSION_CLASSES: dict[str, type[InterfaceObject]] = {
    "slider": Slider,
}
