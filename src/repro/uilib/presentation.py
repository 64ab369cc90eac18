"""Presentation formats for schema, class and attribute displays.

The customization language binds *names* of presentation formats to
interface elements (§4: ``presentation as pointFormat``, ``display
attribute pole_composition as composed_text``). This module defines the
format objects behind those names and the registry the generic interface
builder consults.

Three format families mirror the three window levels:

* **schema formats** — how the Schema window lays out a schema
  (``default`` tabular list, ``hierarchy`` tree, ``user_defined``
  callback, ``null`` hidden);
* **class formats** — how a class extension is drawn in the Class-set
  window's presentation area (``pointFormat``, ``lineFormat``,
  ``polygonFormat``, ``symbolFormat``);
* **attribute formats** — which widget displays one instance attribute in
  the Instance window (``default``, ``composed_text``, ``slider``,
  ``text``, ``image``, ``null``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import CustomizationError
from ..spatial.geometry import Geometry
from ..spatial.scale import MapScale, generalize
from .base import InterfaceObject
from .library import InterfaceObjectLibrary
from .widgets import DrawingArea, Text

#: Schema display modes accepted by the language (Figure 3 ``schema`` clause).
SCHEMA_DISPLAY_MODES = ("default", "hierarchy", "user_defined", "null")


@dataclass(frozen=True)
class ClassFormat:
    """How a class extension appears in a Class-set presentation area."""

    name: str
    symbol: str = "*"
    #: apply cartographic generalization before drawing
    generalized: bool = False
    doc: str = ""

    def place(self, area: DrawingArea, oids, geometries,
              scale: MapScale | None = None) -> int:
        """Draw aligned oid and geometry columns; returns the count drawn.

        Rows without a geometry are skipped, as are rows a generalized
        format collapses at ``scale``.
        """
        if self.generalized and scale is not None:
            geometries = [generalize(geom, scale)
                          if isinstance(geom, Geometry) else None
                          for geom in geometries]
        before = area.feature_count
        area.add_features(oids, geometries, self.symbol)
        return area.feature_count - before


AttributeWidgetFactory = Callable[..., "InterfaceObject | None"]


@dataclass(frozen=True)
class AttributeFormat:
    """How one attribute value appears in an Instance window.

    ``factory(library, attr_name, value, **options)`` returns the widget,
    or ``None`` for hidden attributes.
    """

    name: str
    factory: AttributeWidgetFactory
    doc: str = ""

    def build(self, library: InterfaceObjectLibrary, attr_name: str,
              value: Any, **options: Any) -> InterfaceObject | None:
        return self.factory(library, attr_name, value, **options)


# ---------------------------------------------------------------------------
# Built-in attribute widget factories
# ---------------------------------------------------------------------------


def _default_widget(library: InterfaceObjectLibrary, attr_name: str,
                    value: Any, **options: Any) -> InterfaceObject:
    """The generic presentation: a read-only labelled text field."""
    if isinstance(value, bytes):
        shown = f"[bitmap, {len(value)} bytes]"
    elif isinstance(value, Geometry):
        shown = value.wkt()
    elif isinstance(value, dict):
        shown = "; ".join(f"{k}={v}" for k, v in value.items())
    elif value is None:
        shown = "(unset)"
    else:
        shown = str(value)
    return Text(f"attr_{attr_name}", label=attr_name, value=shown)


def _text_widget(library, attr_name, value, **options):
    return Text(f"attr_{attr_name}", label=attr_name,
                value="" if value is None else str(value))


def _composed_text_widget(library, attr_name, value, **options):
    fields = options.get("fields")
    if not fields:
        if isinstance(value, dict):
            fields = list(value)
        else:
            raise CustomizationError(
                f"composed_text for {attr_name!r} needs source fields"
            )
    widget = library.create("composed_text", f"attr_{attr_name}",
                            fields=fields, label=attr_name)
    if isinstance(value, dict):
        widget.set_parts(value)
    return widget


def _slider_widget(library, attr_name, value, **options):
    minimum = options.get("minimum", 0.0)
    maximum = options.get("maximum", 100.0)
    numeric = float(value) if isinstance(value, (int, float)) else minimum
    numeric = min(max(numeric, minimum), maximum)
    return library.create("slider", f"attr_{attr_name}",
                          minimum=minimum, maximum=maximum,
                          value=numeric, label=attr_name)


def _image_widget(library, attr_name, value, **options):
    size = len(value) if isinstance(value, (bytes, bytearray)) else 0
    return Text(f"attr_{attr_name}", label=attr_name,
                value=f"[image {size} bytes]")


def _raster_label(value, level: int) -> str:
    lw, lh = value.level_dims(level)
    return (f"[raster {value.rid} {value.width}x{value.height} "
            f"@ level {level} ({lw}x{lh})]")


def _raster_widget(library, attr_name, value, **options):
    """Full-resolution raster presentation (duck-typed on RasterRef).

    The widget carries only the descriptor text — pixel reads stay in
    the database layer (``db.raster_store.read_window``); the format's
    job is choosing *what* the context shows, per the paper's model.
    """
    if value is None:
        return Text(f"attr_{attr_name}", label=attr_name, value="(no raster)")
    if not hasattr(value, "level_dims"):
        raise CustomizationError(
            f"raster format for {attr_name!r} needs a RasterRef value, "
            f"got {type(value).__name__}"
        )
    return Text(f"attr_{attr_name}", label=attr_name,
                value=_raster_label(value, 0))


def _raster_overview_widget(library, attr_name, value, **options):
    """Coarse raster presentation for zoomed-out / browsing contexts.

    With a ``scale`` option (a :class:`~repro.spatial.scale.MapScale`,
    :class:`~repro.spatial.scale.Viewport` or explicit level int) the
    pyramid level matches the display resolution; without one, the
    coarsest level — an overview thumbnail — is shown.
    """
    if value is None:
        return Text(f"attr_{attr_name}", label=attr_name, value="(no raster)")
    if not hasattr(value, "level_for"):
        raise CustomizationError(
            f"raster_overview format for {attr_name!r} needs a RasterRef "
            f"value, got {type(value).__name__}"
        )
    scale = options.get("scale")
    level = value.level_for(scale) if scale is not None else value.levels - 1
    return Text(f"attr_{attr_name}", label=attr_name,
                value=_raster_label(value, level))


def _null_widget(library, attr_name, value, **options):
    return None


class PresentationRegistry:
    """Named format lookup used by the generic interface builder.

    Ships with the built-ins above; applications register more (that is
    what makes a format name like ``pointFormat`` legal in directives).
    """

    def __init__(self) -> None:
        self._class_formats: dict[str, ClassFormat] = {}
        self._attribute_formats: dict[str, AttributeFormat] = {}
        self._install_builtins()

    def _install_builtins(self) -> None:
        for fmt in (
            ClassFormat("defaultFormat", symbol="*",
                        doc="generic map display, one '*' per object"),
            ClassFormat("pointFormat", symbol="o",
                        doc="point phenomena as small circles (§4)"),
            ClassFormat("lineFormat", symbol="#", generalized=True,
                        doc="linear phenomena, generalized to display scale"),
            ClassFormat("polygonFormat", symbol="%", generalized=True,
                        doc="areal phenomena, boundary drawing"),
        ):
            self.register_class_format(fmt)
        for fmt in (
            AttributeFormat("default", _default_widget,
                            doc="read-only text field (generic presentation)"),
            AttributeFormat("text", _text_widget, doc="plain text field"),
            AttributeFormat("composed_text", _composed_text_widget,
                            doc="composite of several source fields (§4)"),
            AttributeFormat("slider", _slider_widget, doc="bounded numeric"),
            AttributeFormat("image", _image_widget, doc="bitmap placeholder"),
            AttributeFormat("raster", _raster_widget,
                            doc="tiled raster at full resolution"),
            AttributeFormat("raster_overview", _raster_overview_widget,
                            doc="tiled raster at a scale-chosen pyramid level"),
            AttributeFormat("null", _null_widget, doc="hidden attribute"),
        ):
            self.register_attribute_format(fmt)

    # -- registration -------------------------------------------------------------

    def register_class_format(self, fmt: ClassFormat) -> None:
        if fmt.name in self._class_formats:
            raise CustomizationError(f"class format {fmt.name!r} already exists")
        self._class_formats[fmt.name] = fmt

    def register_attribute_format(self, fmt: AttributeFormat) -> None:
        if fmt.name in self._attribute_formats:
            raise CustomizationError(
                f"attribute format {fmt.name!r} already exists"
            )
        self._attribute_formats[fmt.name] = fmt

    # -- lookup ---------------------------------------------------------------------

    def class_format(self, name: str) -> ClassFormat:
        if name not in self._class_formats:
            raise CustomizationError(
                f"unknown class presentation format {name!r}; "
                f"known: {sorted(self._class_formats)}"
            )
        return self._class_formats[name]

    def attribute_format(self, name: str) -> AttributeFormat:
        if name not in self._attribute_formats:
            raise CustomizationError(
                f"unknown attribute format {name!r}; "
                f"known: {sorted(self._attribute_formats)}"
            )
        return self._attribute_formats[name]

    def has_class_format(self, name: str) -> bool:
        return name in self._class_formats

    def has_attribute_format(self, name: str) -> bool:
        return name in self._attribute_formats

    def class_format_names(self) -> list[str]:
        return sorted(self._class_formats)

    def attribute_format_names(self) -> list[str]:
        return sorted(self._attribute_formats)
