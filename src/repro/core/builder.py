"""The generic interface builder.

§3.2: "The generic interface builder uses objects from the interface
library to build an interface specification. The choice of appropriate
objects is done at run time (as opposed of pre-compiled interfaces)."

The builder produces the three §3.2 interaction-window types:

* :meth:`GenericInterfaceBuilder.build_schema_window` — "Schema windows
  assume the user just wants to look at the available class names in the
  spatial database to select the desired phenomena for browsing";
* :meth:`~GenericInterfaceBuilder.build_class_window` — "Class set windows
  comprise a control and a presentation area, where the presentation area
  shows the extension of each selected class in some format (typically
  allowing the user to grasp the spatial relationships among class
  instances)";
* :meth:`~GenericInterfaceBuilder.build_instance_window` — "Instance
  windows let the user define display properties for each attribute of a
  given instance."

Each method takes the *data* (what the database returned for the event)
plus the *presentation* (the :class:`CustomizationDecision` the rule
engine produced, or ``None``) — the paper's ``(Q1, Q2) = (data,
presentation)`` pair — and assembles a window from library objects.
Without a decision, the generic (default) presentation code runs.
"""

from __future__ import annotations

from typing import Any

from .. import obs
from ..errors import CustomizationError
from ..geodb.columns import ClassColumns
from ..geodb.database import GeographicDatabase
from ..geodb.instances import GeoObject
from ..geodb.query import _resolve_path
from ..geodb.schema import Attribute, GeoClass
from ..spatial.scale import MapScale
from ..uilib.base import InterfaceObject
from ..uilib.library import InterfaceObjectLibrary
from ..uilib.presentation import PresentationRegistry
from ..uilib.widgets import (
    Button,
    DrawingArea,
    ListWidget,
    Menu,
    Panel,
    Text,
    Window,
)
from .customization import (
    AttributeCustomization,
    ClassCustomization,
    CustomizationDecision,
)


class GenericInterfaceBuilder:
    """Builds Schema / Class-set / Instance windows from library objects."""

    def __init__(self, library: InterfaceObjectLibrary,
                 presentations: PresentationRegistry | None = None,
                 map_width: int = 48, map_height: int = 12):
        self.library = library
        self.presentations = presentations or PresentationRegistry()
        self.map_width = map_width
        self.map_height = map_height
        #: Application hook for the ``user-defined`` schema display mode
        #: (§3.4): a callable ``fn(window, schema_info)`` that reworks the
        #: generically built Schema window. The language names the mode;
        #: the code behind it is, per the paper, "out of the scope of the
        #: language" — it is registered here.
        self.user_defined_schema_formatter = None

    # ------------------------------------------------------------------
    # Schema window
    # ------------------------------------------------------------------

    def build_schema_window(self, schema_info: dict[str, Any],
                            decision: CustomizationDecision | None = None
                            ) -> Window:
        """Build the Schema window for a ``Get_Schema`` result.

        ``decision.schema_display``:

        * ``default`` — flat class list with instance counts;
        * ``hierarchy`` — indented inheritance tree;
        * ``user_defined`` — the generic list plus a marker property that a
          bound callback may rework;
        * ``null`` — the window is built ("since it defines the windows
          hierarchy", §4) but not shown (``visible=False``).
        """
        rec = obs.RECORDER
        if not rec.enabled:
            return self._build_schema_window(schema_info, decision)
        rec.inc("builder.windows_built", kind="schema")
        with rec.span("builder.build", kind="schema",
                      target=schema_info["name"]):
            return self._build_schema_window(schema_info, decision)

    def _build_schema_window(self, schema_info: dict[str, Any],
                             decision: CustomizationDecision | None = None
                             ) -> Window:
        mode = decision.schema_display if decision else "default"
        window = Window(
            f"schema_{schema_info['name']}",
            title=f"Schema: {schema_info['name']}",
        )
        window.set_property("window_kind", "schema")
        window.set_property("display_mode", mode)
        control = Panel("control")
        window.add_child(control)
        menu = Menu("schema_menu", label="Schema")
        menu.add_item("open", "Open")
        menu.add_item("refresh", "Refresh")
        menu.add_item("close", "Close")
        control.add_child(menu)

        class_list = ListWidget("classes", label="Classes")
        if mode == "hierarchy":
            for name, depth in _hierarchy_order(schema_info["hierarchy"]):
                count = _class_count(schema_info, name)
                class_list.add_item(name, "  " * depth + f"{name} ({count})")
        else:
            for entry in schema_info["classes"]:
                class_list.add_item(
                    entry["name"],
                    f"{entry['name']} ({entry['instance_count']})",
                )
        control.add_child(class_list)
        if mode == "user_defined":
            window.set_property("user_defined_hook", True)
            if callable(self.user_defined_schema_formatter):
                self.user_defined_schema_formatter(window, schema_info)
        if mode == "null":
            window.set_property("visible", False)
        return window

    # ------------------------------------------------------------------
    # Class-set window
    # ------------------------------------------------------------------

    def build_class_window(self, geo_class: GeoClass,
                           attributes: list[Attribute],
                           objects: ClassColumns,
                           decision: CustomizationDecision | None = None,
                           scale: MapScale | None = None) -> Window:
        """Build the Class-set window for a ``Get_Class`` result.

        ``objects`` is the class's column set, as ``get_class`` returns
        it: the window lists and draws its oid and geometry columns.

        Control area: operations menu, the class schema summary, the class
        control widget (default: a labelled button; customized: any
        library widget, e.g. ``poleWidget``), and the instance list.
        Presentation area: a drawing area populated through the class
        presentation format (default ``defaultFormat``; customized e.g.
        ``pointFormat``).
        """
        rec = obs.RECORDER
        if not rec.enabled:
            return self._build_class_window(geo_class, attributes, objects,
                                            decision, scale)
        rec.inc("builder.windows_built", kind="class_set")
        with rec.span("builder.build", kind="class_set",
                      target=geo_class.name):
            return self._build_class_window(geo_class, attributes, objects,
                                            decision, scale)

    def _build_class_window(self, geo_class: GeoClass,
                            attributes: list[Attribute],
                            objects: ClassColumns,
                            decision: CustomizationDecision | None = None,
                            scale: MapScale | None = None) -> Window:
        clause = decision.class_clause if decision else None
        window = Window(
            f"classset_{geo_class.name}",
            title=f"Class set: {geo_class.name}",
        )
        window.set_property("window_kind", "class_set")
        control = Panel("control")
        window.add_child(control)

        menu = Menu("operations", label="Operations")
        for op in ("zoom", "pan", "select", "close"):
            menu.add_item(op, op.capitalize())
        control.add_child(menu)

        spec_lines = "; ".join(
            f"{a.name}: {a.type.spec()}" for a in attributes
        )
        control.add_child(
            Text("class_schema", label="Class schema", value=spec_lines)
        )

        control.add_child(self._class_control_widget(geo_class, clause))

        instance_list = ListWidget("instances", label="Instances")
        instance_list.add_items(objects.oids, objects.row_of)
        control.add_child(instance_list)

        presentation = Panel("presentation")
        window.add_child(presentation)
        area = DrawingArea("map", width=self.map_width, height=self.map_height)
        presentation.add_child(area)

        format_name = (
            clause.presentation_format
            if clause and clause.presentation_format
            else "defaultFormat"
        )
        class_format = self.presentations.class_format(format_name)
        window.set_property("presentation_format", format_name)
        spatial = [a for a in attributes if a.is_spatial()]
        if spatial:
            geometry_attr = spatial[0].name
            class_format.place(area, objects.oids,
                               objects.geometry_column(geometry_attr)[0],
                               scale=scale)
            window.set_property("geometry_attribute", geometry_attr)
        return window

    def _class_control_widget(self, geo_class: GeoClass,
                              clause: ClassCustomization | None
                              ) -> InterfaceObject:
        """The widget representing the class in the control area."""
        if clause is not None and clause.control_widget:
            if not self.library.has(clause.control_widget):
                raise CustomizationError(
                    f"control widget {clause.control_widget!r} for class "
                    f"{geo_class.name!r} is not in the interface library"
                )
            widget = self.library.create(
                clause.control_widget, f"class_widget_{geo_class.name}"
            )
            widget.set_property("represents_class", geo_class.name)
            return widget
        button = Button(
            f"class_widget_{geo_class.name}", label=geo_class.name
        )
        button.set_property("represents_class", geo_class.name)
        return button

    # ------------------------------------------------------------------
    # Instance window
    # ------------------------------------------------------------------

    def build_instance_window(
        self,
        obj: GeoObject,
        geo_class: GeoClass,
        attributes: list[Attribute],
        attr_decisions: dict[str, AttributeCustomization] | None = None,
        database: GeographicDatabase | None = None,
    ) -> Window:
        """Build the Instance window for a ``Get_Value`` result.

        One panel per effective attribute, in declaration order. Each
        attribute uses its customized format when one was decided, else
        the generic presentation ("the omitted attributes ... are
        represented with the default presentation defined in the generic
        interface", §4).
        """
        rec = obs.RECORDER
        if not rec.enabled:
            return self._build_instance_window(obj, geo_class, attributes,
                                               attr_decisions, database)
        rec.inc("builder.windows_built", kind="instance")
        with rec.span("builder.build", kind="instance", target=obj.oid):
            return self._build_instance_window(obj, geo_class, attributes,
                                               attr_decisions, database)

    def _build_instance_window(
        self,
        obj: GeoObject,
        geo_class: GeoClass,
        attributes: list[Attribute],
        attr_decisions: dict[str, AttributeCustomization] | None = None,
        database: GeographicDatabase | None = None,
    ) -> Window:
        attr_decisions = attr_decisions or {}
        window = Window(f"instance_{obj.oid}", title=f"Instance: {obj.oid}")
        window.set_property("window_kind", "instance")
        window.set_property("class_name", geo_class.name)
        body = Panel("attributes")
        window.add_child(body)

        for attribute in attributes:
            custom = attr_decisions.get(attribute.name)
            widget = self._attribute_widget(
                obj, geo_class, attribute, custom, database
            )
            if widget is None:
                continue  # format "null": attribute hidden (§4 line (12))
            panel = Panel(f"panel_{attribute.name}")
            panel.add_child(widget)
            body.add_child(panel)
        return window

    def _attribute_widget(
        self,
        obj: GeoObject,
        geo_class: GeoClass,
        attribute: Attribute,
        custom: AttributeCustomization | None,
        database: GeographicDatabase | None,
    ) -> InterfaceObject | None:
        value = obj.get(attribute.name, geo_class)
        if custom is None:
            fmt = self.presentations.attribute_format("default")
            return fmt.build(self.library, attribute.name, value)

        fmt = self.presentations.attribute_format(custom.format_name)
        options = dict(custom.options)
        if custom.sources:
            resolved = {
                _source_label(source): resolve_source(
                    database, obj, geo_class, source
                )
                for source in custom.sources
            }
            if custom.format_name == "composed_text":
                options.setdefault("fields", list(resolved))
                widget = fmt.build(self.library, attribute.name, resolved,
                                   **options)
            else:
                # Single-source formats display the first resolved value.
                first = next(iter(resolved.values())) if resolved else value
                widget = fmt.build(self.library, attribute.name, first,
                                   **options)
        else:
            widget = fmt.build(self.library, attribute.name, value, **options)
        if widget is not None and custom.using:
            apply_using_binding(widget, custom.using)
        return widget


# ---------------------------------------------------------------------------
# `from` clause source resolution and `using` clause bindings
# ---------------------------------------------------------------------------


def _source_label(source: str) -> str:
    """Display label of a source: last path segment or the method name."""
    if "(" in source:
        return source.split("(", 1)[0]
    return source.rsplit(".", 1)[-1]


def resolve_source(database: GeographicDatabase | None, obj: GeoObject,
                   geo_class: GeoClass, source: str) -> Any:
    """Resolve a ``from`` clause source against one instance.

    Two forms (both appear in paper Figure 6):

    * a dotted attribute path, e.g. ``pole_composition.pole_material``
      (the paper abbreviates the owning attribute: ``pole.material``; the
      compiler normalizes to full paths);
    * a method call ``name(arg, ...)`` where each argument is itself a
      path, e.g. ``get_supplier_name(pole_supplier)`` — requires a
      database to dispatch the method.
    """
    source = source.strip()
    if "(" in source:
        if not source.endswith(")"):
            raise CustomizationError(f"malformed source call {source!r}")
        method_name, arg_text = source[:-1].split("(", 1)
        method_name = method_name.strip()
        if database is None:
            raise CustomizationError(
                f"source {source!r} needs a database for method dispatch"
            )
        args = [
            resolve_source(database, obj, geo_class, arg.strip())
            for arg in arg_text.split(",")
            if arg.strip()
        ]
        return database.call_method(obj, method_name, *args)
    try:
        return _resolve_path(obj, geo_class, source)
    except Exception as exc:
        raise CustomizationError(
            f"cannot resolve source {source!r} on {obj.oid}: {exc}"
        ) from exc


def apply_using_binding(widget: InterfaceObject, binding: str) -> None:
    """Apply a ``using`` clause like ``composed_text.notify()``.

    The binding names a widget behavior (an event or a Python method of
    the widget) to invoke once the widget is populated — §3.4: the
    language provides "the binding of new functionality to the interface
    objects".
    """
    binding = binding.strip()
    if not binding.endswith("()"):
        raise CustomizationError(
            f"using binding {binding!r} must be a call like 'widget.event()'"
        )
    target = binding[:-2]
    __, __, behavior = target.rpartition(".")
    behavior = behavior or target
    method = getattr(widget, behavior, None)
    if callable(method):
        method()
        return
    results = widget.fire(behavior)
    if not results and behavior not in widget.bound_events():
        raise CustomizationError(
            f"widget {widget.name!r} has no behavior {behavior!r} "
            f"for binding {binding!r}"
        )


# ---------------------------------------------------------------------------
# Schema hierarchy ordering
# ---------------------------------------------------------------------------


def _hierarchy_order(tree: dict[str, list[str]]) -> list[tuple[str, int]]:
    """Flatten the superclass tree to (name, depth), roots first."""
    out: list[tuple[str, int]] = []

    def visit(name: str, depth: int) -> None:
        out.append((name, depth))
        for child in tree.get(name, ()):
            visit(child, depth + 1)

    for root in tree.get("", ()):
        visit(root, 0)
    return out


def _class_count(schema_info: dict[str, Any], class_name: str) -> int:
    for entry in schema_info["classes"]:
        if entry["name"] == class_name:
            return entry["instance_count"]
    return 0
