"""The dispatcher: the generic interface control module.

§3.5: "Each user action is captured by the interface where it is processed
by a dispatcher, which is responsible for creating and maintaining the
hierarchy of (Schema, Class set, Instance) windows. ... Unlike these
[conventional] systems, our dispatcher allows the dynamic active
customization of the interface windows. The dispatcher recognizes
different types of database interaction requests (schema and extension
manipulations), and generates the primitive events captured by the active
database mechanism."

The two §3.5 claims this module realizes:

1. *single generic model* — one code path builds every window kind through
   the generic interface builder (conventional interfaces "have a specific
   code to generate each kind of window"; that conventional design is
   implemented as the benchmark baseline in
   :mod:`repro.baselines.hardwired`);
2. *transparent customization* — the dispatcher never inspects
   customization state; it merely forwards the rule engine's decision (or
   ``None``) to the builder. "All the modules in the interface have
   exactly the same behavior, with or without customization."

As an extension beyond the paper (its §5 limitation), the dispatcher can
also **refresh** open windows when committed updates touch the displayed
class — the view-refresh behavior of Diaz et al. the paper cites as [3].
The kernel hands it each commit's write-set (:meth:`Dispatcher.refresh`).
"""

from __future__ import annotations

from typing import Any

from .. import obs
from ..errors import DispatchError
from ..geodb.database import CommitWriteSet, GeographicDatabase, WriteOp
from ..uilib.widgets import ListWidget, Menu, Window
from .builder import GenericInterfaceBuilder
from .context import Context
from .rule_engine import CustomizationEngine


class Screen:
    """The set of currently displayed windows, in opening order."""

    def __init__(self) -> None:
        self._windows: dict[str, Window] = {}

    def show(self, window: Window) -> Window:
        """Display (or replace) a window under its name."""
        self._windows[window.name] = window
        rec = obs.RECORDER
        if rec.enabled:
            rec.gauge("screen.open_windows", len(self._windows))
        return window

    def close(self, name: str) -> Window:
        if name not in self._windows:
            raise DispatchError(f"no open window named {name!r}")
        window = self._windows.pop(name)
        window.fire("close")
        rec = obs.RECORDER
        if rec.enabled:
            rec.gauge("screen.open_windows", len(self._windows))
        return window

    def window(self, name: str) -> Window:
        if name not in self._windows:
            raise DispatchError(f"no open window named {name!r}")
        return self._windows[name]

    def find_by_kind(self, kind: str) -> list[Window]:
        return [
            w for w in self._windows.values()
            if w.get_property("window_kind") == kind
        ]

    def names(self) -> list[str]:
        return list(self._windows)

    def windows(self) -> list[Window]:
        return list(self._windows.values())

    def __len__(self) -> int:
        return len(self._windows)

    def __contains__(self, name: str) -> bool:
        return name in self._windows


class Dispatcher:
    """Routes user interactions to database events and windows to screen."""

    def __init__(self, database: GeographicDatabase,
                 builder: GenericInterfaceBuilder,
                 engine: CustomizationEngine | None = None,
                 screen: Screen | None = None,
                 auto_refresh: bool = False,
                 session_id: str | None = None):
        self.database = database
        self.builder = builder
        self.engine = engine
        # `is None` rather than `or`: an empty Screen is falsy (len == 0).
        self.screen = screen if screen is not None else Screen()
        #: window name -> (kind, open-arguments) for refresh and reopen
        self._origins: dict[str, tuple[str, tuple, Context | None]] = {}
        self.interactions = 0
        self.auto_refresh = auto_refresh
        #: identity stamped on every primitive event this dispatcher raises
        self.session_id = session_id

    # ------------------------------------------------------------------
    # The three interaction requests
    # ------------------------------------------------------------------

    def open_schema(self, schema_name: str,
                    context: Context | None = None) -> Window:
        """User asks to browse a schema → ``Get_Schema`` event → window."""
        rec = obs.RECORDER
        if not rec.enabled:
            return self._do_open_schema(schema_name, context)
        rec.inc("dispatcher.interactions", kind="schema")
        with rec.timed("dispatch.seconds", kind="schema"), \
                rec.span("dispatch.open_schema", schema=schema_name,
                         **self._span_tags()):
            return self._do_open_schema(schema_name, context)

    def _do_open_schema(self, schema_name: str,
                        context: Context | None = None) -> Window:
        self.interactions += 1
        schema_info = self.database.get_schema(
            schema_name, context=context, session_id=self.session_id
        )
        event = self.database.bus.last_event
        decision = (
            self.engine.schema_decision(event.event_id,
                                        session_id=self.session_id)
            if self.engine and event else None
        )
        window = self.builder.build_schema_window(schema_info, decision)
        window.set_property("context", context)
        window.set_property("event_id", event.event_id if event else None)
        self._wire_schema_window(window, schema_name, context)
        self.screen.show(window)
        self._origins[window.name] = ("schema", (schema_name,), context)
        # R1 cascade (§4): a Null schema display "originates a Get_Class
        # event for the classes defined in the customization directive".
        if decision is not None:
            for class_name in decision.cascade_classes:
                self.open_class(schema_name, class_name, context)
        return window

    def open_class(self, schema_name: str, class_name: str,
                   context: Context | None = None) -> Window:
        """User selects a class → ``Get_Class`` event → Class-set window."""
        rec = obs.RECORDER
        if not rec.enabled:
            return self._do_open_class(schema_name, class_name, context)
        rec.inc("dispatcher.interactions", kind="class")
        with rec.timed("dispatch.seconds", kind="class"), \
                rec.span("dispatch.open_class", schema=schema_name,
                         cls=class_name, **self._span_tags()):
            return self._do_open_class(schema_name, class_name, context)

    def _do_open_class(self, schema_name: str, class_name: str,
                       context: Context | None = None) -> Window:
        self.interactions += 1
        geo_class, objects = self.database.get_class(
            schema_name, class_name, context=context,
            session_id=self.session_id,
        )
        event = self.database.bus.last_event
        decision = (
            self.engine.class_decision(event.event_id,
                                       session_id=self.session_id)
            if self.engine and event else None
        )
        schema = self.database.get_schema_object(schema_name)
        attributes = schema.effective_attributes(class_name)
        scale = None
        if context is not None and context.scale_denominator:
            from ..spatial.scale import MapScale

            scale = MapScale(context.scale_denominator)
        window = self.builder.build_class_window(
            geo_class, attributes, objects, decision, scale=scale
        )
        window.set_property("context", context)
        window.set_property("event_id", event.event_id if event else None)
        window.set_property("schema_name", schema_name)
        self._wire_class_window(window, schema_name, class_name, context)
        self.screen.show(window)
        self._origins[window.name] = (
            "class", (schema_name, class_name), context
        )
        return window

    def open_instance(self, oid: str, context: Context | None = None,
                      attr_overrides: dict | None = None) -> Window:
        """User selects an instance → ``Get_Value`` event → Instance window.

        ``attr_overrides`` (attr name → :class:`AttributeCustomization`)
        layers on top of whatever the rules decide; the update-refresh
        extension uses it to re-present just-changed attributes.
        """
        rec = obs.RECORDER
        if not rec.enabled:
            return self._do_open_instance(oid, context, attr_overrides)
        rec.inc("dispatcher.interactions", kind="instance")
        with rec.timed("dispatch.seconds", kind="instance"), \
                rec.span("dispatch.open_instance", oid=oid,
                         **self._span_tags()):
            return self._do_open_instance(oid, context, attr_overrides)

    def _do_open_instance(self, oid: str, context: Context | None = None,
                          attr_overrides: dict | None = None) -> Window:
        self.interactions += 1
        obj = self.database.get_value(
            oid, context=context, session_id=self.session_id
        )
        event = self.database.bus.last_event
        attr_decisions = (
            self.engine.attribute_decisions(event.event_id,
                                            session_id=self.session_id)
            if self.engine and event else {}
        )
        if attr_overrides:
            attr_decisions = {**attr_decisions, **attr_overrides}
        schema_name, class_name = self.database.locate_object(oid)
        schema = self.database.get_schema_object(schema_name)
        geo_class = schema.get_class(class_name)
        attributes = schema.effective_attributes(class_name)
        window = self.builder.build_instance_window(
            obj, geo_class, attributes, attr_decisions,
            database=self.database,
        )
        window.set_property("context", context)
        window.set_property("event_id", event.event_id if event else None)
        self._wire_instance_window(window)
        self.screen.show(window)
        self._origins[window.name] = ("instance", (oid,), context)
        return window

    # ------------------------------------------------------------------
    # Callback wiring: interface events -> interaction requests
    # ------------------------------------------------------------------

    def _wire_schema_window(self, window: Window, schema_name: str,
                            context: Context | None) -> None:
        class_list = window.find("classes")
        if isinstance(class_list, ListWidget):
            class_list.on(
                "select",
                lambda ev: self.open_class(
                    schema_name, ev.data["key"], context
                ),
            )
        self._wire_close(window, "schema_menu", "close")

    def _wire_class_window(self, window: Window, schema_name: str,
                           class_name: str, context: Context | None) -> None:
        instance_list = window.find("instances")
        if isinstance(instance_list, ListWidget):
            instance_list.on(
                "select",
                lambda ev: self.open_instance(ev.data["key"], context),
            )
        area = window.find("map")
        if area is not None:
            area.on(
                "pick",
                lambda ev: self.open_instance(ev.data["oid"], context),
            )
            self._wire_map_operations(window, area)
        self._wire_close(window, "operations", "close")

    def _wire_map_operations(self, window: Window, area) -> None:
        """Bind the operations menu's Zoom/Pan items to the map viewport.

        Zoom halves the visible ground extent about its center; Pan shifts
        a quarter-window east (repeatable). Both fire the drawing area's
        own ``zoom``/``pan`` events so customization callbacks can stack.
        """
        menu = window.find("operations")
        if not isinstance(menu, Menu):
            return

        def do_zoom(ev) -> None:
            viewport = area.viewport.zoomed(2.0)
            area.set_viewport(viewport)
            area.fire("zoom", extent=viewport.extent.as_tuple())

        def do_pan(ev) -> None:
            viewport = area.viewport.panned(0.25, 0.0)
            area.set_viewport(viewport)
            area.fire("pan", extent=viewport.extent.as_tuple())

        try:
            menu.child("zoom").on("activate", do_zoom)
            menu.child("pan").on("activate", do_pan)
        except Exception:
            return  # a customized menu without these items is legal

    def _wire_instance_window(self, window: Window) -> None:
        pass  # instance windows currently close through the screen API

    def _wire_close(self, window: Window, menu_name: str,
                    item_name: str) -> None:
        menu = window.find(menu_name)
        if isinstance(menu, Menu):
            try:
                item = menu.child(item_name)
            except Exception:
                return
            item.on("activate", lambda ev: self.screen.close(window.name))

    def _span_tags(self) -> dict[str, str]:
        """Extra span tags; tags the session when this dispatcher has one."""
        if self.session_id is None:
            return {}
        return {"session": self.session_id}

    # ------------------------------------------------------------------
    # Extension: refresh on committed updates (Diaz et al. [3] behavior)
    # ------------------------------------------------------------------

    def interested_in(self, op: WriteOp) -> bool:
        """Whether a committed row operation touches a window on screen
        (the server's ``interest`` push test)."""
        for name, (kind, args, _context) in list(self._origins.items()):
            if name not in self.screen:
                continue
            if kind == "class" and args == (op.schema_name, op.class_name):
                return True
            if kind == "instance" and args[0] == op.oid:
                return True
        return False

    def refresh(self, ws: CommitWriteSet) -> None:
        """Rebuild the windows one commit touched, each exactly once.

        A Class-set window is rebuilt once per commit however many of
        its rows changed; an instance window once per touched oid, or
        closed when the commit deleted its object.
        """
        if not self.auto_refresh:
            return
        classes = ws.classes()
        by_oid: dict[str, list[WriteOp]] = {}
        for op in ws.ops:
            by_oid.setdefault(op.oid, []).append(op)
        for name, (kind, args, context) in list(self._origins.items()):
            if name not in self.screen:
                self._origins.pop(name, None)
            elif kind == "class" and args in classes:
                self.open_class(args[0], args[1], context)
            elif kind == "instance" and args[0] in by_oid:
                ops = by_oid[args[0]]
                if ops[-1].op == "delete":
                    self.screen.close(name)
                    self._origins.pop(name, None)
                else:
                    self.open_instance(
                        args[0], context,
                        attr_overrides=self._update_overrides(ops, context))

    def _update_overrides(self, ops: list[WriteOp],
                          context: Context | None) -> dict | None:
        """`on update display as F`: changed attributes re-present as F."""
        if self.engine is None:
            return None
        clause = self.engine.active_class_clause(ops[-1].class_name, context)
        if clause is None or clause.on_update_display is None:
            return None
        from .customization import AttributeCustomization

        return {
            name: AttributeCustomization(name, clause.on_update_display)
            for op in ops if op.changed
            for name in op.changed
        }

    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "interactions": self.interactions,
            "open_windows": len(self.screen),
            "auto_refresh": self.auto_refresh,
            "session_id": self.session_id,
        }
