"""Window inspection helpers.

Structural accessors over the windows the builder produces — the test
suite and the figure experiments assert against these instead of groping
through widget trees by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import DispatchError
from ..uilib.widgets import DrawingArea, ListWidget, Window


@dataclass(frozen=True)
class WindowSummary:
    """Flat facts about one window, convenient for assertions."""

    name: str
    title: str
    kind: str
    visible: bool
    widget_count: int
    widget_types: dict[str, int]
    presentation_format: str | None
    listed_items: tuple[str, ...]
    feature_count: int


def summarize_window(window: Window) -> WindowSummary:
    types: dict[str, int] = {}
    feature_count = 0
    for widget in window.walk():
        types[widget.widget_type] = types.get(widget.widget_type, 0) + 1
        if isinstance(widget, DrawingArea):
            feature_count += widget.feature_count
    listed: tuple[str, ...] = ()
    main_list = window.find("classes") or window.find("instances")
    if isinstance(main_list, ListWidget):
        listed = tuple(key for key, __ in main_list.items)
    return WindowSummary(
        name=window.name,
        title=window.title,
        kind=window.get_property("window_kind", "unknown"),
        visible=window.visible,
        widget_count=sum(types.values()),
        widget_types=types,
        presentation_format=window.get_property("presentation_format"),
        listed_items=listed,
        feature_count=feature_count,
    )


def class_window_areas(window: Window) -> tuple[Any, Any]:
    """The (control, presentation) panels of a Class-set window.

    §3.2/§4: "The Class set Window is divided in two main areas: the
    control area, and the presentation (or display) area."
    """
    if window.get_property("window_kind") != "class_set":
        raise DispatchError(f"{window.name!r} is not a Class-set window")
    return window.child("control"), window.child("presentation")


def instance_attribute_panels(window: Window) -> dict[str, Any]:
    """attr name -> panel for an Instance window (in display order)."""
    if window.get_property("window_kind") != "instance":
        raise DispatchError(f"{window.name!r} is not an Instance window")
    body = window.child("attributes")
    out: dict[str, Any] = {}
    for panel in body.children:
        if panel.name.startswith("panel_"):
            out[panel.name[len("panel_"):]] = panel
    return out


def displayed_attribute_names(window: Window) -> list[str]:
    return list(instance_attribute_panels(window))


def map_symbols(window: Window) -> set[str]:
    """The set of symbols drawn in a Class-set window's map area."""
    area = window.find("map")
    if not isinstance(area, DrawingArea):
        return set()
    return {symbol for __, __geom, symbol in area.features}
