"""Headless renderers for interface object trees.

The paper's prototype drew on a workstation GUI; this reproduction renders
windows deterministically instead (see DESIGN.md, substitution table):

* :class:`TextRenderer` — ASCII layout, one window per bordered box.
  Experiments F4/F7 print these to show the default vs. customized
  windows of paper Figures 4 and 7.
* :func:`scene_graph` — the structured ``describe()`` tree, which tests
  assert against precisely.
"""

from __future__ import annotations

from typing import Any

from .. import obs
from ..errors import RenderError
from .base import InterfaceObject
from .widgets import (
    Button,
    DrawingArea,
    ListWidget,
    Menu,
    MenuItem,
    Panel,
    Slider,
    Text,
    Window,
)


def scene_graph(widget: InterfaceObject) -> dict[str, Any]:
    """The structured scene description of a widget tree."""
    return widget.describe()


class TextRenderer:
    """Renders widget trees to ASCII text."""

    def __init__(self, max_width: int = 100):
        if max_width < 20:
            raise RenderError("renderer needs at least 20 columns")
        self.max_width = max_width

    # -- public API ----------------------------------------------------------

    def render(self, widget: InterfaceObject) -> str:
        """Render any widget tree; windows get a bordered frame."""
        rec = obs.RECORDER
        if not rec.enabled:
            return self._render_any(widget)
        rec.inc("render.renders")
        with rec.span("render", widget=getattr(widget, "name", "?")):
            return self._render_any(widget)

    def _render_any(self, widget: InterfaceObject) -> str:
        if isinstance(widget, Window):
            return self._render_window(widget)
        return "\n".join(self._render_node(widget, indent=0))

    # -- frames ---------------------------------------------------------------

    def _render_window(self, window: Window) -> str:
        if not window.visible:
            return f"(window {window.title!r} is hidden)"
        body: list[str] = []
        for panel in window.children:
            body.extend(self._render_node(panel, indent=0))
        width = min(
            self.max_width,
            max([len(window.title) + 6] + [len(line) + 4 for line in body]),
        )
        top = "+=" + f" {window.title} ".center(width - 4, "=") + "=+"
        out = [top]
        for line in body:
            out.append("| " + line[: width - 4].ljust(width - 4) + " |")
        out.append("+" + "=" * (width - 2) + "+")
        return "\n".join(out)

    # -- nodes ------------------------------------------------------------------

    def _render_node(self, widget: InterfaceObject, indent: int) -> list[str]:
        if not widget.visible:
            return []
        pad = "  " * indent
        if isinstance(widget, Panel):
            return self._render_panel(widget, indent)
        if isinstance(widget, Text):
            label = widget.get_property("label", "")
            text = f"{label}: {widget.value}" if label else widget.value
            if widget.get_property("editable"):
                text += "  [edit]"
            return [pad + text]
        if isinstance(widget, Button):
            return [pad + f"[ {widget.label} ]"]
        if isinstance(widget, ListWidget):
            lines = []
            label = widget.get_property("label", "")
            if label:
                lines.append(pad + label + ":")
            items = widget.items
            selected = widget.selected_key
            for key, item_label in items:
                marker = ">" if key == selected else " "
                lines.append(pad + f" {marker} {item_label}")
            if not items:
                lines.append(pad + "  (empty)")
            return lines
        if isinstance(widget, Menu):
            items = " | ".join(
                child.label for child in widget.children
                if isinstance(child, MenuItem) and child.visible
            )
            return [pad + f"{widget.label} v [{items}]"]
        if isinstance(widget, MenuItem):
            return [pad + widget.label]
        if isinstance(widget, Slider):
            return [pad + self._render_slider(widget)]
        if isinstance(widget, DrawingArea):
            return [pad + line for line in self._render_drawing(widget)]
        if isinstance(widget, Window):
            # Nested windows are not legal in the model; be defensive.
            raise RenderError("windows cannot be nested inside widgets")
        # Unknown widget classes (library extensions) fall back to a tag.
        lines = [pad + f"<{widget.widget_type} {widget.name}>"]
        for child in widget.children:
            lines.extend(self._render_node(child, indent + 1))
        return lines

    def _render_panel(self, panel: Panel, indent: int) -> list[str]:
        pad = "  " * indent
        label = panel.get_property("label", "")
        lines: list[str] = []
        if label:
            lines.append(pad + f"-- {label} --")
        if panel.layout == "horizontal":
            cells: list[str] = []
            for child in panel.children:
                rendered = self._render_node(child, 0)
                cells.append(" ".join(rendered) if rendered else "")
            merged = "   ".join(cell for cell in cells if cell)
            if merged:
                lines.append(pad + merged)
            return lines
        for child in panel.children:
            lines.extend(self._render_node(child, indent + 1))
        return lines

    def _render_slider(self, slider: Slider) -> str:
        span = slider.maximum - slider.minimum
        width = 20
        pos = int(round((slider.value - slider.minimum) / span * (width - 1)))
        bar = "".join("|" if i == pos else "-" for i in range(width))
        label = slider.get_property("label", slider.name)
        return f"{label}: {slider.minimum:g} [{bar}] {slider.maximum:g}  ({slider.value:g})"

    def _render_drawing(self, area: DrawingArea) -> list[str]:
        raster = area.rasterize()
        rows = []
        border = "." + "-" * area.width + "."
        rows.append(border)
        for row in range(area.height):
            cells = []
            for col in range(area.width):
                symbol, __ = raster.get((col, row), (" ", None))
                cells.append(symbol)
            rows.append("|" + "".join(cells) + "|")
        rows.append(border)
        extent = area.viewport.extent
        rows.append(
            f"extent: ({extent.min_x:.1f}, {extent.min_y:.1f}) .. "
            f"({extent.max_x:.1f}, {extent.max_y:.1f})  "
            f"features: {area.feature_count}"
        )
        return rows


def render_text(widget: InterfaceObject, max_width: int = 100) -> str:
    """One-call convenience over :class:`TextRenderer`."""
    return TextRenderer(max_width=max_width).render(widget)
