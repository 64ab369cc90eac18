"""HTML renderer for interface object trees.

A second headless backend beside the ASCII renderer: produces a
self-contained HTML fragment (or page) from a widget tree. Downstream
applications can serve a browsing session over HTTP without touching the
widget model; the structure mirrors ``describe()`` one-to-one, so tests
can assert on it with ordinary parsers.

Only standard-library facilities are used; styling is a small embedded
stylesheet, and the map raster is emitted as ``<pre>`` art with one
``<span>`` per feature cell (carrying ``data-oid`` for client-side picks).
"""

from __future__ import annotations

import html
from typing import Any

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

_STYLE = """
.repro-window { border: 2px solid #345; border-radius: 6px;
  font-family: monospace; margin: 8px; max-width: 60em; }
.repro-window > .title { background: #345; color: #fff; padding: 2px 8px; }
.repro-window.hidden { opacity: 0.45; border-style: dashed; }
.repro-panel { margin: 4px 0 4px 12px; }
.repro-panel.horizontal { display: flex; gap: 12px; }
.repro-panel > .label { font-weight: bold; }
.repro-text .label { color: #345; }
.repro-list ul { margin: 2px 0; padding-left: 20px; }
.repro-list li.selected { font-weight: bold; }
.repro-menu { color: #345; }
.repro-slider input { vertical-align: middle; }
.repro-map pre { background: #eef; border: 1px solid #99a;
  padding: 4px; line-height: 1.05; }
""".strip()


def render_html(widget: InterfaceObject, full_page: bool = False) -> str:
    """Render a widget tree to an HTML fragment (or full page)."""
    body = _node(widget)
    if not full_page:
        return body
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<style>{_STYLE}</style></head>\n<body>\n{body}\n</body></html>"
    )


def render_screen_html(windows: list[InterfaceObject]) -> str:
    """A full page holding every (visible-or-not) window of a screen."""
    body = "\n".join(_node(w) for w in windows)
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<style>{_STYLE}</style></head>\n<body>\n{body}\n</body></html>"
    )


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _node(widget: InterfaceObject) -> str:
    if isinstance(widget, Window):
        hidden = "" if widget.visible else " hidden"
        inner = "\n".join(_node(c) for c in widget.children if c.visible)
        return (
            f"<div class='repro-window{hidden}' id='{_esc(widget.name)}'>"
            f"<div class='title'>{_esc(widget.title)}</div>\n{inner}</div>"
        )
    if not widget.visible:
        return ""
    if isinstance(widget, Panel):
        classes = "repro-panel horizontal" if widget.layout == "horizontal" \
            else "repro-panel"
        label = widget.get_property("label", "")
        head = f"<div class='label'>{_esc(label)}</div>" if label else ""
        inner = "\n".join(_node(c) for c in widget.children)
        return (f"<div class='{classes}' id='{_esc(widget.name)}'>"
                f"{head}{inner}</div>")
    if isinstance(widget, Text):
        label = widget.get_property("label", "")
        if widget.get_property("editable"):
            return (
                f"<label class='repro-text'>"
                f"<span class='label'>{_esc(label)}:</span> "
                f"<input value='{_esc(widget.value)}'/></label>"
            )
        return (
            f"<div class='repro-text'>"
            f"<span class='label'>{_esc(label)}:</span> "
            f"<span class='value'>{_esc(widget.value)}</span></div>"
        )
    if isinstance(widget, Button):
        return (f"<button class='repro-button' name='{_esc(widget.name)}'>"
                f"{_esc(widget.label)}</button>")
    if isinstance(widget, ListWidget):
        label = widget.get_property("label", "")
        selected = widget.selected_key
        items = "\n".join(
            f"<li class='{'selected' if key == selected else ''}'"
            f" data-key='{_esc(key)}'>{_esc(text)}</li>"
            for key, text in widget.items
        )
        head = f"<div class='label'>{_esc(label)}</div>" if label else ""
        return (f"<div class='repro-list'>{head}<ul>{items}</ul></div>")
    if isinstance(widget, Menu):
        items = " | ".join(
            f"<a href='#' data-item='{_esc(c.name)}'>{_esc(c.label)}</a>"
            for c in widget.children
            if isinstance(c, MenuItem) and c.visible
        )
        return (f"<nav class='repro-menu'>"
                f"<b>{_esc(widget.label)}</b>: {items}</nav>")
    if isinstance(widget, MenuItem):
        return f"<a href='#'>{_esc(widget.label)}</a>"
    if isinstance(widget, Slider):
        return (
            f"<div class='repro-slider'>"
            f"<span class='label'>"
            f"{_esc(widget.get_property('label', widget.name))}</span> "
            f"<input type='range' min='{widget.minimum}'"
            f" max='{widget.maximum}' value='{widget.value}' disabled/>"
            f" <span class='value'>{widget.value:g}</span></div>"
        )
    if isinstance(widget, DrawingArea):
        return _map_html(widget)
    # library extensions: render as a container with a tag
    inner = "\n".join(_node(c) for c in widget.children)
    return (f"<div class='repro-{_esc(widget.widget_type)}'"
            f" id='{_esc(widget.name)}'>{inner}</div>")


def _map_html(area: DrawingArea) -> str:
    raster = area.rasterize()
    rows = []
    for row in range(area.height):
        cells = []
        for col in range(area.width):
            symbol, oid = raster.get((col, row), (" ", None))
            if oid is None:
                cells.append(_esc(symbol))
            else:
                cells.append(
                    f"<span data-oid='{_esc(oid)}'>{_esc(symbol)}</span>"
                )
        rows.append("".join(cells))
    extent = area.viewport.extent
    caption = (
        f"extent ({extent.min_x:.1f}, {extent.min_y:.1f}) .. "
        f"({extent.max_x:.1f}, {extent.max_y:.1f}) — "
        f"{area.feature_count} features"
    )
    body = "\n".join(rows)
    return (
        f"<figure class='repro-map' id='{_esc(area.name)}'>"
        f"<pre>{body}</pre>"
        f"<figcaption>{_esc(caption)}</figcaption></figure>"
    )
