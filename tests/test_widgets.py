"""Unit tests for the widget base machinery and kernel classes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WidgetError
from repro.spatial import BBox, LineString, Point, Viewport
from repro.uilib import (
    Button,
    DrawingArea,
    KERNEL_CLASSES,
    ListWidget,
    Menu,
    MenuItem,
    Panel,
    Slider,
    Text,
    Window,
)


class TestKernelShape:
    def test_figure2_kernel_classes_present(self):
        """Paper Figure 2: exactly these eight kernel classes."""
        assert set(KERNEL_CLASSES) == {
            "window", "panel", "text", "drawing_area", "list",
            "button", "menu", "menu_item",
        }

    def test_window_aggregates_only_panels(self):
        window = Window("w")
        window.add_child(Panel("p"))
        with pytest.raises(WidgetError):
            window.add_child(Button("b"))

    def test_panel_recursion_allowed(self):
        outer = Panel("outer")
        inner = Panel("inner")
        outer.add_child(inner)
        inner.add_child(Button("b"))
        assert outer.find("b") is not None

    def test_panel_aggregations_match_figure2(self):
        panel = Panel("p")
        for child in (Panel("p2"), Text("t"), DrawingArea("d"),
                      ListWidget("l"), Button("b"), Menu("m")):
            panel.add_child(child)
        with pytest.raises(WidgetError):
            panel.add_child(MenuItem("mi"))   # items go inside menus only

    def test_menu_aggregates_menu_items(self):
        menu = Menu("m")
        menu.add_item("a", "A")
        with pytest.raises(WidgetError):
            menu.add_child(Button("b"))


class TestComposition:
    def test_duplicate_child_names_rejected(self):
        panel = Panel("p")
        panel.add_child(Button("b"))
        with pytest.raises(WidgetError):
            panel.add_child(Button("b"))

    def test_reparenting_rejected(self):
        button = Button("b")
        Panel("p1").add_child(button)
        with pytest.raises(WidgetError):
            Panel("p2").add_child(button)

    def test_cycle_rejected(self):
        a, b = Panel("a"), Panel("b")
        a.add_child(b)
        with pytest.raises(WidgetError):
            b.add_child(a)
        with pytest.raises(WidgetError):
            a.add_child(a)

    def test_leaf_widgets_take_no_children(self):
        with pytest.raises(WidgetError):
            Button("b").add_child(Text("t"))

    def test_remove_child(self):
        panel = Panel("p")
        button = panel.add_child(Button("b"))
        assert panel.remove_child("b") is button
        assert button.parent is None
        with pytest.raises(WidgetError):
            panel.remove_child("b")

    def test_path_and_find_and_walk(self):
        window = Window("w")
        panel = Panel("p")
        window.add_child(panel)
        button = Button("b")
        panel.add_child(button)
        assert button.path() == "w/p/b"
        assert window.find("b") is button
        assert window.find("nope") is None
        assert [x.name for x in window.walk()] == ["w", "p", "b"]


class TestEventsAndCallbacks:
    def test_fire_collects_results(self):
        button = Button("b")
        button.on("click", lambda e: "one")
        button.on("click", lambda e: "two")
        assert button.click() == ["one", "two"]

    def test_disabled_widget_swallows_events(self):
        button = Button("b", enabled=False)
        button.on("click", lambda e: "x")
        assert button.click() == []

    def test_off_and_override(self):
        button = Button("b")
        first = lambda e: "first"   # noqa: E731
        button.on("click", first)
        button.on("click", lambda e: "second")
        button.off("click", first)
        assert button.click() == ["second"]
        button.override("click", lambda e: "only")
        assert button.click() == ["only"]
        button.off("click")
        assert button.click() == []

    def test_noncallable_rejected(self):
        with pytest.raises(WidgetError):
            Button("b").on("click", "not callable")

    def test_event_object_carries_source_and_data(self):
        events = []
        lst = ListWidget("l", items=[("k", "Key")])
        lst.on("select", events.append)
        lst.select("k")
        assert events[0].source is lst
        assert events[0].data == {"key": "k", "index": 0}
        assert "select on" in events[0].describe()

    def test_bound_events_union(self):
        button = Button("b")
        button.on("hover", lambda e: None)
        assert set(button.bound_events()) == {"click", "hover"}


class TestText:
    def test_set_value_programmatic_vs_interactive(self):
        text = Text("t", label="Name", value="a")
        text.set_value("b")                       # programmatic: always ok
        with pytest.raises(WidgetError):
            text.set_value("c", interactive=True)  # not editable
        editable = Text("t2", editable=True)
        changes = []
        editable.on("change", lambda e: changes.append(e.data))
        editable.set_value("typed", interactive=True)
        assert changes == [{"old": "", "new": "typed"}]


class TestListWidget:
    def test_duplicate_keys_rejected(self):
        lst = ListWidget("l", items=[("a", "A")])
        with pytest.raises(WidgetError):
            lst.add_item("a")

    def test_selection_tracking(self):
        lst = ListWidget("l", items=[("a", "A"), ("b", "B")])
        assert lst.selected_key is None
        lst.select("b")
        assert lst.selected_key == "b"
        with pytest.raises(WidgetError):
            lst.select("ghost")

    def test_remove_item_adjusts_selection(self):
        lst = ListWidget("l", items=[("a", "A"), ("b", "B"), ("c", "C")])
        lst.select("b")
        lst.remove_item("a")
        assert lst.selected_key == "b"
        lst.remove_item("b")
        assert lst.selected_key is None
        with pytest.raises(WidgetError):
            lst.remove_item("ghost")

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(("add", "remove", "select")),
                              st.sampled_from("abcdef")),
                    max_size=40))
    def test_matches_plain_list_model(self, ops):
        """Random add/remove/select runs agree with a plain-list model."""
        lst = ListWidget("l")
        fired = []
        lst.on("select", lambda e: fired.append(e.data))
        keys: list[str] = []
        selected: str | None = None
        for op, key in ops:
            if op == "add":
                if key in keys:
                    with pytest.raises(WidgetError, match="already has item"):
                        lst.add_item(key, key.upper())
                else:
                    lst.add_item(key, key.upper())
                    keys.append(key)
            elif key not in keys:
                with pytest.raises(WidgetError, match="has no item"):
                    getattr(lst, f"{op}_item" if op == "remove" else op)(key)
            elif op == "remove":
                lst.remove_item(key)
                keys.remove(key)
                if selected == key:
                    selected = None
            else:
                lst.select(key)
                assert fired[-1] == {"key": key, "index": keys.index(key)}
                selected = key
            assert lst.items == [(k, k.upper()) for k in keys]
            assert lst.selected_key == selected

    def test_build_makes_linear_key_comparisons(self):
        """Building a list compares keys O(n) times, not O(n^2)."""
        comparisons = 0

        class CountingKey(str):
            __hash__ = str.__hash__

            def __eq__(self, other):
                nonlocal comparisons
                comparisons += 1
                return str.__eq__(self, other)

        n = 2000
        keys = [CountingKey(f"Pole#{i}") for i in range(n)]
        lst = ListWidget("l", items=[(k, k) for k in keys])
        for key in keys[::7]:
            lst.select(key)
        lst.remove_item(keys[0])
        assert len(lst.items) == n - 1
        assert comparisons <= 2 * n


class TestMenu:
    def test_activate(self):
        menu = Menu("m", label="Ops")
        item = menu.add_item("close", "Close")
        hits = []
        item.on("activate", lambda e: hits.append(1))
        menu.activate("close")
        assert hits == [1]


class TestSlider:
    def test_bounds(self):
        slider = Slider("s", minimum=0, maximum=10, value=5)
        slider.set_value(7)
        with pytest.raises(WidgetError):
            slider.set_value(11)
        with pytest.raises(WidgetError):
            Slider("bad", minimum=5, maximum=5)

    def test_change_event_when_interactive(self):
        slider = Slider("s", minimum=0, maximum=10)
        changes = []
        slider.on("change", lambda e: changes.append((e.data["old"],
                                                      e.data["new"])))
        slider.set_value(3, interactive=True)
        slider.set_value(8)   # programmatic: no event
        assert changes == [(0.0, 3.0)]


class TestDrawingArea:
    def make_area(self):
        area = DrawingArea("map", width=20, height=10)
        area.add_feature("p1", Point(10, 10), "o")
        area.add_feature("l1", LineString([(0, 0), (20, 20)]), "#")
        return area

    def test_feature_validation(self):
        area = DrawingArea("map")
        with pytest.raises(WidgetError):
            area.add_feature("x", "not geometry")
        with pytest.raises(WidgetError):
            area.add_feature("x", Point(0, 0), "**")
        with pytest.raises(WidgetError):
            DrawingArea("tiny", width=2, height=1)

    def test_data_extent_and_default_viewport(self):
        area = self.make_area()
        assert area.data_extent() == BBox(0, 0, 20, 20)
        vp = area.viewport
        assert vp.extent.contains_bbox(area.data_extent())

    def test_rasterize_hits_cells(self):
        area = self.make_area()
        raster = area.rasterize()
        assert raster  # something drawn
        symbols = {s for s, __ in raster.values()}
        assert symbols <= {"o", "#"}

    def test_pick_fires_event(self):
        area = self.make_area()
        picks = []
        area.on("pick", lambda e: picks.append(e.data["oid"]))
        raster = area.rasterize()
        (col, row), (symbol, oid) = next(iter(raster.items()))
        assert area.pick_at(col, row) == oid
        assert picks == [oid]

    def test_pick_empty_cell(self):
        area = DrawingArea("map", width=20, height=10)
        area.add_feature("p", Point(0, 0), "o")
        assert area.pick_at(19, 0) is None

    def test_explicit_viewport(self):
        area = self.make_area()
        area.set_viewport(Viewport(BBox(100, 100, 200, 200), 20, 10))
        assert area.rasterize() == {}   # everything outside the window

    def test_clear_features(self):
        area = self.make_area()
        area.rasterize()
        area.clear_features()
        assert area.features == []
        assert area.feature_count == 0
        assert area.data_extent().is_empty()
        assert area.rasterize() == {}

    def test_raster_shows_feature_added_after_drawing(self):
        area = self.make_area()
        before = area.rasterize()
        area.add_feature("p2", Point(2, 18), "+")
        assert area.feature_count == 3
        after = area.rasterize()
        assert ("+", "p2") in after.values()
        assert after != before

    def test_extent_follows_added_features(self):
        area = self.make_area()
        assert area.data_extent() == BBox(0, 0, 20, 20)
        area.add_feature("far", Point(-5, 40))
        assert area.data_extent() == BBox(-5, 0, 20, 40)
        assert area.viewport.extent.contains_bbox(area.data_extent())

    def test_mutating_rasterize_result_leaves_picks_alone(self):
        area = self.make_area()
        raster = area.rasterize()
        (col, row), (__, oid) = next(iter(raster.items()))
        raster.clear()
        raster[(col, row)] = ("x", "ghost")
        assert area.pick_at(col, row) == oid
        assert area.rasterize()[(col, row)][1] == oid

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-20, 120), st.floats(-20, 120),
           st.floats(1, 100), st.floats(1, 100))
    def test_point_lands_in_viewport_to_cell(self, x, y, w, h):
        """The raster places a point in the cell Viewport.to_cell names."""
        area = DrawingArea("map", width=23, height=7)
        area.add_feature("p", Point(x, y), "o")
        viewport = Viewport(BBox(0, 0, w, h), 23, 7)
        area.set_viewport(viewport)
        cell = viewport.to_cell(x, y)
        assert area.rasterize() == ({} if cell is None else {cell: ("o", "p")})


class TestDescribe:
    def test_scene_node_structure(self):
        window = Window("w", title="T")
        panel = Panel("p")
        window.add_child(panel)
        panel.add_child(Button("b", label="Go"))
        node = window.describe()
        assert node["type"] == "window"
        assert node["title"] == "T"
        assert node["children"][0]["children"][0]["label"] == "Go"

    def test_hidden_flag_shown(self):
        window = Window("w", visible=False)
        assert window.describe()["properties"]["visible"] is False
