"""Unit tests for presentation formats and the renderers."""

import pytest

from repro.errors import CustomizationError, RenderError
from repro.geodb import (Attribute, ClassColumns, GeoClass, GeoObject,
                         GeometryType, Schema, TEXT, FLOAT)
from repro.spatial import LineString, MapScale, Point
from repro.uilib import (
    AttributeFormat,
    Button,
    ClassFormat,
    DrawingArea,
    InterfaceObjectLibrary,
    ListWidget,
    Menu,
    Panel,
    PresentationRegistry,
    Slider,
    Text,
    TextRenderer,
    Window,
    install_standard_composites,
    render_text,
    scene_graph,
)


@pytest.fixture()
def registry():
    return PresentationRegistry()


@pytest.fixture()
def library():
    lib = InterfaceObjectLibrary()
    install_standard_composites(lib, persist=False)
    return lib


def make_objects():
    schema = Schema("s")
    schema.add_class(GeoClass("Thing", [
        Attribute("name", TEXT),
        Attribute("length", FLOAT),
        Attribute("geom", GeometryType()),
    ]))
    objs = [
        GeoObject.create(schema, "Thing",
                         {"name": f"t{i}", "geom": Point(i * 10.0, 5.0)})
        for i in range(4)
    ]
    long_line = GeoObject.create(schema, "Thing", {
        "name": "line",
        "geom": LineString([(0.0, 0.0), (0.5, 0.2), (1000.0, 0.0)]),
    })
    return schema, objs, long_line


def place(fmt, area, objs, scale=None):
    """Place the oid and ``geom`` columns of ``objs``, as the builder
    places a class's column set."""
    columns = ClassColumns.transient(objs)
    return fmt.place(area, columns.oids, columns.geometry_column("geom")[0],
                     scale=scale)


class TestClassFormats:
    def test_builtins_registered(self, registry):
        assert set(registry.class_format_names()) >= {
            "defaultFormat", "pointFormat", "lineFormat", "polygonFormat"}

    def test_point_format_places_symbols(self, registry):
        __, objs, __line = make_objects()
        area = DrawingArea("map", width=30, height=10)
        fmt = registry.class_format("pointFormat")
        assert place(fmt, area, objs) == 4
        assert {s for __, __g, s in area.features} == {"o"}

    def test_generalized_format_simplifies(self, registry):
        __, __, line_obj = make_objects()
        area = DrawingArea("map", width=30, height=10)
        fmt = registry.class_format("lineFormat")
        place(fmt, area, [line_obj], scale=MapScale(50_000))
        __, geom, __s = area.features[0]
        assert len(geom.coords) == 2   # interior vertex generalized away

    def test_objects_without_geometry_skipped(self, registry):
        schema, __, __line = make_objects()
        bare = GeoObject.create(schema, "Thing", {"name": "no geom"})
        area = DrawingArea("map")
        assert place(registry.class_format("pointFormat"), area,
                     [bare]) == 0

    def test_unknown_and_duplicate(self, registry):
        with pytest.raises(CustomizationError):
            registry.class_format("mystery")
        with pytest.raises(CustomizationError):
            registry.register_class_format(ClassFormat("pointFormat"))


class TestAttributeFormats:
    def test_default_renders_every_value_shape(self, registry, library):
        fmt = registry.attribute_format("default")
        cases = [
            ("txt", "hello", "hello"),
            ("num", 4.5, "4.5"),
            ("blob", b"abc", "[bitmap, 3 bytes]"),
            ("tup", {"a": 1, "b": 2}, "a=1; b=2"),
            ("geom", Point(1, 2), "POINT (1 2)"),
            ("unset", None, "(unset)"),
        ]
        for name, value, expected in cases:
            widget = fmt.build(library, name, value)
            assert isinstance(widget, Text)
            assert widget.value == expected

    def test_null_hides(self, registry, library):
        assert registry.attribute_format("null").build(
            library, "x", "anything") is None

    def test_slider_clamps(self, registry, library):
        fmt = registry.attribute_format("slider")
        widget = fmt.build(library, "h", 250.0, minimum=0.0, maximum=100.0)
        assert isinstance(widget, Slider)
        assert widget.value == 100.0
        widget2 = fmt.build(library, "h", "not numeric")
        assert widget2.value == 0.0

    def test_composed_text_infers_fields_from_dict(self, registry, library):
        fmt = registry.attribute_format("composed_text")
        widget = fmt.build(library, "comp", {"m": "wood", "d": 0.3})
        assert widget.summary == "wood / 0.3"

    def test_composed_text_without_fields_rejected(self, registry, library):
        with pytest.raises(CustomizationError):
            registry.attribute_format("composed_text").build(
                library, "comp", "scalar value")

    def test_image_placeholder(self, registry, library):
        widget = registry.attribute_format("image").build(
            library, "pic", b"\x00" * 10)
        assert "[image 10 bytes]" in widget.value

    def test_custom_format_registration(self, registry, library):
        registry.register_attribute_format(AttributeFormat(
            "shout", lambda lib, name, value, **o: Text(
                f"attr_{name}", label=name, value=str(value).upper())))
        widget = registry.attribute_format("shout").build(library, "x", "hi")
        assert widget.value == "HI"
        with pytest.raises(CustomizationError):
            registry.register_attribute_format(AttributeFormat(
                "shout", lambda *a, **k: None))


class TestTextRenderer:
    def make_window(self):
        window = Window("w", title="My window")
        control = Panel("control")
        window.add_child(control)
        menu = Menu("m", label="Ops")
        menu.add_item("go", "Go")
        control.add_child(menu)
        control.add_child(Text("t", label="Field", value="val"))
        control.add_child(Button("b", label="Press"))
        lst = ListWidget("l", items=[("a", "Item A"), ("b", "Item B")])
        lst.select("a")
        control.add_child(lst)
        return window

    def test_window_frame_and_content(self):
        out = render_text(self.make_window())
        lines = out.splitlines()
        assert "My window" in lines[0]
        assert lines[0].startswith("+=") and lines[-1].startswith("+=")
        assert any("Field: val" in line for line in lines)
        assert any("[ Press ]" in line for line in lines)
        assert any("> Item A" in line for line in lines)
        assert any("Ops v [Go]" in line for line in lines)
        # frame is rectangular
        assert len({len(line) for line in lines}) == 1

    def test_hidden_window(self):
        window = Window("w", title="secret", visible=False)
        assert "hidden" in render_text(window)

    def test_hidden_widget_skipped(self):
        window = self.make_window()
        window.find("b").set_property("visible", False)
        assert "[ Press ]" not in render_text(window)

    def test_horizontal_panel_one_line(self):
        panel = Panel("p", layout="horizontal")
        panel.add_child(Button("a", label="A"))
        panel.add_child(Button("b", label="B"))
        out = render_text(panel)
        assert "[ A ]   [ B ]" in out

    def test_slider_rendering(self):
        slider = Slider("s", minimum=0, maximum=10, value=5, label="H")
        out = render_text(slider)
        assert out.startswith("H: 0 [")
        assert "(5)" in out

    def test_drawing_area_rendering(self):
        area = DrawingArea("map", width=10, height=4)
        area.add_feature("p", Point(5, 5), "o")
        out = render_text(area)
        assert "o" in out
        assert "features: 1" in out

    def test_empty_list_placeholder(self):
        lst = ListWidget("l", label="Things")
        assert "(empty)" in render_text(lst)

    def test_renderer_width_validated(self):
        with pytest.raises(RenderError):
            TextRenderer(max_width=10)

    def test_unknown_widget_fallback(self):
        from repro.uilib.base import InterfaceObject

        class Custom(InterfaceObject):
            widget_type = "custom"
            allowed_children = ("button",)

        widget = Custom("c")
        widget.add_child(Button("b", label="In"))
        out = render_text(widget)
        assert "<custom c>" in out
        assert "[ In ]" in out


class TestSceneGraph:
    def test_scene_matches_describe(self):
        window = Window("w", title="T")
        assert scene_graph(window) == window.describe()
