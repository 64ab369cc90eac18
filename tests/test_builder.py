"""Unit tests for the generic interface builder."""

import pytest

from repro.core import (
    AttributeCustomization,
    ClassCustomization,
    CustomizationDecision,
    GenericInterfaceBuilder,
    apply_using_binding,
    resolve_source,
)
from repro.errors import CustomizationError
from repro.uilib import (
    Button,
    InterfaceObjectLibrary,
    ListWidget,
    Slider,
    install_standard_composites,
)
from repro.ui import (
    class_window_areas,
    displayed_attribute_names,
    instance_attribute_panels,
    map_symbols,
)


@pytest.fixture()
def builder():
    library = InterfaceObjectLibrary()
    install_standard_composites(library, persist=False)
    return GenericInterfaceBuilder(library)


def schema_info(phone_db):
    return phone_db.get_schema("phone_net")


def class_data(phone_db, name="Pole"):
    geo_class, objects = phone_db.get_class("phone_net", name)
    schema = phone_db.get_schema_object("phone_net")
    return geo_class, schema.effective_attributes(name), objects


class TestSchemaWindow:
    def test_default_lists_all_classes(self, builder, phone_db):
        window = builder.build_schema_window(schema_info(phone_db))
        class_list = window.find("classes")
        assert isinstance(class_list, ListWidget)
        keys = [k for k, __ in class_list.items]
        assert "Pole" in keys and "Duct" in keys
        assert window.visible
        assert window.get_property("window_kind") == "schema"
        assert window.get_property("display_mode") == "default"

    def test_counts_shown(self, builder, phone_db):
        window = builder.build_schema_window(schema_info(phone_db))
        labels = dict(window.find("classes").items)
        assert labels["Pole"].endswith(
            f"({phone_db.count('phone_net', 'Pole')})")

    def test_hierarchy_mode_indents_subclasses(self, builder, phone_db):
        decision = CustomizationDecision(kind="schema", rule_name="r",
                                         directive_name="d",
                                         schema_display="hierarchy")
        window = builder.build_schema_window(schema_info(phone_db), decision)
        labels = dict(window.find("classes").items)
        assert labels["Pole"].startswith("  ")          # child of NetworkElement
        assert not labels["NetworkElement"].startswith(" ")

    def test_null_mode_builds_hidden_window(self, builder, phone_db):
        decision = CustomizationDecision(kind="schema", rule_name="r",
                                         directive_name="d",
                                         schema_display="null")
        window = builder.build_schema_window(schema_info(phone_db), decision)
        assert not window.visible
        assert window.find("classes") is not None   # hierarchy still built

    def test_user_defined_mode_marks_hook(self, builder, phone_db):
        decision = CustomizationDecision(kind="schema", rule_name="r",
                                         directive_name="d",
                                         schema_display="user_defined")
        window = builder.build_schema_window(schema_info(phone_db), decision)
        assert window.get_property("user_defined_hook") is True


class TestClassWindow:
    def test_default_structure(self, builder, phone_db):
        geo_class, attributes, objects = class_data(phone_db)
        window = builder.build_class_window(geo_class, attributes, objects)
        control, presentation = class_window_areas(window)
        assert control.find("operations") is not None
        assert control.find("class_schema") is not None
        assert presentation.find("map") is not None
        # default control widget is a button labelled with the class name
        widget = control.find("class_widget_Pole")
        assert isinstance(widget, Button)
        assert widget.label == "Pole"
        # default presentation format
        assert window.get_property("presentation_format") == "defaultFormat"
        assert map_symbols(window) == {"*"}

    def test_instance_list_complete(self, builder, phone_db):
        geo_class, attributes, objects = class_data(phone_db)
        window = builder.build_class_window(geo_class, attributes, objects)
        listed = [k for k, __ in window.find("instances").items]
        assert listed == phone_db.extent("phone_net", "Pole").oids()

    def test_customized_control_and_format(self, builder, phone_db):
        geo_class, attributes, objects = class_data(phone_db)
        decision = CustomizationDecision(
            kind="class", rule_name="r", directive_name="d",
            class_clause=ClassCustomization(
                "Pole", control_widget="poleWidget",
                presentation_format="pointFormat"))
        window = builder.build_class_window(geo_class, attributes, objects,
                                            decision)
        assert isinstance(window.find("class_widget_Pole"), Slider)
        assert map_symbols(window) == {"o"}
        assert window.get_property("presentation_format") == "pointFormat"

    def test_unknown_control_widget_rejected(self, builder, phone_db):
        geo_class, attributes, objects = class_data(phone_db)
        decision = CustomizationDecision(
            kind="class", rule_name="r", directive_name="d",
            class_clause=ClassCustomization("Pole",
                                            control_widget="ghostWidget"))
        with pytest.raises(CustomizationError):
            builder.build_class_window(geo_class, attributes, objects,
                                       decision)

    def test_class_without_geometry_gets_empty_map(self, builder, phone_db):
        geo_class, attributes, objects = class_data(phone_db, "Supplier")
        window = builder.build_class_window(geo_class, attributes, objects)
        assert window.find("map").features == []
        assert window.get_property("geometry_attribute") is None


class TestInstanceWindow:
    def test_default_one_panel_per_attribute(self, builder, phone_db,
                                              pole_oid):
        obj = phone_db.get_object(pole_oid)
        geo_class, attributes, __ = class_data(phone_db)
        window = builder.build_instance_window(obj, geo_class, attributes)
        assert displayed_attribute_names(window) == [
            a.name for a in attributes]

    def test_null_format_hides_attribute(self, builder, phone_db, pole_oid):
        obj = phone_db.get_object(pole_oid)
        geo_class, attributes, __ = class_data(phone_db)
        window = builder.build_instance_window(
            obj, geo_class, attributes,
            {"pole_location": AttributeCustomization("pole_location", "null")},
        )
        assert "pole_location" not in displayed_attribute_names(window)

    def test_composed_text_with_sources(self, builder, phone_db, pole_oid):
        obj = phone_db.get_object(pole_oid)
        geo_class, attributes, __ = class_data(phone_db)
        custom = AttributeCustomization(
            "pole_composition", "composed_text",
            sources=("pole_composition.pole_material",
                     "pole_composition.pole_height"),
            using="composed_text.notify()",
        )
        window = builder.build_instance_window(
            obj, geo_class, attributes, {"pole_composition": custom},
            database=phone_db)
        panel = instance_attribute_panels(window)["pole_composition"]
        composed = panel.children[0]
        material = obj.get("pole_composition")["pole_material"]
        assert material in composed.summary

    def test_method_call_source(self, builder, phone_db, pole_oid):
        obj = phone_db.get_object(pole_oid)
        geo_class, attributes, __ = class_data(phone_db)
        custom = AttributeCustomization(
            "pole_supplier", "text",
            sources=("get_supplier_name(pole_supplier)",))
        window = builder.build_instance_window(
            obj, geo_class, attributes, {"pole_supplier": custom},
            database=phone_db)
        panel = instance_attribute_panels(window)["pole_supplier"]
        supplier = phone_db.get_object(obj.get("pole_supplier"))
        assert panel.children[0].value == supplier.get("name")


class TestSourceResolution:
    def test_dotted_path(self, phone_db, pole_oid):
        obj = phone_db.get_object(pole_oid)
        geo_class = phone_db.get_schema_object("phone_net").get_class("Pole")
        value = resolve_source(phone_db, obj, geo_class,
                               "pole_composition.pole_material")
        assert value == obj.get("pole_composition")["pole_material"]

    def test_method_call(self, phone_db, pole_oid):
        obj = phone_db.get_object(pole_oid)
        geo_class = phone_db.get_schema_object("phone_net").get_class("Pole")
        name = resolve_source(phone_db, obj, geo_class,
                              "get_supplier_name(pole_supplier)")
        assert isinstance(name, str) and name

    def test_bad_path_rejected(self, phone_db, pole_oid):
        obj = phone_db.get_object(pole_oid)
        geo_class = phone_db.get_schema_object("phone_net").get_class("Pole")
        with pytest.raises(CustomizationError):
            resolve_source(phone_db, obj, geo_class, "pole_composition.ghost")

    def test_malformed_call_rejected(self, phone_db, pole_oid):
        obj = phone_db.get_object(pole_oid)
        geo_class = phone_db.get_schema_object("phone_net").get_class("Pole")
        with pytest.raises(CustomizationError):
            resolve_source(phone_db, obj, geo_class, "broken(pole")

    def test_method_needs_database(self, phone_db, pole_oid):
        obj = phone_db.get_object(pole_oid)
        geo_class = phone_db.get_schema_object("phone_net").get_class("Pole")
        with pytest.raises(CustomizationError):
            resolve_source(None, obj, geo_class,
                           "get_supplier_name(pole_supplier)")


class TestUsingBindings:
    def test_method_binding(self):
        library = InterfaceObjectLibrary()
        install_standard_composites(library, persist=False)
        widget = library.create("composed_text", fields=["a"])
        widget.child("part_a").set_value("v")
        apply_using_binding(widget, "composed_text.notify()")
        assert widget.summary == "v"

    def test_event_binding(self):
        button = Button("b")
        hits = []
        button.on("blink", lambda e: hits.append(1))
        apply_using_binding(button, "b.blink()")
        assert hits == [1]

    def test_non_call_rejected(self):
        with pytest.raises(CustomizationError):
            apply_using_binding(Button("b"), "no_parens")

    def test_unknown_behavior_rejected(self):
        with pytest.raises(CustomizationError):
            apply_using_binding(Button("b"), "b.teleport()")
