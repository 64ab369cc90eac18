"""Direct tests for public API surfaces not exercised elsewhere."""

import pytest

from repro.active import Event, EventBus, EventKind, Rule, RuleManager
from repro.errors import RuleError
from repro.geodb import GeographicDatabase, fresh_oid
from repro.geodb.instances import ensure_oid_counter_above
from repro.geodb.storage import FilePager, SlottedPage
from repro.spatial import BBox, MapScale, Point, Polygon, RTree, Ring, Viewport


class TestBBoxStretched:
    def test_stretched_grows_minimally(self):
        box = BBox(0, 0, 1, 1).stretched(5, -2)
        assert box == BBox(0, -2, 5, 1)

    def test_stretched_from_empty(self):
        box = BBox.empty().stretched(3, 4)
        assert box.as_tuple() == (3, 4, 3, 4)


class TestRingAndPolygonAccessors:
    def test_closed_coords_repeats_first(self):
        ring = Ring([(0, 0), (1, 0), (1, 1)])
        closed = ring.closed_coords()
        assert closed[0] == closed[-1]
        assert len(closed) == 4

    def test_rings_iterates_exterior_then_holes(self):
        poly = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)],
                       holes=[[(2, 2), (4, 2), (4, 4), (2, 4)]])
        rings = list(poly.rings())
        assert rings[0] is poly.exterior
        assert rings[1] is poly.holes[0]


class TestRTreeSearchEntries:
    def test_entries_include_boxes(self):
        tree = RTree()
        box = BBox(0, 0, 2, 2)
        tree.insert(box, "a")
        entries = tree.search_entries(BBox(1, 1, 3, 3))
        assert entries == [(box, "a")]

    def test_empty_window(self):
        tree = RTree()
        tree.insert(BBox(0, 0, 1, 1), "a")
        assert tree.search_entries(BBox.empty()) == []


class TestViewportImpliedScale:
    def test_implied_scale_magnitude(self):
        # 1000 ground units over 10 cells -> 100 units/cell; at 3 mm per
        # cell that is ~33.3 m/mm -> scale ~1:33333
        vp = Viewport(BBox(0, 0, 1000, 1000), width=10, height=10)
        scale = vp.implied_scale(mm_per_cell=3.0)
        assert scale.denominator == pytest.approx(33333.33, rel=0.01)
        assert isinstance(scale, MapScale)


class TestSlottedPageFreeSpace:
    def test_free_space_decreases_with_content(self):
        page = SlottedPage(page_size=4096)
        before = page.free_space()
        page.add(b"x" * 100)
        after = page.free_space()
        assert after < before
        assert after >= before - 100 - 40  # payload + slot-entry reserve


class TestFilePagerSync:
    def test_sync_flushes_to_disk(self, tmp_path):
        path = str(tmp_path / "sync.db")
        pager = FilePager(path)
        no = pager.allocate_page()
        pager.write_page(no, b"durable")
        pager.sync()
        with open(path, "rb") as f:
            assert f.read().startswith(b"durable")
        pager.close()


class TestRuleManagerDirectAPI:
    def test_add_rule_object(self):
        bus = EventBus()
        manager = RuleManager(bus)
        rule = Rule(name="direct", events=frozenset([EventKind.GET_SCHEMA]),
                    condition=lambda e: True, action=lambda e, m: "ran")
        assert manager.add_rule(rule) is rule
        with pytest.raises(RuleError):
            manager.add_rule(rule)
        manager.detach()

    def test_select_rules_respects_policy(self):
        bus = EventBus()
        manager = RuleManager(bus)
        manager.define("lo", [EventKind.GET_SCHEMA], lambda e: True,
                       lambda e, m: None, priority=1, group="g")
        manager.define("hi", [EventKind.GET_SCHEMA], lambda e: True,
                       lambda e, m: None, priority=2, group="g")
        event = Event(EventKind.GET_SCHEMA, "s")
        assert [r.name for r in manager.select_rules(event)] == ["hi", "lo"]
        from repro.active import SelectionPolicy

        manager.set_policy("g", SelectionPolicy.HIGHEST_PRIORITY)
        assert manager.policy("g") is SelectionPolicy.HIGHEST_PRIORITY
        assert [r.name for r in manager.select_rules(event)] == ["hi"]
        manager.detach()


class TestEngineDecisionsFor:
    def test_decisions_for_lists_everything(self, phone_db, juliano_session,
                                            pole_oid):
        from repro.lang import FIGURE_6_PROGRAM

        session = juliano_session
        session.install_program(FIGURE_6_PROGRAM, persist=False)
        phone_db.get_value(pole_oid, context=session.context)
        event_id = phone_db.bus.last_event.event_id
        decisions = session.engine.decisions_for(event_id)
        assert len(decisions) == 3  # three attribute rules fired
        assert all(d.kind == "instance" for d in decisions)

    def test_decisions_for_unknown_event(self, phone_db, generic_session):
        assert generic_session.engine.decisions_for(10**9) == []


class TestOidGeneration:
    def test_fresh_oid_has_class_prefix_and_monotonic(self):
        a = fresh_oid("Pole")
        b = fresh_oid("Pole")
        assert a.startswith("Pole#") and b.startswith("Pole#")
        assert int(a.split("#")[1]) < int(b.split("#")[1])

    def test_ensure_counter_skips_forward(self):
        current = int(fresh_oid("X").split("#")[1])
        ensure_oid_counter_above(current + 500)
        assert int(fresh_oid("X").split("#")[1]) > current + 500

    def test_ensure_counter_never_rewinds(self):
        current = int(fresh_oid("X").split("#")[1])
        ensure_oid_counter_above(1)   # far below; must not rewind
        assert int(fresh_oid("X").split("#")[1]) > current


class TestSchemaAccessors:
    def test_has_class_and_attribute_partitions(self, phone_db):
        schema = phone_db.get_schema_object("phone_net")
        assert schema.has_class("Pole")
        assert not schema.has_class("Tree")
        pole = schema.get_class("Pole")
        assert [a.name for a in pole.spatial_attributes()] == [
            "pole_location"]
        assert [a.name for a in pole.reference_attributes()] == [
            "pole_supplier"]


class TestDatabaseStatsBuffer:
    def test_stats_buffer_shape(self):
        db = GeographicDatabase("S")
        snap = db.stats_buffer()
        assert set(snap) == {"hits", "misses", "evictions", "write_backs",
                             "hit_ratio", "write_allocs", "bulk_reads",
                             "pin_denials", "resident_frames"}


class TestPresentationRegistryQueries:
    def test_has_and_names(self):
        from repro.uilib import PresentationRegistry

        registry = PresentationRegistry()
        assert registry.has_class_format("pointFormat")
        assert not registry.has_class_format("ghost")
        assert registry.has_attribute_format("composed_text")
        assert not registry.has_attribute_format("ghost")
        assert "slider" in registry.attribute_format_names()
        assert "lineFormat" in registry.class_format_names()


class TestLangSingleDirectiveEntry:
    def test_parse_directive_and_check_directive(self, phone_db):
        from repro.lang.parser import Parser
        from repro.lang.semantics import SemanticAnalyzer
        from repro.uilib import (
            InterfaceObjectLibrary,
            PresentationRegistry,
            install_standard_composites,
        )

        parser = Parser(
            "for user x schema phone_net display as default "
            "class Pole display")
        node = parser.parse_directive()
        assert node.context.user == "x"
        library = InterfaceObjectLibrary()
        install_standard_composites(library, persist=False)
        analyzer = SemanticAnalyzer(phone_db, library,
                                    PresentationRegistry())
        checked = analyzer.check_directive(node)
        assert checked.classes[0].class_name == "Pole"


class TestInteractionPickMapStep:
    def test_pick_map_step(self, phone_db):
        from repro.core import GISSession
        from repro.ui import InteractionScript

        session = GISSession(phone_db, user="u", application="a")
        session.connect("phone_net")
        session.select_class("Pole")
        area = session.screen.window("classset_Pole").find("map")
        (col, row), __ = next(iter(area.rasterize().items()))
        script = InteractionScript().pick_map("Pole", col, row)
        results = script.run(session)
        assert results[0].ok
        assert results[0].output is not None
