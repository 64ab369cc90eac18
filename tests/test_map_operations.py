"""Tests for the Class-set window's map operations (zoom / pan)."""

import pytest

from repro.core import GISSession
from repro.uilib import DrawingArea


@pytest.fixture()
def class_window(generic_session):
    generic_session.connect("phone_net")
    generic_session.select_class("Pole")
    return generic_session.screen.window("classset_Pole")


class TestZoom:
    def test_zoom_halves_extent(self, class_window):
        area = class_window.find("map")
        before = area.viewport.extent
        class_window.find("operations").activate("zoom")
        after = area.viewport.extent
        assert after.width == pytest.approx(before.width / 2)
        assert after.center() == pytest.approx(before.center())

    def test_zoom_fires_event(self, class_window):
        area = class_window.find("map")
        events = []
        area.on("zoom", lambda e: events.append(e.data["extent"]))
        class_window.find("operations").activate("zoom")
        assert len(events) == 1

    def test_zoom_reduces_visible_features(self, class_window):
        area = class_window.find("map")
        visible_before = len({oid for __, (s, oid)
                              in area.rasterize().items()})
        for __ in range(4):
            class_window.find("operations").activate("zoom")
        visible_after = len({oid for __, (s, oid)
                             in area.rasterize().items()})
        assert visible_after < visible_before


class TestPan:
    def test_pan_shifts_east(self, class_window):
        area = class_window.find("map")
        before = area.viewport.extent
        class_window.find("operations").activate("pan")
        after = area.viewport.extent
        assert after.min_x == pytest.approx(before.min_x + before.width / 4)
        assert after.width == pytest.approx(before.width)

    def test_repeated_pans_accumulate(self, class_window):
        area = class_window.find("map")
        start = area.viewport.extent.min_x
        for __ in range(3):
            class_window.find("operations").activate("pan")
        assert area.viewport.extent.min_x > start


class TestInteraction:
    def test_pick_still_works_after_zoom(self, phone_db, generic_session):
        generic_session.connect("phone_net")
        generic_session.select_class("Pole")
        window = generic_session.screen.window("classset_Pole")
        window.find("operations").activate("zoom")
        area = window.find("map")
        raster = area.rasterize()
        if raster:  # a feature is still visible
            (col, row), (__, oid) = next(iter(raster.items()))
            assert generic_session.pick_on_map("Pole", col, row) == oid
            assert f"instance_{oid}" in generic_session.screen.names()

    def test_refresh_resets_viewport(self, phone_db):
        """A refreshed window is rebuilt; viewport resets to data extent."""
        session = GISSession(phone_db, user="u", application="a",
                             auto_refresh=True)
        session.connect("phone_net")
        session.select_class("Pole")
        window = session.screen.window("classset_Pole")
        window.find("operations").activate("zoom")
        from repro.spatial import Point

        phone_db.insert("phone_net", "Pole",
                        {"pole_location": Point(1.0, 1.0)})
        new_window = session.screen.window("classset_Pole")
        assert new_window is not window
        area = new_window.find("map")
        assert area.viewport.extent.contains_bbox(area.data_extent())


class TestRasterAfterViewportChange:
    @pytest.mark.parametrize("item", ["zoom", "pan"])
    def test_operation_redraws_map(self, class_window, item):
        """Zoom and pan drop the drawn raster: the map and picks follow
        the new viewport."""
        area = class_window.find("map")
        before = area.rasterize()
        class_window.find("operations").activate(item)
        fresh = DrawingArea("twin", width=area.width, height=area.height)
        for oid, geom, symbol in area.features:
            fresh.add_feature(oid, geom, symbol)
        fresh.set_viewport(area.viewport)
        after = area.rasterize()
        assert after == fresh.rasterize()
        assert after != before
        for (col, row), (__, oid) in after.items():
            assert area.pick_at(col, row) == oid
