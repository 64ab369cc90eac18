"""The three seeded §4 workloads, their dataset and their answer checks.

Every workload interleaves all of its request kinds in one fixed
per-iteration composition, so machine drift during a run hits every
kind alike and the pooled percentiles do not shift with the mix. Random
choices (instances, viewports, edits) come from the run's seed, so two
runs with one seed send the same requests in the same order.

Each workload also carries a small share of every other kind (browse
steps, cold and cached queries, a watched commit), so that every
end-to-end metric is measured on every workload; which layer dominates
still differs per workload (see perfbench/README.md).
"""

from __future__ import annotations

import os
import random
import re

from repro.core.kernel import GISKernel
from repro.geodb import FilePager, GeographicDatabase, MetadataCatalog
from repro.geodb.query_engine import QueryEngine
from repro.geodb.query_language import parse_query
from repro.lang import FIGURE_6_PROGRAM
from repro.spatial.geometry import LineString
from repro.workloads import (
    PhoneNetParams,
    build_phone_net_schema,
    populate_phone_net,
    register_pole_methods,
)

SCHEMA = "phone_net"
POLES_PER_STREET = 20
BLOCK_SIZE = 120.0
#: user contexts: the paper's Figure 6 session and a generic one
JULIANO = {"user": "juliano", "application": "pole_manager"}
MARIA = {"user": "maria", "application": "browser"}
#: classes small enough to browse without the Pole list's O(n^2) build
SMALL_CLASSES = ("Supplier", "District", "Duct")
SUPPLIER_WATCH = "select name, rating from Supplier where rating >= 3"
#: distinct query texts compared with the reference after a run; all of
#: browse's and edit_watch's, about a quarter of analyze's (checking
#: every one would add ~12 s to each analyze run)
CHECKED_ANSWERS = 2000

#: one instance-list line of a rendered class window ("> " = selected)
_CLASS_ITEM = re.compile(r"^\|\s+>?\s*(Pole#\d+)\s*\|$", re.M)
_SUPPLIER_LINE = re.compile(r"pole_supplier: (.*?)\s*\|")


class Dataset:
    """The seeded phone net, persisted to ``path`` and kept in memory as
    the reference the answers are checked against."""

    def __init__(self, blocks: int, seed: int, path: str):
        self.db = db = GeographicDatabase("GEO", pager=FilePager(path))
        db.register_schema(build_phone_net_schema())
        register_pole_methods(db)
        populate_phone_net(db, PhoneNetParams(
            blocks_x=blocks, blocks_y=blocks, block_size=BLOCK_SIZE,
            poles_per_street=POLES_PER_STREET, seed=seed))
        MetadataCatalog(db).save_all_schemas()
        db.checkpoint()
        db.pager.flush()
        self.width = blocks * BLOCK_SIZE
        self.engine = QueryEngine(db)
        self.pole_oids = db.extent(SCHEMA, "Pole").oids()
        self.poles = {}
        for obj in db.extent(SCHEMA, "Pole"):
            loc = obj.get("pole_location")
            self.poles[obj.oid] = {
                "status": obj.get("status"),
                "install_year": obj.get("install_year"),
                "x": loc.x, "y": loc.y,
                "supplier": obj.get("pole_supplier"),
            }
        self.suppliers = {
            obj.oid: {"name": obj.get("name"), "rating": obj.get("rating")}
            for obj in db.extent(SCHEMA, "Supplier")
        }
        self.cables = {obj.oid: obj.get("pair_count")
                       for obj in db.extent(SCHEMA, "Cable")}
        self._cable_route = next(
            a for a in db.get_schema_object(SCHEMA).effective_attributes(
                "Cable") if a.name == "cable_route").type
        self._kernel = None

    def close(self) -> None:
        self.db.pager.close()

    def reference(self, text: str):
        """(oids, rows) of an in-process execution of ``text``."""
        result = self.engine.execute(SCHEMA, parse_query(text))
        return result.oids(), result.rows

    def pick_cells(self, context: dict) -> list[tuple[int, int, str]]:
        """Map cells of the Pole class window that hit a pole, as the
        server should resolve them for a session in ``context``."""
        if self._kernel is None:
            self._kernel = GISKernel(self.db)
            self._kernel.install_program(FIGURE_6_PROGRAM, persist=False)
        session = self._kernel.session(**context)
        session.connect(SCHEMA)
        window = session.select_class("Pole")
        raster = window.find("map").rasterize()
        session.shutdown()
        return sorted((col, row, oid)
                      for (col, row), (__, oid) in raster.items())

    def encode_route(self, a: str, b: str) -> dict:
        pa, pb = self.poles[a], self.poles[b]
        return self._cable_route.encode(
            LineString([(pa["x"], pa["y"]), (pb["x"], pb["y"])]))


# ---------------------------------------------------------------------------
# Query texts
# ---------------------------------------------------------------------------


def _box(rng: random.Random, width: float, lo: float, hi: float) -> str:
    w = rng.uniform(lo, hi)
    x = rng.uniform(0.0, width - w)
    y = rng.uniform(0.0, width - w)
    return f"bbox({x:.2f}, {y:.2f}, {x + w:.2f}, {y + w:.2f})"


def analysis_query(rng: random.Random, template: int, width: float) -> str:
    """One analysis-mode query; the float parameters make the text space
    far larger than the 128-entry result cache. Parameter ranges keep
    results to a few hundred objects at most, as an analysis screen
    would: a few 2,000-object answers made the latency tail swing
    between runs."""
    if template == 0:
        return ("select * from Pole where within(pole_location, "
                f"{_box(rng, width, width / 24, width / 6)})")
    if template == 1:
        return ("select pair_count from Cable where intersects(cable_route, "
                f"{_box(rng, width, width / 24, width / 8)})")
    if template == 2:
        status = rng.choice(("ok", "maintenance"))
        return ("select * from Pole where pole_composition.pole_height > "
                f"{rng.uniform(13.5, 16.0):.3f} and status = '{status}'")
    if template == 3:
        return ("select pole_type, install_year from Pole where "
                f"install_year >= {rng.randint(1988, 1996)} and "
                "pole_composition.pole_diameter < "
                f"{rng.uniform(0.15, 0.25):.4f}")
    if template == 4:
        low = rng.randint(1970, 1990)
        return ("select count(*), min(install_year), max(install_year) "
                f"from NetworkElement where install_year >= {low} and "
                f"install_year <= {low + rng.randint(0, 2)} and status = "
                f"'{rng.choice(('ok', 'maintenance'))}' including subclasses")
    return ("select install_year, status from Pole where "
            f"pole_composition.pole_height > {rng.uniform(8.0, 15.0):.3f} "
            f"order by desc install_year limit {rng.choice((5, 10, 20))}")


TEMPLATES = 6


# ---------------------------------------------------------------------------
# Shared load-generator machinery
# ---------------------------------------------------------------------------


class Workload:
    """One workload's request stream, bookkeeping and checks."""

    name = ""
    blocks = 30
    roles = 1
    #: iterations before timing starts (caches fill, lazy set-up ends)
    warmup = 8
    #: iterations in the traced run's exact-count window
    count_window = 40
    #: repeated query texts, far fewer than the 128-entry result cache
    hot_size = 8

    def __init__(self, seed: int, data: Dataset):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.data = data
        self.wire = None
        #: (kind, latency s, request id, sent, received, tag) per request
        self.samples: list[tuple] = []
        self.recording = False
        self.attempted = 0
        self.failures: list[str] = []
        self.answers: dict[str, tuple] = {}
        self.push_lags: list[float] = []
        self.sessions: dict[str, str] = {}
        self.suppliers = {oid: dict(v) for oid, v in data.suppliers.items()}
        self.hot = self.hot_queries()
        #: pushes the server owes, per connection, not yet matched
        self.expected: dict[int, list] = {}

    def hot_queries(self) -> list[str]:
        """The repeated texts, one per template in turn."""
        return [analysis_query(self.rng, i % TEMPLATES, self.data.width)
                for i in range(self.hot_size)]

    # -- requests -----------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def call(self, kind: str, role: int, wire_kind: str, tag: str = "",
             **fields):
        """One request; recorded when timing, failed when not ok."""
        response, sent, received = self.wire.call(role, wire_kind, **fields)
        self.attempted += 1
        if self.recording:
            self.samples.append((kind, received - sent, response.get("id"),
                                 sent, received, tag))
        if not response.get("ok"):
            self.fail(f"{kind}: {response.get('code')}: "
                      f"{response.get('error')}")
            return None, sent
        return response, sent

    def setup_call(self, role: int, wire_kind: str, **fields) -> dict:
        """An untimed set-up request; any failure aborts the run."""
        response, __, __ = self.wire.call(role, wire_kind, **fields)
        if not response.get("ok"):
            raise RuntimeError(f"set-up {wire_kind} failed: {response}")
        return response

    def open_session(self, role: int, label: str, context: dict,
                     **extra) -> str:
        sid = self.setup_call(role, "open_session", **context,
                              **extra)["session"]
        self.sessions[label] = sid
        return sid

    # -- §4 browse steps ---------------------------------------------------

    def select_class(self, role: int, sid: str, tag: str, name: str
                     ) -> bool:
        response, __ = self.call("select_class", role, "event", tag,
                                 session=sid, op="select_class", name=name)
        if response is None:
            return False
        if response["window"] != f"classset_{name}" \
                or not response["visible"]:
            self.fail(f"select_class {name}: got {response['window']}")
            return False
        return True

    def select_instance(self, role: int, sid: str, tag: str, oid: str
                        ) -> bool:
        response, __ = self.call("select_instance", role, "event", tag,
                                 session=sid, op="select_instance", oid=oid)
        if response is None:
            return False
        if response["window"] != f"instance_{oid}" \
                or not response["visible"]:
            self.fail(f"select_instance {oid}: got {response['window']}")
            return False
        return True

    def render_instance(self, role: int, sid: str, tag: str, oid: str
                        ) -> None:
        """Render an instance window; the Figure 6 session (tag "J")
        shows the supplier name ``get_supplier_name`` derives, the
        generic one the supplier's oid."""
        response, __ = self.call("render", role, "render", tag, session=sid,
                                 window=f"instance_{oid}")
        if response is None:
            return
        supplier = self.data.poles[oid]["supplier"]
        want = self.suppliers[supplier]["name"] if tag == "J" else supplier
        got = _SUPPLIER_LINE.search(response["text"])
        if got is None or got.group(1) != want:
            self.fail(f"render {oid}: supplier "
                      f"{got.group(1) if got else None!r} != {want!r}")

    def close(self, role: int, sid: str, tag: str, window: str) -> None:
        self.call("close", role, "event", tag, session=sid,
                  op="close_window", window=window)

    # -- queries -------------------------------------------------------------

    def query(self, role: int, text: str, check=None) -> None:
        """An analysis query, classed by the server's cache verdict.
        Answers are kept for the reference comparison after the run,
        unless ``check`` verifies them on the spot."""
        response, __ = self.call("query", role, "query", schema=SCHEMA,
                                 text=text)
        if response is None:
            return
        if response.get("cache") == "hit" and self.recording:
            self.samples[-1] = ("query_cached",) + self.samples[-1][1:]
        answer = (response["oids"], response["rows"])
        if check is not None:
            problem = check(answer)
            if problem:
                self.fail(f"query {text!r}: {problem}")
        elif self.answers.setdefault(text, answer) != answer:
            self.fail(f"query {text!r}: answer changed between repeats")

    def check_answers(self) -> None:
        """Compare kept answers with the in-process reference: the first
        ``CHECKED_ANSWERS`` distinct texts, which include the hot set."""
        for text, answer in list(self.answers.items())[:CHECKED_ANSWERS]:
            ordered = " order by " in text
            if _canonical(answer, ordered) != _canonical(
                    self.data.reference(text), ordered):
                self.fail(f"query {text!r}: differs from the reference")

    # -- watched commits -------------------------------------------------------

    def supplier_result(self) -> dict:
        return {oid: {"oid": oid, **v} for oid, v in self.suppliers.items()
                if v["rating"] >= 3}

    def commit(self, role: int, ops: list, pushes: list,
               push_role: int) -> None:
        """A durable txn; ``pushes`` are (key, check) for each push the
        commit must cause on ``push_role``'s connection."""
        response, sent = self.call("commit", role, "txn", ops=ops)
        queue = self.expected.setdefault(push_role, [])
        queue.extend(pushes)
        conn = self.wire.conns[push_role]
        if pushes and self.wire.wait_pushes(push_role, len(queue), 5.0):
            lives = [at for at, frame in conn.pushes[-len(pushes):]
                     if frame["push"] == "live_update"]
            if lives and self.recording:
                self.push_lags.append(min(lives) - sent)

    def reconcile(self, role: int) -> None:
        """Match the pushes received on ``role`` with those owed.

        Called when the connection's stream is known to hold every push
        of the commits so far (a later response on the same socket has
        arrived): each owed push must be there exactly once, with the
        expected content, and nothing else may be."""
        conn = self.wire.conns[role]
        owed = self.expected.get(role, [])
        got = [frame for __, frame in conn.pushes]
        conn.pushes.clear()
        self.expected[role] = []
        if len(got) != len(owed):
            self.fail(f"pushes on connection {role}: received {len(got)}, "
                      f"expected {len(owed)}")
            return
        # pushes of one commit may come in any order, commits come in
        # commit order: match each owed push with the first unmatched
        # received push of the same key
        for key, check in owed:
            frame = next((f for f in got if _push_key(f) == key), None)
            if frame is None:
                self.fail(f"push {key} missing; received "
                          f"{[_push_key(f) for f in got]}")
                return
            got.remove(frame)
            problem = check(frame)
            if problem:
                self.fail(f"push {key}: {problem}")

    def supplier_commit(self, role: int, watch: str) -> None:
        oid = self.rng.choice(sorted(self.suppliers))
        old = self.suppliers[oid]["rating"]
        new = self.rng.choice([r for r in range(1, 6) if r != old])
        self.suppliers[oid]["rating"] = new
        pushes = []
        if old >= 3 or new >= 3:
            want = self.supplier_result()
            pushes.append(live_push(watch, want))
        self.commit(role, [{"op": "update", "oid": oid,
                            "changes": {"rating": new}}], pushes, role)
        self.reconcile(role)

    # -- hooks -----------------------------------------------------------------

    def open(self, wire) -> None:
        raise NotImplementedError

    def step(self, i: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks after the timed loop (pushes drained, answers compared)."""
        self.wire.drain(0.2)
        for role in range(self.roles):
            self.reconcile(role)
        self.check_answers()


def _canonical(answer: tuple, ordered: bool) -> tuple:
    """An answer with the plan-defined row order of an unordered query
    (R-tree order after an index scan) taken out."""
    oids, rows = answer
    if ordered:
        return oids, rows
    keyed = None if rows is None else sorted(
        (row.get("oid", ""), sorted(row.items())) for row in rows)
    return sorted(oids), keyed


def _push_key(frame: dict) -> tuple:
    if frame.get("push") == "live_update":
        return ("live_update", frame.get("watch"))
    return (frame.get("push"), frame.get("oid"))


def live_push(watch: str, want_rows: dict):
    """An owed ``live_update`` whose rows, keyed by oid, equal
    ``want_rows`` (row order of an unordered result is plan-defined)."""
    def check(frame):
        rows = {row["oid"]: row for row in frame["rows"] or []}
        if sorted(frame["oids"]) != sorted(want_rows):
            return "membership differs from the model"
        if rows != want_rows:
            return "rows differ from the model"
        return None
    return (("live_update", watch), check)


def aggregate_push(watch: str, want_row: dict):
    def check(frame):
        if frame["rows"] != [want_row]:
            return f"aggregate {frame['rows']} != {[want_row]}"
        return None
    return (("live_update", watch), check)


def mutation_push(oid: str, kind: str, class_name: str):
    def check(frame):
        if frame.get("kind") != kind or frame.get("class") != class_name:
            return f"mutation {frame.get('kind')}/{frame.get('class')}"
        return None
    return (("mutation", oid), check)


# ---------------------------------------------------------------------------
# browse
# ---------------------------------------------------------------------------


class Browse(Workload):
    """The §4 loop on one connection, alternating the Figure 6 session
    and a generic one: select class → select and pick instances →
    render → close. Two probes per iteration rotate through a cold
    query, a cached query and a watched Supplier commit."""

    name = "browse"
    blocks = 30
    instances = 3

    def open(self, wire) -> None:
        self.wire = wire
        for label, context in (("J", JULIANO), ("M", MARIA)):
            sid = self.open_session(0, label, context)
            window = self.setup_call(0, "event", session=sid,
                                     op="open_schema", schema=SCHEMA)
            if window["visible"] != (label == "M"):
                self.fail(f"{label}: schema window visible="
                          f"{window['visible']}")
        # the Figure 6 schema rule cascaded Get_Class: start from scratch
        self.setup_call(0, "event", session=self.sessions["J"],
                        op="close_window", window="classset_Pole")
        watch = self.setup_call(0, "watch", session=self.sessions["M"],
                                schema=SCHEMA, text=SUPPLIER_WATCH)
        self.watch = watch["watch"]
        self.cells = {"J": self.data.pick_cells(JULIANO),
                      "M": self.data.pick_cells(MARIA)}

    def step(self, i: int) -> None:
        label = "JM"[i % 2]
        sid = self.sessions[label]
        if self.select_class(0, sid, label, "Pole"):
            opened = []
            for oid in self.rng.sample(self.data.pole_oids, self.instances):
                if self.select_instance(0, sid, label, oid):
                    opened.append(oid)
            col, row, want = self.rng.choice(self.cells[label])
            response, __ = self.call("pick", 0, "event", label, session=sid,
                                     op="pick", **{"class": "Pole"},
                                     col=col, row=row)
            if response is not None:
                if response["oid"] != want:
                    self.fail(f"pick ({col},{row}): {response['oid']} "
                              f"!= {want}")
                elif want not in opened:
                    opened.append(want)
            if opened:
                self.render_instance(0, sid, label, opened[0])
            if i % 8 < 2:
                self.render_class_window(sid, label)
            for oid in opened:
                self.close(0, sid, label, f"instance_{oid}")
            self.close(0, sid, label, "classset_Pole")
        for probe in (2 * i, 2 * i + 1):
            kind = probe % 3
            if kind == 0:
                self.query(0, analysis_query(self.rng, 0, self.data.width))
            elif kind == 1:
                self.query(0, self.rng.choice(self.hot))
            else:
                self.supplier_commit(0, self.watch)

    def render_class_window(self, sid: str, tag: str) -> None:
        """The Pole class window must list exactly the extent's oids.

        A 1,240-line render costs some 30 instance renders, so it is its
        own kind; render_p50_ms stays the instance window's."""
        response, __ = self.call("render_class", 0, "render", tag,
                                 session=sid,
                                 window="classset_Pole")
        if response is None:
            return
        listed = _CLASS_ITEM.findall(response["text"])
        if listed != self.data.pole_oids:
            self.fail(f"class window lists {len(listed)} oids, extent "
                      f"has {len(self.data.pole_oids)}")

    def finish(self) -> None:
        super().finish()
        text = self.setup_call(0, "render", session=self.sessions["J"],
                               window="schema_phone_net")["text"]
        if "is hidden" not in text:
            self.fail("Figure 6 schema window is not hidden")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


class Analyze(Workload):
    """Analysis-mode queries on one connection over the larger net:
    six cold texts and three from a small hot set per iteration, with
    one browse probe and, every fourth iteration, a watched commit."""

    name = "analyze"
    blocks = 60
    warmup = 20
    count_window = 100
    hot_size = 16

    def open(self, wire) -> None:
        self.wire = wire
        for label, context in (("J", JULIANO), ("M", MARIA)):
            sid = self.open_session(0, label, context)
            self.setup_call(0, "event", session=sid, op="open_schema",
                            schema=SCHEMA)
        # instance windows open from the Pole class window; the Figure 6
        # schema rule already opened it for juliano
        self.setup_call(0, "event", session=self.sessions["M"],
                        op="select_class", name="Pole")
        watch = self.setup_call(0, "watch", session=self.sessions["M"],
                                schema=SCHEMA, text=SUPPLIER_WATCH)
        self.watch = watch["watch"]

    def step(self, i: int) -> None:
        width = self.data.width
        for j in range(6):
            self.query(0, analysis_query(self.rng, (6 * i + j) % TEMPLATES,
                                         width))
            if j % 2:
                self.query(0, self.rng.choice(self.hot))
        label = "JM"[(i // 2) % 2]
        sid = self.sessions[label]
        if i % 2 == 0:
            name = SMALL_CLASSES[(i // 4) % len(SMALL_CLASSES)]
            if self.select_class(0, sid, label, name):
                self.close(0, sid, label, f"classset_{name}")
        else:
            oid = self.rng.choice(self.data.pole_oids)
            if self.select_instance(0, sid, label, oid):
                self.render_instance(0, sid, label, oid)
                self.close(0, sid, label, f"instance_{oid}")
        if i % 4 == 3:
            self.supplier_commit(0, self.watch)


# ---------------------------------------------------------------------------
# edit_watch
# ---------------------------------------------------------------------------

EDITOR, WATCHER = 0, 1


class EditWatch(Workload):
    """An editor commits small durable transactions on one connection; a
    watcher on a second connection holds live watches, a Pole
    subscription and an auto-refresh instance window, and after every
    commit sends a read-after-write query or a browse step."""

    name = "edit_watch"
    blocks = 30
    roles = 2
    warmup = 20
    count_window = 100

    def open(self, wire) -> None:
        self.wire = wire
        width = self.data.width
        lo, hi = f"{width / 4 + 0.37:.2f}", f"{3 * width / 4 + 0.37:.2f}"
        self.region = (float(lo), float(lo), float(hi), float(hi))
        self.cable_ops = 0
        self.poles = {oid: dict(v) for oid, v in self.data.poles.items()}
        self.cables = dict(self.data.cables)
        self.inserted: list[str] = []
        self.target = self.data.pole_oids[len(self.data.pole_oids) // 2]
        wm = self.open_session(WATCHER, "M", MARIA, auto_refresh=True)
        wj = self.open_session(WATCHER, "J", JULIANO)
        self.setup_call(WATCHER, "event", session=wj, op="open_schema",
                        schema=SCHEMA)
        self.setup_call(WATCHER, "event", session=wm, op="open_schema",
                        schema=SCHEMA)
        # leave exactly one auto-refresh window open: the target's
        # instance window
        self.setup_call(WATCHER, "event", session=wm, op="select_class",
                        name="Pole")
        self.setup_call(WATCHER, "event", session=wm, op="select_instance",
                        oid=self.target)
        self.setup_call(WATCHER, "event", session=wm, op="close_window",
                        window="classset_Pole")
        self.watches = {}
        for name, text in (
            ("region", "select status, install_year from Pole where "
                       "status = 'maintenance' and within(pole_location, "
                       f"bbox({lo}, {lo}, {hi}, {hi}))"),
            ("ok", "select count(*), max(install_year) from Pole "
                   "where status = 'ok'"),
            ("cables", "select pair_count from Cable where pair_count >= 50"),
        ):
            response = self.setup_call(WATCHER, "watch", session=wm,
                                       schema=SCHEMA, text=text)
            self.watches[name] = response["watch"]
        self.setup_call(WATCHER, "subscribe", classes=["Pole"])

    def hot_queries(self) -> list[str]:
        """Cached reads on classes the editor never writes."""
        third = f"{self.data.width / 3:.2f}"
        return [
            "select * from District",
            "select duct_material, duct_depth from Duct order by duct_depth",
            "select count(*) from Street where street_kind = 'avenue'",
            f"select * from Street where intersects(axis, "
            f"bbox(0, 0, {third}, {third}))",
        ]

    # -- the model the pushes and reads are checked against -----------------

    def in_region(self, oid: str) -> bool:
        p = self.poles[oid]
        x0, y0, x1, y1 = self.region
        return x0 < p["x"] < x1 and y0 < p["y"] < y1

    def region_rows(self) -> dict:
        return {oid: {"oid": oid, "status": p["status"],
                      "install_year": p["install_year"]}
                for oid, p in self.poles.items()
                if p["status"] == "maintenance" and self.in_region(oid)}

    def ok_row(self) -> dict:
        years = [p["install_year"] for p in self.poles.values()
                 if p["status"] == "ok"]
        return {"count(*)": len(years), "max(install_year)": max(years)}

    def cable_rows(self) -> dict:
        return {oid: {"oid": oid, "pair_count": n}
                for oid, n in self.cables.items() if n >= 50}

    # -- one iteration -----------------------------------------------------------

    def pole_edit(self, oid: str, attr: str, value) -> None:
        before_region, before_ok = self.region_rows(), self.ok_row()
        self.poles[oid][attr] = value
        pushes = []
        if self.region_rows() != before_region:
            pushes.append(live_push(self.watches["region"],
                                    self.region_rows()))
        if self.ok_row() != before_ok:
            pushes.append(aggregate_push(self.watches["ok"], self.ok_row()))
        pushes.append(mutation_push(oid, "update", "Pole"))
        self.commit(EDITOR, [{"op": "update", "oid": oid,
                              "changes": {attr: value}}], pushes, WATCHER)

    def cable_edit(self) -> None:
        self.cable_ops += 1
        if self.cable_ops % 2 == 0 and self.inserted:
            oid = self.inserted.pop(0)
            pairs = self.cables.pop(oid)
            pushes = [live_push(self.watches["cables"], self.cable_rows())] \
                if pairs >= 50 else []
            self.commit(EDITOR, [{"op": "delete", "oid": oid}], pushes,
                        WATCHER)
            return
        k = self.rng.randrange(len(self.data.pole_oids) - 1)
        a, b = self.data.pole_oids[k], self.data.pole_oids[k + 1]
        pairs = self.rng.choice((10, 20, 50, 100))
        values = {"cable_route": self.data.encode_route(a, b),
                  "pair_count": pairs, "from_pole": a, "to_pole": b,
                  "install_year": self.rng.randint(1980, 1996),
                  "status": "ok"}
        response, sent = self.call("commit", EDITOR, "txn", ops=[
            {"op": "insert", "schema": SCHEMA, "class": "Cable",
             "values": values}])
        if response is None:
            return
        oid = response["oids"][0]
        self.inserted.append(oid)
        self.cables[oid] = pairs
        if pairs >= 50:
            queue = self.expected.setdefault(WATCHER, [])
            queue.append(live_push(self.watches["cables"],
                                   self.cable_rows()))
            if self.wire.wait_pushes(WATCHER, len(queue), 5.0) \
                    and self.recording:
                self.push_lags.append(
                    self.wire.conns[WATCHER].pushes[-1][0] - sent)

    def watcher_step(self, j: int, i: int) -> None:
        wj = self.sessions["J"]
        if j == 0:
            self.raw_query()
        elif j == 1:
            self.query(WATCHER, self.rng.choice(self.hot))
        elif j == 2:
            label = "JM"[(i // 4) % 2]
            sid = self.sessions[label]
            name = SMALL_CLASSES[(i // 8) % len(SMALL_CLASSES)]
            if self.select_class(WATCHER, sid, label, name):
                self.close(WATCHER, sid, label, f"classset_{name}")
        else:
            oid = self.rng.choice(self.data.pole_oids)
            if self.select_instance(WATCHER, wj, "J", oid):
                self.render_instance(WATCHER, wj, "J", oid)
                self.close(WATCHER, wj, "J", f"instance_{oid}")
        self.reconcile(WATCHER)

    def raw_query(self) -> None:
        """A read-after-write query, checked against the model now."""
        if self.rng.random() < 0.5:
            want = sum(p["status"] == "maintenance"
                       for p in self.poles.values())
            self.query(WATCHER, "select count(*) from Pole where "
                                "status = 'maintenance'",
                       lambda a: None if a[1] == [{"count(*)": want}]
                       else f"{a[1]} != {want}")
            return
        box = _box(self.rng, self.data.width, self.data.width / 12,
                   self.data.width / 5)
        x0, y0, x1, y1 = (float(v) for v in box[5:-1].split(","))
        want = {oid: {"oid": oid, "status": p["status"]}
                for oid, p in self.poles.items()
                if x0 < p["x"] < x1 and y0 < p["y"] < y1}
        self.query(WATCHER, "select status from Pole where "
                            f"within(pole_location, {box})",
                   lambda a: None if {r["oid"]: r for r in a[1]} == want
                   else "rows differ from the model")

    def step(self, i: int) -> None:
        oid = self.rng.choice(self.data.pole_oids)
        flip = "ok" if self.poles[oid]["status"] == "maintenance" \
            else "maintenance"
        self.pole_edit(oid, "status", flip)
        self.watcher_step(0, i)
        oid = self.rng.choice(self.data.pole_oids)
        year = self.rng.choice([y for y in range(1970, 1997)
                                if y != self.poles[oid]["install_year"]])
        self.pole_edit(oid, "install_year", year)
        self.watcher_step(1, i)
        if i % 4 == 0:
            self.cable_edit()
            self.watcher_step(2, i)
        if i % 8 == 4:
            flip = "ok" if self.poles[self.target]["status"] == \
                "maintenance" else "maintenance"
            self.pole_edit(self.target, "status", flip)
        self.watcher_step(3, i)

    def restart_check(self, wire) -> None:
        """Every acknowledged write survives a restart from the file."""
        self.wire = wire
        response, __ = self.call("query", 0, "query", schema=SCHEMA,
                                 text="select status, install_year "
                                      "from Pole", use_cache=False)
        if response is not None:
            got = {r["oid"]: (r["status"], r["install_year"])
                   for r in response["rows"]}
            want = {oid: (p["status"], p["install_year"])
                    for oid, p in self.poles.items()}
            if got != want:
                lost = sum(got.get(k) != v for k, v in want.items())
                self.fail(f"restart: {lost} pole writes lost")
        response, __ = self.call("query", 0, "query", schema=SCHEMA,
                                 text="select pair_count from Cable",
                                 use_cache=False)
        if response is not None:
            got = {r["oid"]: r["pair_count"] for r in response["rows"]}
            if got != self.cables:
                self.fail("restart: cable inserts/deletes lost")


WORKLOADS = {cls.name: cls for cls in (Browse, Analyze, EditWatch)}


def make_dataset(workload: str, seed: int, path: str) -> Dataset:
    if os.path.exists(path):
        os.remove(path)
    return Dataset(WORKLOADS[workload].blocks, seed, path)
