"""Experiment C5 — spatial index vs naive scan behind the map display.

Every ``Get_Class`` map display and every map-window pan issues a window
query ("show the poles in the visible extent"). This experiment sweeps
dataset sizes and measures R-tree window queries against the linear-scan
baseline, locating the crossover that justifies the index, plus a
uniform grid (:class:`GridIndex`, defined here as this benchmark's
second baseline) as another point of comparison. All three must give
the same answer to every window.
"""

import math
import random
import time

from repro.spatial import BBox, RTree
from repro.spatial.rtree import naive_search
from repro.workloads import clustered_points

from _support import print_header, print_table

EXTENT = BBox(0, 0, 10_000, 10_000)


class GridIndex:
    """A fixed-resolution bucket grid over a universe bbox: each entry
    is registered in every cell its bbox overlaps."""

    def __init__(self, universe: BBox, cell_size: float):
        self.universe = universe
        self.cell_size = float(cell_size)
        self._cols = max(1, math.ceil(universe.width / cell_size))
        self._rows = max(1, math.ceil(universe.height / cell_size))
        self._cells: dict[tuple[int, int], list] = {}

    def _cell_range(self, box: BBox) -> tuple[range, range]:
        """The clamped column and row ranges covering ``box``."""
        size, origin = self.cell_size, self.universe

        def span(low, high, start, count):
            first = int((low - start) // size)
            last = int((high - start) // size)
            return range(max(0, min(first, count - 1)),
                         max(0, min(last, count - 1)) + 1)

        return (span(box.min_x, box.max_x, origin.min_x, self._cols),
                span(box.min_y, box.max_y, origin.min_y, self._rows))

    def insert(self, box: BBox, item) -> None:
        entry = (box, item)
        cols, rows = self._cell_range(box)
        for col in cols:
            for row in rows:
                self._cells.setdefault((col, row), []).append(entry)

    def search(self, box: BBox) -> list:
        """Items whose bbox intersects ``box``, each once."""
        cols, rows = self._cell_range(box)
        seen: set[int] = set()
        out = []
        for col in cols:
            for row in rows:
                for entry in self._cells.get((col, row), ()):
                    if id(entry) not in seen:
                        seen.add(id(entry))
                        if entry[0].intersects(box):
                            out.append(entry[1])
        return out


def assert_same_answers(entries, tree, grid, query_windows) -> None:
    """naive == R-tree == grid, as item sets, for every window."""
    for window in query_windows:
        expected = sorted(naive_search(entries, window))
        assert sorted(tree.search(window)) == expected, window
        grid_hits = grid.search(window)
        assert len(grid_hits) == len(set(grid_hits)), window
        assert sorted(grid_hits) == expected, window


def spanning_boxes(count: int, seed: int = 9):
    """Boxes up to two grid cells wide, some spanning several cells, and
    one spanning the whole universe."""
    rng = random.Random(seed)
    entries = [(EXTENT, -1)]
    for i in range(count):
        x, y = rng.uniform(0, 9_400), rng.uniform(0, 9_400)
        entries.append((BBox(x, y, x + rng.uniform(0, 500),
                             y + rng.uniform(0, 500)), i))
    return entries


def dataset(size):
    points = clustered_points(size, EXTENT, clusters=12, seed=size)
    return [(p.bbox(), i) for i, p in enumerate(points)]


def windows(count=50, fraction=0.05, seed=1):
    from repro.workloads import pan_zoom_walk

    return list(pan_zoom_walk(EXTENT, fraction, count, seed=seed))


def time_queries(fn, query_windows):
    start = time.perf_counter()
    for window in query_windows:
        fn(window)
    return (time.perf_counter() - start) / len(query_windows)


def test_c5_rtree_vs_naive_sweep(capsys, benchmark):
    query_windows = windows()
    rows = []
    crossover = None
    for size in (100, 1_000, 10_000, 50_000):
        entries = dataset(size)
        tree = RTree(max_entries=16)
        for box, item in entries:
            tree.insert(box, item)
        grid = GridIndex(EXTENT, cell_size=250.0)
        for box, item in entries:
            grid.insert(box, item)

        assert_same_answers(entries, tree, grid, query_windows)
        t_naive = time_queries(
            lambda w: naive_search(entries, w), query_windows)
        t_tree = time_queries(tree.search, query_windows)
        t_grid = time_queries(grid.search, query_windows)

        speedup = t_naive / t_tree
        if crossover is None and speedup > 1.0:
            crossover = size
        rows.append([
            size,
            f"{t_naive * 1e6:.0f} us",
            f"{t_tree * 1e6:.0f} us",
            f"{t_grid * 1e6:.0f} us",
            f"{speedup:.1f}x",
        ])

    # boxes with extent: an entry in several cells is answered once,
    # and windows reaching past the universe clamp to its edge cells
    entries = spanning_boxes(300)
    tree = RTree(max_entries=16)
    grid = GridIndex(EXTENT, cell_size=250.0)
    for box, item in entries:
        tree.insert(box, item)
        grid.insert(box, item)
    assert_same_answers(entries, tree, grid, query_windows + [
        EXTENT, BBox(-500, -500, 300, 300), BBox(9_900, 9_900, 12_000, 12_000),
        BBox(5_000, 5_000, 5_000, 5_000)])

    with capsys.disabled():
        print_header("C5", "window query: naive scan vs R-tree vs grid")
        print_table(
            ["objects", "naive", "rtree", "grid", "rtree speedup"], rows)
        print(f"index wins from ~{crossover} objects onward")

    # shape assertion: the index must clearly win at GIS scales
    final_speedup = float(rows[-1][4][:-1])
    assert final_speedup > 10.0

    entries = dataset(10_000)
    tree = RTree(max_entries=16)
    for box, item in entries:
        tree.insert(box, item)
    window = query_windows[0]
    benchmark(lambda: tree.search(window))


def test_c5_build_cost(capsys, benchmark):
    """Index construction cost — the price paid for query speed."""
    rows = []
    for size in (1_000, 10_000):
        entries = dataset(size)
        start = time.perf_counter()
        tree = RTree(max_entries=16)
        for box, item in entries:
            tree.insert(box, item)
        t_tree = time.perf_counter() - start
        start = time.perf_counter()
        grid = GridIndex(EXTENT, cell_size=250.0)
        for box, item in entries:
            grid.insert(box, item)
        t_grid = time.perf_counter() - start
        rows.append([size, f"{t_tree * 1e3:.1f} ms", f"{t_grid * 1e3:.1f} ms",
                     tree.height])
    with capsys.disabled():
        print_header("C5b", "index build cost")
        print_table(["objects", "rtree build", "grid build", "rtree height"],
                    rows)

    entries = dataset(2_000)

    def build():
        tree = RTree(max_entries=16)
        for box, item in entries:
            tree.insert(box, item)
        return len(tree)

    assert benchmark(build) == 2_000


def test_c5_nearest_neighbor(capsys, benchmark):
    """k-NN (the 'pick nearest pole to the click' operation)."""
    entries = dataset(10_000)
    tree = RTree(max_entries=16)
    for box, item in entries:
        tree.insert(box, item)

    def brute(x, y, k):
        return [i for __, i in sorted(
            entries, key=lambda e: e[0].distance_to_point(x, y))[:k]]

    got = tree.nearest(5_000, 5_000, k=5)
    expected = brute(5_000, 5_000, 5)
    got_d = sorted(entries[i][0].distance_to_point(5_000, 5_000) for i in got)
    exp_d = sorted(entries[i][0].distance_to_point(5_000, 5_000)
                   for i in expected)
    assert all(abs(a - b) < 1e-9 for a, b in zip(got_d, exp_d))

    t0 = time.perf_counter()
    for __ in range(100):
        tree.nearest(5_000, 5_000, k=5)
    t_tree = (time.perf_counter() - t0) / 100
    t0 = time.perf_counter()
    for __ in range(10):
        brute(5_000, 5_000, 5)
    t_brute = (time.perf_counter() - t0) / 10
    with capsys.disabled():
        print_header("C5c", "nearest-neighbor (map pick)")
        print_table(["method", "per query"],
                    [["rtree best-first", f"{t_tree * 1e6:.0f} us"],
                     ["brute force", f"{t_brute * 1e6:.0f} us"]])

    benchmark(lambda: tree.nearest(5_000, 5_000, k=5))


def test_c5_attribute_hash_index(capsys, benchmark):
    """Hash index vs scan for the analysis-mode equality predicates."""
    import time as _time

    from repro.geodb import Comparison, Query, QueryEngine
    from repro.workloads import PhoneNetParams, build_phone_net_database

    db = build_phone_net_database(
        PhoneNetParams(blocks_x=10, blocks_y=8, poles_per_street=8,
                       seed=55), name="C5HASH")
    engine = QueryEngine(db)
    query = Query("Pole", where=Comparison("pole_type", "=", 1))

    t0 = _time.perf_counter()
    for __ in range(50):
        scan = engine.execute("phone_net", query)
    t_scan = (_time.perf_counter() - t0) / 50

    db.create_attribute_index("phone_net", "Pole", "pole_type")
    t0 = _time.perf_counter()
    for __ in range(50):
        hashed = engine.execute("phone_net", query)
    t_hash = (_time.perf_counter() - t0) / 50

    # identical answers (order is unspecified without `order by`)
    assert set(scan.oids()) == set(hashed.oids())
    assert hashed.report["plan"] == "hash-scan"
    with capsys.disabled():
        print_header("C5d", "equality predicate: full scan vs hash index")
        print_table(
            ["plan", "per query", "candidates"],
            [["full-scan", f"{t_scan * 1e6:.0f} us",
              scan.report["candidates"]],
             ["hash-scan", f"{t_hash * 1e6:.0f} us",
              hashed.report["candidates"]],
             ["speedup", f"{t_scan / t_hash:.1f}x", ""]])
    assert t_hash < t_scan

    benchmark(lambda: engine.execute("phone_net", query))
