"""An in-memory R-tree (Guttman, quadratic split) for spatial access.

The geographic DBMS uses this index to answer the window queries behind the
Class-set window's map display ("show every pole within the visible
extent") without scanning the full extension. Benchmark C5 compares this
index against a naive scan.

The tree stores ``(BBox, item)`` pairs where ``item`` is any hashable
payload — the query layer stores object ids. Deletion uses the classic
condense-tree + reinsert strategy.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator

from ..errors import IndexError_
from .geometry import BBox


class _Node:
    __slots__ = ("leaf", "entries", "parent")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        #: For leaves: list of (BBox, item). For internal: list of (BBox, _Node).
        self.entries: list[tuple[BBox, Any]] = []
        self.parent: "_Node | None" = None

    def bbox(self) -> BBox:
        return BBox.union_all([box for box, __ in self.entries])


class RTree:
    """Dynamic R-tree with Guttman's quadratic split.

    Parameters
    ----------
    max_entries:
        Node capacity; a node splits when it would exceed this.
    min_entries:
        Minimum fill; defaults to ``max_entries // 2``. Underfull nodes are
        dissolved and their entries reinserted on delete.
    """

    def __init__(self, max_entries: int = 8, min_entries: int | None = None):
        if max_entries < 2:
            raise IndexError_("max_entries must be at least 2")
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else max(1, max_entries // 2)
        if self.min_entries > self.max_entries // 2:
            raise IndexError_("min_entries must be at most max_entries // 2")
        self._root = _Node(leaf=True)
        self._size = 0

    # -- basic properties ---------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def bbox(self) -> BBox:
        """Bounding box of everything indexed (empty box when empty)."""
        return self._root.bbox()

    @property
    def height(self) -> int:
        """Number of levels (1 for a tree that is just a leaf root)."""
        node, levels = self._root, 1
        while not node.leaf:
            node = node.entries[0][1]
            levels += 1
        return levels

    # -- insertion ----------------------------------------------------------

    def insert(self, box: BBox, item: Any) -> None:
        """Index ``item`` under bounding box ``box``."""
        if box.is_empty():
            raise IndexError_("cannot index an empty bbox")
        leaf = self._choose_leaf(self._root, box)
        leaf.entries.append((box, item))
        self._size += 1
        if len(leaf.entries) > self.max_entries:
            self._split_and_propagate(leaf)
        else:
            self._adjust_upward(leaf)

    def _choose_leaf(self, node: _Node, box: BBox) -> _Node:
        while not node.leaf:
            best = None
            best_key: tuple[float, float] | None = None
            for entry_box, child in node.entries:
                key = (entry_box.enlargement(box), entry_box.area())
                if best_key is None or key < best_key:
                    best_key = key
                    best = child
            assert best is not None
            node = best
        return node

    def _split_and_propagate(self, node: _Node) -> None:
        while len(node.entries) > self.max_entries:
            sibling = self._quadratic_split(node)
            parent = node.parent
            if parent is None:
                new_root = _Node(leaf=False)
                new_root.entries = [(node.bbox(), node), (sibling.bbox(), sibling)]
                node.parent = new_root
                sibling.parent = new_root
                self._root = new_root
                return
            sibling.parent = parent
            self._refresh_child_box(parent, node)
            parent.entries.append((sibling.bbox(), sibling))
            node = parent
        self._adjust_upward(node)

    def _quadratic_split(self, node: _Node) -> _Node:
        entries = node.entries
        # Pick the two seeds wasting the most area if grouped together.
        worst = -1.0
        seeds = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    entries[i][0].union(entries[j][0]).area()
                    - entries[i][0].area()
                    - entries[j][0].area()
                )
                if waste > worst:
                    worst = waste
                    seeds = (i, j)
        i, j = seeds
        group_a = [entries[i]]
        group_b = [entries[j]]
        box_a, box_b = entries[i][0], entries[j][0]
        rest = [e for k, e in enumerate(entries) if k not in (i, j)]

        while rest:
            # Force assignment if one group must absorb everything left.
            if len(group_a) + len(rest) == self.min_entries:
                group_a.extend(rest)
                for entry_box, __ in rest:
                    box_a = box_a.union(entry_box)
                rest = []
                break
            if len(group_b) + len(rest) == self.min_entries:
                group_b.extend(rest)
                for entry_box, __ in rest:
                    box_b = box_b.union(entry_box)
                rest = []
                break
            # Pick the entry with the greatest preference for one group.
            best_idx = 0
            best_diff = -1.0
            for k, (entry_box, __) in enumerate(rest):
                d_a = box_a.enlargement(entry_box)
                d_b = box_b.enlargement(entry_box)
                diff = abs(d_a - d_b)
                if diff > best_diff:
                    best_diff = diff
                    best_idx = k
            entry = rest.pop(best_idx)
            d_a = box_a.enlargement(entry[0])
            d_b = box_b.enlargement(entry[0])
            if (d_a, box_a.area(), len(group_a)) <= (d_b, box_b.area(), len(group_b)):
                group_a.append(entry)
                box_a = box_a.union(entry[0])
            else:
                group_b.append(entry)
                box_b = box_b.union(entry[0])

        node.entries = group_a
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b
        if not sibling.leaf:
            for __, child in sibling.entries:
                child.parent = sibling
        return sibling

    def _refresh_child_box(self, parent: _Node, child: _Node) -> None:
        for idx, (__, node) in enumerate(parent.entries):
            if node is child:
                parent.entries[idx] = (child.bbox(), child)
                return
        raise IndexError_("child not present in its parent (corrupt tree)")

    def _adjust_upward(self, node: _Node) -> None:
        while node.parent is not None:
            self._refresh_child_box(node.parent, node)
            node = node.parent

    # -- search -------------------------------------------------------------

    def search(self, box: BBox) -> list[Any]:
        """All items whose bbox intersects ``box``."""
        return [item for __, item in self.search_entries(box)]

    def search_entries(self, box: BBox) -> list[tuple[BBox, Any]]:
        """Like :meth:`search` but returns ``(bbox, item)`` pairs."""
        out: list[tuple[BBox, Any]] = []
        if box.is_empty():
            return out
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry_box, payload in node.entries:
                if not entry_box.intersects(box):
                    continue
                if node.leaf:
                    out.append((entry_box, payload))
                else:
                    stack.append(payload)
        return out

    def search_point(self, x: float, y: float) -> list[Any]:
        """All items whose bbox contains the point."""
        return self.search(BBox(x, y, x, y))

    def count(self, box: BBox) -> int:
        return len(self.search_entries(box))

    def nearest(self, x: float, y: float, k: int = 1) -> list[Any]:
        """The ``k`` items whose bounding boxes are nearest to a point.

        Best-first search over node bounding boxes; distance ties are broken
        by insertion-independent heap order.
        """
        if k < 1:
            raise IndexError_("k must be positive")
        heap: list[tuple[float, int, bool, Any]] = []
        counter = 0
        heap.append((self._root.bbox().distance_to_point(x, y), counter, False, self._root))
        results: list[Any] = []
        while heap and len(results) < k:
            dist, __, is_item, payload = heapq.heappop(heap)
            if is_item:
                results.append(payload)
                continue
            node: _Node = payload
            for entry_box, child in node.entries:
                counter += 1
                heapq.heappush(
                    heap,
                    (entry_box.distance_to_point(x, y), counter, node.leaf, child),
                )
        return results

    def items(self) -> Iterator[tuple[BBox, Any]]:
        """Iterate over every indexed ``(bbox, item)`` pair."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry_box, payload in node.entries:
                if node.leaf:
                    yield entry_box, payload
                else:
                    stack.append(payload)

    # -- deletion -----------------------------------------------------------

    def delete(self, box: BBox, item: Any) -> None:
        """Remove one ``(box, item)`` entry; raises if absent."""
        leaf = self._find_leaf(self._root, box, item)
        if leaf is None:
            raise IndexError_(f"entry {item!r} with bbox {box!r} not in the index")
        for idx, (entry_box, payload) in enumerate(leaf.entries):
            if payload == item and entry_box == box:
                del leaf.entries[idx]
                break
        self._size -= 1
        self._condense(leaf)
        # Shrink the root when it has a single internal child.
        while not self._root.leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0][1]
            self._root.parent = None

    def _find_leaf(self, node: _Node, box: BBox, item: Any) -> _Node | None:
        if node.leaf:
            for entry_box, payload in node.entries:
                if payload == item and entry_box == box:
                    return node
            return None
        for entry_box, child in node.entries:
            if entry_box.contains_bbox(box) or entry_box.intersects(box):
                found = self._find_leaf(child, box, item)
                if found is not None:
                    return found
        return None

    def _condense(self, node: _Node) -> None:
        orphans: list[tuple[BBox, Any, bool]] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self.min_entries:
                parent.entries = [e for e in parent.entries if e[1] is not node]
                for entry_box, payload in node.entries:
                    orphans.append((entry_box, payload, node.leaf))
            else:
                self._refresh_child_box(parent, node)
            node = parent
        for entry_box, payload, was_leaf in orphans:
            if was_leaf:
                self._size -= 1
                self.insert(entry_box, payload)
            else:
                self._reinsert_subtree(payload)

    def _reinsert_subtree(self, node: _Node) -> None:
        for entry_box, payload in node.entries:
            if node.leaf:
                self._size -= 1
                self.insert(entry_box, payload)
            else:
                self._reinsert_subtree(payload)

    # -- bulk loading ---------------------------------------------------------

    @classmethod
    def bulk_load(cls, entries: list[tuple[BBox, Any]],
                  max_entries: int = 8,
                  min_entries: int | None = None) -> "RTree":
        """Build a packed R-tree with Sort-Tile-Recursive (STR) loading.

        For static datasets (a loaded map layer, a snapshot install, a
        recovery replay) STR packs nodes full and tiles them spatially:
        sort by x-center, slice into vertical slabs, sort each slab by
        y-center, chunk into nodes. The same procedure then packs each
        upper level until one root remains. Build time is O(n log n) and
        both build and query beat incremental quadratic-split insertion.

        The resulting tree supports subsequent inserts/deletes normally.
        A chunking step never leaves a node under ``min_entries`` (the
        tail chunk borrows from its neighbour), so all structural
        invariants hold — ``check_invariants()`` passes on the result.
        """
        import math

        from .. import obs

        tree = cls(max_entries=max_entries, min_entries=min_entries)
        rec = obs.RECORDER
        if rec.enabled:
            rec.inc("rtree.bulk_loads")
        if not entries:
            return tree

        min_fill = tree.min_entries

        def chunk(items: list, size: int) -> list[list]:
            """Split into chunks of ``size``; rebalance an undersized tail."""
            out = [items[i: i + size] for i in range(0, len(items), size)]
            if len(out) >= 2 and len(out[-1]) < min_fill:
                need = min_fill - len(out[-1])
                out[-1] = out[-2][-need:] + out[-1]
                out[-2] = out[-2][:-need]
            return out

        def tile(items: list, key_box) -> list[list]:
            """STR tiling: x-sorted slabs, then y-sorted chunks per slab."""
            node_count = math.ceil(len(items) / max_entries)
            slab_count = max(1, math.ceil(math.sqrt(node_count)))
            slab_size = max(max_entries,
                            math.ceil(len(items) / slab_count))
            by_x = sorted(items, key=lambda it: key_box(it).center()[0])
            groups: list[list] = []
            for start in range(0, len(by_x), slab_size):
                slab = sorted(by_x[start: start + slab_size],
                              key=lambda it: key_box(it).center()[1])
                groups.extend(chunk(slab, max_entries))
            # a slab boundary can still strand an undersized group
            if len(groups) >= 2 and len(groups[-1]) < min_fill:
                need = min_fill - len(groups[-1])
                groups[-1] = groups[-2][-need:] + groups[-1]
                groups[-2] = groups[-2][:-need]
            return groups

        # Pack the leaf level.
        level: list[_Node] = []
        for group in tile(list(entries), key_box=lambda e: e[0]):
            leaf = _Node(leaf=True)
            leaf.entries = list(group)
            level.append(leaf)
        # Pack upper levels until a single node remains.
        while len(level) > 1:
            next_level: list[_Node] = []
            for group in tile(level, key_box=lambda n: n.bbox()):
                parent = _Node(leaf=False)
                parent.entries = [(child.bbox(), child) for child in group]
                for child in group:
                    child.parent = parent
                next_level.append(parent)
            level = next_level
        tree._root = level[0]
        tree._size = len(entries)
        return tree

    # -- diagnostics ----------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`IndexError_` when a structural invariant is broken.

        Used by property-based tests: parent boxes cover children, all
        leaves are at the same depth, node fills respect min/max (except
        the root), and the entry count matches ``len(self)``.
        """
        leaf_depths: set[int] = []  # type: ignore[assignment]
        leaf_depths = set()
        total = 0

        def walk(node: _Node, depth: int, is_root: bool) -> None:
            nonlocal total
            if not is_root and not (
                self.min_entries <= len(node.entries) <= self.max_entries
            ):
                raise IndexError_(
                    f"node fill {len(node.entries)} outside "
                    f"[{self.min_entries}, {self.max_entries}]"
                )
            if len(node.entries) > self.max_entries:
                raise IndexError_("node overflow")
            if node.leaf:
                leaf_depths.add(depth)
                total += len(node.entries)
                return
            for entry_box, child in node.entries:
                if child.parent is not node:
                    raise IndexError_("broken parent pointer")
                if not (entry_box == child.bbox()):
                    raise IndexError_("stale child bounding box")
                walk(child, depth + 1, False)

        walk(self._root, 0, True)
        if len(leaf_depths) > 1:
            raise IndexError_(f"leaves at different depths: {sorted(leaf_depths)}")
        if total != self._size:
            raise IndexError_(f"size mismatch: counted {total}, recorded {self._size}")


def bulk_load(entries: list[tuple[BBox, Any]], max_entries: int = 8) -> RTree:
    """Module-level alias for :meth:`RTree.bulk_load` (back-compat)."""
    return RTree.bulk_load(entries, max_entries=max_entries)


def naive_search(
    entries: list[tuple[BBox, Any]], box: BBox, key: Callable[[Any], Any] | None = None
) -> list[Any]:
    """Baseline linear scan used by benchmark C5."""
    hits = [item for entry_box, item in entries if entry_box.intersects(box)]
    if key is not None:
        hits.sort(key=key)
    return hits
