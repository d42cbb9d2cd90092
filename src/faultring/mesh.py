"""Mesh geometry: shapes, coordinates, link counts, neighborhoods, connectivity.

Coordinates are 0-based integer tuples, one component per dimension; component
i ranges over 0 .. R_i - 1 for a mesh with radices (R_1, ..., R_n). Two nodes
are linked when they differ by exactly one in exactly one component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from operator import index, itemgetter, lt, mul
from typing import AbstractSet, Iterable, Iterator, Sequence

Coord = tuple[int, ...]


def int_components(kind: str, values: Iterable) -> tuple[int, ...]:
    """values as a tuple of ints. A component operator.index refuses, such as
    a float or a string, raises ValueError naming its dimension and kind."""
    components = []
    for i, x in enumerate(values):
        try:
            components.append(index(x))
        except TypeError:
            raise ValueError(f"dimension {i}: {kind} must be an integer, got {x!r}") from None
    return tuple(components)


@dataclass(frozen=True)
class MeshShape:
    """An n-dimensional mesh given by its radices (node count per dimension);
    a radix that is not an integer raises ValueError naming its dimension."""

    radices: tuple[int, ...]

    def __post_init__(self) -> None:
        radices = int_components("radix", self.radices)
        object.__setattr__(self, "radices", radices)
        if not radices:
            raise ValueError("mesh needs at least one dimension")
        for i, r in enumerate(radices):
            if r < 2:
                raise ValueError(f"dimension {i}: radix must be >= 2, got {r}")

    @property
    def n(self) -> int:
        return len(self.radices)

    @property
    def node_count(self) -> int:
        return math.prod(self.radices)

    def contains(self, v: Coord) -> bool:
        if len(v) != self.n:
            return False
        return all(0 <= x < r for x, r in zip(v, self.radices))

    def on_boundary(self, v: Coord) -> bool:
        """True when some component sits on a face of the mesh."""
        return any(x == 0 or x == r - 1 for x, r in zip(v, self.radices))

    def nodes(self) -> Iterator[Coord]:
        """All nodes in row-major order (last dimension varies fastest)."""
        return product(*(range(r) for r in self.radices))

    def padded_strides(self) -> tuple[int, ...]:
        """Row-major strides of the mesh wrapped in a border one cell thick.

        Node v sits at padded_index(v, strides) == sum((x + 1) * s); a step
        of +-strides[i] moves along axis i and lands on a border cell exactly
        when it leaves the mesh. The padded layout has
        strides[0] * (radices[0] + 2) cells.
        """
        out = [1] * self.n
        for i in range(self.n - 2, -1, -1):
            out[i] = out[i + 1] * (self.radices[i + 1] + 2)
        return tuple(out)


def padded_index(v: Coord, strides: Sequence[int]) -> int:
    """Flat index of node v in the padded layout of MeshShape.padded_strides."""
    return sum((x + 1) * s for x, s in zip(v, strides))


def padded_indices(shape: MeshShape, nodes: Iterable[Coord]) -> frozenset[int]:
    """Padded flat indices of the nodes inside the mesh: the one node numbering
    of the exact engine and the Monte-Carlo estimator. The connectivity search
    numbers its collapsed mesh the same way. The bounds rule of
    MeshShape.contains and the formula of padded_index are written inline
    rather than called per node."""
    strides = shape.padded_strides()
    radices, n, border = shape.radices, shape.n, sum(strides)
    return frozenset(
        border + sum(map(mul, v, strides))
        for v in nodes
        if len(v) == n and min(v) >= 0 and all(map(lt, v, radices))
    )


def require_node(shape: MeshShape, v: Coord, name: str = "node") -> None:
    if not shape.contains(v):
        raise ValueError(f"{name} {v!r} is not inside mesh {'x'.join(map(str, shape.radices))}")


def link_count_formula(shape: MeshShape) -> int:
    """Link count via inclusion-exclusion over radix products.

    Every node opens one link per dimension except on that dimension's upper
    face, so n * prod(R) overcounts by, for each dimension, the product of the
    other radices. Lower-order subset products cancel and do not appear.
    """
    n = shape.n
    total = n * math.prod(shape.radices)
    for subset in combinations(shape.radices, n - 1):
        total -= math.prod(subset)
    return total


def link_count_direct(shape: MeshShape) -> int:
    """Link count by direct per-dimension edge counting; oracle for the closed form."""
    total = 0
    for i, r in enumerate(shape.radices):
        others = math.prod(shape.radices[:i] + shape.radices[i + 1:])
        total += (r - 1) * others
    return total


def neighbors(shape: MeshShape, v: Coord) -> set[Coord]:
    """All nodes one link away from v."""
    require_node(shape, v)
    out: set[Coord] = set()
    for i in range(shape.n):
        for step in (-1, 1):
            x = v[i] + step
            if 0 <= x < shape.radices[i]:
                out.add(v[:i] + (x,) + v[i + 1:])
    return out


def delta(a: Coord, b: Coord) -> tuple[int, ...]:
    """Componentwise absolute offsets between two coordinates."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return tuple(abs(x - y) for x, y in zip(a, b))


@dataclass(frozen=True)
class Box:
    """Axis-aligned block of nodes given by its componentwise corners."""

    lo: Coord
    hi: Coord

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValueError("corner dimension mismatch")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("lo corner must not exceed hi corner")

    def contains(self, v: Coord) -> bool:
        if len(v) != len(self.lo):
            return False
        return all(l <= x <= h for x, l, h in zip(v, self.lo, self.hi))

    @property
    def volume(self) -> int:
        return math.prod(h - l + 1 for l, h in zip(self.lo, self.hi))

    def nodes(self) -> Iterator[Coord]:
        return product(*(range(l, h + 1) for l, h in zip(self.lo, self.hi)))


def bounding_box(a: Coord, b: Coord) -> Box:
    """Smallest axis-aligned block containing both endpoints."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    lo = tuple(min(x, y) for x, y in zip(a, b))
    hi = tuple(max(x, y) for x, y in zip(a, b))
    return Box(lo, hi)


def in_mesh_box(
    shape: MeshShape, nodes: Iterable[Coord]
) -> tuple[AbstractSet[Coord], tuple[Coord, Coord], bool]:
    """The in-mesh part of a node set, its bounding box as the low and high
    corner, and whether the part fills that box. An empty part has low corner
    radices and high corner (-1, ..., -1), low above high on every axis, and
    fills it.

    The one home of the "fills its box" test. When every node lies in the
    mesh, the part is the set passed in (a set, or one made from the
    iterable) and no node is tested on its own.
    """
    def coordinates(part):  # the coordinates of the part's nodes on each axis
        return [set(map(itemgetter(i), part)) for i in range(shape.n)]

    nodes = nodes if isinstance(nodes, AbstractSet) else set(nodes)
    sides = coordinates(nodes) if set(map(len, nodes)) == {shape.n} else None
    if sides is None or not all(min(s) >= 0 and max(s) < r for s, r in zip(sides, shape.radices)):
        nodes = {v for v in nodes if shape.contains(v)}
        sides = coordinates(nodes)
    lo = tuple(min(s, default=r) for s, r in zip(sides, shape.radices))
    hi = tuple(max(s, default=-1) for s in sides)
    fills = not nodes or len(nodes) == math.prod(h - l + 1 for l, h in zip(lo, hi))
    return nodes, (lo, hi), fills


def is_connected(shape: MeshShape, faulty: Iterable[Coord] = ()) -> bool:
    """True when the subgraph on non-faulty nodes is connected.

    When the in-mesh faults fill their bounding box (in_mesh_box), the slab
    rule answers from its corners: the healthy nodes are disconnected exactly
    when the box spans the whole mesh on every axis but one and lies strictly
    inside the mesh on that one, where it cuts the mesh in two.

    Any other fault set is searched on a collapsed mesh, so its cost follows
    the fault region, not the mesh. On each axis it keeps 0, r - 1 and every
    fault coordinate with its two neighbours; a dropped coordinate x is then
    a fault-free hyperplane between two fault-free ones, and linking x - 1 to
    x + 1 directly leaves connectivity as it was. So each run of fault-free
    hyperplanes shrinks to at most two. Either way, fault coordinates
    outside the mesh are ignored.

    A search from the first healthy node in row-major order runs on the
    padded layout of MeshShape.padded_strides: a move along axis i is
    +-strides[i], and the border cells start out seen, so no move needs a
    bounds check.

    Raises ValueError if every node is faulty.
    """
    faults, (lo, hi), fills = in_mesh_box(shape, faulty)
    if len(faults) == shape.node_count:
        raise ValueError("all nodes are faulty; connectivity is undefined")
    if faults and fills:
        # Per axis on which the box is short of the mesh: is it strictly inside there?
        short = [0 < l and h < r - 1 for l, h, r in zip(lo, hi, shape.radices) if l or h < r - 1]
        return short != [True]
    kept = []
    for i, r in enumerate(shape.radices):
        keep = {0, r - 1}
        for x in {v[i] for v in faults}:
            keep.update((x - 1, x, x + 1))
        kept.append(sorted(x for x in keep if 0 <= x < r))
    shape = MeshShape(tuple(map(len, kept)))
    strides = shape.padded_strides()
    # The padded offset, on the collapsed mesh, of each kept coordinate.
    offsets = [{x: (k + 1) * s for k, x in enumerate(axis)} for axis, s in zip(kept, strides)]
    dead = {sum(o[x] for o, x in zip(offsets, v)) for v in faults}
    alive_total = shape.node_count - len(dead)
    cells = b"\0"
    for r, s in zip(reversed(shape.radices), reversed(strides)):
        cells = b"\1" * s + cells * r + b"\1" * s
    seen = bytearray(cells)
    for p in dead:
        seen[p] = 1
    start = seen.index(0)
    seen[start] = 1
    moves = [m for s in strides for m in (s, -s)]
    reached = [start]
    for cur in reached:
        for m in moves:
            nb = cur + m
            if not seen[nb]:
                seen[nb] = 1
                reached.append(nb)
    return len(reached) == alive_total
