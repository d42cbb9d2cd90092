"""Fault regions, the rings of healthy nodes around them, and validation.

A fault region F is a set of failed nodes. Its ring is every healthy node
within Chebyshev distance exactly 1 of F, the hollow one-node-thick shell
clipped to the mesh. The blocked set F plus ring is what a minimal path must
avoid to "miss" the fault neighborhood entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from typing import Iterable, Sequence, Union

from faultring.mesh import Coord, MeshShape, in_mesh_box, int_components, is_connected, require_node


class Classification(str, Enum):
    """Ring when the region is interior; chain when it meets a mesh border."""

    RING = "ring"
    CHAIN = "chain"


@dataclass(frozen=True)
class RectFault:
    """Axis-aligned block of faulty nodes anchored at its minimum corner.

    extents counts nodes per dimension, so the block spans
    origin[i] .. origin[i] + extents[i] - 1 inclusive. A component that is
    not an integer raises ValueError naming its dimension.
    """

    origin: Coord
    extents: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", int_components("origin", self.origin))
        object.__setattr__(self, "extents", int_components("extent", self.extents))
        if len(self.origin) != len(self.extents):
            raise ValueError("origin and extents dimension mismatch")
        for i, e in enumerate(self.extents):
            if e < 1:
                raise ValueError(f"dimension {i}: extent must be >= 1, got {e}")


@dataclass(frozen=True)
class OverlapFault:
    """Union of rectangular blocks that are meant to overlap or touch."""

    rects: tuple[RectFault, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rects", tuple(self.rects))


@dataclass(frozen=True)
class ArbitraryFault:
    """Explicit set of faulty nodes with no shape assumption; a coordinate that
    is not an integer raises ValueError naming its dimension."""

    nodes: frozenset[Coord]

    def __post_init__(self) -> None:
        nodes = frozenset(int_components("node coordinate", v) for v in self.nodes)
        object.__setattr__(self, "nodes", nodes)


FaultSpec = Union[RectFault, OverlapFault, ArbitraryFault]


@dataclass(frozen=True)
class FaultComplex:
    """A fault region together with its ring and combined blocked set.

    An empty complex (no faults) has empty sets and classification None.
    """

    faults: frozenset[Coord]
    ring: frozenset[Coord]
    blocked: frozenset[Coord]
    classification: Classification | None

    @property
    def is_empty(self) -> bool:
        return not self.faults


def check_block(shape: MeshShape, origin: Sequence[int], extents: Sequence[int]) -> None:
    """Raise ValueError unless the block fits the mesh: one coordinate and one
    extent >= 1 per dimension, and origin[i] .. origin[i] + extents[i] - 1
    inside 0 .. radices[i] - 1. Each message names the offending dimension."""
    if len(origin) != shape.n or len(extents) != shape.n:
        raise ValueError(
            f"block is {len(origin)}-dimensional but mesh has {shape.n} dimensions"
        )
    for i, (o, e, r) in enumerate(zip(origin, extents, shape.radices)):
        if e < 1:
            raise ValueError(f"dimension {i}: extent must be >= 1, got {e}")
        if o < 0 or o + e > r:
            raise ValueError(
                f"dimension {i}: block spans {o}..{o + e - 1} but mesh allows 0..{r - 1}"
            )


def expand_rectangular(shape: MeshShape, origin: Coord, extents: tuple[int, ...]) -> set[Coord]:
    """Node set of a rectangular block; raises (see check_block) if it leaves the mesh."""
    check_block(shape, origin, extents)
    return set(product(*(range(o, o + e) for o, e in zip(origin, extents))))


def ring_of(shape: MeshShape, fault_nodes: Iterable[Coord]) -> set[Coord]:
    """Healthy nodes at Chebyshev distance exactly 1 from the fault set.

    Only the faults inside the mesh count (mesh.in_mesh_box); a set with none
    there is empty and raises ValueError. Box branch: when the faults fill
    their bounding box, the ring is that box widened by one on each side and
    clipped to the mesh, less the faults.

    Otherwise the Chebyshev ball of radius 1, a product of intervals, is
    built by dilating the fault set one axis at a time: n passes, each adding
    the +-1 neighbours along one axis that stay inside the mesh, give the
    whole clipped shell.
    """
    faults, (lo, hi), fills = in_mesh_box(shape, fault_nodes)
    if not faults:
        raise ValueError("ring of an empty fault set is undefined")
    if fills:
        sides = (range(max(l - 1, 0), min(h + 2, r)) for l, h, r in zip(lo, hi, shape.radices))
        return set(product(*sides)) - faults
    ball = set(faults)
    for i, r in enumerate(shape.radices):
        ball |= {
            v[:i] + (x,) + v[i + 1:]
            for v in ball
            for x in (v[i] - 1, v[i] + 1)
            if 0 <= x < r
        }
    return ball - faults


def classify(shape: MeshShape, fault_nodes: Iterable[Coord]) -> Classification:
    """Chain when the region meets any mesh border, ring otherwise.

    Only the fault region itself decides, and only its nodes inside the mesh
    (mesh.in_mesh_box); a set with none there is empty and raises
    ValueError. A ring whose shell gets clipped by the border still
    classifies as a ring. The faults meet a border exactly when a corner of
    their bounding box does, with some coordinate 0 or r - 1, so
    MeshShape.on_boundary tests the two corners alone.
    """
    faults, corners, _ = in_mesh_box(shape, fault_nodes)
    if not faults:
        raise ValueError("cannot classify an empty fault set")
    if any(map(shape.on_boundary, corners)):
        return Classification.CHAIN
    return Classification.RING


def fault_nodes_of(shape: MeshShape, spec: FaultSpec) -> set[Coord]:
    """Expand a fault description into its node set, validating bounds."""
    if isinstance(spec, RectFault):
        return expand_rectangular(shape, spec.origin, spec.extents)
    if isinstance(spec, OverlapFault):
        nodes: set[Coord] = set()
        for rect in spec.rects:
            nodes |= expand_rectangular(shape, rect.origin, rect.extents)
        return nodes
    if isinstance(spec, ArbitraryFault):
        for v in spec.nodes:
            require_node(shape, v, "fault node")
        return set(spec.nodes)
    raise TypeError(f"unknown fault specification {type(spec).__name__}")


def build_complex(shape: MeshShape, spec: FaultSpec | None) -> FaultComplex:
    """Construct the fault region, ring, and blocked set for one description.

    spec None (or an empty arbitrary set) yields the empty complex.
    """
    faults = fault_nodes_of(shape, spec) if spec is not None else set()
    if not faults:
        return FaultComplex(frozenset(), frozenset(), frozenset(), None)
    ring = ring_of(shape, faults)
    return FaultComplex(
        faults=frozenset(faults),
        ring=frozenset(ring),
        blocked=frozenset(faults | ring),
        classification=classify(shape, faults),
    )


@dataclass(frozen=True)
class Finding:
    """One validation result: a kebab-case code, such as
    "disconnected", and a message for people."""

    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    """validate_complex's findings: violations block analysis, infos are
    advisory; ok holds when there are no violations."""

    violations: tuple[Finding, ...]
    infos: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _rect_gap(a: RectFault, b: RectFault) -> int:
    """Chebyshev distance between two blocks' node sets (0 when they intersect)."""
    gap = 0
    for i in range(len(a.origin)):
        a_lo, a_hi = a.origin[i], a.origin[i] + a.extents[i] - 1
        b_lo, b_hi = b.origin[i], b.origin[i] + b.extents[i] - 1
        gap = max(gap, a_lo - b_hi, b_lo - a_hi)
    return gap


def validate_complex(
    shape: MeshShape,
    complex_: FaultComplex,
    spec: FaultSpec | Sequence[FaultSpec] | None = None,
) -> ValidationReport:
    """Check a fault complex against the analysis preconditions.

    spec is the description the complex was built from: one specification,
    or a scenario's list of fault entries. Every overlap entry is checked for
    blocks that neither intersect nor touch, whatever entries join it; with
    several entries, each such finding names its entry.

    Violations block analysis (CLI exit code 3); infos are advisory, e.g. the
    blocked set covering the whole mesh, which just pins the miss probability
    to zero.
    """
    violations: list[Finding] = []
    infos: list[Finding] = []

    in_mesh_faults, _, _ = in_mesh_box(shape, complex_.faults)
    outside = sorted(complex_.faults - in_mesh_faults)
    if outside:
        violations.append(
            Finding("fault-outside-mesh", f"fault nodes outside the mesh: {outside[:5]}")
        )

    healthy = shape.node_count - len(in_mesh_faults)
    if healthy <= 0:
        violations.append(Finding("all-nodes-faulty", "every node is faulty"))
    else:
        if healthy < 2:
            violations.append(
                Finding("too-few-healthy", "fewer than two healthy nodes; no pairs to route")
            )
        if not is_connected(shape, in_mesh_faults):
            violations.append(
                Finding("disconnected", "fault region disconnects the healthy subgraph")
            )

    # ring_of clips the ring to the mesh, so only fault nodes can lie outside it.
    free_outside = shape.node_count - len(complex_.blocked) + len(outside)
    if not complex_.is_empty and free_outside < 2:
        infos.append(
            Finding(
                "blocked-covers-mesh",
                "fewer than two nodes lie outside the fault ring; "
                "every route confronts it and the miss probability is exactly 0",
            )
        )

    if isinstance(spec, (list, tuple)):
        entries = tuple(spec)
    else:
        entries = () if spec is None else (spec,)
    for k, entry in enumerate(entries):
        if not isinstance(entry, OverlapFault):
            continue
        where = f" (faults[{k}])" if len(entries) > 1 else ""
        if len(entry.rects) < 2:
            violations.append(
                Finding("overlap-too-few", f"overlap description needs at least two blocks{where}")
            )
        for i in range(len(entry.rects)):
            for j in range(i + 1, len(entry.rects)):
                if _rect_gap(entry.rects[i], entry.rects[j]) > 1:
                    violations.append(
                        Finding(
                            "overlap-disjoint",
                            f"blocks {i} and {j} neither intersect nor touch{where}",
                        )
                    )
    if len(entries) == 1 and isinstance(entries[0], RectFault):
        infos.append(Finding("convex-by-construction", "rectangular region is convex"))

    return ValidationReport(tuple(violations), tuple(infos))
