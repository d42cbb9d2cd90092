import re

import pytest

from faultring.faults import (
    ArbitraryFault,
    Classification,
    FaultComplex,
    OverlapFault,
    RectFault,
    build_complex,
    classify,
    expand_rectangular,
    fault_nodes_of,
    ring_of,
    validate_complex,
)
from faultring.mesh import MeshShape


def test_rect_fault_normalizes_and_validates():
    fault = RectFault([1, 2], [2, 1])
    assert fault.origin == (1, 2)
    assert fault.extents == (2, 1)
    with pytest.raises(ValueError):
        RectFault((0, 0), (0, 1))


def test_rect_fault_refuses_a_component_that_is_not_an_integer():
    # int() would truncate these to origin (1, 0) and extents (1, 2).
    with pytest.raises(ValueError, match=re.escape("dimension 0: origin must be an integer, got 1.9")):
        RectFault((1.9, 0.5), (1.2, 2.8))
    with pytest.raises(ValueError, match=re.escape("dimension 1: extent must be an integer, got 2.8")):
        RectFault((1, 0), (1, 2.8))


def test_arbitrary_fault_refuses_a_coordinate_that_is_not_an_integer():
    # The fractional node used to pass build_complex and validate_complex and
    # fail only inside the exact engine.
    message = "dimension 0: node coordinate must be an integer, got 1.5"
    with pytest.raises(ValueError, match=re.escape(message)):
        ArbitraryFault(frozenset({(1.5, 2.0)}))
    assert ArbitraryFault([[1, 2]]).nodes == {(1, 2)}


def test_expand_rectangular_counts_nodes():
    shape = MeshShape((5, 5))
    nodes = expand_rectangular(shape, (1, 2), (2, 3))
    assert nodes == {(x, y) for x in (1, 2) for y in (2, 3, 4)}


def test_expand_rectangular_names_dimension_on_overflow():
    shape = MeshShape((7, 8, 11))
    with pytest.raises(ValueError, match="dimension 0"):
        expand_rectangular(shape, (0, 0, 0), (9, 1, 1))
    with pytest.raises(ValueError, match="dimension 2"):
        expand_rectangular(shape, (0, 0, 10), (1, 1, 2))
    with pytest.raises(ValueError, match=r"dimension 1: block spans -1\.\.0 but mesh allows"):
        expand_rectangular(shape, (0, -1, 0), (1, 2, 1))
    with pytest.raises(ValueError, match=r"dimension 0: block spans 7\.\.7 but mesh allows"):
        expand_rectangular(shape, (7, 0, 0), (1, 1, 1))


def test_ring_is_chebyshev_shell():
    shape = MeshShape((5, 5))
    ring = ring_of(shape, {(2, 2)})
    assert ring == {
        (1, 1), (1, 2), (1, 3),
        (2, 1), (2, 3),
        (3, 1), (3, 2), (3, 3),
    }
    shape3 = MeshShape((5, 5, 5))
    assert len(ring_of(shape3, {(2, 2, 2)})) == 26


def test_ring_clips_at_borders():
    shape = MeshShape((3, 3))
    ring = ring_of(shape, {(0, 0)})
    assert ring == {(0, 1), (1, 0), (1, 1)}


def test_ring_excludes_fault_nodes():
    shape = MeshShape((6, 6))
    block = expand_rectangular(shape, (1, 1), (2, 2))
    assert ring_of(shape, block).isdisjoint(block)


def test_classification_from_fault_region_only():
    shape = MeshShape((5, 5))
    assert classify(shape, {(2, 2)}) is Classification.RING
    assert classify(shape, {(0, 2)}) is Classification.CHAIN
    assert classify(shape, {(2, 4)}) is Classification.CHAIN
    # clipped shell, untouched border: still a ring
    shape3 = MeshShape((3, 3))
    assert classify(shape3, {(1, 1)}) is Classification.RING


def test_ring_ignores_a_node_with_too_few_coordinates():
    # (5,) is no node of a 2-D mesh; the dilation once raised IndexError on it.
    shape = MeshShape((3, 3))
    assert ring_of(shape, {(1, 1), (5,)}) == ring_of(shape, {(1, 1)})
    assert len(ring_of(shape, {(1, 1), (5,)})) == 8
    assert ring_of(shape, {(0, 0), (2, 2), (5,)}) == ring_of(shape, {(0, 0), (2, 2)})


def test_ring_and_class_of_a_set_wholly_outside_the_mesh_are_undefined():
    # Only the in-mesh part counts, so each of these sets is empty.
    shape = MeshShape((3, 3))
    for faults in ({(3, 3)}, {(-1, 1), (5,)}, {(1, 1, 1)}):
        with pytest.raises(ValueError, match="empty fault set"):
            ring_of(shape, faults)
        with pytest.raises(ValueError, match="empty fault set"):
            classify(shape, faults)


def test_build_complex_empty():
    shape = MeshShape((4, 4))
    complex_ = build_complex(shape, None)
    assert complex_.is_empty
    assert complex_.classification is None
    assert complex_.blocked == frozenset()


def test_build_complex_partitions_blocked():
    shape = MeshShape((6, 6))
    complex_ = build_complex(shape, RectFault((2, 2), (2, 2)))
    assert complex_.faults == frozenset(expand_rectangular(shape, (2, 2), (2, 2)))
    assert complex_.blocked == complex_.faults | complex_.ring
    assert complex_.faults.isdisjoint(complex_.ring)
    assert complex_.classification is Classification.RING


def test_overlap_and_arbitrary_expansion():
    shape = MeshShape((6, 6))
    overlap = OverlapFault((RectFault((0, 0), (2, 2)), RectFault((1, 1), (2, 2))))
    assert fault_nodes_of(shape, overlap) == (
        expand_rectangular(shape, (0, 0), (2, 2)) | expand_rectangular(shape, (1, 1), (2, 2))
    )
    arb = ArbitraryFault(frozenset({(0, 0), (2, 3)}))
    assert fault_nodes_of(shape, arb) == {(0, 0), (2, 3)}


def test_validate_clean_interior_block():
    shape = MeshShape((7, 8, 11))
    complex_ = build_complex(shape, RectFault((2, 2, 2), (2, 1, 3)))
    report = validate_complex(shape, complex_, RectFault((2, 2, 2), (2, 1, 3)))
    assert report.ok
    assert not report.violations


def test_validate_flags_disconnection():
    shape = MeshShape((5, 5))
    wall = ArbitraryFault(frozenset((2, y) for y in range(5)))
    complex_ = build_complex(shape, wall)
    report = validate_complex(shape, complex_, wall)
    assert not report.ok
    assert any(f.code == "disconnected" for f in report.violations)


def test_validate_flags_blocked_covering_mesh():
    shape = MeshShape((3, 2, 2))
    spec = RectFault((1, 1, 0), (1, 1, 1))
    complex_ = build_complex(shape, spec)
    report = validate_complex(shape, complex_, spec)
    assert report.ok
    assert any(f.code == "blocked-covers-mesh" for f in report.infos)


def test_validate_counts_only_blocked_nodes_inside_the_mesh():
    # A hand-built complex may hold a fault outside the mesh, here (5, 5): it
    # is reported, and it does not count against the two nodes left outside
    # the blocked set of the fault at (0, 0).
    shape = MeshShape((2, 3))
    faults = frozenset({(0, 0), (5, 5)})
    ring = frozenset(ring_of(shape, faults))
    report = validate_complex(shape, FaultComplex(faults, ring, faults | ring, None))
    assert [f.code for f in report.violations] == ["fault-outside-mesh"]
    assert not any(f.code == "blocked-covers-mesh" for f in report.infos)


def test_validate_counts_ring_nodes_outside_the_mesh_as_no_nodes():
    # A hand-built ring may hold a node outside the mesh, here (9, 9). The
    # blocked set of the fault at (0, 0) still leaves (0, 2) and (1, 2) free,
    # yet counting every blocked node but the faults outside the mesh as a
    # node once reported blocked-covers-mesh.
    shape = MeshShape((2, 3))
    faults = frozenset({(0, 0)})
    ring = frozenset(ring_of(shape, faults)) | {(9, 9)}
    report = validate_complex(shape, FaultComplex(faults, ring, faults | ring, None))
    assert report.ok
    assert not any(f.code == "blocked-covers-mesh" for f in report.infos)


def test_validate_flags_disjoint_overlap():
    shape = MeshShape((9, 9))
    spec = OverlapFault((RectFault((0, 0), (2, 2)), RectFault((6, 6), (2, 2))))
    complex_ = build_complex(shape, spec)
    report = validate_complex(shape, complex_, spec)
    assert any(f.code == "overlap-disjoint" for f in report.violations)


def test_validate_flags_all_faulty():
    shape = MeshShape((2, 2))
    spec = RectFault((0, 0), (2, 2))
    complex_ = build_complex(shape, spec)
    report = validate_complex(shape, complex_, spec)
    assert any(f.code == "all-nodes-faulty" for f in report.violations)
