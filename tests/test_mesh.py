import random
import re

import pytest

from faultring.mesh import (
    Box,
    MeshShape,
    bounding_box,
    delta,
    in_mesh_box,
    is_connected,
    link_count_direct,
    link_count_formula,
    neighbors,
    padded_index,
    padded_indices,
)


def test_shape_rejects_degenerate_radices():
    with pytest.raises(ValueError):
        MeshShape((4, 1))
    with pytest.raises(ValueError):
        MeshShape(())


def test_shape_refuses_a_radix_that_is_not_an_integer():
    # int() would truncate (2.9, 3.7) to a 2x3 mesh and read "3" as 3.
    for radices, message in (
        ((2.9, 3.7), "dimension 0: radix must be an integer, got 2.9"),
        ((3, "4"), "dimension 1: radix must be an integer, got '4'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            MeshShape(radices)


def test_node_count_and_enumeration_order():
    shape = MeshShape((2, 3))
    assert shape.node_count == 6
    nodes = list(shape.nodes())
    assert len(nodes) == 6
    # row-major: last coordinate varies fastest
    assert nodes[0] == (0, 0)
    assert nodes[1] == (0, 1)
    assert nodes[-1] == (1, 2)


def test_contains_and_boundary():
    shape = MeshShape((3, 3))
    assert shape.contains((0, 2))
    assert not shape.contains((3, 0))
    assert not shape.contains((-1, 0))
    assert shape.on_boundary((0, 1))
    assert not shape.on_boundary((1, 1))


def test_link_count_known_values():
    # 2x2x2 cube has 12 edges; a path graph of 4 has 3
    assert link_count_formula(MeshShape((2, 2, 2))) == 12
    assert link_count_formula(MeshShape((4,))) == 3
    assert link_count_formula(MeshShape((3, 5))) == 22


def test_link_count_formula_matches_direct_count():
    rng = random.Random(1105)
    for _ in range(40):
        n = rng.randint(1, 4)
        shape = MeshShape(tuple(rng.randint(2, 5) for _ in range(n)))
        assert link_count_formula(shape) == link_count_direct(shape)


def test_neighbors_corner_and_interior():
    shape = MeshShape((3, 3))
    assert sorted(neighbors(shape, (0, 0))) == [(0, 1), (1, 0)]
    assert len(list(neighbors(shape, (1, 1)))) == 4


def test_delta_is_componentwise_absolute_offsets():
    assert delta((1, 2, 3), (4, 0, 3)) == (3, 2, 0)
    with pytest.raises(ValueError):
        delta((1, 2), (1, 2, 3))


def test_bounding_box_and_membership():
    box = bounding_box((2, 5), (4, 1))
    assert box == Box((2, 1), (4, 5))
    assert box.contains((3, 3))
    assert not box.contains((5, 3))
    assert box.volume == 15
    assert set(box.nodes()) == {(x, y) for x in range(2, 5) for y in range(1, 6)}


def test_padded_indices_drop_nodes_outside_the_mesh():
    shape = MeshShape((3, 4))
    strides = shape.padded_strides()
    outside = [(1,), (1, 2, 0), (-1, 2), (1, -1), (3, 0), (0, 4), (3, 4)]
    assert padded_indices(shape, outside) == frozenset()
    inside = list(shape.nodes())
    expected = frozenset(padded_index(v, strides) for v in inside)
    assert len(expected) == shape.node_count
    assert padded_indices(shape, inside + outside) == expected


def test_in_mesh_box_splits_off_the_nodes_outside_the_mesh():
    shape = MeshShape((3, 4))
    block = {(x, y) for x in (1, 2) for y in (0, 1, 2)}
    assert in_mesh_box(shape, block) == (block, ((1, 0), (2, 2)), True)
    outside = [(1,), (1, 2, 0), (-1, 2), (3, 0), (0, 4)]
    assert in_mesh_box(shape, block.union(outside)) == (block, ((1, 0), (2, 2)), True)
    assert in_mesh_box(shape, [(0, 0), (2, 3)]) == ({(0, 0), (2, 3)}, ((0, 0), (2, 3)), False)
    # No node in the mesh: low above high on every axis, and the empty part fills it.
    assert in_mesh_box(shape, outside) == (set(), ((3, 4), (-1, -1)), True)


def test_is_connected_simple_cases():
    shape = MeshShape((5, 5))
    assert is_connected(shape)
    wall = {(2, y) for y in range(5)}
    assert not is_connected(shape, wall)
    assert is_connected(shape, {(2, 2)})
    with pytest.raises(ValueError):
        is_connected(shape, set(shape.nodes()))
