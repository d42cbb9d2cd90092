"""Property tests: the all-pairs engine against the per-pair oracles, its
invariance under the symmetries of the mesh, connectivity and rings against
their definitions, and the scenario round trip."""

import math
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faultring.faults import ArbitraryFault, OverlapFault, RectFault, build_complex, ring_of
from faultring.mesh import MeshShape, is_connected, neighbors
from faultring.paths import avoiding_brute, path_count
from faultring.reliability import (
    CROSS_CHECKS,
    ENGINES,
    OBSTACLES,
    compute_reliability,
    miss_paths,
    total_paths,
)
from faultring.scenarios import (
    AnalysisOptions,
    McOptions,
    ScenarioConfig,
    parse_scenario,
    serialize_scenario,
)

MAX_NODES = 40


@st.composite
def scenarios(draw):
    """A mesh of at most MAX_NODES nodes, radices 2..5, and any fault set
    leaving at least two healthy nodes (corners and borders included)."""
    n = draw(st.integers(1, 4))
    radices: list[int] = []
    for i in range(n):
        room = MAX_NODES // (math.prod(radices) * 2 ** (n - i - 1))
        radices.append(draw(st.integers(2, min(5, room))))
    shape = MeshShape(tuple(radices))
    nodes = list(shape.nodes())
    faults = draw(st.sets(st.sampled_from(nodes), max_size=len(nodes) - 2))
    return shape, build_complex(shape, ArbitraryFault(frozenset(faults)))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(scenarios())
def test_all_pairs_engine_matches_per_pair_oracles(scenario):
    shape, complex_ = scenario
    healthy = [v for v in shape.nodes() if v not in complex_.faults]
    assert total_paths(shape, complex_.faults) == sum(
        path_count(a, b) for a, b in combinations(healthy, 2)
    )
    for obstacle, avoid in (("blocked", complex_.blocked), ("faults", complex_.faults)):
        free = [v for v in shape.nodes() if v not in avoid]
        brute = sum(avoiding_brute(a, b, avoid) for a, b in combinations(free, 2))
        via_dp = miss_paths(shape, complex_, engine="dp", obstacle=obstacle)
        assert via_dp == brute == miss_paths(shape, complex_, engine="det", obstacle=obstacle)
        result = compute_reliability(shape, complex_, obstacle=obstacle)
        assert result.p_hit + result.p_miss == 1


def _mapped(complex_, image, radices):
    faults = ArbitraryFault(frozenset(image(v) for v in complex_.faults))
    moved = MeshShape(radices)
    return moved, build_complex(moved, faults)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(scenarios(), st.data())
def test_p_hit_is_invariant_under_permutation_and_reflection(scenario, data):
    shape, complex_ = scenario
    radices = shape.radices
    perm = data.draw(st.permutations(range(shape.n)))
    flips = data.draw(st.lists(st.booleans(), min_size=shape.n, max_size=shape.n))
    permuted = _mapped(
        complex_, lambda v: tuple(v[p] for p in perm), tuple(radices[p] for p in perm)
    )
    reflected = _mapped(
        complex_,
        lambda v: tuple(r - 1 - x if f else x for x, r, f in zip(v, radices, flips)),
        radices,
    )
    for obstacle in OBSTACLES:
        p_hit = compute_reliability(shape, complex_, obstacle=obstacle).p_hit
        for moved_shape, moved_complex in (permuted, reflected):
            assert compute_reliability(moved_shape, moved_complex, obstacle=obstacle).p_hit == p_hit


@st.composite
def faulty_meshes(draw):
    """A mesh with n 1..4 and radices 2..5 and a fault set: scattered faults
    at some density, optionally with node 0, a corner and a full-width wall;
    or every node but one faulty; or every node faulty."""
    n = draw(st.integers(1, 4))
    shape = MeshShape(tuple(draw(st.integers(2, 5)) for _ in range(n)))
    nodes = list(shape.nodes())
    kind = draw(st.sampled_from(("scattered", "one-healthy", "all-faulty")))
    if kind == "one-healthy":
        return shape, set(nodes) - {draw(st.sampled_from(nodes))}
    if kind == "all-faulty":
        return shape, set(nodes)
    density = draw(st.sampled_from((0.0, 0.05, 0.2, 0.4)))
    rng = draw(st.randoms(use_true_random=False))
    faults = {v for v in nodes if rng.random() < density}
    if draw(st.booleans()):
        faults.add(nodes[0])
    if draw(st.booleans()):
        faults.add(tuple(draw(st.sampled_from((0, r - 1))) for r in shape.radices))
    if draw(st.booleans()):
        axis = draw(st.integers(0, n - 1))
        x = draw(st.integers(0, shape.radices[axis] - 1))
        faults |= {v for v in nodes if v[axis] == x}
    return shape, faults


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(faulty_meshes())
def test_is_connected_matches_neighbour_search(case):
    shape, faults = case
    healthy = [v for v in shape.nodes() if v not in faults]
    # A coordinate just outside the mesh is ignored.
    outside = faults | {shape.radices}
    if not healthy:
        with pytest.raises(ValueError):
            is_connected(shape, outside)
        return
    seen = {healthy[0]}
    stack = [healthy[0]]
    while stack:
        for nb in neighbors(shape, stack.pop()):
            if nb not in faults and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    assert is_connected(shape, outside) == (len(seen) == len(healthy))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(faulty_meshes())
def test_ring_is_the_healthy_chebyshev_shell(case):
    shape, faults = case
    assume(faults)
    shell = set()
    for v in shape.nodes():
        near = (tuple(x + o for x, o in zip(v, off)) for off in product((-1, 0, 1), repeat=shape.n))
        if v not in faults and any(u in faults for u in near):
            shell.add(v)
    assert ring_of(shape, faults) == shell
    complex_ = build_complex(shape, ArbitraryFault(frozenset(faults)))
    assert complex_.faults == faults
    assert complex_.ring == shell
    assert complex_.blocked == faults | shell


@st.composite
def rects(draw, shape):
    origin = [draw(st.integers(0, r - 1)) for r in shape.radices]
    extents = [draw(st.integers(1, r - o)) for r, o in zip(shape.radices, origin)]
    return RectFault(tuple(origin), tuple(extents))


@st.composite
def scenario_configs(draw):
    shape, _ = draw(scenarios())
    nodes = st.sampled_from(list(shape.nodes()))
    fault = st.one_of(
        rects(shape),
        st.lists(rects(shape), min_size=1, max_size=3).map(lambda r: OverlapFault(tuple(r))),
        st.frozensets(nodes, min_size=1).map(ArbitraryFault),
    )
    analysis = AnalysisOptions(
        engine=draw(st.sampled_from(ENGINES)),
        cross_check=draw(st.none() | st.sampled_from(CROSS_CHECKS)),
        precision=draw(st.integers(0, 12)),
        obstacle=draw(st.sampled_from(OBSTACLES)),
        budget=draw(st.floats(min_value=1e-3, max_value=1e300, allow_infinity=False)),
    )
    mc = McOptions(
        samples=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(0, 2**70)),
        workers=draw(st.integers(1, 64)),
    )
    faults = tuple(draw(st.lists(fault, max_size=3)))
    return ScenarioConfig(shape=shape, faults=faults, analysis=analysis, mc=mc)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(scenario_configs())
def test_scenarios_round_trip(config):
    assert parse_scenario(serialize_scenario(config)) == config
