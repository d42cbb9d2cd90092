"""Property tests: the all-pairs engine against the per-pair oracles, its
invariance under the symmetries of the mesh, and the scenario round trip."""

import math
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from faultring.faults import ArbitraryFault, OverlapFault, RectFault, build_complex
from faultring.mesh import MeshShape
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
