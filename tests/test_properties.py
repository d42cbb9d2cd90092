"""Property tests: the all-pairs engine against the per-pair oracles."""

import math
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from faultring.faults import ArbitraryFault, build_complex
from faultring.mesh import MeshShape
from faultring.paths import avoiding_brute, path_count
from faultring.reliability import compute_reliability, miss_paths, total_paths

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
