import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from itertools import product

import pytest

import faultring
from faultring import montecarlo
from faultring.faults import ArbitraryFault, FaultComplex, RectFault, build_complex, ring_of
from faultring.mesh import MeshShape, padded_index
from faultring.montecarlo import (
    _BLOCK,
    McConfig,
    _pair_at,
    _pair_table,
    _walk,
    compare_with_exact,
    estimate_p_hit,
    sample_minimal_path,
)
from faultring.paths import path_count
from faultring.reference import reference_row
from faultring.reliability import compute_reliability, total_paths


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(samples=0)
    with pytest.raises(ValueError):
        McConfig(samples=10, seed=-1)
    with pytest.raises(ValueError):
        McConfig(samples=10, workers=0)
    for field, value in [("samples", True), ("seed", 4.5), ("workers", 1.5), ("seed", False)]:
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
            McConfig(**{field: value})


def test_sampled_paths_are_minimal():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = tuple(rng.randint(0, 5) for _ in range(n))
        b = tuple(rng.randint(0, 5) for _ in range(n))
        path = sample_minimal_path(rng, a, b)
        assert path[0] == a and path[-1] == b
        assert len(path) == 1 + sum(abs(x - y) for x, y in zip(a, b))
        for prev, cur in zip(path, path[1:]):
            diff = [abs(x - y) for x, y in zip(prev, cur)]
            assert sum(diff) == 1
        for v in path:
            # minimal paths never leave the endpoint bounding box
            assert all(min(x, y) <= c <= max(x, y) for c, x, y in zip(v, a, b))


def test_estimate_is_deterministic_per_seed():
    shape = MeshShape((6, 6))
    complex_ = build_complex(shape, RectFault((2, 2), (2, 1)))
    one = estimate_p_hit(shape, complex_, McConfig(samples=4000, seed=11))
    two = estimate_p_hit(shape, complex_, McConfig(samples=4000, seed=11))
    assert one == two
    other_seed = estimate_p_hit(shape, complex_, McConfig(samples=4000, seed=12))
    assert other_seed.hit_weight != one.hit_weight


def test_estimate_identical_across_worker_counts():
    shape = MeshShape((6, 6))
    complex_ = build_complex(shape, RectFault((2, 2), (2, 1)))
    serial = estimate_p_hit(shape, complex_, McConfig(samples=2000, seed=3, workers=1))
    parallel = estimate_p_hit(shape, complex_, McConfig(samples=2000, seed=3, workers=4))
    assert serial.hit_weight == parallel.hit_weight
    assert serial.total_weight == parallel.total_weight
    assert serial.hit_weight_sq == parallel.hit_weight_sq
    assert serial.total_weight_sq == parallel.total_weight_sq
    assert serial.p_hat == parallel.p_hat
    assert serial.std_error == parallel.std_error


def test_fault_free_estimate_is_exactly_zero():
    shape = MeshShape((5, 5))
    complex_ = build_complex(shape, None)
    estimate = estimate_p_hit(shape, complex_, McConfig(samples=500, seed=0))
    assert estimate.p_hat == 0.0
    assert estimate.hit_weight == 0


def test_covered_mesh_estimate_is_exactly_one():
    shape = MeshShape((3, 2, 2))
    complex_ = build_complex(shape, RectFault((1, 1, 0), (1, 1, 1)))
    estimate = estimate_p_hit(shape, complex_, McConfig(samples=500, seed=0))
    assert estimate.p_hat == 1.0
    assert estimate.hit_weight == estimate.total_weight


def test_estimate_agrees_with_exact_engine():
    shape = MeshShape((6, 6))
    complex_ = build_complex(shape, RectFault((2, 2), (2, 2)))
    comparison = compare_with_exact(shape, complex_, McConfig(samples=20000, seed=5))
    assert comparison.ok, (comparison.abs_error, comparison.sigma_distance)


def test_estimate_agrees_under_fault_obstacle():
    shape = MeshShape((6, 6))
    complex_ = build_complex(shape, RectFault((2, 2), (2, 2)))
    comparison = compare_with_exact(
        shape, complex_, McConfig(samples=20000, seed=5), obstacle="faults"
    )
    assert comparison.ok, (comparison.abs_error, comparison.sigma_distance)
    strict = compare_with_exact(shape, complex_, McConfig(samples=20000, seed=5))
    assert comparison.exact_p_hit < strict.exact_p_hit


def test_single_sample_has_zero_std_error():
    shape = MeshShape((4, 4))
    complex_ = build_complex(shape, RectFault((1, 1), (1, 1)))
    estimate = estimate_p_hit(shape, complex_, McConfig(samples=1, seed=2))
    assert estimate.std_error == 0.0
    assert estimate.samples == 1


def test_too_few_sampling_nodes_rejected():
    shape = MeshShape((2, 2))
    three_of_four = ArbitraryFault(frozenset({(0, 0), (0, 1), (1, 0)}))
    complex_ = build_complex(shape, three_of_four)
    with pytest.raises(ValueError):
        estimate_p_hit(shape, complex_, McConfig(samples=10, seed=0))


def test_fault_coordinates_outside_the_mesh_are_not_nodes():
    # A hand-built complex may hold a fault outside the mesh, here (5, 5); like
    # the exact engine, the estimator sees two healthy nodes, not one.
    shape = MeshShape((2, 2))
    faults = frozenset({(0, 0), (0, 1), (5, 5)})
    ring = frozenset(ring_of(shape, faults))
    complex_ = FaultComplex(faults, ring, faults | ring, None)
    for obstacle, p_hit in (("blocked", 1.0), ("faults", 0.0)):
        comparison = compare_with_exact(
            shape, complex_, McConfig(samples=300, seed=0), obstacle=obstacle
        )
        assert comparison.exact_p_hit == comparison.estimate.p_hat == p_hit


def test_pair_draws_follow_path_counts():
    # Chi-square over every ordered pair of healthy nodes, expected counts in
    # proportion to the pair's minimal-path count; significance 0.001.
    shape = MeshShape((3, 4, 2))
    complex_ = build_complex(shape, ArbitraryFault(frozenset({(0, 0, 0), (1, 2, 1)})))
    strides = shape.padded_strides()
    node_at = {padded_index(v, strides): v for v in shape.nodes()}
    faulty = frozenset(f for f, v in node_at.items() if v in complex_.faults)
    table = _pair_table(shape)
    rng = random.Random(31)
    counts = Counter()
    for _ in range(200_000):
        first, last, moves, remaining, length = _pair_at(table, rng.randrange(table[0][-1]))
        assert sum(remaining) == length
        cur = first
        for i in _walk(rng, remaining):
            cur += moves[i]
        assert cur == last
        if first not in faulty and last not in faulty:
            counts[first, last] += 1
    healthy = [f for f in node_at if f not in faulty]
    weights = {
        (a, b): path_count(node_at[a], node_at[b]) for a in healthy for b in healthy if a != b
    }
    assert set(counts) <= set(weights)
    draws = sum(counts.values())
    total = sum(weights.values())
    stat = 0.0
    for pair, weight in weights.items():
        expected = draws * weight / total
        stat += (counts[pair] - expected) ** 2 / expected
    dof = len(weights) - 1
    # Wilson-Hilferty approximation of the upper 0.001 quantile.
    critical = dof * (1 - 2 / (9 * dof) + 3.09 * math.sqrt(2 / (9 * dof))) ** 3
    assert stat < critical, (stat, critical)


def test_scenario_without_healthy_path_weight_is_refused_promptly():
    # Only row 0 of a 40x40 mesh is healthy: about 1 path-weighted pair in
    # 10^21 has two healthy endpoints, so sampling would never finish.
    shape = MeshShape((40, 40))
    complex_ = build_complex(shape, RectFault((1, 0), (39, 40)))
    start = time.monotonic()
    with pytest.raises(ValueError, match="run `analyze`"):
        estimate_p_hit(shape, complex_, McConfig(samples=10, seed=0))
    assert time.monotonic() - start < 5.0


def test_refusal_depends_on_the_scenario_not_the_sample_count():
    # A 7-row slab along one edge of a 40x40 mesh leaves healthy endpoints to
    # about 0.6% of the path weight: a sample needs some 170 draws, but the
    # scenario is accepted however many samples are asked for.
    shape = MeshShape((40, 40))
    complex_ = build_complex(shape, RectFault((0, 0), (7, 40)))
    estimate = estimate_p_hit(shape, complex_, McConfig(samples=10_000, seed=0, workers=2))
    exact = compute_reliability(shape, complex_).p_hit
    assert abs(estimate.p_hat - float(exact)) <= 4 * estimate.std_error
    # A 12-row slab (about 0.007%) is refused at a single sample.
    complex_ = build_complex(shape, RectFault((0, 0), (12, 40)))
    with pytest.raises(ValueError, match="run `analyze`"):
        estimate_p_hit(shape, complex_, McConfig(samples=1, seed=0))


def test_block_boundaries_do_not_leak_into_results(monkeypatch):
    # Workers split the samples on block boundaries, so every split, more
    # workers than blocks included, gives the serial estimate; and the first
    # S samples do not depend on how many follow them.
    shape = MeshShape((6, 6))
    complex_ = build_complex(shape, RectFault((2, 2), (2, 1)))
    hits = {}
    for samples in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17):
        serial = estimate_p_hit(shape, complex_, McConfig(samples=samples, seed=9))
        for workers in (2, 3, 4, 8):
            split = estimate_p_hit(shape, complex_, McConfig(samples, seed=9, workers=workers))
            assert split == serial, (samples, workers)
        hits[samples] = serial.hit_weight
    assert 0 <= hits[1] <= 1
    assert 0 <= hits[_BLOCK] - hits[_BLOCK - 1] <= 1
    assert 0 <= hits[_BLOCK + 1] - hits[_BLOCK] <= 1

    def no_pool(*args):
        raise AssertionError("a single block needs no worker pool")

    monkeypatch.setattr("multiprocessing.Pool", no_pool)
    single = estimate_p_hit(shape, complex_, McConfig(samples=_BLOCK, seed=9, workers=8))
    assert single.hit_weight == hits[_BLOCK]


def test_each_block_of_samples_is_seeded_once(monkeypatch):
    seed = random.Random.seed
    calls = []

    def counting_seed(self, *args, **kwargs):
        calls.append(args)
        return seed(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "seed", counting_seed)
    shape = MeshShape((6, 6))
    complex_ = build_complex(shape, RectFault((2, 2), (2, 1)))
    samples = 2 * _BLOCK + 5
    estimate_p_hit(shape, complex_, McConfig(samples=samples, seed=3))
    # One seeding per block, plus the pilot's.
    assert len(calls) == math.ceil(samples / _BLOCK) + 1


@pytest.mark.parametrize("radices", [(5,), (2, 2), (4, 4), (3, 4, 2), (2, 3, 2, 2)])
def test_every_rank_names_a_pair_once_per_minimal_path(radices):
    # Every rank below the table's total weight, fed to _pair_at, gives an
    # ordered pair of distinct nodes and a walk of the stated length from the
    # first to the last; over all ranks each pair comes up exactly as often as
    # it has minimal paths.
    shape = MeshShape(radices)
    strides = shape.padded_strides()
    node_at = {padded_index(v, strides): v for v in shape.nodes()}
    table = _pair_table(shape)
    counts = Counter()
    for rank in range(table[0][-1]):
        first, last, moves, remaining, length = _pair_at(table, rank)
        assert length == sum(abs(x - y) for x, y in zip(node_at[first], node_at[last]))
        cur = first
        for i in _walk(random.Random(rank), remaining):
            cur += moves[i]
        assert cur == last
        counts[first, last] += 1
    assert dict(counts) == {
        (a, b): path_count(node_at[a], node_at[b]) for a in node_at for b in node_at if a != b
    }


def _placements(radix, x):
    # A distance 0 sits at one of radix coordinates; a distance x > 0 at one
    # of radix - x low corners, walked up or down.
    return 2 * (radix - x) if x else radix


def _plain_weights(radices):
    """weights[j][L]: the path weight of the placements on axes 0..j whose
    distances sum to L, each weighed by comb(L, x) for its interleavings."""
    weights, before = [], [1]
    for radix in radices:
        row = [0] * (len(before) + radix - 1)
        for length, x in product(range(len(row)), range(radix)):
            if 0 <= length - x < len(before):
                row[length] += before[length - x] * _placements(radix, x) * math.comb(length, x)
        weights.append(row)
        before = row
    return weights


def _plain_pair_at(shape, weights, rank):
    """The rank-to-pair map from its definition, the result _pair_at must give.

    The rank picks the length, then, from the last axis to the first, the
    distance x among the ascending distances of that axis at the length L
    left. Less the weight of the distances below x, the rank's quotient by
    _placements(radix, x) * comb(L, x) is the rank among the axes before, and
    its remainder modulo _placements(radix, x) the placement: for x > 0, the
    low corner and whether the pair is flipped (first above last), as
    divmod(placement, 2)."""
    radices, strides = shape.radices, shape.padded_strides()
    length = 1
    while rank >= weights[-1][length]:
        rank -= weights[-1][length]
        length += 1
    first, last = [0] * shape.n, [0] * shape.n
    moves, remaining = [], []
    left = length
    for j in reversed(range(shape.n)):
        before = weights[j - 1] if j else [1]
        for x in range(radices[j]):
            part = 0
            if 0 <= left - x < len(before):
                part = before[left - x] * _placements(radices[j], x) * math.comb(left, x)
            if rank < part:
                break
            rank -= part
        rank, place = divmod(rank, _placements(radices[j], x) * math.comb(left, x))
        place %= _placements(radices[j], x)
        low, flip = divmod(place, 2) if x else (place, 0)
        first[j], last[j] = (low + x, low) if flip else (low, low + x)
        moves.append(-strides[j] if flip else strides[j])
        remaining.append(x)
        left -= x
    return padded_index(first, strides), padded_index(last, strides), moves, remaining, length


@pytest.mark.parametrize("radices", [(6,), (4, 3), (3, 4, 2), (2, 3, 2, 2), (2, 2, 2, 2, 2)])
def test_pair_at_is_the_plain_map_at_every_rank(radices):
    shape = MeshShape(radices)
    table, weights = _pair_table(shape), _plain_weights(radices)
    assert table[0][-1] == sum(weights[-1][1:])
    for rank in range(table[0][-1]):
        assert _pair_at(table, rank) == _plain_pair_at(shape, weights, rank), rank


@pytest.mark.parametrize("radices", [reference_row(5).radices, reference_row(6).radices, (12,) * 3])
def test_pair_at_is_the_plain_map_at_seeded_ranks(radices):
    shape = MeshShape(radices)
    table, weights = _pair_table(shape), _plain_weights(radices)
    rng = random.Random(17)
    for _ in range(20_000):
        rank = rng.randrange(table[0][-1])
        assert _pair_at(table, rank) == _plain_pair_at(shape, weights, rank), rank


@pytest.mark.parametrize(
    "row, obstacle, seed, samples, hits",
    [(5, "faults", 1, 5000, 4426), (6, "faults", 1, 5000, 4418), (5, "blocked", 2, 3000, 2964)],
)
def test_benchmark_estimates_keep_their_sample_streams(row, obstacle, seed, samples, hits):
    # perfbench's mc workload estimates on these rows at these sample counts;
    # the hit counts are pinned at one and two workers.
    shape, complex_ = reference_row(row).build()
    for workers in (1, 2):
        config = McConfig(samples=samples, seed=seed, workers=workers)
        assert estimate_p_hit(shape, complex_, config, obstacle).hit_weight == hits


@pytest.mark.parametrize("radices", [reference_row(5).radices, reference_row(6).radices, (12,) * 3])
def test_pair_table_weight_is_twice_the_fault_free_denominator(radices):
    shape = MeshShape(radices)
    assert _pair_table(shape)[0][-1] == 2 * total_paths(shape, ())


def test_importing_the_package_leaves_multiprocessing_out():
    # The pool module is imported only by an estimate that runs workers.
    code = "import sys, faultring; assert 'multiprocessing' not in sys.modules, sorted(sys.modules)"
    src = os.path.dirname(os.path.dirname(faultring.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
