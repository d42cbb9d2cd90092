import copy
import hashlib
import math
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

import faultring
from faultring import montecarlo, paths
from faultring.faults import ArbitraryFault, FaultComplex, RectFault, build_complex, ring_of
from faultring.mesh import MeshShape, padded_index
from faultring.montecarlo import (
    _BLOCK,
    McConfig,
    _tally_range,
    _walk,
    compare_with_exact,
    estimate_p_hit,
    sample_minimal_path,
)
from faultring.paths import _axis_counts, _fold, _pair_at, _pair_table, _row, path_count
from faultring.reference import reference_row
from faultring.reliability import OBSTACLES, compute_reliability, total_paths


@pytest.fixture(autouse=True)
def eight_cpus(monkeypatch):
    # An estimate starts at most os.cpu_count() workers; the pool tests here
    # split their samples as many ways as they ask, whatever the host has.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)


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


def test_sampled_path_refuses_endpoints_of_different_dimension():
    # zip would truncate the longer endpoint, ending the path at (2, 2, 0).
    for a, b in [((0, 0, 0), (2, 2)), ((2, 2), (0, 0, 0))]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            sample_minimal_path(random.Random(5), a, b)
    # Valid endpoints draw the paths they drew before the check (literals
    # computed before it was added).
    assert sample_minimal_path(random.Random(5), (0, 0, 0), (2, 3, 1)) == [
        (0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 3, 1), (1, 3, 1), (2, 3, 1)
    ]
    assert sample_minimal_path(random.Random(5), (4, 1), (1, 3)) == [
        (4, 1), (4, 2), (3, 2), (3, 3), (2, 3), (1, 3)
    ]


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


def test_fault_free_estimate_takes_no_walk(monkeypatch):
    # With no avoid node every pair misses B at once, so a fault-free 300^3
    # estimate draws its ranks and nothing else: every getrandbits call asks
    # for the width of the table's total weight, none for the few bits of a
    # walk's move, of which a full walk on 300^3 draws about 850.
    widths = []

    class Counting(random.Random):
        def getrandbits(self, k):
            widths.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(random, "Random", Counting)
    shape = MeshShape((300, 300, 300))
    estimate = estimate_p_hit(shape, build_complex(shape, None), McConfig(samples=10_000, seed=1))
    assert estimate.hit_weight == 0
    assert len(widths) >= 10_000 and min(widths) > 64


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


def test_estimate_with_no_spread_is_measured_in_the_exact_values_error(monkeypatch):
    # An 8x8 block in a 12x12 mesh leaves p_hit = 0.99996 under "blocked", so
    # every seed's 2000 samples all hit and the estimate's standard error is
    # 0. The gap, 4.1e-5, is then measured in the standard error of an
    # estimate of p, sqrt(p (1 - p) / 2000) = 1.4e-4: 0.288 sigma, not inf.
    shape = MeshShape((12, 12))
    complex_ = build_complex(shape, RectFault((2, 2), (8, 8)))
    for seed in range(10):
        comparison = compare_with_exact(shape, complex_, McConfig(samples=2000, seed=seed))
        assert comparison.estimate.std_error == 0 and comparison.ok, seed
        assert comparison.sigma_distance == pytest.approx(0.2877, abs=1e-4), seed
    # At p exactly 0 or 1 an estimate has no spread either, so any gap fails.
    never = replace(compute_reliability(shape, complex_), p_hit=Fraction(0))
    monkeypatch.setattr(montecarlo, "compute_reliability", lambda *args, **kwargs: never)
    comparison = compare_with_exact(shape, complex_, McConfig(samples=2000, seed=0))
    assert comparison.sigma_distance == math.inf and not comparison.ok


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
        first, last, moves, remaining, _, length = _pair_at(table, rng.randrange(table[0][-1]))
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


class PicklingPool:
    """Runs a pool's jobs in this process, each pickled and unpickled as a
    real pool sends it, and records the size of what each job sent in
    `sent`, which a test replaces with a fresh list."""

    sent: list[int] = []

    def __init__(self, workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, func, jobs):
        results = []
        for job in jobs:
            data = pickle.dumps((func, job))
            self.sent.append(len(data))
            func, job = pickle.loads(data)
            results.append(func(*job))
        return results


def test_pool_jobs_send_the_mesh_shape_not_the_pair_table(monkeypatch):
    # Each job names the shape and carries its fold, the per-axis weights,
    # from which the worker builds the placement tables and the rows it reads;
    # on 60x60x60 the fold pickles to about 5 kB, while the rows alone once
    # pickled to 423 kB.
    shape = MeshShape((60, 60, 60))
    complex_ = build_complex(shape, RectFault((28, 28, 28), (3, 3, 3)))
    serial = estimate_p_hit(shape, complex_, McConfig(samples=2 * _BLOCK, seed=5))
    monkeypatch.setattr("multiprocessing.Pool", PicklingPool)
    monkeypatch.setattr(PicklingPool, "sent", [])
    split = estimate_p_hit(shape, complex_, McConfig(samples=2 * _BLOCK, seed=5, workers=2))
    assert split == serial
    fold = len(pickle.dumps(_fold(_axis_counts(0, 59, 0, 59) for _ in range(3))))
    assert len(PicklingPool.sent) == 2 and max(PicklingPool.sent) < fold + 4096


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_estimate_folds_its_mesh_once_at_any_worker_count(monkeypatch, workers):
    # The parent folds once and each job carries the fold, so no worker
    # folds again; the pool runs its jobs in this process, as it sends them.
    shape, complex_ = reference_row(5).build()
    serial = estimate_p_hit(shape, complex_, McConfig(samples=3 * _BLOCK, seed=1), "faults")
    calls = []

    def counting_fold(axes):
        calls.append(1)
        return _fold(axes)

    monkeypatch.setattr(paths, "_fold", counting_fold)
    monkeypatch.setattr("multiprocessing.Pool", PicklingPool)
    monkeypatch.setattr(PicklingPool, "sent", [])
    config = McConfig(samples=3 * _BLOCK, seed=1, workers=workers)
    assert estimate_p_hit(shape, complex_, config, "faults") == serial
    assert len(calls) == 1


def test_pool_starts_at_most_one_worker_per_cpu(monkeypatch):
    # The estimate is the same for every worker count, so a worker beyond the
    # CPU count only builds one more pair table. The pool below records how
    # many workers it is asked for and runs its jobs in this process.
    asked = []

    class RecordingPool:
        def __init__(self, workers):
            asked.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, jobs):
            return [func(*job) for job in jobs]

    shape = MeshShape((6, 6))
    complex_ = build_complex(shape, RectFault((2, 2), (2, 1)))
    config = McConfig(samples=10 * _BLOCK, seed=9, workers=5000)
    serial = estimate_p_hit(shape, complex_, McConfig(samples=10 * _BLOCK, seed=9))
    monkeypatch.setattr("multiprocessing.Pool", RecordingPool)
    # The 10 blocks bound the pool when the CPUs do not; one CPU, or an
    # unknown count, runs the samples in this process.
    for cpus, pools in [(3, [3]), (64, [10]), (1, []), (None, [])]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        asked.clear()
        assert estimate_p_hit(shape, complex_, config) == serial
        assert asked == pools, cpus


def test_pool_under_the_spawn_start_method_keeps_the_stream(monkeypatch):
    # Spawn, the default start method on macOS and Windows, starts each worker
    # in a fresh interpreter that imports the package, so nothing reaches a
    # job from this process but what the job pickles.
    import multiprocessing

    monkeypatch.setattr("multiprocessing.Pool", multiprocessing.get_context("spawn").Pool)
    shape, complex_ = reference_row(5).build()
    config = McConfig(samples=5000, seed=1, workers=2)
    assert estimate_p_hit(shape, complex_, config, "faults").hit_weight == 4461


def test_std_error_is_calibrated_on_small_rows():
    # z = (p_hat - p) / std_error over 900 seeded estimates of 200 samples,
    # p exact; on rows 2 and 3 under faults and row 4 under blocked p is 0.21,
    # 0.30 and 0.82, so no estimate reads 0 or 1. Right error bars give sd(z)
    # near 1, |z| <= 2 in about 95% of estimates and mean z near 0 (these seeds
    # read 1.044, 94.4% and +0.028). Over 40 other sets of 300 seeds the three
    # ranged over 0.95-1.06, 94.2-96.3% and -0.09..+0.07, with standard
    # deviations 0.021, 0.005 and 0.034; each band lies at least 4.3 of them
    # from their mean, so a correct estimator fails this test with probability
    # below 1e-4. std_error halved reads sd(z) 2.09 and 66%; one hit too many
    # per estimate reads mean z +0.20.
    zs = []
    for row, obstacle in [(2, "faults"), (3, "faults"), (4, "blocked")]:
        shape, complex_ = reference_row(row).build()
        p = float(compute_reliability(shape, complex_, obstacle=obstacle).p_hit)
        for seed in range(300):
            estimate = estimate_p_hit(shape, complex_, McConfig(samples=200, seed=seed), obstacle)
            zs.append((estimate.p_hat - p) / estimate.std_error)
    mean = sum(zs) / len(zs)
    sd = math.sqrt(sum((z - mean) ** 2 for z in zs) / len(zs))
    covered = sum(abs(z) <= 2 for z in zs) / len(zs)
    assert 0.9 <= sd <= 1.2, sd
    assert 0.9 <= covered <= 0.99, covered
    assert abs(mean) <= 0.15, mean


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
        first, last, moves, remaining, _, length = _pair_at(table, rank)
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
    its remainder modulo _placements(radix, x) the placement: for x > 0,
    whether the pair is flipped (first above last) and the low corner, as
    divmod(placement, radix - x). An axis's spot is its last coordinate,
    plus the radix when the pair is flipped."""
    radices, strides = shape.radices, shape.padded_strides()
    length = 1
    while rank >= weights[-1][length]:
        rank -= weights[-1][length]
        length += 1
    first, last = [0] * shape.n, [0] * shape.n
    moves, remaining, spots = [], [], []
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
        flip, low = divmod(place, radices[j] - x) if x else (0, place)
        first[j], last[j] = (low + x, low) if flip else (low, low + x)
        moves.append(-strides[j] if flip else strides[j])
        remaining.append(x)
        spots.append(last[j] + flip * radices[j])
        left -= x
    first, last = padded_index(first, strides), padded_index(last, strides)
    return first, last, moves, remaining, spots, length


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


# A 40-node line with a 3-node block at one end: no reference row has one axis.
LINE = ((40,), (0,), (3,))
# A 30^4 mesh with a 3^4 block in the middle: 4-D paths of up to 116 moves,
# where reference row 6's run to 23.
HYPERCUBE = ((30,) * 4, (13,) * 4, (3,) * 4)


@pytest.mark.parametrize(
    "row, obstacle, seed, samples, hits",
    [
        pytest.param(5, "faults", 1, 5000, 4461, id="5-faults-1-5000"),
        pytest.param(6, "faults", 1, 5000, 4410, id="6-faults-1-5000"),
        pytest.param(5, "blocked", 2, 3000, 2958, id="5-blocked-2-3000"),
        pytest.param(10, "faults", 1, 5000, 159, id="10-faults-1-5000"),
        pytest.param(10, "blocked", 1, 5000, 3359, id="10-blocked-1-5000"),
        pytest.param(LINE, "blocked", 1, 5000, 241, id="line-blocked-1-5000"),
        pytest.param(HYPERCUBE, "blocked", 1, 2000, 872, id="30^4-blocked-1-2000"),
        pytest.param(HYPERCUBE, "faults", 1, 2000, 266, id="30^4-faults-1-2000"),
    ],
)
def test_benchmark_estimates_keep_their_sample_streams(row, obstacle, seed, samples, hits):
    # perfbench's mc workload estimates on rows 5 and 6 at these sample
    # counts. Their 3 and 4 axes, and the 30^4 mesh's long rows, take the
    # sample loop's one unrolled decode and walk; 5-D row 10 and the line take
    # the list scan. The hit counts are pinned at one and two workers; each
    # lies within 4 standard errors of the exact p_hit. The ids leave the
    # count out, so a stream change edits a pin and renames no test.
    if isinstance(row, int):
        shape, complex_ = reference_row(row).build()
    else:
        radices, origin, extents = row
        shape = MeshShape(radices)
        complex_ = build_complex(shape, RectFault(origin, extents))
    for workers in (1, 2):
        config = McConfig(samples=samples, seed=seed, workers=workers)
        assert estimate_p_hit(shape, complex_, config, obstacle).hit_weight == hits


def _stream_estimates():
    """120 seeded estimates: n 1-5, radices 2-6, a rect fault or scattered
    faults, both obstacles, and one estimate in ten on two workers over two
    blocks; a refused scenario records its message."""
    rng = random.Random(26)
    for i in range(120):
        radices = tuple(rng.randint(2, 6) for _ in range(1 + i % 5))
        shape = MeshShape(radices)
        if i % 2:
            origin = tuple(rng.randrange(r) for r in radices)
            spec = RectFault(origin, tuple(rng.randint(1, r - o) for r, o in zip(radices, origin)))
        else:
            spec = ArbitraryFault(frozenset(v for v in shape.nodes() if rng.random() < 0.2))
        workers = 2 if i % 10 == 9 else 1
        config = McConfig(samples=2 * _BLOCK + 1 if workers == 2 else 300,
                          seed=rng.randrange(2**32), workers=workers)
        try:
            estimate = estimate_p_hit(shape, build_complex(shape, spec), config, OBSTACLES[i // 2 % 2])
        except ValueError as exc:
            yield str(exc)
        else:
            yield estimate.hit_weight, estimate.p_hat, estimate.std_error


def test_seeded_estimates_keep_their_sample_streams():
    # One digest of 120 estimates, made before the pair map moved from
    # montecarlo.py to paths.py: any change to a draw, a redraw, a walk or the
    # pilot's refusal changes it.
    results = list(_stream_estimates())
    assert sum(isinstance(r, str) for r in results) < 10
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "93d77f7c944c011e67e0d6ede55986d19e34c6115b7cc983b7030f18cc72b46f"


@pytest.mark.parametrize("radices", [(9,), (5, 4), (4, 3, 5), (3, 4, 2, 3), (2, 3, 2, 2, 3)])
def test_sample_loop_leaves_the_pair_table_unchanged(radices):
    # An estimate's pilot and sample loop read one table, so the sample loop
    # must not write to it but for the rows and walks it builds on first
    # read, each of which must equal a fresh table's at the same length; the
    # list scan consumes the counts _pair_at returns, so every call returns
    # new lists. One avoided node and no faults let many walks run far.
    shape = MeshShape(radices)
    table = _pair_table(shape)
    before = copy.deepcopy(table)
    middle = tuple(r // 2 for r in radices)
    avoid = frozenset({padded_index(middle, shape.padded_strides())})
    box = (middle, middle)
    assert 0 < _tally_range(table, frozenset(), avoid, box, 7, 0, 2 * _BLOCK) < 2 * _BLOCK
    fresh = _pair_table(shape)
    for axis, old, new in zip(table[1], before[1], fresh[1]):
        assert not any(old[0]) and axis[1:] == old[1:] and len(axis[0]) == len(old[0])
        built = [length for length, row in enumerate(axis[0]) if row]
        assert built and all(axis[0][length] == _row(new, length) for length in built)
    walks, old_walks = table[3], before[3]
    assert not any(old_walks[:-1]) and walks[-1] == old_walks[-1] and len(walks) == len(old_walks)
    built = [length for length, walk in enumerate(walks[:-1]) if walk]
    assert built and all(walks[length] == walks[-1][-length:] for length in built)
    assert table[0] == before[0] and table[2] == before[2] and table[4] == before[4]
    one, two = _pair_at(table, 0), _pair_at(table, 0)
    assert one == two and all(one[i] is not two[i] for i in (2, 3, 4))


@pytest.mark.parametrize("radices", [reference_row(5).radices, reference_row(6).radices, (12,) * 3])
def test_pair_table_weight_is_twice_the_fault_free_denominator(radices):
    shape = MeshShape(radices)
    assert _pair_table(shape)[0][-1] == 2 * total_paths(shape, ())


# Run in a fresh interpreter, whose peak resident size no earlier test has
# raised: prints the growth of the peak, in MiB, over the denominator of a
# 300x300x300 mesh and then over its pair table.
PEAK_GROWTH = """
import resource, sys
from faultring.mesh import MeshShape
from faultring.paths import _pair_table
from faultring.reliability import total_paths
unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes on macOS, else KiB
peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 2**20
shape = MeshShape((300, 300, 300))
base = peak()
total_paths(shape)
denominator = peak() - base
table = _pair_table(shape)
print(denominator, peak() - base)
"""


def test_pair_table_and_denominator_keep_no_rows_on_300_cubed():
    # The fold keeps weights only and the pair table builds a row when a
    # sample first reads it, so on 300x300x300 the denominator's peak grows
    # by well under a MiB and the table's by its fold and its 0.07 MiB of
    # placement tables; when the fold kept every row and the table turned
    # each into its own copy, the two grew by 11-30 and 71-89 MiB.
    # tracemalloc would trace every integer of the fold and take seconds, so
    # the peak resident size of a fresh process is read instead.
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(faultring.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", PEAK_GROWTH], check=True, env=env, capture_output=True, text=True
    ).stdout
    denominator, table = map(float, out.split())
    assert denominator < 4 and table < 16, (denominator, table)


def test_placement_tables_of_radix_1000_and_2000_axes_hold_under_half_a_mib():
    # Axis 0 of a 1000^3 and of a 2000^2 mesh, on its padded stride and
    # origin, as _pair_table builds it: c(x) by distance and two spot lists
    # of 2r entries, 0.10 and 0.20 MiB. The first endpoint is read as the
    # last less x steps; one list of first offsets per distance, about r^2
    # references, took 7.8 and 30.9 MiB.
    for radix, stride, origin in ((1000, 1002**2, 1002**2 + 1003), (2000, 2002, 2003)):
        tracemalloc.start()
        try:
            tables = paths._placements(radix, stride, origin)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del tables
        assert held < 2**20 / 2, (radix, held / 2**20)


def test_importing_the_package_leaves_multiprocessing_out():
    # The pool module is imported only by an estimate that runs workers.
    code = "import sys, faultring; assert 'multiprocessing' not in sys.modules, sorted(sys.modules)"
    src = os.path.dirname(os.path.dirname(faultring.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
