"""Seeded Monte-Carlo estimation of the fault-ring hit probability.

Each sample draws a uniformly random minimal path between two distinct
non-faulty nodes and records whether it visits the avoid set (endpoints
included), so the hit fraction estimates the path-weighted probability the
exact engine computes, under either avoid-set choice (the ring-augmented
region by default, the bare fault region with obstacle="faults"), with the
binomial standard error. One uniform integer below the path weight of all
ordered pairs names a path: bisection over cumulative weights picks the
offset vector, the rest a placement of the pair and the rank of its path.
A pair with a faulty endpoint is redrawn; a scenario where that would stall
is refused up front.

Determinism: samples come in fixed blocks of _BLOCK consecutive indices, and
block b draws all of its samples, in order, from one generator seeded from
(seed, b). Workers split the index range on block boundaries only, so the
estimate is bit-identical for a given (seed, samples) regardless of worker
count, and the first S samples are the same whatever the sample count.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, product
from operator import mul
from typing import Iterator

from faultring.faults import FaultComplex
from faultring.mesh import Coord, MeshShape, padded_indices
from faultring.paths import multinomial
from faultring.reliability import EnginePolicy, Obstacle, _avoid_set, compute_reliability

_SEED_SPAN = 2**64
# One seeding costs about as much as one sample; a block makes it negligible.
_BLOCK = 1024
_PILOT_DRAWS = 100_000
_PILOT_ACCEPTS = 20


@dataclass(frozen=True)
class McConfig:
    """Estimator settings, and a scenario's "mc" record: its defaults are these."""

    samples: int = 100_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class McEstimate:
    """Hit-fraction estimate: every sample weighs 1, so hit_weight counts the
    hits, total_weight the samples, and the squared-weight sums equal them."""

    p_hat: float
    std_error: float
    samples: int
    seed: int
    workers: int
    hit_weight: int
    total_weight: int

    @property
    def hit_weight_sq(self) -> int:
        return self.hit_weight

    @property
    def total_weight_sq(self) -> int:
        return self.total_weight


def _unrank(remaining: list[int], paths: int, rank: int) -> Iterator[int]:
    """Yield the axis of each move of the minimal path with the given rank.

    Of the `paths` paths left, those whose next move is along axis i take the
    next paths * remaining[i] / left ranks. Consumes `remaining`.
    """
    left = sum(remaining)
    while left:
        for i, count in enumerate(remaining):
            block = paths * count // left
            if rank < block:
                break
            rank -= block
        paths = block
        remaining[i] -= 1
        left -= 1
        yield i


def sample_minimal_path(rng: random.Random, a: Coord, b: Coord) -> list[Coord]:
    """Draw a uniformly random minimal path from a to b, inclusive of both."""
    remaining = [abs(y - x) for x, y in zip(a, b)]
    steps = [1 if y >= x else -1 for x, y in zip(a, b)]
    paths = multinomial(remaining)
    cur = list(a)
    path = [tuple(a)]
    for i in _unrank(remaining, paths, rng.randrange(paths)):
        cur[i] += steps[i]
        path.append(tuple(cur))
    return path


def _pair_table(shape: MeshShape):
    """Per absolute offset vector d != 0, in product order: d, multinomial(d),
    the placements per axis (low corner, and orientation where d_i != 0), and
    the path weight of the ordered pairs at every earlier offset, then of all;
    last, the padded strides of the mesh and the padded index of node 0."""
    radices = shape.radices
    offsets = list(islice(product(*map(range, radices)), 1, None))
    # multinomial(d) one axis at a time in product order, without the unbounded
    # memo of paths.multinomial: appending x to a prefix of length l gives
    # multinomial(prefix, x) = multinomial(prefix, x - 1) * (l + x) / x.
    paths, lengths = [1], [0]
    for r in radices:
        longer, longer_lengths = [], []
        for m, length in zip(paths, lengths):
            for x in range(r):
                if x:
                    length += 1
                    m = m * length // x
                longer.append(m)
                longer_lengths.append(length)
        paths, lengths = longer, longer_lengths
    del paths[0]
    spans = [tuple([(r - x) * 2 if x else r for r, x in zip(radices, d)]) for d in offsets]
    starts = list(accumulate(map(mul, paths, map(math.prod, spans)), initial=0))
    strides = shape.padded_strides()
    return offsets, paths, spans, starts, strides, sum(strides)


def _draw(rng: random.Random, table, faulty: frozenset[int] = frozenset()):
    """Draw an ordered pair of distinct nodes in proportion to its minimal paths,
    and one of those paths uniformly: the endpoints' padded flat indices (see
    MeshShape.padded_strides), the signed flat step along each axis, and the
    axes of the path's moves, unranked lazily. A pair with an endpoint in
    `faulty` gives None before its walk is built."""
    offsets, paths, spans, starts, strides, origin = table
    x = rng.randrange(starts[-1])
    k = bisect_right(starts, x) - 1
    place, rank = divmod(x - starts[k], paths[k])
    first = last = origin
    flips = []
    for d, span, stride in zip(offsets[k], spans[k], strides):
        place, low = divmod(place, span)
        low, flip = divmod(low, 2) if d else (low, 0)
        first += (low + d * flip) * stride
        last += (low + d - d * flip) * stride
        flips.append(flip)
    if first in faulty or last in faulty:
        return None
    moves = [-stride if flip else stride for flip, stride in zip(flips, strides)]
    return first, last, moves, _unrank(list(offsets[k]), paths[k], rank)


def _check_sampleable(table, faulty: frozenset[int]) -> None:
    """Refuse a scenario whose healthy pairs hold too little of the path weight.

    A fixed-seed pilot must find _PILOT_ACCEPTS pairs with two non-faulty
    endpoints in _PILOT_DRAWS draws, so the refusal depends on the scenario
    alone. It is certain below a share of 5e-5, where a sample would need
    20 000 draws, and never happens above 1e-3.
    """
    rng = random.Random(0)
    accepted = 0
    for _ in range(_PILOT_DRAWS):
        accepted += _draw(rng, table, faulty) is not None
        if accepted == _PILOT_ACCEPTS:
            return
    raise ValueError(
        f"only {accepted} of {_PILOT_DRAWS} path-weighted pair draws have two non-faulty "
        "endpoints: the faults hold nearly all of the path weight; run `analyze` for the "
        "exact value"
    )


def _tally_range(
    table,
    faulty: frozenset[int],
    avoid: frozenset[int],
    seed: int,
    start: int,
    stop: int,
) -> int:
    """Count the hits among samples start to stop - 1; start is a block boundary."""
    hits = 0
    for lo in range(start, stop, _BLOCK):
        rng = random.Random(seed * _SEED_SPAN + lo // _BLOCK)
        for _ in range(min(_BLOCK, stop - lo)):
            drawn = _draw(rng, table, faulty)
            while drawn is None:
                drawn = _draw(rng, table, faulty)
            cur, last, moves, axes = drawn
            if cur in avoid or last in avoid:
                hits += 1
                continue
            for i in axes:
                cur += moves[i]
                if cur in avoid:
                    hits += 1
                    break
    return hits


def estimate_p_hit(
    shape: MeshShape,
    complex_: FaultComplex,
    config: McConfig,
    obstacle: Obstacle = "blocked",
) -> McEstimate:
    """Monte-Carlo estimate of the probability a minimal route confronts the ring.

    Raises ValueError when fewer than two non-faulty nodes exist, or when the
    faults hold so much of the path weight that redrawing pairs with a faulty
    endpoint would stall (see _check_sampleable); the exact engine then is
    the tool. With no faults at all the estimate is exactly 0.0.

    Nodes are numbered by mesh.padded_indices, as in the exact engine.
    """
    if shape.node_count - len(complex_.faults) < 2:
        raise ValueError("need at least two non-faulty nodes to sample pairs")
    faulty = padded_indices(shape, complex_.faults)
    avoid = padded_indices(shape, _avoid_set(complex_, obstacle))
    table = _pair_table(shape)
    _check_sampleable(table, faulty)
    blocks = -(-config.samples // _BLOCK)
    workers = min(config.workers, blocks)
    bounds = [min(blocks * k // workers * _BLOCK, config.samples) for k in range(workers + 1)]
    jobs = [
        (table, faulty, avoid, config.seed, lo, hi) for lo, hi in zip(bounds, bounds[1:])
    ]
    if workers == 1:
        hits = _tally_range(*jobs[0])
    else:
        from multiprocessing import Pool  # imported here: one-process runs need no pool

        with Pool(workers) as pool:
            hits = sum(pool.starmap(_tally_range, jobs))

    samples = config.samples
    p_hat = hits / samples
    std_error = math.sqrt(p_hat * (1 - p_hat) / (samples - 1)) if samples > 1 else 0.0
    return McEstimate(
        p_hat=p_hat,
        std_error=std_error,
        samples=samples,
        seed=config.seed,
        workers=config.workers,
        hit_weight=hits,
        total_weight=samples,
    )


@dataclass(frozen=True)
class McComparison:
    exact_p_hit: Fraction
    estimate: McEstimate
    abs_error: float
    sigma_distance: float
    ok: bool


def compare_with_exact(
    shape: MeshShape,
    complex_: FaultComplex,
    config: McConfig,
    engine: EnginePolicy = "auto",
    sigma_limit: float = 4.0,
    obstacle: Obstacle = "blocked",
) -> McComparison:
    """Run both the exact engine and the estimator and flag disagreement.

    Disagreement beyond sigma_limit standard errors (or any disagreement when
    the standard error is zero) fails the comparison.
    """
    exact = compute_reliability(shape, complex_, engine=engine, obstacle=obstacle)
    estimate = estimate_p_hit(shape, complex_, config, obstacle=obstacle)
    abs_error = abs(estimate.p_hat - float(exact.p_hit))
    if estimate.std_error > 0:
        sigma = abs_error / estimate.std_error
    else:
        sigma = 0.0 if abs_error == 0 else math.inf
    return McComparison(
        exact_p_hit=exact.p_hit,
        estimate=estimate,
        abs_error=abs_error,
        sigma_distance=sigma,
        ok=sigma <= sigma_limit,
    )
