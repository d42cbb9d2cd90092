"""Seeded Monte-Carlo estimation of the fault-ring hit probability.

Each sample draws a uniformly random minimal path between two distinct
non-faulty nodes and records whether it visits the avoid set (endpoints
included), so the hit fraction estimates the path-weighted probability the
exact engine computes, under either avoid-set choice (the ring-augmented
region by default, the bare fault region with obstacle="faults"), with the
binomial standard error. One uniform integer below the path weight of all
ordered pairs, a rank, names a pair through small per-axis tables
(_pair_at), each pair by as many ranks as it has minimal paths; one of those
paths is then walked uniformly, one move at a time, inline in the sample
loop, which stops at the first node in the avoid set. A pair with a faulty
endpoint is redrawn; a scenario where that would stall is refused up front.
_walk is the same walk as a generator, for sample_minimal_path.

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
from itertools import accumulate
from typing import Iterator

from faultring.faults import FaultComplex
from faultring.mesh import Coord, MeshShape, padded_indices
from faultring.paths import _axis_counts, _fold
from faultring.reliability import Obstacle, _avoid_set, compute_reliability

_SEED_SPAN = 2**64
# One seeding costs about as much as one sample; a block makes it negligible.
_BLOCK = 1024
_PILOT_DRAWS = 100_000
_PILOT_ACCEPTS = 20


@dataclass(frozen=True)
class McConfig:
    """Estimator settings, and a scenario's "mc" record: its defaults are these.

    Each field must be an int, not a bool, or ValueError names the field;
    then samples and workers must be >= 1 and seed >= 0.
    """

    samples: int = 100_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("samples", "seed", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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
    hit_weight: int
    total_weight: int

    @property
    def hit_weight_sq(self) -> int:
        return self.hit_weight

    @property
    def total_weight_sq(self) -> int:
        return self.total_weight


def _walk(rng: random.Random, remaining: list[int]) -> Iterator[int]:
    """Yield the axis of each move of a uniformly random minimal path with
    remaining[i] moves along axis i, consuming `remaining`: the next move is
    along axis i with probability remaining[i] / left, x drawn as
    rng.randrange(left) draws it, without its argument checks, which cost more.
    _tally_range inlines this walk draw for draw, so its sample stream is the
    one this generator gives."""
    for left in range(sum(remaining), 0, -1):
        k = left.bit_length()
        x = rng.getrandbits(k)
        while x >= left:
            x = rng.getrandbits(k)
        for i, count in enumerate(remaining):
            if x < count:
                break
            x -= count
        remaining[i] -= 1
        yield i


def sample_minimal_path(rng: random.Random, a: Coord, b: Coord) -> list[Coord]:
    """Draw a uniformly random minimal path from a to b, inclusive of both."""
    steps = [1 if y >= x else -1 for x, y in zip(a, b)]
    cur = list(a)
    path = [tuple(a)]
    for i in _walk(rng, [abs(y - x) for x, y in zip(a, b)]):
        cur[i] += steps[i]
        path.append(tuple(cur))
    return path


def _pair_table(shape: MeshShape):
    """Per-axis tables of the path weight of the ordered pairs of distinct nodes.

    Axis j places a distance 0 in c_j(0) = r_j ways and a distance x > 0 in
    c_j(x) = 2 (r_j - x), a low corner and a flip. The weight is folded one
    axis at a time by paths._fold, the fold behind reliability._box_weight,
    with the mesh against itself: row L of axis j holds the parts
    weights[L - x] * c_j(x) * comb(L, x) for ascending distances x.
    Returns the weight below each length from 1 on, and of all pairs; per
    axis its radix, padded stride and, per length L, the distances x, the
    weight below each and of all, and the divisors c_j(x) * comb(L, x), each
    its part divided exactly by weights[L - x]; and the padded index of node 0.
    """
    strides = shape.padded_strides()
    folds, weights = _fold(_axis_counts(0, r - 1, 0, r - 1) for r in shape.radices)
    axes = []
    for radix, stride, (before, rows) in zip(shape.radices, strides, folds):
        table = []
        for length, parts in enumerate(rows):
            distances = range(max(0, length + 1 - len(before)), min(length, radix - 1) + 1)
            divisors = [p // before[length - x] for x, p in zip(distances, parts)]
            table.append((distances, list(accumulate(parts, initial=0)), divisors))
        axes.append((radix, stride, table))
    return list(accumulate(weights[1:], initial=0)), axes, sum(strides)


def _pair_at(table, rank: int):
    """The ordered pair of distinct nodes that a rank below the weight of all
    pairs names; every pair is named by as many ranks as it has minimal paths.

    Returns the endpoints' padded flat indices, the signed flat step of each
    axis, the number of moves left along each axis (a list the walk may
    consume), and the path length. Bisection maps the rank to a length, then,
    from the last axis to the first, to a distance x; a divmod by x's divisor
    leaves the placement and the rank among the axes before. The path itself
    is a further draw: _walk, or its inline copy in _tally_range."""
    lengths, axes, origin = table
    length = bisect_right(lengths, rank)
    rank -= lengths[length - 1]
    first = last = origin
    remaining, moves = [], []
    left = length
    for radix, stride, rows in reversed(axes):
        distances, starts, divisors = rows[left]
        k = bisect_right(starts, rank) - 1
        x = distances[k]
        rank, place = divmod(rank - starts[k], divisors[k])
        low, flip = divmod(place % (2 * (radix - x)), 2) if x else (place, 0)
        first += (low + x * flip) * stride
        last += (low + x - x * flip) * stride
        remaining.append(x)
        moves.append(-stride if flip else stride)
        left -= x
    return first, last, moves, remaining, length


def _check_sampleable(table, faulty: frozenset[int]) -> None:
    """Refuse a scenario whose healthy pairs hold too little of the path weight.

    A fixed-seed pilot of rng.randrange ranks, each mapped by _pair_at, must
    find _PILOT_ACCEPTS pairs with two non-faulty endpoints in _PILOT_DRAWS
    draws, so the refusal depends on the scenario alone. It is certain below
    a share of 5e-5, where a sample would need 20 000 draws, and never
    happens above 1e-3.
    """
    rng = random.Random(0)
    total = table[0][-1]
    accepted = 0
    for _ in range(_PILOT_DRAWS):
        first, last, *_ = _pair_at(table, rng.randrange(total))
        accepted += first not in faulty and last not in faulty
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
    """Count the hits among samples start to stop - 1; start is a block boundary.

    A sample draws a rank below the weight of all pairs as rng.randrange
    draws it, maps it by _pair_at, and redraws while an endpoint is faulty;
    then it walks the path as _walk does, inline, and stops at the first node
    in the avoid set, so a hit leaves the rest of its walk undrawn.
    """
    total = table[0][-1]
    total_bits = total.bit_length()
    hits = 0
    for lo in range(start, stop, _BLOCK):
        getrandbits = random.Random(seed * _SEED_SPAN + lo // _BLOCK).getrandbits
        for _ in range(min(_BLOCK, stop - lo)):
            while True:
                rank = getrandbits(total_bits)
                while rank >= total:
                    rank = getrandbits(total_bits)
                cur, last, moves, remaining, left = _pair_at(table, rank)
                if cur not in faulty and last not in faulty:
                    break
            if cur in avoid or last in avoid:
                hits += 1
                continue
            while left:
                bits = left.bit_length()
                x = getrandbits(bits)
                while x >= left:
                    x = getrandbits(bits)
                i = 0
                while x >= remaining[i]:
                    x -= remaining[i]
                    i += 1
                remaining[i] -= 1
                cur += moves[i]
                if cur in avoid:
                    hits += 1
                    break
                left -= 1
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
    faulty = padded_indices(shape, complex_.faults)
    if shape.node_count - len(faulty) < 2:
        raise ValueError("need at least two non-faulty nodes to sample pairs")
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
        hit_weight=hits,
        total_weight=samples,
    )


# An estimate further than this many standard errors from the exact value fails.
SIGMA_LIMIT = 4.0


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
    obstacle: Obstacle = "blocked",
) -> McComparison:
    """Run both the exact engine, with its default options, and the estimator
    and flag disagreement.

    Disagreement beyond SIGMA_LIMIT standard errors (or any disagreement when
    the standard error is zero) fails the comparison.
    """
    exact = compute_reliability(shape, complex_, obstacle=obstacle)
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
        ok=sigma <= SIGMA_LIMIT,
    )
