"""Seeded Monte-Carlo estimation of the fault-ring hit probability.

Each sample draws a uniformly random minimal path between two distinct
non-faulty nodes and records whether it visits the avoid set (endpoints
included), so the hit fraction estimates the path-weighted probability the
exact engine computes, under either avoid-set choice (the ring-augmented
region by default, the bare fault region with obstacle="faults"), with the
binomial standard error. One uniform integer below the path weight of all
ordered pairs, a rank, names a pair through small per-axis tables, each
pair by as many ranks as it has minimal paths. The tables and the map live
in paths.py (paths._pair_table, paths._pair_at), the package's one way to
draw pairs by path weight, which the exact engine's sampled cross-check
reads too: one bisection picks the path length, and one per axis from the
last to the second picks that axis's distance, in the axis's row at the
length left, while axis 0 takes the length and the rank left over. The
tables start from the per-axis weights of paths._fold and build a row when
a sample first reads it (paths._row), in a plain list slot per length;
samples draw long paths, so few rows are ever built. What is left of the
rank at each axis, modulo c(x), the ways to place that distance x, is the
placement p, and its spot, p + x, indexes the axis's three lists of 2r
entries, the last endpoint's offset and the signed step
(paths._placements), and the walk limit (_limits); the first endpoint's
offset is the last's less x steps, last - x * step. Each axis thus holds
O(r) entries: c(x) by distance, then last offsets, steps and limits by
spot. This module keeps the walk, the tally, the pool and the estimate.
One of the pair's paths is then walked uniformly, one move at a time,
inline in the sample loop (_tally_range), which stops at the first node in
the avoid set, or as a miss once the walk can no longer reach B, the avoid
set's bounding box, by the limit read at the spot (_limits): a pair whose
own box misses B takes no walk at all. A pair with a faulty endpoint is redrawn; a scenario
where that would stall is refused up front, by a pilot draw of healthy pairs
(paths._healthy_pairs). _walk is the same walk as a generator, for
sample_minimal_path.

Determinism: samples come in fixed blocks of _BLOCK consecutive indices, and
block b draws all of its samples, in order, from one generator seeded from
(seed, b). Workers split the index range on block boundaries only, so the
estimate is bit-identical for a given (seed, samples) regardless of worker
count, and the first S samples are the same whatever the sample count.
A worker's job names the mesh shape and carries its fold, the per-axis
weights, and B's two corners, not the table: the worker builds the
placement tables and the rows it reads, and does not fold again.
"""

from __future__ import annotations

import math
import os
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise
from operator import getitem, lt
from typing import Iterator

from faultring.faults import FaultComplex
from faultring.mesh import Coord, MeshShape, delta, in_mesh_box, padded_indices
from faultring.paths import _healthy_pairs, _pair_at, _pair_table, _row, _walk_steps
from faultring.reliability import Obstacle, _avoid_set, compute_reliability

_SEED_SPAN = 2**64
# One seeding costs about as much as one sample; a block makes it negligible.
_BLOCK = 1024
# Healthy pairs the pilot (paths._healthy_pairs) must draw before any sample.
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
    _tally_range inlines this walk draw for draw, taking each left and its
    bit length from the pair table's walk of `length` steps (_walk_steps),
    so its sample stream is the one this generator gives, up to where it
    stops."""
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
    """Draw a uniformly random minimal path from a to b, inclusive of both.

    Raises ValueError when a and b differ in dimension, as mesh.delta does.
    """
    remaining = list(delta(a, b))
    steps = [1 if y >= x else -1 for x, y in zip(a, b)]
    cur = list(a)
    path = [tuple(a)]
    for i in _walk(rng, remaining):
        cur[i] += steps[i]
        path.append(tuple(cur))
    return path


def _limits(radix: int, lo: int, hi: int) -> list[int]:
    """The fewest moves left along one axis at which a walk can still meet
    [lo, hi], B's side on the axis, by the last endpoint's coordinate e
    walked up, then by e walked down, so that a placement p at distance x
    reads it at its spot p + x, as it reads its last offset and step
    (paths._placements): e - hi up and lo - e down, or radix, above any count,
    when the walk never meets it (e < lo up, e > hi down).
    Along the axis, a walk with m moves left covers the coordinates from its
    current one, e - m up or e + m down, to e; with fewer moves left than
    the limit none of them lies in [lo, hi], so neither the current node nor
    any later one is in B. At distance 0, m = 0 and the limit is positive
    exactly when e lies outside [lo, hi]."""
    up = [e - hi if e >= lo else radix for e in range(radix)]
    return up + [lo - e if e <= hi else radix for e in range(radix)]


def _tally_range(
    table,
    faulty: frozenset[int],
    avoid: frozenset[int],
    box: tuple[Coord, Coord],
    seed: int,
    start: int,
    stop: int,
) -> int:
    """Count the hits among samples start to stop - 1; start is a block boundary.

    A sample draws a rank below the weight of all pairs as rng.randrange
    draws it, maps it to its pair as _pair_at does, and redraws while an
    endpoint is faulty; then it walks the path as _walk does, inline, and
    stops at the first node in the avoid set, so a hit leaves the rest of its
    walk undrawn. An endpoint in the avoid set is a hit with no walk at all;
    when the avoid set lies within the fault set (obstacle="faults"), no
    endpoint left by the redraws can be in it, and that lookup is skipped.

    Early miss: `box` is B, the bounding box of the avoid set's nodes in the
    mesh (mesh.in_mesh_box; low above high when there are none). A sample is
    a miss as soon as the box spanned by the node it has reached and the last
    endpoint misses B, since every later node lies in that box: when, on
    some axis, fewer moves are left than the axis's limit at the last
    endpoint's coordinate and direction (_limits).
    A pair that misses on some axis takes no walk, so an empty avoid set
    makes every sample an immediate miss; in a walk only the axis just moved
    can start to miss, and it is tested before the avoid lookup.

    Both loops read each axis's last offset, step and limit at one index,
    its spot, the placement plus the distance, and take the first endpoint
    as the last less each axis's distance times its step. On 3 and 4 axes
    one unrolled loop decodes the pair inline, as _pair_at does (the third
    decoded axis only on 4 axes), and walks it with each axis's moves left,
    limit and flat step in local variables, picking the axis by comparing x
    with the moves left: x < a, then x - a < b, then x - a - b < c, which
    never holds on 3 axes, where c, its step and its limit stay 0; axis 0
    takes the rest.
    Every other axis count calls _pair_at and scans the lists it returns,
    reading the limits at the spots it returns. Both loops pick the pair
    and the axis _pair_at and the scan would, and stop where the other
    would, so the stream does not depend on which one runs. The table gains
    the rows and walks read for the first time and changes in nothing else.
    """
    lengths, axes, first_axis, walks, _ = table
    total = lengths[-1]
    total_bits = total.bit_length()
    n = len(axes) + 1
    # Per axis from the last to the first, as the table lists them; an
    # axis's steps, its last table, hold two per coordinate.
    steps = [axis[-1] for axis in axes] + [first_axis[-1]]
    limits = [_limits(len(s) // 2, lo, hi) for s, lo, hi in zip(steps, *map(reversed, box))]
    unrolled = n == 3 or n == 4
    if unrolled:
        ends_a, ends_b, ends_c, ends_0 = limits[0], limits[1], limits[-2], limits[-1]
        (rows_a, ways_a, _, la, sa), (rows_b, ways_b, _, lb, sb) = axis_a, axis_b = axes[:2]
        _, l0, s0 = first_axis
        if n == 4:
            (rows_c, ways_c, _, lc, sc) = axis_c = axes[2]
        # On 3 axes these stay 0: the walk's third test never fires.
        c = mc = tc = 0
    check_ends = not avoid <= faulty
    hits = 0
    for lo in range(start, stop, _BLOCK):
        getrandbits = random.Random(seed * _SEED_SPAN + lo // _BLOCK).getrandbits
        for _ in range(min(_BLOCK, stop - lo)):
            while True:
                rank = getrandbits(total_bits)
                while rank >= total:
                    rank = getrandbits(total_bits)
                if unrolled:
                    length = bisect_right(lengths, rank)
                    rank -= lengths[length - 1]
                    starts, least, divisors = rows_a[length] or _row(axis_a, length)
                    k = bisect_right(starts, rank) - 1
                    rank -= starts[k]
                    a = least + k
                    p = rank % ways_a[a] + a
                    rank //= divisors[k]
                    left = length - a
                    starts, least, divisors = rows_b[left] or _row(axis_b, left)
                    k = bisect_right(starts, rank) - 1
                    rank -= starts[k]
                    b = least + k
                    q = rank % ways_b[b] + b
                    rank //= divisors[k]
                    left -= b
                    ma, mb = sa[p], sb[q]
                    last = la[p] + lb[q]
                    ta, tb = ends_a[p], ends_b[q]
                    if n == 4:
                        starts, least, divisors = rows_c[left] or _row(axis_c, left)
                        k = bisect_right(starts, rank) - 1
                        rank -= starts[k]
                        c = least + k
                        u = rank % ways_c[c] + c
                        rank //= divisors[k]
                        left -= c
                        last += lc[u]
                        mc, tc = sc[u], ends_c[u]
                    rank += left
                    last += l0[rank]
                    d, md, td = left, s0[rank], ends_0[rank]
                    cur = last - a * ma - b * mb - c * mc - d * md
                else:
                    cur, last, moves, remaining, at, length = _pair_at(table, rank)
                if cur not in faulty and last not in faulty:
                    break
            if check_ends and (cur in avoid or last in avoid):
                hits += 1
                continue
            if unrolled:
                if a < ta or b < tb or c < tc or d < td:
                    continue
                for left, k in walks[length] or _walk_steps(walks, length):
                    x = getrandbits(k)
                    while x >= left:
                        x = getrandbits(k)
                    if x < a:
                        a -= 1
                        if a < ta:
                            break
                        cur += ma
                    elif x - a < b:
                        b -= 1
                        if b < tb:
                            break
                        cur += mb
                    elif x - a - b < c:
                        c -= 1
                        if c < tc:
                            break
                        cur += mc
                    else:
                        d -= 1
                        if d < td:
                            break
                        cur += md
                    if cur in avoid:
                        hits += 1
                        break
            else:
                ends = list(map(getitem, limits, at))
                if any(map(lt, remaining, ends)):
                    continue
                for left, k in walks[length] or _walk_steps(walks, length):
                    x = getrandbits(k)
                    while x >= left:
                        x = getrandbits(k)
                    i = 0
                    while x >= remaining[i]:
                        x -= remaining[i]
                        i += 1
                    remaining[i] -= 1
                    if remaining[i] < ends[i]:
                        break
                    cur += moves[i]
                    if cur in avoid:
                        hits += 1
                        break
    return hits


def _tally_fold(shape: MeshShape, folds: list[list[int]], *args) -> int:
    """_tally_range on the pair table of `shape` built from its fold, for a
    pool job: the job carries the fold, not the table, and the worker builds
    the placement tables and the rows it reads."""
    return _tally_range(_pair_table(shape, folds), *args)


def estimate_p_hit(
    shape: MeshShape,
    complex_: FaultComplex,
    config: McConfig,
    obstacle: Obstacle = "blocked",
) -> McEstimate:
    """Monte-Carlo estimate of the probability a minimal route confronts the ring.

    Raises ValueError when fewer than two non-faulty nodes exist, or when the
    faults hold so much of the path weight that redrawing pairs with a faulty
    endpoint would stall (see paths._healthy_pairs); the exact engine then is
    the tool. With no faults at all the estimate is exactly 0.0.

    Nodes are numbered by mesh.padded_indices, as in the exact engine.
    """
    faulty = padded_indices(shape, complex_.faults)
    if shape.node_count - len(faulty) < 2:
        raise ValueError("need at least two non-faulty nodes to sample pairs")
    avoid_nodes = _avoid_set(complex_, obstacle)
    # Under obstacle="faults" the avoid set is the fault set, indexed above.
    avoid = faulty if obstacle == "faults" else padded_indices(shape, avoid_nodes)
    _, box, _ = in_mesh_box(shape, avoid_nodes)
    table = _pair_table(shape)
    _healthy_pairs(table, faulty, _PILOT_ACCEPTS)  # the pilot
    blocks = -(-config.samples // _BLOCK)
    # More processes than CPUs only add pair-table builds; the stream is the same.
    workers = min(config.workers, blocks, os.cpu_count() or 1)
    if workers == 1:
        hits = _tally_range(table, faulty, avoid, box, config.seed, 0, config.samples)
    else:
        from multiprocessing import Pool  # imported here: one-process runs need no pool

        bounds = [min(blocks * k // workers * _BLOCK, config.samples) for k in range(workers + 1)]
        job = (shape, table[-1], faulty, avoid, box, config.seed)
        jobs = [(*job, *span) for span in pairwise(bounds)]
        # Each worker builds its own table from the fold; a forked one would hold this too.
        del table
        with Pool(workers) as pool:
            hits = sum(pool.starmap(_tally_fold, jobs))

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
    """compare_with_exact's outcome: the exact p_hit, the estimate, their
    absolute gap, that gap in standard errors, and whether it is within
    SIGMA_LIMIT."""

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

    Disagreement beyond SIGMA_LIMIT standard errors fails the comparison.
    When every sample hits or none does, the estimate's standard error is
    zero, and the gap is measured instead in the standard error of an
    estimate of the exact value p, sqrt(p (1 - p) / samples): so a correct
    estimate near p = 0 or 1 passes, and only at p exactly 0 or 1 does any
    gap fail. An estimate with a positive standard error is measured in it.
    """
    exact = compute_reliability(shape, complex_, obstacle=obstacle)
    estimate = estimate_p_hit(shape, complex_, config, obstacle=obstacle)
    p = float(exact.p_hit)
    abs_error = abs(estimate.p_hat - p)
    scale = estimate.std_error or math.sqrt(p * (1 - p) / estimate.samples)
    sigma = abs_error / scale if scale else 0.0 if abs_error == 0 else math.inf
    return McComparison(exact.p_hit, estimate, abs_error, sigma, sigma <= SIGMA_LIMIT)
