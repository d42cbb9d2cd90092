"""Seeded Monte-Carlo estimation of the fault-ring hit probability.

Each sample draws a uniformly random minimal path between two distinct
non-faulty nodes and records whether it visits the avoid set (endpoints
included), so the hit fraction estimates the path-weighted probability the
exact engine computes, under either avoid-set choice (the ring-augmented
region by default, the bare fault region with obstacle="faults"), with the
binomial standard error. One uniform integer below the path weight of all
ordered pairs, a rank, names a pair through small per-axis tables
(_pair_at), each pair by as many ranks as it has minimal paths: one bisection
picks the path length, and one per axis from the last to the second picks
that axis's distance, in the axis's row at the length left, while axis 0
takes the length and the rank left over. The tables start from the per-axis
weights of paths._fold and build a row when a sample first reads it (_row),
in a plain list slot per length; samples draw long paths, so few rows are
ever built. What is left of the rank at each axis, modulo c(x), the ways to
place that distance x, is the placement p, and its spot, p + x, indexes the
axis's three lists of 2r entries, the last endpoint's offset, the signed
step and the walk limit (_placements); the first endpoint's offset is the
last's less x steps, last - x * step. Each axis thus holds O(r) entries:
c(x) by distance, then last offsets, steps and limits by spot. One of the
pair's paths is then walked uniformly, one move at a time, inline in the
sample loop (_tally_range), which stops at the first node in the avoid set,
or as a miss once the walk can no longer reach B, the avoid set's bounding
box, by the limit read at the spot (_limits): a pair whose own box misses B
takes no walk at all. A pair with a faulty endpoint is redrawn; a scenario
where that would stall is refused up front. _walk is the same walk as a
generator, for sample_minimal_path.

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
from itertools import accumulate, pairwise
from operator import getitem, lt, mul
from typing import Iterator

from faultring.faults import FaultComplex
from faultring.mesh import Coord, MeshShape, delta, padded_indices
from faultring.paths import _fold
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


def _placements(radix: int, stride: int, origin: int = 0):
    """One axis's placement tables: c(x) by distance x, r for x = 0 and
    2 (r - x) for x > 0, a low corner and a flip; and two lists of 2r
    entries read at the spot p + x of a placement p at distance x, the last
    endpoint's offset (the axis's r offsets twice) and the signed step (r
    steps up, then r down), as _limits is read. For x = 0, and for x > 0
    and p < r - x, the path walks up and ends at coordinate p + x; the rest
    walk down and end at p + x - r. Either way the first endpoint's offset is
    the last's less x steps, last - x * step, so no per-distance list is
    kept. An offset is origin + coordinate * stride: an axis of radix 1000
    holds about 0.1 MiB (tracemalloc).

    Returns c(x) by distance, the last offsets and the steps."""
    offsets = [origin + i * stride for i in range(radix)]
    ways = [radix] + [2 * (radix - x) for x in range(1, radix)]
    return ways, offsets * 2, [stride] * radix + [-stride] * radix


def _row(axis: tuple, length: int):
    """Row L of one bisected axis of the pair table (_pair_table), built
    from the fold's weights before the axis and the axis's c(x) by distance
    (_placements), and kept in the axis's slot for L: the least distance,
    max(0, L + 1 - len(before)); the divisors c(x) * comb(L, x) for the
    distances from it up, each binomial the last times (L - x) / (x + 1);
    and the weight below each distance and of all, the running sums of
    before[L - x] * divisor. Callers read a slot and call this when it is
    still None; the row layout lives here alone."""
    rows, ways, before, *_ = axis
    least = max(0, length + 1 - len(before))
    divisors, binomial = [], math.comb(length, least)
    for x, c in enumerate(ways[least : length + 1], least):
        divisors.append(binomial * c)
        binomial = binomial * (length - x) // (x + 1)
    parts = (before[length - x] * d for x, d in enumerate(divisors, least))
    rows[length] = row = (list(accumulate(parts, initial=0)), least, divisors)
    return row


def _walk_steps(walks: list, length: int):
    """(left, bit length) for left from `length` down to 1, the draws of a
    walk of that length: the tail of the longest walk's, kept in the
    length's slot of `walks` the first time a sample walks that far."""
    walks[length] = steps = walks[-1][-length:]
    return steps


def _pair_table(shape: MeshShape, folds: list[list[int]] | None = None):
    """Per-axis tables of the path weight of the ordered pairs of distinct
    nodes. An estimate's pilot and sample loop read one table; they fill its
    row and walk slots on first read (_row, _walk_steps) and change nothing
    else.

    Axis j places a distance x in c_j(x) ways (_placements). The weight is
    folded from those counts one axis at a time by paths._fold, the fold
    behind reliability._box_weight; `folds` is that fold, folded here unless
    given, as a pool job gives it (_tally_fold). The fold holds one weight
    per axis and path length, and no row.

    Returns the weight below each length from 1 on, and of all pairs; the
    axes from the last to the second, each as (a slot per length, None until
    _row builds the row; its c(x) by distance; the fold's weights before it;
    its last offsets and its steps by spot), the tables from _placements on
    its padded stride; axis 0's tables from _placements alone, their offsets
    counted from the padded index of node 0, since axis 0 takes the length
    and the rank left over (see _pair_at); a walk slot per length, None
    until _walk_steps fills it, but for the longest length's (left, bit
    length) pairs from the longest length down to 1; and the fold.
    """
    strides = shape.padded_strides()
    origins = [sum(strides)] + [0] * (shape.n - 1)
    places = [_placements(*axis) for axis in zip(shape.radices, strides, origins)]
    folds = folds or _fold(ways for ways, *_ in places)
    tables = zip(folds[1:], folds[2:], places[1:])
    axes = [([None] * len(w), ways, b, lasts, steps) for b, w, (ways, lasts, steps) in tables]
    lengths = list(accumulate(folds[-1][1:], initial=0))
    steps = tuple((left, left.bit_length()) for left in range(len(lengths) - 1, 0, -1))
    return lengths, axes[::-1], places[0], [None] * len(steps) + [steps], folds


def _pair_at(table, rank: int):
    """The ordered pair of distinct nodes that a rank below the weight of all
    pairs names; every pair is named by as many ranks as it has minimal paths.

    Returns the endpoints' padded flat indices, then, from the last axis to
    the first, the signed flat step of each axis, the number of moves left
    along it (a new list the walk may consume) and its spot, and the path
    length. Bisection maps the rank to a length, then, from the last axis
    to the second, to a distance x. Less the weight below x, the rank's
    quotient by x's divisor is the rank among the axes before, and its
    remainder modulo c_j(x), which divides the divisor, is the placement p;
    the spot p + x indexes the last offsets and the steps. Axis 0's row at
    the length left holds that one distance, and the rank left lies below
    its divisor, c_0(x): it is axis 0's placement, found without a search.
    The first endpoint is the last less x steps on every axis. The path
    itself is a further draw: _walk, or its inline copy in _tally_range."""
    lengths, axes, first_axis, *_ = table
    length = bisect_right(lengths, rank)
    rank -= lengths[length - 1]
    last = 0
    moves, remaining, at = [], [], []
    left = length
    for axis in axes:
        rows, ways, _, lasts, steps = axis
        starts, least, divisors = rows[left] or _row(axis, left)
        k = bisect_right(starts, rank) - 1
        x = least + k
        rank -= starts[k]
        spot = rank % ways[x] + x
        rank //= divisors[k]
        last += lasts[spot]
        moves.append(steps[spot])
        remaining.append(x)
        at.append(spot)
        left -= x
    _, lasts, steps = first_axis
    spot = rank + left
    last += lasts[spot]
    moves.append(steps[spot])
    remaining.append(left)
    at.append(spot)
    return last - sum(map(mul, remaining, moves)), last, moves, remaining, at, length


def _avoid_box(shape: MeshShape, nodes) -> tuple[Coord, Coord]:
    """B, the bounding box of the avoid nodes inside the mesh, as its low and
    high corner; an empty one, low above high on every axis, when none is."""
    sides = list(zip(*(v for v in nodes if shape.contains(v))))
    return tuple(map(min, sides)) or shape.radices, tuple(map(max, sides)) or (-1,) * shape.n


def _limits(radix: int, lo: int, hi: int) -> list[int]:
    """The fewest moves left along one axis at which a walk can still meet
    [lo, hi], B's side on the axis, by the last endpoint's coordinate e
    walked up, then by e walked down, so that a placement p at distance x
    reads it at its spot p + x, as it reads its last offset and step
    (_placements): e - hi up and lo - e down, or radix, above any count,
    when the walk never meets it (e < lo up, e > hi down).
    Along the axis, a walk with m moves left covers the coordinates from its
    current one, e - m up or e + m down, to e; with fewer moves left than
    the limit none of them lies in [lo, hi], so neither the current node nor
    any later one is in B. At distance 0, m = 0 and the limit is positive
    exactly when e lies outside [lo, hi]."""
    up = [e - hi if e >= lo else radix for e in range(radix)]
    return up + [lo - e if e <= hi else radix for e in range(radix)]


def _check_sampleable(table, faulty: frozenset[int]) -> None:
    """Refuse a scenario whose healthy pairs hold too little of the path weight.

    A fixed-seed pilot of rng.randrange ranks, each mapped by _pair_at, must
    find _PILOT_ACCEPTS pairs with two non-faulty endpoints in _PILOT_DRAWS
    draws, so the refusal depends on the scenario alone. It is certain below
    a share of 5e-5, where a sample would need 20 000 draws, and never
    happens above 1e-3.
    """
    rng = random.Random(0)
    accepted = 0
    for _ in range(_PILOT_DRAWS):
        first, last, *_ = _pair_at(table, rng.randrange(table[0][-1]))
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
    mesh (_avoid_box). A sample is a miss as soon as the box spanned by the
    node it has reached and the last endpoint misses B, since every later
    node lies in that box: when, on some axis, fewer moves are left than the
    axis's limit at the last endpoint's coordinate and direction (_limits).
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
    endpoint would stall (see _check_sampleable); the exact engine then is
    the tool. With no faults at all the estimate is exactly 0.0.

    Nodes are numbered by mesh.padded_indices, as in the exact engine.
    """
    faulty = padded_indices(shape, complex_.faults)
    if shape.node_count - len(faulty) < 2:
        raise ValueError("need at least two non-faulty nodes to sample pairs")
    avoid_nodes = _avoid_set(complex_, obstacle)
    # Under obstacle="faults" the avoid set is the fault set, indexed above.
    avoid = faulty if obstacle == "faults" else padded_indices(shape, avoid_nodes)
    box = _avoid_box(shape, avoid_nodes)
    table = _pair_table(shape)
    _check_sampleable(table, faulty)
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
