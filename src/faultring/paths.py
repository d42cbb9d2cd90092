"""Exact counting of minimal lattice paths, with and without forbidden nodes.

A minimal path between nodes a and b makes exactly |b_i - a_i| unit moves in
each dimension i, so it never leaves the bounding box of the endpoints. Three
independent engines count the paths that avoid a set of forbidden nodes:

* avoiding_det: a determinant over direction-aligned segment counts,
* avoiding_dp: a dynamic program over the bounding box,
* avoiding_brute: literal depth-first enumeration, the small-size ground truth.

Summed over pairs of points, the path weight folds one axis at a time (see
_fold), which keeps the weights before each axis and no per-distance parts:
the closed-form denominator (reliability._box_weight) sums the last of them,
and the pair table (_pair_table) builds its rows from them. The pair table
and its map from a rank to a pair (_pair_at), each pair named by as many
ranks as it has minimal paths, live here, beside the fold, as the one way
the package draws pairs by path weight: the Monte-Carlo estimator samples
through it, and so does the exact engine's sampled cross-check, which draws
its pairs as the estimator's pilot does (_healthy_pairs).

All arithmetic is exact (unbounded integers).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import accumulate
from operator import mul
from typing import Iterable, Sequence

from faultring.mesh import Coord, MeshShape, bounding_box, delta

# A healthy-pair draw gives up after this many draws (_healthy_pairs).
_PAIR_DRAWS = 100_000


class PathEnumerationLimit(RuntimeError):
    """Raised when brute-force enumeration would exceed its path cap."""


def multinomial(parts: Iterable[int]) -> int:
    """Multinomial coefficient (sum parts)! / prod(part!); 0 if any part is negative.

    A product of binomials, which keeps every intermediate no larger than
    the result.
    """
    total = 0
    result = 1
    for p in parts:
        if p < 0:
            return 0
        total += p
        result *= math.comb(total, p)
    return result


def _axis_counts(xl: int, xh: int, yl: int, yh: int) -> list[int]:
    """c(d): the pairs of coordinates a in [xl, xh], b in [yl, yh] with |b - a| = d."""
    counts = [0] * (max(abs(yl - xh), abs(yh - xl)) + 1)
    for t in range(yl - xh, yh - xl + 1):  # b - a = t
        counts[abs(t)] += min(xh, yh - t) - max(xl, yl - t) + 1
    return counts


def _fold(axes: Iterable[list[int]]) -> list[list[int]]:
    """Fold the path weight of pairs of points one axis at a time.

    Each axis is given by its counts c(d) of coordinate pairs at distance d.
    Before axis j, weights[L] sums, over the pairs' offset vectors on the
    axes before j of length L, the product of their counts times
    multinomial(offset). Axis j turns this into
    weights'[T] = sum_d weights[T - d] * comb(T, d) * c(d). Walking d up from
    a source length L, comb(L + d, d) * weights[L] grows to the next one by
    the exact ratio (L + d + 1) / (d + 1), so no binomial is computed.

    Returns the weights before each axis, [1] before the first, and after
    the last, which sum to the weight of all pairs. The parts of each sum are
    not kept: _pair_table builds the ones it reads.
    """
    folds = [[1]]
    for counts in axes:
        weights = [0] * (len(folds[-1]) + len(counts) - 1)
        for length, w in enumerate(folds[-1]):
            for d, c in enumerate(counts):
                weights[length + d] += w * c
                w = w * (length + d + 1) // (d + 1)
        folds.append(weights)
    return folds


def _placements(radix: int, stride: int, origin: int = 0):
    """One axis's placement tables: c(x) by distance x, r for x = 0 and
    2 (r - x) for x > 0 (_axis_counts over the whole axis), a low corner and
    a flip; and two lists of 2r entries read at the spot p + x of a
    placement p at distance x, the last endpoint's offset (the axis's r
    offsets twice) and the signed step (r steps up, then r down), as
    montecarlo._limits is read. For x = 0, and for x > 0 and p < r - x, the
    path walks up and ends at coordinate p + x; the rest walk down and end
    at p + x - r. Either way the first endpoint's offset is the last's less
    x steps, last - x * step, so no per-distance list is kept. An offset is
    origin + coordinate * stride: an axis of radix 1000 holds about 0.1 MiB
    (tracemalloc).

    Returns c(x) by distance, the last offsets and the steps."""
    offsets = [origin + i * stride for i in range(radix)]
    ways = _axis_counts(0, radix - 1, 0, radix - 1)
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
    folded from those counts one axis at a time by _fold, the fold behind
    reliability._box_weight; `folds` is that fold, folded here unless given,
    as a Monte-Carlo pool job gives it (montecarlo._tally_fold). The fold
    holds one weight per axis and path length, and no row.

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
    itself is a further draw: montecarlo._walk, or its inline copy in
    montecarlo._tally_range."""
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


def _healthy_pairs(table, faulty: frozenset[int], count: int) -> list[tuple[int, int]]:
    """The first `count` pairs with two endpoints outside `faulty`, as padded
    flat indices (first, last), among the pairs that rng.randrange ranks of a
    Random(0), each mapped by _pair_at, name; a pair with a faulty endpoint
    is passed over, as the sample loop redraws it. The pairs depend on the
    scenario alone.

    Raises ValueError when _PAIR_DRAWS draws find fewer: the estimator's
    pilot asks for 20 pairs, which is certain to fail below a healthy share of
    the path weight of 5e-5, where a sample would need 20 000 draws, and never
    fails above 1e-3; the sampled cross-check asks for 400, which fails below
    a share of about 4e-3.
    """
    rng = random.Random(0)
    pairs = []
    for _ in range(_PAIR_DRAWS):
        first, last, *_ = _pair_at(table, rng.randrange(table[0][-1]))
        if first not in faulty and last not in faulty:
            pairs.append((first, last))
            if len(pairs) == count:
                return pairs
    raise ValueError(
        f"only {len(pairs)} of {_PAIR_DRAWS} path-weighted pair draws have two non-faulty "
        "endpoints: the faults hold nearly all of the path weight; run `analyze` for the "
        "exact value"
    )


def path_count(a: Coord, b: Coord) -> int:
    """Number of minimal paths between two nodes (1 when a == b)."""
    return multinomial(delta(a, b))


def aligned_count(a: Coord, b: Coord, src: Coord, dst: Coord) -> int:
    """Number of src->dst paths whose every move follows the a->b direction.

    Per dimension the move budget is the src->dst offset, taken positive when
    it points the way a->b does (ties count as positive direction) and negative
    otherwise. Any negative budget kills the count: such a segment cannot be
    part of a minimal a->b path.
    """
    if not len(a) == len(b) == len(src) == len(dst):
        raise ValueError("dimension mismatch")
    signed = []
    for i in range(len(a)):
        move = dst[i] - src[i]
        signed.append(move if b[i] >= a[i] else -move)
    return multinomial(signed)


def restriction_points(a: Coord, b: Coord, obstacles: Iterable[Coord]) -> tuple[Coord, ...]:
    """Obstacles that can actually block a->b: those inside the bounding box.

    Returned in lexicographic order so downstream engines are deterministic.
    Raises ValueError if an endpoint itself is an obstacle.
    """
    obs = set(obstacles)
    if a in obs:
        raise ValueError(f"path source {a!r} lies inside the obstacle set")
    if b in obs:
        raise ValueError(f"path target {b!r} lies inside the obstacle set")
    box = bounding_box(a, b)
    return tuple(sorted(p for p in obs if box.contains(p)))


def determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    size = len(m)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for swap in range(k + 1, size):
                if m[swap][k] != 0:
                    m[k], m[swap] = m[swap], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, size):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, size):  # every division here is exact
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def avoiding_det(a: Coord, b: Coord, points: Sequence[Coord]) -> int:
    """Count minimal a->b paths visiting none of the given points.

    Builds the (m+1) x (m+1) matrix whose column l holds, for source point
    C_l (with C_0 = a), the aligned segment counts into b (row 0) and into
    each C_k (row k). Its determinant is the avoiding-path count: every walk
    through forbidden points is cancelled by a signed pairing.

    Points outside the a->b bounding box contribute a trivial row or column
    and leave the value unchanged. A negative determinant signals a malformed
    point set (duplicates, or a point equal to an endpoint) and raises.
    """
    pts = list(points)
    m = len(pts)
    sources = [a] + pts
    matrix = [[aligned_count(a, b, src, b) for src in sources]]
    for k in range(1, m + 1):
        target = pts[k - 1]
        matrix.append([aligned_count(a, b, src, target) for src in sources])
    value = determinant(matrix)
    if value < 0:
        raise ValueError(
            f"negative path determinant for {a!r}->{b!r}: restriction points malformed"
        )
    return value


def avoiding_dp(a: Coord, b: Coord, forbidden: Iterable[Coord]) -> int:
    """Count minimal a->b paths avoiding `forbidden` by sweeping the bounding box.

    Cells are processed outward from a; each cell sums its predecessors, with
    forbidden cells pinned to zero. The box is laid out flat with one zero
    cell before each axis's first, as in MeshShape.padded_strides, so a cell at
    offsets o from a, each counted from 1, sits at sum(o_i * strides_i) and its
    predecessors one stride back, the zero cells standing in for missing ones.
    Independent of the determinant engine.
    Raises ValueError when a and b differ in dimension, as mesh.delta does.
    """
    sizes = [d + 1 for d in delta(a, b)]
    strides = [math.prod(s + 1 for s in sizes[i + 1:]) for i in range(len(sizes))]
    box = bounding_box(a, b)
    blocked = {sum((abs(x - y) + 1) * s for x, y, s in zip(v, a, strides))
               for v in forbidden if box.contains(v)}
    order = [0]
    for size, stride in zip(sizes, strides):
        order = [p + x * stride for p in order for x in range(1, size + 1)]
    counts = [0] * (strides[0] * (sizes[0] + 1))
    counts[order[0]] = 1
    for p in order:
        if p in blocked:
            counts[p] = 0
        else:
            for s in strides:
                counts[p] += counts[p - s]
    return counts[order[-1]]


def avoiding_brute(a: Coord, b: Coord, forbidden: Iterable[Coord], cap: int = 10**6) -> int:
    """Count minimal a->b paths avoiding `forbidden` by explicit enumeration.

    Walks every minimal path move by move; intended as ground truth at small
    sizes. Raises PathEnumerationLimit when the total path count exceeds cap.
    """
    total = path_count(a, b)
    if total > cap:
        raise PathEnumerationLimit(
            f"{total} minimal paths between {a!r} and {b!r} exceeds cap {cap}"
        )
    blocked = set(forbidden)
    n = len(a)

    def walk(cur: Coord) -> int:
        if cur in blocked:
            return 0
        if cur == b:
            return 1
        acc = 0
        for i in range(n):
            if cur[i] != b[i]:
                step = 1 if b[i] > cur[i] else -1
                acc += walk(cur[:i] + (cur[i] + step,) + cur[i + 1:])
        return acc

    return walk(a)
