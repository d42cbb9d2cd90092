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
and the Monte-Carlo pair table (montecarlo._pair_table) builds its rows from
them.

All arithmetic is exact (unbounded integers).
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Sequence

from faultring.mesh import Coord, bounding_box, delta


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
    not kept: montecarlo._pair_table builds the ones it reads.
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
    forbidden cells pinned to zero. Independent of the determinant engine.
    Raises ValueError when a and b differ in dimension, as mesh.delta does.
    """
    sizes = tuple(d + 1 for d in delta(a, b))
    blocked = set(forbidden)
    if a == b:
        return 0 if a in blocked else 1
    n = len(a)
    steps = tuple(1 if b[i] >= a[i] else -1 for i in range(n))
    local = [1] * n
    for i in range(n - 2, -1, -1):
        local[i] = local[i + 1] * sizes[i + 1]
    counts = [0] * (local[0] * sizes[0])
    for offsets in product(*(range(s) for s in sizes)):
        coord = tuple(a[i] + offsets[i] * steps[i] for i in range(n))
        idx = sum(offsets[i] * local[i] for i in range(n))
        if coord in blocked:
            continue
        if idx == 0:
            counts[0] = 1
            continue
        acc = 0
        for i in range(n):
            if offsets[i]:
                acc += counts[idx - local[i]]
        counts[idx] = acc
    return counts[-1]


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
