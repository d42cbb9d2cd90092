import math
import random
from fractions import Fraction
from itertools import product

import pytest

from faultring.paths import (
    PathEnumerationLimit,
    aligned_count,
    avoiding_brute,
    avoiding_det,
    avoiding_dp,
    determinant,
    multinomial,
    path_count,
    restriction_points,
)


def test_multinomial_matches_factorial_formula():
    assert multinomial(()) == 1
    assert multinomial((3,)) == 1
    assert multinomial((2, 2)) == 6
    assert multinomial((3, 3)) == 20
    assert multinomial((1, 2, 3)) == math.factorial(6) // (2 * 6)


def test_multinomial_negative_part_is_zero():
    assert multinomial((2, -1)) == 0
    assert multinomial((-3,)) == 0


def test_path_count_symmetric_and_known():
    assert path_count((0, 0), (3, 3)) == 20
    assert path_count((3, 3), (0, 0)) == 20
    assert path_count((1, 1), (1, 1)) == 1
    assert path_count((0, 2, 5), (2, 0, 5)) == 6


def test_aligned_count_respects_direction():
    # direction (0,0)->(3,3): moves must increase both components
    assert aligned_count((0, 0), (3, 3), (1, 1), (2, 2)) == 2
    assert aligned_count((0, 0), (3, 3), (2, 2), (1, 1)) == 0
    # against direction in one component only
    assert aligned_count((0, 0), (3, 3), (1, 2), (2, 1)) == 0


def test_restriction_points_filters_and_sorts():
    pts = restriction_points((0, 0), (3, 3), [(5, 5), (2, 1), (0, 3), (1, 2)])
    assert pts == ((0, 3), (1, 2), (2, 1))


def test_restriction_points_rejects_endpoint_obstacles():
    with pytest.raises(ValueError):
        restriction_points((0, 0), (3, 3), [(0, 0)])
    with pytest.raises(ValueError):
        restriction_points((0, 0), (3, 3), [(3, 3)])


def _det_fraction_oracle(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    size = len(m)
    det = Fraction(1)
    for k in range(size):
        pivot_row = next((i for i in range(k, size) if m[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, size):
            factor = m[i][k] / m[k][k]
            for j in range(k, size):
                m[i][j] -= factor * m[k][j]
    assert det.denominator == 1
    return det.numerator


def test_determinant_against_rational_elimination():
    rng = random.Random(41)
    for _ in range(60):
        size = rng.randint(1, 6)
        matrix = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
        assert determinant(matrix) == _det_fraction_oracle(matrix)


def test_determinant_singular_and_permutation():
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1


def test_avoiding_counts_hand_case():
    # 4x4 corner to corner: 20 paths total, 12 pass through (1,1)
    assert avoiding_dp((0, 0), (3, 3), [(1, 1)]) == 8
    assert avoiding_det((0, 0), (3, 3), [(1, 1)]) == 8
    assert avoiding_brute((0, 0), (3, 3), [(1, 1)]) == 8


def test_avoiding_blocked_endpoint_behavior():
    assert avoiding_dp((0, 0), (2, 2), [(0, 0)]) == 0
    assert avoiding_brute((0, 0), (2, 2), [(2, 2)]) == 0


@pytest.mark.parametrize("a, b", [((0, 0, 0), (2, 2)), ((2, 2), (0, 0, 0)), ((1,), (1, 1))])
def test_every_engine_refuses_endpoints_of_different_dimension(a, b):
    # zip would truncate the longer endpoint and count paths to another node.
    counts = [
        lambda: path_count(a, b),
        lambda: avoiding_det(a, b, []),
        lambda: avoiding_dp(a, b, set()),
        lambda: avoiding_brute(a, b, set()),
    ]
    for count in counts:
        with pytest.raises(ValueError, match="dimension mismatch"):
            count()


def test_avoiding_full_cut_gives_zero():
    # anti-diagonal wall cuts every monotone route
    wall = [(0, 2), (1, 1), (2, 0)]
    assert avoiding_dp((0, 0), (2, 2), wall) == 0
    assert avoiding_det((0, 0), (2, 2), wall) == 0
    assert avoiding_brute((0, 0), (2, 2), wall) == 0


def _box_nodes(a, b):
    ranges = [range(min(x, y), max(x, y) + 1) for x, y in zip(a, b)]
    return list(product(*ranges))


def test_three_engines_agree_on_random_cases():
    rng = random.Random(977)
    for _ in range(120):
        n = rng.randint(2, 3)
        a = tuple(rng.randint(0, 4) for _ in range(n))
        b = tuple(rng.randint(0, 4) for _ in range(n))
        box_nodes = [v for v in _box_nodes(a, b) if v != a and v != b]
        k = rng.randint(0, min(4, len(box_nodes)))
        forbidden = rng.sample(box_nodes, k) if k else []
        via_det = avoiding_det(a, b, restriction_points(a, b, forbidden))
        via_dp = avoiding_dp(a, b, forbidden)
        via_brute = avoiding_brute(a, b, forbidden)
        assert via_det == via_dp == via_brute


def test_out_of_box_points_do_not_change_determinant():
    base = avoiding_det((0, 0), (3, 3), [(1, 2)])
    widened = avoiding_det((0, 0), (3, 3), [(1, 2), (9, 9), (0, 7)])
    assert base == widened


def test_brute_force_cap():
    with pytest.raises(PathEnumerationLimit):
        avoiding_brute((0, 0), (12, 12), [], cap=1000)
