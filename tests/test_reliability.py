import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

import faultring
from faultring import paths, reliability
from faultring.faults import ArbitraryFault, FaultComplex, RectFault, build_complex
from faultring.mesh import MeshShape
from faultring.paths import avoiding_det, avoiding_dp, path_count
from faultring.reference import reference_row
from faultring.reliability import (
    DEFAULT_BUDGET,
    check_budget,
    compute_reliability,
    format_probability,
    miss_paths,
    predicted_cost,
    select_engine,
    total_paths,
)


def _total_oracle(shape, faults):
    free = [v for v in shape.nodes() if v not in faults]
    return sum(path_count(a, b) for a, b in combinations(free, 2))


def _miss_oracle(shape, avoid):
    free = [v for v in shape.nodes() if v not in avoid]
    return sum(avoiding_dp(a, b, avoid) for a, b in combinations(free, 2))


def test_total_paths_matches_pairwise_sum():
    rng = random.Random(515)
    for _ in range(25):
        n = rng.randint(2, 3)
        shape = MeshShape(tuple(rng.randint(2, 4) for _ in range(n)))
        k = rng.randint(0, 3)
        faults = set(rng.sample(list(shape.nodes()), k)) if k else set()
        assert total_paths(shape, faults) == _total_oracle(shape, faults)


def test_all_pairs_blocked_case_from_worked_example():
    # 4x4 mesh, single fault at (1,1): 21 routes dodge the blocked set,
    # out of 340 weighted routes between non-faulty pairs.
    shape = MeshShape((4, 4))
    complex_ = build_complex(shape, RectFault((1, 1), (1, 1)))
    assert total_paths(shape, complex_.faults) == 340
    assert miss_paths(shape, complex_, engine="dp") == 21
    assert miss_paths(shape, complex_, engine="det") == 21


def test_miss_paths_engines_and_workers_agree():
    rng = random.Random(2024)
    for _ in range(12):
        shape = MeshShape((rng.randint(3, 5), rng.randint(3, 5)))
        origin = (rng.randint(0, 1), rng.randint(0, 1))
        extents = (1, rng.randint(1, 2))
        complex_ = build_complex(shape, RectFault(origin, extents))
        via_det = miss_paths(shape, complex_, engine="det")
        via_dp = miss_paths(shape, complex_, engine="dp")
        assert via_det == via_dp
        assert via_dp == _miss_oracle(shape, complex_.blocked)


@pytest.mark.parametrize(
    "radices, origin, extents, total, blocked, faults",
    [
        (
            (12, 12, 12), (4, 4, 4), (3, 3, 3),
            5952900601191786, 637307347008432, 2694521188107849,
        ),
        (
            (30, 30, 30), (10, 10, 10), (5, 5, 5),
            136590706815170110830343913193567219404943,
            52512277714951052108398278427807252233879,
            84756661768577381900484645358694977018350,
        ),
    ],
)
def test_dp_engine_pinned_beyond_property_test_sizes(radices, origin, extents, total, blocked, faults):
    # Literal sums for one central block, too large for the per-pair oracles.
    shape = MeshShape(radices)
    complex_ = build_complex(shape, RectFault(origin, extents))
    assert total_paths(shape, complex_.faults) == total
    assert miss_paths(shape, complex_, engine="dp", obstacle="blocked") == blocked
    assert miss_paths(shape, complex_, engine="dp", obstacle="faults") == faults


def test_closed_form_denominator_pinned_on_a_100_cubed_mesh(monkeypatch):
    # Literal sum from the dp engine (about 6 s); the closed form visits no node.
    def no_passes(*args):
        raise AssertionError("a box of faults needs no pass over the mesh")

    monkeypatch.setattr(reliability, "_pair_sum", no_passes)
    shape = MeshShape((100, 100, 100))
    complex_ = build_complex(shape, RectFault((40, 40, 40), (5, 5, 5)))
    assert total_paths(shape, complex_.faults) == int(
        "63856637732541647623528914513713578017771296315581013249092709296848"
        "7806887482962860770624926553957622596254697742029424432132377037922287697"
    )


def test_numerator_with_under_two_endpoints_makes_no_pass(monkeypatch):
    # A full-width fault whose ring covers the rest of the mesh leaves no pair.
    def no_passes(*args, **kwargs):
        raise AssertionError("fewer than two endpoints need no pass over the mesh")

    monkeypatch.setattr(reliability, "product", no_passes)
    shape = MeshShape((4, 3))
    complex_ = build_complex(shape, RectFault((0, 1), (4, 1)))
    assert complex_.blocked == set(shape.nodes())
    assert miss_paths(shape, complex_, engine="dp") == 0
    all_but_one = set(shape.nodes()) - {(2, 0)}
    assert reliability._pair_sum(shape, all_but_one, all_but_one) == 0


def test_miss_paths_with_fault_obstacle():
    shape = MeshShape((5, 5))
    complex_ = build_complex(shape, RectFault((2, 2), (1, 1)))
    got = miss_paths(shape, complex_, engine="dp", obstacle="faults")
    assert got == _miss_oracle(shape, complex_.faults)
    assert got > miss_paths(shape, complex_, engine="dp")


def test_miss_paths_rejects_unknown_obstacle():
    shape = MeshShape((4, 4))
    complex_ = build_complex(shape, RectFault((1, 1), (1, 1)))
    with pytest.raises(ValueError):
        miss_paths(shape, complex_, obstacle="everything")


def test_cross_check_full_passes_on_clean_engines():
    shape = MeshShape((5, 5))
    complex_ = build_complex(shape, RectFault((1, 1), (1, 2)))
    via_det = miss_paths(shape, complex_, engine="det", cross_check="full")
    via_dp = miss_paths(shape, complex_, engine="dp", cross_check="full")
    assert via_det == via_dp


def _record_cross_checked_pairs(monkeypatch) -> list:
    seen = []

    def recording_dp(a, b, forbidden):
        seen.append((a, b))
        return avoiding_dp(a, b, forbidden)

    monkeypatch.setattr(reliability, "avoiding_dp", recording_dp)
    return seen


def test_sampled_cross_check_visits_pinned_pairs(monkeypatch):
    # Literal values read when the pairs were first drawn by path weight: of
    # 191 distinct pairs among the 400 draws, 102 have a restriction point and
    # take a per-pair dp, fewest points first.
    shape = MeshShape((6, 7))
    complex_ = build_complex(shape, RectFault((2, 2), (2, 1)))
    seen = _record_cross_checked_pairs(monkeypatch)
    dets = []

    def recording_det(a, b, points):
        dets.append((a, b))
        return avoiding_det(a, b, points)

    monkeypatch.setattr(reliability, "avoiding_det", recording_det)
    assert miss_paths(shape, complex_, "dp", cross_check="sample") == 1254
    assert len(seen) == 102
    assert seen[:2] == [((4, 6), (5, 3)), ((4, 0), (5, 1))]
    assert seen[-1] == ((1, 4), (5, 0))
    # The 4 pairs with the fewest restriction points are recounted by det,
    # and a det value off by one fails the check on the first of them.
    assert dets == seen[:4]
    monkeypatch.setattr(reliability, "avoiding_det", lambda *args: avoiding_det(*args) + 1)
    with pytest.raises(reliability.EngineMismatch) as caught:
        miss_paths(shape, complex_, "dp", cross_check="sample")
    assert caught.value.pair == ((4, 6), (5, 3))


def test_sampled_cross_check_on_a_60_cubed_mesh_does_not_walk_its_pairs():
    # 60^3 less the 5^3 blocked nodes has about 2.3e10 free pairs: walking
    # them takes minutes, drawing 400 by rank through the pair map
    # milliseconds. The engines are stubbed, so only choosing the pairs and
    # the closed-form denominator of the p_miss test are timed. Every pair
    # drawn has the whole block in its box, so each stubbed ratio is 0, as
    # is the stubbed p_miss, and the test passes.
    code = """
from faultring import reliability
from faultring.faults import RectFault, build_complex
from faultring.mesh import MeshShape

reliability.avoiding_det = reliability.avoiding_dp = lambda a, b, points: 0
reliability._pair_sum = lambda shape, excluded, forbidden: 0
shape = MeshShape((60, 60, 60))
complex_ = build_complex(shape, RectFault((30, 30, 30), (3, 3, 3)))
assert reliability.miss_paths(shape, complex_, "dp", cross_check="sample") == 0
"""
    src = os.path.dirname(os.path.dirname(faultring.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=10)


def test_per_pair_engines_run_on_the_fault_free_complex(monkeypatch):
    shape = MeshShape((6, 7))
    clean = build_complex(shape, None)
    assert miss_paths(shape, clean, engine="det") == total_paths(shape) == 12441
    seen = _record_cross_checked_pairs(monkeypatch)
    assert miss_paths(shape, clean, engine="dp", cross_check="full") == 12441
    assert len(seen) == 42 * 41 // 2


@pytest.mark.parametrize("engine, cross_check, dets, dps", [
    ("det", None, 861, 0),
    ("auto", "sample", 0, 0),
    ("auto", "full", 861, 861),
])
def test_fault_free_analysis_runs_the_requested_engine_and_cross_check(
    monkeypatch, engine, cross_check, dets, dps
):
    # 6x7 has 42 nodes, so 861 pairs; a fault-free complex takes no shortcut.
    # A sampled pair with no restriction point needs no engine: its miss
    # ratio is 1, so without faults the sample's p_miss test runs alone.
    calls = {"det": 0, "dp": 0}

    def counting(name, count):
        def counted(*args):
            calls[name] += 1
            return count(*args)
        return counted

    monkeypatch.setattr(reliability, "avoiding_det", counting("det", avoiding_det))
    monkeypatch.setattr(reliability, "avoiding_dp", counting("dp", avoiding_dp))
    shape = MeshShape((6, 7))
    result = compute_reliability(shape, build_complex(shape, None), engine, cross_check)
    assert calls == {"det": dets, "dp": dps}
    assert (result.p_hit, result.miss_paths) == (0, 12441)
    assert result.engine == engine.replace("auto", "dp")


def test_fault_free_dp_makes_no_pass_over_the_mesh(monkeypatch):
    def no_passes(*args):
        raise AssertionError("a fault-free numerator is the closed-form total_paths")

    monkeypatch.setattr(reliability, "_pair_sum", no_passes)
    shape = MeshShape((6, 7))
    clean = build_complex(shape, None)
    assert miss_paths(shape, clean) == 12441
    assert compute_reliability(shape, clean, cross_check="sample").miss_paths == 12441


@pytest.mark.parametrize("obstacle", ["blocked", "faults"])
def test_fault_free_analysis_computes_its_denominator_once(monkeypatch, obstacle):
    # The closed-form denominator is also the fault-free numerator; the core
    # takes it from compute_reliability instead of computing it again.
    calls = []

    def counted(*args):
        calls.append(args)
        return total_paths(*args)

    monkeypatch.setattr(reliability, "total_paths", counted)
    shape = MeshShape((6, 7))
    result = compute_reliability(shape, build_complex(shape, None), obstacle=obstacle)
    assert len(calls) == 1
    assert (result.p_hit, result.total_paths, result.miss_paths) == (0, 12441, 12441)


def test_aggregate_mismatch_keeps_the_engine_mismatch_fields():
    exc = reliability.AggregateMismatch(5, 6)
    assert isinstance(exc, reliability.EngineMismatch)
    assert (exc.pair, exc.det_value, exc.dp_value) == (None, None, None)
    assert (exc.aggregate, exc.recount) == (5, 6)
    assert str(exc) == "aggregate disagrees with per-pair recount: 5 vs 6"


def test_full_cross_check_under_det_evaluates_each_determinant_once(monkeypatch):
    shape = MeshShape((5, 4, 3))
    complex_ = build_complex(shape, RectFault((1, 1, 1), (2, 1, 1)))
    calls = []

    def counting_det(a, b, points):
        calls.append((a, b))
        return avoiding_det(a, b, points)

    monkeypatch.setattr(reliability, "avoiding_det", counting_det)
    value = miss_paths(shape, complex_, engine="det", cross_check="full")
    free = shape.node_count - len(complex_.blocked)
    assert len(calls) == free * (free - 1) // 2
    assert value == miss_paths(shape, complex_, engine="dp")


def test_reliability_identities():
    shape = MeshShape((5, 5))
    complex_ = build_complex(shape, RectFault((1, 1), (2, 1)))
    result = compute_reliability(shape, complex_)
    assert result.p_hit + result.p_miss == 1
    assert result.total_paths == total_paths(shape, complex_.faults)
    assert result.p_miss == Fraction(result.miss_paths, result.total_paths)


def test_reliability_fault_free_never_hits():
    shape = MeshShape((4, 4))
    result = compute_reliability(shape, build_complex(shape, None))
    assert result.p_hit == 0
    assert result.p_miss == 1
    assert result.classification is None


def test_reliability_covered_mesh_always_hits():
    shape = MeshShape((3, 2, 2))
    complex_ = build_complex(shape, RectFault((1, 1, 0), (1, 1, 1)))
    result = compute_reliability(shape, complex_)
    assert result.p_miss == 0
    assert result.p_hit == 1


def test_reliability_result_records_obstacle():
    shape = MeshShape((5, 5))
    complex_ = build_complex(shape, RectFault((2, 2), (1, 1)))
    strict = compute_reliability(shape, complex_, engine="dp")
    loose = compute_reliability(shape, complex_, engine="dp", obstacle="faults")
    assert strict.obstacle == "blocked"
    assert loose.obstacle == "faults"
    assert loose.p_hit < strict.p_hit


def test_select_engine_policies():
    big = MeshShape((10, 10))
    big_complex = build_complex(big, RectFault((3, 3), (4, 4)))
    assert select_engine(big, big_complex).engine == "dp"
    assert select_engine(big, big_complex, policy="auto").engine == "dp"
    assert select_engine(big, big_complex, policy="dp").engine == "dp"
    assert select_engine(big, big_complex, policy="det").engine == "det"
    # the bare-fault avoid set is smaller, so its predicted cost is lower
    blocked_cost = select_engine(big, big_complex).predicted_det_cost
    faults_cost = select_engine(big, big_complex, obstacle="faults").predicted_det_cost
    assert faults_cost < blocked_cost


def test_select_engine_counts_only_obstacle_nodes_inside_the_mesh():
    # A hand-built complex may hold a fault outside the mesh, here (5, 5); it
    # is not a node, so one pair of healthy nodes remains and costs something.
    shape = MeshShape((2, 2))
    faults = frozenset({(0, 0), (0, 1), (5, 5)})
    complex_ = FaultComplex(faults, frozenset(), faults, None)
    choice = select_engine(shape, complex_, policy="det", obstacle="faults")
    assert choice.predicted_det_cost > 0
    assert miss_paths(shape, complex_, "det", obstacle="faults") == 1
    assert miss_paths(shape, complex_, "dp", obstacle="faults") == 1


def test_predicted_cost_counts_cells_of_both_sums():
    assert predicted_cost(MeshShape((5, 13, 9))) == 47_385
    assert predicted_cost(MeshShape((7, 8, 11))) == 49_896


def test_budget_below_predicted_cost_raises_before_work():
    shape = MeshShape((5, 5))
    complex_ = build_complex(shape, RectFault((1, 1), (1, 2)))
    cost = predicted_cost(shape)
    assert compute_reliability(shape, complex_, budget=cost).p_hit > 0
    with pytest.raises(ValueError, match=r"predicted cost 450 exceeds budget 449"):
        compute_reliability(shape, complex_, budget=cost - 1)


def test_predicted_cost_adds_one_term_per_determinant():
    shape = MeshShape((30, 30, 30))
    complex_ = build_complex(shape, RectFault((12, 12, 12), (3, 3, 3)))
    cells = predicted_cost(shape)
    det = select_engine(shape, complex_).predicted_det_cost
    assert predicted_cost(shape, complex_) == cells == 2_187_000
    assert predicted_cost(shape, complex_, "det") == det
    assert predicted_cost(shape, complex_, "dp", "full") == cells + det
    assert predicted_cost(shape, complex_, "det", "full") == det
    # The sampled pairs' per-pair dp cells and their 4 determinants, summed
    # exactly: under the default budget, so the sample runs on 30^3.
    assert predicted_cost(shape, complex_, "dp", "sample") == 29_998_080 < DEFAULT_BUDGET
    assert predicted_cost(shape, complex_, "det", "sample") == det + (29_998_080 - cells)


def test_predicted_det_cost_keeps_its_values():
    # Literals read before the det estimate moved into predicted_cost.
    row3 = reference_row(3).build()
    cube = MeshShape((30, 30, 30))
    cube_complex = build_complex(cube, RectFault((12, 12, 12), (3, 3, 3)))
    faults = frozenset({(0, 0), (0, 1), (5, 5)})
    hand = FaultComplex(faults, frozenset(), faults, None)
    assert select_engine(*row3).predicted_det_cost == 155111090.58659655
    assert select_engine(cube, cube_complex).predicted_det_cost == 131632341720.56264
    choice = select_engine(MeshShape((2, 2)), hand, policy="det", obstacle="faults")
    assert choice.predicted_det_cost == 9.595703125


def test_every_entry_point_reads_auto_and_none_as_dp_and_off():
    # predicted_cost once priced "auto" and unknown names at 0 cells, so
    # check_budget admitted them, and miss_paths refused "auto".
    shape = MeshShape((30, 30, 30))
    complex_ = build_complex(shape, RectFault((12, 12, 12), (3, 3, 3)))
    assert predicted_cost(shape, complex_, "auto", None) == 2_187_000
    full = predicted_cost(shape, complex_, "dp", "full")
    assert predicted_cost(shape, complex_, "auto", "full") == full
    with pytest.raises(ValueError, match=r"predicted cost 2\.19e\+06 exceeds budget 10"):
        check_budget(shape, 10, complex_, "auto")
    for run, name in ((("bogus", "off"), "engine"), (("dp", "bogus"), "cross_check")):
        with pytest.raises(ValueError, match=f"unknown {name} 'bogus'"):
            predicted_cost(shape, complex_, *run)
        with pytest.raises(ValueError, match=f"unknown {name} 'bogus'"):
            check_budget(shape, 1e300, complex_, *run)
    small = MeshShape((5, 5))
    small_complex = build_complex(small, RectFault((1, 1), (1, 2)))
    expected = miss_paths(small, small_complex, "dp", "off")
    assert miss_paths(small, small_complex, engine="auto") == expected
    assert miss_paths(small, small_complex, cross_check=None) == expected


def test_predicted_cost_without_a_complex_prices_the_fault_free_run():
    # Without a complex, every run but dp alone once raised AttributeError.
    shape = MeshShape((5, 5))
    empty = build_complex(shape, None)
    for run in (("dp", "off"), ("det", "off"), ("dp", "full"), ("dp", "sample"), ("det", "sample")):
        assert predicted_cost(shape, None, *run) == predicted_cost(shape, empty, *run)
    # One determinant of no restriction point, (0 + 1)^3, for each of the 300 pairs.
    assert predicted_cost(shape, None, "det") == 300
    check_budget(shape, 300, None, "det")


def test_sampled_cross_check_over_budget_is_refused_before_any_work(monkeypatch):
    # A per-pair dp over boxes of up to 10^6 nodes for each drawn pair, and
    # 4 determinants of 344 rows: with 64 uniform pairs, this run took 51 s
    # before the sample was priced.
    def work(*args):
        raise AssertionError("the budget check comes before any exact work")

    for name in ("avoiding_det", "avoiding_dp", "_pair_sum"):
        monkeypatch.setattr(reliability, name, work)
    shape = MeshShape((100, 100, 100))
    complex_ = build_complex(shape, RectFault((40, 40, 40), (5, 5, 5)))
    assert predicted_cost(shape, complex_, "dp", "sample") == 1_020_642_710
    with pytest.raises(ValueError, match=r"predicted cost 1\.02e\+09 exceeds budget 1e\+08"):
        compute_reliability(shape, complex_, cross_check="sample")
    check_budget(shape, float("inf"), complex_, "dp", "sample")


def test_sampled_cross_check_prices_the_dp_cells_before_drawing_pairs(monkeypatch):
    # 1000^3's dp cells alone, 8.1e10, are over the budget: the run is refused
    # before the pair table's fold, which takes seconds here, begins.
    def work(*args):
        raise AssertionError("the dp cells are priced before any pair table is built")

    monkeypatch.setattr(paths, "_pair_table", work)
    monkeypatch.setattr(reliability, "_pair_table", work)
    shape = MeshShape((1000, 1000, 1000))
    complex_ = build_complex(shape, RectFault((500, 500, 500), (5, 5, 5)))
    for engine in ("dp", "det"):
        with pytest.raises(ValueError, match=r"predicted cost \S+ exceeds budget 1e\+08"):
            compute_reliability(shape, complex_, engine, cross_check="sample")


def test_sampled_cross_check_refuses_what_the_estimator_cannot_sample():
    # A 12-row slab along one edge of 40x40 leaves healthy endpoints to about
    # 0.007% of the path weight: the draw of the sampled pairs gives up as the
    # estimator's pilot does, with its message, while the exact run without
    # the sample answers.
    shape = MeshShape((40, 40))
    complex_ = build_complex(shape, RectFault((0, 0), (12, 40)))
    assert 0 < compute_reliability(shape, complex_).p_hit < 1
    with pytest.raises(ValueError, match=r"only \d+ of 100000 path-weighted pair draws .* run `analyze`"):
        compute_reliability(shape, complex_, cross_check="sample")


def test_sampled_cross_check_tests_the_reported_p_miss(monkeypatch):
    # A numerator a seventh of the true one on the README scenario: the
    # per-pair engines agree on every pair, but p_miss lies far from the
    # sampled pairs' mean miss ratio. miss_paths divides its numerator by
    # the denominator and runs the same test as compute_reliability.
    shape = MeshShape((5, 5))
    complex_ = build_complex(shape, RectFault((1, 1), (1, 2)))
    pair_sum = reliability._pair_sum
    monkeypatch.setattr(reliability, "_pair_sum", lambda *args: pair_sum(*args) // 7)
    for obstacle, missing, distance in (("blocked", 148, 7.2), ("faults", 794, 31.0)):
        raised = []
        for run in (miss_paths, compute_reliability):
            with pytest.raises(reliability.SampleMismatch) as caught:
                run(shape, complex_, cross_check="sample", obstacle=obstacle)
            raised.append(caught.value)
        exc, again = raised
        assert (again.p_miss, again.mean, again.sigma) == (exc.p_miss, exc.mean, exc.sigma)
        assert isinstance(exc, reliability.EngineMismatch)
        assert (exc.pair, exc.det_value, exc.dp_value) == (None, None, None)
        assert exc.p_miss == (missing // 7) / 1461
        assert round(abs(exc.p_miss - exc.mean) / exc.sigma, 1) == distance


def test_sampled_run_computes_its_denominator_once(monkeypatch):
    # An L of three faults fills no box, so the denominator takes dp passes
    # like the numerator: one sum each, and the p_miss test reads the same
    # denominator rather than summing it again.
    shape = MeshShape((6, 6))
    complex_ = build_complex(shape, ArbitraryFault(frozenset({(2, 2), (2, 3), (3, 2)})))
    calls = {"_pair_sum": 0, "total_paths": 0}

    def counting(name):
        count = getattr(reliability, name)

        def counted(*args):
            calls[name] += 1
            return count(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(reliability, name, counting(name))
    for obstacle, p_hit in (("blocked", Fraction(5893, 6090)), ("faults", Fraction(398, 609))):
        calls.update(dict.fromkeys(calls, 0))
        result = compute_reliability(shape, complex_, cross_check="sample", obstacle=obstacle)
        assert calls == {"_pair_sum": 2, "total_paths": 1}
        assert result.p_hit == p_hit


def test_compute_reliability_runs_without_select_engine_or_miss_paths(monkeypatch):
    shape = MeshShape((5, 5))
    complex_ = build_complex(shape, RectFault((1, 1), (1, 2)))

    def refused(*args, **kwargs):
        raise AssertionError("compute_reliability resolves and runs its engine itself")

    monkeypatch.setattr(reliability, "select_engine", refused)
    monkeypatch.setattr(reliability, "miss_paths", refused)
    for engine in ("auto", "dp", "det"):
        for cross_check in (None, "off", "sample", "full"):
            result = compute_reliability(shape, complex_, engine, cross_check)
            assert (result.p_hit, result.engine) == (Fraction(1313, 1461), engine.replace("auto", "dp"))


def test_select_engine_reports_the_engine_and_cross_check_that_run(monkeypatch):
    shape = MeshShape((5, 5))
    complex_ = build_complex(shape, RectFault((1, 1), (1, 2)))
    miss_sum, ran = reliability._miss_sum, []

    def recording(shape, complex_, avoid, engine, cross_check, denominator):
        ran.append((engine, cross_check))
        return miss_sum(shape, complex_, avoid, engine, cross_check, denominator)

    monkeypatch.setattr(reliability, "_miss_sum", recording)
    for policy in ("auto", "dp", "det"):
        for cross_check in (None, "off", "sample", "full"):
            choice = select_engine(shape, complex_, policy, cross_check)
            compute_reliability(shape, complex_, policy, cross_check)
            assert ran.pop() == (choice.engine, choice.cross_check)


def test_sampled_cross_check_within_budget_keeps_its_exact_answer():
    shape = MeshShape((10, 10, 10))
    complex_ = build_complex(shape, RectFault((4, 4, 4), (2, 2, 2)))
    assert predicted_cost(shape) < predicted_cost(shape, complex_, "dp", "sample") < DEFAULT_BUDGET
    result = compute_reliability(shape, complex_, cross_check="sample")
    assert result.p_hit == Fraction(694564556987, 820227950628)


@pytest.mark.parametrize("budget", [float("nan"), 0, -1])
def test_check_budget_refuses_nan_and_non_positive_budgets(budget):
    with pytest.raises(ValueError, match="budget must be a positive number"):
        check_budget(MeshShape((5, 5)), budget)


def test_unknown_engine_name_is_rejected():
    shape = MeshShape((4, 4))
    complex_ = build_complex(shape, RectFault((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="unknown engine 'bogus'; expected one of det, dp, auto"):
        compute_reliability(shape, complex_, engine="bogus")


def test_unknown_cross_check_name_is_rejected():
    shape = MeshShape((4, 4))
    complex_ = build_complex(shape, RectFault((1, 1), (1, 1)))
    # Only None reads as "off"; any other falsy value is refused like a bad name.
    for value in ("bogus", "", 0, False):
        with pytest.raises(
            ValueError,
            match=re.escape(f"unknown cross_check {value!r}; expected one of off, sample, full"),
        ):
            compute_reliability(shape, complex_, cross_check=value)


def test_format_probability_half_even_rounding():
    assert format_probability(Fraction(1), 3) == "1.000"
    assert format_probability(Fraction(0), 3) == "0.000"
    assert format_probability(Fraction(1, 3), 3) == "0.333"
    assert format_probability(Fraction(1, 8), 2) == "0.12"
    assert format_probability(Fraction(3, 8), 2) == "0.38"
    assert format_probability(Fraction(-1, 8), 2) == "-0.12"
    assert format_probability(Fraction(214, 1000), 3) == "0.214"
    assert format_probability(Fraction(1, 2), 0) == "0"
    with pytest.raises(ValueError):
        format_probability(Fraction(1, 2), -1)
