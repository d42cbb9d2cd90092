"""Property tests: the all-pairs engine against the per-pair oracles, its
invariance under the symmetries of the mesh, also on meshes too large for the
brute-force oracle, the closed-form denominator of
box faults against the engine, the entry-edge form of the paths that miss a
box against the per-pair engines, the per-axis fold of box-to-box path weights
against per-pair counts, the Monte-Carlo pair table's rows against their
definition, the sampled cross-check's pairs against the healthy pairs the
pair map draws, and the check itself on correct engines, the Monte-Carlo
sample loop against a reference loop, connectivity and rings against their
definitions, the box branches of the ring, the border class and the
connectivity check against the same definitions, and the scenario round
trip."""

import math
import random
from collections import Counter
from itertools import accumulate, combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faultring.faults import (
    ArbitraryFault,
    Classification,
    FaultComplex,
    OverlapFault,
    RectFault,
    build_complex,
    classify,
    ring_of,
)
from faultring.mesh import (
    Box,
    MeshShape,
    bounding_box,
    in_mesh_box,
    is_connected,
    neighbors,
    padded_index,
    padded_indices,
)
from faultring.montecarlo import (
    _BLOCK,
    _PILOT_ACCEPTS,
    _SEED_SPAN,
    McConfig,
    _limits,
    _tally_range,
    _walk,
)
from faultring.paths import (
    _healthy_pairs,
    _pair_at,
    _pair_table,
    _placements,
    _row,
    avoiding_brute,
    avoiding_det,
    avoiding_dp,
    multinomial,
    path_count,
    restriction_points,
)
from faultring.reliability import (
    CROSS_CHECKS,
    ENGINES,
    OBSTACLES,
    _SAMPLE_PAIRS,
    _avoid_set,
    _box_weight,
    _drawn_pairs,
    _pair_sum,
    compute_reliability,
    miss_paths,
    total_paths,
)
from faultring.scenarios import (
    AnalysisOptions,
    ScenarioConfig,
    parse_scenario,
    serialize_scenario,
)

MAX_NODES = 40


@st.composite
def scenarios(draw):
    """A mesh of at most MAX_NODES nodes, n 1..5, radices 2..5, and any fault
    set leaving at least two healthy nodes (corners and borders included).
    n = 5 leaves room only for the radix-2 5-cube, whose passes relax up to
    five predecessors per node."""
    n = draw(st.integers(1, 5))
    radices: list[int] = []
    for i in range(n):
        room = MAX_NODES // (math.prod(radices) * 2 ** (n - i - 1))
        radices.append(draw(st.integers(2, min(5, room))))
    shape = MeshShape(tuple(radices))
    nodes = list(shape.nodes())
    faults = draw(st.sets(st.sampled_from(nodes), max_size=len(nodes) - 2))
    return shape, build_complex(shape, ArbitraryFault(frozenset(faults)))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(scenarios())
def test_all_pairs_engine_matches_per_pair_oracles(scenario):
    shape, complex_ = scenario
    healthy = [v for v in shape.nodes() if v not in complex_.faults]
    assert total_paths(shape, complex_.faults) == sum(
        path_count(a, b) for a, b in combinations(healthy, 2)
    )
    for obstacle, avoid in (("blocked", complex_.blocked), ("faults", complex_.faults)):
        free = [v for v in shape.nodes() if v not in avoid]
        brute = sum(avoiding_brute(a, b, avoid) for a, b in combinations(free, 2))
        via_dp = miss_paths(shape, complex_, engine="dp", obstacle=obstacle)
        assert via_dp == brute == miss_paths(shape, complex_, engine="det", obstacle=obstacle)
        result = compute_reliability(shape, complex_, obstacle=obstacle)
        assert result.p_hit + result.p_miss == 1


def _mapped(complex_, image, radices):
    faults = ArbitraryFault(frozenset(image(v) for v in complex_.faults))
    moved = MeshShape(radices)
    return moved, build_complex(moved, faults)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(scenarios(), st.data())
def test_p_hit_is_invariant_under_permutation_and_reflection(scenario, data):
    shape, complex_ = scenario
    radices = shape.radices
    perm = data.draw(st.permutations(range(shape.n)))
    flips = data.draw(st.lists(st.booleans(), min_size=shape.n, max_size=shape.n))
    permuted = _mapped(
        complex_, lambda v: tuple(v[p] for p in perm), tuple(radices[p] for p in perm)
    )
    reflected = _mapped(
        complex_,
        lambda v: tuple(r - 1 - x if f else x for x, r, f in zip(v, radices, flips)),
        radices,
    )
    for obstacle in OBSTACLES:
        p_hit = compute_reliability(shape, complex_, obstacle=obstacle).p_hit
        for moved_shape, moved_complex in (permuted, reflected):
            assert compute_reliability(moved_shape, moved_complex, obstacle=obstacle).p_hit == p_hit


@st.composite
def large_avoid_sets(draw):
    """A mesh of 41 to 400 nodes, past the brute-force oracle's reach, with
    n 2..5 (radices 2 and 3 at n = 5, whose passes relax up to five
    predecessors per node), and an avoid set: a box, maybe empty or the whole
    mesh, or nodes scattered at a density up to 0.5. Built from one drawn
    seed, as a hypothesis draw per node would cost more than the passes."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(2, 5)
    low, high = {2: (7, 20), 3: (4, 7), 4: (3, 4), 5: (2, 3)}[n]
    radices = [rng.randint(low, high) for _ in range(n)]
    while math.prod(radices) < 41:
        radices[rng.randrange(n)] = high
    while math.prod(radices) > 400:
        radices[rng.randrange(n)] = low
    shape = MeshShape(tuple(radices))
    if rng.random() < 0.5:
        sides = [sorted((rng.randrange(r), rng.randrange(r))) for r in radices]
        avoid = set(Box(*zip(*sides)).nodes())
    else:
        density = rng.choice((0.05, 0.2, 0.5))
        avoid = {v for v in shape.nodes() if rng.random() < density}
    return shape, avoid, rng.sample(range(n), n), [rng.random() < 0.5 for _ in range(n)]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(large_avoid_sets())
def test_pair_sum_is_invariant_under_permutation_and_reflection_on_larger_meshes(case):
    # Each dp pass relaxes one shared array in place along its own visiting
    # order, trusting every cell outside that order to hold 0 and every cell in
    # it to be overwritten before it is read; an orientation that broke this
    # would count differently from its mirror image. Both forms are held: the
    # numerator's (A, A) and the denominator's (F, ()). A box's (F, ()) form
    # is also total_paths' closed form.
    shape, avoid, perm, flips = case
    radices = shape.radices
    sums = (_pair_sum(shape, avoid, avoid), _pair_sum(shape, avoid, ()))
    for moved_radices, image in (
        (tuple(radices[p] for p in perm), lambda v: tuple(v[p] for p in perm)),
        (radices, lambda v: tuple(r - 1 - x if f else x for x, r, f in zip(v, radices, flips))),
    ):
        moved_shape = MeshShape(moved_radices)
        moved = {image(v) for v in avoid}
        assert (_pair_sum(moved_shape, moved, moved), _pair_sum(moved_shape, moved, ())) == sums
    if in_mesh_box(shape, avoid)[2] and shape.node_count - len(avoid) >= 2:
        assert total_paths(shape, avoid) == sums[1]


@st.composite
def box_faults(draw):
    """A mesh with n 1..4 and radices 2..6 and a box of faults: anywhere, a
    single node, against the border, full width on some axes, or all but two
    nodes; or no faults at all. Sometimes with a coordinate outside the mesh."""
    kind = draw(st.sampled_from(("random", "single", "border", "full-width", "two-left", "empty")))
    if kind == "two-left":
        # Only on a line, or as all but one row of a 2 x r mesh, can a box
        # leave exactly two healthy nodes.
        r = draw(st.integers(3, 6))
        shape = MeshShape(draw(st.sampled_from(((r,), (r, 2), (2, r)))))
        width = r - 2 // shape.n
        start = draw(st.integers(0, r - width))
        lo = tuple(start if x == r else 0 for x in shape.radices)
        hi = tuple(start + width - 1 if x == r else 1 for x in shape.radices)
    else:
        shape = MeshShape(tuple(draw(st.integers(2, 6)) for _ in range(draw(st.integers(1, 4)))))
        lo, hi = [], []
        for r in shape.radices:
            if kind == "single":
                a = b = draw(st.integers(0, r - 1))
            elif kind == "full-width" and draw(st.booleans()):
                a, b = 0, r - 1
            elif kind == "border":
                a, b = sorted((draw(st.sampled_from((0, r - 1))), draw(st.integers(0, r - 1))))
            else:
                a, b = sorted((draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))))
            lo.append(a)
            hi.append(b)
    faults = set() if kind == "empty" else set(Box(tuple(lo), tuple(hi)).nodes())
    assume(shape.node_count - len(faults) >= 2)
    if draw(st.booleans()):
        faults.add(draw(st.sampled_from((shape.radices, (-1,) * shape.n))))
    return shape, faults


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(box_faults())
def test_closed_form_denominator_matches_engine(case):
    shape, faults = case
    expected = _pair_sum(shape, faults, ())
    assert total_paths(shape, faults) == expected
    if shape.node_count <= MAX_NODES:
        healthy = [v for v in shape.nodes() if v not in faults]
        assert expected == sum(path_count(a, b) for a, b in combinations(healthy, 2))


@st.composite
def box_pairs(draw):
    """Two boxes with n 1..4 and coordinates 0..5, disjoint, touching, nested,
    equal or arbitrary, with a pair count small enough to count per pair."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("disjoint", "touching", "nested", "equal", "any")))
    apart = draw(st.integers(0, n - 1))
    x, y = [], []
    for axis in range(n):
        a, b = sorted((draw(st.integers(0, 5)), draw(st.integers(0, 5))))
        if kind == "equal":
            c, d = a, b
        elif kind == "nested":
            c = draw(st.integers(a, b))
            d = draw(st.integers(c, b))
        elif kind in ("disjoint", "touching") and axis == apart:
            # a..b then c..d: a gap of at least one coordinate if disjoint, none if touching.
            b = draw(st.integers(0, 3 if kind == "disjoint" else 4))
            a = draw(st.integers(0, b))
            c = draw(st.integers(b + 2, 5)) if kind == "disjoint" else b + 1
            d = draw(st.integers(c, 5))
            if draw(st.booleans()):
                a, b, c, d = c, d, a, b
        else:
            c, d = sorted((draw(st.integers(0, 5)), draw(st.integers(0, 5))))
        x.append((a, b))
        y.append((c, d))
    boxes = [Box(*zip(*intervals)) for intervals in (x, y)]
    assume(boxes[0].volume * boxes[1].volume <= 4000)
    return boxes


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(box_pairs())
def test_box_weight_sums_path_counts_over_box_pairs(boxes):
    x, y = boxes
    assert _box_weight(x, y) == sum(path_count(a, b) for a in x.nodes() for b in y.nodes())


@st.composite
def boxes_and_outside_pairs(draw):
    """A mesh with n 1..4 and radices 2..6, a box B in it whose side on each
    axis lies anywhere, touches a border or spans the axis, and two nodes a
    and b outside B, maybe equal, in most cases with B meeting their
    bounding box."""
    radices = draw(st.lists(st.integers(2, 6), min_size=1, max_size=4))
    sides = []
    for r in radices:
        kind = draw(st.sampled_from(("any", "any", "border", "whole")))
        if kind == "whole":
            sides.append((0, r - 1))
        elif kind == "border":
            sides.append(sorted((draw(st.sampled_from((0, r - 1))), draw(st.integers(0, r - 1)))))
        else:
            sides.append(sorted((draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1)))))
    box = Box(*zip(*sides))
    outside = [v for v in MeshShape(tuple(radices)).nodes() if not box.contains(v)]
    assume(outside)
    a = draw(st.sampled_from(outside))
    across = [
        v
        for v in outside
        if all(min(x, y) <= hi and max(x, y) >= lo for x, y, lo, hi in zip(a, v, box.lo, box.hi))
    ]
    if across and draw(st.integers(0, 3)):
        return box, a, draw(st.sampled_from(across))
    return box, a, draw(st.sampled_from(outside))


def _entry_edge_avoiding(a, b, box):
    """The minimal a->b paths that miss B, for a and b outside it: P(a, b)
    less the paths through each entry edge u -> v, v in B and u outside. A
    monotone path meets a box in one contiguous run, so it enters B once,
    by one such edge, and none of its part up to u meets B: that edge
    carries P(a, u) * P(v, b) paths. v lies in bbox(a, b), and u = v - s_i e_i,
    s the a->b direction, for an axis i with v_i != a_i."""
    steps = [1 if y >= x else -1 for x, y in zip(a, b)]
    span = bounding_box(a, b)
    sides = zip(box.lo, box.hi, span.lo, span.hi)
    inside = [range(max(lo, sl), min(hi, sh) + 1) for lo, hi, sl, sh in sides]
    through = 0
    for v in product(*inside):
        for i, (x, y, s) in enumerate(zip(v, a, steps)):
            u = v[:i] + (x - s,) + v[i + 1 :]
            if x != y and not box.contains(u):
                through += path_count(a, u) * path_count(v, b)
    return path_count(a, b) - through


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(boxes_and_outside_pairs())
def test_entry_edge_form_counts_the_paths_that_miss_a_box(case):
    # The entry-edge form, a closed form in path counts, against the per-pair
    # dp sweep, and against the determinant wherever its matrix stays small.
    box, a, b = case
    expected = _entry_edge_avoiding(a, b, box)
    assert avoiding_dp(a, b, box.nodes()) == expected
    points = restriction_points(a, b, box.nodes())
    if len(points) <= 40:
        assert avoiding_det(a, b, points) == expected


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(st.integers(2, 6), min_size=2, max_size=4))
def test_pair_table_rows_list_each_distance_in_ascending_order(radices):
    # Row L of axis j holds, for the distances x ascending from the least,
    # the divisor comb(L, x) * c_j(x) and the running sum of the parts
    # before[L - x] * divisor, where before[L] sums multinomial(offset) times
    # the product of the counts c_i(x_i) over the offsets of length L on the
    # axes below j, counted here from that definition. _box_weight's sum
    # cannot see that order. Every row is built on first read, at every length.
    _, axes, *_ = _pair_table(MeshShape(tuple(radices)))
    assert not any(any(rows) for rows, *_ in axes)

    def c(radix, x):
        return 2 * (radix - x) if x else radix

    for j, axis in zip(range(len(radices) - 1, 0, -1), axes):
        before = Counter()
        for offset in product(*map(range, radices[:j])):
            before[sum(offset)] += multinomial(offset) * math.prod(map(c, radices, offset))
        for length in range(len(before) + radices[j] - 1):
            xs = [x for x in range(radices[j]) if length - x in before]
            divisors = [math.comb(length, x) * c(radices[j], x) for x in xs]
            parts = [before[length - x] * d for x, d in zip(xs, divisors)]
            row = (list(accumulate(parts, initial=0)), xs[0], divisors)
            assert _row(axis, length) == row and axis[0][length] == row
        assert len(axis[0]) == length + 1


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(scenarios(), st.sampled_from(OBSTACLES))
def test_drawn_pairs_are_the_healthy_pairs_of_the_pair_map(scenario, obstacle):
    # The sampled cross-check draws its pairs as the estimator's pilot does:
    # _pair_at on the ranks of one fixed-seed generator, a pair with a faulty
    # endpoint passed over; merged into unordered pairs, each with its
    # restriction points, or None when an endpoint is in the avoid set.
    shape, complex_ = scenario
    avoid = _avoid_set(complex_, obstacle)
    faulty = padded_indices(shape, complex_.faults)
    try:
        drawn = _healthy_pairs(_pair_table(shape), faulty, _SAMPLE_PAIRS)
    except ValueError:
        with pytest.raises(ValueError, match="run `analyze`"):
            _drawn_pairs(shape, complex_, avoid)
        return
    node_at = {padded_index(v, shape.padded_strides()): v for v in shape.nodes()}
    pairs = _drawn_pairs(shape, complex_, avoid)
    merged = Counter(frozenset((node_at[first], node_at[last])) for first, last in drawn)
    assert Counter({frozenset((a, b)): draws for a, b, draws, _ in pairs}) == merged
    for a, b, _, points in pairs:
        assert points == (None if {a, b} & avoid else restriction_points(a, b, avoid))
    sizes = [len(points or ()) for *_, points in pairs]
    assert sizes == sorted(sizes)


@st.composite
def checked_scenarios(draw):
    """A mesh with n 1..4 and radices 2..6 of at most MAX_NODES nodes; one
    rect fault, or faults scattered at a density up to 0.5, leaving at least
    two healthy nodes; and an obstacle. Built from one drawn seed, as a
    hypothesis draw per node would cost more than the check."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(1, 4)
    radices: list[int] = []
    for i in range(n):
        room = MAX_NODES // (math.prod(radices) * 2 ** (n - i - 1))
        radices.append(rng.randint(2, min(6, room)))
    shape = MeshShape(tuple(radices))
    if rng.random() < 0.5:
        origin = [rng.randrange(r) for r in radices]
        fault = RectFault(tuple(origin), tuple(rng.randint(1, r - o) for r, o in zip(radices, origin)))
    else:
        density = rng.choice((0.05, 0.2, 0.5))
        fault = ArbitraryFault(frozenset(v for v in shape.nodes() if rng.random() < density))
    complex_ = build_complex(shape, fault)
    assume(shape.node_count - len(complex_.faults) >= 2)
    return shape, complex_, rng.choice(OBSTACLES)


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(checked_scenarios())
def test_sampled_cross_check_passes_the_correct_engine(case):
    # The check raised no false alarm on 10 000 such scenarios with up to
    # 400 nodes (see _check_sample). A scenario whose healthy pairs hold too
    # little path weight for the draw is refused as the estimator refuses it.
    shape, complex_, obstacle = case
    try:
        compute_reliability(shape, complex_, cross_check="sample", obstacle=obstacle)
    except ValueError as exc:
        assert "run `analyze`" in str(exc)


@st.composite
def axis_sides(draw):
    """One axis of radix 2..9 and B's side [lo, hi] on it: anywhere, a single
    coordinate, touching a border, the whole axis, or empty, as in_mesh_box
    gives it for no avoid node (lo = radix, hi = -1)."""
    radix = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(("any", "single", "border", "whole", "empty")))
    if kind == "empty":
        return radix, radix, -1
    if kind == "whole":
        return radix, 0, radix - 1
    if kind == "single":
        lo = hi = draw(st.integers(0, radix - 1))
    elif kind == "border":
        lo, hi = sorted((draw(st.sampled_from((0, radix - 1))), draw(st.integers(0, radix - 1))))
    else:
        lo, hi = sorted((draw(st.integers(0, radix - 1)), draw(st.integers(0, radix - 1))))
    return radix, lo, hi


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(axis_sides())
def test_walk_limits_stop_exactly_when_the_box_is_out_of_reach(case):
    # Every distance, placement and count of moves left along one axis: a
    # walk stops when fewer moves are left than its limit, read with the
    # last endpoint and the step at the spot (placement plus distance), as
    # the sample loops read them, exactly when no coordinate it has still to
    # visit along the axis, the current one included, lies in [lo, hi]. The
    # first endpoint, the distance back from the last against the step, lies
    # on the axis.
    radix, lo, hi = case
    if lo > hi:
        assert in_mesh_box(MeshShape((radix,)), ())[1] == ((radix,), (hi,))
    limits = _limits(radix, lo, hi)
    ways, lasts, steps = _placements(radix, 1)
    assert len(ways) == radix and len(limits) == len(lasts) == len(steps) == 2 * radix
    for x, count in enumerate(ways):
        assert count == (2 * (radix - x) if x else radix)
        for p in range(count):
            last, step, limit = lasts[p + x], steps[p + x], limits[p + x]
            assert 0 <= last - x * step < radix
            for left in range(x + 1):
                ahead = range(last - left * step, last + step, step)
                stop = not any(lo <= y <= hi for y in ahead)
                assert (left < limit) == stop, (x, p, left)


@st.composite
def tally_cases(draw):
    """A mesh with n 1..5 and radices 2..6 (2..3 when n = 5, to stay small),
    so each walk loop of the sample loop, the generic one included, meets the
    reference loop; a fault set of scattered nodes or, in half the cases, a
    box, whose walks miss early on every axis, maybe with a corner and a
    full-width wall, an obstacle, a seed, and a sample range that starts on a
    block boundary and, in half the cases, crosses the next one."""
    n = draw(st.integers(1, 5))
    top = 3 if n == 5 else 6
    shape = MeshShape(tuple(draw(st.integers(2, top)) for _ in range(n)))
    nodes = list(shape.nodes())
    if draw(st.booleans()):
        ends = [(draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))) for r in shape.radices]
        faults = set(Box(*zip(*map(sorted, ends))).nodes())
    else:
        density = draw(st.sampled_from((0.0, 0.05, 0.2, 0.4)))
        rng = random.Random(draw(st.integers(0, 2**16)))
        faults = {v for v in nodes if rng.random() < density}
    if draw(st.booleans()):
        faults.add(tuple(draw(st.sampled_from((0, r - 1))) for r in shape.radices))
    if draw(st.booleans()):
        axis = draw(st.integers(0, n - 1))
        x = draw(st.integers(0, shape.radices[axis] - 1))
        faults |= {v for v in nodes if v[axis] == x}
    obstacle = draw(st.sampled_from(OBSTACLES))
    seed = draw(st.integers(0, 2**32))
    start = _BLOCK * draw(st.integers(0, 3))
    count = draw(st.one_of(st.integers(1, 64), st.integers(_BLOCK + 1, _BLOCK + 64)))
    return shape, faults, obstacle, seed, start, start + count


def _reference_tally(shape, table, faulty, avoid, seed, start, stop):
    """The sample loop written plainly: rng.randrange ranks mapped by _pair_at,
    redrawn while an endpoint is faulty, then _walk up to the first hit, or
    up to the first node whose box with the last endpoint misses B, the
    bounding box of the avoid nodes, all read from coordinates."""
    strides = shape.padded_strides()
    node_at = {padded_index(v, strides): v for v in shape.nodes()}
    inside = [node_at[f] for f in avoid if f in node_at]
    box = [(min(xs), max(xs)) for xs in zip(*inside)]

    def misses(u, v):
        return not inside or any(
            max(x, y) < lo or min(x, y) > hi for x, y, (lo, hi) in zip(u, v, box)
        )

    total = table[0][-1]
    hits = 0
    for lo in range(start, stop, _BLOCK):
        rng = random.Random(seed * _SEED_SPAN + lo // _BLOCK)
        for _ in range(min(_BLOCK, stop - lo)):
            first, last, moves, remaining, *_ = _pair_at(table, rng.randrange(total))
            while first in faulty or last in faulty:
                first, last, moves, remaining, *_ = _pair_at(table, rng.randrange(total))
            if first in avoid or last in avoid:
                hits += 1
                continue
            end = node_at[last]
            if misses(node_at[first], end):
                continue
            cur = first
            for i in _walk(rng, remaining):
                cur += moves[i]
                if misses(node_at[cur], end):
                    break
                if cur in avoid:
                    hits += 1
                    break
    return hits


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(tally_cases())
def test_sample_loop_matches_the_reference_loop(case):
    shape, faults, obstacle, seed, start, stop = case
    complex_ = build_complex(shape, ArbitraryFault(frozenset(faults)))
    faulty = padded_indices(shape, complex_.faults)
    table = _pair_table(shape)
    assume(shape.node_count - len(faulty) >= 2)
    try:
        _healthy_pairs(table, faulty, _PILOT_ACCEPTS)
    except ValueError:
        assume(False)
    avoid_nodes = _avoid_set(complex_, obstacle)
    avoid = padded_indices(shape, avoid_nodes)
    expected = _reference_tally(shape, table, faulty, avoid, seed, start, stop)
    _, box, _ = in_mesh_box(shape, avoid_nodes)
    assert _tally_range(table, faulty, avoid, box, seed, start, stop) == expected


@st.composite
def faulty_meshes(draw):
    """A mesh with n 1..4 and radices 2..5 and a fault set: scattered faults
    at some density, optionally with node 0, a corner and a full-width wall;
    or every node but one faulty; or every node faulty."""
    n = draw(st.integers(1, 4))
    shape = MeshShape(tuple(draw(st.integers(2, 5)) for _ in range(n)))
    nodes = list(shape.nodes())
    kind = draw(st.sampled_from(("scattered", "one-healthy", "all-faulty")))
    if kind == "one-healthy":
        return shape, set(nodes) - {draw(st.sampled_from(nodes))}
    if kind == "all-faulty":
        return shape, set(nodes)
    density = draw(st.sampled_from((0.0, 0.05, 0.2, 0.4)))
    rng = draw(st.randoms(use_true_random=False))
    faults = {v for v in nodes if rng.random() < density}
    if draw(st.booleans()):
        faults.add(nodes[0])
    if draw(st.booleans()):
        faults.add(tuple(draw(st.sampled_from((0, r - 1))) for r in shape.radices))
    if draw(st.booleans()):
        axis = draw(st.integers(0, n - 1))
        x = draw(st.integers(0, shape.radices[axis] - 1))
        faults |= {v for v in nodes if v[axis] == x}
    return shape, faults


def _connected_by_neighbour_search(shape, faults, healthy):
    seen = {healthy[0]}
    stack = [healthy[0]]
    while stack:
        for nb in neighbors(shape, stack.pop()):
            if nb not in faults and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(healthy)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(faulty_meshes())
def test_is_connected_matches_neighbour_search(case):
    shape, faults = case
    healthy = [v for v in shape.nodes() if v not in faults]
    # A coordinate just outside the mesh is ignored.
    outside = faults | {shape.radices}
    if not healthy:
        with pytest.raises(ValueError):
            is_connected(shape, outside)
        return
    assert is_connected(shape, outside) == _connected_by_neighbour_search(shape, faults, healthy)


@st.composite
def sparse_faulty_meshes(draw):
    """A mesh with n 1..4, radices 2..12 and at most 2000 nodes, with a few
    scattered faults and up to two full-width walls, each maybe with one hole,
    so that is_connected's collapse drops runs of fault-free hyperplanes; or
    every node but one faulty."""
    n = draw(st.integers(1, 4))
    shape = MeshShape(tuple(draw(st.integers(2, 12)) for _ in range(n)))
    assume(shape.node_count <= 2000)
    nodes = list(shape.nodes())
    if draw(st.integers(0, 9)) == 0:
        return shape, set(nodes) - {draw(st.sampled_from(nodes))}
    faults = set(draw(st.lists(st.sampled_from(nodes), max_size=6)))
    for _ in range(draw(st.integers(0, 2))):
        axis = draw(st.integers(0, n - 1))
        x = draw(st.integers(0, shape.radices[axis] - 1))
        wall = [v for v in nodes if v[axis] == x]
        if draw(st.booleans()):
            wall.remove(draw(st.sampled_from(wall)))
        faults.update(wall)
    return shape, faults


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(sparse_faulty_meshes())
def test_collapsed_search_matches_neighbour_search(case):
    shape, faults = case
    healthy = [v for v in shape.nodes() if v not in faults]
    assume(healthy)
    # Coordinates just outside the mesh, above and below, are ignored.
    outside = faults | {shape.radices, (-1,) * shape.n}
    assert is_connected(shape, outside) == _connected_by_neighbour_search(shape, faults, healthy)


def _chebyshev_shell(shape, faults):
    """The healthy nodes of the mesh with a fault among their 3^n - 1 nearest."""
    shell = set()
    for v in shape.nodes():
        near = (tuple(x + o for x, o in zip(v, off)) for off in product((-1, 0, 1), repeat=shape.n))
        if v not in faults and any(u in faults for u in near):
            shell.add(v)
    return shell


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(faulty_meshes())
def test_ring_is_the_healthy_chebyshev_shell(case):
    shape, faults = case
    assume(faults)
    shell = _chebyshev_shell(shape, faults)
    assert ring_of(shape, faults) == shell
    complex_ = build_complex(shape, ArbitraryFault(frozenset(faults)))
    assert complex_.faults == faults
    assert complex_.ring == shell
    assert complex_.blocked == faults | shell


@st.composite
def box_faults(draw):
    """A mesh with n 1..4 and radices 2..6, a block of it given as a rect spec
    or as the same nodes in an ArbitraryFault, and a node outside the mesh.
    The block lies anywhere, against the border, strictly inside the mesh
    wherever the radix allows, as one node, or as a full-width slab (full on
    every axis but one) strictly inside the mesh on that axis where its radix
    allows, or against its border."""
    n = draw(st.integers(1, 4))
    shape = MeshShape(tuple(draw(st.integers(2, 6)) for _ in range(n)))
    kind = draw(st.sampled_from(("any", "border", "inside", "single", "slab", "border-slab")))
    axis = draw(st.integers(0, n - 1))
    sides = []
    for i, r in enumerate(shape.radices):
        lo, hi = sorted((draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))))
        if kind == "single":
            hi = lo
        elif kind.endswith("slab") and i != axis:
            lo, hi = 0, r - 1
        elif kind in ("inside", "slab") and r > 2:
            lo, hi = sorted((draw(st.integers(1, r - 2)), draw(st.integers(1, r - 2))))
        elif kind.startswith("border") and i == axis:
            lo, hi = draw(st.sampled_from(((0, hi), (lo, r - 1))))
        sides.append((lo, hi))
    origin = tuple(lo for lo, _ in sides)
    extents = tuple(hi - lo + 1 for lo, hi in sides)
    block = frozenset(product(*(range(lo, hi + 1) for lo, hi in sides)))
    spec = draw(st.sampled_from((RectFault(origin, extents), ArbitraryFault(block))))
    outside = tuple(draw(st.integers(-1, r)) for r in shape.radices)
    assume(not shape.contains(outside))
    return shape, spec, block, outside


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(box_faults())
def test_box_branches_match_their_per_node_definitions(case):
    # The ring, border class and connectivity of a block are read from its
    # corners; each must equal its definition node by node. ring_of and
    # classify ignore a node outside the mesh, as is_connected does.
    shape, spec, block, outside = case
    shell = _chebyshev_shell(shape, block)
    assert ring_of(shape, block) == shell
    far = tuple(r + 2 for r in shape.radices)  # its shell lies wholly outside the mesh
    assert ring_of(shape, block | {far}) == shell

    def per_node(faults):
        border = any(shape.on_boundary(v) for v in faults)
        return Classification.CHAIN if border else Classification.RING

    assert classify(shape, block) == per_node(block)
    assert classify(shape, block | {outside}) == per_node(block)

    healthy = [v for v in shape.nodes() if v not in block]
    if healthy:
        assert is_connected(shape, block) == _connected_by_neighbour_search(shape, block, healthy)
    else:
        with pytest.raises(ValueError):
            is_connected(shape, block)

    expected = FaultComplex(block, frozenset(shell), block | shell, per_node(block))
    assert build_complex(shape, spec) == expected


@st.composite
def rects(draw, shape):
    origin = [draw(st.integers(0, r - 1)) for r in shape.radices]
    extents = [draw(st.integers(1, r - o)) for r, o in zip(shape.radices, origin)]
    return RectFault(tuple(origin), tuple(extents))


@st.composite
def scenario_configs(draw):
    shape, _ = draw(scenarios())
    nodes = st.sampled_from(list(shape.nodes()))
    fault = st.one_of(
        rects(shape),
        st.lists(rects(shape), min_size=1, max_size=3).map(lambda r: OverlapFault(tuple(r))),
        st.frozensets(nodes, min_size=1).map(ArbitraryFault),
    )
    analysis = AnalysisOptions(
        engine=draw(st.sampled_from(ENGINES)),
        cross_check=draw(st.none() | st.sampled_from(CROSS_CHECKS)),
        precision=draw(st.integers(0, 12)),
        obstacle=draw(st.sampled_from(OBSTACLES)),
        budget=draw(st.floats(min_value=1e-3, max_value=1e300, allow_infinity=False)),
    )
    mc = McConfig(
        samples=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(0, 2**70)),
        workers=draw(st.integers(1, 64)),
    )
    faults = tuple(draw(st.lists(fault, max_size=3)))
    return ScenarioConfig(shape=shape, faults=faults, analysis=analysis, mc=mc)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(scenario_configs())
def test_scenarios_round_trip(config):
    assert parse_scenario(serialize_scenario(config)) == config
