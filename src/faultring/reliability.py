"""Exact hit/miss probabilities for minimal routes against a fault ring.

For a mesh with fault region F, ring R, and blocked set FR = F + R:

* total_paths sums minimal-path counts over unordered pairs of distinct
  non-faulty nodes (geometry only, faults do not reroute anything here),
* miss_paths sums, over unordered pairs of distinct nodes outside FR, the
  number of minimal paths that avoid FR entirely,
* the miss probability is miss_paths / total_paths as an exact fraction,
  and the hit probability is its complement.

One all-pairs engine, "dp", computes both sums: a few dynamic-program
passes over the whole mesh, each counting the paths from every endpoint at
once (see _pair_sum). Where the fault region is a box, as in every single
rectangular fault, the denominator is closed-form instead: path weights
between boxes factor per axis (see _box_weight), so total_paths visits no
node. "det" evaluates the paper's path determinant per pair
and serves as the independent oracle for miss_paths. The "full" cross-check
reruns every pair on both per-pair engines and compares the sum; the
"sample" cross-check draws pairs by path weight through the pair map the
estimator samples with (paths._pair_table and paths._pair_at, whose tables
live beside the fold there), reruns its cheapest few pairs on both engines,
and tests p_miss = miss_paths / total_paths against their exact miss ratios.
Each fails loudly on any disagreement.

Every exact entry point runs through one plan (_plan): it resolves the
names, takes the avoid set, prices the run and refuses it over budget, and
only then draws a sampled run's pairs, which it prices and budgets in turn.
predicted_cost returns the plan's price and check_budget makes its refusal.
compute_reliability and miss_paths run the plan's engine, cross-check,
avoid set and pairs through one core (_miss_sum) that takes the
denominator: compute_reliability computes it once per run and reads it for
p_miss and for the sampled test alike, and miss_paths computes it only for
"sample", so both test the same p_miss.

The avoid set defaults to FR ("blocked"). Passing obstacle="faults" instead
counts paths that dodge the fault region F alone, with numerator pairs drawn
outside F; published reference tables use that quantity for interior rings.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Iterator, Literal

from faultring.faults import Classification, FaultComplex, build_complex
from faultring.mesh import Box, Coord, MeshShape, bounding_box, in_mesh_box, padded_indices
from faultring.paths import _axis_counts, _fold, _healthy_pairs, _pair_table, avoiding_det
from faultring.paths import avoiding_dp, path_count, restriction_points

Engine = Literal["det", "dp"]
EnginePolicy = Literal["auto", "det", "dp"]
CrossCheck = Literal["off", "sample", "full"]
Obstacle = Literal["blocked", "faults"]
ENGINES = ("det", "dp", "auto")
CROSS_CHECKS = ("off", "sample", "full")
OBSTACLES = ("blocked", "faults")

# The sampled cross-check (_check_sample): the pairs it draws, the determinants
# it evaluates, and the standard errors from their mean miss ratio at which the
# reported p_miss fails.
_SAMPLE_PAIRS = 400
_SAMPLE_DETS = 4
_SAMPLE_SIGMAS = 5.0
DEFAULT_BUDGET = 1e8


def _require_choice(kind: str, value: str, allowed: tuple[str, ...]) -> None:
    if value not in allowed:
        raise ValueError(f"unknown {kind} {value!r}; expected one of {', '.join(allowed)}")


def _resolved(engine: EnginePolicy, cross_check: CrossCheck | None) -> tuple[Engine, CrossCheck]:
    """The engine and cross-check a run makes, read here by every entry point:
    "auto" runs "dp" and None reads as "off". Any other name outside ENGINES
    or CROSS_CHECKS, an empty string or False included, raises ValueError."""
    _require_choice("engine", engine, ENGINES)
    cross_check = "off" if cross_check is None else cross_check
    _require_choice("cross_check", cross_check, CROSS_CHECKS)
    return "det" if engine == "det" else "dp", cross_check


def _avoid_set(complex_: FaultComplex, obstacle: Obstacle) -> frozenset[Coord]:
    _require_choice("obstacle", obstacle, OBSTACLES)
    return complex_.blocked if obstacle == "blocked" else complex_.faults


class EngineMismatch(RuntimeError):
    """Two exact engines disagreed on a pair; something is deeply wrong.

    Its aggregate subclasses blame no one pair and keep the class defaults None.
    """

    pair = det_value = dp_value = None

    def __init__(self, pair: tuple[Coord, Coord], det_value: int, dp_value: int):
        self.pair = pair
        self.det_value = det_value
        self.dp_value = dp_value
        super().__init__(
            f"engines disagree on pair {pair[0]!r}->{pair[1]!r}: "
            f"determinant {det_value} vs dp {dp_value}"
        )


class AggregateMismatch(EngineMismatch):
    """The all-pairs sum disagreed with the per-pair recount of every pair.

    No one pair is at fault, so pair, det_value and dp_value are None.
    """

    def __init__(self, aggregate: int, recount: int):
        self.aggregate = aggregate
        self.recount = recount
        RuntimeError.__init__(
            self, f"aggregate disagrees with per-pair recount: {aggregate} vs {recount}"
        )


class SampleMismatch(EngineMismatch):
    """The reported p_miss lies too many standard errors from the sampled
    pairs' mean exact miss ratio (see _check_sample).

    No one pair is at fault, so pair, det_value and dp_value are None.
    """

    def __init__(self, p_miss: float, mean: float, sigma: float):
        self.p_miss, self.mean, self.sigma = p_miss, mean, sigma
        RuntimeError.__init__(self, f"p_miss {p_miss:.6g} lies {abs(p_miss - mean) / sigma:.1f} "
                              f"standard errors from the sampled pairs' mean miss ratio {mean:.6g}")


def _recount(a: Coord, b: Coord, avoid: frozenset[Coord], points: tuple[Coord, ...]) -> int:
    """avoid(a, b) by avoiding_dp, once avoiding_det on the pair's restriction
    points agrees; a disagreement raises EngineMismatch naming the pair. The
    dp takes the whole avoid set, not the points, so that a wrong set of
    restriction points shows here as a disagreement."""
    det_value, dp_value = avoiding_det(a, b, points), avoiding_dp(a, b, avoid)
    if det_value != dp_value:
        raise EngineMismatch((a, b), det_value, dp_value)
    return dp_value


def _free_pairs(shape: MeshShape, avoid: frozenset[Coord]) -> Iterator[tuple]:
    """The numerator's pairs for the per-pair engines: (a, b, points) for each
    unordered pair of distinct nodes outside avoid, each node with every later
    one in row-major order, points its restriction points (the layout of
    _drawn_pairs). Both per-pair modes of _miss_sum read them from here."""
    nodes = (v for v in shape.nodes() if v not in avoid)
    return ((a, b, restriction_points(a, b, avoid)) for a, b in combinations(nodes, 2))


def _drawn_pairs(shape: MeshShape, complex_: FaultComplex, avoid: frozenset[Coord]) -> list:
    """The sampled cross-check's pairs: _SAMPLE_PAIRS ordered pairs of distinct
    healthy nodes, drawn by path weight from a fixed seed as the estimator
    draws them (paths._healthy_pairs), and merged into unordered pairs.
    _plan draws them once per sampled run, after the run's price without them
    is within budget, and hands them to the run it prices.

    Returns (a, b, draws, points) per pair, points its restriction points, or
    None when an endpoint is in avoid, fewest points first, then in the order
    first drawn. Raises the estimator's ValueError when the healthy pairs hold
    too little of the path weight for the draw.
    """
    strides, radices = shape.padded_strides(), shape.radices
    faulty = padded_indices(shape, complex_.faults)
    draws = Counter(tuple(sorted(ends)) for ends in _healthy_pairs(
        _pair_table(shape), faulty, _SAMPLE_PAIRS))
    pairs = []
    for ends, count in draws.items():
        a, b = (tuple(p // s % (r + 2) - 1 for s, r in zip(strides, radices)) for p in ends)
        points = None if a in avoid or b in avoid else restriction_points(a, b, avoid)
        pairs.append((a, b, count, points))
    return sorted(pairs, key=lambda pair: len(pair[3] or ()))


def _recounted(pairs: list) -> list:
    """The drawn pairs that take a determinant: the first _SAMPLE_DETS of
    _drawn_pairs with a restriction point, so those with the fewest."""
    return [pair for pair in pairs if pair[3]][:_SAMPLE_DETS]


def _check_sample(pairs: list, avoid: frozenset[Coord], p_miss: Fraction) -> None:
    """The sampled cross-check of the reported p_miss, on the pairs _plan drew
    (_drawn_pairs) and priced.

    Each pair's exact miss ratio is avoid(a, b) / P(a, b): 0 when an endpoint
    is in the avoid set, 1 when no restriction point lies in its box, and
    otherwise avoid(a, b) from avoiding_dp. The pairs of _recounted are
    recounted by avoiding_det as well, and a disagreement raises
    EngineMismatch.

    Pairs drawn with weight P(a, b) make the mean ratio of the draws an
    unbiased estimate of p_miss = miss_paths / total_paths. The check raises
    SampleMismatch when p_miss lies more than _SAMPLE_SIGMAS standard errors
    from that mean. The standard error is the standard deviation of the
    ratios with four 0s and four 1s appended, over the square root of the
    draws: appended extremes keep equal ratios, as at p_miss = 0.99, from
    reading as no spread, and cover a rare ratio the draws missed. With 400 draws and 5 standard errors:
    - no correct run failed on 10 000 derandomized scenarios (n 1 to 4,
      radices 2 to 12 on at most 400 nodes, one rect fault or faults
      scattered at a density of 0.02 to 0.3, both obstacles), the largest
      distance being 4.2; where the ratio takes one value on all pairs but
      a rare share, whose ratio the draws may miss, the rate, computed
      exactly over such two-value cases, is at most 7e-5;
    - a _pair_sum that skips the passes of orientation (1, -1) fails at 6.8
      and 22.7 standard errors on the README's 5x5 scenario, under blocked
      and faults; one that skips (1, -1, 1) on 8^3 with a 2^3 block fails
      at 25 under faults, but passes at 4.5 under blocked, where p_miss
      moves by 0.022 against a ratio spread of 0.08.
    """
    from statistics import fmean, stdev  # imported here: only a sampled check needs it

    recounted = _recounted(pairs)
    ratios = []
    for a, b, draws, points in pairs:
        if (a, b, draws, points) in recounted:
            value = _recount(a, b, avoid, points)
        else:
            value = 0 if points is None else avoiding_dp(a, b, avoid) if points else path_count(a, b)
        ratios += [value / path_count(a, b)] * draws
    mean, sigma = fmean(ratios), stdev(ratios + [0.0, 1.0] * 4) / math.sqrt(len(ratios))
    if abs(p_miss - mean) > _SAMPLE_SIGMAS * sigma:
        raise SampleMismatch(float(p_miss), mean, sigma)


def _plan(
    shape: MeshShape, complex_: FaultComplex | None = None, engine: EnginePolicy = "dp",
    cross_check: CrossCheck | None = "off", obstacle: Obstacle = "blocked",
    budget: float = math.inf,
) -> tuple[Engine, CrossCheck, frozenset[Coord], list | None, float]:
    """The exact run that engine, cross_check and obstacle describe, resolved,
    priced and held to budget in one place: (engine, cross_check, avoid,
    pairs, price). Every exact entry point runs through it, so that the run
    priced is the run made.

    The names are resolved by _resolved, and complex_ None is the fault-free
    complex. A budget that is not a positive number (NaN included) raises
    ValueError. So does a price over budget, and pairs are drawn only once the
    price without them is within it: pairs is _drawn_pairs' list under
    cross_check "sample", and None otherwise.

    The price is cells for the dp passes, plus (m + 1)^3 for each determinant
    the run evaluates, m that pair's restriction points. The dp passes relax
    3^n * n * N cells: each sum makes (3^n - 1) / 2 passes over the N nodes,
    and a pass relaxes at most n predecessors per node. They are charged
    whenever engine is "dp", also where total_paths is closed-form or the
    obstacle is empty. Under engine "det" or cross_check "full" every free
    pair takes a determinant, with m the expected number of obstacle nodes
    inside a random pair's bounding box, counting only the obstacle nodes
    inside the mesh (mesh.padded_indices); the per-pair dp of "full" is left
    out, each far below its determinant. So is the denominator's dp, which
    det runs only for faults that do not fill a box. The drawn pairs are
    priced exactly: n cells per node of each pair's box for the pairs that
    run a per-pair dp, and the determinants of those that take one.
    """
    engine, cross_check = _resolved(engine, cross_check)
    complex_ = complex_ or build_complex(shape, None)
    avoid = _avoid_set(complex_, obstacle)
    if not budget > 0:
        raise ValueError(f"budget must be a positive number, got {budget!r}")
    price = 3**shape.n * shape.n * shape.node_count if engine == "dp" else 0
    if engine == "det" or cross_check == "full":
        inside = len(padded_indices(shape, avoid))
        free = shape.node_count - inside
        # The share of the mesh in a random pair's box: mean |x - y| + 1 over r, per axis.
        box_fraction = math.prod(((r * r - 1) / (3 * r) + 1) / r for r in shape.radices)
        price += free * (free - 1) / 2 * (inside * box_fraction + 1) ** 3
    pairs = None
    if cross_check == "sample" and price <= budget:
        pairs = _drawn_pairs(shape, complex_, avoid)
        dp_cells = shape.n * sum(bounding_box(a, b).volume for a, b, _, points in pairs if points)
        price += dp_cells + sum((len(points) + 1) ** 3 for *_, points in _recounted(pairs))
    if price > budget:
        raise ValueError(f"predicted cost {price:.3g} exceeds budget {budget:.3g}")
    return engine, cross_check, avoid, pairs, price


def predicted_cost(
    shape: MeshShape, complex_: FaultComplex | None = None, engine: EnginePolicy = "dp",
    cross_check: CrossCheck | None = "off", obstacle: Obstacle = "blocked",
) -> float:
    """The price of the exact run compute_reliability makes with this engine,
    cross_check and obstacle (see _plan): cells for the dp passes, plus
    (m + 1)^3 for each determinant the run evaluates, m that pair's
    restriction points. Every `budget` is a ceiling on this price, and
    nothing else computes a cost. The names are resolved as
    compute_reliability resolves them (_resolved), and complex_ None prices
    the fault-free run. Under cross_check "sample" the price includes the
    drawn pairs, so this call draws them."""
    return _plan(shape, complex_, engine, cross_check, obstacle)[-1]


def check_budget(shape: MeshShape, budget: float, *run) -> None:
    """Raise ValueError unless budget is a positive number (NaN is refused, not
    read as no ceiling) and at least predicted_cost(shape, *run), the price of
    the run that run's complex, engine, cross_check and obstacle describe. A
    sampled cross-check is priced without its pairs first, and a run over
    budget at that price draws none, so no pair table is built for it."""
    _plan(shape, *run, budget=budget)


def _pair_sum(
    shape: MeshShape, excluded: Iterable[Coord], forbidden: Iterable[Coord]
) -> int:
    """Sum of minimal paths avoiding `forbidden` over unordered pairs of distinct endpoints.

    The endpoints are every node outside `excluded`, which must contain
    `forbidden`; coordinates outside the mesh are ignored. One pass per
    direction vector d in {+1, -1, 0}^n computes, at every node v,

        G(v) = [v not forbidden] * ([v is an endpoint] + sum_{i: d_i != 0} G(v - d_i e_i)),

    the avoiding paths into v from every endpoint that d orients toward v,
    with the axes where d_i = 0 frozen. Summed at the endpoints minus their
    own count, a pass counts the ordered pairs of distinct endpoints that d
    orients. An axis on which a pair agrees is counted up, down and frozen,
    so weighting a pass by (-1)^(frozen axes) counts every ordered pair
    exactly once. Reversing a path maps the pass for d onto the pass for -d,
    so the passes whose first non-zero entry is +1 count each unordered pair
    exactly once.

    G lives on the padded layout of MeshShape.padded_strides, whose zero
    border stands in for missing predecessors. Nodes are flat indices
    throughout: each visiting order is built by adding the padded offsets of
    one axis at a time, walked downward on the axes that d orients -1.
    `excluded` and `forbidden` are numbered once each, and once in all when
    they are the same object, as for the numerator.

    Every pass writes one array g, allocated once per call and zeroed, in its
    visiting order, from the padded offsets of its k = |{i: d_i != 0}|
    predecessors: g[p] = e[p] + g[p - a] + g[p - b] for k = 2, where e[p] is
    1 at an endpoint and 0 elsewhere. No pass needs a fresh copy of e: the
    border and the forbidden nodes are in no visiting order, so their cells
    stay 0; every pass visits the same nodes; and each predecessor comes
    earlier in the order, so a pass has overwritten every cell it reads. k =
    1 to 4 each have a loop written out; larger k, which only n >= 5
    reaches, loops over the offsets.
    """
    radices = shape.radices
    n = shape.n
    strides = shape.padded_strides()

    def visiting_order(orientation: tuple[int, ...]) -> list[int]:
        order = [0]
        for r, s, o in zip(radices, strides, orientation):
            xs = range(s, (r + 1) * s, s) if o == 1 else range(r * s, 0, -s)
            order = [p + x for p in order for x in xs]
        return order

    skip = padded_indices(shape, excluded)
    if shape.node_count - len(skip) < 2:
        return 0  # every pass would count its endpoints less their own count, 0
    blocked = skip if forbidden is excluded else padded_indices(shape, forbidden)
    ends = [p for p in visiting_order((1,) * n) if p not in skip]
    e = [0] * (strides[0] * (radices[0] + 2))
    for p in ends:
        e[p] = 1

    # Passes sharing the orientation of every axis share one visiting order.
    by_orientation: dict[tuple[int, ...], list[tuple[int, list[int]]]] = {}
    for d in product((1, -1, 0), repeat=n):
        if next((x for x in d if x), -1) != 1:
            continue
        sign = -1 if d.count(0) % 2 else 1
        steps = [x * s for x, s in zip(d, strides) if x]
        by_orientation.setdefault(tuple(x or 1 for x in d), []).append((sign, steps))

    total = 0
    g = [0] * len(e)
    for orientation, passes in by_orientation.items():
        order = visiting_order(orientation)
        if blocked:
            order = [p for p in order if p not in blocked]
        for sign, steps in passes:
            if len(steps) == 1:
                (a,) = steps
                for p in order:
                    g[p] = e[p] + g[p - a]
            elif len(steps) == 2:
                a, b = steps
                for p in order:
                    g[p] = e[p] + g[p - a] + g[p - b]
            elif len(steps) == 3:
                a, b, c = steps
                for p in order:
                    g[p] = e[p] + g[p - a] + g[p - b] + g[p - c]
            elif len(steps) == 4:
                a, b, c, d = steps
                for p in order:
                    g[p] = e[p] + g[p - a] + g[p - b] + g[p - c] + g[p - d]
            else:
                for p in order:
                    acc = e[p]
                    for step in steps:
                        acc += g[p - step]
                    g[p] = acc
            total += sign * (sum(map(g.__getitem__, ends)) - len(ends))
    return total


def _box_weight(x: Box, y: Box) -> int:
    """W(x, y): the minimal paths of every ordered pair (a, b) in x * y, that is
    the sum of multinomial(|a - b|), folded one axis at a time by paths._fold
    from each axis's counts of coordinate pairs by distance."""
    return sum(_fold(map(_axis_counts, x.lo, x.hi, y.lo, y.hi))[-1])


def total_paths(shape: MeshShape, fault_nodes: Iterable[Coord] = ()) -> int:
    """Sum of minimal-path counts over unordered pairs of distinct non-faulty nodes.

    Geometry only: paths may run through faulty nodes. Fault coordinates
    outside the mesh are ignored. Box branch: when the faults F fill their
    bounding box (mesh.in_mesh_box; or there are none), with M the mesh, N
    its size and W as in _box_weight, the sum is closed-form:

        (W(M, M) - 2 W(F, M) + W(F, F) - (N - |F|)) / 2,

    the ordered pairs of healthy nodes, less the pairs of a node with itself,
    halved; with no faults the two F terms drop out. Any other fault set
    takes _pair_sum's passes over the mesh.
    """
    faults, corners, fills = in_mesh_box(shape, fault_nodes)
    healthy = shape.node_count - len(faults)
    if healthy < 2:
        raise ValueError("need at least two non-faulty nodes")
    if not fills:
        return _pair_sum(shape, faults, ())
    mesh = Box((0,) * shape.n, tuple(r - 1 for r in shape.radices))
    weight = _box_weight(mesh, mesh)
    if faults:
        box = Box(*corners)
        weight += _box_weight(box, box) - 2 * _box_weight(box, mesh)
    return (weight - healthy) // 2


def miss_paths(
    shape: MeshShape, complex_: FaultComplex, engine: EnginePolicy = "dp",
    cross_check: CrossCheck | None = "off", obstacle: Obstacle = "blocked",
) -> int:
    """Sum of obstacle-avoiding path counts over unordered pairs outside the obstacle.

    The obstacle is FR by default, or F alone with obstacle="faults". The
    engine and cross_check names are resolved as compute_reliability
    resolves them (_resolved): "auto" runs "dp" and None reads as "off". With
    cross_check "full" every pair is recomputed on both engines; any
    disagreement raises EngineMismatch naming the offending pair, and a
    result other than the recount's sum raises its subclass
    AggregateMismatch. Under det, "full" returns the recount: each
    determinant is evaluated once. With "sample", and only then, this call
    draws the pairs through _plan, as compute_reliability does, and computes
    total_paths(shape, complex_.faults); _check_sample recounts the cheapest
    few drawn pairs on both engines and tests p_miss = result / total_paths,
    raising SampleMismatch, the same test compute_reliability runs on its own
    denominator. No budget applies here. With an empty obstacle (no faults), dp
    returns total_paths(shape), the closed form its passes would sum to,
    computed here once (compute_reliability hands over its own); det and
    "full" still visit their pairs.
    """
    engine, cross_check, avoid, drawn, _ = _plan(shape, complex_, engine, cross_check, obstacle)
    denominator = total_paths(shape, complex_.faults) if cross_check == "sample" else None
    return _miss_sum(shape, avoid, engine, cross_check, drawn, denominator)


def _miss_sum(
    shape: MeshShape, avoid: frozenset[Coord], engine: Engine, cross_check: CrossCheck,
    drawn: list | None, denominator: int | None,
) -> int:
    """miss_paths on a plan's names, avoid set and drawn pairs (_plan), the one
    exact run's core. denominator is total_paths(shape, faults) or None: under
    "sample" it is the p_miss test's divisor, and with dp and an empty
    avoid set it is the result, computed here only when None.

    A run walks the free pairs (_free_pairs) at most once: under "full" every
    pair is recounted by _recount, whose sum is det's result and is compared
    with dp's, and det without "full" sums the determinants alone."""
    if cross_check == "full":
        checked = sum(_recount(a, b, avoid, points) for a, b, points in _free_pairs(shape, avoid))
    if engine == "det":
        result = checked if cross_check == "full" else sum(
            avoiding_det(a, b, points) for a, b, points in _free_pairs(shape, avoid))
    else:
        # With no faults every path misses, and the denominator (never 0) counts them all.
        result = _pair_sum(shape, avoid, avoid) if avoid else denominator or total_paths(shape)
        if cross_check == "full" and checked != result:
            raise AggregateMismatch(result, checked)
    if cross_check == "sample":
        _check_sample(drawn, avoid, Fraction(result, denominator))
    return result


@dataclass(frozen=True)
class EngineChoice:
    """select_engine's answer: the numerator engine, the cross-check with
    None resolved to "off", and the det engine's predicted cost."""

    engine: Engine
    cross_check: CrossCheck
    predicted_det_cost: float


def select_engine(
    shape: MeshShape, complex_: FaultComplex, policy: EnginePolicy = "auto",
    cross_check: CrossCheck | None = None, obstacle: Obstacle = "blocked",
) -> EngineChoice:
    """The engine and cross-check compute_reliability runs for this policy and
    cross_check, resolved by the same rule (_resolved): "det" on request,
    "dp" otherwise, and None read as "off".

    predicted_det_cost is predicted_cost's price for the det engine alone:
    one determinant per free pair, whichever engine is picked. No run reads
    this record; it reports the choice.
    """
    engine, cross_check = _resolved(policy, cross_check)
    return EngineChoice(engine, cross_check, predicted_cost(shape, complex_, "det", "off", obstacle))


@dataclass(frozen=True)
class ReliabilityResult:
    """Exact analysis outcome for one scenario.

    Pair convention: unordered pairs of distinct nodes, numerator pairs drawn
    outside the avoid set, denominator pairs outside F. With the default
    avoid set FR, p_hit + p_miss == 1 exactly.
    """

    total_paths: int
    miss_paths: int
    p_miss: Fraction
    p_hit: Fraction
    engine: str
    classification: Classification | None
    pair_convention: str = "unordered-distinct"
    obstacle: str = "blocked"


def compute_reliability(
    shape: MeshShape,
    complex_: FaultComplex,
    engine: EnginePolicy = "auto",
    cross_check: CrossCheck | None = None,
    workers: int = 1,
    budget: float = DEFAULT_BUDGET,
    obstacle: Obstacle = "blocked",
) -> ReliabilityResult:
    """Exact probability that a random minimal route confronts the fault ring.

    A route "hits" when it visits any node of the avoid set (endpoints
    included); it "misses" when it dodges that set entirely. Routes are
    weighted uniformly over all minimal paths between unordered pairs of
    distinct non-faulty nodes. A fault-free complex takes the same path: the
    requested engine and cross-check run, and every route misses.

    One call of _plan resolves the engine and cross-check, by the rule
    select_engine reports (_resolved): "auto" runs "dp" and None reads as
    "off". An unknown engine, cross_check or obstacle name, or a scenario
    whose predicted_cost exceeds budget, raises ValueError before any work.
    The price is that of the run the resolved engine and cross-check make:
    cells for the dp passes and the sampled pairs' dp, plus (m + 1)^3 for
    each determinant it evaluates; a sampled run over budget without its
    pairs draws none, and the pairs drawn are those the run checks.
    total_paths then runs once, and its value is both p_miss's
    denominator and, under cross_check "sample", the divisor of the p_miss
    tested against the sampled pairs' exact miss ratios (_check_sample); a
    failure raises SampleMismatch. workers is accepted and ignored: the
    exact engine runs in one process, and only the Monte-Carlo estimator
    uses workers.
    """
    engine, cross_check, avoid, drawn, _ = _plan(shape, complex_, engine, cross_check, obstacle, budget)
    denominator = total_paths(shape, complex_.faults)
    missing = _miss_sum(shape, avoid, engine, cross_check, drawn, denominator)
    p_miss = Fraction(missing, denominator)
    if not 0 <= p_miss <= 1:
        raise AssertionError(f"miss probability {p_miss} outside [0, 1]")
    return ReliabilityResult(
        total_paths=denominator,
        miss_paths=missing,
        p_miss=p_miss,
        p_hit=1 - p_miss,
        engine=engine,
        classification=complex_.classification,
        obstacle=obstacle,
    )


def check_precision(places: int) -> int:
    """places, if format_probability renders that many decimal places of a
    probability: at least 0 and, where the interpreter limits the digits of
    an int converted to text (sys.get_int_max_str_digits), below that limit,
    so that 10^places fits. Otherwise ValueError naming places."""
    if places < 0:
        raise ValueError("places must be >= 0")
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if 0 < limit <= places:
        raise ValueError(f"precision {places} exceeds {limit - 1}, the most places this "
                         f"interpreter renders (sys.get_int_max_str_digits() is {limit})")
    return places


def format_probability(value: Fraction, places: int = 3) -> str:
    """Render an exact fraction as a decimal string, round half to even.
    places beyond check_precision's bound raise ValueError before any work."""
    check_precision(places)
    text = str(round(abs(value) * 10**places))  # Fraction rounds half to even, exactly
    if places:
        text = text.rjust(places + 1, "0")
        text = f"{text[:-places]}.{text[-places:]}"
    return f"-{text}" if value < 0 else text
