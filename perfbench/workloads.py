"""Operations, pinned expectations and timed passes of the faultring benchmark.

Three workloads call the package's public functions from outside it:

* table2: published reference rows under an avoid-set convention, through
  compute_reliability(engine="auto"), as `faultring table2` does;
* ladder: three fixed meshes under both conventions, each operation taking
  the `faultring analyze` path (JSON text, parse, build, validate, analyse)
  with the dp engine;
* mc: several seeded estimate_p_hit runs on reference rows 5 and 6 under the
  bare-fault convention.

Every operation is checked against the exact values pinned in pins.json.
A Trace records spans around the calls into each layer; with tracing on, each
compute_reliability call is replaced by its public steps (select_engine,
total_paths, miss_paths) so that each step gets its own span.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import faultring  # noqa: E402
from faultring import (  # noqa: E402
    REFERENCE_ROWS,
    McConfig,
    build_complex,
    compute_reliability,
    estimate_p_hit,
    miss_paths,
    parse_scenario,
    reference_row,
    select_engine,
    total_paths,
    validate_complex,
)

# The benchmark must measure the package of the tree it sits in, never an
# installed copy.
if not Path(faultring.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"faultring imported from {faultring.__file__}, not from {SRC}")

PINS_PATH = Path(__file__).with_name("pins.json")
OBSTACLES = ("blocked", "faults")
SIGMA_LIMIT = 4.0  # the rule compare_with_exact applies


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration: the real one or the self-test one."""

    table2_ops: tuple[tuple[int, str], ...]  # (reference row, obstacle)
    ladder: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...]
    mc_rows: tuple[int, ...]
    mc_estimates_per_row: int
    mc_samples: int
    cli_budget: str  # the --budget of the timed `faultring table2` call


PUBLISHED_OPS = tuple((r.row, ob) for r in REFERENCE_ROWS for ob in OBSTACLES)

# A run divides each operation's time by the speed of the CPU measured just
# before and after it, which removes the slowdowns other tenants of a shared
# host cause only while the speed holds for the length of the operation, and
# takes each operation's median over many repetitions. So the timed
# operations take at most 0.7 s each at the first benchmarked commit: 11 of
# the 22 published ones, and ladder meshes of a few hundred nodes. All 22
# published operations are pinned, so the others can join once the engines
# are faster.
FULL = Scale(
    table2_ops=(
        (1, "blocked"), (1, "faults"), (2, "blocked"), (3, "blocked"), (3, "faults"),
        (4, "blocked"), (4, "faults"), (7, "blocked"), (7, "faults"), (9, "blocked"),
        (9, "faults"),
    ),
    ladder=(
        ((20, 20), (6, 6), (4, 4)),
        ((7, 7, 7), (2, 2, 2), (2, 2, 2)),
        ((5, 5, 4, 4), (1, 1, 1, 1), (2, 2, 2, 2)),
    ),
    mc_rows=(5, 6),
    mc_estimates_per_row=3,
    mc_samples=5_000,
    cli_budget="low",
)

TINY = Scale(
    table2_ops=tuple((r, ob) for r in (1, 4, 7) for ob in OBSTACLES),
    ladder=(((6, 6), (2, 2), (2, 2)), ((4, 4, 4), (1, 1, 1), (1, 1, 1))),
    mc_rows=(4,),
    mc_estimates_per_row=2,
    mc_samples=300,
    cli_budget="5e4",  # rows 1, 4 and 7
)

SCALES = {"full": FULL, "tiny": TINY}
WORKLOADS = ("table2", "ladder", "mc")


@dataclass(frozen=True)
class Op:
    """One checked operation. `key` names its pin; mc operations share a pin per row."""

    id: str
    key: str
    row: int = 0
    obstacle: str = "blocked"
    text: str = ""
    seed: int = 0
    samples: int = 0


@dataclass
class Workload:
    name: str
    scale: Scale
    ops: list[Op]
    pins: dict[str, Fraction]


def mesh_label(radices) -> str:
    return "x".join(map(str, radices))


def scenario_text(radices, origin, extents, obstacle: str) -> str:
    """A ladder scenario. It names the dp engine, which auto would not pick on
    every mesh this small."""
    return json.dumps(
        {
            "mesh": list(radices),
            "faults": [{"type": "rect", "origin": list(origin), "extents": list(extents)}],
            "analysis": {"engine": "dp", "obstacle": obstacle},
        }
    )


def build_ops(name: str, seed: int, scale: Scale) -> list[Op]:
    """The workload's operations, generated from the seed.

    The seed orders the exact operations and derives the estimator seeds, so
    the same seed always gives the same inputs.
    """
    rng = random.Random(seed)
    if name == "table2":
        ops = [
            Op(f"row{r}/{ob}", f"row{r}/{ob}", row=r, obstacle=ob)
            for r, ob in scale.table2_ops
        ]
    elif name == "ladder":
        ops = [
            Op(
                f"{mesh_label(radices)}/{ob}",
                f"{mesh_label(radices)}/{ob}",
                obstacle=ob,
                text=scenario_text(radices, origin, extents, ob),
            )
            for radices, origin, extents in scale.ladder
            for ob in OBSTACLES
        ]
    elif name == "mc":
        # Estimates stay grouped by row, so each row is built once per pass.
        ops = []
        for r in scale.mc_rows:
            for k in range(scale.mc_estimates_per_row):
                mc_seed = rng.randrange(2**31)
                ops.append(
                    Op(f"row{r}/faults/{k}", f"row{r}/faults", row=r, obstacle="faults",
                       seed=mc_seed, samples=scale.mc_samples)
                )
        return ops
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return ops


def load_pins(section: str) -> dict[str, Fraction]:
    with open(PINS_PATH, encoding="utf-8") as handle:
        raw = json.load(handle)[section]
    return {key: Fraction(value) for key, value in raw.items()}


def pins_section(name: str, scale_name: str) -> str:
    return name if scale_name == "full" else f"{scale_name}.{name}"


def prepare(name: str, seed: int, scale_name: str = "full") -> Workload:
    """Build the workload inputs and load their pins: the timed set-up."""
    scale = SCALES[scale_name]
    ops = build_ops(name, seed, scale)
    pins = load_pins(pins_section(name, scale_name))
    missing = sorted({op.key for op in ops} - pins.keys())
    if missing:
        raise KeyError(f"no pinned value for {', '.join(missing)}")
    return Workload(name, scale, ops, pins)


class Trace:
    """Spans kept in memory: name, start, end, parent span index and operation id.

    A span without an operation id inherits its parent's, so every span of
    one operation shares the id.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        record = {"name": name, "op": op, "parent": parent, "start": time.perf_counter(), "end": None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


class NoTrace:
    enabled = False

    def span(self, name: str, op: str | None = None):
        return nullcontext()


NO_TRACE = NoTrace()


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer: span durations minus the time their children cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    layers: dict[str, float] = {}
    for s, covered in zip(spans, child_time):
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + (s["end"] - s["start"]) - covered
    return layers


@dataclass
class Outcome:
    """What one operation produced, with the engine choice of exact operations."""

    op: Op
    seconds: float = 0.0
    kernel_s: float = 0.0  # the calibration kernel's time around the operation
    p_hit: Fraction | None = None
    estimate: object = None
    engine: dict | None = None
    error: str = ""

    @property
    def reference_seconds(self) -> float:
        """The operation's time at the reference speed (see calibration.py)."""
        return calibration.reference_seconds(self.seconds, self.kernel_s)


def engine_record(shape, complex_, obstacle, choice) -> dict:
    avoid = complex_.blocked if obstacle == "blocked" else complex_.faults
    free = shape.node_count - len(avoid)
    return {
        "engine": choice.engine,
        "cross_check": choice.cross_check,
        # The det cost model may go once auto no longer weighs the det engine.
        "predicted_det_cost": getattr(choice, "predicted_det_cost", None),
        "numerator_pairs": free * (free - 1) // 2,
    }


# Engine options are passed by keyword and workers, budget and the like are
# left at their defaults (one worker), so the calls stay valid while the
# engine choice is simplified.
def _exact(shape, complex_, obstacle, trace, engine="auto", cross_check=None):
    """Exact p_hit, and a callable giving the engine record once the pass is timed.

    Traced runs replace compute_reliability with its public steps.
    """
    options = {"cross_check": cross_check, "obstacle": obstacle}
    if not trace.enabled:
        result = compute_reliability(shape, complex_, engine=engine, **options)
        return result.p_hit, lambda: engine_record(
            shape, complex_, obstacle, select_engine(shape, complex_, engine, **options)
        )
    with trace.span("reliability.select_engine"):
        choice = select_engine(shape, complex_, engine, **options)
    with trace.span("reliability.total_paths"):
        denominator = total_paths(shape, complex_.faults)
    with trace.span(f"reliability.miss_paths_{choice.engine}"):
        missing = miss_paths(
            shape, complex_, engine=choice.engine, cross_check=choice.cross_check,
            obstacle=obstacle,
        )
    return 1 - Fraction(missing, denominator), lambda: engine_record(
        shape, complex_, obstacle, choice
    )


def _run_table2(op: Op, trace):
    with trace.span("reference.build"):
        shape, complex_ = reference_row(op.row).build()
    return _exact(shape, complex_, op.obstacle, trace)


def _run_ladder(op: Op, trace):
    with trace.span("scenarios.parse"):
        config = parse_scenario(op.text)
    with trace.span("faults.build_complex"):
        spec = config.combined_fault()
        complex_ = build_complex(config.shape, spec)
    with trace.span("faults.validate"):
        report = validate_complex(config.shape, complex_, spec)
    if not report.ok:
        raise ValueError(f"scenario fails validation: {[f.code for f in report.violations]}")
    opts = config.analysis
    return _exact(config.shape, complex_, opts.obstacle, trace, opts.engine, opts.cross_check)


def run_pass(workload: Workload, trace=NO_TRACE) -> list[Outcome]:
    """Run every operation once; an exception becomes a failed outcome."""
    outcomes = []
    describe = {}
    built: dict[int, tuple] = {}
    for op in workload.ops:
        outcome = Outcome(op)
        kernel_before = calibration.kernel_seconds()
        start = time.perf_counter()
        try:
            with trace.span(f"bench.{workload.name}", op=op.id):
                if workload.name == "mc":
                    if op.row not in built:
                        with trace.span("reference.build"):
                            built[op.row] = reference_row(op.row).build()
                    shape, complex_ = built[op.row]
                    config = McConfig(samples=op.samples, seed=op.seed, workers=1)
                    with trace.span("montecarlo.estimate"):
                        outcome.estimate = estimate_p_hit(
                            shape, complex_, config, obstacle=op.obstacle
                        )
                else:
                    runner = _run_table2 if workload.name == "table2" else _run_ladder
                    outcome.p_hit, describe[op.id] = runner(op, trace)
        except Exception as exc:  # a failed operation is counted, not fatal
            outcome.error = f"{type(exc).__name__}: {exc}"
        outcome.seconds = time.perf_counter() - start
        outcome.kernel_s = (kernel_before + calibration.kernel_seconds()) / 2
        outcomes.append(outcome)
    for outcome in outcomes:
        if outcome.op.id in describe:
            outcome.engine = describe[outcome.op.id]()
    return outcomes


def sigma_distance(estimate, exact: Fraction) -> float:
    """Distance of an estimate from the exact value in standard errors, as compare_with_exact."""
    abs_error = abs(estimate.p_hat - float(exact))
    if estimate.std_error > 0:
        return abs_error / estimate.std_error
    return 0.0 if abs_error == 0 else math.inf


def _estimate_invariant_breaks(estimate, op: Op) -> list[str]:
    broken = []
    if estimate.samples != op.samples or estimate.seed != op.seed:
        broken.append("samples or seed differ from the request")
    if not 0.0 <= estimate.p_hat <= 1.0:
        broken.append("p_hat outside [0, 1]")
    if not (math.isfinite(estimate.std_error) and estimate.std_error >= 0):
        broken.append("std_error negative or not finite")
    return broken


@dataclass
class Verdict:
    """Check of one operation. `wrong` marks output that is incorrect, not merely unlucky."""

    ok: bool
    wrong: bool
    detail: str = ""
    sigma: float | None = None


def check(outcome: Outcome, pins: dict[str, Fraction]) -> Verdict:
    """An operation fails when it raised, when an exact result differs from its pin,
    or when an estimate breaks an invariant or lies beyond SIGMA_LIMIT standard
    errors of the pinned exact p_hit. Only the last is a statistical miss, not
    wrong output."""
    if outcome.error:
        return Verdict(False, True, outcome.error)
    pin = pins[outcome.op.key]
    if outcome.estimate is None:
        if outcome.p_hit != pin:
            return Verdict(False, True, f"p_hit {outcome.p_hit} differs from pin {pin}")
        return Verdict(True, False)
    broken = _estimate_invariant_breaks(outcome.estimate, outcome.op)
    if broken:
        return Verdict(False, True, "; ".join(broken))
    sigma = sigma_distance(outcome.estimate, pin)
    if sigma > SIGMA_LIMIT:
        return Verdict(False, False, f"{sigma:.2f} sigma from the exact p_hit", sigma)
    return Verdict(True, False, sigma=sigma)
