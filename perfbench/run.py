"""Run one workload of the faultring benchmark and print its metrics.

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 30 --trace 0

Workloads are table2, ladder and mc; README.md in this directory says why
each was chosen. A run repeats whole passes over the workload's operations,
starting another only while it is expected to end within --seconds, so a
pass longer than --seconds runs once. wall_s sums each operation's median
time over the passes, at the reference speed of calibration.py.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
makes the same untraced passes, then as many traced passes, then the
fixed-size kernels, and reports the per-layer metrics, including the tracing
overhead (traced minus untraced wall_s). Every result of every pass is
checked against the pins. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; a record of the run, with
its spans when traced, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import calibration
import kernels
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 9  # at least; one runs after each untraced pass, up to SETUP_PROBES_MAX
SETUP_PROBES_MAX = 21

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "reliability.select_engine_s": "s",
    "reliability.total_paths_s": "s",
    "reliability.miss_paths_det_s": "s",
    "reliability.miss_paths_dp_s": "s",
    "reliability.engine_det_ops": "count",
    "reliability.engine_dp_ops": "count",
    "reliability.numerator_pairs": "count",
    "reliability.cross_check_sample_ops": "count",
    "montecarlo.estimate_s": "s",
    "montecarlo.samples": "count",
    "samples_per_s": "1/s",
    "montecarlo.std_error": "probability",
    "montecarlo.sigma_distance": "sigma",
    "reference.build_s": "s",
    "scenarios.parse_s": "s",
    "faults.build_complex_s": "s",
    "faults.validate_s": "s",
    "mesh.is_connected_s": "s",
    "paths.avoiding_det_m8_s": "s",
    "paths.avoiding_det_m16_s": "s",
    "paths.avoiding_det_m32_s": "s",
    "paths.avoiding_dp_box_s": "s",
    "montecarlo.sample_minimal_path_s": "s",
    "cli.table2_low_s": "s",
    "fail_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# Spans whose summed duration per pass is a per-layer metric of the same name plus "_s".
SPAN_METRICS = (
    "reliability.select_engine",
    "reliability.total_paths",
    "reliability.miss_paths_det",
    "reliability.miss_paths_dp",
    "montecarlo.estimate",
    "reference.build",
    "scenarios.parse",
    "faults.build_complex",
    "faults.validate",
)
def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one faultring benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny runs every workload at a small size, for the self-tests",
    )
    return parser.parse_args(argv)


def git_rev() -> str | None:
    """The commit of the tree, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_probe(args) -> float:
    """Seconds of one set-up in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed), args.scale],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.split()[-1])


def timed_passes(workload, seconds: float, make_trace, after_pass=lambda: None):
    """Whole passes while the next is expected to end within `seconds`; at least one."""
    times, passes, traces = [], [], []
    start = time.perf_counter()
    while True:
        trace = make_trace()
        begin = time.perf_counter()
        outcomes = workloads.run_pass(workload, trace)
        took = time.perf_counter() - begin
        times.append(took)
        passes.append(outcomes)
        traces.append(trace)
        after_pass()
        if time.perf_counter() - start + took > seconds:
            return times, passes, traces


def wall_seconds(passes) -> float:
    """Sum over operations of each operation's median time at the reference speed.

    Every operation is identical in every pass, so this is the time of one
    pass with the slowdowns other tenants of the machine cause divided out
    (see calibration.py).
    """
    times: dict[str, list[float]] = defaultdict(list)
    for outcomes in passes:
        for o in outcomes:
            times[o.op.id].append(o.reference_seconds)
    return sum(statistics.median(t) for t in times.values())


def result_key(outcome):
    if outcome.estimate is not None:
        return outcome.estimate.p_hat, outcome.estimate.std_error
    return outcome.p_hit, outcome.error


def layer_metrics(pins, passes, traces) -> dict[str, float]:
    """Per-layer metrics of the traced passes.

    Span times are at the reference speed, each divided by the calibration
    kernel's time around its operation, and summed over operations, each
    operation counting its median traced pass, as wall_s does. Counts are the
    same in every pass; they are read from the outcomes of one.
    """
    times: dict[tuple[str, str], list[float]] = defaultdict(list)
    for outcomes, trace in zip(passes, traces):
        kernel_s = {o.op.id: o.kernel_s for o in outcomes}
        in_pass: dict[tuple[str, str], float] = defaultdict(float)
        for s in trace.spans:
            in_pass[s["op"], s["name"]] += s["end"] - s["start"]
        for (op, name), seconds in in_pass.items():
            times[op, name].append(calibration.reference_seconds(seconds, kernel_s[op]))
    span_s: dict[str, float] = defaultdict(float)
    for (_, name), seconds in times.items():
        span_s[name] += statistics.median(seconds)

    outcomes = passes[0]
    exact = [o.engine for o in outcomes if o.engine is not None]
    estimates = [o.estimate for o in outcomes if o.estimate is not None]
    samples = sum(e.samples for e in estimates)
    m = {f"{name}_s": span_s[name] for name in SPAN_METRICS}
    m["reliability.engine_det_ops"] = sum(e["engine"] == "det" for e in exact)
    m["reliability.engine_dp_ops"] = sum(e["engine"] == "dp" for e in exact)
    m["reliability.numerator_pairs"] = sum(e["numerator_pairs"] for e in exact)
    m["reliability.cross_check_sample_ops"] = sum(e["cross_check"] == "sample" for e in exact)
    m["montecarlo.samples"] = samples
    m["samples_per_s"] = samples / span_s["montecarlo.estimate"] if samples else 0.0
    m["montecarlo.std_error"] = statistics.median(e.std_error for e in estimates) if estimates else 0.0
    sigmas = [workloads.sigma_distance(o.estimate, pins[o.op.key]) for o in outcomes if o.estimate]
    m["montecarlo.sigma_distance"] = min(max(sigmas, default=0.0), 1e9)  # JSON has no infinity
    return m


def operation_record(outcome, verdict) -> dict:
    record = {
        "id": outcome.op.id, "seconds": outcome.seconds, "kernel_s": outcome.kernel_s,
        "ok": verdict.ok,
    }
    if verdict.detail:
        record["detail"] = verdict.detail
    if outcome.p_hit is not None:
        record["p_hit"] = str(outcome.p_hit)
    if outcome.engine is not None:
        record["engine_choice"] = outcome.engine
    if outcome.estimate is not None:
        e = outcome.estimate
        record.update(
            seed=outcome.op.seed, samples=e.samples, p_hat=e.p_hat,
            std_error=e.std_error, sigma_distance=verdict.sigma,
        )
    return record


def check_all(workload, passes) -> tuple[int, int, list[str], list]:
    """Check every outcome; every pass, traced or not, must repeat the first exactly.

    attempted and failed count the run's distinct operations, not their
    repetitions, so that they depend on the seed alone and not on how many
    passes the machine's speed allowed.
    """
    first = {o.op.id: result_key(o) for o in passes[0]}
    failed_ids: set[str] = set()
    problems, verdicts = [], []
    for outcomes in passes:
        for o in outcomes:
            verdict = workloads.check(o, workload.pins)
            verdicts.append(verdict)
            if not verdict.ok:
                failed_ids.add(o.op.id)
            if verdict.wrong:
                problems.append(f"{o.op.id}: {verdict.detail}")
            if result_key(o) != first[o.op.id]:
                problems.append(f"{o.op.id}: result differs between passes")
    return len(first), len(failed_ids), problems, verdicts


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.prepare(args.workload, args.seed, args.scale)

    # Set-up probes run between the untraced passes, so that they sample the
    # whole run rather than one moment of it.
    setups: list[float] = []

    def probe_set_up():
        if len(setups) < SETUP_PROBES_MAX:
            setups.append(setup_probe(args))

    try:
        times, passes, _ = timed_passes(
            workload, args.seconds, lambda: workloads.NO_TRACE, probe_set_up
        )
        while len(setups) < SETUP_PROBES:
            setups.append(setup_probe(args))
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"set-up probe failed: {exc}", file=sys.stderr)
        return 2

    traced_times, traced_passes, traces = [], [], []
    problems: list[str] = []
    if args.trace:
        traced_times, traced_passes, traces = timed_passes(
            workload, args.seconds, workloads.Trace
        )
        kernel_metrics, problems = kernels.run_kernels(
            workload.scale.cli_budget, workloads.pins_section("table2", args.scale)
        )
    attempted, failed, wrong, verdicts = check_all(workload, passes + traced_passes)
    problems += wrong
    fail_ratio = failed / attempted

    if args.trace:
        values = layer_metrics(workload.pins, traced_passes, traces)
        values.update(kernel_metrics)
        values["fail_ratio"] = fail_ratio
        values["trace.wall_s"] = wall_seconds(traced_passes)
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_seconds(passes)
        units = PER_LAYER
    else:
        values = {
            "wall_s": wall_seconds(passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    scale = workload.scale
    n_estimates = sum(o.estimate is not None for o in passes[0])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version,
        "platform": platform.platform(),
        "sample_counts": {
            "setup_probes": len(setups),
            "passes": len(times),
            "traced_passes": len(traced_times),
            "operations_per_pass": len(passes[0]),
            "mc_estimates_per_pass": n_estimates,
            "mc_samples_per_estimate": scale.mc_samples if n_estimates else 0,
        },
        "setup_seconds": setups,
        "pass_seconds": times,
        "traced_pass_seconds": traced_times,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": fail_ratio,
        "problems": problems,
        "metrics": metrics,
        "operations": [operation_record(o, v) for o, v in zip(passes[0], verdicts)],
    }
    if args.trace:
        spans = [s for t in traces for s in t.spans]
        record["self_seconds_by_layer"] = workloads.self_times(spans)
        record["spans"] = spans
    RESULTS.mkdir(exist_ok=True)
    suffix = "" if args.scale == "full" else f"-{args.scale}"
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"faultring benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"  passes={len(times)} traced_passes={len(traced_times)} "
          f"operations_per_pass={len(passes[0])} setup_probes={len(setups)}")
    if n_estimates:
        per_pass = n_estimates * scale.mc_samples
        print(f"  samples_per_s={per_pass / wall_seconds(passes):.1f} 1/s "
              f"({n_estimates} estimates x {scale.mc_samples} samples per pass)")
    print(f"  fail_ratio={failed}/{attempted}={fail_ratio:.4f}")
    for name, m in metrics.items():
        print(f"  {name}={m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"  WRONG {problem}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
