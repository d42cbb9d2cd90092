"""Command-line surface: analyze, simulate, table2, and validate.

All behavior is flag-driven; no environment variables are consulted. A
--budget is a ceiling on the predicted cost of the exact run (see
reliability.predicted_cost): cells for the dp passes, plus (m + 1)^3 for
each determinant the run evaluates. analyze refuses a valid scenario above
it before any exact work, and table2 skips the rows above it. Exit codes: 0
success, 2 scenario or usage error (analyze over budget, or simulate or
analyze --cross-check sample on a scenario whose faults hold nearly all path
weight), 3 validation failure, checked first, 4 engine cross-check failure
(a reported p_miss that fails the sampled check included), 5 rows skipped
under the table2 budget when --skips-as-error is set.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import fields, replace

from faultring.faults import (
    FaultComplex,
    FaultSpec,
    OverlapFault,
    RectFault,
    ValidationReport,
    build_complex,
    validate_complex,
)
from faultring.mesh import MeshShape, in_mesh_box
from faultring.montecarlo import estimate_p_hit
from faultring.reference import CONVENTION_NOTE, REFERENCE_ROWS
from faultring.reliability import (
    DEFAULT_BUDGET,
    EngineMismatch,
    check_precision,
    compute_reliability,
    format_probability,
)
from faultring.scenarios import (
    CROSS_CHECKS,
    ENGINES,
    OBSTACLES,
    AnalysisOptions,
    ScenarioConfig,
    ScenarioError,
    parse_scenario,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CROSS_CHECK = 4
EXIT_SKIPPED = 5

# table2 row gating: presets over the predicted cost of the exact engine.
# "default" admits every built-in row (the heaviest, rows 10 and 11, cost
# ~2.2e6); "low" skips those two.
BUDGET_PRESETS = {"low": 2e6, "default": DEFAULT_BUDGET, "high": float("inf")}


def _int_at_least(low: int):
    """An argparse type accepting integers >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonneg_int = _int_at_least(0)


def _precision(text: str) -> int:
    """An argparse type for --precision: an integer >= 0 that check_precision admits."""
    try:
        return check_precision(_nonneg_int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _budget_value(text: str) -> float:
    """An argparse type for --budget: a preset name or a positive number (not NaN)."""
    if text in BUDGET_PRESETS:
        return BUDGET_PRESETS[text]
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected {'/'.join(BUDGET_PRESETS)} or a number, got {text!r}"
        )
    if not value > 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _read_scenario(args: argparse.Namespace) -> ScenarioConfig:
    """The scenario args.scenario names ('-' reads stdin), each field of its analysis
    and mc records replaced by the flag of the same name when that flag is given."""
    if args.scenario == "-":
        config = parse_scenario(sys.stdin.read())
    else:
        with open(args.scenario, encoding="utf-8") as handle:
            config = parse_scenario(handle.read())

    def override(record):
        given = {f.name: getattr(args, f.name, None) for f in fields(record)}
        return replace(record, **{k: v for k, v in given.items() if v is not None})

    return replace(config, analysis=override(config.analysis), mc=override(config.mc))


def _validated(config: ScenarioConfig):
    """The scenario's combined fault spec, its fault complex, and the validation
    report of the complex against the scenario's fault entries."""
    spec = config.combined_fault()
    complex_ = build_complex(config.shape, spec)
    return spec, complex_, validate_complex(config.shape, complex_, config.faults)


def _print_table(rows: list[dict], stream) -> None:
    headers = list(rows[0])
    cells = [{h: str(r.get(h, "")) for h in headers} for r in rows]
    widths = {h: max(len(h), max(len(c[h]) for c in cells)) for h in headers}
    stream.write("  ".join(h.ljust(widths[h]) for h in headers).rstrip() + "\n")
    stream.write("  ".join("-" * widths[h] for h in headers) + "\n")
    for c in cells:
        stream.write("  ".join(c[h].ljust(widths[h]) for h in headers).rstrip() + "\n")


def _print_csv(rows: list[dict], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    headers = list(rows[0])
    writer.writerow(headers)
    for r in rows:
        writer.writerow([r.get(h, "") for h in headers])


def _emit(rows: list[dict], fmt: str, stream, footer: list[str] | None = None) -> None:
    """Render rows as an aligned table, CSV, or JSON.

    The footer (free-text notes) goes to the table rendering only; JSON gets
    it as a "notes" field and CSV drops it to stay machine-readable.
    """
    if fmt == "json":
        payload: object = rows[0] if len(rows) == 1 and footer is None else rows
        if footer is not None:
            payload = {"rows": rows, "notes": footer}
        stream.write(json.dumps(payload, indent=2) + "\n")
        return
    if fmt == "csv":
        _print_csv(rows, stream)
        return
    _print_table(rows, stream)
    for line in footer or []:
        stream.write(line + "\n")


def _fault_descriptor(
    shape: MeshShape, spec: FaultSpec | None, complex_: FaultComplex
) -> tuple[str, str]:
    """Origin (minimum corner) and a compact shape label for the fault set."""
    if spec is None or not complex_.faults:
        return "", "none"
    _, (lo, _), _ = in_mesh_box(shape, complex_.faults)
    origin = "(" + ",".join(map(str, lo)) + ")"
    if isinstance(spec, RectFault):
        return origin, "x".join(map(str, spec.extents))
    if isinstance(spec, OverlapFault):
        return origin, f"overlap:{len(spec.rects)}rects"
    return origin, f"arbitrary:{len(complex_.faults)}nodes"


def _findings_rows(report: ValidationReport) -> list[dict]:
    rows = [{"kind": "violation", "code": f.code, "message": f.message} for f in report.violations]
    rows += [{"kind": "info", "code": f.code, "message": f.message} for f in report.infos]
    return rows


def _print_findings(report: ValidationReport, stream) -> None:
    for f in report.violations:
        stream.write(f"VIOLATION {f.code}: {f.message}\n")
    for f in report.infos:
        stream.write(f"INFO {f.code}: {f.message}\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _read_scenario(args)
    opts = config.analysis
    spec, complex_, report = _validated(config)
    if not report.ok:
        _print_findings(report, sys.stderr)
        return EXIT_VALIDATION

    start = time.perf_counter()
    try:
        result = compute_reliability(
            config.shape,
            complex_,
            engine=opts.engine,
            cross_check=opts.cross_check,
            budget=opts.budget,
            obstacle=opts.obstacle,
        )
    except EngineMismatch as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    runtime = time.perf_counter() - start

    origin, fault_shape = _fault_descriptor(config.shape, spec, complex_)
    row = {
        "mesh": "x".join(map(str, config.shape.radices)),
        "classification": result.classification.value if result.classification else "none",
        "origin": origin,
        "fault_shape": fault_shape,
        "p_hit": format_probability(result.p_hit, opts.precision),
        "p_miss": format_probability(result.p_miss, opts.precision),
        "p_hit_exact": str(result.p_hit),
        "p_miss_exact": str(result.p_miss),
        "engine": result.engine,
        "obstacle": result.obstacle,
        "pair_convention": result.pair_convention,
        "runtime_s": round(runtime, 3),
    }
    _emit([row], args.format, sys.stdout)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _read_scenario(args)
    _, complex_, report = _validated(config)
    if not report.ok:
        _print_findings(report, sys.stderr)
        return EXIT_VALIDATION

    obstacle = config.analysis.obstacle
    estimate = estimate_p_hit(config.shape, complex_, config.mc, obstacle)
    # No runtime or worker columns: output is byte-identical per (seed, samples).
    row = {
        "mesh": "x".join(map(str, config.shape.radices)),
        "samples": estimate.samples,
        "seed": estimate.seed,
        "p_hat": repr(estimate.p_hat),
        "std_error": repr(estimate.std_error),
        "hits": str(estimate.hit_weight),
        "obstacle": obstacle,
    }
    _emit([row], args.format, sys.stdout)
    return EXIT_OK


def cmd_table2(args: argparse.Namespace) -> int:
    # The columns an exact run fills in; a SKIPPED row leaves them blank.
    computed_columns = (
        "computed_label", "p_hit_blocked", "p_hit_faults", "computed", "abs_diff", "engine",
        "runtime_s",
    )
    rows: list[dict] = []
    skipped = 0
    for ref in REFERENCE_ROWS:
        base = {
            "row": ref.row,
            "mesh": "x".join(map(str, ref.radices)),
            "published_label": ref.published_label,
            "origin": "(" + ",".join(map(str, ref.origin)) + ")",
            "extents": "x".join(map(str, ref.extents)),
            "published": f"{ref.published_p_hit:.3f}",
            "convention": ref.convention,
        }
        shape, complex_ = ref.build()
        start = time.perf_counter()
        try:
            blocked = compute_reliability(shape, complex_, budget=args.budget)
        except ValueError as exc:  # over budget: refused before any exact work
            skipped += 1
            blank = dict.fromkeys(computed_columns, "")
            rows.append({**base, **blank, "status": "SKIPPED", "note": str(exc)})
            continue
        faults = compute_reliability(shape, complex_, budget=args.budget, obstacle="faults")
        runtime = time.perf_counter() - start
        own = blocked if ref.convention == "blocked" else faults
        diff = abs(float(own.p_hit) - ref.published_p_hit)
        computed_label = complex_.classification.value if complex_.classification else "none"
        note = ""
        if computed_label != ref.published_label:
            note = f"block touches the border; published label says {ref.published_label}"
        computed = dict(zip(computed_columns, (
            computed_label,
            format_probability(blocked.p_hit, args.precision),
            format_probability(faults.p_hit, args.precision),
            format_probability(own.p_hit, args.precision),
            f"{diff:.4f}",
            blocked.engine,
            round(runtime, 2),
        )))
        rows.append({**base, **computed, "status": "OK", "note": note})
    footer = [
        "",
        "computed = value under the row's own convention; " + CONVENTION_NOTE + ".",
        "p_hit_blocked and p_hit_faults show both conventions for every row.",
    ]
    _emit(rows, args.format, sys.stdout, footer=footer)
    if skipped and args.skips_as_error:
        return EXIT_SKIPPED
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    config = _read_scenario(args)
    *_, report = _validated(config)
    verdict = "PASS" if report.ok else "FAIL"
    if args.format == "json":
        payload = {
            "ok": report.ok,
            "violations": [{"code": f.code, "message": f.message} for f in report.violations],
            "infos": [{"code": f.code, "message": f.message} for f in report.infos],
        }
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    elif args.format == "csv":
        _print_csv(_findings_rows(report) or [{"kind": "pass", "code": "", "message": ""}], sys.stdout)
    else:
        _print_findings(report, sys.stdout)
        sys.stdout.write(
            f"{verdict} ({len(report.violations)} violations, {len(report.infos)} infos)\n"
        )
    return EXIT_OK if report.ok else EXIT_VALIDATION


def _add_common(parser: argparse.ArgumentParser, scenario: bool) -> None:
    if scenario:
        parser.add_argument(
            "-s", "--scenario", required=True, metavar="FILE",
            help="scenario JSON file ('-' reads stdin)",
        )
    parser.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output rendering (default: table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultring",
        description="Exact and Monte-Carlo analysis of minimal mesh routes around fault regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="exact hit/miss probabilities for one scenario")
    _add_common(analyze, scenario=True)
    analyze.add_argument("--engine", choices=ENGINES, default=None)
    analyze.add_argument("--cross-check", choices=CROSS_CHECKS, default=None, dest="cross_check")
    analyze.add_argument("--precision", type=_precision, default=None, metavar="N")
    analyze.add_argument("--obstacle", choices=OBSTACLES, default=None)
    analyze.add_argument("--budget", type=_budget_value, default=None, metavar="OPS",
                         help="refuse scenarios whose predicted cost exceeds this "
                              "(low/default/high or a number; default from scenario)")
    analyze.set_defaults(func=cmd_analyze)

    simulate = sub.add_parser("simulate", help="seeded Monte-Carlo estimate for one scenario")
    _add_common(simulate, scenario=True)
    simulate.add_argument("--samples", type=_positive_int, default=None, metavar="N")
    simulate.add_argument("--seed", type=_nonneg_int, default=None, metavar="N")
    simulate.add_argument("--workers", type=_positive_int, default=None, metavar="N")
    simulate.add_argument("--obstacle", choices=OBSTACLES, default=None)
    simulate.set_defaults(func=cmd_simulate)

    table2 = sub.add_parser(
        "table2", help="recompute the published reference table and show the differences"
    )
    _add_common(table2, scenario=False)
    table2.add_argument(
        "--budget", type=_budget_value, default=BUDGET_PRESETS["default"], metavar="OPS",
        help="skip rows whose predicted cost exceeds this "
             "(low/default/high or a number)",
    )
    table2.add_argument("--precision", type=_precision, metavar="N",
                        default=AnalysisOptions.precision)
    table2.add_argument(
        "--skips-as-error", action="store_true",
        help="exit 5 when any row was skipped under the budget",
    )
    table2.set_defaults(func=cmd_table2)

    validate = sub.add_parser("validate", help="run fault-model validation for one scenario")
    _add_common(validate, scenario=True)
    validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
