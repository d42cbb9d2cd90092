"""Self-tests of the benchmark; they run every workload at the tiny scale.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import make_pins  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

from faultring import McConfig, compare_with_exact, reference_row  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_each_workload_runs_at_tiny_size(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload != "mc":
        assert result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    if trace and workload != "mc":
        counts = result["metrics"]
        ops = counts["reliability.engine_det_ops"]["value"] + counts["reliability.engine_dp_ops"]["value"]
        assert ops == len(workloads.build_ops(workload, 3, workloads.TINY))


def test_corrupted_pin_is_reported_through_fail_ratio(tmp_path, monkeypatch, capsys):
    pins = json.loads(workloads.PINS_PATH.read_text())
    key = sorted(pins["tiny.table2"])[0]
    pins["tiny.table2"][key] = str(Fraction(pins["tiny.table2"][key]) / 2 + Fraction(1, 7))
    corrupted = tmp_path / "pins.json"
    corrupted.write_text(json.dumps(pins))
    monkeypatch.setattr(workloads, "PINS_PATH", corrupted)

    assert run.main(["--workload", "table2", "--seed", "0", "--seconds", "0.1",
                     "--trace", "1", "--scale", "tiny"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert result["metrics"]["fail_ratio"]["value"] == result["failed"] / result["attempted"]


def test_estimate_beyond_four_sigma_fails_without_being_wrong():
    workload = workloads.prepare("mc", 0, "tiny")
    outcome = workloads.run_pass(workload)[0]
    estimate = outcome.estimate
    far = {outcome.op.key: Fraction(estimate.p_hat) + Fraction(5 * estimate.std_error)}
    verdict = workloads.check(outcome, far)
    assert not verdict.ok and not verdict.wrong
    assert workloads.check(outcome, workload.pins).wrong is False


def test_sigma_rule_matches_compare_with_exact():
    shape, complex_ = reference_row(4).build()
    config = McConfig(samples=300, seed=11)
    comparison = compare_with_exact(shape, complex_, config, obstacle="faults")
    assert workloads.sigma_distance(comparison.estimate, comparison.exact_p_hit) == (
        comparison.sigma_distance
    )
    assert workloads.SIGMA_LIMIT == 4.0


@pytest.mark.parametrize("workload", ("table2", "ladder"))
def test_traced_and_untraced_runs_give_identical_exact_results(workload):
    prepared = workloads.prepare(workload, 5, "tiny")
    plain = workloads.run_pass(prepared)
    traced = workloads.run_pass(prepared, workloads.Trace())
    assert [(o.op.id, o.p_hit, o.engine) for o in plain] == [
        (o.op.id, o.p_hit, o.engine) for o in traced
    ]
    assert all(o.p_hit == prepared.pins[o.op.key] for o in plain)


def test_seed_fixes_the_inputs():
    a = workloads.build_ops("mc", 1, workloads.FULL)
    assert a == workloads.build_ops("mc", 1, workloads.FULL)
    assert a != workloads.build_ops("mc", 2, workloads.FULL)
    assert len({op.seed for op in a}) == len(a)


def test_tiny_pins_regenerate_identically():
    pins = json.loads(workloads.PINS_PATH.read_text())
    for name, section in make_pins.pins_for(workloads.TINY, workloads.TINY.table2_ops).items():
        assert pins[f"tiny.{name}"] == section


def test_attempted_and_failed_do_not_depend_on_the_pass_count():
    workload = workloads.prepare("mc", 0, "tiny")
    outcomes = workloads.run_pass(workload)
    workload.pins = {key: Fraction(1) for key in workload.pins}  # every estimate misses
    once = run.check_all(workload, [outcomes])
    thrice = run.check_all(workload, [outcomes, outcomes, outcomes])
    assert once[:2] == thrice[:2] == (len(workload.ops), len(workload.ops))
    assert once[2] == thrice[2] == []


def test_calibration_stands_apart_from_the_package():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, calibration; calibration.kernel_seconds(); "
         "print(any(m.startswith('faultring') for m in sys.modules))"],
        cwd=HERE, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "False"


def test_wall_s_divides_out_the_speed_of_the_cpu():
    op = workloads.Op("a", "a")
    fast = workloads.Outcome(op, seconds=0.1, kernel_s=workloads.calibration.REFERENCE_S)
    slow = workloads.Outcome(op, seconds=0.2, kernel_s=2 * workloads.calibration.REFERENCE_S)
    assert run.wall_seconds([[fast], [slow], [fast]]) == pytest.approx(0.1)
