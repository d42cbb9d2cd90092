import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import faultring
from faultring import cli, reliability
from faultring.reliability import EngineMismatch
from faultring.scenarios import parse_scenario

ROW1 = '{"mesh":[3,2,2],"faults":[{"type":"rect","origin":[1,1,0],"extents":[1,1,1]}]}'
EMPTY = '{"mesh":[4,4]}'
WALL = '{"mesh":[5,5],"faults":[{"type":"arbitrary","nodes":[[2,0],[2,1],[2,2],[2,3],[2,4]]}]}'
BAD_BOUNDS = '{"mesh":[7,8,11],"faults":[{"type":"rect","origin":[0,0,0],"extents":[9,1,1]}]}'
# Two separate rect entries: one union, as if the second were written as an arbitrary node.
TWO_RECTS = (
    '{"mesh":[10,10],"faults":[{"type":"rect","origin":[1,1],"extents":[1,1]},'
    '{"type":"rect","origin":[7,7],"extents":[1,1]}]}'
)
# The det engine and the full cross-check each face 3.6e8 determinants here.
CUBE_30 = '{"mesh":[30,30,30],"faults":[{"type":"rect","origin":[12,12,12],"extents":[3,3,3]}]}'
SMALL = '{"mesh":[5,5],"faults":[{"type":"rect","origin":[1,1],"extents":[1,2]}],"mc":{"samples":3000,"seed":4}}'
README = '{"mesh":[5,5],"faults":[{"type":"rect","origin":[1,1],"extents":[1,2]}]}'
# Every analysis and mc field set, each to a value other than its default.
EVERY_FIELD = (
    '{"mesh":[5,5],"faults":[{"type":"rect","origin":[1,1],"extents":[1,2]}],'
    '"analysis":{"engine":"det","cross_check":"sample","precision":5,"obstacle":"faults",'
    '"budget":1e6},"mc":{"samples":2000,"seed":7,"workers":2}}'
)


def _write(tmp_path, text, name="scenario.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_covered_mesh_renders_one(tmp_path, capsys):
    code = cli.main(["analyze", "-s", _write(tmp_path, ROW1)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1.000" in out
    assert "chain" in out


def test_analyze_no_faults_renders_zero(tmp_path, capsys):
    code = cli.main(["analyze", "-s", _write(tmp_path, EMPTY)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.000" in out


def test_analyze_json_fields(tmp_path, capsys):
    code = cli.main(["analyze", "-s", _write(tmp_path, SMALL), "--format", "json"])
    row = json.loads(capsys.readouterr().out)
    assert code == 0
    assert row["mesh"] == "5x5"
    assert row["classification"] == "ring"
    assert row["origin"] == "(1,1)"
    assert row["fault_shape"] == "1x2"
    assert row["obstacle"] == "blocked"
    assert row["pair_convention"] == "unordered-distinct"
    assert row["engine"] in ("det", "dp")
    assert "/" in row["p_miss_exact"]


def test_renderings_carry_identical_rationals(tmp_path, capsys):
    path = _write(tmp_path, SMALL)
    assert cli.main(["analyze", "-s", path, "--format", "json"]) == 0
    from_json = json.loads(capsys.readouterr().out)
    assert cli.main(["analyze", "-s", path, "--format", "csv"]) == 0
    reader = csv.DictReader(io.StringIO(capsys.readouterr().out))
    csv_row = next(reader)
    for key in ("p_hit", "p_miss", "p_hit_exact", "p_miss_exact"):
        assert csv_row[key] == str(from_json[key])


def test_analyze_engine_flag_overrides_scenario(tmp_path, capsys):
    path = _write(tmp_path, SMALL)
    assert cli.main(["analyze", "-s", path, "--engine", "dp", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["engine"] == "dp"


def test_analyze_obstacle_flag_changes_probability(tmp_path, capsys):
    path = _write(tmp_path, SMALL)
    assert cli.main(["analyze", "-s", path, "--format", "json"]) == 0
    strict = json.loads(capsys.readouterr().out)
    assert cli.main(["analyze", "-s", path, "--obstacle", "faults", "--format", "json"]) == 0
    loose = json.loads(capsys.readouterr().out)
    assert loose["obstacle"] == "faults"
    assert float(loose["p_hit"]) < float(strict["p_hit"])


def test_analyze_validation_failure_exits_3(tmp_path, capsys):
    code = cli.main(["analyze", "-s", _write(tmp_path, WALL)])
    err = capsys.readouterr().err
    assert code == 3
    assert "disconnected" in err


def test_separate_rect_entries_analyze_as_one_union(tmp_path, capsys):
    path = _write(tmp_path, TWO_RECTS)
    assert cli.main(["validate", "-s", path]) == 0
    assert "PASS" in capsys.readouterr().out
    assert cli.main(["analyze", "-s", path, "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert row["p_hit_exact"] == "783463/1348540"
    assert row["fault_shape"] == "arbitrary:2nodes"
    as_mixed = TWO_RECTS.replace(
        '"rect","origin":[7,7],"extents":[1,1]', '"arbitrary","nodes":[[7,7]]'
    )
    assert cli.main(["analyze", "-s", _write(tmp_path, as_mixed), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["p_hit_exact"] == "783463/1348540"


def test_declared_overlap_of_disjoint_blocks_exits_3(tmp_path, capsys):
    overlap = (
        '{"type":"overlap","blocks":['
        '{"origin":[1,1],"extents":[1,1]},{"origin":[7,7],"extents":[1,1]}]}'
    )
    rect = '{"type":"rect","origin":[4,4],"extents":[1,1]}'
    # Alone, and with another entry joining it, which does not excuse it.
    for faults, where in ((overlap, ""), (f"{overlap},{rect}", " (faults[0])")):
        scenario = f'{{"mesh":[10,10],"faults":[{faults}]}}'
        for command in ("analyze", "validate"):
            assert cli.main([command, "-s", _write(tmp_path, scenario)]) == 3
            out, err = capsys.readouterr()
            stream = out if command == "validate" else err
            message = f"overlap-disjoint: blocks 0 and 1 neither intersect nor touch{where}"
            assert message in stream, (command, faults)


def test_repeated_key_exits_2(tmp_path, capsys):
    scenario = '{"mesh":[5,5],"faults":[{"type":"rect","origin":[1,1],"extents":[1,2]}],"faults":[]}'
    assert cli.main(["analyze", "-s", _write(tmp_path, scenario)]) == 2
    assert "scenario error: repeated key 'faults'" in capsys.readouterr().err


def test_analyze_bounds_error_exits_2(tmp_path, capsys):
    code = cli.main(["analyze", "-s", _write(tmp_path, BAD_BOUNDS)])
    err = capsys.readouterr().err
    assert code == 2
    assert "faults[0]" in err
    assert "dimension 0" in err


def test_analyze_over_budget_exits_2(tmp_path, capsys):
    code = cli.main(["analyze", "-s", _write(tmp_path, SMALL), "--budget", "10"])
    err = capsys.readouterr().err
    assert code == 2
    assert "predicted cost 450 exceeds budget 10" in err


class _WorkStarted(Exception):
    """Raised by a stubbed exact engine: the budget check let the run begin."""


@pytest.mark.parametrize("option", [["--engine", "det"], ["--cross-check", "full"]])
def test_analyze_prices_determinants_before_any_work(
    tmp_path, capsys, monkeypatch, option
):
    def work(*args):
        raise _WorkStarted

    for name in ("avoiding_det", "avoiding_dp", "_pair_sum"):
        monkeypatch.setattr(reliability, name, work)
    path = _write(tmp_path, CUBE_30)
    code = cli.main(["analyze", "-s", path, *option])
    assert code == 2
    assert "predicted cost 1.32e+11 exceeds budget 1e+08" in capsys.readouterr().err
    # Under the high budget the price passes the check, and the first engine call is reached.
    with pytest.raises(_WorkStarted):
        cli.main(["analyze", "-s", path, *option, "--budget", "high"])


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="the interpreter sets no int-to-text digit limit")
def test_precision_beyond_the_digit_limit_is_refused_before_any_work(tmp_path, capsys, monkeypatch):
    top = _DIGIT_LIMIT - 1  # 4299 at the interpreter's default limit
    # A p_hit of exactly 1 (ROW1) takes the most digits at the top precision.
    for text, p_hit in ((README, Fraction(1313, 1461)), (ROW1, Fraction(1))):
        path = _write(tmp_path, text)
        assert cli.main(["analyze", "-s", path, "--precision", str(top), "--format", "json"]) == 0
        rendered = json.loads(capsys.readouterr().out)["p_hit"]
        assert rendered == reliability.format_probability(p_hit, top)
        assert len(rendered) == top + 2

    def work(*args, **kwargs):
        raise _WorkStarted

    monkeypatch.setattr(cli, "compute_reliability", work)
    message = f"precision {_DIGIT_LIMIT} exceeds {top}"
    for args in (["analyze", "-s", path], ["table2"]):
        with pytest.raises(SystemExit) as err:
            cli.main([*args, "--precision", str(_DIGIT_LIMIT)])
        assert err.value.code == 2
        assert f"argument --precision: {message}" in capsys.readouterr().err
    scenario = README[:-1] + f',"analysis":{{"precision":{_DIGIT_LIMIT}}}}}'
    assert cli.main(["analyze", "-s", _write(tmp_path, scenario)]) == 2
    assert f"analysis.precision: {message}" in capsys.readouterr().err
    with pytest.raises(ValueError, match=message):
        reliability.format_probability(Fraction(1, 3), _DIGIT_LIMIT)


def test_analyze_reports_validation_before_budget(tmp_path, capsys):
    code = cli.main(["analyze", "-s", _write(tmp_path, WALL), "--budget", "10"])
    err = capsys.readouterr().err
    assert code == 3
    assert "disconnected" in err


def test_analyze_missing_file_exits_2(capsys):
    code = cli.main(["analyze", "-s", "/no/such/file.json"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_analyze_cross_check_failure_exits_4(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise EngineMismatch(((0, 0), (1, 1)), 3, 4)

    monkeypatch.setattr(cli, "compute_reliability", explode)
    code = cli.main(["analyze", "-s", _write(tmp_path, SMALL)])
    err = capsys.readouterr().err
    assert code == 4
    assert "cross-check" in err


def test_analyze_aggregate_mismatch_exits_4(tmp_path, capsys, monkeypatch):
    # Under the full cross-check, an all-pairs sum that disagrees with the
    # per-pair recount is a cross-check failure, not a traceback.
    pair_sum = reliability._pair_sum
    monkeypatch.setattr(reliability, "_pair_sum", lambda *args: pair_sum(*args) + 1)
    code = cli.main(["analyze", "-s", _write(tmp_path, SMALL), "--cross-check", "full"])
    assert code == 4
    err = capsys.readouterr().err
    assert "cross-check failure: aggregate disagrees with per-pair recount: 149 vs 148" in err


@pytest.mark.parametrize("obstacle, wrong", [("blocked", "10/487"), ("faults", "102/487")])
def test_analyze_sampled_cross_check_catches_a_skipped_orientation(
    tmp_path, capsys, monkeypatch, obstacle, wrong
):
    # _pair_sum without the pass of orientation (1, -1) reports a wrong exact
    # p_miss on the README scenario; the sampled cross-check fails it, though
    # the per-pair engines agree on every pair it recounts.
    product = reliability.product
    monkeypatch.setattr(
        reliability, "product", lambda *args, **kw: (d for d in product(*args, **kw) if d != (1, -1))
    )
    path = _write(tmp_path, README)
    assert cli.main(["analyze", "-s", path, "--obstacle", obstacle]) == 0
    assert wrong in capsys.readouterr().out
    code = cli.main(["analyze", "-s", path, "--obstacle", obstacle, "--cross-check", "sample"])
    assert code == 4
    assert "standard errors from the sampled pairs' mean miss ratio" in capsys.readouterr().err


def test_simulate_output_is_reproducible(tmp_path, capsys):
    path = _write(tmp_path, SMALL)
    assert cli.main(["simulate", "-s", path]) == 0
    first = capsys.readouterr().out
    assert cli.main(["simulate", "-s", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "p_hat" in first


def test_simulate_output_identical_across_workers(tmp_path, capsys, monkeypatch):
    # Up to os.cpu_count() workers start: two CPUs or more split the samples.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    path = _write(tmp_path, SMALL)
    assert cli.main(["simulate", "-s", path, "--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert cli.main(["simulate", "-s", path, "--workers", "4"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_simulate_seed_changes_output(tmp_path, capsys):
    path = _write(tmp_path, SMALL)
    assert cli.main(["simulate", "-s", path, "--seed", "4"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["simulate", "-s", path, "--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first != second


def test_simulate_json_columns(tmp_path, capsys):
    assert cli.main(["simulate", "-s", _write(tmp_path, SMALL), "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert list(row) == ["mesh", "samples", "seed", "p_hat", "std_error", "hits", "obstacle"]
    assert int(row["hits"]) == round(float(row["p_hat"]) * 3000)


def test_simulate_refuses_scenario_without_healthy_path_weight(tmp_path, capsys):
    # Only row 0 of a 40x40 mesh is healthy: about 1 path-weighted pair in
    # 10^21 has two healthy endpoints.
    text = '{"mesh":[40,40],"faults":[{"type":"rect","origin":[1,0],"extents":[39,40]}]}'
    code = cli.main(["simulate", "-s", _write(tmp_path, text), "--samples", "10"])
    assert code == 2
    assert "run `analyze`" in capsys.readouterr().err


def test_simulate_zero_samples_is_usage_error(tmp_path):
    path = _write(tmp_path, SMALL)
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "-s", path, "--samples", "0"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["simulate", "--samples", "0"], "argument --samples: must be >= 1"),
        (["simulate", "--workers", "0"], "argument --workers: must be >= 1"),
        (["simulate", "--seed", "-1"], "argument --seed: must be >= 0"),
        (["analyze", "--precision", "-1"], "argument --precision: must be >= 0"),
        (["table2", "--precision", "-2"], "argument --precision: must be >= 0"),
        (["simulate", "--samples", "1.5"], "argument --samples: expected an integer, got '1.5'"),
        (["analyze", "--precision", "x"], "argument --precision: expected an integer, got 'x'"),
    ],
)
def test_integer_flags_reject_bad_values(tmp_path, capsys, args, message):
    scenario = ["-s", _write(tmp_path, SMALL)] if args[0] != "table2" else []
    with pytest.raises(SystemExit) as err:
        cli.main(args[:1] + scenario + args[1:])
    assert err.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [["analyze", "--budget", "nan"], ["analyze", "--budget", "-1"], ["table2", "--budget", "nan"]],
)
def test_budget_flags_refuse_nan_and_non_positive_values(tmp_path, capsys, args):
    scenario = ["-s", _write(tmp_path, SMALL)] if args[0] == "analyze" else []
    with pytest.raises(SystemExit) as err:
        cli.main(args[:1] + scenario + args[1:])
    assert err.value.code == 2
    assert "argument --budget: must be positive" in capsys.readouterr().err


def test_validate_pass_with_info(tmp_path, capsys):
    code = cli.main(["validate", "-s", _write(tmp_path, ROW1)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "blocked-covers-mesh" in out


def test_validate_fail_on_disconnection(tmp_path, capsys):
    code = cli.main(["validate", "-s", _write(tmp_path, WALL)])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL" in out
    assert "disconnected" in out


def _limit_address_space():
    # A search over every node of these meshes would need gigabytes; it then
    # fails with MemoryError instead of filling the machine.
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


@pytest.mark.parametrize(
    "mesh, origin, extents, code, verdict",
    [
        ([1000, 1000, 1000], [500, 500, 500], [5, 5, 5], 0, "PASS"),
        ([1000, 1000], [500, 0], [1, 1000], 3, "VIOLATION disconnected"),
        # A block of 216 000 nodes: its ring, class and connectivity come from its corners.
        ([300, 300, 300], [100, 100, 100], [60, 60, 60], 0, "PASS"),
    ],
)
def test_validate_cost_follows_the_fault_region(mesh, origin, extents, code, verdict):
    fault = {"type": "rect", "origin": origin, "extents": extents}
    scenario = json.dumps({"mesh": mesh, "faults": [fault]})
    src = os.path.dirname(os.path.dirname(faultring.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "faultring.cli", "validate", "-s", "-"],
        input=scenario, capture_output=True, text=True, env=env, timeout=30,
        preexec_fn=_limit_address_space if os.name == "posix" else None,
    )
    assert done.returncode == code, done.stderr
    assert verdict in done.stdout


def test_validate_json_shape(tmp_path, capsys):
    code = cli.main(["validate", "-s", _write(tmp_path, WALL), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["ok"] is False
    assert payload["violations"][0]["code"] == "disconnected"


def test_validate_csv_lists_each_finding_or_a_pass(tmp_path, capsys):
    code = cli.main(["validate", "-s", _write(tmp_path, WALL), "--format", "csv"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert code == 3
    assert rows[0] == ["kind", "code", "message"]
    assert [row[:2] for row in rows[1:]] == [["violation", "disconnected"]]
    code = cli.main(["validate", "-s", _write(tmp_path, EMPTY), "--format", "csv"])
    assert code == 0
    assert capsys.readouterr().out == "kind,code,message\npass,,\n"


def test_simulate_validation_failure_exits_3(tmp_path, capsys):
    text = '{"mesh":[4,4],"faults":[{"type":"rect","origin":[0,1],"extents":[4,1]}]}'
    code = cli.main(["simulate", "-s", _write(tmp_path, text), "--samples", "10"])
    captured = capsys.readouterr()
    assert code == 3
    assert "VIOLATION disconnected" in captured.err
    assert captured.out == ""


def test_analyze_labels_an_overlap_by_its_block_count(tmp_path, capsys):
    text = (
        '{"mesh":[8,8],"faults":[{"type":"overlap","blocks":[{"origin":[2,2],"extents":[2,1]},'
        '{"origin":[3,2],"extents":[1,2]}]}]}'
    )
    code = cli.main(["analyze", "-s", _write(tmp_path, text), "--format", "json"])
    row = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (row["origin"], row["fault_shape"]) == ("(2,2)", "overlap:2rects")


def test_table2_budget_gates_heavy_rows(capsys):
    code = cli.main(["table2", "--budget", "40000", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    rows = {r["row"]: r for r in payload["rows"]}
    assert len(rows) == 11
    computed = {k for k, r in rows.items() if r["status"] == "OK"}
    assert computed == {1, 4, 7}
    for k in computed:
        assert abs(float(rows[k]["computed"]) - float(rows[k]["published"])) <= 0.005
    skipped = rows[2]
    assert skipped["status"] == "SKIPPED"
    assert "exceeds budget" in skipped["note"]
    assert any("convention" in note for note in payload["notes"])


def test_table2_skips_as_error_exits_5(capsys):
    code = cli.main(["table2", "--budget", "40000", "--skips-as-error"])
    capsys.readouterr()
    assert code == 5


def test_table2_csv_has_header(capsys):
    code = cli.main(["table2", "--budget", "40000", "--format", "csv"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert lines[0].startswith("row,mesh,published_label")
    assert len(lines) == 12


def test_table2_rejects_bad_budget():
    with pytest.raises(SystemExit) as err:
        cli.main(["table2", "--budget", "bogus"])
    assert err.value.code == 2


def test_readme_analyze_example(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(README))
    assert cli.main(["analyze", "-s", "-"]) == 0
    header, _, row = capsys.readouterr().out.splitlines()
    assert header.split()[:-1] == [
        "mesh", "classification", "origin", "fault_shape", "p_hit", "p_miss", "p_hit_exact",
        "p_miss_exact", "engine", "obstacle", "pair_convention",
    ]
    assert row.split()[:-1] == [
        "5x5", "ring", "(1,1)", "1x2", "0.899", "0.101", "1313/1461", "148/1461", "dp",
        "blocked", "unordered-distinct",
    ]


def test_readme_simulate_example(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(README))
    assert cli.main(["simulate", "-s", "-", "--samples", "3000", "--seed", "4"]) == 0
    assert capsys.readouterr().out == (
        "mesh  samples  seed  p_hat               std_error             hits  obstacle\n"
        "----  -------  ----  ------------------  --------------------  ----  --------\n"
        "5x5   3000     4     0.8986666666666666  0.005510452309733651  2696  blocked\n"
    )


def test_scenario_fields_apply_without_flags(tmp_path, capsys):
    path = _write(tmp_path, EVERY_FIELD)
    assert cli.main(["analyze", "-s", path, "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)
    # 667/1461, the faults-convention value, at the scenario's 5 places.
    assert (row["engine"], row["obstacle"], row["p_hit"]) == ("det", "faults", "0.45654")
    assert cli.main(["simulate", "-s", path, "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)
    assert (row["samples"], row["seed"], row["obstacle"]) == (2000, 7, "faults")
    args = cli.build_parser().parse_args(["analyze", "-s", path])
    assert cli._read_scenario(args) == parse_scenario(EVERY_FIELD)


@pytest.mark.parametrize(
    "command, flag, text, record, field, value",
    [
        ("analyze", "--engine", "dp", "analysis", "engine", "dp"),
        ("analyze", "--cross-check", "off", "analysis", "cross_check", "off"),
        ("analyze", "--precision", "2", "analysis", "precision", 2),
        ("analyze", "--obstacle", "blocked", "analysis", "obstacle", "blocked"),
        ("analyze", "--budget", "low", "analysis", "budget", 2e6),
        ("simulate", "--samples", "10", "mc", "samples", 10),
        ("simulate", "--seed", "3", "mc", "seed", 3),
        ("simulate", "--workers", "1", "mc", "workers", 1),
        ("simulate", "--obstacle", "blocked", "analysis", "obstacle", "blocked"),
    ],
)
def test_each_flag_overrides_only_its_field(tmp_path, command, flag, text, record, field, value):
    path = _write(tmp_path, EVERY_FIELD)
    config = cli._read_scenario(cli.build_parser().parse_args([command, "-s", path, flag, text]))
    base = parse_scenario(EVERY_FIELD)
    assert config == replace(base, **{record: replace(getattr(base, record), **{field: value})})


def test_analyze_reads_an_integer_budget_beyond_float_range(tmp_path, capsys):
    text = '{"mesh":[5,5],"analysis":{"budget":1' + "0" * 400 + "}}"
    assert cli.main(["analyze", "-s", _write(tmp_path, text), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["p_hit"] == "0.000"
