import json
from fractions import Fraction

from faultring import cli
from faultring.reference import REFERENCE_ROWS
from faultring.reliability import compute_reliability

# Exact p_hit of every published row under both avoid-set conventions. The
# dp and det engines agree on each value, and under the row's recorded
# convention it lies within +/-0.005 of the published 3-decimal value.
EXACT_P_HIT = {
    (1, "blocked"): Fraction(1),
    (1, "faults"): Fraction(23, 81),
    (2, "blocked"): Fraction(57744555815, 86902662108),
    (2, "faults"): Fraction(6198103475, 28967554036),
    (3, "blocked"): Fraction(3992296217, 4949257319),
    (3, "faults"): Fraction(19555366658, 64340345147),
    (4, "blocked"): Fraction(434899, 532499),
    (4, "faults"): Fraction(167968, 532499),
    (5, "blocked"): Fraction(21167260396677, 21444167009692),
    (5, "faults"): Fraction(1353828511947, 1531726214978),
    (6, "blocked"): Fraction(1),
    (6, "faults"): Fraction(3063118445071, 3488320259650),
    (7, "blocked"): Fraction(17861, 18293),
    (7, "faults"): Fraction(2813, 18293),
    (8, "blocked"): Fraction(820308153205, 1179585858996),
    (8, "faults"): Fraction(111963455363, 1179585858996),
    (9, "blocked"): Fraction(1),
    (9, "faults"): Fraction(538432, 3167423),
    (10, "blocked"): Fraction(733627295519, 1083747724297),
    (10, "faults"): Fraction(38781830733, 1083747724297),
    (11, "blocked"): Fraction(295611282357, 361104991276),
    (11, "faults"): Fraction(56201718331, 541657486914),
}


def test_every_reference_row_is_exact_under_both_conventions():
    for row in REFERENCE_ROWS:
        shape, complex_ = row.build()
        for obstacle in ("blocked", "faults"):
            result = compute_reliability(shape, complex_, engine="auto", obstacle=obstacle)
            assert result.p_hit == EXACT_P_HIT[row.row, obstacle], (row.row, obstacle)
        own = EXACT_P_HIT[row.row, row.convention]
        assert abs(float(own) - row.published_p_hit) <= 0.005 + 1e-12, row.row


def test_table2_computes_every_row_at_the_default_budget(capsys):
    assert cli.main(["table2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["row"] for r in rows] == list(range(1, 12))
    assert all(r["status"] == "OK" for r in rows)
    assert all(r["engine"] == "dp" for r in rows)
