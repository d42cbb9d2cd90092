"""Fixed-size kernels timed in the traced run, each checked once against an oracle.

They explain the layer numbers of the workloads and do not feed wall_s:
avoiding_det at fixed matrix sizes, one corner-to-corner DP pass over the
12^3 box around a 3^3 block, a fixed number of minimal-path draws, one
connectivity check of that mesh, and the `faultring table2 --budget low`
command.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import time
from itertools import product

from workloads import load_pins

from faultring import (
    MeshShape,
    avoiding_det,
    avoiding_dp,
    cli,
    format_probability,
    is_connected,
    sample_minimal_path,
)

CORNER_A = (0, 0, 0)
CORNER_B = (11, 11, 11)
# Restriction-point blocks at (4,4,4) giving det matrices of size 9, 17 and 33.
DET_BLOCKS = {8: (2, 2, 2), 16: (2, 2, 4), 32: (4, 4, 2)}
PATH_DRAWS = 2000
MIN_SECONDS = 0.2  # per kernel: repeat calls until this much time is covered
MIN_CALLS = 5


def _block(extents):
    return sorted(
        tuple(4 + d for d in offset) for offset in product(*(range(e) for e in extents))
    )


BOX_BLOCK = _block((3, 3, 3))


def median_call_seconds(fn) -> float:
    times: list[float] = []
    while len(times) < MIN_CALLS or sum(times) < MIN_SECONDS:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _is_minimal_path(path, a, b) -> bool:
    steps = zip(path, path[1:])
    return (
        path[0] == a
        and path[-1] == b
        and len(path) == sum(abs(x - y) for x, y in zip(a, b)) + 1
        and all(sum(abs(x - y) for x, y in zip(u, v)) == 1 for u, v in steps)
    )


def _check_table2(output: str, pins: dict) -> list[str]:
    problems = []
    rows = json.loads(output)["rows"]
    ran = [r for r in rows if r["status"] == "OK"]
    if not ran:
        problems.append("cli table2 computed no row")
    for r in ran:
        for obstacle in ("blocked", "faults"):
            pin = pins.get(f"row{r['row']}/{obstacle}")
            if pin is not None and r[f"p_hit_{obstacle}"] != format_probability(pin):
                problems.append(f"cli table2 row {r['row']} {obstacle}: {r[f'p_hit_{obstacle}']}")
    return problems


def run_kernels(cli_budget: str, pins_section: str) -> tuple[dict[str, float], list[str]]:
    """Per-call median seconds of every kernel, and any oracle check that failed."""
    metrics: dict[str, float] = {}
    problems: list[str] = []

    for m, extents in DET_BLOCKS.items():
        points = _block(extents)
        expected = avoiding_dp(CORNER_A, CORNER_B, points)
        if avoiding_det(CORNER_A, CORNER_B, points) != expected:
            problems.append(f"avoiding_det with {m} points disagrees with avoiding_dp")
        metrics[f"paths.avoiding_det_m{m}_s"] = median_call_seconds(
            lambda: avoiding_det(CORNER_A, CORNER_B, points)
        )

    metrics["paths.avoiding_dp_box_s"] = median_call_seconds(
        lambda: avoiding_dp(CORNER_A, CORNER_B, BOX_BLOCK)
    )

    def draw():
        rng = random.Random(0)
        return [sample_minimal_path(rng, CORNER_A, CORNER_B) for _ in range(PATH_DRAWS)]

    if not all(_is_minimal_path(p, CORNER_A, CORNER_B) for p in draw()):
        problems.append("sample_minimal_path drew a path that is not minimal")
    metrics["montecarlo.sample_minimal_path_s"] = median_call_seconds(draw)

    shape = MeshShape((12, 12, 12))
    if not is_connected(shape, BOX_BLOCK):
        problems.append("is_connected reports the 12^3 mesh with a 3^3 block as disconnected")
    metrics["mesh.is_connected_s"] = median_call_seconds(lambda: is_connected(shape, BOX_BLOCK))

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["table2", "--budget", cli_budget, "--format", "json"])
    metrics["cli.table2_low_s"] = time.perf_counter() - start
    if code != 0:
        problems.append(f"cli table2 exited {code}")
    else:
        problems += _check_table2(out.getvalue(), load_pins(pins_section))
    return metrics, problems
