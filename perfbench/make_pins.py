"""Regenerate perfbench/pins.json, the exact p_hit every benchmark operation must reproduce.

Run from the root of the tree:

    python3 perfbench/make_pins.py

Each value is checked before it is pinned:

* table2, all 22 published operations, also those the timed workload leaves
  out: the dp and det engines must agree. The det engine runs in full when
  select_engine predicts at most DET_FULL_LIMIT operations for it, and
  otherwise on the sampled pair subset of cross_check="sample". Under the
  row's recorded convention the value must also match the published one
  within +/-0.005.
* ladder meshes: dp with cross_check="sample".
* mc rows: the table2 value of the same row under the bare-fault convention.

The full run takes a few minutes on one core, most of it in the det engine.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

from workloads import FULL, OBSTACLES, PINS_PATH, PUBLISHED_OPS, SCALES, mesh_label, scenario_text

from faultring import (
    miss_paths,
    parse_scenario,
    reference_row,
    select_engine,
    total_paths,
)

DET_FULL_LIMIT = 1e7
PUBLISHED_TOLERANCE = 0.005
ROUNDING_GUARD = 1e-12


def _p_hit(shape, complex_, missing: int) -> Fraction:
    return 1 - Fraction(missing, total_paths(shape, complex_.faults))


def pin_reference(row_id: int, obstacle: str) -> Fraction:
    row = reference_row(row_id)
    shape, complex_ = row.build()
    dp = miss_paths(shape, complex_, "dp", obstacle=obstacle)
    cost = select_engine(shape, complex_, obstacle=obstacle).predicted_det_cost
    if cost <= DET_FULL_LIMIT:
        det = miss_paths(shape, complex_, "det", obstacle=obstacle)
        if det != dp:
            raise SystemExit(f"row {row_id}/{obstacle}: det {det} != dp {dp}")
        how = "det in full"
    else:
        # Raises EngineMismatch on any disagreeing pair.
        miss_paths(shape, complex_, "dp", cross_check="sample", obstacle=obstacle)
        how = "det on sampled pairs"
    p_hit = _p_hit(shape, complex_, dp)
    if obstacle == row.convention:
        diff = abs(float(p_hit) - row.published_p_hit)
        if diff > PUBLISHED_TOLERANCE + ROUNDING_GUARD:
            raise SystemExit(f"row {row_id}: {float(p_hit):.4f} vs published {row.published_p_hit}")
    print(f"row{row_id}/{obstacle}: {float(p_hit):.6f} (dp, {how})", flush=True)
    return p_hit


def pin_scenario(radices, origin, extents, obstacle: str) -> Fraction:
    config = parse_scenario(scenario_text(radices, origin, extents, obstacle))
    complex_ = config.build_complex()
    missing = miss_paths(config.shape, complex_, "dp", cross_check="sample", obstacle=obstacle)
    p_hit = _p_hit(config.shape, complex_, missing)
    print(f"{mesh_label(radices)}/{obstacle}: {float(p_hit):.6f} (dp, sampled cross-check)", flush=True)
    return p_hit


def pins_for(scale, table2_ops) -> dict[str, dict[str, str]]:
    table2 = {f"row{r}/{ob}": pin_reference(r, ob) for r, ob in table2_ops}
    ladder = {
        f"{mesh_label(radices)}/{ob}": pin_scenario(radices, origin, extents, ob)
        for radices, origin, extents in scale.ladder
        for ob in OBSTACLES
    }
    mc = {}
    for r in scale.mc_rows:
        key = f"row{r}/faults"
        mc[key] = table2[key] if key in table2 else pin_reference(r, "faults")
    return {
        name: {key: str(value) for key, value in section.items()}
        for name, section in (("table2", table2), ("ladder", ladder), ("mc", mc))
    }


def main() -> int:
    start = time.perf_counter()
    pins = {}
    for scale_name, scale in SCALES.items():
        prefix = "" if scale is FULL else f"{scale_name}."
        table2_ops = PUBLISHED_OPS if scale is FULL else scale.table2_ops
        for name, section in pins_for(scale, table2_ops).items():
            pins[prefix + name] = section
    with open(PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {PINS_PATH} in {time.perf_counter() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
