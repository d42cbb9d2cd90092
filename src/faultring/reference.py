"""Published benchmark scenarios for the fault-ring hit probability.

Eleven rectangular-fault scenarios with published P_hit values circulate as
the standard check for this model. Reproducing them needs care: the published
numbers mix two avoid-set conventions, keyed by the row's ring/chain label.

* chain-labeled rows score paths against the full blocked region FR
  (fault block plus its surrounding ring), with miss pairs drawn outside FR
  and the denominator pairs outside F. That is this package's default
  ("blocked") convention.
* ring-labeled rows score paths against the bare fault block F, with both
  pair populations equal to the non-faulty nodes. That is the "faults"
  convention.

Each row therefore records the convention its published value reproduces
under. All origins are 0-based minimum corners and extents count nodes;
no per-dimension shifts are needed. Three of the ring-labeled rows (5, 6
and 11) have blocks touching the mesh border, so this package classifies
them as chains; the published labels are kept verbatim in `published_label`.

Every row, the large rings included, is computed exactly in well under a
second per avoid set; none needs the Monte-Carlo estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

from faultring.faults import FaultComplex, RectFault, build_complex
from faultring.mesh import MeshShape


@dataclass(frozen=True)
class ReferenceRow:
    """One published benchmark scenario: a mesh and one rectangular fault,
    the published label and p_hit, and the avoid-set convention under which
    the exact engine reproduces that value; build() makes the scenario."""

    row: int
    radices: tuple[int, ...]
    origin: tuple[int, ...]
    extents: tuple[int, ...]
    published_label: str  # "ring" or "chain", as published
    published_p_hit: float  # 3-decimal published value
    convention: str  # avoid set reproducing the published value

    def build(self) -> tuple[MeshShape, FaultComplex]:
        shape = MeshShape(self.radices)
        return shape, build_complex(shape, RectFault(self.origin, self.extents))


REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow(1, (3, 2, 2), (1, 1, 0), (1, 1, 1), "chain", 1.000, "blocked"),
    ReferenceRow(2, (7, 8, 11), (2, 2, 2), (2, 1, 3), "ring", 0.214, "faults"),
    ReferenceRow(3, (5, 13, 9), (2, 3, 1), (1, 7, 2), "ring", 0.304, "faults"),
    ReferenceRow(4, (3, 5, 7), (0, 0, 1), (2, 2, 2), "chain", 0.817, "blocked"),
    ReferenceRow(5, (6, 11, 17), (2, 4, 6), (4, 6, 10), "ring", 0.884, "faults"),
    ReferenceRow(6, (3, 7, 8, 9), (1, 1, 1, 1), (1, 5, 6, 8), "ring", 0.878, "faults"),
    ReferenceRow(7, (2, 3, 4, 2), (0, 0, 1, 0), (1, 1, 2, 1), "chain", 0.976, "blocked"),
    ReferenceRow(8, (9, 5, 3, 9), (2, 3, 1, 3), (1, 1, 1, 4), "ring", 0.095, "faults"),
    ReferenceRow(9, (3, 3, 3, 3, 3), (1, 1, 1, 1, 1), (1, 1, 1, 2, 1), "chain", 1.000, "blocked"),
    ReferenceRow(10, (5, 4, 3, 5, 6), (1, 1, 1, 1, 1), (1, 1, 1, 2, 1), "ring", 0.036, "faults"),
    ReferenceRow(11, (5, 4, 3, 5, 6), (2, 2, 2, 2, 2), (2, 2, 1, 1, 3), "ring", 0.104, "faults"),
)

CONVENTION_NOTE = (
    "ring-labeled published values reproduce with the bare-fault avoid set "
    '(obstacle="faults"); chain-labeled values with the blocked set FR '
    '(obstacle="blocked", this package\'s default)'
)


def reference_row(row: int) -> ReferenceRow:
    for r in REFERENCE_ROWS:
        if r.row == row:
            return r
    raise KeyError(f"no reference row {row}")

