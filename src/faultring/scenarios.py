"""Strict JSON scenario files: parsing, validation, and fault combination.

A scenario is a single JSON object:

    {
      "mesh": [7, 8, 11],
      "faults": [{"type": "rect", "origin": [2, 2, 2], "extents": [2, 1, 3]}],
      "analysis": {"engine": "auto", "cross_check": "off", "precision": 3,
                   "obstacle": "blocked", "budget": 1e8},
      "mc": {"samples": 100000, "seed": 0, "workers": 1}
    }

"mesh" is required. A field left out takes the default shown above, which
only its record declares: AnalysisOptions for "analysis", montecarlo.McConfig
for "mc". The budget is a ceiling on the predicted cost of the exact run
(reliability.predicted_cost): cells for the dp passes, plus (m + 1)^3 for
each determinant the run evaluates. Analysis refuses a scenario above it,
and an integer budget beyond the float range reads as inf. Fault entries may be
"rect" (origin + extents), "overlap" (a list of rects under "blocks"), or
"arbitrary" (explicit "nodes"). Several entries form one union of their
node sets; only an "overlap" entry is checked for blocks that meet.
Unknown fields are rejected anywhere, and every diagnostic names the
offending location ("faults[0].extents" and the like) so errors in
generated files are traceable; a key repeated within any object is
rejected by name. Bounds are checked here, against the declared mesh, so a bad
block never reaches the analysis layer.

Each kind of check has one home: _require_keys refuses unknown fields, then
missing required ones; _int_list refuses a bool or a non-integer, then a value
below its minimum, for list elements and fields alike; _check_length refuses
a coordinate list whose length is not the mesh's dimension. A precision
beyond what the interpreter renders (reliability.check_precision) is
refused here too, before any exact work.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field

from faultring.faults import (
    ArbitraryFault,
    FaultComplex,
    FaultSpec,
    OverlapFault,
    RectFault,
    build_complex,
    check_block,
    fault_nodes_of,
)
from faultring.mesh import MeshShape
from faultring.montecarlo import McConfig
from faultring.reliability import CROSS_CHECKS, DEFAULT_BUDGET, ENGINES, OBSTACLES
from faultring.reliability import CrossCheck, EnginePolicy, Obstacle, check_precision


class ScenarioError(ValueError):
    """Parse or semantic failure, carrying the path of the offending field."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class AnalysisOptions:
    """A scenario's "analysis" record: the exact run's engine policy,
    cross-check (None reads as "off"), decimal places, obstacle and budget,
    as compute_reliability and the analyze output take them."""

    engine: EnginePolicy = "auto"
    cross_check: CrossCheck | None = None
    precision: int = 3
    obstacle: Obstacle = "blocked"
    budget: float = DEFAULT_BUDGET


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario: the mesh, its fault entries in file order, and the
    analysis and mc records, each defaulted when the file leaves it out."""

    shape: MeshShape
    faults: tuple[FaultSpec, ...] = ()
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    mc: McConfig = field(default_factory=McConfig)

    def combined_fault(self) -> FaultSpec | None:
        """Collapse the fault list into one specification.

        No entries: None. One entry: itself. Several entries: the explicit
        union of all node sets.
        """
        if not self.faults:
            return None
        if len(self.faults) == 1:
            return self.faults[0]
        nodes: set = set()
        for spec in self.faults:
            nodes |= fault_nodes_of(self.shape, spec)
        return ArbitraryFault(frozenset(nodes))

    def build_complex(self) -> FaultComplex:
        return build_complex(self.shape, self.combined_fault())


def _require_keys(
    obj: dict, allowed: tuple[str, ...], path: str, required: tuple[str, ...] = ()
) -> None:
    for key in obj:
        if key not in allowed:
            raise ScenarioError(path, f"unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise ScenarioError(path, f"missing field {key!r}")


def _int_list(value, path: str, minimum: int, key: str | None = None) -> list[int]:
    """value if it is a non-empty list of integers >= minimum, bools refused.

    An element is reported as path[i], or as path.key when value wraps one
    field's value; the path is formatted only when reported.
    """
    if not isinstance(value, list) or not value:
        raise ScenarioError(path, "expected a non-empty list of integers")
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, int):
            message = f"expected an integer, got {x!r}"
        elif x < minimum:
            message = f"expected an integer >= {minimum}, got {x}"
        else:
            continue
        raise ScenarioError(f"{path}[{i}]" if key is None else f"{path}.{key}", message)
    return value


def _int_field(obj: dict, key: str, path: str, minimum: int) -> int:
    return _int_list([obj[key]], path, minimum, key)[0]


def _check_length(values: list, shape: MeshShape, path: str, noun: str) -> None:
    if len(values) != shape.n:
        raise ScenarioError(path, f"expected {shape.n} {noun}, got {len(values)}")


def _choice_field(obj: dict, key: str, path: str, choices: tuple[str, ...]) -> str:
    value = obj[key]
    if value not in choices:
        raise ScenarioError(
            f"{path}.{key}", f"expected one of {', '.join(choices)}, got {value!r}"
        )
    return value


def _parse_rect(obj: dict, shape: MeshShape, path: str) -> RectFault:
    _require_keys(obj, ("type", "origin", "extents"), path, required=("origin", "extents"))
    # Both lists' elements are checked before either length.
    origin = _int_list(obj["origin"], f"{path}.origin", minimum=0)
    extents = _int_list(obj["extents"], f"{path}.extents", minimum=1)
    _check_length(origin, shape, f"{path}.origin", "coordinates")
    _check_length(extents, shape, f"{path}.extents", "extents")
    try:
        check_block(shape, origin, extents)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from exc
    return RectFault(tuple(origin), tuple(extents))


def _parse_fault(obj, shape: MeshShape, path: str) -> FaultSpec:
    if not isinstance(obj, dict):
        raise ScenarioError(path, "expected an object")
    kind = obj.get("type")
    if kind == "rect":
        return _parse_rect(obj, shape, path)
    if kind == "overlap":
        _require_keys(obj, ("type", "blocks"), path)
        blocks = obj.get("blocks")
        if not isinstance(blocks, list) or not blocks:
            raise ScenarioError(f"{path}.blocks", "expected a non-empty list of rect blocks")
        rects = []
        for i, sub in enumerate(blocks):
            sub_path = f"{path}.blocks[{i}]"
            if not isinstance(sub, dict):
                raise ScenarioError(sub_path, "expected an object")
            if sub.get("type", "rect") != "rect":
                raise ScenarioError(f"{sub_path}.type", "overlap blocks must be rects")
            rects.append(_parse_rect(sub, shape, sub_path))
        return OverlapFault(tuple(rects))
    if kind == "arbitrary":
        _require_keys(obj, ("type", "nodes"), path)
        raw = obj.get("nodes")
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(f"{path}.nodes", "expected a non-empty list of coordinates")
        nodes = set()
        for i, item in enumerate(raw):
            node_path = f"{path}.nodes[{i}]"
            coord = _int_list(item, node_path, minimum=0)
            _check_length(coord, shape, node_path, "coordinates")
            v = tuple(coord)
            if not shape.contains(v):
                raise ScenarioError(node_path, f"node {v} is outside the mesh")
            nodes.add(v)
        return ArbitraryFault(frozenset(nodes))
    raise ScenarioError(
        f"{path}.type", f"expected one of rect, overlap, arbitrary, got {kind!r}"
    )


def _given_fields(obj, path: str, readers: dict) -> dict:
    """The fields obj gives, each read by its reader; the others keep the record's defaults."""
    if not isinstance(obj, dict):
        raise ScenarioError(path, "expected an object")
    _require_keys(obj, tuple(readers), path)
    return {key: read() for key, read in readers.items() if key in obj}


def _budget_field(obj: dict, path: str) -> float:
    budget = obj["budget"]
    if isinstance(budget, bool) or not isinstance(budget, (int, float)) or not budget > 0:
        raise ScenarioError(f"{path}.budget", f"expected a positive number, got {budget!r}")
    return float(budget) if budget <= sys.float_info.max else math.inf


def _precision_field(obj: dict, path: str) -> int:
    places = _int_field(obj, "precision", path, minimum=0)
    try:
        return check_precision(places)
    except ValueError as exc:
        raise ScenarioError(f"{path}.precision", str(exc)) from None


def _parse_analysis(obj, path: str) -> AnalysisOptions:
    return AnalysisOptions(**_given_fields(obj, path, {
        "engine": lambda: _choice_field(obj, "engine", path, ENGINES),
        "cross_check": lambda: None if obj["cross_check"] is None
                       else _choice_field(obj, "cross_check", path, CROSS_CHECKS),
        "precision": lambda: _precision_field(obj, path),
        "obstacle": lambda: _choice_field(obj, "obstacle", path, OBSTACLES),
        "budget": lambda: _budget_field(obj, path),
    }))


def _parse_mc(obj, path: str) -> McConfig:
    return McConfig(**_given_fields(obj, path, {
        "samples": lambda: _int_field(obj, "samples", path, minimum=1),
        "seed": lambda: _int_field(obj, "seed", path, minimum=0),
        "workers": lambda: _int_field(obj, "workers", path, minimum=1),
    }))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's fields; a repeated key raises instead of keeping its last value."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError("", f"repeated key {key!r} in a JSON object")
        obj[key] = value
    return obj


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario JSON, rejecting unknown fields with positional errors."""
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ScenarioError("", f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ScenarioError("", "scenario must be a JSON object")
    _require_keys(raw, ("mesh", "faults", "analysis", "mc"), "scenario", required=("mesh",))
    radices = _int_list(raw["mesh"], "mesh", minimum=2)
    shape = MeshShape(tuple(radices))

    faults: list[FaultSpec] = []
    if "faults" in raw:
        if not isinstance(raw["faults"], list):
            raise ScenarioError("faults", "expected a list of fault objects")
        for i, item in enumerate(raw["faults"]):
            faults.append(_parse_fault(item, shape, f"faults[{i}]"))

    analysis = _parse_analysis(raw["analysis"], "analysis") if "analysis" in raw else AnalysisOptions()
    mc = _parse_mc(raw["mc"], "mc") if "mc" in raw else McConfig()
    return ScenarioConfig(shape=shape, faults=tuple(faults), analysis=analysis, mc=mc)


def serialize_scenario(config: ScenarioConfig) -> str:
    """Inverse of parse_scenario, semantically lossless."""
    faults = []
    for spec in config.faults:
        if isinstance(spec, RectFault):
            faults.append({"type": "rect", **asdict(spec)})
        elif isinstance(spec, OverlapFault):
            faults.append({"type": "overlap", "blocks": [asdict(r) for r in spec.rects]})
        else:
            faults.append({"type": "arbitrary", "nodes": sorted(spec.nodes)})
    payload = {
        "mesh": list(config.shape.radices),
        "faults": faults,
        "analysis": {k: v for k, v in asdict(config.analysis).items() if v is not None},
        "mc": asdict(config.mc),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
