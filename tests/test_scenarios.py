import json
import math

import pytest

from faultring.faults import ArbitraryFault, RectFault
from faultring.scenarios import (
    AnalysisOptions,
    ScenarioError,
    parse_scenario,
    serialize_scenario,
)

ROW2 = '{"mesh":[7,8,11],"faults":[{"type":"rect","origin":[2,2,2],"extents":[2,1,3]}]}'


def test_parse_minimal_scenario_defaults():
    config = parse_scenario('{"mesh": [4, 4]}')
    assert config.shape.radices == (4, 4)
    assert config.faults == ()
    assert config.combined_fault() is None
    assert config.analysis.engine == "auto"
    assert config.analysis.precision == 3
    assert config.analysis.obstacle == "blocked"
    assert config.mc.samples == 100_000
    assert config.mc.seed == 0


def test_parse_rect_scenario():
    config = parse_scenario(ROW2)
    assert config.shape.radices == (7, 8, 11)
    assert config.faults == (RectFault((2, 2, 2), (2, 1, 3)),)


def test_parse_arbitrary_scenario():
    config = parse_scenario(
        '{"mesh":[5,5],"faults":[{"type":"arbitrary","nodes":[[1,1],[2,2]]}]}'
    )
    assert config.faults == (ArbitraryFault(frozenset({(1, 1), (2, 2)})),)


def test_bounds_error_names_dimension():
    bad = '{"mesh":[7,8,11],"faults":[{"type":"rect","origin":[0,0,0],"extents":[9,1,1]}]}'
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert err.value.path == "faults[0]"
    assert "dimension 0" in err.value.message
    assert "0..6" in err.value.message


def test_arbitrary_node_outside_mesh_is_positional():
    bad = '{"mesh":[3,3],"faults":[{"type":"arbitrary","nodes":[[1,1],[3,0]]}]}'
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    assert err.value.path == "faults[0].nodes[1]"


def test_unknown_fields_rejected_everywhere():
    for text, where in [
        ('{"mesh":[4,4],"junk":1}', "scenario"),
        ('{"mesh":[4,4],"analysis":{"mode":"x"}}', "analysis"),
        ('{"mesh":[4,4],"mc":{"sample":5}}', "mc"),
        ('{"mesh":[4,4],"faults":[{"type":"rect","origin":[0,0],"extents":[1,1],"x":1}]}',
         "faults[0]"),
    ]:
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text)
        assert err.value.path == where
        assert "unknown field" in err.value.message


def test_malformed_json_reports_position():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('{"mesh": [4, 4')
    assert "line 1" in str(err.value)


def test_bad_option_values_rejected():
    cases = [
        '{"mesh":[4,1]}',
        '{"mesh":[]}',
        '{"mesh":[4,4],"analysis":{"engine":"turbo"}}',
        '{"mesh":[4,4],"analysis":{"precision":-1}}',
        '{"mesh":[4,4],"analysis":{"obstacle":"walls"}}',
        '{"mesh":[4,4],"analysis":{"budget":0}}',
        '{"mesh":[4,4],"mc":{"samples":0}}',
        '{"mesh":[4,4],"mc":{"workers":0}}',
        '{"mesh":[4,4],"faults":[{"type":"blob"}]}',
        '{"mesh":[4,4],"faults":[{"type":"rect","origin":[0,0]}]}',
        '{"mesh":[4,4],"faults":[{"type":"overlap","blocks":[]}]}',
        '{"faults":[]}',
    ]
    for text in cases:
        with pytest.raises(ScenarioError):
            parse_scenario(text)


def test_nan_budget_is_refused_at_its_field():
    with pytest.raises(ScenarioError) as err:
        parse_scenario('{"mesh":[4,4],"analysis":{"budget":NaN}}')
    assert err.value.path == "analysis.budget"


def test_null_cross_check_reads_as_the_default():
    config = parse_scenario('{"mesh":[4,4],"analysis":{"engine":"det","cross_check":null}}')
    assert config.analysis == AnalysisOptions(engine="det")


def test_integer_budget_beyond_float_range_reads_as_inf():
    config = parse_scenario('{"mesh":[4,4],"analysis":{"budget":1' + "0" * 400 + "}}")
    assert config.analysis.budget == math.inf
    assert config.analysis == parse_scenario('{"mesh":[4,4],"analysis":{"budget":1e400}}').analysis


def test_combined_fault_rules():
    one = parse_scenario(ROW2)
    assert isinstance(one.combined_fault(), RectFault)

    two_rects = parse_scenario(
        '{"mesh":[6,6],"faults":['
        '{"type":"rect","origin":[0,0],"extents":[2,2]},'
        '{"type":"rect","origin":[1,1],"extents":[2,2]}]}'
    )
    combined = two_rects.combined_fault()
    assert isinstance(combined, ArbitraryFault)
    assert len(combined.nodes) == 7

    mixed = parse_scenario(
        '{"mesh":[6,6],"faults":['
        '{"type":"rect","origin":[0,0],"extents":[2,2]},'
        '{"type":"arbitrary","nodes":[[4,4]]}]}'
    )
    union = mixed.combined_fault()
    assert isinstance(union, ArbitraryFault)
    assert (4, 4) in union.nodes
    assert (0, 0) in union.nodes
    assert (1, 1) in union.nodes


@pytest.mark.parametrize("text, key", [
    ('{"mesh":[5,5],"faults":[{"type":"rect","origin":[1,1],"extents":[1,2]}],"faults":[]}',
     "faults"),
    ('{"mesh":[5,5],"faults":[{"type":"rect","origin":[1,1],"extents":[1,2],"extents":[2,1]}]}',
     "extents"),
    ('{"mesh":[5,5],"analysis":{"engine":"det","engine":"dp"}}', "engine"),
])
def test_repeated_key_is_refused_wherever_it_appears(text, key):
    with pytest.raises(ScenarioError, match=f"repeated key '{key}'"):
        parse_scenario(text)


def test_roundtrip_is_semantically_idempotent():
    config = parse_scenario(
        '{"mesh":[5,5],'
        '"faults":[{"type":"overlap","blocks":['
        '{"origin":[0,0],"extents":[2,2]},{"origin":[1,1],"extents":[2,2]}]}],'
        '"analysis":{"engine":"dp","precision":4,"obstacle":"faults"},'
        '"mc":{"samples":5000,"seed":9,"workers":2}}'
    )
    text = serialize_scenario(config)
    again = parse_scenario(text)
    assert again == config
    assert serialize_scenario(again) == text
    json.loads(text)  # stays plain JSON


@pytest.mark.parametrize("text, message", [
    pytest.param('{"mesh":[4,"x"]}', "mesh[1]: expected an integer, got 'x'", id="mesh-type"),
    pytest.param('{"mesh":[4,1]}', "mesh[1]: expected an integer >= 2, got 1", id="mesh-minimum"),
    pytest.param('{"faults":[]}', "scenario: missing field 'mesh'", id="mesh-missing"),
    pytest.param('{"mesh":[4,4],"faults":[{"type":"rect","origin":[0,true],"extents":[1,1]}]}',
                 "faults[0].origin[1]: expected an integer, got True", id="origin-type"),
    pytest.param('{"mesh":[4,4,4],"faults":[{"type":"rect","origin":[0,0],"extents":[1,1,1]}]}',
                 "faults[0].origin: expected 3 coordinates, got 2", id="origin-length"),
    pytest.param('{"mesh":[4,4],"faults":[{"type":"rect","extents":[1,1]}]}',
                 "faults[0]: missing field 'origin'", id="origin-missing"),
    pytest.param('{"mesh":[4,4],"faults":[{"type":"rect","origin":[0,0],"extents":[1,0]}]}',
                 "faults[0].extents[1]: expected an integer >= 1, got 0", id="extents-minimum"),
    pytest.param('{"mesh":[4,4],"faults":[{"type":"rect","origin":[0,0],"extents":[1,1,1]}]}',
                 "faults[0].extents: expected 2 extents, got 3", id="extents-length"),
    pytest.param('{"mesh":[4,4],"faults":[{"type":"rect","origin":[0,0]}]}',
                 "faults[0]: missing field 'extents'", id="extents-missing"),
    # Both lists' elements are checked before either length.
    pytest.param('{"mesh":[4,4,4],"faults":[{"type":"rect","origin":[0,0],"extents":[1,"a",1]}]}',
                 "faults[0].extents[1]: expected an integer, got 'a'", id="origin-length-extents-type"),
    pytest.param('{"mesh":[3,3],"faults":[{"type":"arbitrary","nodes":[[1,1],[0,0,0]]}]}',
                 "faults[0].nodes[1]: expected 2 coordinates, got 3", id="node-length"),
    pytest.param('{"mesh":[3,3],"faults":[{"type":"arbitrary","nodes":[[1,1],[3,0]]}]}',
                 "faults[0].nodes[1]: node (3, 0) is outside the mesh", id="node-outside"),
    pytest.param('{"mesh":[4,4],"faults":[{"type":"overlap","blocks":['
                 '{"origin":[0,0],"extents":[1,1]},'
                 '{"type":"arbitrary","origin":[1,1],"extents":[1,1]}]}]}',
                 "faults[0].blocks[1].type: overlap blocks must be rects", id="overlap-block-type"),
    pytest.param('{"mesh":[4,4],"mc":{"samples":0}}',
                 "mc.samples: expected an integer >= 1, got 0", id="mc-samples"),
    pytest.param('{"mesh":[4,4],"analysis":{"precision":2.5}}',
                 "analysis.precision: expected an integer, got 2.5", id="analysis-precision"),
    pytest.param('{"mesh":[4,4],"analysis":{"budget":-1}}',
                 "analysis.budget: expected a positive number, got -1", id="analysis-budget"),
])
def test_reader_reports_the_exact_message(text, message):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == message


def test_serialized_text_is_pinned():
    config = parse_scenario(
        '{"mesh":[6,6],"faults":['
        '{"type":"rect","origin":[0,1],"extents":[2,1]},'
        '{"type":"overlap","blocks":[{"origin":[3,3],"extents":[2,2]},'
        '{"origin":[4,4],"extents":[1,2]}]},'
        '{"type":"arbitrary","nodes":[[5,0],[0,5]]}],'
        '"analysis":{"engine":"dp","precision":4},"mc":{"samples":500,"seed":3}}'
    )
    assert serialize_scenario(config) == """\
{
  "analysis": {
    "budget": 100000000.0,
    "engine": "dp",
    "obstacle": "blocked",
    "precision": 4
  },
  "faults": [
    {
      "extents": [
        2,
        1
      ],
      "origin": [
        0,
        1
      ],
      "type": "rect"
    },
    {
      "blocks": [
        {
          "extents": [
            2,
            2
          ],
          "origin": [
            3,
            3
          ]
        },
        {
          "extents": [
            1,
            2
          ],
          "origin": [
            4,
            4
          ]
        }
      ],
      "type": "overlap"
    },
    {
      "nodes": [
        [
          0,
          5
        ],
        [
          5,
          0
        ]
      ],
      "type": "arbitrary"
    }
  ],
  "mc": {
    "samples": 500,
    "seed": 3,
    "workers": 1
  },
  "mesh": [
    6,
    6
  ]
}"""
