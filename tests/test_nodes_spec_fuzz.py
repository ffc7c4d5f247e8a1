"""The ``--nodes`` input surface rejects bad input with a typed error.

``repro fleet --nodes SPEC`` goes through ``_parse_nodes_spec`` and
``FleetConfig`` validation before any node is built.  For any string,
that pair either accepts the spec or raises ``ConfigError``; the CLI
turns the error into exit 2 and one ``error:`` line.  No test here
builds or runs a fleet.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import ConfigError
from repro.cli import _parse_nodes_spec, main
from repro.cluster.fleet import MAX_FLEET_NODES, FleetConfig

#: Specs shaped like the grammar: digit runs of any length (including
#: far past the node ceiling), known and unknown device names, stray
#: separators and whitespace.
_POOL = st.tuples(
    st.from_regex(r"[0-9]{1,30}", fullmatch=True),
    st.sampled_from(["x", " x ", "X", "x  ", ""]),
    st.sampled_from(["gaudi2", "a100", "h100", "gaudi3", "tpu", "gaudi2@surrogate", ""]),
).map("".join)
_SPECS = st.one_of(
    st.text(),
    st.lists(_POOL, max_size=4).map(",".join),
    st.lists(st.one_of(_POOL, st.text(max_size=6)), max_size=4).map(" , ".join),
)


def _validate(spec: str) -> FleetConfig:
    return FleetConfig(nodes=_parse_nodes_spec(spec))


@given(spec=_SPECS)
@settings(max_examples=300, deadline=None)
def test_nodes_spec_accepts_or_raises_config_error(spec):
    try:
        config = _validate(spec)
    except ConfigError:
        return
    assert 1 <= sum(count for _, count in config.nodes) <= MAX_FLEET_NODES


def test_node_ceiling_is_inclusive():
    assert _validate(f"{MAX_FLEET_NODES}x gaudi2").nodes == (("gaudi2", MAX_FLEET_NODES),)
    with pytest.raises(ConfigError, match="nodes: 1025 nodes exceed the fleet ceiling"):
        _validate(f"{MAX_FLEET_NODES}x gaudi2,1x a100")


def test_count_past_int_conversion_is_a_config_error():
    with pytest.raises(ConfigError, match="--nodes: pool count"):
        _parse_nodes_spec("9" * 5000 + "x gaudi2")


@pytest.mark.parametrize("spec, message", [
    ("99999999999999999999x gaudi2",
     "nodes: 99999999999999999999 nodes exceed the fleet ceiling of 1024"),
    ("600x gaudi2,600x a100", "nodes: 1200 nodes exceed the fleet ceiling"),
    ("0x gaudi2", "pool 'gaudi2' needs count >= 1, got 0"),
    ("2x tpu", "tpu"),
    (",", "--nodes names no pools"),
])
def test_cli_exits_2_with_one_error_line(capsys, spec, message):
    assert main(["fleet", "--nodes", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
