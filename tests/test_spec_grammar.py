"""The one spec grammar: every text drawn from a grammar's alphabet
either builds a value or raises :class:`ConfigError`, and every value
built round-trips through the journal codec unchanged."""

import json

from hypothesis import example, given
from hypothesis import strategies as st

from repro.audit import ConfigError
from repro.cluster import NodeFaultPlan, UpgradePlan, parse_tenants_spec
from repro.core.journal import decode, encode
from repro.faults import FaultPlan

#: Values every grammar sees: integral, fractional, negative, empty,
#: non-numeric and non-finite (``1e400`` overflows to inf).
_VALUES = ["0", "1", "2", "0.5", "1.5", "2.7", "-1", "", "x", ".", "nan", "inf", "1e400"]
_PUNCTUATION = ["@", ",", ";", "=", ":", "-", "."]
#: ``repro chaos`` flag -> (a valid head, the keys its builder takes
#: besides t); heads are also drawn from ``_BAD_HEADS``.
_FAULT_FLAGS = {
    "fail_device": ("3", ["recover"]),
    "degrade_link": ("0-1", ["factor", "until"]),
    "flap_link": ("1-0", ["period", "cycles"]),
    "throttle_hbm": ("0.5", ["until"]),
    "straggler": ("2", ["factor", "until"]),
}
_BAD_HEADS = ["x", "3.5", "-1", "0", "0-0", "01", "1--1"]
#: ``--chaos`` kind -> the keys its builder takes besides t.
_NODE_KINDS = {
    "crash": ["recover"],
    "brownout": ["factor", "until"],
    "fabric": ["factor", "until"],
    "blip": ["duration"],
}
_ALL_FAULT_KEYS = ["t", "recover", "factor", "until", "period", "cycles", "duration"]
_TENANT_KEYS = ["tier", "share", "weight", "rate", "burst", "slo"]
_UPGRADE_KEYS = ["start", "restart", "poll"]

#: Most values drawn are numbers most fields take, so draws build.
_values = st.sampled_from(["1", "2", "0.5"] * 8 + _VALUES)


def _pairs(keys, first=()):
    """``key=value[,...]``: the ``first`` keys, a subset of ``keys`` in
    any order, then at most one stray pair (a duplicate or unknown key)."""
    strays = [[key] for key in _ALL_FAULT_KEYS + keys + ["when", "color"]]
    return st.tuples(
        st.just(list(first)),
        st.lists(st.sampled_from(keys), unique=True) if keys else st.just([]),
        st.sampled_from([[]] * len(strays) * 3 + strays),
    ).flatmap(
        lambda parts: st.tuples(
            *[_values.map(f"{key}=".__add__) for key in sum(parts, [])]
        )
    ).map(",".join)


def _text(structured, words):
    """Mostly well-formed text, plus raw token soup over the alphabet."""
    soup = st.lists(
        st.sampled_from(_VALUES + _PUNCTUATION + list(words)), max_size=12
    ).map("".join)
    return st.sampled_from([structured] * 3 + [soup]).flatmap(lambda draws: draws)


_fault_draws = st.sampled_from(sorted(_FAULT_FLAGS)).flatmap(
    lambda flag: st.tuples(st.just(flag), _text(
        st.tuples(
            st.sampled_from([_FAULT_FLAGS[flag][0]] * 10 + _BAD_HEADS),
            _pairs(_FAULT_FLAGS[flag][1], ["t"]),
        ).map("@".join),
        _ALL_FAULT_KEYS,
    ))
)
_node_items = st.sampled_from(sorted(_NODE_KINDS)).flatmap(
    lambda kind: st.tuples(
        st.sampled_from(["gaudi2-0", "a100-1"]), _pairs(_NODE_KINDS[kind], ["t"])
    ).map(lambda parts: f"{kind}:{parts[0]}@{parts[1]}")
)
_node_texts = _text(
    st.lists(_node_items, min_size=1, max_size=2).map(";".join),
    list(_NODE_KINDS) + ["explode"] + _ALL_FAULT_KEYS,
)
_tenant_items = st.tuples(
    st.sampled_from(["gold", "bronze"]), _pairs(_TENANT_KEYS)
).map(":".join)
_tenant_texts = _text(
    st.lists(_tenant_items, min_size=1, max_size=2).map(";".join), _TENANT_KEYS
)
_upgrade_texts = _text(_pairs(_UPGRADE_KEYS), _UPGRADE_KEYS)


def _build(parse, text):
    """``parse(text)``, or None when it raises ConfigError; any other
    exception fails the test."""
    try:
        return parse(text)
    except ConfigError:
        return None


def _assert_round_trips(cls, value):
    payload = json.loads(json.dumps(encode(value)))
    assert decode(cls, payload) == value


class TestSpecEntryPoints:
    @given(draw=_fault_draws)
    @example(draw=("flap_link", "0-1@t=1,period=0.5,cycles=inf"))
    @example(draw=("flap_link", "0-1@t=1,period=0.5,cycles=1e400"))
    @example(draw=("fail_device", "3@t=nan"))
    def test_fault_plan_from_specs(self, draw):
        flag, text = draw
        plan = _build(lambda spec: FaultPlan.from_specs(**{flag: [spec]}), text)
        if plan is not None:
            _assert_round_trips(FaultPlan, plan)

    @given(text=_node_texts)
    @example(text="crash:gaudi2-0@t=nan")
    @example(text="brownout:gaudi2-0@t=1,factor=0.5,until=nan")
    def test_node_fault_plan_from_spec(self, text):
        plan = _build(NodeFaultPlan.from_spec, text)
        if plan is not None:
            _assert_round_trips(NodeFaultPlan, plan)

    @given(text=_tenant_texts)
    @example(text="gold:tier=nan")
    @example(text="gold:tier=1e400")
    def test_parse_tenants_spec(self, text):
        tenants = _build(parse_tenants_spec, text)
        for tenant in tenants or ():
            _assert_round_trips(type(tenant), tenant)

    @given(text=_upgrade_texts)
    @example(text="start=nan")
    def test_upgrade_plan_from_spec(self, text):
        plan = _build(UpgradePlan.from_spec, text)
        if plan is not None:
            _assert_round_trips(UpgradePlan, plan)
