"""The CLI's JSON writer against `json.dumps(sort_keys=True, indent=2)` of
the record's JSON form (`oracles.json_reference`)."""

import enum
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from gemkit import Check, GenusProfile, ManifoldMeta, SchemeProfile, Skip
from gemkit.cli import _FIELDS, _dump
from oracles import json_reference


def dumped(value) -> str:
    out: list[str] = []
    _dump(value, out, "\n")
    return "".join(out)


awkward_text = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x01\x08\t\n\r\x1f\x7f é€ \U0001d11e'),
)
ints = st.one_of(
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
)
fractions = st.fractions(max_denominator=10**6)
optional_int = st.one_of(st.none(), ints)
scalars = st.one_of(awkward_text, ints, st.booleans(), st.none(), fractions)

scheme_profiles = st.builds(
    SchemeProfile,
    scheme=st.lists(ints, max_size=5).map(tuple),
    chi=ints,
    holes=ints,
    rho=fractions,
)
library_records = st.one_of(
    st.builds(
        Check,
        name=awkward_text,
        statement=awkward_text,
        left=scalars,
        right=scalars,
        relation=awkward_text,
        passed=st.booleans(),
        sharp=st.one_of(st.none(), st.booleans()),
    ),
    st.builds(Skip, name=awkward_text, reason=awkward_text),
    scheme_profiles,
    st.builds(
        GenusProfile,
        entries=st.lists(scheme_profiles, max_size=3).map(tuple),
        rho=fractions,
        argmin=st.lists(ints, max_size=5).map(tuple),
        diagnostics=st.lists(awkward_text, max_size=2).map(tuple),
    ),
    st.builds(
        ManifoldMeta,
        h=ints,
        chi=ints,
        m=ints,
        boundary_genus=optional_int,
        double_rank=optional_int,
    ),
)

records = st.recursive(
    st.one_of(scalars, library_records),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(awkward_text, children, max_size=4),
    ),
    max_leaves=30,
)


@given(records)
@settings(max_examples=150, deadline=None)
def test_writer_matches_json_dumps(value):
    assert dumped(value) == json_reference(value)


@pytest.mark.parametrize("value", [[], (), {}, {"a": []}, [{}, ()]])
def test_empty_containers(value):
    assert dumped(value) == json_reference(value)


def test_record_type_first_met_nested_renders_alike_at_top_level():
    # a type of its own, so that its key text is built at this depth
    class Nested(NamedTuple):
        zeta: int
        alpha: str

    assert Nested not in _FIELDS
    value = {"outer": [Nested(1, "x")], "after": Nested(2, "y")}
    assert dumped(value) == json_reference(value)
    assert Nested in _FIELDS
    assert dumped(Nested(3, "z")) == json_reference(Nested(3, "z"))


def test_record_types_with_fields_in_different_orders():
    class Forward(NamedTuple):
        a: int
        b: str
        c: None

    class Backward(NamedTuple):
        c: None
        b: str
        a: int

    value = [Forward(1, "x", None), {"k": Backward(None, "x", 1)}]
    assert dumped(value) == json_reference(value)
    assert dumped(Forward(1, "x", None)) == dumped(Backward(None, "x", 1))


def test_record_without_fields():
    class Bare(NamedTuple):
        pass

    assert dumped(Bare()) == "{}" == json_reference(Bare())
    value = [Bare(), {"k": Bare()}, (Bare(),)]
    assert dumped(value) == json_reference(value)


class Color(enum.IntEnum):
    RED = 1


@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        Color.RED,
        [Fraction(1, 2), {"k": frozenset()}],
        {"k": Color.RED},
        {1: "non-string key"},
    ],
)
def test_types_without_json_form_raise(value):
    with pytest.raises(TypeError):
        dumped(value)
