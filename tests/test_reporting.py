"""The one-pass report writer against ``json.dumps`` of ``jsonable``.

``render_report`` must give the bytes of
``json.dumps(jsonable(x), indent=2, sort_keys=True) + "\\n"`` for every
value ``jsonable`` accepts, and refuse what it refuses.
"""

import enum
import json
import math
from fractions import Fraction
from typing import Any, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergolab.experiments import CATALOG
from ergolab.reporting import jsonable, render_report
from ergolab.runner import run


def ref_render(value) -> str:
    return json.dumps(jsonable(value), indent=2, sort_keys=True) + "\n"


class Pair(NamedTuple):
    left: Any
    right: Any


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308]),
    st.floats(allow_nan=True).map(np.float64),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    FLOATS,
    st.fractions(),
    st.fractions(max_denominator=10**40),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
)
KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(), st.fractions(max_denominator=4))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
        st.builds(Pair, inner, inner),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(VALUES)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [], "c": (), "d": [{}, [], ()]})
@example({1: "int key first", "1": "str key last"})
@example({"1": "str key first", 1: "int key last"})
@example({True: 1, "True": 2, Fraction(1, 2): 3, "1/2": 4})
@example([math.nan, math.inf, -math.inf, -0.0, np.float64(-0.0), np.float64(math.nan)])
@example(["\x00\x1f\x7f", "é ü 中 😀", "\ud800", '"\\/'])
@example([2**4000, -(2**4000), True, False, None])
@example(Pair(Pair(1, ()), {"x": Fraction(-3, 7)}))
def test_writer_matches_json_dumps(value):
    assert render_report(value) == ref_render(value)


def test_colliding_keys_keep_the_last_value():
    assert render_report({1: "a", "1": "b"}) == '{\n  "1": "b"\n}\n'
    assert render_report({"1": "b", 1: "a"}) == '{\n  "1": "a"\n}\n'


class Level(enum.IntEnum):
    HIGH = 7


def test_number_subclasses_print_as_their_base():
    value = {"x": np.float64(0.1), "y": np.float64(math.inf), "z": Level.HIGH}
    assert render_report(value) == '{\n  "x": 0.1,\n  "y": Infinity,\n  "z": 7\n}\n'
    assert render_report(value) == ref_render(value)


@pytest.mark.parametrize("bad", [object(), np.int64(3), np.bool_(True), {1, 2}, b"bytes"])
def test_unknown_types_raise_type_error(bad):
    with pytest.raises(TypeError) as want:
        jsonable({"a": [bad]})
    with pytest.raises(TypeError) as got:
        render_report({"a": [bad]})
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_reports_render_the_same_bytes(name):
    report = run(CATALOG[name]["config"])
    assert render_report(report) == ref_render(report)
