"""Fuzzing of the three JSON loaders: any JSON value either loads or raises
ValueError or KeyError, the two classes that ``cinfer.cli.main`` reports
as malformed input (exit 2)."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from cinfer.dist import JointDistribution
from cinfer.setfn import SetFunction
from cinfer.structures import CIStructure

NAMES = ("x", "y", "z", "u")
KEYS = (
    "variables", "density", "name", "cardinality", "config", "prob",
    "base", "values", "statements", "i", "j", "K",
)
NUMBERS = st.sampled_from(("0", "1", "-1", "1/2", "1/0", "0/0", "1e5", "1e999", "nan", " "))
SUBSET_KEYS = st.sampled_from(("", "x", "y", "z", "u", "xy", "xz", "yz", "xyz"))
TEXT = NUMBERS | SUBSET_KEYS | st.text(max_size=3)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-2, 4)
    | st.floats(allow_nan=True, allow_infinity=True) | TEXT
)
# One level of nesting: every loader checks the shape of each level before
# it reads the next.
JSON = (
    SCALARS
    | st.lists(SCALARS, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS) | TEXT, SCALARS, max_size=3)
)


def _or_junk(strategy):
    """The strategy's values, and one time in four any JSON value instead."""
    return st.integers(0, 3).flatmap(lambda k: strategy if k else JSON)


NAME = _or_junk(st.sampled_from(NAMES))
SMALL = _or_junk(st.integers(-1, 4))
DISTRIBUTIONS = _or_junk(st.fixed_dictionaries({
    "variables": _or_junk(st.lists(
        _or_junk(st.fixed_dictionaries({"name": NAME, "cardinality": SMALL})), max_size=4
    )),
    "density": _or_junk(st.lists(
        _or_junk(st.fixed_dictionaries({
            "config": _or_junk(st.lists(SMALL, max_size=4)), "prob": _or_junk(NUMBERS)
        })),
        max_size=4,
    )),
}))
SET_FUNCTIONS = _or_junk(st.fixed_dictionaries({
    "base": _or_junk(st.lists(NAME, max_size=3, unique_by=repr)),
    "values": _or_junk(st.dictionaries(SUBSET_KEYS | TEXT, _or_junk(NUMBERS), max_size=8)),
}))
STRUCTURES = _or_junk(st.fixed_dictionaries({
    "variables": _or_junk(st.lists(NAME, max_size=4)),
    "statements": _or_junk(st.lists(
        _or_junk(st.fixed_dictionaries({
            "i": NAME, "j": NAME, "K": _or_junk(st.lists(NAME, max_size=2))
        })),
        max_size=3,
    )),
}))


@pytest.mark.parametrize(
    "load, documents",
    [
        pytest.param(JointDistribution.from_json_dict, DISTRIBUTIONS, id="distribution"),
        pytest.param(SetFunction.from_json_dict, SET_FUNCTIONS, id="set-function"),
        pytest.param(CIStructure.from_json_dict, STRUCTURES, id="structure"),
    ],
)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_any_json_value_loads_or_is_malformed_input(load, documents, data):
    document = json.loads(json.dumps(data.draw(documents)))
    try:
        load(document)
    except (ValueError, KeyError):
        pass
