"""The report encoder's contract: ``canonical_json`` writes the bytes that
walking the payload with the recursive converter it replaced and then
encoding the plain result would write, for every payload whose dict keys
are strings, with non-finite floats as the strings "inf", "-inf" and
"nan"."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, is_dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from escm.report import canonical_json


def reference_jsonable(obj):
    """The converter every report went through before encoding."""
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else repr(obj)
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is dict:
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if kind is list:
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [reference_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if not np.isfinite(value):
            return repr(value)
        return value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return reference_jsonable(asdict(obj))
    return obj


def reference_json(obj) -> str:
    return json.dumps(reference_jsonable(obj), sort_keys=True, allow_nan=False,
                      separators=(",", ":"), ensure_ascii=False)


@dataclass
class Entry:
    name: str
    value: float
    rows: list


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, math.inf, -math.inf, math.nan])
TEXT = st.text(alphabet=st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ["Z1", "θ.Z2.a", "é", "☃", "\U0001f600", "a\"b\\c\n"])
LEAVES = (
    FLOATS
    | st.integers()
    | st.booleans()
    | st.none()
    | TEXT
    | FLOATS.map(np.float64)
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
    | hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
                 elements=FLOATS)
    | hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3))
    | st.builds(Entry, TEXT, FLOATS.map(np.float64), st.lists(FLOATS, max_size=3))
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
@example({"max_abs_first": math.inf, "icm_penalty": math.inf, "passed": False})
@example({"b": -0.0, "a": [np.float64(math.nan), np.int64(-3), np.bool_(True)]})
@example([np.array([[1.5, -math.inf], [0.0, 2.0]]), Entry("é", np.float64(0.1), [math.nan])])
def test_canonical_json_writes_what_the_reference_walk_writes(payload):
    assert canonical_json(payload) == reference_json(payload)
