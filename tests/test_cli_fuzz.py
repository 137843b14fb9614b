"""CLI fuzz: every JSON option of every subcommand, on chain2, with
arbitrary JSON trees and with valid values that have one leaf mutated.
Whatever the value, the CLI exits 0, 1, 2 or 3, prints exactly one JSON
object on stdout and no traceback."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from escm.cli import run
from tests.conftest import CHAIN2_DYNAMICS, chain2_dict

# (subcommand, fixed options, fuzzed option, a valid value for it)
_QUERY = {"evidence": {"z.Z1": 1, "z.Z2": 2.5},
          "surgeries": [{"kind": "hard", "target": "Z1", "value": 0}],
          "readouts": {"phi": "z.Z2"}}
_SAMPLER = {"U1": {"dist": "uniform", "lo": -1, "hi": 1},
            "U2": {"dist": "gauss", "mu": 0.5, "sigma": 2}}
_DYN_SURGERIES = [{"kind": "soft", "target": "Z2", "lambda": 0.5, "expr": "-(z.Z2 - 1)"}]
OPTIONS = [
    ("solve", (), "--context", {"u.U1": 1, "u.U2": 0.5}),
    ("abduct", (), "--evidence", {"z.Z1": 1, "z.Z2": 2.5}),
    ("counterfactual", (), "--query", _QUERY),
    ("counterfactual", ("--surgeries", json.dumps(_QUERY["surgeries"])),
     "--evidence", _QUERY["evidence"]),
    ("counterfactual", ("--evidence", json.dumps(_QUERY["evidence"])),
     "--surgeries", _QUERY["surgeries"]),
    ("counterfactual", ("--query", json.dumps(_QUERY)), "--readouts", {"psi": "z.Z1*z.Z2"}),
    ("disjunct", (), "--query", {"evidence": {"z.Z1": 1}, "target": "Z1", "values": [0, 1],
                                 "readouts": {"phi": "z.Z2"}, "mode": "select", "rho": 1,
                                 "control": "sq(s[0])"}),
    ("diagnose", (), "--point", {"z.Z1": 0.5, "theta.Z2.a": 1.5}),
    ("probes", (), "--points", [{"z.Z1": 0.5, "z.Z2": -1.0}, {"z.Z1": 1.0}]),
    ("probes", ("--points", "[{}]"), "--gauge", {"scale": {"Z1": 2.0}, "offset": {"Z2": 1.0}}),
    ("probes", ("--points", "[{}]", "--heads", "H_E"), "--base", {"z.Z2": 0.5}),
    ("pushforward", ("--seed", "1", "--trials", "4"), "--sampler", _SAMPLER),
    ("pushforward", ("--seed", "1", "--trials", "4", "--sampler", json.dumps(_SAMPLER)),
     "--surgeries", _QUERY["surgeries"]),
    ("pushforward", ("--seed", "1", "--trials", "4", "--sampler", json.dumps(_SAMPLER)),
     "--stats", {"z2": "z.Z2"}),
    ("simulate", ("--t-end", "0.05", "--dt", "0.01"), "--z0", {"z.Z1": 0.1}),
    ("simulate", ("--t-end", "0.05", "--dt", "0.01"), "--context", {"u.U1": 1}),
    ("simulate", ("--t-end", "0.05", "--dt", "0.01"), "--surgeries", _DYN_SURGERIES),
]

_SCALARS = (st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.text(max_size=12)
            | st.sampled_from(["-", "-1", "-1e+308", "--", "-x", "z.Z1", "u.U1", "Z1", "@",
                               "hard", "soft", "sq(", "exp(z.Z1)", "log(z.Z1)"]))
_TREES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.text(max_size=8) | st.sampled_from(
                          ["z.Z1", "u.U1", "kind", "target", "value", "evidence", "values"]),
                          inner, max_size=4), max_leaves=10)


def _paths(tree, prefix=()):
    """The path of every leaf, an empty list or dict counting as one."""
    if isinstance(tree, dict) and tree:
        for key, value in tree.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(tree, list) and tree:
        for j, value in enumerate(tree):
            yield from _paths(value, prefix + (j,))
    else:
        yield prefix


def _replace(tree, path, leaf):
    if not path:
        return leaf
    out = json.loads(json.dumps(tree))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = leaf
    return out


@st.composite
def _cases(draw):
    command, fixed, option, valid = draw(st.sampled_from(OPTIONS))
    if draw(st.booleans()):
        value = json.dumps(draw(_TREES))
    else:
        path = draw(st.sampled_from(list(_paths(valid))))
        value = json.dumps(_replace(valid, path, draw(_TREES)))
    return command, fixed, option, value


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    dyn = chain2_dict()
    dyn["dynamics"] = CHAIN2_DYNAMICS
    out = {}
    for name, spec in (("chain2", chain2_dict()), ("chain2_dyn", dyn)):
        out[name] = root / f"{name}.json"
        out[name].write_text(json.dumps(spec), encoding="utf-8")
    return out


def test_every_valid_value_runs(capsys, paths):
    for command, fixed, option, valid in OPTIONS:
        model = paths["chain2_dyn" if command == "simulate" else "chain2"]
        code = run([command, str(model), *fixed, option, json.dumps(valid), "--no-timing"])
        assert code == 0, (command, option, capsys.readouterr().out)
        capsys.readouterr()


@settings(max_examples=120, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_cases())
def test_any_json_value_exits_with_one_json_report(capsys, paths, case):
    command, fixed, option, value = case
    model = paths["chain2_dyn" if command == "simulate" else "chain2"]
    code = run([command, str(model), *fixed, option, value, "--no-timing"])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    lines = captured.out.splitlines()
    assert len(lines) == 1, captured.out
    assert isinstance(json.loads(lines[0]), dict)
    assert "Traceback" not in captured.err
