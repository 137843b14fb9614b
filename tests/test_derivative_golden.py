"""Golden derivatives: the bytes of every value, gradient, Hessian and
third tensor that ``Objective.term_jet``, ``Objective.derivatives`` and
``Objective.value`` return on a fixed set of models and points, and the
text of the domain errors they raise.

The fixtures live in ``tests/golden/derivatives.npz`` and
``tests/golden/domain_errors.json``.  They were recorded from the jet tree
walk that generated derivative code replaced, and every entry must match
byte for byte, except the sign of a ``term_jet`` entry that is exactly
zero.  Regenerate them with
``PYTHONPATH=src python tests/test_derivative_golden.py`` only for a
change that is meant to move derivative bits, and say which entries moved:
it prints their keys and rewrites only those, keeping every other stored
array as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from conftest import CHAIN2_DYNAMICS, chain2_dict  # noqa: E402
from genmodels import random_smooth_model  # noqa: E402

from escm import parse_model  # noqa: E402
from escm.corpus import random_quadratic_model  # noqa: E402
from escm.engine import Objective, Point  # noqa: E402
from escm.errors import EnergyDomainError  # noqa: E402
from escm.expr import compile_expr, parse_expr  # noqa: E402
from escm.model import ObjectiveTerm  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"
ARRAYS = GOLDEN / "derivatives.npz"
ERRORS = GOLDEN / "domain_errors.json"
BATCH = 3


def _models():
    chain2 = parse_model(chain2_dict())
    dyn = chain2_dict()
    dyn["dynamics"] = CHAIN2_DYNAMICS
    out = {"chain2": parse_model(chain2_dict()), "chain2_dyn": parse_model(dyn)}
    for n in (10, 40):
        out[f"corpus{n}"] = parse_model(
            random_quadratic_model(np.random.default_rng(0), n, density=0.3))
    for s in range(3):
        out[f"smooth{s}"] = random_smooth_model(np.random.default_rng(100 + s), max_nodes=4)
    out["blend"] = chain2
    return out


def _terms(name, model):
    """(label, ObjectiveTerm) for every term and dynamics component, or the
    one soft-blend term."""
    if name == "blend":
        local = model.local_term("Z2")
        replacement = compile_expr(parse_expr("0.5*sq(z.Z2 - tanh(z.Z1) - 0.3*u.U2)"),
                                   model.term_resolver(local))
        return [("blend", ObjectiveTerm.blend("Z2", 0.35, local.compiled, replacement))]
    out = [(f"term{k}", t.objective_term) for k, t in enumerate(model.terms)]
    out += [(f"dyn{k}", c.objective_term) for k, c in enumerate(model.dynamics or ())]
    return out


def _points(name, model):
    rng = np.random.default_rng(7 + sum(map(ord, name)))
    theta = model.theta_defaults()

    def draw(shape):
        z = rng.uniform(-1.0, 1.0, size=(model.nz,) + shape)
        u = rng.uniform(-1.0, 1.0, size=(model.nu,) + shape)
        th = theta if not shape else np.repeat(theta[:, None], shape[0], axis=1)
        return Point(z=z, u=u, theta=th)

    return {"one": draw(()), "batch": draw((BATCH,))}


def _active_sets(name, model, term):
    refs = list(term.refs)
    sets = {"refs": refs, "half": refs[::2]}
    if name != "corpus40":
        sets["reversed"] = refs[::-1]
    if name in ("chain2", "blend"):
        sets["all"] = list(range(model.dim))
    return sets


def _derivative_actives(name, model):
    if name == "corpus40":
        return {"z": model.coords("z")}
    return {"all": None, "z": model.coords("z")}


def _jet_arrays(prefix, jet, order):
    value, grad, hess, third = jet
    out = {f"{prefix}/value": np.asarray(value, dtype=float), f"{prefix}/grad": grad}
    if order >= 2:
        out[f"{prefix}/hess"] = hess
    if order >= 3:
        out[f"{prefix}/third"] = third
    return out


def record() -> dict[str, np.ndarray]:
    arrays = {}
    for name, model in _models().items():
        points = _points(name, model)
        objective = Objective.from_model(model)
        for label, term in _terms(name, model):
            for pname, point in points.items():
                for aname, active in _active_sets(name, model, term).items():
                    for order in (1, 2, 3):
                        jet = objective.term_jet(term, point, active, order)
                        arrays.update(_jet_arrays(
                            f"{name}/{label}/{pname}/{aname}/o{order}/term_jet", jet, order))
        if name == "blend":
            objective = Objective(model, [t for _, t in _terms(name, model)])
        for pname, point in points.items():
            arrays[f"{name}/{pname}/value"] = np.asarray(objective.value(point), dtype=float)
            for aname, active in _derivative_actives(name, model).items():
                for order in (1, 2, 3):
                    d = objective.derivatives(point, order=order, active=active)
                    prefix = f"{name}/{pname}/{aname}/o{order}/derivatives"
                    arrays[f"{prefix}/grad"] = d.grad
                    if order >= 2:
                        arrays[f"{prefix}/hess"] = d.hess
                    if order >= 3:
                        arrays[f"{prefix}/third"] = d.third
    return arrays


# Points outside a function's domain: (label, expression, value of z.A at
# one point, values of z.A across a batch whose second entry fails first).
_DOMAIN_CASES = [
    ("log", "0.5*sq(z.A) + 2*log(z.A + z.B)", -1.5, [0.5, -1.25, -2.0]),
    ("division", "z.B + 3/(z.A - 0.5)", 0.5, [1.0, 0.5, 0.5]),
    ("division_frozen", "z.B/(z.A - 0.5)", 0.5, [1.0, 0.5, 0.5]),
    ("negative_power", "sq(z.B) + pow(z.A - 0.25, -2)", 0.25, [1.0, 0.25, 0.25]),
    # two failing subexpressions: the first in post-order is reported
    ("log_then_division", "tanh(log(z.A))*z.B + sq(1/z.A)", 0.0, [1.0, 0.0, -1.0]),
    ("division_then_log", "sq(1/z.A)*z.B + tanh(log(z.A))", 0.0, [1.0, 0.0, -1.0]),
]


def _domain_model(expr: str):
    return parse_model({
        "variables": [{"name": "A", "kind": "endogenous", "dim": 1},
                      {"name": "B", "kind": "endogenous", "dim": 1}],
        "edges": [["A", "B"]],
        "terms": [{"owner": "local:A", "expr": "0.5*sq(z.A)"},
                  {"owner": "local:B", "expr": expr}],
    })


def _message(fn) -> str:
    try:
        fn()
    except EnergyDomainError as err:
        return str(err)
    raise AssertionError("expected an EnergyDomainError")


def record_errors() -> dict[str, str]:
    out = {}
    for label, expr, bad, batch in _DOMAIN_CASES:
        model = _domain_model(expr)
        objective = Objective.from_model(model)
        term = model.local_term("B").objective_term
        one = Point(z=np.array([bad, 0.75]), u=np.zeros(0), theta=np.zeros(0))
        many = Point(z=np.array([batch, [0.75] * len(batch)]), u=np.zeros((0, len(batch))),
                     theta=np.zeros((0, len(batch))))
        for pname, point in (("one", one), ("batch", many)):
            out[f"{label}/{pname}/value"] = _message(lambda: objective.value(point))
            for order in (1, 2, 3):
                out[f"{label}/{pname}/o{order}/term_jet"] = _message(
                    lambda: objective.term_jet(term, point, [0, 1], order))
                out[f"{label}/{pname}/o{order}/term_jet_frozen_a"] = _message(
                    lambda: objective.term_jet(term, point, [1], order))
                out[f"{label}/{pname}/o{order}/derivatives"] = _message(
                    lambda: objective.derivatives(point, order=order))
    return out


_EXPECTED = None


def _expected():
    global _EXPECTED
    if _EXPECTED is None:
        with np.load(ARRAYS) as data:
            _EXPECTED = {key: data[key] for key in data.files}
    return _EXPECTED


def _bytes(key: str, array) -> bytes:
    """The bytes compared; a ``term_jet`` entry that is zero counts as
    +0.0, because the sign of a structurally zero entry depends on which
    zero operands a sparse evaluation skips (see ``escm.codegen``).
    ``derivatives`` sums into +0.0, so its zeros compare as they are."""
    array = np.asarray(array, dtype=float)
    if "/term_jet/" in key:
        array = np.where(array == 0.0, 0.0, array)
    return array.tobytes()


def test_every_derivative_entry_matches_its_golden_bytes():
    expected = _expected()
    actual = record()
    assert sorted(actual) == sorted(expected)
    moved = [key for key in expected
             if actual[key].shape != expected[key].shape
             or _bytes(key, actual[key]) != _bytes(key, expected[key])]
    assert not moved, f"{len(moved)} entries moved, first {moved[:5]}"


def test_every_domain_error_message_matches_its_golden_text():
    expected = json.loads(ERRORS.read_text(encoding="utf-8"))
    assert record_errors() == expected


@pytest.mark.parametrize("key", ["chain2/one/all/o3/derivatives/third",
                                 "smooth0/batch/all/o3/derivatives/hess"])
def test_fixtures_hold_nonzero_blocks(key):
    assert np.any(_expected()[key] != 0.0)


def regenerate() -> list[str]:
    """Record every entry again and return the keys of those that moved,
    were added or were dropped.  An entry whose compared bytes and shape
    are unchanged keeps its stored array, so the file is rewritten only
    if some key is returned, and then differs only in those entries."""
    stored = _expected() if ARRAYS.exists() else {}
    actual = record()
    moved = [key for key in actual if key not in stored
             or actual[key].shape != stored[key].shape
             or _bytes(key, actual[key]) != _bytes(key, stored[key])]
    dropped = [key for key in stored if key not in actual]
    if moved or dropped:
        keep = set(stored).difference(moved)
        np.savez_compressed(ARRAYS, **{key: stored[key] if key in keep else array
                                       for key, array in actual.items()})
    return moved + dropped


if __name__ == "__main__":
    changed = regenerate()
    print(f"{ARRAYS}: {len(changed)} entries moved", *changed, sep="\n")
    ERRORS.write_text(json.dumps(record_errors(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {ERRORS}")
