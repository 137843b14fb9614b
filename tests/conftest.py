"""Shared fixtures: the two-node reference chain and helpers."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from escm import Point, parse_model

CHAIN2 = {
    "variables": [
        {"name": "Z1", "kind": "endogenous", "dim": 1},
        {"name": "Z2", "kind": "endogenous", "dim": 1},
        {"name": "U1", "kind": "exogenous", "dim": 1},
        {"name": "U2", "kind": "exogenous", "dim": 1},
    ],
    "edges": [["Z1", "Z2"]],
    "terms": [
        {"owner": "local:Z1", "expr": "0.5*sq(z.Z1 - u.U1)"},
        {"owner": "local:Z2", "expr": "0.5*sq(z.Z2 - theta.Z2.a*z.Z1 - u.U2)",
         "params": {"a": 2}},
        {"owner": "exo:U1", "expr": "0.5*sq(u.U1)"},
        {"owner": "exo:U2", "expr": "0.5*sq(u.U2)"},
    ],
}

CHAIN2_DYNAMICS = [
    {"var": "Z1", "expr": "-(z.Z1 - u.U1)"},
    {"var": "Z2", "expr": "-(z.Z2 - theta.Z2.a*z.Z1 - u.U2)"},
]


def chain2_dict() -> dict:
    return copy.deepcopy(CHAIN2)


@pytest.fixture
def chain2():
    return parse_model(chain2_dict())


@pytest.fixture
def chain2_dyn():
    spec = chain2_dict()
    spec["dynamics"] = copy.deepcopy(CHAIN2_DYNAMICS)
    return parse_model(spec)


@pytest.fixture
def chain2_z3():
    """Chain plus an isolated Z3 coupled to Z1 through a global term."""
    spec = chain2_dict()
    spec["variables"].insert(2, {"name": "Z3", "kind": "endogenous", "dim": 1})
    spec["terms"].insert(2, {"owner": "local:Z3", "expr": "0.5*sq(z.Z3)"})
    spec["terms"].append({"owner": "global", "expr": "0.3*z.Z1*z.Z3"})
    return parse_model(spec)


def point_of(model, **overrides) -> Point:
    p = Point.for_model(model)
    for label, value in overrides.items():
        space, rest = label.split("_", 1)
        p.x[model.parse_coord(f"{space}.{rest}")] = value
    return p


def fd_value_grad(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(x, dtype=float)
    for k in range(len(x)):
        up = x.copy()
        dn = x.copy()
        up[k] += h
        dn[k] -= h
        g[k] = (fn(up) - fn(dn)) / (2 * h)
    return g


def assert_close_rel(exact: float, estimate: float, rel: float = 1e-5,
                     floor: float = 1e-8) -> None:
    assert abs(exact - estimate) <= max(floor, rel * abs(exact)), \
        f"exact={exact!r} estimate={estimate!r}"
