"""Fuzz of the public Python checks, penalties, queries, oracle checks and
matrix helpers on chain2 with dynamics: names, pairs, ``eliminate`` values,
penalty weights, readouts, sampler specs, statistics, trial counts, seeds,
solver budgets, contexts, start points, sample points, matrices and index
lists of any shape, hashable or not.  Whatever the arguments, a
call returns or raises an ``EscmError``; no ``TypeError`` or other bare
exception escapes."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from escm import (
    EscmError,
    Point,
    SolverConfig,
    counterfactual,
    disjunctive_envelope,
    disjunctive_select,
    dyn_icm_check,
    dyn_lap_check,
    effective_energy_pair,
    equivalence_check,
    hard,
    icm_check,
    icm_penalty,
    lap_check,
    lap_penalty,
    parse_model,
    pushforward_check,
    schur_effective_hessian,
    solve,
)
from escm.diagnostics import metric_in_chart
from escm.dynamics import dyn_icm_penalty, dyn_lap_penalty
from escm.reduction import contraction_factor, induce_scm, scm_solve
from tests.conftest import CHAIN2_DYNAMICS, chain2_dict

_SPEC = chain2_dict()
_SPEC["dynamics"] = CHAIN2_DYNAMICS
MODEL = parse_model(_SPEC)
POINT = Point.for_model(MODEL, z=[0.5, -0.3], u=[0.2, 0.1])

_SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=6)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from(["Z1", "Z2", "U1", "U2", "Nope", "global", "z.Z1", "",
                               10 ** 400]))  # an int beyond the float range
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.tuples(inner, inner)
                       | st.dictionaries(_SCALARS.filter(lambda v: v == v), inner, max_size=3),
                       max_leaves=6)
_NAMES = st.sampled_from(["Z1", "Z2"]) | _VALUES
_KEYS = (st.tuples(st.sampled_from(["Z1", "Z2"]), st.sampled_from(["Z1", "Z2"]))
         | st.tuples(_SCALARS, _SCALARS) | _SCALARS)  # pairs, nodes and others
_WEIGHTS = _VALUES | st.dictionaries(_KEYS, _VALUES, max_size=3)


def _only_escm_errors(*calls):
    for call in calls:
        try:
            call()
        except EscmError:
            pass


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(a=_NAMES, i=_NAMES, eliminate=_VALUES | st.lists(_NAMES, max_size=3))
@example(a="Z2", i=["Z1"], eliminate=None)
def test_a_check_of_any_names_raises_only_escm_errors(a, i, eliminate):
    _only_escm_errors(
        lambda: lap_check(MODEL, a, i, POINT),
        lambda: dyn_lap_check(MODEL, a, i, POINT),
        lambda: dyn_lap_check(MODEL, "Z2", "Z1", POINT, eliminate=eliminate),
        lambda: dyn_lap_check(MODEL, a, i, POINT, eliminate=eliminate),
        lambda: icm_check(MODEL, i, POINT),
        lambda: dyn_icm_check(MODEL, i, POINT),
        lambda: effective_energy_pair(MODEL, a, i, POINT).cross_zz(),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(first=_WEIGHTS, second=_WEIGHTS, default=_VALUES)
@example(first=10 ** 400, second={("Z2", "Z1"): 10 ** 400}, default=10 ** 400)
def test_a_penalty_of_any_weights_raises_only_escm_errors(first, second, default):
    _only_escm_errors(
        lambda: lap_penalty(MODEL, [POINT], lam=first, mu=second, default=default),
        lambda: icm_penalty(MODEL, [POINT], alpha=first, beta=second, default=default),
        lambda: dyn_lap_penalty(MODEL, [POINT], lam=first, mu=second),
        lambda: dyn_icm_penalty(MODEL, [POINT], alpha=first, beta=second),
    )


EVIDENCE = {"z.Z2": 1.0}
SAMPLER = {"U1": {"dist": "uniform", "lo": -1, "hi": 1}, "U2": {"dist": "gauss"}}
# a trial count runs that many draws, so an integer one stays small
_COUNTS = st.integers(-2, 3) | _VALUES.filter(
    lambda v: not isinstance(v, int) or isinstance(v, bool))
_SAMPLERS = _VALUES | st.fixed_dictionaries({"U1": _VALUES, "U2": st.just({"dist": "gauss"})})


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(readouts=_VALUES, sampler=_SAMPLERS, statistics=_VALUES, trials=_COUNTS,
       seed=_VALUES, max_iter=_VALUES)
@example(readouts=["z.Z1"], sampler=[1], statistics=["z.Z1"], trials=2.5, seed=1.5,
         max_iter="a")
@example(readouts="z.Z1", sampler=SAMPLER, statistics={"a": "z.Z1"}, trials="3", seed=0,
         max_iter=2.5)
@example(readouts=None, sampler=SAMPLER, statistics=None, trials=2, seed=1.5, max_iter=None)
def test_a_query_or_oracle_check_of_any_inputs_raises_only_escm_errors(
        readouts, sampler, statistics, trials, seed, max_iter):
    edit = hard(MODEL, "Z1", 0.0)
    _only_escm_errors(
        lambda: counterfactual(MODEL, EVIDENCE, [edit], readouts=readouts),
        lambda: disjunctive_envelope(MODEL, EVIDENCE, "Z1", [0.0, 1.0], readouts),
        lambda: disjunctive_select(MODEL, EVIDENCE, "Z1", [0.0, 1.0], readouts=readouts),
        lambda: pushforward_check(MODEL, sampler, trials=2, seed=0),
        lambda: pushforward_check(MODEL, SAMPLER, trials=2, statistics=statistics, seed=0),
        lambda: pushforward_check(MODEL, SAMPLER, trials=trials, seed=seed),
        lambda: equivalence_check(MODEL, trials=trials, seed=seed),
        lambda: SolverConfig(max_iter=max_iter),
    )


SCM = induce_scm(MODEL)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(first=_VALUES, second=_VALUES)
@example(first="ab", second="a")
@example(first=None, second="x")
@example(first=[[1e308]], second=[[1e308]])
def test_a_solve_or_matrix_helper_of_any_arguments_raises_only_escm_errors(first, second):
    _only_escm_errors(
        lambda: scm_solve(SCM, first),
        lambda: scm_solve(SCM, [0.1, 0.2], theta=first),
        lambda: contraction_factor(MODEL, first),
        lambda: contraction_factor(MODEL, [POINT, first]),
        lambda: schur_effective_hessian(first, second),
        lambda: schur_effective_hessian(np.eye(2), first, mode=second),
        lambda: metric_in_chart(first, second),
        lambda: metric_in_chart(np.eye(2), first),
        lambda: solve(MODEL, init_point=first),
    )
