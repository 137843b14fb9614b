"""Equilibrium solver behavior and effective Hessians."""

import dataclasses
import warnings

import numpy as np
import pytest
from scipy.optimize import bisect

from escm import (
    EnergyDomainError,
    Point,
    QueryError,
    SingularSystemError,
    SolverConfig,
    SolverError,
    parse_model,
    schur_effective_hessian,
    evaluate,
    solve,
)
from escm.corpus import random_quadratic_model
from escm.reduction import forward_init
from escm.solver import normalize_clamps, normalize_refs
from tests.genmodels import random_smooth_model


def one_var(expr: str) -> dict:
    return {
        "variables": [{"name": "Z1", "kind": "endogenous"}],
        "edges": [],
        "terms": [{"owner": "local:Z1", "expr": expr}],
    }


def test_chain2_equilibrium(chain2):
    eq = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5})
    assert np.allclose(eq.point.z, [1.0, 2.5], atol=1e-12)
    assert eq.residual < 1e-10
    assert eq.hessian_pd
    assert eq.point.u[0] == 1.0 and eq.point.u[1] == 0.5  # bit-exact clamps


def test_single_quadratic_one_newton_step():
    model = parse_model(one_var("0.5*sq(z.Z1 - 3)"))
    eq = solve(model)
    assert eq.iterations == 1
    assert eq.point.z[0] == pytest.approx(3.0, abs=1e-12)
    assert eq.residual <= 1e-12


def test_strongly_convex_quadratics_two_newton_iterations(chain2):
    eq = solve(chain2, clamps={"u.U1": -1.3, "u.U2": 0.7})
    assert eq.iterations <= 2
    assert eq.residual <= 1e-12


def test_quartic_against_bisection_oracle():
    model = parse_model(one_var("0.25*pow(z.Z1, 4) - z.Z1"))
    eq = solve(model)
    root = bisect(lambda x: x ** 3 - 1.0, 0.0, 2.0, xtol=1e-12)
    assert eq.point.z[0] == pytest.approx(root, abs=1e-8)


def test_energy_monotonic_trace():
    model = parse_model(one_var("0.25*pow(z.Z1, 4) + exp(-z.Z1) - z.Z1"))
    eq = solve(model)
    trace = eq.energy_trace
    assert all(b <= a for a, b in zip(trace, trace[1:]))


def test_clamped_coordinates_bit_exact(chain2):
    value = 0.1 + 0.2  # not exactly representable as 0.3
    eq = solve(chain2, clamps={"z.Z1": value, "u.U1": 1.0, "u.U2": 0.5})
    assert eq.point.z[0] == value


def test_free_and_clamped_must_be_disjoint(chain2):
    with pytest.raises(QueryError):
        solve(chain2, clamps={"z.Z1": 0.0}, free=["z.Z1", "z.Z2"])
    with pytest.raises(QueryError):
        solve(chain2, free=["theta.Z2.a"])


_FREE_LIST_ERRORS = {
    "theta": ({"free": ["theta.Z2.a"]}, "theta coordinates cannot be solved for"),
    "duplicate": ({"free": ["z.Z2", "z.Z2"]}, "duplicate free coordinates"),
    "clamped": ({"clamps": {"z.Z2": 1.0}, "free": ["z.Z2"]},
                "coordinate z.Z2 is both free and clamped"),
}


@pytest.mark.parametrize("kwargs, message", _FREE_LIST_ERRORS.values(),
                         ids=_FREE_LIST_ERRORS.keys())
def test_each_bad_free_list_has_its_message(chain2, kwargs, message):
    with pytest.raises(QueryError) as raised:
        solve(chain2, **kwargs)
    assert str(raised.value) == message


def test_an_overflowing_trial_point_is_rejected():
    # from 0 the Newton step is about 2.2e4, where exp overflows: the trial
    # reads an infinite energy, and damped steps reach the minimum near 10
    model = parse_model(one_var("1e-12*sq(z.Z1) - z.Z1 + exp(z.Z1 - 10)"))
    start = Point.for_model(model)
    trial = Point.for_model(model, z=[1.0 / (2e-12 + np.exp(-10.0))])
    with pytest.raises(EnergyDomainError, match="numeric overflow in term 'Z1'"):
        evaluate(model, trial)
    eq = solve(model, init_point=start)
    assert eq.point.z[0] == pytest.approx(10.0, abs=1e-9)
    assert eq.residual <= 1e-10


def test_non_convergence_raises_with_diagnostics():
    # pure Newton on a quartic contracts by 2/3 per step; 3 steps cannot
    # reach the 1e-10 residual from z=0
    model = parse_model(one_var("0.25*pow(z.Z1 - 5, 4)"))
    with pytest.raises(SolverError) as err:
        solve(model, cfg=SolverConfig(max_iter=3))
    assert "iterations" in err.value.diagnostics
    solve(model)  # default budget converges


def test_unbounded_energy_fails_cleanly():
    model = parse_model(one_var("-sq(z.Z1) + z.Z1"))
    with pytest.raises(SolverError):
        solve(model, cfg=SolverConfig(max_iter=50))


def test_an_unbounded_energy_fails_the_same_with_warnings_as_errors():
    # the damped fallback of this model's solve squares a gradient of about
    # 1e210, which overflows; it is the ninth of this seed's first 150
    # models to do so
    rng = np.random.default_rng(5)
    model = [random_smooth_model(rng, 6) for _ in range(67)][-1]
    outcomes = []
    for action in ("ignore", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(SingularSystemError) as raised:
                solve(model)
        diagnostics = dict(raised.value.diagnostics)
        diagnostics["point"] = diagnostics["point"].x.tobytes()
        outcomes.append((str(raised.value), diagnostics))
    assert outcomes[1] == outcomes[0]
    assert outcomes[0][1]["residual"] > 1e200


def test_forward_scm_init_lands_on_solution(chain2):
    clamps = normalize_clamps(chain2, {"u.U1": 1.0, "u.U2": 0.5})
    eq = solve(chain2, clamps=clamps, init_point=forward_init(chain2, clamps))
    assert eq.iterations == 0  # the warm start is already stationary
    assert np.allclose(eq.point.z, [1.0, 2.5], atol=1e-12)


@pytest.mark.parametrize("init", ["zeros", "forward-scm"])
def test_a_given_initial_point_is_the_start_theta_included(chain2, init):
    # z.Z2 = a*z.Z1 + u.U2 with the start's a = 3, not the default 2
    clamps = {"u.U1": 1.0, "u.U2": 0.5}
    start = (Point.for_model(chain2) if init == "zeros"
             else forward_init(chain2, normalize_clamps(chain2, clamps)))
    start.theta[:] += 1.0
    z_start = start.z.tolist()
    eq = solve(chain2, clamps=clamps, init_point=start)
    assert np.allclose(eq.point.z, [1.0, 3.5], atol=1e-12)
    assert eq.point.theta.tolist() == [3.0]
    assert start.z.tolist() == z_start  # the start is copied, not moved
    # with no point the solve starts from zeros at the default parameters
    assert np.allclose(solve(chain2, clamps=clamps).point.z, [1.0, 2.5], atol=1e-12)


def test_the_solver_config_holds_only_the_stopping_rule():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol_grad", "max_iter"]
    for bad in ("a", 2.5, True, None):
        with pytest.raises(QueryError, match="max_iter is not an integer"):
            SolverConfig(max_iter=bad)
    assert SolverConfig(max_iter=np.int64(3)).max_iter == 3


def test_fully_clamped_solve_is_an_echo(chain2):
    eq = solve(chain2, clamps={"z.Z1": 1.0, "z.Z2": 2.0, "u.U1": 0.0, "u.U2": 0.0})
    assert eq.iterations == 0
    assert eq.residual == 0.0
    assert eq.hessian_pd


def test_saddle_flagged_not_pd():
    spec = {
        "variables": [{"name": "Z1", "kind": "endogenous"},
                      {"name": "Z2", "kind": "endogenous"}],
        "edges": [],
        "terms": [
            {"owner": "local:Z1", "expr": "0.5*sq(z.Z1)"},
            {"owner": "local:Z2", "expr": "-0.5*sq(z.Z2)"},
        ],
    }
    model = parse_model(spec)
    # zeros is exactly the stationary saddle; the solver stays and flags it
    eq = solve(model)
    assert eq.residual == 0.0
    assert not eq.hessian_pd


# ---------------------------------------------------------------------------
# Schur effective Hessians


def test_schur_chain2_by_hand():
    h = np.array([[5.0, -2.0], [-2.0, 1.0]])
    eff = schur_effective_hessian(h, keep=[0], mode="minimize")
    assert eff.tolist() == [[1.0]]


def test_schur_identity_when_nothing_eliminated():
    h = np.array([[5.0, -2.0], [-2.0, 1.0]])
    assert schur_effective_hessian(h, keep=[0, 1]).tolist() == h.tolist()


def test_schur_rank_one_collapses_to_zero():
    h = np.ones((2, 2))
    eff = schur_effective_hessian(h, keep=[0], mode="minimize")
    assert eff.tolist() == [[0.0]]


def test_schur_clamp_mode_is_submatrix():
    h = np.array([[5.0, -2.0], [-2.0, 1.0]])
    eff = schur_effective_hessian(h, keep=[0], mode="clamp")
    assert eff.tolist() == [[5.0]]


def test_schur_singular_eliminated_block():
    h = np.array([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SingularSystemError):
        schur_effective_hessian(h, keep=[0], mode="minimize")


def test_schur_consistency_with_analytic_reduction():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        h = a @ a.T + 4.0 * np.eye(4)
        keep = [0, 2]
        eff = schur_effective_hessian(h, keep=keep, mode="minimize")
        # analytic: minimize the quadratic over the complement, read the
        # reduced quadratic's second derivatives
        drop = [1, 3]
        h_cc = h[np.ix_(drop, drop)]
        h_cf = h[np.ix_(drop, keep)]
        reduced = h[np.ix_(keep, keep)] - h_cf.T @ np.linalg.inv(h_cc) @ h_cf
        assert np.allclose(eff, reduced, atol=1e-12)


def test_schur_consistency_with_numerical_oracle():
    # independent route: numerically minimize out the complement and take
    # central second differences of the reduced objective
    from scipy.optimize import minimize

    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4))
    h = a @ a.T + 4.0 * np.eye(4)
    keep, drop = [0, 2], [1, 3]

    def reduced_value(f):
        def q(c):
            x = np.zeros(4)
            x[keep] = f
            x[drop] = c
            return 0.5 * x @ h @ x

        res = minimize(q, np.zeros(2), method="BFGS",
                       options={"gtol": 1e-12})
        return res.fun

    f0 = np.array([0.3, -0.7])
    step = 1e-3
    fd = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            pp = f0.copy(); pp[i] += step; pp[j] += step
            pm = f0.copy(); pm[i] += step; pm[j] -= step
            mp = f0.copy(); mp[i] -= step; mp[j] += step
            mm = f0.copy(); mm[i] -= step; mm[j] -= step
            fd[i, j] = (reduced_value(pp) - reduced_value(pm)
                        - reduced_value(mp) + reduced_value(mm)) / (4 * step ** 2)
    eff = schur_effective_hessian(h, keep=keep, mode="minimize")
    assert np.allclose(eff, fd, atol=1e-4)


# ---------------------------------------------------------------------------
# Flat coordinates


@pytest.mark.parametrize("kwargs", [
    {"clamps": {("u", -1): 0.5, ("u", 0): 1.0}},
    {"clamps": {("u", -1): 0.5}},
    {"clamps": {("z", 99): 1.0}},
    {"clamps": {("w", 0): 1.0}},
    {"clamps": {5: 1.0}},
    {"free": [("z", 5)]},
    {"free": [("z", -1)]},
    {"free": [-1]},
    {"free": [("z", 1.0)]},
])
def test_out_of_range_coordinates_are_query_errors(chain2, kwargs):
    with pytest.raises(QueryError):
        solve(chain2, **kwargs)


def test_label_pair_and_flat_index_normalize_to_the_same_index(chain2):
    for label, pair in [("z.Z2", ("z", 1)), ("u.U1", ("u", 0)), ("theta.Z2.a", ("theta", 0))]:
        flat = chain2.parse_coord(label)
        assert normalize_refs(chain2, [label, pair, flat]) == [flat] * 3
    assert normalize_clamps(chain2, {"u.U2": 0.5, ("u", 1): 0.5, 3: 0.5}) == {3: 0.5}
    with pytest.raises(QueryError):
        normalize_clamps(chain2, {"u.U2": 0.5, ("u", 1): 1.0})


def test_parse_coord_and_coord_label_round_trip():
    model = parse_model({
        "variables": [{"name": "V", "kind": "endogenous", "dim": 3},
                      {"name": "W", "kind": "endogenous"},
                      {"name": "A", "kind": "exogenous", "dim": 2}],
        "edges": [["V", "W"]],
        "terms": [
            {"owner": "local:V", "expr": "0.5*(sq(z.V[0] - u.A[1]) + sq(z.V[1]) + sq(z.V[2]))"},
            {"owner": "local:W", "expr": "0.5*sq(z.W - theta.W.a*z.V[2] - theta.W.b)",
             "params": {"b": 2, "a": 1}},
            {"owner": "exo:A", "expr": "0.5*(sq(u.A[0]) + sq(u.A[1]))"},
        ],
    })
    labels = [model.coord_label(i) for i in range(model.dim)]
    assert labels == ["z.V[0]", "z.V[1]", "z.V[2]", "z.W", "u.A[0]", "u.A[1]",
                      "theta.W.a", "theta.W.b"]
    corpus = parse_model(random_quadratic_model(np.random.default_rng(0), 12, density=0.3))
    for m in (model, corpus):
        for index in range(m.dim):
            label = m.coord_label(index)
            assert m.parse_coord(label) == index
            assert m.parse_coord(label.replace(".", " . ")) == index  # parsed, not looked up
    assert corpus.parse_coord("(z.Z1)") == corpus.parse_coord("z.Z1")  # parentheses make no node
    assert corpus.parse_coord("((z.Z2))") == corpus.parse_coord("z.Z2")
    for bad in (-1, model.dim):
        with pytest.raises(QueryError):
            model.coord_label(bad)


def test_point_views_write_the_flat_array(chain2):
    p = Point.for_model(chain2)
    p.z[0] = 3.0
    p.u[1] = -1.0
    p.theta[0] = 5.0
    assert p.x.tolist() == [3.0, 0.0, 0.0, -1.0, 5.0]
    q = p.copy()
    q.x[0] = 7.0
    assert p.z[0] == 3.0 and q.z[0] == 7.0


def test_solver_metadata_is_computed_when_first_read(chain2, monkeypatch):
    calls = []
    cond, cholesky = np.linalg.cond, np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cond", lambda a: calls.append("cond") or cond(a))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append("cholesky") or cholesky(a))
    eq = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5})
    assert calls == []
    for _ in range(2):
        assert eq.condition_number == cond(eq.hessian)
        assert eq.hessian_pd is True
    assert calls == ["cond", "cholesky"]
