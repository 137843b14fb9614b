"""Batched evaluation: jets, Newton iterations and root finding over many
points at once give bitwise the per-point results and raise the per-point
errors."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from escm import SolverConfig, equivalence_check, parse_model, pushforward_check, solve
from escm import reduction, solver
from escm.causal import HardSurgery, apply_surgery
from escm.engine import Objective, Point
from escm.errors import EnergyDomainError, QueryError, SolverError
from escm.expr import compile_expr, parse_expr
from escm.model import ObjectiveTerm
from tests.conftest import chain2_dict

# -- jets -------------------------------------------------------------------

_LEAVES = ("z.Z1", "z.Z2", "u.U1", "u.U2", "1.5", "0.5")
_VALUES = (-1.5, -0.5, 0.0, 0.25, 1.0, 2.0)
_BATCH = 4


def _expressions():
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            inner.map(lambda e: f"(-{e})"),
            st.tuples(st.sampled_from(("exp", "log", "tanh", "sq")), inner).map(
                lambda t: f"{t[0]}({t[1]})"),
            st.tuples(inner, st.integers(-2, 3)).map(lambda t: f"pow({t[0]}, {t[1]})"),
        )
    return st.recursive(st.sampled_from(_LEAVES), extend, max_leaves=6)


def _outcome(fn):
    try:
        return fn(), None
    except Exception as err:  # compared with the batch's error below
        return None, err


def _arrays(jet):
    if not hasattr(jet, "grad"):
        return [np.asarray(jet, dtype=float)]
    return [np.asarray(a, dtype=float) for a in (jet.value, jet.grad, jet.hess, jet.third)
            if a is not None]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(source=_expressions(),
       points=st.lists(st.lists(st.sampled_from(_VALUES), min_size=4, max_size=4),
                       min_size=_BATCH, max_size=_BATCH),
       order=st.integers(1, 3))
@example(source="(-exp(z.Z1) / log(u.U1 + 3)) * tanh(z.Z2) - pow(sq(z.Z1 + u.U2), -2) + 0.5",
         points=[[0.25, -0.5, 1.0, 2.0]] * _BATCH, order=3)
@example(source="log(z.Z1)", points=[[1.0, 0, 0, 0], [0.0, 0, 0, 0], [2.0, 0, 0, 0],
                                     [0.25, 0, 0, 0]], order=2)
@example(source="1.5 / (u.U2 - z.Z2)", points=[[0, 1.0, 0, 0.5], [0, 0.5, 0, 0.5],
                                               [0, 2.0, 0, 1.0], [0, 0, 0, 1.0]], order=1)
@example(source="z.Z1 * (1.5 / u.U2)", points=[[1.0, 0, 0, 0.5], [1.0, 0, 0, 2.0],
                                               [1.0, 0, 0, 0.0], [1.0, 0, 0, 1.0]], order=2)
def test_batched_jets_are_bitwise_the_single_point_jets(source, points, order):
    model = parse_model(chain2_dict())
    term = ObjectiveTerm("global", [(1.0, compile_expr(parse_expr(source),
                                                       model.readout_resolver()))])
    objective = Objective(model, [term])
    active = [0, 1, 2]  # u.U2 stays frozen: a plain batch array
    x = np.concatenate([np.array(points, dtype=float).T, model.theta_defaults()[:, None]
                        .repeat(_BATCH, axis=1)])

    def jet(columns):
        return objective.term_jet(term, Point.from_flat(model, columns), active, order)

    singles = [_outcome(lambda j=j: (jet(x[:, j]), objective.value(Point.from_flat(model, x[:, j]))))
               for j in range(_BATCH)]
    batch, error = _outcome(lambda: (jet(x), objective.value(Point.from_flat(model, x))))
    failures = [err for _, err in singles if err is not None]
    if not failures:
        assert error is None
        for j, (single, _) in enumerate(singles):
            for got, want in zip(_arrays(batch[0]), _arrays(single[0])):
                assert got[..., j].tobytes() == want.tobytes()
            assert batch[1][j].tobytes() == np.float64(single[1]).tobytes()
    elif len(failures) == 1:  # the batch fails as that point alone does
        assert type(error) is type(failures[0]) and str(error) == str(failures[0])
    else:
        assert any(type(error) is type(err) for err in failures)


def test_domain_error_names_the_failing_entry():
    model = parse_model(chain2_dict())
    term = ObjectiveTerm("local:Z2", [(1.0, compile_expr(parse_expr("log(z.Z1 - u.U1)"),
                                                         model.readout_resolver()))])
    x = np.zeros((model.dim, 3))
    x[0] = [2.0, -0.75, 1.0]  # only the middle entry leaves the domain
    with pytest.raises(EnergyDomainError) as batched:
        Objective(model, [term]).term_jet(term, Point.from_flat(model, x), [0], 2)
    with pytest.raises(EnergyDomainError) as alone:
        Objective(model, [term]).term_jet(term, Point.from_flat(model, x[:, 1]), [0], 2)
    assert str(batched.value) == str(alone.value)
    assert "-0.75" in str(alone.value) and "local:Z2" in str(alone.value)


# -- Newton -----------------------------------------------------------------

# Far from u the slice is concave, so an undamped step can go uphill or
# leave the log's domain; near u it converges undamped.
_BUMPY = {
    "variables": [{"name": "Z1", "kind": "endogenous"}, {"name": "U1", "kind": "exogenous"}],
    "edges": [],
    "terms": [{"owner": "local:Z1",
               "expr": "log(1 + sq(z.Z1 - u.U1)) + 0.05*sq(z.Z1) - 0.5*log(z.Z1 + 2)"},
              {"owner": "exo:U1", "expr": "0.5*sq(u.U1)"}],
}


def _solved_alone(*args, **kwargs):
    raise AssertionError("a draw was solved alone")


def test_batched_newton_takes_damped_steps_in_place(monkeypatch):
    model = parse_model(_BUMPY)
    edited = apply_surgery(model, [])
    # u = 0.0 converges in 3 undamped steps; 0.8 needs a damped first step;
    # -1.0's first undamped step leaves the domain of log(z + 2); 0.58
    # would need a sixth undamped step and meets max_iter
    u = np.array([[0.0, 0.8, -1.0, 0.58]])
    cfg = SolverConfig(max_iter=5)
    alone = [solve(edited.objective, clamps={"u.U1": v}, free=["z.Z1"], cfg=cfg).point.z
             for v in u[0, :3].tolist()]
    damped = []  # u of every column that takes a damped step
    fallback = solver._damped

    def spy(objective, free, x, *args):
        damped.append(float(x[model.coords("u")[0], 0]))
        return fallback(objective, free, x, *args)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_damped", spy)
        patch.setattr(reduction, "_energy_side", _solved_alone)
        z = reduction._energy_sides(model, u[:, :3], [edited] * 3, cfg)
    assert set(damped) == {0.8, -1.0}
    for j in range(3):
        assert z[:, j].tobytes() == alone[j].tobytes()

    with pytest.raises(SolverError) as batch:
        reduction._energy_sides(model, u, [edited] * 4, cfg)
    with pytest.raises(SolverError) as single:
        reduction._energy_side(model, u[:, 3], edited, cfg)
    assert str(batch.value) == str(single.value)
    z = reduction._energy_sides(model, u[:, :3], [edited] * 3, cfg)
    for j in range(3):
        assert z[:, j].tobytes() == reduction._energy_side(model, u[:, j], edited, cfg).tobytes()


def test_a_solve_evaluates_the_energy_once_at_its_start_and_once_per_candidate(monkeypatch):
    # perfbench's solver.solve.accept_ratio reads iterations over these
    # evaluations less one; a candidate outside the domain counts once
    model = parse_model(_BUMPY)
    calls = []
    value = Objective.value

    def counting(objective, point):
        calls.append(point.x.ndim)
        return value(objective, point)

    monkeypatch.setattr(Objective, "value", counting)
    counts = []
    for u in (0.0, 0.8, -1.0, 0.58, 2.0, -1.5):
        calls.clear()
        eq = solve(model, clamps={"u.U1": u})
        counts.append((len(calls), eq.iterations))
        assert set(calls) == {1}  # a lone point is evaluated in floats
    assert counts == [(4, 3), (18, 4), (15, 5), (7, 6), (24, 5), (25, 7)]


def _one_by_one(monkeypatch, check):
    """``check()`` with its draws evaluated in chunks, and one by one."""
    chunked = _outcome(check)
    monkeypatch.setattr(reduction, "_CHUNK", 1)
    alone = _outcome(check)
    monkeypatch.undo()
    return chunked, alone


# the bumpy slice on Z2, read through a parent Z1 that hard edits clamp
_BUMPY_CHAIN = {
    "variables": [{"name": "Z1", "kind": "endogenous"}, {"name": "Z2", "kind": "endogenous"},
                  {"name": "U1", "kind": "exogenous"}, {"name": "U2", "kind": "exogenous"}],
    "edges": [["Z1", "Z2"]],
    "terms": [{"owner": "local:Z1", "expr": "0.5*sq(z.Z1 - u.U1)"},
              {"owner": "local:Z2",
               "expr": "log(1 + sq(z.Z2 - z.Z1 - u.U2)) + 0.3*sq(z.Z2) - 0.5*log(z.Z2 + 1.2)"},
              {"owner": "exo:U1", "expr": "0.5*sq(u.U1)"},
              {"owner": "exo:U2", "expr": "0.5*sq(u.U2)"}],
}


def _hard_on_z1(rng, model, index):
    """Hard edits that all clamp Z1, each to its own value."""
    return [HardSurgery("Z1", (float(rng.uniform(-2.0, 2.0)),))]


def test_oracle_checks_match_their_draws_one_by_one(monkeypatch):
    # convex slices whose undamped steps may go uphill or below z = -1.2
    spec = {"variables": _BUMPY["variables"], "edges": [], "terms": [
        {"owner": "local:Z1",
         "expr": "log(1 + sq(z.Z1 - u.U1)) + 0.3*sq(z.Z1) - 0.5*log(z.Z1 + 1.2)"},
        {"owner": "exo:U1", "expr": "0.5*sq(u.U1)"}]}
    model = parse_model(spec)
    chain = parse_model(_BUMPY_CHAIN)
    sampler = {"U1": {"dist": "uniform", "lo": -2, "hi": 2}}
    outcomes = set()
    for seed, cfg in ((0, SolverConfig()), (1, SolverConfig()), (0, SolverConfig(max_iter=4))):
        for check in (lambda: pushforward_check(model, sampler, trials=30, seed=seed, cfg=cfg,
                                                statistics={"z": "z.Z1", "e": "exp(z.Z1)"}),
                      lambda: equivalence_check(model, trials=12, seed=seed, cfg=cfg),
                      lambda: equivalence_check(chain, trials=12, seed=seed, cfg=cfg,
                                                surgery_generator=_hard_on_z1)):
            (report, error), (report_alone, error_alone) = _one_by_one(monkeypatch, check)
            assert report == report_alone
            assert type(error) is type(error_alone) and str(error) == str(error_alone)
            outcomes.add(type(error).__name__ if error else "report")
    assert outcomes == {"report", "SolverError", "EnergyDomainError"}


def test_equivalence_check_draws_each_chunk_just_before_running_it(monkeypatch):
    model = parse_model(chain2_dict())
    drawn = []

    def counting(rng, model, index):
        drawn.append(index)
        if index == fail_at:
            raise QueryError(f"no edit for trial {index}")
        return reduction._default_surgery(rng, model, index)

    ran = []  # (trials drawn so far, trials in the chunk) at each chunk
    paired = reduction._paired

    def spy(scm, u, edits, readouts, cfg):
        ran.append((len(drawn), len(edits)))
        return paired(scm, u, edits, readouts, cfg)

    fail_at = None
    expected = equivalence_check(model, trials=10, seed=4)
    monkeypatch.setattr(reduction, "_paired", spy)
    monkeypatch.setattr(reduction, "_CHUNK", 4)
    assert equivalence_check(model, trials=10, seed=4, surgery_generator=counting) == expected
    assert ran == [(4, 4), (8, 4), (10, 2)]

    # a failing draw is raised after the trials before it have run
    drawn.clear()
    ran.clear()
    fail_at = 6
    with pytest.raises(QueryError, match="trial 6"):
        equivalence_check(model, trials=10, seed=4, surgery_generator=counting)
    assert ran == [(4, 4), (7, 2)]


def test_passing_checks_never_replay_their_draws(monkeypatch):
    model = parse_model((Path(__file__).parent / "golden" / "models" / "rq10.json")
                        .read_text(encoding="utf-8"))
    sampler = {v.name: {"dist": "gauss"} for v in model.exogenous}

    def replayed(*args, **kwargs):
        raise AssertionError("a draw replayed alone")

    monkeypatch.setattr(reduction.InducedScm, "_forward", replayed)
    assert pushforward_check(model, sampler, trials=40, seed=3,
                             statistics={"z": "z.Z1", "all": None}).passed
    assert equivalence_check(model, trials=30, seed=3).passed


# -- root finding -----------------------------------------------------------

_SLOPES = [
    lambda x: x ** 3 - 2.0,
    lambda x: math.exp(x) - 3.0,
    lambda x: math.tanh(x) - 0.3,
    lambda x: 1e-200 * (x - 0.3),  # products of values underflow
    lambda x: 1e-160 * (x - 0.3) ** 3,  # and extrapolation divides by 0
    lambda x: (x - 0.1) ** 5,
    lambda x: x + 1e-3 * math.sin(50 * x) - 0.2,
    lambda x: float(np.floor(4 * x)) - 1.5,  # flat pieces
    lambda x: math.nan if x > 2.0 else x - 0.4,
    lambda x: x + 2.0,  # no sign change
]


def test_brentq_port_matches_scipy():
    rng = np.random.default_rng(1)
    cases = [(f, rng.uniform(-5.0, 0.09), rng.uniform(0.8, 5.0)) for f in _SLOPES for _ in range(20)]
    cases += [(lambda x: x, 0.0, 1.0), (lambda x: x - 1.0, 0.0, 1.0)]

    def roots(keys):
        """The port's roots for the brackets ``keys``, run side by side."""
        steps = {}
        for k in keys:
            f, a, b = cases[k]
            steps[k] = reduction._brentq_steps(a, b, f(a), f(b))
        return reduction._lockstep(
            steps, lambda keys, xs: np.array([cases[k][0](x) for k, x in zip(keys, xs)]))

    found, errors = {}, []
    for k, (f, a, b) in enumerate(cases):
        root, error = _outcome(lambda: brentq(f, a, b, xtol=1e-14, rtol=4 * np.finfo(float).eps))
        alone, error_alone = _outcome(lambda: roots([k]))
        if error is None:
            assert error_alone is None and alone[k] == root
            found[k] = root
        else:
            assert type(error_alone) is type(error) and str(error_alone) == str(error)
            errors.append(error)
    assert {type(err) for err in errors} == {ValueError, RuntimeError}
    assert roots(found) == found  # the brackets that succeed, run side by side
