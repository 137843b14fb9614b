"""An objective planned for one solve (``engine._Planned``) finds the terms
that read a free coordinate and builds each order's scatter layout once,
keeps the values of the other terms and the blocks of the last point it
summed, and keeps Hessians that codegen flags as reading no free
coordinate; yet its energies and derivatives are bitwise what
``Objective.value`` and ``Objective.derivatives`` give at every point the
solve can reach: the start columns with their free coordinates moved.  Its
domain errors are theirs too."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escm import EnergyDomainError, codegen, parse_model, solve
from escm.corpus import random_quadratic_model
from escm.engine import Objective, Point, _Planned
from escm.solver import SolverConfig, _newton
from tests.genmodels import random_smooth_model


def _bytes(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _at(model, x: np.ndarray) -> Point:
    """One column as its 1-D point, as the solver evaluates it."""
    return Point.from_flat(model, x[:, 0] if x.shape[1] == 1 else x)


def _same_everywhere(objective: Objective, planned: _Planned, free: list[int],
                     x: np.ndarray) -> None:
    point = _at(objective.model, x)
    assert _bytes(planned.value(point)) == _bytes(objective.value(point))
    for order in (1, 2):
        got = planned.derivatives(point, order=order, active=free)
        want = objective.derivatives(point, order=order, active=free)
        assert got.grad.shape == want.grad.shape and _bytes(got.grad) == _bytes(want.grad)
        if order == 2:
            assert got.hess.shape == want.hess.shape and _bytes(got.hess) == _bytes(want.hess)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), corpus=st.booleans(), width=st.sampled_from([1, 3]),
       picks=st.lists(st.integers(0, 127), max_size=10))
def test_a_planned_objective_is_bitwise_the_objective_where_its_solve_goes(seed, corpus,
                                                                          width, picks):
    rng = np.random.default_rng(seed)
    if corpus:
        model = parse_model(random_quadratic_model(rng, int(rng.integers(2, 9)), density=0.3))
    else:
        model = random_smooth_model(rng, max_nodes=5)
    objective = Objective.from_model(model)
    state = [*model.coords("z"), *model.coords("u")]
    free = list(dict.fromkeys(state[p % len(state)] for p in picks))
    # points in [-1, 1], where every term of a smooth model is defined
    x = np.vstack([rng.uniform(-1.0, 1.0, (len(state), width)),
                   np.tile(model.theta_defaults(), (width, 1)).T])

    planned = _Planned(objective, free)
    _same_everywhere(objective, planned, free, x)  # the start
    for _ in range(2):  # the points a solve moves to
        x[free] = rng.uniform(-1.0, 1.0, (len(free), width))
        _same_everywhere(objective, planned, free, x)
    # some of the columns, as stopped columns and damped steps leave them
    for cols in ([0], [width - 1], [0, width - 1]):
        if len(cols) <= width:
            _same_everywhere(objective, planned, free, x[:, cols])


_BARRIER = {
    "variables": [{"name": "Z1", "kind": "endogenous"}, {"name": "Z2", "kind": "endogenous"},
                  {"name": "U1", "kind": "exogenous"}],
    "edges": [["Z1", "Z2"]],
    "terms": [{"owner": "local:Z1", "expr": "0.5*sq(z.Z1 - u.U1) - 0.5*log(z.Z1 + 1.2)"},
              {"owner": "local:Z2", "expr": "0.5*sq(z.Z2 - 0.3*z.Z1) - log(z.Z2 + 2)"},
              {"owner": "exo:U1", "expr": "0.5*sq(u.U1) - log(u.U1 + 1)"}],
}


def _outcome(fn):
    try:
        return _bytes(fn())
    except EnergyDomainError as error:
        return type(error), str(error)


# (free names, start columns of (Z1, Z2, U1), the free values it moves to)
_CASES = {
    "a free barrier left": (["Z1"], [[0.0, 0.0, 0.5]], [[-2.0]]),
    "a fixed barrier left at the start": (["Z2"], [[-2.0, 0.0, 0.5]], [[0.1]]),
    "a fixed term fails before a free one": (["Z2"], [[-2.0, -3.0, 0.5]], [[0.0]]),
    "a free term fails before a fixed one": (["Z1"], [[-2.0, 0.0, -2.0]], [[0.0]]),
    "one column of a batch left": (["Z1", "Z2"], [[0.0, 0.0, 0.5], [0.1, 0.2, 0.0]],
                                   [[0.3, -1.5], [0.2, -2.5]]),
}


@pytest.mark.parametrize("names, start, moved", _CASES.values(), ids=_CASES.keys())
def test_a_planned_objective_raises_the_domain_error_of_the_objective(names, start, moved):
    model = parse_model(_BARRIER)
    objective = Objective.from_model(model)
    free = [model.parse_coord(f"z.{name}") for name in names]
    x = np.vstack([np.array(start).T, np.tile(model.theta_defaults(), (len(start), 1)).T])
    planned = _Planned(objective, free)
    for step in (None, moved):
        if step is not None:
            x[free] = np.array(step)
        point = _at(model, x)
        want = _outcome(lambda: objective.value(point))
        assert _outcome(lambda: planned.value(point)) == want
        for order in (1, 2):
            assert (_outcome(lambda: planned.derivatives(point, order=order, active=free).grad)
                    == _outcome(lambda: objective.derivatives(point, order=order,
                                                              active=free).grad))
        if not isinstance(want, bytes):  # no solve goes on from a start outside the domain
            break
    assert not isinstance(want, bytes)  # every case leaves the domain somewhere


# -- kept Hessians --------------------------------------------------------------

_GOLDEN_MODELS = sorted((Path(__file__).parent / "golden" / "models").glob("*.json"))


def _models():
    for path in _GOLDEN_MODELS:
        yield parse_model(json.loads(path.read_text(encoding="utf-8")), mask_policy="warn")
    rng = np.random.default_rng(31)
    for _ in range(4):
        yield parse_model(random_quadratic_model(rng, int(rng.integers(2, 12)), density=0.3))
    for _ in range(30):
        yield random_smooth_model(rng, max_nodes=5)


def _hessian(active: codegen._ActiveTerms, x: np.ndarray):
    try:
        return np.asarray(active.blocks(x, 2)[0][2], dtype=float).tobytes()
    except EnergyDomainError:
        return None


def test_a_hessian_codegen_calls_fixed_is_the_same_wherever_its_active_coordinates_go():
    rng = np.random.default_rng(7)
    flagged = unflagged = compared = 0
    for model in _models():
        state = [*model.coords("z"), *model.coords("u")]
        for term in model.terms:
            refs = [ref for ref in term.objective_term.refs if ref in state]
            if not refs:
                continue
            for _ in range(3):
                chosen = rng.permutation(refs)[:int(rng.integers(1, len(refs) + 1))]
                active = codegen._ActiveTerms([term.objective_term],
                                              {int(ref): j for j, ref in enumerate(chosen)})
                if not active.fixed_hessian(False):
                    unflagged += 1
                    continue
                flagged += 1
                x = np.concatenate([rng.uniform(-1.0, 1.0, len(state)), model.theta_defaults()])
                want = _hessian(active, x)
                for _ in range(2):
                    x[chosen] = rng.uniform(-1.0, 1.0, len(chosen))
                    got = _hessian(active, x)
                    if want is not None and got is not None:
                        assert got == want, (term.owner, chosen)
                        compared += 1
    assert flagged > 300 and unflagged > 200 and compared > 600


# -- energies of planned solves ---------------------------------------------------


def _recorded(monkeypatch):
    """Every energy an objective gives, planned or whole (as damped trials
    take theirs), with a copy of its point."""
    calls = []
    value = Objective.value

    def recording(objective, point):
        energy = value(objective, point)
        calls.append((objective.terms, point.x.copy(), np.array(energy)))
        return energy

    monkeypatch.setattr(Objective, "value", recording)
    return calls


def _check_energies(model, calls, traces, x):
    # each energy is bitwise the plain sum at its point, and so is every
    # accepted iterate's, the last one included
    calls = list(calls)  # the sums below are recorded too
    assert calls
    for terms, at, energy in calls:
        plain = Objective(model, terms).value(Point.from_flat(model, at))
        assert np.array(plain).tobytes() == energy.tobytes()
    summed = {e for _, _, energy in calls for e in energy.ravel().tolist()}
    for j, trace in enumerate(traces):
        assert set(trace) <= summed
        plain = Objective(model, calls[0][0]).value(Point.from_flat(model, x[:, j]))
        assert plain == trace[-1]


_BUMPY = {
    "variables": [{"name": "Z1", "kind": "endogenous"}, {"name": "U1", "kind": "exogenous"}],
    "edges": [],
    "terms": [{"owner": "local:Z1",
               "expr": "log(1 + sq(z.Z1 - u.U1)) + 0.05*sq(z.Z1) - 0.5*log(z.Z1 + 2)"},
              {"owner": "exo:U1", "expr": "0.5*sq(u.U1)"}],
}


@pytest.mark.parametrize("u", [0.0, 0.8, -1.0, 0.58])
def test_a_planned_solve_sums_every_iterate_as_the_objective(monkeypatch, u):
    # undamped, damped, out-of-domain and long solves of the bumpy slice
    model = parse_model(_BUMPY)
    calls = _recorded(monkeypatch)
    eq = solve(model, clamps={"u.U1": u})
    assert eq.iterations >= 3
    _check_energies(model, calls, [eq.energy_trace], eq.point.x[:, None])


def test_a_planned_batch_sums_every_iterate_as_the_objective_as_columns_stop(monkeypatch):
    # bumpy columns stop after 3 to 7 iterations, damped or not; of the
    # corpus columns one starts at its minimum and stops at once, and the
    # other takes its step alone, as one point
    bumpy = parse_model(_BUMPY)
    corpus = parse_model(random_quadratic_model(np.random.default_rng(3), 12, density=0.3))
    clamps = {ref: 0.1 * j for j, ref in enumerate(corpus.coords("u"))}
    done = solve(corpus, clamps=clamps).point.x
    corpus_x = np.column_stack([done, done])
    corpus_x[corpus.coords("z"), 1] = 0.0
    bumpy_x = np.array([[0.0] * 4, [0.0, 0.8, -1.0, 0.58]])  # (z.Z1, u.U1) columns
    for model, x in ((bumpy, bumpy_x), (corpus, corpus_x)):
        calls = _recorded(monkeypatch)
        traces = _newton(Objective.from_model(model), list(model.coords("z")), x, SolverConfig())[0]
        assert len({len(trace) for trace in traces}) > 1  # the columns stop apart
        _check_energies(model, calls, traces, x)
        monkeypatch.undo()


def test_a_candidate_whose_derivatives_overflow_raises_where_the_objective_does(monkeypatch):
    # the Newton step from 0 lands near 1e90, where 1/(z + 1e70) is finite
    # and lower in energy, but a derivative powers z + 1e70 beyond the float
    # range: the candidate is accepted on its value, and the next
    # derivatives call raises
    model = parse_model({"variables": [{"name": "Z1", "kind": "endogenous"}], "edges": [],
                         "terms": [{"owner": "local:Z1",
                                    "expr": "1e-90*0.5*sq(z.Z1) - z.Z1 + 1/(z.Z1 + 1e70)"}]})
    calls = []
    derivatives = Objective.derivatives

    def tracing(objective, point, *args, **kwargs):
        calls.append(point.x.copy())
        return derivatives(objective, point, *args, **kwargs)

    monkeypatch.setattr(Objective, "derivatives", tracing)
    values = _recorded(monkeypatch)
    with pytest.raises(EnergyDomainError, match="numeric overflow in term 'Z1'"):
        solve(model)
    (_, start, _), (_, candidate, energy) = values
    assert [c.tobytes() for c in calls] == [start.tobytes(), candidate.tobytes()]
    assert energy < 0.0
    with pytest.raises(EnergyDomainError, match="numeric overflow in term 'Z1'"):
        derivatives(Objective.from_model(model), Point.from_flat(model, candidate))
