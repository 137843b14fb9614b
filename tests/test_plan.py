"""An objective planned for one solve (``engine._Planned``) finds the terms
that read a free coordinate and builds each order's scatter layout once,
yet its energies and derivatives are bitwise what ``Objective.value`` and
``Objective.derivatives`` give at every point the solve can reach: the
start columns with their free coordinates moved.  Its domain errors are
theirs too."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escm import EnergyDomainError, parse_model
from escm.corpus import random_quadratic_model
from escm.engine import Objective, Point, _Planned
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
