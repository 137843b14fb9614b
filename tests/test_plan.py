"""An objective planned for one solve (``engine._Planned``) takes the terms
that read a free coordinate and each order's scatter layout from a plan
(``engine._Plan``) that its model keeps for later solves over the same
terms and free list; it keeps the values of the other terms and the
blocks of the last point it summed, and its plan keeps a Hessian that
codegen flags as reading no free coordinate, keyed by the coordinates it
reads; yet its energies and derivatives are bitwise what
``Objective.value`` and ``Objective.derivatives`` give at every point the
solve can reach: the start columns with their free coordinates moved.
Its domain errors are theirs too.  A plan holds no point value but that
Hessian, a model keeps only plans of its own terms and at most
``engine._PLANS`` of them, and solves that share a plan give bitwise what
solves of a freshly parsed model give."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escm import (EnergyDomainError, abduct, codegen, counterfactual, disjunctive_envelope,
                  disjunctive_select, engine, hard, parse_model, soft, solve)
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


# -- plans kept by the model --------------------------------------------------------


def _plans_used(monkeypatch) -> list:
    """Every plan a solve takes, in order."""
    used = []
    plan = engine._plan

    def recording(objective, free):
        used.append(plan(objective, free))
        return used[-1]

    monkeypatch.setattr(engine, "_plan", recording)
    return used


def _kept(model, plan) -> bool:
    return any(kept is plan for kept in model._plans.values())


def _corpus(n: int, seed: int = 0):
    return random_quadratic_model(np.random.default_rng(seed), n, density=0.3)


def test_solves_of_a_model_over_one_free_list_share_a_plan(monkeypatch):
    model = parse_model(_corpus(10))
    used = _plans_used(monkeypatch)
    for shift in (0.0, 0.5):
        solve(model, clamps={f"u.U{k + 1}": 0.1 * k + shift for k in range(10)})
    solve(model, clamps={"z.Z1": 0.3})
    assert used[0] is used[1] and used[2] is not used[0]
    assert len(model._plans) == 2 and _kept(model, used[0]) and _kept(model, used[2])


def test_the_branches_of_a_disjunctive_envelope_share_one_plan(monkeypatch):
    model = parse_model(_corpus(10))
    used = _plans_used(monkeypatch)
    evidence = {"z.Z1": 0.4, "z.Z3": -1.1}
    disjunctive_envelope(model, evidence, "Z4", [-1.0, 0.25, 1.5], {"y": "z.Z10"})
    abduction, *branches = used
    assert len(branches) == 3 and all(plan is branches[0] for plan in branches)
    assert abduction is not branches[0]
    # a hard counterfactual on the same target is one more such branch
    counterfactual(model, evidence, hard(model, "Z4", 2.0))
    assert used[4] is abduction and used[5] is branches[0] and len(model._plans) == 2


def test_a_soft_edit_plan_is_not_kept(monkeypatch):
    model = parse_model(_corpus(10))
    used = _plans_used(monkeypatch)
    evidence = {"z.Z1": 0.4, "z.Z3": -1.1}
    surgery = soft(model, "Z4", 0.5, "0.5*sq(z.Z4 - 1)")
    for _ in range(2):
        counterfactual(model, evidence, surgery)
    abduction, blended, again, blended_again = used
    assert again is abduction and _kept(model, abduction)
    assert blended_again is not blended  # each edit blends a new term
    assert not _kept(model, blended) and not _kept(model, blended_again)
    assert len(model._plans) == 1


def test_a_model_keeps_at_most_its_bound_of_plans_the_least_recently_used_going_first():
    model = parse_model(_corpus(12))
    state = [*model.coords("z"), *model.coords("u")]
    frees = [[ref] for ref in state[:engine._PLANS + 5]]
    for j, free in enumerate(frees):
        solve(model, free=free)
        assert len(model._plans) == min(j + 1, engine._PLANS)
        if j == engine._PLANS - 1:
            solve(model, free=frees[0])  # used again: it is the newest now
    bound = engine._PLANS
    kept = [list(free) for _, free in model._plans]
    # the five solves past the bound dropped the five least recently used
    assert kept == frees[6:bound] + [frees[0]] + frees[bound:]


def _structure(plan) -> list:
    """What a plan holds, by identity and size: a solve at other values
    changes none of it once the plan has served one solve."""
    held = [getattr(plan, name) for name in plan.__slots__]
    return ([(id(value), len(value) if hasattr(value, "__len__") else value) for value in held]
            + sorted(plan.moving._runs))


def _same_equilibrium(got, want) -> None:
    assert got.point.x.tobytes() == want.point.x.tobytes()
    assert _bytes(got.energy_trace) == _bytes(want.energy_trace)
    assert _bytes(got.residual) == _bytes(want.residual)
    assert got.hessian.tobytes() == want.hessian.tobytes()


@pytest.mark.parametrize("spec, clamps", [
    (_BUMPY, [{"u.U1": 0.8}, {"u.U1": 0.58}, {"u.U1": -1.0}]),
    (_corpus(12, 3), [{f"u.U{k + 1}": 0.1 * k * sign for k in range(12)}
                      for sign in (1.0, -2.0, 0.5)]),
], ids=["bumpy", "corpus"])
def test_solves_sharing_a_plan_give_what_a_fresh_parse_gives(monkeypatch, spec, clamps):
    # no kept value passes from one solve to the next, and a Hessian passes
    # only where the coordinates it reads match: the bumpy solves take
    # damped steps and their Hessians read a free coordinate, so none is
    # kept; the corpus Hessian reads only theta, so every solve after the
    # first takes the plan's
    model = parse_model(spec)
    used = _plans_used(monkeypatch)
    structure = None
    for values in clamps:
        eq = solve(model, clamps=values)
        _same_equilibrium(eq, solve(parse_model(spec), clamps=values))
        if structure is None:
            structure = _structure(used[0])
        assert _structure(used[0]) == structure
    assert all(plan is used[0] for plan in used[::2])  # every other one is a fresh parse's


def _blocks_run(monkeypatch) -> list:
    """The order of every run of a solve's moving terms, in order."""
    orders = []
    blocks = codegen._ActiveTerms.blocks

    def counting(active, x, order):
        orders.append(order)
        return blocks(active, x, order)

    monkeypatch.setattr(codegen._ActiveTerms, "blocks", counting)
    return orders


def test_a_second_abduction_over_one_free_list_runs_no_moving_term_at_order_2(monkeypatch):
    spec = _corpus(12, 4)
    model = parse_model(spec)
    orders = _blocks_run(monkeypatch)
    abduct(model, {f"z.Z{k}": 0.1 * k for k in range(1, 13, 2)})
    assert 2 in orders
    orders.clear()
    evidence = {f"z.Z{k}": 1.0 - 0.2 * k for k in range(1, 13, 2)}
    again = abduct(model, evidence)
    assert orders and set(orders) == {1}
    _same_equilibrium(again.equilibrium, abduct(parse_model(spec), evidence).equilibrium)


def test_a_solve_whose_start_changes_theta_gets_the_hessian_of_a_fresh_parse():
    spec = _corpus(10, 5)
    model = parse_model(spec)
    clamps = {f"u.U{k + 1}": 0.1 * k for k in range(10)}
    first = solve(model, clamps=clamps)
    theta = 1.5 * model.theta_defaults()
    moved = solve(model, clamps=clamps, init_point=Point.for_model(model, theta=theta))
    fresh = parse_model(spec)
    _same_equilibrium(moved, solve(fresh, clamps=clamps,
                                   init_point=Point.for_model(fresh, theta=theta)))
    assert moved.hessian.tobytes() != first.hessian.tobytes()
    _same_equilibrium(solve(model, clamps=clamps), first)  # and back


_EXP = {  # the Hessian of Z2's term in z.Z2 is 2*exp(z.Z1): it reads a held z
    "variables": [{"name": "Z1", "kind": "endogenous"}, {"name": "Z2", "kind": "endogenous"},
                  {"name": "U1", "kind": "exogenous"}, {"name": "U2", "kind": "exogenous"}],
    "edges": [["Z1", "Z2"]],
    "terms": [{"owner": "local:Z1", "expr": "0.5*sq(z.Z1 - u.U1)"},
              {"owner": "local:Z2", "expr": "exp(z.Z1)*sq(z.Z2 - u.U2)"},
              {"owner": "exo:U1", "expr": "0.5*sq(u.U1)"},
              {"owner": "exo:U2", "expr": "0.5*sq(u.U2)"}],
}


def test_a_hessian_that_reads_a_held_z_follows_its_value(monkeypatch):
    model = parse_model(_EXP)
    used = _plans_used(monkeypatch)
    hessians = []
    for z1 in (0.0, 0.5, 0.0):
        clamps = {"z.Z1": z1, "u.U2": 0.3}
        eq = solve(model, clamps=clamps, free=["z.Z2"])
        _same_equilibrium(eq, solve(parse_model(_EXP), clamps=clamps, free=["z.Z2"]))
        hessians.append(eq.hessian.tobytes())
    assert used[0] is used[2] is used[4]
    assert used[0].reads.tolist() == [model.parse_coord("z.Z1")]
    assert hessians[0] != hessians[1] and hessians[0] == hessians[2]


def test_writing_an_equilibrium_hessian_changes_no_later_solve(monkeypatch):
    spec = _corpus(10, 6)
    model = parse_model(spec)
    used = _plans_used(monkeypatch)
    clamps = [{f"u.U{k + 1}": 0.1 * k * sign for k in range(10)} for sign in (1.0, -1.0)]
    eq = solve(model, clamps=clamps[0])
    plan = used[0]
    assert not np.shares_memory(eq.hessian, plan.hessian[1])
    eq.hessian *= 2.0
    _same_equilibrium(solve(model, clamps=clamps[1]), solve(parse_model(spec), clamps=clamps[1]))
    # each column of a batch gets its own array too
    free = list(model.coords("z"))
    x = np.column_stack([eq.point.x, eq.point.x])
    x[free, 1] = 0.0
    hessians = _newton(Objective.from_model(model), free, x, SolverConfig())[2]
    assert not np.shares_memory(*hessians)
    assert not any(np.shares_memory(h, used[-1].hessian[1]) for h in hessians)


def _same_result(got, want) -> None:
    assert got.pre.x.tobytes() == want.pre.x.tobytes()
    assert got.post.x.tobytes() == want.post.x.tobytes()
    assert _bytes(list(got.readouts.values())) == _bytes(list(want.readouts.values()))
    _same_equilibrium(got.equilibrium, want.equilibrium)


_RQ10 = json.loads((Path(__file__).parent / "golden" / "models" / "rq10.json").read_text(
    encoding="utf-8"))


@pytest.mark.parametrize("spec, evidence, target, readouts", [
    (_RQ10, {"z.Z1": 0.4, "z.Z3": -1.1, "z.Z6": 0.7, "z.Z9": 2.0}, "Z4",
     {"phi": "z.Z7", "psi": "z.Z6 + 2*z.Z7 - u.U4"}),
    (_corpus(40), {f"z.Z{k}": 0.05 * k - 1.0 for k in range(1, 41, 2)}, "Z8",
     {"sink": "z.Z40", "mix": "z.Z8 + z.Z30"}),
], ids=["rq10", "corpus40"])
def test_disjunctive_branches_are_bitwise_counterfactuals_of_a_fresh_parse(spec, evidence,
                                                                           target, readouts):
    values = [-1.0, 0.25, 1.5]
    model = parse_model(spec)
    envelope = disjunctive_envelope(model, evidence, target, values, readouts)
    select = disjunctive_select(model, evidence, target, values, tau=0.5, readouts=readouts)
    for value in values:
        fresh = parse_model(spec)
        want = counterfactual(fresh, evidence, hard(fresh, target, value), readouts)
        _same_result(envelope.branches[(value,)], want)
        assert _bytes(select.branch_energies[(value,)]) == _bytes(want.equilibrium.energy)
        assert select.branch_readouts[(value,)] == want.readouts
        for explanation in (envelope.explanation, select.explanation):
            assert explanation.point.x.tobytes() == want.explanation.point.x.tobytes()
