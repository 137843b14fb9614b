"""Abduction, surgery, counterfactuals, and set-valued interventions."""

import numpy as np
import pytest

from escm import (
    Point,
    QueryError,
    abduct,
    apply_surgery,
    causal,
    counterfactual,
    disjunctive,
    disjunctive_envelope,
    disjunctive_select,
    hard,
    parse_model,
    soft,
    solve,
    steady_state,
)
from escm.engine import Objective
from tests.conftest import chain2_dict

EVIDENCE = {"z.Z1": 1.0, "z.Z2": 2.5}


def grid_abduction_oracle(model, evidence, bounds=(-1.0, 1.0), step=1e-3):
    """Brute-force abduction for chain2: refine a 2-D grid over u down to
    the requested step."""
    objective = Objective.from_model(model)
    point = Point.for_model(model, z=[evidence["z.Z1"], evidence["z.Z2"]])
    lo1, hi1 = bounds
    lo2, hi2 = bounds
    width = bounds[1] - bounds[0]
    current = width / 20.0
    best = (np.inf, 0.0, 0.0)
    while True:
        grid1 = np.arange(lo1, hi1 + current / 2, current)
        grid2 = np.arange(lo2, hi2 + current / 2, current)
        for u1 in grid1:
            for u2 in grid2:
                point.u[0], point.u[1] = u1, u2
                val = objective.value(point)
                if val < best[0]:
                    best = (val, u1, u2)
        if current <= step:
            return best[1], best[2]
        lo1, hi1 = best[1] - current, best[1] + current
        lo2, hi2 = best[2] - current, best[2] + current
        current = max(step, current / 10.0)


def test_abduction_recovers_exogenous(chain2):
    explanation = abduct(chain2, EVIDENCE)
    assert np.allclose(explanation.point.u, [0.5, 0.25], atol=1e-10)
    assert explanation.point.z[0] == 1.0 and explanation.point.z[1] == 2.5
    u1, u2 = grid_abduction_oracle(chain2, EVIDENCE)
    assert abs(explanation.point.u[0] - u1) <= 2e-3
    assert abs(explanation.point.u[1] - u2) <= 2e-3


def test_abduction_zero_evidence_is_zero(chain2):
    explanation = abduct(chain2, {"z.Z1": 0.0, "z.Z2": 0.0})
    assert np.all(explanation.point.u == 0.0)


def test_abduction_fully_clamped_echoes(chain2):
    ev = {"z.Z1": 3.0, "z.Z2": -1.0, "u.U1": 0.25, "u.U2": 0.75}
    explanation = abduct(chain2, ev)
    assert explanation.point.z.tolist() == [3.0, -1.0]
    assert explanation.point.u.tolist() == [0.25, 0.75]
    assert explanation.free == ()


_EVIDENCE_CASES = {
    "out of range": ({99: 1.0}, "coordinate 99 is out of range"),
    "a label": ({"z.Z2": 2.5}, None),
    "not a number": ({1: "x"}, "clamp value for 1 is not a number: 'x'"),
    "a parameter": ({4: 1.0}, "evidence on parameters is not supported"),
    "not finite": ({1: float("nan")}, "clamp value for 1 is not finite"),
}


@pytest.mark.parametrize("clamps, message", _EVIDENCE_CASES.values(),
                         ids=_EVIDENCE_CASES.keys())
def test_a_directly_built_evidence_is_checked_as_a_dict_is(chain2, clamps, message):
    # on chain2, flat index 4 is theta.Z2.a
    outcomes = []
    for evidence in (causal.Evidence(dict(clamps)), dict(clamps)):
        try:
            outcomes.append(abduct(chain2, evidence).point.x.tobytes())
        except QueryError as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1]
    if message is not None:
        assert outcomes[0] == message


_HOLD_ERRORS = {
    "theta": (["theta.Z2.a"], "theta coordinates cannot be solved for"),
    "duplicate": (["z.Z2", "z.Z2"], "duplicate free coordinates"),
}


@pytest.mark.parametrize("free, message", _HOLD_ERRORS.values(), ids=_HOLD_ERRORS.keys())
def test_a_hold_override_free_list_is_checked_as_solve_checks_it(chain2, free, message):
    with pytest.raises(QueryError) as raised:
        counterfactual(chain2, {"z.Z2": 2.5}, [hard(chain2, "Z1", 1.0)], hold={"free": free})
    assert str(raised.value) == message


def test_hard_surgery_bookkeeping(chain2):
    edited = apply_surgery(chain2, hard(chain2, "Z1", 0.0))
    assert [t.owner for t in edited.objective.terms] == ["Z2", "U1", "U2"]
    assert edited.clamps == {0: 0.0}
    # children still read the clamped value: solving gives z2 = a*0 + u2
    clamps = dict(edited.clamps)
    clamps.update({("u", 0): 0.5, ("u", 1): 0.25})
    eq = solve(edited.objective, clamps=clamps, free=[("z", 1)])
    assert eq.point.z[1] == pytest.approx(0.25, abs=1e-12)


def test_soft_lambda_zero_is_identity(chain2):
    edited = apply_surgery(chain2, soft(chain2, "Z1", 0.0, "0.5*sq(z.Z1 - 7)"))
    base = Objective.from_model(chain2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = Point.for_model(chain2, z=rng.normal(size=2), u=rng.normal(size=2))
        assert edited.objective.value(p) == base.value(p)


def test_a_domain_fault_in_either_piece_of_a_soft_edit_quotes_that_piece():
    from escm import EnergyDomainError

    model = parse_model({
        "variables": [{"name": "A", "kind": "endogenous", "dim": 1},
                      {"name": "B", "kind": "endogenous", "dim": 1}],
        "edges": [["A", "B"]],
        "terms": [{"owner": "local:A", "expr": "0.5*sq(z.A)"},
                  {"owner": "local:B", "expr": "0.5*sq(z.B - 1/(z.A + 1))"}]})
    objective = apply_surgery(model, soft(model, "B", 0.5, "0.5*sq(z.B - log(z.A))")).objective
    # at z.A = -1 both pieces fail, and the original piece's division comes
    # first; a binary node's span ends where its right operand's does, at
    # the operand's closing parenthesis
    for a, want in ((0.0, "log of non-positive value 0.0 at subexpression 'log(z.A)'"),
                    (-1.0, "division by zero at subexpression '1/(z.A + 1)'")):
        point = Point.for_model(model, z=[a, 0.5])
        for evaluate in (lambda: objective.value(point),
                         lambda: objective.derivatives(point, order=2)):
            with pytest.raises(EnergyDomainError) as caught:
                evaluate()
            assert str(caught.value) == f"{want} in term 'B'"


def test_soft_lambda_one_replaces(chain2):
    edited = apply_surgery(chain2, soft(chain2, "Z1", 1.0, "0.5*sq(z.Z1 - 7)"))
    p = Point.for_model(chain2, z=[7.0, 14.5], u=[999.0, 0.5])
    # original local term would see u.U1; the replacement ignores it
    assert edited.objective.value(p) == pytest.approx(
        0.5 * 999.0 ** 2 + 0.5 * 0.25, rel=1e-15)


def test_soft_replacement_respects_mask(chain2):
    with pytest.raises(Exception):
        soft(chain2, "Z1", 0.5, "0.5*sq(z.Z1 - z.Z2)")  # child state masked out


_UNCHECKED_SOFT = {
    "expr": (("Z1", 0.5, 5), "soft surgery expression 5 is not a string"),
    "param": (("Z2", 0.5, "0.5*sq(z.Z2 - theta.Z2.q)", {"q": "x"}),
              "soft surgery param 'q' is not a number: 'x'"),
}


@pytest.mark.parametrize("args, message", _UNCHECKED_SOFT.values(), ids=_UNCHECKED_SOFT.keys())
def test_a_directly_built_soft_surgery_is_checked_as_soft_checks_it(chain2, chain2_dyn,
                                                                     args, message):
    surgery = causal.SoftSurgery(*args)
    for edit in (lambda: soft(chain2, *args), lambda: apply_surgery(chain2, [surgery]),
                 lambda: steady_state(chain2_dyn, [1.0, 0.5], [surgery])):
        with pytest.raises(QueryError) as err:
            edit()
        assert str(err.value) == message


def test_duplicate_targets_rejected(chain2):
    with pytest.raises(QueryError):
        apply_surgery(chain2, [hard(chain2, "Z1", 0.0), hard(chain2, "Z1", 1.0)])


def test_counterfactual_chain2_fixture(chain2):
    result = counterfactual(chain2, EVIDENCE, [hard(chain2, "Z1", 0.0)],
                            readouts={"phi": "z.Z2"})
    assert np.allclose(result.explanation.point.u, [0.5, 0.25], atol=1e-10)
    assert result.post.z[0] == 0.0
    assert result.readouts["phi"] == pytest.approx(0.25, abs=1e-10)
    # exogenous invariance is exact
    assert np.array_equal(result.pre.u, result.post.u)


def test_counterfactual_nondescendant_frozen(chain2):
    result = counterfactual(chain2, EVIDENCE, [hard(chain2, "Z2", 9.0)],
                            readouts={"phi": "z.Z1"})
    assert result.readouts["phi"] == 1.0  # Z1 is not downstream of Z2
    assert result.post.z[0] == result.pre.z[0]


def test_counterfactual_soft_identity(chain2):
    # identity surgery at a free-equilibrium context changes nothing
    result = counterfactual(chain2, {"z.Z1": 0.0, "z.Z2": 0.0},
                            [soft(chain2, "Z2", 0.0, "0.5*sq(z.Z2 - 3)")])
    assert np.allclose(result.post.z, result.pre.z, atol=1e-12)
    assert np.array_equal(result.post.u, result.pre.u)
    # exogenous-context evidence is also a free equilibrium in z
    result = counterfactual(chain2, {"u.U1": 1.0, "u.U2": 0.5},
                            [soft(chain2, "Z2", 0.0, "0.5*sq(z.Z2 - 3)")])
    assert np.allclose(result.post.z, result.pre.z, atol=1e-10)


def test_counterfactual_soft_identity_reequilibrates_target(chain2):
    # with endogenous evidence the abducted point is not a free equilibrium:
    # the softly edited target re-minimizes to its best response
    result = counterfactual(chain2, EVIDENCE,
                            [soft(chain2, "Z2", 0.0, "0.5*sq(z.Z2 - 3)")])
    u2 = result.explanation.point.u[1]
    assert result.post.z[1] == pytest.approx(2.0 * 1.0 + u2, abs=1e-10)
    assert result.post.z[0] == result.pre.z[0]


def test_counterfactual_soft_endpoint_matches_hard(chain2):
    hard_result = counterfactual(chain2, EVIDENCE, [hard(chain2, "Z1", 4.0)],
                                 readouts={"phi": "z.Z2"})
    soft_result = counterfactual(chain2, EVIDENCE,
                                 [soft(chain2, "Z1", 1.0, "0.5*sq(z.Z1 - 4)")],
                                 readouts={"phi": "z.Z2"})
    assert abs(soft_result.post.z[0] - 4.0) <= 1e-8
    assert abs(soft_result.readouts["phi"] - hard_result.readouts["phi"]) <= 1e-8


def test_a_soft_replacement_binds_its_own_parameters(chain2):
    # theta.Z2.b is bound to its value as a constant, so the edit is the one
    # with 3.0 written in, and the model's theta map keeps its one entry
    results = [counterfactual(chain2, EVIDENCE, [soft(chain2, "Z2", 0.5, expr, params)],
                              readouts={"phi": "z.Z2"})
               for expr, params in (("0.5*sq(z.Z2 - theta.Z2.b*z.Z1)", {"b": 3.0}),
                                    ("0.5*sq(z.Z2 - 3.0*z.Z1)", None))]
    assert results[0].readouts == results[1].readouts == {"phi": 2.625}
    assert results[0].post.x.tobytes() == results[1].post.x.tobytes()
    assert chain2.ntheta == 1


def test_autonomy_check_resolving_nondescendants(chain2):
    # context evidence: the abducted point is an observational equilibrium
    context = {"u.U1": 1.0, "u.U2": 0.5}
    result = counterfactual(chain2, context, [hard(chain2, "Z2", 9.0)])
    assert result.post.z[0] == result.pre.z[0]  # frozen by policy
    edited = apply_surgery(chain2, hard(chain2, "Z2", 9.0))
    clamps = dict(edited.clamps)
    clamps.update({("u", k): result.pre.u[k] for k in range(2)})
    eq = solve(edited.objective, clamps=clamps, free=[("z", 0)], init_point=result.post)
    assert abs(eq.point.z[0] - result.post.z[0]) < 1e-8


def test_hold_override(chain2):
    # hold the descendant too: nothing re-minimizes, post equals pre off-target
    result = counterfactual(chain2, EVIDENCE, [hard(chain2, "Z1", 0.0)],
                            readouts={"phi": "z.Z2"},
                            hold={"hold": ["z.Z2"]})
    assert result.readouts["phi"] == 2.5


def test_envelope_chain2(chain2):
    env = disjunctive_envelope(chain2, EVIDENCE, "Z1", [0.0, 1.0], {"phi": "z.Z2"})
    values = {k[0]: v.readouts["phi"] for k, v in env.branches.items()}
    assert values[0.0] == pytest.approx(0.25, abs=1e-10)
    assert values[1.0] == pytest.approx(2.25, abs=1e-10)
    assert env.envelopes["phi"][0] == pytest.approx(0.25, abs=1e-10)
    assert env.envelopes["phi"][1] == pytest.approx(2.25, abs=1e-10)
    # endpoints of a two-branch envelope are exactly the singleton effects
    assert env.envelopes["phi"] == (min(values.values()), max(values.values()))


def test_envelope_singleton_and_duplicates(chain2):
    single = disjunctive_envelope(chain2, EVIDENCE, "Z1", [0.5], {"phi": "z.Z2"})
    assert single.envelopes["phi"][0] == single.envelopes["phi"][1]
    dup = disjunctive_envelope(chain2, EVIDENCE, "Z1", [1.0, 1.0], {"phi": "z.Z2"})
    assert len(dup.branches) == 1


def test_envelope_containment_random_sets(chain2):
    rng = np.random.default_rng(8)
    values = sorted(float(v) for v in rng.uniform(-2, 2, size=5))
    env = disjunctive_envelope(chain2, EVIDENCE, "Z1", values, {"phi": "z.Z2"})
    lo, hi = env.envelopes["phi"]
    for branch in env.branches.values():
        assert lo - 1e-12 <= branch.readouts["phi"] <= hi + 1e-12


def test_select_tie_breaks_lexicographically(chain2):
    sel = disjunctive_select(chain2, EVIDENCE, "Z1", [0.0, 1.0],
                             readouts={"phi": "z.Z2"})
    # both branches re-equilibrate to zero residual: energies tie at
    # 0.5*(0.5^2 + 0.25^2) and the smaller value wins
    for e in sel.branch_energies.values():
        assert e == pytest.approx(0.15625, abs=1e-12)
    assert sel.selected == (0.0,)
    assert sel.readouts["phi"] == pytest.approx(0.25, abs=1e-10)


def test_select_tiny_tau_matches_committed_choice(chain2):
    # distinct branch energies via a held descendant
    hold = {"hold": ["z.Z2"]}
    committed = disjunctive_select(chain2, EVIDENCE, "Z1", [0.0, 1.0],
                                   readouts={"phi": "z.Z1"}, hold=hold)
    blended = disjunctive_select(chain2, EVIDENCE, "Z1", [0.0, 1.0], tau=1e-9,
                                 readouts={"phi": "z.Z1"}, hold=hold)
    assert committed.selected == (1.0,)
    chosen = committed.branch_readouts[committed.selected]["phi"]
    assert abs(blended.readouts["phi"] - chosen) <= 1e-6


def test_select_softmin_converges_to_argmin(chain2):
    hold = {"hold": ["z.Z2"]}
    committed = disjunctive_select(chain2, EVIDENCE, "Z1", [0.0, 1.0],
                                   readouts={"phi": "z.Z1"}, hold=hold)
    blended = disjunctive_select(chain2, EVIDENCE, "Z1", [0.0, 1.0], tau=1e-6,
                                 readouts={"phi": "z.Z1"}, hold=hold)
    chosen = committed.branch_readouts[committed.selected]["phi"]
    assert abs(blended.readouts["phi"] - chosen) < 1e-6


def test_select_rho_sweep_flips_at_crossover(chain2):
    # with z.Z2 held at its abducted value, branch energies are
    # e(s) = 0.5*(2.25 - 2s)^2 + 0.15625; control sq(s) with weight rho
    # flips the choice from s=1 to s=0 at rho* = e(0) - e(1) = 2.5
    hold = {"hold": ["z.Z2"]}
    rho_grid = [0.0, 1.0, 2.0, 3.0, 4.0]
    selections = []
    for rho in rho_grid:
        sel = disjunctive_select(chain2, EVIDENCE, "Z1", [0.0, 1.0],
                                 rho=rho, control="sq(s)", hold=hold)
        selections.append(sel.selected[0])
    assert selections[0] == 1.0 and selections[-1] == 0.0
    flip = next(k for k in range(1, len(selections))
                if selections[k] != selections[k - 1])
    assert rho_grid[flip - 1] < 2.5 <= rho_grid[flip]


def test_select_large_rho_forces_smallest_norm(chain2):
    sel = disjunctive_select(chain2, EVIDENCE, "Z1", [-2.0, 0.5, 1.5],
                             rho=1e6, control="sq(s)")
    assert sel.selected == (0.5,)


def test_disjunctive_surgery_cannot_be_applied_directly(chain2):
    with pytest.raises(QueryError):
        apply_surgery(chain2, disjunctive(chain2, "Z1", [0.0, 1.0]))


def test_failing_branch_reports_branch_id():
    from escm import EnergyDomainError

    spec = chain2_dict()
    # the child's mechanism leaves its domain when the parent drops below -2
    spec["terms"][1]["expr"] = "0.5*sq(z.Z2 - log(2 + z.Z1) - u.U2)"
    model = parse_model(spec)
    with pytest.raises(EnergyDomainError) as err:
        disjunctive_envelope(model, {"u.U1": 1.0, "u.U2": 0.5}, "Z1",
                             [1.0, -3.0], {"phi": "z.Z2"})
    message = str(err.value)
    assert "branch" in message and "-3.0" in message
    assert message.count("at subexpression") == 1  # no nested re-annotation


def test_exogenous_evidence_supported(chain2):
    explanation = abduct(chain2, {"z.Z2": 2.0, "u.U1": 0.0})
    assert explanation.point.u[0] == 0.0
    # stationarity: z1 - 2*(2 - 2*z1 - u2) = 0 and u2 = (2 - 2*z1)/2,
    # which solves to z1 = 2/3
    assert abs(explanation.point.z[0] - 2.0 / 3.0) < 1e-9


def test_select_branch_energy_is_edited_energy_at_the_branch_equilibrium(chain2):
    sel = disjunctive_select(chain2, EVIDENCE, "Z1", [0.0, 1.0],
                             readouts={"phi": "z.Z2"}, hold={"hold": ["z.Z2"]})
    env = disjunctive_envelope(chain2, EVIDENCE, "Z1", [0.0, 1.0], {"phi": "z.Z2"},
                               hold={"hold": ["z.Z2"]})
    for value, branch in env.branches.items():
        edited = apply_surgery(chain2, hard(chain2, "Z1", value))
        assert sel.branch_energies[value] == edited.objective.value(branch.post)


def test_blend_drops_zero_weight_pieces(chain2):
    from escm.engine import ObjectiveTerm

    original = chain2.local_term("Z2").compiled
    replacement = chain2.local_term("Z1").compiled
    assert ObjectiveTerm.blend("local:Z2", 0.0, original, replacement).pieces == \
        ((1.0, original),)
    assert ObjectiveTerm.blend("local:Z2", 1.0, original, replacement).pieces == \
        ((1.0, replacement),)
    assert ObjectiveTerm.blend("local:Z2", 0.25, original, replacement).pieces == \
        ((0.75, original), (0.25, replacement))


def test_query_expressions_compile_once_per_query(chain2, monkeypatch):
    """A soft edit's replacement is compiled once, by ``soft``, and a
    disjunctive query compiles its selection cost and each readout once,
    not once per branch; reusing the replacement leaves the surgery's
    equality, hash and JSON form alone."""
    from escm import causal
    from escm.report import jsonable

    counts = {"readout": 0, "replacement": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(causal, "_compile_readout", counted("readout", causal._compile_readout))
    monkeypatch.setattr(causal, "_compile_replacement",
                        counted("replacement", causal._compile_replacement))
    edit = causal.surgery_from_dict(
        chain2, {"kind": "soft", "target": "Z1", "lambda": 0.5, "expr": "0.5*sq(z.Z1 - 3)"})
    result = counterfactual(chain2, EVIDENCE, [edit], readouts={"phi": "z.Z2"})
    assert counts == {"readout": 1, "replacement": 1}
    assert edit == causal.SoftSurgery("Z1", 0.5, "0.5*sq(z.Z1 - 3)", {})
    assert hash(edit) == hash(causal.SoftSurgery("Z1", 0.5, "0.5*sq(z.Z1 - 3)", {}))
    assert jsonable(edit) == {"target": "Z1", "lam": 0.5, "expr": "0.5*sq(z.Z1 - 3)",
                              "params": {}}
    assert result.readouts["phi"] == counterfactual(
        chain2, EVIDENCE, [causal.SoftSurgery("Z1", 0.5, "0.5*sq(z.Z1 - 3)", {})],
        readouts={"phi": "z.Z2"}).readouts["phi"]

    counts.update(readout=0, replacement=0)
    disjunctive_select(chain2, EVIDENCE, "Z1", [0.0, 1.0, -0.5], rho=0.3,
                       control="sq(s - 0.8)", readouts={"phi": "z.Z2", "psi": "z.Z1*z.Z2"})
    assert counts == {"readout": 3, "replacement": 0}  # the cost and two readouts

    counts.update(readout=0)
    disjunctive_envelope(chain2, EVIDENCE, "Z1", [0.0, 1.0, -0.5], {"phi": "z.Z2"})
    assert counts["readout"] == 1
