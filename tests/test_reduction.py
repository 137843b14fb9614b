"""Induced structural equations vs energy equilibria."""

from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import bisect

from escm import (
    ClassViolationError,
    QueryError,
    NonConvexBlockError,
    Point,
    abduct,
    apply_surgery,
    contraction_factor,
    counterfactual,
    equivalence_check,
    hard,
    induce_scm,
    parse_model,
    pushforward_check,
    scm_solve,
    solve,
)
from escm.corpus import random_quadratic_model
from escm.reduction import forward_init, shifted_local_source
from tests.conftest import chain2_dict


def test_induced_mechanisms_chain2(chain2):
    scm = induce_scm(chain2)
    point = Point.for_model(chain2, u=[0.7, -0.2])
    assert scm.mechanism("Z1", point)[0] == pytest.approx(0.7, abs=1e-12)
    point.z[0] = 0.7
    assert scm.mechanism("Z2", point)[0] == pytest.approx(2 * 0.7 - 0.2, abs=1e-12)


def test_induced_mechanism_cubic_root():
    spec = {
        "variables": [{"name": "Z1", "kind": "endogenous"},
                      {"name": "U1", "kind": "exogenous"}],
        "edges": [],
        "terms": [
            {"owner": "local:Z1", "expr": "0.25*pow(z.Z1, 4) - z.Z1*u.U1"},
            {"owner": "exo:U1", "expr": "0.5*sq(u.U1)"},
        ],
    }
    model = parse_model(spec)
    scm = induce_scm(model)
    for u in (0.5, 1.0, 2.0, 3.7):
        z = scm.solve(np.array([u]))
        oracle = bisect(lambda x: x ** 3 - u, 0.0, max(2.0, u), xtol=1e-13)
        assert z[0] == pytest.approx(oracle, abs=1e-8)
        assert z[0] == pytest.approx(u ** (1.0 / 3.0), abs=1e-8)


def test_concave_block_detected():
    spec = {
        "variables": [{"name": "Z1", "kind": "endogenous"}],
        "edges": [],
        "terms": [{"owner": "local:Z1", "expr": "-sq(z.Z1)"}],
    }
    with pytest.raises(NonConvexBlockError):
        induce_scm(parse_model(spec))


def test_scm_solve_chain2(chain2):
    scm = induce_scm(chain2)
    assert np.allclose(scm.solve(np.array([1.0, 0.5])), [1.0, 2.5], atol=1e-12)
    z = scm.solve(np.array([1.0, 0.5]), [hard(chain2, "Z1", 0.0)])
    assert np.allclose(z, [0.0, 0.5], atol=1e-12)
    assert np.allclose(scm.solve(np.array([1.0, 0.5]), theta=[3.0]), [1.0, 3.5], atol=1e-12)
    with pytest.raises(QueryError):
        scm.solve(np.array([1.0, 0.5]), theta=[3.0, 1.0])


def test_scm_solve_edge_free_model():
    spec = {
        "variables": [{"name": "Z1", "kind": "endogenous"},
                      {"name": "Z2", "kind": "endogenous"},
                      {"name": "U1", "kind": "exogenous"},
                      {"name": "U2", "kind": "exogenous"}],
        "edges": [],
        "terms": [
            {"owner": "local:Z1", "expr": "0.5*sq(z.Z1 - u.U1)"},
            {"owner": "local:Z2", "expr": "0.5*sq(z.Z2 - 3*u.U2)"},
            {"owner": "exo:U1", "expr": "0.5*sq(u.U1)"},
            {"owner": "exo:U2", "expr": "0.5*sq(u.U2)"},
        ],
    }
    model = parse_model(spec)
    scm = induce_scm(model)
    assert np.allclose(scm.solve(np.array([0.4, -0.5])), [0.4, -1.5], atol=1e-12)


def test_equivalence_chain2_hard_sweep(chain2):
    scm = induce_scm(chain2)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        u = rng.uniform(-2, 2, size=2)
        value = float(rng.uniform(-2, 2))
        surgeries = [hard(chain2, "Z1", value)]
        edited = apply_surgery(chain2, surgeries)
        clamps = {**edited.clamps, **dict(zip(chain2.coords("u"), u.tolist()))}
        free = [i for i in chain2.coords("z") if i not in edited.clamps]
        z_energy = solve(edited.objective, clamps=clamps, free=free).point.z
        z_scm = scm.solve(u, surgeries)
        worst = max(worst, float(np.max(np.abs(z_energy - z_scm))))
    assert worst < 1e-8


def test_equivalence_check_random_models():
    rng = np.random.default_rng(21)
    for k in range(5):
        spec = random_quadratic_model(rng, n_nodes=5, density=0.4)
        model = parse_model(spec)
        report = equivalence_check(model, trials=30, seed=k)
        assert report.passed, report.max_deviation


def test_equivalence_refuses_global_coupling(chain2_z3):
    with pytest.raises(ClassViolationError) as err:
        equivalence_check(chain2_z3, trials=3, seed=0)
    assert "global" in str(err.value)


def test_pointwise_reduction_property():
    # at the energy equilibrium every coordinate solves its own best response
    rng = np.random.default_rng(4)
    spec = random_quadratic_model(rng, n_nodes=6, density=0.5)
    model = parse_model(spec)
    scm = induce_scm(model)
    u = rng.uniform(-2, 2, size=model.nu)
    clamps = {("u", k): float(u[k]) for k in range(model.nu)}
    eq = solve(model, clamps=clamps)
    point = eq.point.copy()
    for node in model.dag.topo_order():
        best = scm.mechanism(node, point)
        sl = model.var_slice("z", node)
        assert np.max(np.abs(point.z[sl] - best)) <= 1e-10


def test_stationarity_implies_global_minimum():
    rng = np.random.default_rng(9)
    spec = random_quadratic_model(rng, n_nodes=5, density=0.5)
    model = parse_model(spec)
    scm = induce_scm(model)
    from escm.engine import Objective

    objective = Objective.from_model(model)
    u = rng.uniform(-1, 1, size=model.nu)
    z = scm.solve(u)
    base = objective.value(Point.for_model(model, z=z, u=u))
    for _ in range(20):
        delta = rng.normal(size=model.nz)
        delta *= 1e-2 / np.linalg.norm(delta)
        perturbed = objective.value(Point.for_model(model, z=z + delta, u=u))
        assert perturbed > base


def test_counterfactual_equality_with_induced_model(chain2):
    # energy pipeline vs: abduct u the same way, forward-solve edited SCM
    evidence = {"z.Z1": 1.0, "z.Z2": 2.5}
    surgery = [hard(chain2, "Z1", 0.0)]
    energy_result = counterfactual(chain2, evidence, surgery)
    explanation = abduct(chain2, evidence)
    scm = induce_scm(chain2)
    z_scm = scm.solve(explanation.point.u, surgery)
    # descendants agree; non-descendants are held at abducted values on the
    # energy side, so compare targets and descendants
    target_and_desc = {"Z1", "Z2"}
    for node in target_and_desc:
        sl = chain2.var_slice("z", node)
        assert np.allclose(energy_result.post.z[sl], z_scm[sl], atol=1e-8)


def test_pushforward_paired_comparison(chain2):
    sampler = {"U1": {"dist": "uniform", "lo": -1, "hi": 1},
               "U2": {"dist": "uniform", "lo": -1, "hi": 1}}
    report = pushforward_check(chain2, sampler, trials=200,
                               statistics={"z2": "z.Z2"}, seed=11)
    assert report.passed
    assert report.paired_max_deviation < 1e-8
    stats = report.statistics["z2"]
    assert stats["mean_energy"] == pytest.approx(stats["mean_scm"], abs=1e-10)


def test_pushforward_with_surgery_returns_context(chain2):
    sampler = {"U1": {"dist": "gauss", "mu": 0.0, "sigma": 1.0},
               "U2": {"dist": "gauss", "mu": 0.0, "sigma": 1.0}}
    report = pushforward_check(chain2, sampler, trials=100,
                               surgeries=[hard(chain2, "Z1", 0.0)],
                               statistics={"z2": "z.Z2", "u2": "u.U2"}, seed=3)
    assert report.passed
    # under do(Z1:=0), z2 equals u2 draw by draw on both sides
    z2 = report.statistics["z2"]
    u2 = report.statistics["u2"]
    assert z2["mean_energy"] == pytest.approx(u2["mean_energy"], abs=1e-10)
    assert z2["var_energy"] == pytest.approx(u2["var_energy"], abs=1e-10)


def test_pushforward_point_mass_reduces_to_single_check(chain2):
    sampler = {"U1": {"dist": "uniform", "lo": 0.3, "hi": 0.3},
               "U2": {"dist": "gauss", "mu": -0.2, "sigma": 0.0}}
    report = pushforward_check(chain2, sampler, trials=5,
                               statistics={"z2": "z.Z2"}, seed=1)
    assert report.passed
    assert report.statistics["z2"]["var_energy"] == pytest.approx(0.0, abs=1e-20)


def test_forward_init_matches_equilibrium(chain2):
    point = forward_init(chain2, {2: 1.0, 3: 0.5})
    assert np.allclose(point.z, [1.0, 2.5], atol=1e-12)


def test_shifted_local_source_shifts_argmin(chain2):
    src = shifted_local_source(chain2, "Z1", 0.75)
    spec = chain2_dict()
    spec["terms"][0]["expr"] = src
    model = parse_model(spec)
    scm = induce_scm(model)
    z = scm.solve(np.array([1.0, 0.5]))
    assert z[0] == pytest.approx(1.75, abs=1e-10)


def _vector_block_model(v_term: str, w_term: str = "0.5*sq(z.W - z.V[0] - 0.5*z.V[1] - u.U2)"):
    """V of dim 2 with the local term ``v_term`` and a child W."""
    return parse_model({
        "variables": [{"name": "V", "kind": "endogenous", "dim": 2},
                      {"name": "W", "kind": "endogenous", "dim": 1},
                      {"name": "U1", "kind": "exogenous", "dim": 2},
                      {"name": "U2", "kind": "exogenous", "dim": 1}],
        "edges": [["V", "W"]],
        "terms": [
            {"owner": "local:V", "expr": v_term},
            {"owner": "local:W", "expr": w_term},
            {"owner": "exo:U1", "expr": "0.5*(sq(u.U1[0]) + sq(u.U1[1]))"},
            {"owner": "exo:U2", "expr": "0.5*sq(u.U2)"},
        ],
    })


def test_vector_block_argmin_and_equivalence():
    model = _vector_block_model("0.5*sq(z.V[0] - u.U1[0]) + 0.5*sq(z.V[1] - u.U1[1])"
                                " + 0.25*sq(z.V[0] - z.V[1])")
    report = equivalence_check(model, trials=12, seed=5)
    assert report.passed, report.max_deviation


def test_vector_block_steps_out_of_a_log_barrier_are_rejected():
    """A trial step that leaves the barrier's domain is a rejected step of
    the block's Newton loop, not an error."""
    model = _vector_block_model(
        "-log(z.V[0] + 1) - log(z.V[1] + 1) + 3*z.V[0] + 3*z.V[1]"
        " + 0.1*sq(z.V[0] - z.V[1]) - u.U1[0]*z.V[0]")
    u = np.array([0.5, 0.0, -0.3])
    clamps = dict(zip(model.coords("u"), u.tolist()))
    joint = solve(model, clamps=clamps).point.z
    assert np.allclose(induce_scm(model).solve(u), joint, atol=1e-8)
    assert np.allclose(forward_init(model, clamps).z, joint, atol=1e-8)
    report = equivalence_check(model, trials=30, seed=3,
                               surgery_generator=lambda rng, model, index: [])
    assert report.passed, report.max_deviation


def test_vector_block_singular_at_its_start_has_a_best_response():
    """A convex quartic coupling has a singular Hessian at z.V = 0; the
    block's Newton loop shifts it and still finds the minimizer."""
    model = _vector_block_model(
        "0.25*pow(z.V[0] - u.U1[0], 4) + 0.25*pow(z.V[1] - z.V[0], 4)")
    point = Point.for_model(model, u=[1.0, 0.0, 0.0])
    z = induce_scm(model).mechanism("V", point)
    # a cubic slope stops at tol_grad 1e-10 about (1e-10)**(1/3) short
    assert np.allclose(z, [1.0, 1.0], atol=1e-3)


def test_vector_block_without_a_minimizer_is_not_convex():
    """A local term linear in z.V[1] has no best response: the block's
    Newton loop fails, which reads as a non-convex block, never as a
    solver error; forward_init leaves the block at its start."""
    model = _vector_block_model("sq(z.V[0] - u.U1[0]) + u.U1[1]*z.V[1]",
                                "0.5*sq(z.W - z.V[0]) + sq(z.V[1])")
    scm = induce_scm(model)
    u = np.array([0.5, 1.0, 0.0])
    with pytest.raises(NonConvexBlockError, match="block Newton"):
        scm.mechanism("V", Point.for_model(model, u=u))
    with pytest.raises(NonConvexBlockError, match="block Newton"):
        scm.solve(u)
    # W's term bounds z.V[1] jointly, so the energy side solves and the
    # SCM side fails
    with pytest.raises(NonConvexBlockError, match="block Newton"):
        equivalence_check(model, trials=3, seed=0)
    sampler = {name: {"dist": "uniform", "lo": 0.5, "hi": 1.0} for name in ("U1", "U2")}
    with pytest.raises(NonConvexBlockError, match="block Newton"):
        pushforward_check(model, sampler, trials=3)
    clamps = dict(zip(model.coords("u"), u.tolist()))
    assert forward_init(model, clamps).z[:2].tolist() == [0.0, 0.0]


def test_an_overflowing_gaussian_sampler_entry_is_named(chain2, recwarn):
    sampler = {"U1": {"dist": "gauss"},
               "U2": {"dist": "gauss", "mu": 1e308, "sigma": 1e308}}
    with pytest.raises(QueryError) as raised:
        pushforward_check(chain2, sampler, trials=20, seed=0)
    assert str(raised.value) == ("sampler entry for 'U2' draws a non-finite value "
                                 "(mu 1e+308, sigma 1e+308)")
    assert not recwarn.list  # numpy does not warn of the overflow


def test_contraction_factor_small_couplings():
    rng = np.random.default_rng(2)
    spec = random_quadratic_model(rng, n_nodes=5, density=0.6, dynamics=True)
    model = parse_model(spec)
    rho = contraction_factor(model, [Point.for_model(model)])
    assert 0.0 <= rho < 1.0

    chain = parse_model(chain2_dict())
    rho_chain = contraction_factor(chain, [Point.for_model(chain)])
    assert rho_chain == pytest.approx(2.0, abs=1e-9)  # df2/dz1 = a = 2


def test_contraction_factor_is_the_exact_spectral_norm():
    """Z3 = 3*Z1 - 3*Z2 is the only coupling, so the Jacobian maps the
    all-ones vector to zero; its norm is still |(3, -3)| = 3*sqrt(2)."""
    names = ["Z1", "Z2", "Z3", "Z4"]
    model = parse_model({
        "variables": [{"name": n, "kind": "endogenous", "dim": 1} for n in names],
        "edges": [["Z1", "Z3"], ["Z2", "Z3"]],
        "terms": [{"owner": f"local:{n}", "expr": f"0.5*sq(z.{n})"} for n in ("Z1", "Z2", "Z4")]
                 + [{"owner": "local:Z3", "expr": "0.5*sq(z.Z3 - 3*z.Z1 + 3*z.Z2)"}],
    })
    rho = contraction_factor(model, [Point.for_model(model)])
    assert rho == pytest.approx(3 * np.sqrt(2), abs=1e-12)


def test_oracle_checks_build_each_edit_and_readout_once(chain2, monkeypatch):
    """pushforward_check applies its surgeries and compiles each statistic
    once per check, reusing the replacement ``soft`` compiled, and
    equivalence_check applies each trial's surgeries once, sharing the edit
    between the energy and the SCM sides."""
    from escm import causal, reduction, soft

    counts = {"apply": 0, "compile": 0, "replacement": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    edit = soft(chain2, "Z2", 0.3, "0.5*sq(z.Z2 - theta.Z2.a*z.Z1 - u.U2 - 1.5)")
    monkeypatch.setattr(reduction, "apply_surgery", counted("apply", reduction.apply_surgery))
    monkeypatch.setattr(reduction, "_compile_readout",
                        counted("compile", reduction._compile_readout))
    monkeypatch.setattr(causal, "_compile_replacement",
                        counted("replacement", causal._compile_replacement))
    sampler = {"U1": {"dist": "gauss"}, "U2": {"dist": "uniform", "lo": -1, "hi": 1}}
    report = pushforward_check(chain2, sampler, trials=25, surgeries=[edit],
                               statistics={"a": "z.Z2", "b": "z.Z1*z.Z2"}, seed=2)
    assert report.passed
    assert counts == {"apply": 1, "compile": 2, "replacement": 0}

    counts.update(apply=0)
    equivalence_check(chain2, trials=7, seed=3)
    assert counts["apply"] == 7


def test_convexity_is_probed_once_per_model_object(monkeypatch):
    """The first oracle check of a model probes each node's term once;
    later checks of the same object probe nothing, and a model parsed again
    from the same text is probed again.  The reports are unchanged."""
    from escm.engine import Objective

    probes = []
    term_jet = Objective.term_jet

    def spy(self, *args, **kwargs):
        probes.append(args[0].owner)
        return term_jet(self, *args, **kwargs)

    monkeypatch.setattr(Objective, "term_jet", spy)
    text = (Path(__file__).parent / "golden" / "models" / "rq10.json").read_text()
    model = parse_model(text)
    nodes = sorted(model.dag.nodes)
    sampler = {v.name: {"dist": "uniform", "lo": -1, "hi": 1} for v in model.exogenous}
    first = pushforward_check(model, sampler, trials=5, seed=1)
    assert sorted(probes) == nodes
    second = pushforward_check(model, sampler, trials=5, seed=1)
    equivalence_check(model, trials=5, seed=2)
    induce_scm(model)
    assert sorted(probes) == nodes
    assert second == first

    again = parse_model(text)
    assert equivalence_check(again, trials=5, seed=2) == equivalence_check(model, trials=5, seed=2)
    assert sorted(probes) == sorted(nodes * 2)


def test_a_non_convex_model_fails_its_probe_on_every_call():
    model = parse_model({
        "variables": [{"name": "Z1", "kind": "endogenous"},
                      {"name": "U1", "kind": "exogenous"}],
        "edges": [],
        "terms": [{"owner": "local:Z1", "expr": "-sq(z.Z1) + z.Z1*u.U1"}],
    })
    for _ in range(2):
        with pytest.raises(NonConvexBlockError, match="probe point"):
            induce_scm(model)
        with pytest.raises(NonConvexBlockError, match="probe point"):
            equivalence_check(model, trials=2)
        with pytest.raises(NonConvexBlockError, match="probe point"):
            pushforward_check(model, {"U1": {"dist": "gauss"}}, trials=2)
