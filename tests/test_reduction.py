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
    SolverConfig,
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
        from escm.reduction import _energy_side
        from escm.solver import SolverConfig

        z_energy = _energy_side(chain2, u, apply_surgery(chain2, surgeries), SolverConfig())
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


@pytest.mark.parametrize("init", ["forward-scm", "point"])
def test_oracle_checks_refuse_a_start_other_than_zeros(init):
    # started at the forward sweep, the energy side would be compared with
    # the sweep itself: a deviation of exactly 0.0 that checks nothing
    model = parse_model((Path(__file__).parent / "golden" / "models" / "rq10.json")
                        .read_text(encoding="utf-8"))
    cfg = SolverConfig(init=init)
    with pytest.raises(QueryError, match="from zeros"):
        equivalence_check(model, trials=12, seed=3, cfg=cfg)
    sampler = {v.name: {"dist": "gauss"} for v in model.exogenous}
    with pytest.raises(QueryError, match="from zeros"):
        pushforward_check(model, sampler, trials=12, seed=3, cfg=cfg)


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


def test_vector_block_argmin_and_equivalence():
    spec = {
        "variables": [{"name": "V", "kind": "endogenous", "dim": 2},
                      {"name": "W", "kind": "endogenous", "dim": 1},
                      {"name": "U1", "kind": "exogenous", "dim": 2},
                      {"name": "U2", "kind": "exogenous", "dim": 1}],
        "edges": [["V", "W"]],
        "terms": [
            {"owner": "local:V",
             "expr": "0.5*sq(z.V[0] - u.U1[0]) + 0.5*sq(z.V[1] - u.U1[1])"
                     " + 0.25*sq(z.V[0] - z.V[1])"},
            {"owner": "local:W",
             "expr": "0.5*sq(z.W - z.V[0] - 0.5*z.V[1] - u.U2)"},
            {"owner": "exo:U1", "expr": "0.5*(sq(u.U1[0]) + sq(u.U1[1]))"},
            {"owner": "exo:U2", "expr": "0.5*sq(u.U2)"},
        ],
    }
    model = parse_model(spec)
    report = equivalence_check(model, trials=12, seed=5)
    assert report.passed, report.max_deviation


def test_contraction_factor_small_couplings():
    rng = np.random.default_rng(2)
    spec = random_quadratic_model(rng, n_nodes=5, density=0.6, dynamics=True)
    model = parse_model(spec)
    rho = contraction_factor(model, [Point.for_model(model)])
    assert 0.0 <= rho < 1.0

    chain = parse_model(chain2_dict())
    rho_chain = contraction_factor(chain, [Point.for_model(chain)])
    assert rho_chain == pytest.approx(2.0, abs=1e-9)  # df2/dz1 = a = 2


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
