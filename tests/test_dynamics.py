"""Trajectories, steady states, and dynamic locality/independence checks."""

import json
from pathlib import Path

import numpy as np
import pytest

from escm import (
    DynHardSurgery,
    Point,
    QueryError,
    SolverError,
    integrate,
    parse_model,
    soft,
    solve,
    steady_state,
)
from escm.diagnostics import _lap_reports, nondesc_pairs
from escm.dynamics import (
    _dyn_lap_reports,
    dyn_icm_check,
    dyn_icm_penalty,
    dyn_lap_check,
    dyn_lap_penalty,
    dyn_surgery_from_dict,
)
from escm.engine import Objective, ObjectiveTerm, effective_energy_pair
from escm.cli import run
from tests.conftest import chain2_dict
from escm.corpus import random_quadratic_model


def test_integrate_converges_to_static_equilibrium(chain2_dyn):
    traj = integrate(chain2_dyn, [0.0, 0.0], [1.0, 0.5], t_end=20.0, dt=0.01)
    assert np.allclose(traj.states[-1], [1.0, 2.5], atol=1e-6)
    assert traj.times[0] == 0.0 and traj.times[-1] == pytest.approx(20.0)


def test_zero_field_stays_constant():
    spec = chain2_dict()
    spec["dynamics"] = [{"var": "Z1", "expr": "0"}, {"var": "Z2", "expr": "0"}]
    model = parse_model(spec)
    traj = integrate(model, [0.3, -0.7], [0.0, 0.0], t_end=1.0, dt=0.1)
    assert np.all(traj.states == traj.states[0])


def test_feedback_control_drives_target(chain2_dyn):
    surgeries = [DynHardSurgery("Z1", 0.0, gain=10.0)]
    traj = integrate(chain2_dyn, [1.0, 2.5], [1.0, 0.5], surgeries,
                     t_end=20.0, dt=0.01)
    assert abs(traj.states[-1, 0]) < 1e-6
    assert abs(traj.states[-1, 1] - 0.5) < 1e-6
    assert traj.events == [{"t": 0.0, "surgery": "hard:Z1"}]


def test_feedback_exponential_rate(chain2_dyn):
    kappa = 10.0
    dt = 0.005
    traj = integrate(chain2_dyn, [1.0, 2.5], [1.0, 0.5],
                     [DynHardSurgery("Z1", 0.0, gain=kappa)], t_end=2.0, dt=dt)
    initial = abs(traj.states[0, 0])
    for t, state in zip(traj.times, traj.states):
        assert abs(state[0]) <= np.exp(-kappa * t) * initial + 1e-6


def test_blowup_reports_last_finite_time():
    spec = chain2_dict()
    spec["dynamics"] = [{"var": "Z1", "expr": "sq(z.Z1)*z.Z1"},
                        {"var": "Z2", "expr": "0"}]
    model = parse_model(spec)
    with pytest.raises(SolverError) as err:
        integrate(model, [5.0, 0.0], [0.0, 0.0], t_end=10.0, dt=0.1)
    assert "last_finite_time" in err.value.diagnostics


def test_steady_state_matches_static(chain2_dyn):
    ss = steady_state(chain2_dyn, [1.0, 0.5])
    assert np.allclose(ss.z, [1.0, 2.5], atol=1e-10)
    assert ss.stable
    eq = solve(chain2_dyn, clamps={"u.U1": 1.0, "u.U2": 0.5})
    assert np.max(np.abs(ss.z - eq.point.z)) <= 1e-8


def test_unstable_scalar_flagged():
    spec = {
        "variables": [{"name": "Z1", "kind": "endogenous"}],
        "edges": [],
        "terms": [{"owner": "local:Z1", "expr": "0.5*sq(z.Z1)"}],
        "dynamics": [{"var": "Z1", "expr": "z.Z1"}],
    }
    model = parse_model(spec)
    ss = steady_state(model, [])
    assert ss.z[0] == pytest.approx(0.0, abs=1e-12)
    assert not ss.stable


def test_steady_state_after_feedback(chain2_dyn):
    for kappa in (0.5, 3.0, 25.0):
        ss = steady_state(chain2_dyn, [1.0, 0.5],
                          [DynHardSurgery("Z1", 0.0, gain=kappa)])
        assert np.allclose(ss.z, [0.0, 0.5], atol=1e-10)
        assert ss.stable


def test_energy_descends_along_blockwise_flow():
    rng = np.random.default_rng(14)
    spec = random_quadratic_model(rng, n_nodes=5, density=0.6, dynamics=True)
    model = parse_model(spec)
    u = rng.uniform(-1.0, 1.0, size=model.nu)
    z0 = rng.uniform(-2.0, 2.0, size=model.nz)
    traj = integrate(model, z0, u, t_end=8.0, dt=0.02)
    objective = Objective.from_model(model)
    energies = [objective.value(Point.for_model(model, z=state, u=u))
                for state in traj.states[::10]]
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-9


def test_soft_dynamic_surgery_blends(chain2_dyn):
    replacement = "-(z.Z1 - 4)"
    full = steady_state(chain2_dyn, [1.0, 0.5],
                        [soft(chain2_dyn, "Z1", 1.0, replacement)])
    assert full.z[0] == pytest.approx(4.0, abs=1e-10)
    half = steady_state(chain2_dyn, [1.0, 0.5],
                        [soft(chain2_dyn, "Z1", 0.5, replacement)])
    # blended field: -(z-1)/2 - (z-4)/2 = 0 at z = 2.5
    assert half.z[0] == pytest.approx(2.5, abs=1e-10)
    identity = steady_state(chain2_dyn, [1.0, 0.5],
                            [soft(chain2_dyn, "Z1", 0.0, replacement)])
    assert identity.z[0] == pytest.approx(1.0, abs=1e-10)


def test_dyn_lap_clean_pair(chain2_dyn):
    report = dyn_lap_check(chain2_dyn, "Z2", "Z1", Point.for_model(chain2_dyn))
    assert report.max_abs_z == 0.0
    assert report.passed


def test_dyn_lap_planted_violation():
    spec = chain2_dict()
    spec["dynamics"] = [
        {"var": "Z1", "expr": "-(z.Z1 - u.U1) + 0.2*z.Z2"},
        {"var": "Z2", "expr": "-(z.Z2 - theta.Z2.a*z.Z1 - u.U2)"},
    ]
    model = parse_model(spec, mask_policy="warn")
    report = dyn_lap_check(model, "Z2", "Z1", Point.for_model(model))
    assert report.z_block.tolist() == [[0.2]]
    assert not report.passed


def test_dyn_lap_elimination_option(chain2_dyn):
    spec = chain2_dict()
    spec["variables"].insert(2, {"name": "Z3", "kind": "endogenous"})
    spec["terms"].insert(2, {"owner": "local:Z3", "expr": "0.5*sq(z.Z3)"})
    spec["dynamics"] = [
        {"var": "Z1", "expr": "-(z.Z1 - u.U1)"},
        {"var": "Z3", "expr": "-z.Z3"},
        {"var": "Z2", "expr": "-(z.Z2 - theta.Z2.a*z.Z1 - u.U2)"},
    ]
    model = parse_model(spec)
    report = dyn_lap_check(model, "Z2", "Z1", Point.for_model(model),
                           eliminate=("Z3",))
    assert report.passed
    with pytest.raises(QueryError):
        dyn_lap_check(model, "Z2", "Z1", Point.for_model(model),
                      eliminate=("Z1",))


_GOLDEN_MODELS = Path(__file__).parent / "golden" / "models"


@pytest.mark.parametrize("name, eliminate", [
    ("chain2_dyn", ("Nope",)),   # unknown
    ("chain2_dyn", ("U1",)),     # exogenous
    ("chain2_dyn", "Z3"),        # a bare string, not a sequence of names
    ("plant4_dyn", ("Z4", "Z4")),
])
def test_dyn_lap_rejects_bad_eliminate(name, eliminate):
    spec = json.loads((_GOLDEN_MODELS / f"{name}.json").read_text(encoding="utf-8"))
    model = parse_model(spec, mask_policy="warn")
    with pytest.raises(QueryError, match="eliminate"):
        dyn_lap_check(model, "Z2", "Z1", Point.for_model(model), eliminate=eliminate)


def test_dyn_icm_clean_and_planted(chain2_dyn):
    clean = dyn_icm_check(chain2_dyn, "Z2", Point.for_model(chain2_dyn))
    assert clean.passed  # Z1's mechanism has no parameters

    spec = chain2_dict()
    spec["terms"][0]["expr"] = "0.5*sq(z.Z1 - theta.Z1.b*u.U1)"
    spec["terms"][0]["params"] = {"b": 1.0}
    spec["dynamics"] = [
        {"var": "Z1", "expr": "-(z.Z1 - theta.Z1.b*u.U1)"},
        {"var": "Z2", "expr": "-(z.Z2 - theta.Z2.a*z.Z1 - u.U2) + 0.4*theta.Z1.b"},
    ]
    model = parse_model(spec)
    report = dyn_icm_check(model, "Z2", Point.for_model(model))
    # own parameters are usage-based: F_Z2 reads the parent's b as well
    assert (report.node, report.parent_params, report.own_params) == \
        ("Z2", ["Z1.b"], ["Z1.b", "Z2.a"])
    assert report.d_residual_d_parent.ravel().tolist() == [0.4]
    assert report.mixed_parent_own.tolist() == [[[0.0, 0.0]]]
    assert not report.passed


def test_dyn_penalties(chain2_dyn):
    samples = [Point.for_model(chain2_dyn)]
    assert dyn_lap_penalty(chain2_dyn, samples) == 0.0
    assert dyn_icm_penalty(chain2_dyn, samples) == 0.0

    spec = chain2_dict()
    spec["dynamics"] = [
        {"var": "Z1", "expr": "-(z.Z1 - u.U1) + 0.2*z.Z2"},
        {"var": "Z2", "expr": "-(z.Z2 - theta.Z2.a*z.Z1 - u.U2)"},
    ]
    model = parse_model(spec, mask_policy="warn")
    assert dyn_lap_penalty(model, [Point.for_model(model)]) == pytest.approx(0.04)


def test_dyn_surgery_from_dict(chain2_dyn):
    s = dyn_surgery_from_dict(chain2_dyn, {"kind": "hard", "target": "Z1",
                                           "value": 1.0, "gain": 5.0})
    assert isinstance(s, DynHardSurgery) and s.gain == 5.0
    with pytest.raises(QueryError):
        dyn_surgery_from_dict(chain2_dyn, {"kind": "hard", "target": "Z1",
                                           "value": 0.0, "gain": -1.0})


_DUPLICATE_EDITS = {
    "hard+soft": [{"kind": "hard", "target": "Z1", "value": 3},
                  {"kind": "soft", "target": "Z1", "lambda": 0.5, "expr": "-z.Z1"}],
    "hard+hard": [{"kind": "hard", "target": "Z1", "value": 3},
                  {"kind": "hard", "target": "Z1", "value": -3}],
}


@pytest.mark.parametrize("payload", _DUPLICATE_EDITS.values(), ids=_DUPLICATE_EDITS.keys())
def test_field_edits_reject_duplicate_targets(chain2_dyn, capsys, payload):
    surgeries = [dyn_surgery_from_dict(chain2_dyn, s) for s in payload]
    with pytest.raises(QueryError, match="multiple surgeries on the same target"):
        integrate(chain2_dyn, [0.0, 0.0], [1.0, 0.5], surgeries, t_end=0.1, dt=0.05)
    with pytest.raises(QueryError, match="multiple surgeries on the same target"):
        steady_state(chain2_dyn, [1.0, 0.5], surgeries)

    code = run(["simulate", str(_GOLDEN_MODELS / "chain2_dyn.json"),
                "--surgeries", json.dumps(payload), "--no-timing"])
    captured = capsys.readouterr()
    assert code == 3
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["type"] == "QueryError"
    assert "Traceback" not in captured.err


def test_requires_dynamics(chain2):
    with pytest.raises(QueryError):
        integrate(chain2, [0.0, 0.0], [0.0, 0.0], t_end=1.0, dt=0.1)
    with pytest.raises(QueryError):
        steady_state(chain2, [0.0, 0.0])


# ---------------------------------------------------------------------------
# Batched dynamic locality reports


def _per_pair_reference(model, a, i, point, eliminate=()):
    """dF_i/dz_a and dF_i/dtheta_a rebuilt for one pair: one order-1 jet
    per component over the z coordinates and theta_a, then, with
    ``eliminate``, the reduced field of that pair alone."""
    objective = Objective.from_model(model)
    nodes = [v.name for v in model.endogenous]
    theta_refs = model.module_theta_refs(a, dynamics=True)
    jac = np.zeros((len(nodes), len(nodes)))
    dtheta = np.zeros((len(nodes), len(theta_refs)))
    components = {c.var: c for c in model.dynamics}
    for k, name in enumerate(nodes):
        term = ObjectiveTerm(name, [(1.0, components[name].compiled)])
        active = [r for r in term.refs if r in model.coords("z")] + \
                 [r for r in theta_refs if r in term.refs]
        jet = objective.term_jet(term, point, active, order=1)
        for ref, g in zip(active, getattr(jet, "grad", ())):
            if ref in model.coords("z"):
                jac[k, ref] = g
            else:
                dtheta[k, theta_refs.index(ref)] = g
    if eliminate:
        drop = [nodes.index(name) for name in eliminate]
        keep = [k for k in range(len(nodes)) if k not in drop]
        j_cc = jac[np.ix_(drop, drop)]
        j_kd = jac[np.ix_(keep, drop)]
        jac, dtheta = (jac[np.ix_(keep, keep)] - j_kd @ np.linalg.solve(j_cc, jac[np.ix_(drop, keep)]),
                       dtheta[keep] - j_kd @ np.linalg.solve(j_cc, dtheta[drop]))
        nodes = [nodes[k] for k in keep]
    r, c = nodes.index(i), nodes.index(a)
    return jac[r:r + 1, c:c + 1], dtheta[r:r + 1, :]


def _planted_dynamics_model(rng, kind):
    """A corpus model with dynamics and, for the lap kinds, one violation
    planted in both the energy (global term) and the field of module i."""
    spec = random_quadratic_model(rng, int(rng.integers(4, 7)), density=0.4,
                                  dynamics=True)
    if kind is None:
        return parse_model(spec), None
    model = parse_model(spec)
    pairs = nondesc_pairs(model)
    a, i = pairs[int(rng.integers(len(pairs)))]
    c = repr(float(rng.uniform(0.3, 1.5)))
    component = next(d for d in spec["dynamics"] if d["var"] == i)
    if kind == "lap_z":
        spec["terms"].append({"owner": "global", "expr": f"{c}*z.{a}*z.{i}"})
        component["expr"] += f" + {c}*z.{a}"
    else:
        local_a = next(t for t in spec["terms"] if t["owner"] == f"local:{a}")
        local_a.setdefault("params", {})["p_lap"] = 1.0
        spec["terms"].append({"owner": "global", "expr": f"{c}*theta.{a}.p_lap*z.{i}"})
        component["expr"] += f" + {c}*theta.{a}.p_lap"
    return parse_model(spec, mask_policy="warn"), (a, i)


def test_dyn_lap_batch_equals_per_pair_reference():
    rng = np.random.default_rng(21)
    for index in range(12):
        kind = (None, "lap_z", "lap_theta")[index % 3]
        model, where = _planted_dynamics_model(rng, kind)
        point = Point(z=rng.uniform(-1, 1, model.nz), u=rng.uniform(-1, 1, model.nu),
                      theta=model.theta_defaults())
        pairs = nondesc_pairs(model)
        reports = _dyn_lap_reports(model, pairs, point)
        assert [r.pair for r in reports] == pairs
        for (a, i), report in zip(pairs, reports):
            z_block, theta_block = _per_pair_reference(model, a, i, point)
            for got, want in ((report.z_block, z_block), (report.theta_block, theta_block)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            single = dyn_lap_check(model, a, i, point)
            assert single.z_block.tobytes() == report.z_block.tobytes()
            assert single.theta_block.tobytes() == report.theta_block.tobytes()
            assert report.passed == ((a, i) != where)
        # the static batch of the same model matches the pair energies and
        # flags the planted pair too
        static = _lap_reports(model, pairs, point)
        for (a, i), report in zip(pairs, static):
            pair = effective_energy_pair(model, a, i, point)
            assert report.z_block.tobytes() == pair.cross_zz().tobytes()
            assert report.theta_block.tobytes() == pair.cross_ztheta().tobytes()
        passed = {r.pair: r.passed for r in static}
        assert all(passed.values()) if where is None else not passed[where]


def test_dyn_lap_batch_with_elimination():
    rng = np.random.default_rng(22)
    model, where = _planted_dynamics_model(rng, "lap_z")
    point = Point(z=rng.uniform(-1, 1, model.nz), u=rng.uniform(-1, 1, model.nu),
                  theta=model.theta_defaults())
    eliminate = tuple(n for n in model.dag.nodes if n not in where)[:2]
    pairs = [(a, i) for a, i in nondesc_pairs(model)
             if a not in eliminate and i not in eliminate]
    reports = _dyn_lap_reports(model, pairs, point, eliminate=eliminate)
    # the batch solves the eliminated block for every theta column at once,
    # so LAPACK may round differently from the per-pair solve
    for (a, i), report in zip(pairs, reports):
        z_block, theta_block = _per_pair_reference(model, a, i, point, eliminate)
        np.testing.assert_allclose(report.z_block, z_block, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(report.theta_block, theta_block, rtol=1e-15, atol=1e-15)
        assert report.eliminated == eliminate
    assert not reports[pairs.index(where)].passed
    with pytest.raises(QueryError):
        _dyn_lap_reports(model, pairs + [("Z3", "Z1")], point, eliminate=eliminate)


def test_gradient_flow_field_gives_the_negated_static_locality_blocks():
    """F_i = -dlocal_i/dz_i written out by hand: every dynamic locality
    block is the negated static block, planted violations included."""
    spec = {
        "variables": [{"name": f"Z{k}", "kind": "endogenous"} for k in range(1, 5)]
        + [{"name": f"U{k}", "kind": "exogenous"} for k in range(1, 5)],
        "edges": [["Z1", "Z2"], ["Z2", "Z3"], ["Z1", "Z3"]],
        "terms": [
            {"owner": "local:Z1", "params": {"k": 1.3},
             "expr": "0.5*sq(z.Z1 - theta.Z1.k*u.U1) + 0.25*theta.Z4.w*z.Z1*z.Z4"},
            {"owner": "local:Z2", "params": {"a": 0.7},
             "expr": "0.5*sq(z.Z2 - theta.Z2.a*z.Z1 - u.U2)"},
            {"owner": "local:Z3", "params": {"c": 0.8, "d": -0.6},
             "expr": "0.5*sq(z.Z3 - theta.Z3.c*z.Z2 - theta.Z1.k*theta.Z3.d*z.Z1 - u.U3)"},
            {"owner": "local:Z4", "params": {"w": 1.5},
             "expr": "0.5*theta.Z4.w*sq(z.Z4 - u.U4)"},
        ] + [{"owner": f"exo:U{k}", "expr": f"0.5*sq(u.U{k})"} for k in range(1, 5)],
        "dynamics": [
            {"var": "Z1", "expr": "-(z.Z1 - theta.Z1.k*u.U1) - 0.25*theta.Z4.w*z.Z4"},
            {"var": "Z2", "expr": "-(z.Z2 - theta.Z2.a*z.Z1 - u.U2)"},
            {"var": "Z3", "expr": "-(z.Z3 - theta.Z3.c*z.Z2 - theta.Z1.k*theta.Z3.d*z.Z1 - u.U3)"},
            {"var": "Z4", "expr": "-theta.Z4.w*(z.Z4 - u.U4)"},
        ],
    }
    model = parse_model(spec, mask_policy="warn")
    pairs = nondesc_pairs(model)
    rng = np.random.default_rng(9)
    nonzero = 0
    for _ in range(5):
        point = Point.for_model(model, z=rng.uniform(-1, 1, model.nz),
                                u=rng.uniform(-1, 1, model.nu))
        for static, dynamic in zip(_lap_reports(model, pairs, point),
                                   _dyn_lap_reports(model, pairs, point)):
            assert dynamic.pair == static.pair
            assert dynamic.theta_labels == static.theta_labels
            for got, want in ((dynamic.z_block, static.z_block),
                              (dynamic.theta_block, static.theta_block)):
                assert got.shape == want.shape
                assert (got == -want).all()
            nonzero += (static.max_abs_z > 0) + (static.max_abs_theta > 0)
    assert nonzero >= 15  # both plants show at every point
