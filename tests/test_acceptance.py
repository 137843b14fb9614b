"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to later
calibration.
"""

import json

import numpy as np

from escm import (
    GaugeTransform,
    Point,
    abduct,
    counterfactual,
    disjunctive_envelope,
    disjunctive_select,
    equivalence_check,
    gauge_preserved,
    hard,
    icm_check,
    icm_penalty,
    lap_check,
    lap_penalty,
    parse_model,
    solve,
    steady_state,
    susceptibility,
)
from escm.cli import run
from escm.corpus import random_quadratic_model
from escm.diagnostics import HEADS, apply_gauge, nondesc_pairs, probe
from escm.dynamics import DynHardSurgery, integrate
from escm.engine import Objective
from tests.conftest import CHAIN2_DYNAMICS, chain2_dict
from tests.genmodels import planted_case, random_interior_point, random_smooth_model

EVIDENCE = {"z.Z1": 1.0, "z.Z2": 2.5}


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_reduction_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    models = 50
    for k in range(models):
        nodes = int(rng.integers(2, 9))  # up to 8 nodes
        spec = random_quadratic_model(rng, n_nodes=nodes, density=0.4)
        model = parse_model(spec)
        # 30 trials cycle observational / one hard / one soft, ten contexts each
        report = equivalence_check(model, trials=30, seed=int(rng.integers(1 << 31)))
        worst = max(worst, report.max_deviation)
    _verdict(1, "reduction-equivalence", worst <= 1e-8,
             f"{models} models x 30 trials, max deviation {worst:.3e} <= 1e-8")


def test_criterion_2_chain2_counterfactual_fixture():
    model = parse_model(chain2_dict())
    explanation = abduct(model, EVIDENCE)
    u_ok = np.max(np.abs(explanation.point.u - np.array([0.5, 0.25]))) <= 1e-8
    result = counterfactual(model, EVIDENCE, [hard(model, "Z1", 0.0)],
                            readouts={"z2": "z.Z2"})
    z2_ok = abs(result.readouts["z2"] - 0.25) <= 1e-8
    grid = _grid_oracle(model)
    grid_ok = (abs(grid[0] - 0.5) <= 2e-3) and (abs(grid[1] - 0.25) <= 2e-3)
    _verdict(2, "chain2-counterfactual", u_ok and z2_ok and grid_ok,
             f"u_hat=({explanation.point.u[0]:.6f},{explanation.point.u[1]:.6f}), "
             f"do(Z1:=0) z2={result.readouts['z2']:.6f}")


def _grid_oracle(model):
    objective = Objective.from_model(model)
    point = Point.for_model(model, z=[1.0, 2.5])
    best = (np.inf, 0.0, 0.0)
    lo1 = lo2 = -1.0
    hi1 = hi2 = 1.0
    step = 0.1
    while True:
        for u1 in np.arange(lo1, hi1 + step / 2, step):
            for u2 in np.arange(lo2, hi2 + step / 2, step):
                point.u[0], point.u[1] = u1, u2
                val = objective.value(point)
                if val < best[0]:
                    best = (val, u1, u2)
        if step <= 1e-3:
            return best[1], best[2]
        lo1, hi1 = best[1] - step, best[1] + step
        lo2, hi2 = best[2] - step, best[2] + step
        step /= 10.0


def test_criterion_3_disjunctive_semantics():
    model = parse_model(chain2_dict())
    env = disjunctive_envelope(model, EVIDENCE, "Z1", [0.0, 1.0], {"phi": "z.Z2"})
    effects = sorted(r.readouts["phi"] for r in env.branches.values())
    endpoints_ok = env.envelopes["phi"] == (effects[0], effects[-1])

    hold = {"hold": ["z.Z2"]}  # separates the branch basins energetically
    committed = disjunctive_select(model, EVIDENCE, "Z1", [0.0, 1.0],
                                   readouts={"phi": "z.Z1"}, hold=hold)
    blended = disjunctive_select(model, EVIDENCE, "Z1", [0.0, 1.0], tau=1e-6,
                                 readouts={"phi": "z.Z1"}, hold=hold)
    chosen = committed.branch_readouts[committed.selected]["phi"]
    softmin_ok = abs(blended.readouts["phi"] - chosen) <= 1e-6

    # analytic crossover: e(s) = 0.5*(2.25-2s)^2 + const, control sq(s);
    # selection flips from s=1 to s=0 at rho* = 2.5
    rho_grid = np.arange(0.0, 5.0 + 1e-12, 0.5)
    selections = []
    for rho in rho_grid:
        sel = disjunctive_select(model, EVIDENCE, "Z1", [0.0, 1.0],
                                 rho=float(rho), control="sq(s)", hold=hold)
        selections.append(sel.selected[0])
    flips = [k for k in range(1, len(selections))
             if selections[k] != selections[k - 1]]
    sweep_ok = (len(flips) == 1
                and rho_grid[flips[0] - 1] < 2.5 <= rho_grid[flips[0]])

    _verdict(3, "disjunctive-semantics",
             endpoints_ok and softmin_ok and sweep_ok,
             f"envelope={env.envelopes['phi']}, softmin gap "
             f"{abs(blended.readouts['phi'] - chosen):.2e}, "
             f"flip in ({rho_grid[flips[0] - 1]}, {rho_grid[flips[0]]}] around 2.5")


def test_criterion_4_derivative_exactness():
    rng = np.random.default_rng(404)
    cases = 0
    worst_rel = 0.0
    failed = 0
    while cases < 1000:
        model = random_smooth_model(rng)
        objective = Objective.from_model(model)
        d = objective.dim
        for _ in range(10):
            if cases >= 1000:
                break
            point = random_interior_point(rng, model)
            x = np.concatenate([point.z, point.u, point.theta])

            def value_at(vec):
                return objective.value(Point(
                    z=vec[:model.nz].copy(),
                    u=vec[model.nz:model.nz + model.nu].copy(),
                    theta=vec[model.nz + model.nu:].copy()))

            def grad_at(vec):
                return objective.derivatives(Point(
                    z=vec[:model.nz].copy(),
                    u=vec[model.nz:model.nz + model.nu].copy(),
                    theta=vec[model.nz + model.nu:].copy()), order=1).grad

            full = objective.derivatives(point, order=2)
            h = 1e-6
            for col in range(d):
                up, dn = x.copy(), x.copy()
                up[col] += h
                dn[col] -= h
                fd = (value_at(up) - value_at(dn)) / (2 * h)
                err = abs(full.grad[col] - fd)
                bound = max(1e-8, 1e-5 * abs(full.grad[col]))
                worst_rel = max(worst_rel, err / bound)
                if err > bound:
                    failed += 1
            for col in rng.choice(d, size=min(2, d), replace=False):
                up, dn = x.copy(), x.copy()
                up[col] += h
                dn[col] -= h
                fd_col = (grad_at(up) - grad_at(dn)) / (2 * h)
                for r in range(d):
                    err = abs(full.hess[r, col] - fd_col[r])
                    bound = max(1e-8, 1e-5 * abs(full.hess[r, col]))
                    worst_rel = max(worst_rel, err / bound)
                    if err > bound:
                        failed += 1
            cases += 1
    _verdict(4, "derivative-exactness", failed == 0,
             f"1000 (model, point) cases, worst error/bound {worst_rel:.3f}, "
             f"{failed} violations")


def test_criterion_5_lap_icm_detection():
    rng = np.random.default_rng(505)
    false_neg = 0
    false_pos = 0
    coeff_bad = 0
    clean_penalty_bad = 0
    for index in range(200):
        case = planted_case(rng, index)
        model = case["model"]
        point = Point.for_model(model)
        lap_hits = {}
        for a, i in nondesc_pairs(model):
            rep = lap_check(model, a, i, point, tol=1e-10)
            if not rep.passed:
                lap_hits[(a, i)] = rep
        icm_hits_first = {}
        icm_hits_mixed = {}
        for node in model.dag.nodes:
            rep = icm_check(model, node, point, tol=1e-10)
            if not rep.passed_first:
                icm_hits_first[node] = rep
            if not rep.passed_mixed:
                icm_hits_mixed[node] = rep

        kind, coeff = case["kind"], case["coeff"]
        if kind is None:
            if lap_hits or icm_hits_first or icm_hits_mixed:
                false_pos += 1
            if lap_penalty(model, [point]) != 0.0 or icm_penalty(model, [point]) != 0.0:
                clean_penalty_bad += 1
            continue
        if kind == "lap_z":
            a, i = case["where"]
            hit = lap_hits.get((a, i))
            mirror = {(a, i), (i, a)}  # symmetric couplings trip both orders
            if hit is None:
                false_neg += 1
            elif abs(abs(hit.z_block).max() - abs(coeff)) > 1e-10:
                coeff_bad += 1
            if set(lap_hits) - mirror or icm_hits_first or icm_hits_mixed:
                false_pos += 1
        elif kind == "lap_theta":
            a, i = case["where"]
            hit = lap_hits.get((a, i))
            if hit is None:
                false_neg += 1
            elif abs(abs(hit.theta_block).max() - abs(coeff)) > 1e-10:
                coeff_bad += 1
            if set(lap_hits) - {(a, i)} or icm_hits_mixed:
                false_pos += 1
        elif kind == "icm_first":
            _, child = case["where"]
            hit = icm_hits_first.get(child)
            if hit is None:
                false_neg += 1
            elif abs(abs(hit.d_residual_d_parent).max() - abs(coeff)) > 1e-10:
                coeff_bad += 1
            if lap_hits or set(icm_hits_first) - {child}:
                false_pos += 1
        else:
            _, child = case["where"]
            hit = icm_hits_mixed.get(child)
            if hit is None:
                false_neg += 1
            elif abs(abs(hit.mixed_parent_own).max() - abs(coeff)) > 1e-10:
                coeff_bad += 1
            if lap_hits or icm_hits_first or set(icm_hits_mixed) - {child}:
                false_pos += 1
    ok = false_neg == 0 and false_pos == 0 and coeff_bad == 0 and clean_penalty_bad == 0
    _verdict(5, "lap-icm-detection", ok,
             f"200 cases: FN={false_neg} FP={false_pos} coeff-mismatch={coeff_bad} "
             f"nonzero-clean-penalties={clean_penalty_bad}")


def test_criterion_6_susceptibility():
    rng = np.random.default_rng(606)
    worst = 0.0
    exact_zero_ok = True
    for _ in range(100):
        nodes = int(rng.integers(2, 7))
        spec = random_quadratic_model(rng, n_nodes=nodes, density=0.5)
        model = parse_model(spec)
        u = rng.uniform(-1.5, 1.5, size=model.nu)
        clamps = {("u", k): float(u[k]) for k in range(model.nu)}
        eq = solve(model, clamps=clamps)

        if model.ntheta and rng.uniform() < 0.6:
            widx = int(rng.integers(0, model.ntheta))
            wref = ("theta", widx)
            owner = model.labels("theta")[widx].split(".")[0]
        else:
            widx = int(rng.integers(0, model.nu))
            wref = ("u", widx)
            owner = model.endogenous[widx].name  # paired by position
        response = susceptibility(model, eq, wref)

        h = 1e-5
        pu, pd = eq.point.copy(), eq.point.copy()
        getattr(pu, wref[0])[wref[1]] += h
        getattr(pd, wref[0])[wref[1]] -= h
        clamps_up = dict(clamps)
        clamps_dn = dict(clamps)
        if wref[0] == "u":
            clamps_up[wref] = float(pu.u[wref[1]])
            clamps_dn[wref] = float(pd.u[wref[1]])
        eq_up = solve(model, clamps=clamps_up, init_point=pu)
        eq_dn = solve(model, clamps=clamps_dn, init_point=pd)
        fd = (eq_up.point.z - eq_dn.point.z) / (2 * h)
        worst = max(worst, float(np.max(np.abs(response - fd))))

        allowed = {owner} | set(model.descendants(owner))
        for pos, ref in enumerate(eq.free):
            name = next(v.name for v in model.endogenous
                        if ref in model.coord_indices(v.name))
            if name not in allowed and response[pos] != 0.0:
                exact_zero_ok = False
    _verdict(6, "susceptibility", worst <= 1e-6 and exact_zero_ok,
             f"100 cases, max |IFT - re-solve| {worst:.3e} <= 1e-6, "
             f"non-descendant responses exactly zero: {exact_zero_ok}")


def test_criterion_7_metric_geometry():
    model = parse_model(chain2_dict())
    eq = solve(model, clamps={"u.U1": 1.0, "u.U2": 0.5})
    from escm import causal_metric, second_order

    metric = causal_metric(model, eq)
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        while True:
            j = rng.uniform(-2.0, 2.0, size=(2, 2))
            if abs(np.linalg.det(j)) > 0.2:
                break
        algebra = j.T @ metric @ j
        # independent route: reparametrize the energy and differentiate
        gauge = GaugeTransform(j=np.linalg.inv(j))
        gauged = apply_gauge(model, gauge)
        zeta = np.linalg.solve(j, eq.point.z)
        probe_point = Point(z=zeta, u=eq.point.u.copy(), theta=eq.point.theta.copy())
        report = probe(gauged, "H_Hess", [probe_point])
        chart = sum(np.asarray(report.outputs[0][owner])
                    for owner in report.outputs[0])
        worst = max(worst, float(np.max(np.abs(chart - algebra))))
    congruence_ok = worst <= 1e-12

    second = second_order(model, eq.point)
    scaled = causal_metric(model, eq, scales={"Z2": 3.0})
    expected = second.attribution["Z1"]["zz"] + 3.0 * second.attribution["Z2"]["zz"]
    rescale_ok = np.array_equal(scaled, expected) and scaled.tolist() == [
        [13.0, -6.0], [-6.0, 3.0]]
    _verdict(7, "metric-geometry", congruence_ok and rescale_ok,
             f"50 charts, max congruence defect {worst:.2e} <= 1e-12, "
             f"per-module rescale exact: {rescale_ok}")


def test_criterion_8_gauge_hierarchy():
    iso = parse_model({
        "variables": [{"name": "Z1", "kind": "endogenous"},
                      {"name": "Z2", "kind": "endogenous"}],
        "edges": [],
        "terms": [{"owner": "local:Z1", "expr": "0.5*sq(z.Z1)"},
                  {"owner": "local:Z2", "expr": "0.5*sq(z.Z2)"}],
    })
    chain = parse_model(chain2_dict())
    rng = np.random.default_rng(808)

    def pts(model):
        return [Point.for_model(model,
                                z=rng.uniform(-1.5, 1.5, size=model.nz),
                                u=rng.uniform(-1.0, 1.0, size=model.nu))
                for _ in range(4)]

    offsets_ok = True
    for _ in range(10):
        gauge = GaugeTransform(offset={"Z1": float(rng.uniform(-4, 4))})
        verdicts = gauge_preserved(chain, gauge, points=pts(chain))
        offsets_ok &= (verdicts["H_E"] is False and verdicts["H_dE"]
                       and verdicts["H_gradE"] and verdicts["H_deltaE"]
                       and verdicts["H_Hess"])

    comp = GaugeTransform(scale={"Z1": 4.0, "Z2": 4.0}, j=2.0 * np.eye(2))
    comp_ok = all(gauge_preserved(iso, comp, points=pts(iso)).values())

    order = {head: k for k, head in enumerate(HEADS)}
    nesting_ok = True
    gauges = [GaugeTransform()]
    for _ in range(8):
        gauges.append(GaugeTransform(offset={
            "Z1": float(rng.uniform(-3, 3)), "Z2": float(rng.uniform(-3, 3))}))
    for _ in range(8):
        a = float(rng.uniform(0.4, 3.0))
        gauges.append(GaugeTransform(scale={"Z1": a, "Z2": a}))
    for _ in range(8):
        s = float(rng.uniform(0.5, 2.0))
        gauges.append(GaugeTransform(scale={"Z1": s * s, "Z2": s * s},
                                     j=s * np.eye(2)))
    for gauge in gauges:
        verdicts = gauge_preserved(iso, gauge, points=pts(iso))
        preserved = [order[h] for h, ok in verdicts.items() if ok]
        broken = [order[h] for h, ok in verdicts.items() if not ok]
        if verdicts["H_E"] and not all(verdicts.values()):
            nesting_ok = False
        if preserved and broken and max(broken) >= min(preserved):
            nesting_ok = False
    _verdict(8, "gauge-hierarchy", offsets_ok and comp_ok and nesting_ok,
             f"offsets break only H_E: {offsets_ok}, compensated scale "
             f"preserved by all: {comp_ok}, preservation sets nested: {nesting_ok}")


def test_criterion_9_dynamics():
    rng = np.random.default_rng(909)
    worst_gap = 0.0
    for _ in range(20):
        nodes = int(rng.integers(2, 7))
        spec = random_quadratic_model(rng, n_nodes=nodes, density=0.5,
                                      dynamics=True)
        model = parse_model(spec)
        u = rng.uniform(-1.5, 1.5, size=model.nu)
        ss = steady_state(model, u)
        clamps = {("u", k): float(u[k]) for k in range(model.nu)}
        eq = solve(model, clamps=clamps)
        worst_gap = max(worst_gap, float(np.max(np.abs(ss.z - eq.point.z))))
    steady_ok = worst_gap <= 1e-8

    descent_ok = True
    for _ in range(4):
        spec = random_quadratic_model(rng, n_nodes=5, density=0.6, dynamics=True)
        model = parse_model(spec)
        u = rng.uniform(-1.0, 1.0, size=model.nu)
        z0 = rng.uniform(-2.0, 2.0, size=model.nz)
        traj = integrate(model, z0, u, t_end=6.0, dt=0.02)
        objective = Objective.from_model(model)
        energies = [objective.value(Point.for_model(model, z=s, u=u))
                    for s in traj.states]
        descent_ok &= all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))

    spec = chain2_dict()
    spec["dynamics"] = CHAIN2_DYNAMICS
    chain_dyn = parse_model(spec)
    kappa = 10.0
    traj = integrate(chain_dyn, [1.0, 2.5], [1.0, 0.5],
                     [DynHardSurgery("Z1", 0.0, gain=kappa)], t_end=2.0, dt=0.005)
    initial = abs(traj.states[0, 0])
    rate_ok = all(abs(s[0]) <= np.exp(-kappa * t) * initial + 1e-6
                  for t, s in zip(traj.times, traj.states))
    _verdict(9, "dynamics", steady_ok and descent_ok and rate_ok,
             f"20 models, max |steady - static| {worst_gap:.3e} <= 1e-8, "
             f"energy non-increasing: {descent_ok}, feedback rate bound: {rate_ok}")


def test_criterion_10_determinism(tmp_path, capsys):
    model_path = tmp_path / "chain2.json"
    model_path.write_text(json.dumps(chain2_dict()), encoding="utf-8")
    outputs = []
    for _ in range(2):
        code = run(["reduce-check", str(model_path), "--trials", "12",
                    "--seed", "7", "--no-timing"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    reports_ok = outputs[0] == outputs[1]

    dirs = [tmp_path / "c1", tmp_path / "c2"]
    for d in dirs:
        code = run(["gen-corpus", "--out", str(d), "--count", "4",
                    "--nodes", "5", "--density", "0.4", "--seed", "11",
                    "--no-timing"])
        assert code == 0
        capsys.readouterr()
    corpus_ok = True
    names = sorted(p.name for p in dirs[0].iterdir())
    for name in names:
        corpus_ok &= (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    with capsys.disabled():
        _verdict(10, "determinism", reports_ok and corpus_ok,
                 f"byte-identical reports: {reports_ok}, corpus regeneration: {corpus_ok}")


def test_acceptance_suite_summary(capsys):
    # All the substance is in the per-criterion tests above; this line just
    # marks the end of the acceptance block in -s output.
    with capsys.disabled():
        print("ACCEPTANCE    suite complete")
