"""Locality/independence checks, metric geometry, susceptibility, gauges."""

import json
from pathlib import Path

import numpy as np
import pytest

from escm import (
    GaugeTransform,
    IndefiniteMetricError,
    PairError,
    Point,
    QueryError,
    SolverConfig,
    apply_gauge,
    causal_metric,
    gauge_preserved,
    hard,
    icm_check,
    icm_penalty,
    lap_check,
    lap_penalty,
    metric_in_chart,
    parse_model,
    probe,
    solve,
    susceptibility,
)
from escm.corpus import random_quadratic_model
from escm import dynamics
from escm.diagnostics import HEADS, _lap_reports, _penalty, nondesc_pairs
from escm.engine import Objective, effective_energy_pair
from tests.conftest import chain2_dict
from tests.genmodels import planted_case, random_interior_point, random_smooth_model

ISO_QUADRATIC = {
    "variables": [{"name": "Z1", "kind": "endogenous"},
                  {"name": "Z2", "kind": "endogenous"}],
    "edges": [],
    "terms": [
        {"owner": "local:Z1", "expr": "0.5*sq(z.Z1)"},
        {"owner": "local:Z2", "expr": "0.5*sq(z.Z2)"},
    ],
}


# ---------------------------------------------------------------------------
# LAP


def test_lap_detects_bilinear_coupling(chain2_z3):
    report = lap_check(chain2_z3, "Z1", "Z3", Point.for_model(chain2_z3))
    assert report.z_block.tolist() == [[0.3]]
    assert not report.passed


def test_lap_clean_pair_passes_exactly(chain2):
    report = lap_check(chain2, "Z2", "Z1", Point.for_model(chain2))
    assert report.max_abs_z == 0.0
    assert report.max_abs_theta == 0.0
    assert report.passed


def test_lap_rejects_descendant_pairs(chain2):
    with pytest.raises(PairError):
        lap_check(chain2, "Z1", "Z2", Point.for_model(chain2))


def test_lap_penalty_single_pair_weight(chain2_z3):
    p = Point.for_model(chain2_z3)
    # weight one violating ordered pair only: 0.3^2
    value = lap_penalty(chain2_z3, [p], lam={("Z1", "Z3"): 1.0}, mu={})
    assert value == pytest.approx(0.09, abs=1e-15)
    # uniform weights count both orientations of the symmetric coupling
    assert lap_penalty(chain2_z3, [p]) == pytest.approx(0.18, abs=1e-15)


def test_lap_penalty_zero_on_clean_model(chain2):
    assert lap_penalty(chain2, [Point.for_model(chain2)]) == 0.0


def test_lap_penalty_linear_in_weights(chain2_z3):
    p = Point.for_model(chain2_z3)
    base = lap_penalty(chain2_z3, [p], lam=1.0, mu=1.0)
    doubled = lap_penalty(chain2_z3, [p], lam=2.0, mu=2.0)
    assert doubled == pytest.approx(2.0 * base, rel=1e-15)


# ---------------------------------------------------------------------------
# ICM


def test_icm_clean_chain2(chain2):
    report = icm_check(chain2, "Z2", Point.for_model(chain2))
    assert report.parent_params == []
    assert report.passed


def test_icm_parent_params_clean_when_separate():
    spec = chain2_dict()
    spec["terms"][0]["expr"] = "0.5*sq(z.Z1 - theta.Z1.b*u.U1)"
    spec["terms"][0]["params"] = {"b": 1.0}
    model = parse_model(spec)
    report = icm_check(model, "Z2", Point.for_model(model, z=[1.0, 2.5], u=[1.0, 0.5]))
    assert report.parent_params == ["Z1.b"]
    assert np.all(report.d_residual_d_parent == 0.0)
    assert report.passed


def test_icm_shared_parameter_fails_with_reported_value():
    spec = chain2_dict()
    spec["terms"][0]["expr"] = "0.5*sq(z.Z1 - theta.Z2.a*u.U1)"
    model = parse_model(spec)
    report = icm_check(model, "Z2", Point.for_model(model, z=[1.0, 2.5], u=[1.0, 0.5]))
    assert report.parent_params == ["Z2.a"]
    assert report.d_residual_d_parent.tolist() == [[-1.0]]
    assert not report.passed


def test_icm_penalty_zero_on_clean_model(chain2):
    samples = [Point.for_model(chain2),
               Point.for_model(chain2, z=[1.0, 2.0], u=[0.3, -0.4])]
    assert icm_penalty(chain2, samples) == 0.0


# ---------------------------------------------------------------------------
# Planted corpus: soundness and completeness


def test_planted_corpus_detection_exact():
    rng = np.random.default_rng(77)
    for index in range(40):
        case = planted_case(rng, index)
        model = case["model"]
        point = Point.for_model(model)
        lap_hits = {}
        for a, i in nondesc_pairs(model):
            rep = lap_check(model, a, i, point)
            if not rep.passed:
                lap_hits[(a, i)] = rep
        icm_first_hits = {}
        icm_mixed_hits = {}
        for node in model.dag.nodes:
            rep = icm_check(model, node, point)
            if not rep.passed_first:
                icm_first_hits[node] = rep
            if not rep.passed_mixed:
                icm_mixed_hits[node] = rep

        kind, coeff = case["kind"], case["coeff"]
        if kind is None:
            assert not lap_hits and not icm_first_hits and not icm_mixed_hits
        elif kind == "lap_z":
            a, i = case["where"]
            assert (a, i) in lap_hits
            rep = lap_hits[(a, i)]
            assert abs(abs(rep.z_block).max() - abs(coeff)) <= 1e-10
            # the symmetric orientation trips too; nothing else does
            assert set(lap_hits) <= {(a, i), (i, a)}
            assert not icm_first_hits and not icm_mixed_hits
        elif kind == "lap_theta":
            a, i = case["where"]
            assert (a, i) in lap_hits
            rep = lap_hits[(a, i)]
            assert abs(abs(rep.theta_block).max() - abs(coeff)) <= 1e-10
        elif kind == "icm_first":
            parent, child = case["where"]
            assert child in icm_first_hits
            rep = icm_first_hits[child]
            assert abs(abs(rep.d_residual_d_parent).max() - abs(coeff)) <= 1e-10
            assert not lap_hits
        else:  # icm_mixed
            parent, child = case["where"]
            assert child in icm_mixed_hits
            rep = icm_mixed_hits[child]
            assert abs(abs(rep.mixed_parent_own).max() - abs(coeff)) <= 1e-10
            assert child not in icm_first_hits  # zero-default own factor
            assert not lap_hits


# ---------------------------------------------------------------------------
# Metric


def test_metric_chain2(chain2):
    eq = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5})
    metric = causal_metric(chain2, eq)
    assert metric.tolist() == [[5.0, -2.0], [-2.0, 1.0]]


def test_metric_congruence(chain2):
    eq = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5})
    metric = causal_metric(chain2, eq)
    j = np.array([[2.0, 0.0], [0.0, 1.0]])
    assert metric_in_chart(metric, j).tolist() == [[20.0, -4.0], [-4.0, 1.0]]


def test_metric_per_module_rescale(chain2):
    eq = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5})
    metric = causal_metric(chain2, eq, scales={"Z2": 3.0})
    assert metric.tolist() == [[13.0, -6.0], [-6.0, 3.0]]


def test_metric_subset_via_schur(chain2):
    eq = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5})
    eff = causal_metric(chain2, eq, subset=["z.Z1"])
    assert eff.tolist() == [[1.0]]


def test_metric_rejects_saddles():
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
    eq = solve(model)  # stays at the origin saddle
    with pytest.raises(IndefiniteMetricError):
        causal_metric(model, eq)


# ---------------------------------------------------------------------------
# Susceptibility


def test_susceptibility_chain2_parameter(chain2):
    eq = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5})
    response = susceptibility(chain2, eq, "theta.Z2.a")
    assert response[0] == 0.0  # exactly zero: Z1 is upstream
    assert response[1] == pytest.approx(1.0, abs=1e-12)


def test_susceptibility_chain2_context(chain2):
    eq = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5})
    response = susceptibility(chain2, eq, "u.U2")
    assert response[0] == 0.0
    assert response[1] == pytest.approx(1.0, abs=1e-12)


def test_susceptibility_matches_resolve(chain2):
    eq = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5})
    response = susceptibility(chain2, eq, "theta.Z2.a")
    h = 1e-5
    up = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5},
               init_point=eq.point)
    theta_up = eq.point.theta.copy()
    theta_up[0] += h
    theta_dn = eq.point.theta.copy()
    theta_dn[0] -= h
    from escm.engine import Point as P

    eq_up = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5},
                  cfg=SolverConfig(init="point"),
                  init_point=P(eq.point.z.copy(), eq.point.u.copy(), theta_up))
    eq_dn = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5},
                  cfg=SolverConfig(init="point"),
                  init_point=P(eq.point.z.copy(), eq.point.u.copy(), theta_dn))
    fd = (eq_up.point.z - eq_dn.point.z) / (2 * h)
    assert np.allclose(response, fd, atol=1e-6)


def test_susceptibility_wrt_hard_clamp(chain2):
    from escm import apply_surgery

    edited = apply_surgery(chain2, hard(chain2, "Z1", 0.5))
    clamps = dict(edited.clamps)
    clamps.update({("u", 0): 1.0, ("u", 1): 0.5})
    eq = solve(edited.objective, clamps=clamps, free=[("z", 1)])
    response = susceptibility(edited.objective, eq, "z.Z1")
    assert response[0] == pytest.approx(2.0, abs=1e-12)  # dz2*/d(do value) = a


def test_susceptibility_rejects_free_coordinate(chain2):
    eq = solve(chain2, clamps={"u.U1": 1.0, "u.U2": 0.5})
    with pytest.raises(QueryError):
        susceptibility(chain2, eq, "z.Z1")


# ---------------------------------------------------------------------------
# Gauges and probe heads


def _points(model, seeds):
    rng = np.random.default_rng(seeds)
    return [Point.for_model(model, z=rng.uniform(-1.5, 1.5, size=model.nz),
                            u=rng.uniform(-1.0, 1.0, size=model.nu))
            for _ in range(4)]


def test_identity_gauge_preserves_everything(chain2):
    verdicts = gauge_preserved(chain2, GaugeTransform(), points=_points(chain2, 0))
    assert all(verdicts.values())


def test_offset_gauge_breaks_only_absolute_energies(chain2):
    verdicts = gauge_preserved(chain2, GaugeTransform(offset={"Z1": 5.0}),
                               points=_points(chain2, 1))
    assert verdicts == {"H_E": False, "H_dE": True, "H_gradE": True,
                        "H_deltaE": True, "H_Hess": True}
    # the energy head differs by exactly the offset
    gauged = apply_gauge(chain2, GaugeTransform(offset={"Z1": 5.0}))
    pts = _points(chain2, 1)
    base = probe(chain2, "H_E", pts)
    moved = probe(gauged, "H_E", pts)
    deltas = [m["Z1"] - b["Z1"] for b, m in zip(base.outputs, moved.outputs)]
    assert all(d == 5.0 for d in deltas)


def test_pure_scale_breaks_all_heads_when_magnitudes_recorded():
    model = parse_model(ISO_QUADRATIC)
    verdicts = gauge_preserved(model, GaugeTransform(scale={"Z1": 2.0, "Z2": 2.0}),
                               points=_points(model, 2))
    assert not any(verdicts.values())


def test_compensated_scale_on_isotropic_quadratic_preserves_all():
    model = parse_model(ISO_QUADRATIC)
    gauge = GaugeTransform(scale={"Z1": 4.0, "Z2": 4.0}, j=2.0 * np.eye(2))
    verdicts = gauge_preserved(model, gauge, points=_points(model, 3))
    assert all(verdicts.values())


def test_reflection_preserves_hessian_only():
    spec = {
        "variables": [{"name": "Z1", "kind": "endogenous"}],
        "edges": [],
        "terms": [{"owner": "local:Z1", "expr": "0.5*sq(z.Z1 - 1)"}],
    }
    model = parse_model(spec)
    gauge = GaugeTransform(j=np.array([[-1.0]]))
    verdicts = gauge_preserved(model, gauge, points=_points(model, 4))
    assert verdicts["H_Hess"] is True
    assert verdicts["H_E"] is False
    assert verdicts["H_gradE"] is False
    assert verdicts["H_deltaE"] is False


def test_gauge_hierarchy_upward_closure():
    """Preservation sets nest along the head order on sampled gauge families."""
    model = parse_model(ISO_QUADRATIC)
    rng = np.random.default_rng(5)
    pts = _points(model, 6)
    order = {head: k for k, head in enumerate(HEADS)}
    gauges = [GaugeTransform()]
    for _ in range(6):
        b = {f"Z{k + 1}": float(rng.uniform(-3, 3)) for k in range(2)}
        gauges.append(GaugeTransform(offset=b))
    for _ in range(6):
        a = float(rng.uniform(0.5, 3.0))
        gauges.append(GaugeTransform(scale={"Z1": a, "Z2": a}))
    for _ in range(6):
        s = float(rng.uniform(0.5, 2.0))
        gauges.append(GaugeTransform(scale={"Z1": s * s, "Z2": s * s},
                                     j=s * np.eye(2)))
    for gauge in gauges:
        verdicts = gauge_preserved(model, gauge, points=pts)
        # preserved by the absolute-energy head implies preserved everywhere
        if verdicts["H_E"]:
            assert all(verdicts.values())
        # the preserved set is upward closed in the head order
        preserved_ranks = [order[h] for h, ok in verdicts.items() if ok]
        broken_ranks = [order[h] for h, ok in verdicts.items() if not ok]
        if preserved_ranks and broken_ranks:
            assert max(broken_ranks) < min(preserved_ranks)


def test_singular_gauge_rejected():
    with pytest.raises(QueryError):
        GaugeTransform(j=np.zeros((2, 2)))
    with pytest.raises(QueryError):
        GaugeTransform(scale={"Z1": 0.0})


def test_probe_unknown_owner_rejected(chain2):
    with pytest.raises(QueryError):
        apply_gauge(chain2, GaugeTransform(scale={"nope": 2.0}))


def test_icm_check_at_80_nodes_differentiates_only_its_coordinates():
    from escm.corpus import random_quadratic_model

    model = parse_model(random_quadratic_model(np.random.default_rng(0), 80, density=0.3))
    point = Point.for_model(model)
    node = max(model.dag.nodes, key=lambda v: len(model.dag.parents(v)))
    report = icm_check(model, node, point)
    assert report.parent_params
    assert report.passed
    assert report.max_abs_first == 0.0 and report.max_abs_mixed == 0.0


# ---------------------------------------------------------------------------
# Batched locality reports


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_batch_matches_pair_energy(model, point) -> int:
    """Every report of the batch over all non-descendant pairs carries the
    blocks of ``effective_energy_pair``, bit for bit; returns the count."""
    pairs = nondesc_pairs(model)
    reports = _lap_reports(model, pairs, point)
    assert [r.pair for r in reports] == pairs
    for (a, i), report in zip(pairs, reports):
        pair = effective_energy_pair(model, a, i, point)
        _assert_same_bits(report.z_block, pair.cross_zz())
        _assert_same_bits(report.theta_block, pair.cross_ztheta())
        assert report.theta_labels == pair.theta_a_labels
        single = lap_check(model, a, i, point)
        _assert_same_bits(single.z_block, report.z_block)
        _assert_same_bits(single.theta_block, report.theta_block)
        assert (single.max_abs_z, single.max_abs_theta) == \
            (report.max_abs_z, report.max_abs_theta)
    return len(pairs)


def test_lap_batch_equals_per_pair_blocks_on_planted_corpus():
    rng = np.random.default_rng(11)
    seen = set()
    for index in range(25):
        case = planted_case(rng, index)
        seen.add(case["kind"])
        model = case["model"]
        point = Point(z=rng.uniform(-1, 1, model.nz), u=rng.uniform(-1, 1, model.nu),
                      theta=model.theta_defaults())
        _assert_batch_matches_pair_energy(model, point)
        if case["kind"] in ("lap_z", "lap_theta"):
            a, i = case["where"]
            (report,) = [r for r in _lap_reports(model, nondesc_pairs(model), point)
                         if r.pair == (a, i)]
            assert max(report.max_abs_z, report.max_abs_theta) == abs(case["coeff"])
    assert {"lap_z", "lap_theta"} <= seen


def test_lap_batch_equals_per_pair_blocks_on_smooth_models():
    rng = np.random.default_rng(12)
    compared = 0
    for _ in range(30):
        model = random_smooth_model(rng, max_nodes=5)
        compared += _assert_batch_matches_pair_energy(model, random_interior_point(rng, model))
    assert compared > 30


def test_lap_batch_with_dense_global_term(monkeypatch):
    """A global term reading every z couples every pair; the batch still
    equals the per-pair blocks, and no module's derivative call is larger
    than what its terms read."""
    spec = random_quadratic_model(np.random.default_rng(3), 8, density=0.3)
    total = " + ".join(f"z.Z{k + 1}" for k in range(8))
    spec["terms"].append({"owner": "global", "expr": f"0.05*sq({total})"})
    model = parse_model(spec)
    point = Point(z=np.linspace(-1, 1, model.nz), u=np.zeros(model.nu),
                  theta=model.theta_defaults())

    sizes = []
    derivatives = Objective.derivatives

    def recorded(self, *args, **kwargs):
        out = derivatives(self, *args, **kwargs)
        read = {r for t in self.terms for r in t.refs}
        assert set(out.active) <= read
        sizes.append(len(out.active))
        return out

    monkeypatch.setattr(Objective, "derivatives", recorded)
    reports = _lap_reports(model, nondesc_pairs(model), point)
    monkeypatch.undo()
    assert len(sizes) == len({i for _, i in nondesc_pairs(model)})
    # a root module's pairs name every other node; the global term reads
    # every z and no parameter, so its active set is exactly the z block
    assert max(sizes) == model.nz
    assert not any(r.passed for r in reports)
    _assert_batch_matches_pair_energy(model, point)


def test_lap_batch_rejects_descendant_pairs(chain2):
    with pytest.raises(PairError):
        _lap_reports(chain2, [("Z2", "Z1"), ("Z1", "Z2")], Point.for_model(chain2))


# -- per-module reductions against each report's own blocks -----------------

_GOLDEN_MODELS = Path(__file__).parent / "golden" / "models"


def _planted(name, z3_without_theta=False):
    spec = json.loads((_GOLDEN_MODELS / f"{name}.json").read_text(encoding="utf-8"))
    if z3_without_theta:  # Z3 then contributes empty theta blocks
        for entry in spec["terms"] + spec.get("dynamics", []):
            if entry.get("owner", entry.get("var")) in ("local:Z3", "Z3"):
                entry["expr"] = entry["expr"].replace("theta.Z3.c", "0.9")
                entry.pop("params", None)
    return parse_model(spec, mask_policy="warn")


def _sample_points(model):
    """The zero point and two random points with default parameters."""
    rng = np.random.default_rng(5)
    points = [Point.for_model(model)]
    for _ in range(2):
        points.append(Point.for_model(model, z=rng.uniform(-1, 1, model.nz),
                                      u=rng.uniform(-1, 1, model.nu)))
    return points


def _block_max(block):
    return float(np.max(np.abs(block))) if block.size else 0.0


def _sum_of_squares(reports_by_sample, weight_1, weight_2):
    """The weighted squared Frobenius norms summed in report order,
    averaged over the samples: what every penalty is defined as."""
    total = 0.0
    for reports in reports_by_sample:
        for report in reports:
            key, block_1, block_2 = report._penalty_blocks()
            total += weight_1(key) * float(np.sum(block_1 ** 2))
            total += weight_2(key) * float(np.sum(block_2 ** 2))
    return total / len(reports_by_sample)


def test_static_maxima_and_penalties_are_those_of_the_blocks():
    model = _planted("plant4")
    pairs = nondesc_pairs(model)
    points = _sample_points(model)
    nonzero = 0
    lap_by_sample, icm_by_sample = [], []
    for point in points:
        lap = _lap_reports(model, pairs, point)
        assert [r.pair for r in lap] == pairs
        for report in lap:
            assert report.max_abs_z == _block_max(report.z_block)
            assert report.max_abs_theta == _block_max(report.theta_block)
            pair = effective_energy_pair(model, *report.pair, point)
            assert report.z_block.tolist() == pair.cross_zz().tolist()
            assert report.theta_block.tolist() == pair.cross_ztheta().tolist()
            assert len(report.theta_labels) == report.theta_block.shape[1]
            nonzero += report.max_abs_z > 0.0
            nonzero += report.max_abs_theta > 0.0
        icm = [icm_check(model, node, point) for node in model.dag.nodes]
        for report in icm:
            assert report.max_abs_first == _block_max(report.d_residual_d_parent)
            assert report.max_abs_mixed == _block_max(report.mixed_parent_own)
            nonzero += report.max_abs_first > 0.0
            nonzero += report.max_abs_mixed > 0.0
        lap_by_sample.append(lap)
        icm_by_sample.append(icm)
    assert nonzero >= 10  # the plants show, so the checks above are not vacuous

    lam = {pair: 0.5 + k for k, pair in enumerate(pairs[::2])}
    assert lap_penalty(model, points, lam=lam, mu=1.7, default=0.25) == _sum_of_squares(
        lap_by_sample, lambda key: lam.get(key, 0.25), lambda key: 1.7)
    alpha = {"Z3": 2.5}
    assert icm_penalty(model, points, alpha=alpha, beta=0.3) == _sum_of_squares(
        icm_by_sample, lambda key: alpha.get(key, 0.0), lambda key: 0.3)
    assert icm_penalty(model, points) == _sum_of_squares(
        icm_by_sample, lambda key: 1.0, lambda key: 1.0) > 0.0


@pytest.mark.parametrize("z3_without_theta", [False, True])
def test_dynamic_maxima_and_penalties_are_those_of_the_blocks(z3_without_theta):
    model = _planted("plant4_dyn", z3_without_theta)
    assert z3_without_theta == (model.module_theta_refs("Z3", dynamics=True) == [])
    pairs = nondesc_pairs(model)
    points = _sample_points(model)
    nonzero = 0
    lap_by_sample, icm_by_sample = [], []
    for point in points:
        lap = dynamics._dyn_lap_reports(model, pairs, point)
        assert [r.pair for r in lap] == pairs
        for report in lap:
            assert report.max_abs_z == _block_max(report.z_block)
            assert report.max_abs_theta == _block_max(report.theta_block)
            alone = dynamics.dyn_lap_check(model, *report.pair, point)
            assert report.z_block.tolist() == alone.z_block.tolist()
            assert report.theta_block.tolist() == alone.theta_block.tolist()
            nonzero += report.max_abs_z > 0.0
            nonzero += report.max_abs_theta > 0.0
        icm = [dynamics.dyn_icm_check(model, node, point) for node in model.dag.nodes]
        for report in icm:
            assert report.max_abs_first == _block_max(report.d_residual_d_parent)
            assert report.max_abs_mixed == _block_max(report.mixed_parent_own)
            nonzero += report.max_abs_first > 0.0
            nonzero += report.max_abs_mixed > 0.0
        lap_by_sample.append(lap)
        icm_by_sample.append(icm)
    assert nonzero >= 6

    assert dynamics.dyn_lap_penalty(model, points, lam=0.75, mu=1.25) == _sum_of_squares(
        lap_by_sample, lambda key: 0.75, lambda key: 1.25) > 0.0
    assert dynamics.dyn_icm_penalty(model, points, alpha=1.5, beta=0.5) == _sum_of_squares(
        icm_by_sample, lambda key: 1.5, lambda key: 0.5) > 0.0


def test_a_zero_block_adds_an_exact_zero_and_a_nan_block_stays_nan():
    model = _planted("plant4")
    [report] = _lap_reports(model, [("Z2", "Z1")], Point.for_model(model))
    assert not report.z_block.any() and not report.theta_block.any()
    assert _penalty([[report]], 3.0, 4.0) == 0.0
    report.z_block = np.full_like(report.z_block, np.nan)
    assert np.isnan(_penalty([[report]], 3.0, 4.0))


@pytest.mark.parametrize("maxima", [(np.nan, 0.0), (0.0, np.nan)])
def test_a_nan_maximum_fails_the_locality_check(maxima):
    model = _planted("plant4")
    [report] = _lap_reports(model, [("Z2", "Z1")], Point.for_model(model))
    report.max_abs_z, report.max_abs_theta = maxima
    assert not report.passed
