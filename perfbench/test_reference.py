"""Tests of the closed-form checkers against hand-derived answers.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import numpy as np
import pytest

import reference as ref

# the two-node chain of the project README: Z1 -> Z2 with coupling a = 2
CHAIN2 = {
    "variables": [
        {"name": "Z1", "kind": "endogenous", "dim": 1},
        {"name": "Z2", "kind": "endogenous", "dim": 1},
        {"name": "U1", "kind": "exogenous", "dim": 1},
        {"name": "U2", "kind": "exogenous", "dim": 1},
    ],
    "edges": [["Z1", "Z2"]],
    "terms": [
        {"owner": "local:Z1", "expr": "0.5*sq(z.Z1 - u.U1)"},
        {"owner": "local:Z2", "expr": "0.5*sq(z.Z2 - theta.Z2.a*z.Z1 - u.U2)",
         "params": {"a": 2}},
        {"owner": "exo:U1", "expr": "0.5*sq(u.U1)"},
        {"owner": "exo:U2", "expr": "0.5*sq(u.U2)"},
    ],
}


def _three_nodes() -> dict:
    """Z1 -> Z2 plus an unconnected Z3, in the corpus generator's form."""
    names = ["Z1", "Z2", "Z3"]
    terms = [
        {"owner": "local:Z1", "expr": "0.5*1.5*sq(z.Z1 - u.U1)"},
        {"owner": "local:Z2", "expr": "0.5*0.75*sq(z.Z2 - theta.Z2.c_Z1*z.Z1 - u.U2)",
         "params": {"c_Z1": -1.25}},
        {"owner": "local:Z3", "expr": "0.5*2.0*sq(z.Z3 - u.U3)"},
    ] + [{"owner": f"exo:U{k}", "expr": f"0.5*sq(u.U{k})"} for k in (1, 2, 3)]
    return {
        "variables": [{"name": n, "kind": "endogenous", "dim": 1} for n in names]
        + [{"name": f"U{k}", "kind": "exogenous", "dim": 1} for k in (1, 2, 3)],
        "edges": [["Z1", "Z2"]],
        "terms": terms,
    }


def test_chain2_observational_fixture():
    qm = ref.parse(CHAIN2)
    assert qm.weights.tolist() == [1.0, 1.0]
    assert qm.coupling.tolist() == [[0.0, 0.0], [2.0, 0.0]]
    assert ref.observational(qm, np.array([1.0, 0.5])).tolist() == [1.0, 2.5]


def test_chain2_counterfactual_fixture():
    qm = ref.parse(CHAIN2)
    pre_z, pre_u, post = ref.counterfactual(qm, {0: 1.0, 1: 2.5}, 0, value=0.0)
    # minimizing 0.5(1-u1)^2 + 0.5(0.5-u2)^2 + 0.5u1^2 + 0.5u2^2
    np.testing.assert_allclose(pre_u, [0.5, 0.25], rtol=0, atol=1e-15)
    assert pre_z.tolist() == [1.0, 2.5]
    assert post.tolist() == [0.0, 0.25]  # phi = 0.25


def test_chain2_soft_mean_shift_puts_residual_at_lam_delta():
    qm = ref.parse(CHAIN2)
    _, _, post = ref.counterfactual(qm, {0: 1.0, 1: 2.5}, 1, lam=0.5, delta=1.0)
    assert post.tolist() == [1.0, 2.0 * 1.0 + 0.25 + 0.5]
    assert ref.mean_shifted(CHAIN2["terms"][1]["expr"], 1.0) == \
        "0.5*sq(z.Z2 - theta.Z2.a*z.Z1 - u.U2 - (1.0))"


def test_chain2_envelope_is_min_and_max_of_branches():
    qm = ref.parse(CHAIN2)
    pre_z, pre_u = ref.abduct(qm, {0: 1.0, 1: 2.5})
    branches, bounds = ref.envelope(qm, pre_z, pre_u, 0, [0.0, 1.0, -1.0], 1)
    assert branches == pytest.approx({0.0: 0.25, 1.0: 2.25, -1.0: -1.75}, abs=1e-15)
    assert bounds == pytest.approx((-1.75, 2.25), abs=1e-15)


def test_chain2_linear_readout_moments():
    qm = ref.parse(CHAIN2)
    # z1 = u1, z2 = 2 u1 + u2, so z1 + z2 = 3 u1 + u2
    mean, var = ref.linear_readout_moments(qm, np.array([1.0, 1.0]),
                                           np.array([0.5, -1.0]), np.array([2.0, 0.5]))
    assert mean == pytest.approx(3 * 0.5 - 1.0, abs=1e-15)
    assert var == pytest.approx(9 * 4.0 + 0.25, abs=1e-12)


def test_chain2_stopping_slack_is_tol_times_inverse_row_sums():
    qm = ref.parse(CHAIN2)
    # free z block A^T A = [[5, -2], [-2, 1]], inverse [[1, 2], [2, 5]]
    slack = ref.stopping_slack(qm, [0, 1])
    np.testing.assert_allclose(slack, ref.TOL_GRAD * np.array([3.0, 7.0, 0.0, 0.0]),
                               rtol=1e-12)


def test_nondesc_pairs_and_clean_report():
    qm = ref.parse(_three_nodes())
    pairs = ref.nondesc_pairs(qm)
    assert pairs == [("Z1", "Z3"), ("Z2", "Z1"), ("Z2", "Z3"), ("Z3", "Z1"), ("Z3", "Z2")]
    expected = ref.expected_diagnose(qm)
    assert all(v == [0.0, 0.0] for v in expected["lap"].values())
    assert all(v == [0.0, 0.0] for v in expected["icm"].values())
    assert expected["lap_penalty"] == 0.0 and expected["icm_penalty"] == 0.0
    assert "dyn_lap" not in expected


@pytest.mark.parametrize("kind, where, flagged, penalty", [
    # z.Z3*z.Z1: both orientations are non-descendant pairs
    ("lap_z", ("Z3", "Z1"), {("lap", ("Z3", "Z1"), 0), ("lap", ("Z1", "Z3"), 0)}, 2),
    # z.Z1*z.Z2 would sit on an edge; (Z2, Z1) is the only orientation kept
    ("lap_z", ("Z2", "Z1"), {("lap", ("Z2", "Z1"), 0)}, 1),
    ("lap_theta", ("Z2", "Z3"), {("lap", ("Z2", "Z3"), 1)}, 1),
    ("icm_first", ("Z1", "Z2"), {("icm", "Z2", 0)}, 1),
    ("icm_mixed", ("Z1", "Z2"), {("icm", "Z2", 1)}, 1),
])
def test_planted_violation_is_read_back_at_its_place(kind, where, flagged, penalty):
    coeff = -0.8125
    spec = ref.plant(_three_nodes(), kind, where, coeff)
    qm = ref.parse(spec)
    assert [(p.kind, p.where, p.coeff) for p in qm.plants] == [(kind, where, coeff)]
    expected = ref.expected_diagnose(qm)
    for section in ("lap", "icm"):
        for key, values in expected[section].items():
            for slot, value in enumerate(values):
                want = abs(coeff) if (section, key, slot) in flagged else 0.0
                assert value == want, (section, key, slot)
    section = "lap_penalty" if kind.startswith("lap") else "icm_penalty"
    assert expected[section] == penalty * (coeff * coeff)
    other = "icm_penalty" if kind.startswith("lap") else "lap_penalty"
    assert expected[other] == 0.0


def test_parse_rejects_terms_outside_the_corpus_form():
    spec = _three_nodes()
    spec["terms"][0]["expr"] = "0.5*1.5*sq(z.Z1 - u.U1) + tanh(z.Z1)"
    with pytest.raises(ValueError):
        ref.parse(spec)
