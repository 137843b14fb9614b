"""Energy evaluation and exact derivatives against independent oracles."""

import numpy as np
import pytest

from escm import (
    EnergyDomainError,
    PairError,
    Point,
    effective_energy_pair,
    evaluate,
    parse_model,
    second_order,
)
from escm.engine import Objective
from tests.conftest import assert_close_rel, chain2_dict, fd_value_grad
from tests.genmodels import random_interior_point, random_smooth_model


def test_chain2_value_and_gradients(chain2):
    p = Point.for_model(chain2, z=[1.0, 2.5], u=[1.0, 0.5])
    first = evaluate(chain2, p)
    assert first.value == pytest.approx(0.625, abs=0)
    assert np.array_equal(first.grad_z, np.zeros(2))


def test_chain2_zero_point_is_global_minimum(chain2):
    first = evaluate(chain2, Point.for_model(chain2))
    assert first.value == 0.0
    assert np.all(first.grad_z == 0.0)
    assert np.all(first.grad_u == 0.0)
    assert np.all(first.grad_theta == 0.0)


def test_log_domain_error():
    spec = {
        "variables": [{"name": "Z1", "kind": "endogenous"}],
        "edges": [],
        "terms": [{"owner": "local:Z1", "expr": "log(z.Z1)"}],
    }
    model = parse_model(spec)
    with pytest.raises(EnergyDomainError):
        evaluate(model, Point.for_model(model, z=[-1.0]))


def test_chain2_hessian_blocks(chain2):
    p = Point.for_model(chain2, z=[0.3, -0.7], u=[0.2, 0.9])
    so = second_order(chain2, p)
    assert np.allclose(so.h_zz, [[5.0, -2.0], [-2.0, 1.0]], atol=0)
    # per-term attribution sums to the total
    total = sum(blocks["zz"] for blocks in so.attribution.values())
    assert np.array_equal(total, so.h_zz)
    assert np.allclose(so.attribution["Z1"]["zz"], [[1.0, 0.0], [0.0, 0.0]], atol=0)
    assert np.allclose(so.attribution["Z2"]["zz"], [[4.0, -2.0], [-2.0, 1.0]], atol=0)


def test_unit_quadratic_hessian():
    spec = {
        "variables": [{"name": "Z1", "kind": "endogenous"}],
        "edges": [],
        "terms": [{"owner": "local:Z1", "expr": "0.5*sq(z.Z1)"}],
    }
    model = parse_model(spec)
    so = second_order(model, Point.for_model(model))
    assert so.h_zz.tolist() == [[1.0]]


def test_chain2_h_ztheta_matches_finite_differences(chain2):
    p = Point.for_model(chain2, z=[1.0, 2.5], u=[1.0, 0.5])
    so = second_order(chain2, p)
    # hand value: d2E/(dz2 da) = -z1 = -1 (the residual of E2 is zero here)
    assert so.h_ztheta[1, 0] == -1.0
    h = 1e-6
    objective = Objective.from_model(chain2)
    for row in range(2):
        up, dn = p.copy(), p.copy()
        up.theta[0] += h
        dn.theta[0] -= h
        fd = (objective.first_order(up).grad_z[row]
              - objective.first_order(dn).grad_z[row]) / (2 * h)
        assert_close_rel(so.h_ztheta[row, 0], fd)


def test_hessian_bitwise_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(25):
        model = random_smooth_model(rng)
        p = random_interior_point(rng, model)
        so = second_order(model, p)
        assert np.array_equal(so.h_zz, so.h_zz.T)


def test_additivity_over_terms():
    rng = np.random.default_rng(5)
    model = random_smooth_model(rng)
    p = random_interior_point(rng, model)
    total = evaluate(model, p).value
    objective = Objective.from_model(model)
    by_term = sum(objective.term_jet(t, p, [], order=1)[0] for t in objective.terms)
    assert total == pytest.approx(by_term, rel=1e-15)


def test_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(42)
    objective_count = 40
    for _ in range(objective_count):
        model = random_smooth_model(rng)
        objective = Objective.from_model(model)
        p = random_interior_point(rng, model)

        def value_at(vec):
            q = Point(z=vec[:model.nz].copy(),
                      u=vec[model.nz:model.nz + model.nu].copy(),
                      theta=vec[model.nz + model.nu:].copy())
            return objective.value(q)

        x = np.concatenate([p.z, p.u, p.theta])
        first = objective.first_order(p)
        exact = np.concatenate([first.grad_z, first.grad_u, first.grad_theta])
        fd = fd_value_grad(value_at, x)
        for a, b in zip(exact, fd):
            assert_close_rel(a, b)

        full = objective.derivatives(p, order=2)
        h = 1e-6
        for col in rng.choice(len(x), size=min(4, len(x)), replace=False):
            up, dn = x.copy(), x.copy()
            up[col] += h
            dn[col] -= h

            def grad_at(vec):
                q = Point(z=vec[:model.nz].copy(),
                          u=vec[model.nz:model.nz + model.nu].copy(),
                          theta=vec[model.nz + model.nu:].copy())
                return objective.derivatives(q, order=1).grad

            fd_col = (grad_at(up) - grad_at(dn)) / (2 * h)
            for a, b in zip(full.hess[:, col], fd_col):
                assert_close_rel(a, b)


def test_third_order_matches_finite_differences_of_hessian():
    rng = np.random.default_rng(1234)
    model = random_smooth_model(rng)
    objective = Objective.from_model(model)
    p = random_interior_point(rng, model)
    full3 = objective.derivatives(p, order=3)
    h = 1e-5
    d = objective.dim
    for col in rng.choice(d, size=min(3, d), replace=False):
        up, dn = p.copy(), p.copy()
        arrays_up = np.concatenate([up.z, up.u, up.theta])
        arrays_dn = np.concatenate([dn.z, dn.u, dn.theta])
        arrays_up[col] += h
        arrays_dn[col] -= h
        pu = Point(z=arrays_up[:model.nz], u=arrays_up[model.nz:model.nz + model.nu],
                   theta=arrays_up[model.nz + model.nu:])
        pd = Point(z=arrays_dn[:model.nz], u=arrays_dn[model.nz:model.nz + model.nu],
                   theta=arrays_dn[model.nz + model.nu:])
        fd = (objective.derivatives(pu, order=2).hess
              - objective.derivatives(pd, order=2).hess) / (2 * h)
        sampled = rng.choice(d, size=min(3, d), replace=False)
        for r in sampled:
            for c in sampled:
                assert_close_rel(full3.third[r, c, col], fd[r, c], rel=2e-4,
                                 floor=1e-6)


# ---------------------------------------------------------------------------
# Pair energies


def test_pair_energy_bilinear_coupling(chain2_z3):
    p = Point.for_model(chain2_z3)
    pair = effective_energy_pair(chain2_z3, "Z1", "Z3", p)
    assert pair.cross_zz().tolist() == [[0.3]]
    # same value at a different anchor: the coupling is constant
    p2 = Point.for_model(chain2_z3, z=[1.0, -2.0, 0.5], u=[0.1, 0.2])
    pair2 = effective_energy_pair(chain2_z3, "Z1", "Z3", p2)
    assert pair2.cross_zz().tolist() == [[0.3]]


def test_pair_energy_absent_coupling(chain2):
    p = Point.for_model(chain2)
    pair = effective_energy_pair(chain2, "Z2", "Z1", p)
    assert pair.cross_zz().tolist() == [[0.0]]
    assert pair.cross_ztheta().shape == (1, 1)  # theta.Z2.a column
    assert np.all(pair.cross_ztheta() == 0.0)


def test_pair_energy_rejects_descendants(chain2):
    with pytest.raises(PairError):
        effective_energy_pair(chain2, "Z1", "Z2", Point.for_model(chain2))
    with pytest.raises(PairError):
        effective_energy_pair(chain2, "Z1", "Z1", Point.for_model(chain2))


def test_pair_theta_block_zero_for_foreign_params(chain2_z3):
    # Z1 gains a parameter that Z3's pair energy never references
    spec = chain2_z3.to_dict()
    for term in spec["terms"]:
        if term["owner"] == "local:Z1":
            term["expr"] = "0.5*sq(z.Z1 - theta.Z1.b*u.U1)"
            term["params"] = {"b": 1.0}
    model = parse_model(spec)
    pair = effective_energy_pair(model, "Z1", "Z3", Point.for_model(model))
    assert "Z1.b" in pair.theta_a_labels
    assert np.all(pair.cross_ztheta() == 0.0)


def test_pair_energy_value_and_gradient_queries(chain2_z3):
    p = Point.for_model(chain2_z3, z=[1.0, 0.0, 2.0], u=[0.0, 0.0])
    pair = effective_energy_pair(chain2_z3, "Z1", "Z3", p)
    # E3 + global at (z3, z1), everything else frozen
    assert pair.value() == pytest.approx(0.5 * 4.0 + 0.3 * 1.0 * 2.0)
    assert pair.value(zi=[1.0], za=[2.0]) == pytest.approx(0.5 + 0.3 * 2.0)
    grads = pair.gradient()
    assert grads["z_i"][0] == pytest.approx(2.0 + 0.3 * 1.0)


# ---------------------------------------------------------------------------
# Positional derivative blocks over an active subset


def test_active_subset_blocks_equal_all_coordinate_blocks():
    from escm.corpus import random_quadratic_model

    rng = np.random.default_rng(11)
    for n in (2, 4, 6):
        model = parse_model(random_quadratic_model(rng, n, density=0.5))
        objective = Objective.from_model(model)
        point = Point.for_model(model, z=rng.normal(size=model.nz),
                                u=rng.normal(size=model.nu))
        coords = objective.derivatives(point, order=1).active
        assert list(coords[:model.nz]) == list(model.coords("z"))
        for order in (1, 2, 3):
            full = objective.derivatives(point, order=order)
            for _ in range(4):
                k = int(rng.integers(1, len(coords) + 1))
                pos = list(rng.choice(len(coords), size=k, replace=False))
                active = [coords[p] for p in pos]
                # a repeated ref holds one slot, at its first position
                part = objective.derivatives(point, order=order,
                                             active=active + active[:1])
                assert part.active == tuple(active)
                assert part.grad.shape == (k,)
                assert np.array_equal(part.grad, full.grad[pos])
                if order >= 2:
                    assert part.hess.shape == (k, k)
                    assert np.array_equal(part.hess, full.hess[np.ix_(pos, pos)])
                if order >= 3:
                    assert part.third.shape == (k, k, k)
                    assert np.array_equal(part.third, full.third[np.ix_(pos, pos, pos)])


def test_owner_hessians_are_positional_and_off_without_attribution(chain2_z3):
    objective = Objective.from_model(chain2_z3)
    p = Point.for_model(chain2_z3)
    active = [2, 0]
    full = objective.derivatives(p, order=2, attribution=True, active=active)
    assert full.owner_hess["global"].tolist() == [[0.0, 0.3], [0.3, 0.0]]
    assert set(full.owner_hess) == {"Z1", "Z2", "Z3", "global"}
    assert sum(full.owner_hess.values()).tolist() == full.hess.tolist()
    assert objective.derivatives(p, order=2, active=active).owner_hess is None


def test_pair_energy_evaluates_derivatives_once(chain2_z3, monkeypatch):
    calls = []
    original = Objective.derivatives

    def counted(self, *args, **kwargs):
        calls.append(kwargs.get("order"))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Objective, "derivatives", counted)
    pair = effective_energy_pair(chain2_z3, "Z1", "Z3", Point.for_model(chain2_z3))
    assert pair.cross_zz().tolist() == [[0.3]]
    assert pair.cross_ztheta().shape == (1, 0)
    assert calls == [2]


def test_term_jet_of_an_unread_term_is_a_zero_jet_and_derivatives_skip_it(monkeypatch):
    from escm import codegen

    # every term evaluation looks up its generated function once
    calls = []
    function = codegen._TermCode.function

    def counted(self, *args, **kwargs):
        calls.append(self)
        return function(self, *args, **kwargs)

    monkeypatch.setattr(codegen._TermCode, "function", counted)
    rng = np.random.default_rng(17)
    for _ in range(10):
        model = random_smooth_model(rng)
        objective = Objective.from_model(model)
        p = random_interior_point(rng, model)
        active = list(model.coords("z"))
        k = len(active)
        unread = [t for t in objective.terms if set(t.refs).isdisjoint(active)]
        assert unread  # every exogenous term reads only its u
        for term in unread:
            value, grad, hess, third = objective.term_jet(term, p, active, 3)
            assert np.array_equal(grad, np.zeros(k))
            assert np.array_equal(hess, np.zeros((k, k)))
            assert np.array_equal(third, np.zeros((k, k, k)))
            assert value == Objective(model, [term]).value(p)
        # the shares add up, in term order, to the energy bit for bit
        assert sum(objective.term_jet(t, p, active, 3)[0]
                   for t in objective.terms) == objective.value(p)

        for sub in (active, [model.coords("u")[0]], list(model.coords("theta"))):
            calls.clear()
            objective.derivatives(p, order=2, active=sub)
            assert calls == [t.code for t in objective.terms if not set(t.refs).isdisjoint(sub)]


def test_terms_are_built_once_at_parse(tmp_path, capsys, monkeypatch):
    """After parse, only edits build terms: diagnose, solve and a hard
    counterfactual build none, and a soft edit builds just its blend."""
    import json

    from escm import cli
    from escm.corpus import random_quadratic_model
    from escm.engine import ObjectiveTerm

    rng = np.random.default_rng(23)
    specs = {"static30": random_quadratic_model(rng, 30, density=0.3),
             "dynamic18": random_quadratic_model(rng, 18, density=0.3, dynamics=True),
             "query40": random_quadratic_model(rng, 40, density=0.3)}
    paths, parsed = {}, {}
    for name, spec in specs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(spec), encoding="utf-8")
        m = parse_model(spec)
        # parse builds one term per model term and dynamics component
        parsed[name] = [t.label for t in m.terms] + [c.var for c in m.dynamics or ()]
    model = parse_model(specs["query40"])

    built = []
    init = ObjectiveTerm.__init__

    def counted(self, owner, pieces):
        built.append(owner)
        init(self, owner, pieces)

    monkeypatch.setattr(ObjectiveTerm, "__init__", counted)

    def built_after_parse(command, name, *options):
        built.clear()
        assert cli.run([command, str(paths[name]), *options, "--no-timing"]) == 0
        capsys.readouterr()
        assert built[:len(parsed[name])] == parsed[name]
        return built[len(parsed[name]):]

    assert built_after_parse("diagnose", "static30") == []
    assert built_after_parse("diagnose", "dynamic18") == []
    assert built_after_parse("solve", "query40", "--context", '{"u.U1": 1, "u.U2": -0.5}') == []
    query = {"evidence": {"z.Z1": 0.5, "z.Z40": -0.3},
             "surgeries": [{"kind": "hard", "target": "Z3", "value": 1.0}],
             "readouts": {"phi": "z.Z40"}}
    assert built_after_parse("counterfactual", "query40", "--query", json.dumps(query)) == []
    query["surgeries"] = [{"kind": "soft", "target": "Z3", "lambda": 0.5,
                           "expr": "0.5*sq(z.Z3 - 1)"}]
    assert built_after_parse("counterfactual", "query40", "--query", json.dumps(query)) == ["Z3"]
    first, second = Objective.from_model(model), Objective.from_model(model)
    assert all(a is b for a, b in zip(first.terms, second.terms))


# -- the jet contract: absent zero blocks, dense results ----------------------


def test_derivatives_of_every_order_agree_bitwise_on_what_they_share():
    rng = np.random.default_rng(23)
    for _ in range(15):
        model = random_smooth_model(rng, max_nodes=5)
        objective = Objective.from_model(model)
        p = random_interior_point(rng, model)
        k = int(rng.integers(1, model.dim + 1))
        active = rng.choice(model.dim, size=k, replace=False).tolist()
        by_order = [objective.derivatives(p, order=order, active=active) for order in (1, 2, 3)]
        for d in by_order[1:]:
            assert d.grad.tobytes() == by_order[0].grad.tobytes()
        assert by_order[2].hess.tobytes() == by_order[1].hess.tobytes()
        assert by_order[0].hess is None and by_order[1].third is None
        assert by_order[2].third.shape == (k, k, k)


def test_a_term_linear_in_its_active_leaves_gives_positive_zero_blocks():
    from escm.engine import ObjectiveTerm
    from escm.expr import compile_expr, parse_expr

    model = parse_model(chain2_dict())
    active = [0, 1]  # z.Z1, z.Z2; u and theta stay frozen
    x = np.array([0.7, -1.2, 0.3, -0.4, 2.0])
    batch = np.stack([x, -x, 2 * x], axis=1)
    batch[4] = 2.0  # theta.Z2.a
    # negation, products with negative frozen values and differences:
    # carried as dense zero blocks, these would read -0.0
    for source in ("-(z.Z1)", "-(z.Z1) - 2.5*z.Z2 + 0.5", "(z.Z2 - u.U2)*(-3)",
                   "theta.Z2.a*(u.U1 - z.Z1) / (-4)",
                   "-(z.Z1) - 2.5*z.Z2 + theta.Z2.a*(u.U1 - z.Z1) - (z.Z2 - u.U2)*(-3)"):
        term = ObjectiveTerm("global", [(1.0, compile_expr(parse_expr(source),
                                                           model.readout_resolver()))])
        objective = Objective(model, [term])
        for flat, shape in ((x, ()), (batch, (3,))):
            _, grad, hess, third = objective.term_jet(term, Point.from_flat(model, flat),
                                                      active, 3)
            assert grad.shape == (2,) + shape
            assert hess.shape == (2, 2) + shape and third.shape == (2, 2, 2) + shape
            for block in (hess, third):
                assert not block.any() and not np.signbit(block).any(), source


@pytest.mark.parametrize("batch", [(), (3,)])
def test_term_jet_is_dense_over_active_up_to_its_order(batch):
    model = parse_model(chain2_dict())
    term = model.local_term("Z2").objective_term  # quadratic in z, reads no u.U1
    x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(model.dim,) + batch)
    x[model.coords("theta")] = 2.0
    point = Point.from_flat(model, x)
    active = [2, 1, 0]  # u.U1, z.Z2, z.Z1: an unread coordinate, and out of term order
    k = len(active)
    for order in (1, 2, 3):
        jet = Objective(model, [term]).term_jet(term, point, active, order)
        assert type(jet) is tuple and len(jet) == 4 and np.shape(jet[0]) == batch
        for rank, block in enumerate(jet[1:], 1):
            if rank > order:
                assert block is None
                continue
            assert block.shape == (k,) * rank + batch
            # u.U1's row, and the third block, are structurally zero: +0.0
            for zero in (block[0], block) if rank == 3 else (block[0],):
                assert not zero.any() and not np.signbit(zero).any()
        assert jet[1][1:].any()


def test_term_jet_value_of_a_one_symbol_term_is_not_a_view_of_the_batch():
    from escm.engine import ObjectiveTerm
    from escm.expr import compile_expr, parse_expr

    model = parse_model(chain2_dict())
    term = ObjectiveTerm("global", [(1.0, compile_expr(parse_expr("z.Z1"),
                                                       model.readout_resolver()))])
    point = Point.from_flat(model, np.arange(10.0).reshape(model.dim, 2))
    for active in ([0], [1]):  # read, and not read
        value = Objective(model, [term]).term_jet(term, point, active, 1)[0]
        assert value.tolist() == [0.0, 1.0] and not np.shares_memory(value, point.x)
