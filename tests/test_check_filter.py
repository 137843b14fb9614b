"""The locality and independence checks differentiate only the terms that
reach a reported block.  Their reports and penalties are compared, byte for
byte, with an unfiltered reference that differentiates every term, and a
point outside a term's domain still raises where the unfiltered checks
raised."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from escm import EnergyDomainError, Point, parse_model
from escm.corpus import random_quadratic_model
from escm.diagnostics import (_independence_penalty, _lap_blocks, _lap_reports,
                              _locality_penalty, icm_check, icm_penalty, lap_check, lap_penalty,
                              nondesc_pairs)
from escm.dynamics import dyn_icm_check, dyn_icm_penalty
from escm.engine import Objective, _module_terms
from tests.genmodels import _f


def _planted_model(rng, nodes: int, dynamics: bool, plants: frozenset):
    """A corpus model with the chosen violations planted; "warn_lap_z" has
    a local term read a non-parent z, so the model parses in warn mode."""
    spec = random_quadratic_model(rng, nodes, density=0.5, dynamics=dynamics)
    base = parse_model(spec)
    local = {t["owner"][len("local:"):]: t for t in spec["terms"]
             if t["owner"].startswith("local:")}
    fields = {d["var"]: d for d in spec.get("dynamics", [])}
    pairs, edges = nondesc_pairs(base), spec["edges"]
    names = [v.name for v in base.endogenous]

    def coeff():
        return _f(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))

    def pick(items):
        return items[int(rng.integers(len(items)))]

    global_pieces = []
    if "dense_global" in plants:
        global_pieces.append(f"0.05*sq({' + '.join(f'z.{n}' for n in names)})")
    if "lap_z" in plants and pairs:
        a, i = pick(pairs)
        global_pieces.append(f"{coeff()}*z.{a}*z.{i}")
    if "lap_theta" in plants and pairs:
        a, i = pick(pairs)
        local[a].setdefault("params", {})["p_lap"] = 1.0
        global_pieces.append(f"{coeff()}*theta.{a}.p_lap*z.{i}")
    if "warn_lap_z" in plants and pairs:
        a, i = pick(pairs)
        local[i]["expr"] += f" + {coeff()}*z.{a}*z.{i}"
    if edges and plants & {"icm_first", "icm_mixed", "icm_global", "shared", "dyn_icm"}:
        parent, child = pick(edges)
        local[parent].setdefault("params", {})["q"] = 1.0
        if "icm_global" in plants:
            global_pieces.append(f"{coeff()}*theta.{parent}.q*z.{child}")
        if "icm_first" in plants:
            local[child]["expr"] += f" + {coeff()}*theta.{parent}.q*z.{child}"
        if "icm_mixed" in plants:
            local[child].setdefault("params", {})["m"] = float(rng.uniform(-1, 1))
            local[child]["expr"] += f" + {coeff()}*theta.{parent}.q*theta.{child}.m*z.{child}"
        if "shared" in plants:
            # the parent's mechanism reads a child parameter, which the
            # child's own residual reads too
            local[child].setdefault("params", {})["s"] = 1.0
            local[parent]["expr"] += f" + {coeff()}*theta.{child}.s*z.{parent}"
            local[child]["expr"] += f" + {coeff()}*theta.{child}.s*z.{child}"
        if "dyn_icm" in plants and dynamics:
            fields[child]["expr"] += f" + {coeff()}*theta.{parent}.q*z.{child}"
    if global_pieces:
        spec["terms"].append({"owner": "global", "expr": " + ".join(global_pieces)})
    return parse_model(spec, mask_policy="warn" if "warn_lap_z" in plants else "strict")


def _max_abs(block) -> float:
    return float(np.abs(block).max()) if block.size else 0.0


def _reference_lap(model, pairs, point):
    """(z_block, theta_block) of every pair, in order, from one order-2
    call per module over all of the module's terms."""
    sources = {}
    for a, i in pairs:
        sources.setdefault(i, []).append(a)
    blocks = {}
    for i, sources_i in sources.items():
        zi = model.coord_indices(i)
        cols = {a: (model.coord_indices(a), model.module_theta_refs(a)) for a in sources_i}
        active = list(dict.fromkeys(zi + [r for a in sources_i for seg in cols[a] for r in seg]))
        hess = Objective(model, _module_terms(model, i)).derivatives(
            point, order=2, active=active).hess
        at = {r: k for k, r in enumerate(active)}
        rows = [at[r] for r in zi]
        for a in sources_i:
            blocks[(a, i)] = tuple(hess[np.ix_(rows, [at[r] for r in seg])] for seg in cols[a])
    return [blocks[pair] for pair in pairs]


def _reference_icm(model, node, point, dynamics=False):
    """(first, mixed) of node's residual from one unfiltered call over
    every term of the model (every field component's jet, for dynamics)."""
    parent_refs = list(dict.fromkeys(k for p in model.dag.parents(node)
                                     for k in model.module_theta_refs(p, dynamics=dynamics)))
    own_refs = model.module_theta_refs(node, dynamics=dynamics)
    zi = model.coord_indices(node)
    first = np.zeros((len(zi), len(parent_refs)))
    mixed = np.zeros((len(zi), len(parent_refs), len(own_refs)))
    if not parent_refs:
        return first, mixed
    active = list(dict.fromkeys(zi + parent_refs + own_refs))
    at = {r: k for k, r in enumerate(active)}
    p, o = [at[r] for r in parent_refs], [at[r] for r in own_refs]
    objective = Objective.from_model(model)
    if dynamics:
        (field,) = [c for c in model.dynamics if c.var == node]
        _, grad, hess, _ = objective.term_jet(field.objective_term, point, active, order=2)
        return grad[p][None], hess[np.ix_(p, o)][None]
    full = objective.derivatives(point, order=3, active=active)
    rows = [at[r] for r in zi]
    return full.hess[np.ix_(rows, p)], full.third[np.ix_(rows, p, o)]


def _reference_penalty(blocks) -> float:
    total = 0.0
    for block_1, block_2 in blocks:
        total += float(np.sum(block_1 ** 2))
        total += float(np.sum(block_2 ** 2))
    return total


def _same(got, want) -> None:
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


PLANTS = ["dense_global", "lap_z", "lap_theta", "warn_lap_z", "icm_first", "icm_mixed",
          "icm_global", "shared", "dyn_icm"]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), nodes=st.integers(2, 7), dynamics=st.booleans(),
       plants=st.frozensets(st.sampled_from(PLANTS)), zero_point=st.booleans())
@example(seed=1, nodes=5, dynamics=False, plants=frozenset(PLANTS), zero_point=False)
@example(seed=2, nodes=6, dynamics=True, plants=frozenset(PLANTS), zero_point=False)
@example(seed=3, nodes=4, dynamics=True, plants=frozenset(), zero_point=True)
@example(seed=4, nodes=5, dynamics=False, plants=frozenset({"warn_lap_z"}), zero_point=False)
def test_filtered_reports_are_bitwise_the_unfiltered_ones(seed, nodes, dynamics, plants,
                                                          zero_point):
    rng = np.random.default_rng(seed)
    model = _planted_model(rng, nodes, dynamics, plants)
    point = Point.for_model(model) if zero_point else Point.for_model(
        model, z=rng.uniform(-1, 1, model.nz), u=rng.uniform(-1, 1, model.nu))
    pairs = nondesc_pairs(model)

    lap = _lap_reports(model, pairs, point)
    want = _reference_lap(model, pairs, point)
    for report, (z_block, theta_block) in zip(lap, want, strict=True):
        _same(report.z_block, z_block)
        _same(report.theta_block, theta_block)
        assert (report.max_abs_z, report.max_abs_theta) == (_max_abs(z_block),
                                                           _max_abs(theta_block))
    found = [_lap_blocks(model, pairs, point)]  # the entries escm diagnose reads
    assert _locality_penalty(pairs, found, 1.0, 1.0, 0.0) == lap_penalty(model, [point]) \
        == _reference_penalty(want)

    checks = [(icm_check, False, icm_penalty)]
    if dynamics:
        checks.append((dyn_icm_check, True, dyn_icm_penalty))
    for check, on_field, penalty in checks:
        icm = [check(model, node, point) for node in model.dag.nodes]
        want = [_reference_icm(model, node, point, on_field) for node in model.dag.nodes]
        for report, (first, mixed) in zip(icm, want, strict=True):
            _same(report.d_residual_d_parent, first)
            _same(report.mixed_parent_own, mixed)
            assert (report.max_abs_first, report.max_abs_mixed) == (_max_abs(first),
                                                                   _max_abs(mixed))
        assert _independence_penalty([icm], 1.0, 1.0, 0.0) == penalty(model, [point]) \
            == _reference_penalty(want)


# ---------------------------------------------------------------------------
# Domain errors


def _domain_spec(z1_extra: str = " - log(z.Z1)", z2_extra: str = "") -> dict:
    """Z1 -> Z2, with extra pieces in the local terms; Z1 has a parameter,
    so Z2 has a parent parameter that no term of Z2's residual reads."""
    return {
        "variables": [{"name": "Z1", "kind": "endogenous", "dim": 1},
                      {"name": "Z2", "kind": "endogenous", "dim": 1},
                      {"name": "U1", "kind": "exogenous", "dim": 1},
                      {"name": "U2", "kind": "exogenous", "dim": 1}],
        "edges": [["Z1", "Z2"]],
        "terms": [{"owner": "local:Z1",
                   "expr": "0.5*sq(z.Z1 - theta.Z1.b*u.U1)" + z1_extra, "params": {"b": 1.0}},
                  {"owner": "local:Z2",
                   "expr": "0.5*sq(z.Z2 - theta.Z2.c*z.Z1 - u.U2)" + z2_extra,
                   "params": {"c": 0.5}},
                  {"owner": "exo:U1", "expr": "0.5*sq(u.U1)"},
                  {"owner": "exo:U2", "expr": "0.5*sq(u.U2)"}],
    }


def test_a_term_left_out_of_every_block_still_raises_its_domain_error():
    model = parse_model(_domain_spec())
    point = Point.for_model(model)
    # module Z1's terms read nothing of Z2, so no Z1 block is differentiated
    assert lap_check(model, "Z2", "Z1", Point.for_model(model, z=[1.0, 0.0])).passed
    with pytest.raises(EnergyDomainError) as caught:
        lap_check(model, "Z2", "Z1", point)
    assert str(caught.value) == ("log of non-positive value 0.0 at subexpression "
                                 "'log(z.Z1)' in term 'Z1'")

    model = parse_model(_domain_spec("", " - log(z.Z2)"))
    # Z2's residual reads no parent parameter, so no block is differentiated
    assert icm_check(model, "Z2", Point.for_model(model, z=[0.0, 1.0])).passed
    with pytest.raises(EnergyDomainError) as caught:
        icm_check(model, "Z2", point)
    assert str(caught.value) == ("log of non-positive value 0.0 at subexpression "
                                 "'log(z.Z2)' in term 'Z2'")


def test_a_field_component_left_out_of_every_block_still_raises_its_domain_error():
    spec = _domain_spec("", "")
    spec["dynamics"] = [{"var": "Z1", "expr": "-(z.Z1 - theta.Z1.b*u.U1)"},
                        {"var": "Z2", "expr": "-(z.Z2 - theta.Z2.c*z.Z1) + log(z.Z2)"}]
    model = parse_model(spec)
    assert dyn_icm_check(model, "Z2", Point.for_model(model, z=[0.0, 1.0])).passed
    with pytest.raises(EnergyDomainError) as caught:
        dyn_icm_check(model, "Z2", Point.for_model(model))
    assert str(caught.value) == ("log of non-positive value 0.0 at subexpression "
                                 "'log(z.Z2)' in term 'Z2'")


def test_a_derivative_alone_undefined_raises_only_where_it_enters_a_block():
    """1/z.Z1 at 1e-200 has a value, 1e200, but its derivative -1/z.Z1**2
    divides by an underflowed zero.  Left out of every block, the term
    passes; in a block, it raises."""
    model = parse_model(_domain_spec(" + 1/z.Z1"))
    point = Point.for_model(model, z=[1e-200, 0.0])
    assert lap_check(model, "Z2", "Z1", point).passed
    with pytest.raises(EnergyDomainError, match="division by zero at subexpression '1/z.Z1'"):
        Objective(model, _module_terms(model, "Z1")).derivatives(point, order=2)

    spec = _domain_spec("")
    spec["terms"].append({"owner": "global", "expr": "0.3*z.Z2*z.Z1 + 1/z.Z1"})
    model = parse_model(spec)
    with pytest.raises(EnergyDomainError, match="division by zero at subexpression '1/z.Z1'"):
        lap_check(model, "Z2", "Z1", point)
