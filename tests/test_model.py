"""Model parsing, graph queries, flat maps, round-trip serialization."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escm import (
    CycleError,
    MaskViolationError,
    QueryError,
    SchemaError,
    UnknownSymbolError,
    descendants,
    model_text,
    nondescendants,
    parse_model,
    topo_order,
)
from tests.conftest import chain2_dict


def test_chain2_parses_with_expected_graph(chain2):
    assert chain2.parents("Z2") == ("Z1",)
    assert descendants(chain2, "Z1") == {"Z2"}
    assert descendants(chain2, "Z2") == set()
    assert nondescendants(chain2, "Z2") == {"Z1"}


def test_two_cycle_reports_cycle():
    spec = chain2_dict()
    spec["edges"].append(["Z2", "Z1"])
    with pytest.raises(CycleError) as err:
        parse_model(spec)
    assert set(err.value.cycle) == {"Z1", "Z2"}


def test_unknown_symbol_in_term():
    spec = chain2_dict()
    spec["terms"][1]["expr"] = "0.5*sq(z.Z2 - z.Z3)"
    with pytest.raises(UnknownSymbolError):
        parse_model(spec)


def test_topo_order_examples(chain2):
    assert topo_order(chain2) == ["Z1", "Z2"]

    collider = {
        "variables": [{"name": n, "kind": "endogenous"} for n in ("Z1", "Z2", "Z3")],
        "edges": [["Z1", "Z3"], ["Z2", "Z3"]],
        "terms": [
            {"owner": "local:Z1", "expr": "0.5*sq(z.Z1)"},
            {"owner": "local:Z2", "expr": "0.5*sq(z.Z2)"},
            {"owner": "local:Z3", "expr": "0.5*sq(z.Z3 - z.Z1 - z.Z2)"},
        ],
    }
    assert topo_order(parse_model(collider)) == ["Z1", "Z2", "Z3"]

    unordered = {
        "variables": [{"name": "Z2", "kind": "endogenous"},
                      {"name": "Z1", "kind": "endogenous"}],
        "edges": [],
        "terms": [
            {"owner": "local:Z2", "expr": "0.5*sq(z.Z2)"},
            {"owner": "local:Z1", "expr": "0.5*sq(z.Z1)"},
        ],
    }
    assert topo_order(parse_model(unordered)) == ["Z2", "Z1"]


def test_three_chain_descendants():
    spec = {
        "variables": [{"name": n, "kind": "endogenous"} for n in ("Z1", "Z2", "Z3")],
        "edges": [["Z1", "Z2"], ["Z2", "Z3"]],
        "terms": [
            {"owner": "local:Z1", "expr": "0.5*sq(z.Z1)"},
            {"owner": "local:Z2", "expr": "0.5*sq(z.Z2 - z.Z1)"},
            {"owner": "local:Z3", "expr": "0.5*sq(z.Z3 - z.Z2)"},
        ],
    }
    model = parse_model(spec)
    assert descendants(model, "Z1") == {"Z2", "Z3"}


def test_descendants_unknown_variable(chain2):
    with pytest.raises(QueryError):
        descendants(chain2, "Z9")


def test_parent_mask_enforced_for_z_symbols():
    spec = chain2_dict()
    # Z1's local term may not read its child's state
    spec["terms"][0]["expr"] = "0.5*sq(z.Z1 - u.U1) + 0.1*z.Z2"
    with pytest.raises(MaskViolationError) as err:
        parse_model(spec)
    assert "z.Z2" in str(err.value)
    model = parse_model(spec, mask_policy="warn")
    assert len(model.mask_warnings) == 1


def test_unpaired_exogenous_not_readable():
    spec = chain2_dict()
    spec["terms"][0]["expr"] = "0.5*sq(z.Z1 - u.U2)"  # U2 pairs with Z2
    with pytest.raises(MaskViolationError):
        parse_model(spec)


def test_cross_module_theta_is_representable():
    # parameter sharing must parse: detecting it is the diagnostics' job
    spec = chain2_dict()
    spec["terms"][0]["expr"] = "0.5*sq(z.Z1 - theta.Z2.a*u.U1)"
    model = parse_model(spec)
    assert model.mask_warnings == ()


def test_every_endogenous_needs_local_term():
    spec = chain2_dict()
    spec["terms"] = [t for t in spec["terms"] if t["owner"] != "local:Z2"]
    with pytest.raises(SchemaError):
        parse_model(spec)


def test_duplicate_and_global_term_limits():
    spec = chain2_dict()
    spec["terms"].append({"owner": "global", "expr": "z.Z1*z.Z2"})
    spec["terms"].append({"owner": "global", "expr": "z.Z1"})
    with pytest.raises(SchemaError):
        parse_model(spec)


def test_edges_must_be_endogenous():
    spec = chain2_dict()
    spec["edges"].append(["U1", "Z2"])
    with pytest.raises(SchemaError):
        parse_model(spec)


def test_round_trip_serialization(chain2):
    text = model_text(chain2)
    again = parse_model(text)
    assert again == chain2
    assert model_text(again) == text


def test_round_trip_canonicalizes_param_order():
    spec = chain2_dict()
    spec["terms"][1]["params"] = {"b": 1, "a": 2}
    spec["terms"][1]["expr"] = "0.5*sq(z.Z2 - theta.Z2.a*z.Z1 - theta.Z2.b*u.U2)"
    model = parse_model(spec)
    assert model.labels("theta") == ["Z2.a", "Z2.b"]
    assert parse_model(model_text(model)) == model


def test_vector_variables_flatten_deterministically():
    spec = {
        "variables": [{"name": "V", "kind": "endogenous", "dim": 3},
                      {"name": "W", "kind": "endogenous", "dim": 1}],
        "edges": [],
        "terms": [
            {"owner": "local:V", "expr": "0.5*(sq(z.V[0]) + sq(z.V[1]) + sq(z.V[2]))"},
            {"owner": "local:W", "expr": "0.5*sq(z.W)"},
        ],
    }
    model = parse_model(spec)
    assert model.labels("z") == ["V[0]", "V[1]", "V[2]", "W"]
    assert model.parse_coord("z.V[2]") == 2
    assert model.parse_coord("z.W") == 3
    with pytest.raises(UnknownSymbolError):
        # bare symbol needs an index once dim > 1
        parse_model({**spec, "terms": [
            {"owner": "local:V", "expr": "0.5*sq(z.V)"},
            {"owner": "local:W", "expr": "0.5*sq(z.W)"},
        ]})


def test_parse_coord_errors(chain2):
    with pytest.raises(QueryError):
        chain2.parse_coord("z.U1")
    with pytest.raises(QueryError):
        chain2.parse_coord("theta.Z2.zzz")
    with pytest.raises(QueryError):
        chain2.parse_coord("w.Z1")


def test_invalid_json_is_schema_error():
    with pytest.raises(SchemaError):
        parse_model("{not json")


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    names = [f"N{k}" for k in range(n)]
    edges = []
    for j in range(n):
        for i in range(j):
            if draw(st.booleans()):
                edges.append([names[i], names[j]])
    return names, edges


@settings(max_examples=60, deadline=None)
@given(random_dags())
def test_desc_nondesc_partition_property(dag):
    names, edges = dag
    spec = {
        "variables": [{"name": n, "kind": "endogenous"} for n in names],
        "edges": edges,
        "terms": [{"owner": f"local:{n}",
                   "expr": "0.5*sq(z.%s%s)" % (n, "".join(
                       f" - 0.5*z.{p}" for p, c in edges if c == n))}
                  for n in names],
    }
    model = parse_model(spec)
    order = topo_order(model)
    position = {name: k for k, name in enumerate(order)}
    for parent, child in edges:
        assert position[parent] < position[child]
    for a in names:
        desc = descendants(model, a)
        nond = nondescendants(model, a)
        assert a not in desc and a not in nond
        assert desc | nond | {a} == set(names)
        assert not desc & nond


def test_json_edge_types_rejected():
    spec = chain2_dict()
    spec["edges"] = [["Z1", "Z1"]]
    with pytest.raises(SchemaError):
        parse_model(spec)
    spec = chain2_dict()
    spec["edges"] = json.loads('[["Z1","Z2"],["Z1","Z2"]]')
    with pytest.raises(SchemaError):
        parse_model(spec)


def test_dynamics_validation():
    spec = chain2_dict()
    spec["dynamics"] = [{"var": "Z1", "expr": "-(z.Z1 - u.U1)"}]
    with pytest.raises(SchemaError):  # must cover every endogenous variable
        parse_model(spec)
    spec["dynamics"].append({"var": "Z2", "expr": "-(z.Z2 - 2*z.Z1 - u.U2)"})
    model = parse_model(spec)
    assert model.dynamics is not None
    # dynamics follow the local parent mask
    bad = copy.deepcopy(spec)
    bad["dynamics"][0]["expr"] = "-(z.Z1 - u.U1) + 0.2*z.Z2"
    with pytest.raises(MaskViolationError):
        parse_model(bad)
    warned = parse_model(bad, mask_policy="warn")
    assert warned.mask_warnings


def _earliest_ready_order(nodes, edges):
    """Repeatedly take the earliest-declared node whose parents are all
    placed; None when some node never becomes ready (a cycle)."""
    placed = []
    while len(placed) < len(nodes):
        ready = [n for n in nodes if n not in placed
                 and all(p in placed for p, c in edges if c == n)]
        if not ready:
            return None
        placed.append(ready[0])
    return placed


def test_dag_order_and_cycles_on_random_edge_sets():
    from escm.model import Dag

    rng = np.random.default_rng(17)
    acyclic = cyclic = 0
    for _ in range(600):
        n = int(rng.integers(1, 9))
        nodes = [f"N{k}" for k in rng.permutation(n)]
        pairs = rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2))
        if rng.random() < 0.5:  # forward edges of a random order: acyclic
            rank = rng.permutation(n)
            pairs = [(a, b) for a, b in pairs if rank[a] < rank[b]]
        edges = [(nodes[a], nodes[b]) for a, b in pairs]
        want = _earliest_ready_order(nodes, edges)
        if want is not None:
            assert Dag(nodes, edges).topo_order() == want
            acyclic += 1
            continue
        with pytest.raises(CycleError) as err:
            Dag(nodes, edges)
        cycle = err.value.cycle
        assert len(set(cycle)) == len(cycle) >= 1
        assert all((cycle[k - 1], cycle[k]) in edges for k in range(len(cycle)))
        assert cycle[0] == min(cycle, key=nodes.index)
        cyclic += 1
    assert acyclic > 200 and cyclic > 100
