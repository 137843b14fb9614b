"""Model parsing, graph queries, flat maps, round-trip serialization."""

import copy
import json
from pathlib import Path

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


def test_unknown_mask_policy_is_a_query_error():
    with pytest.raises(QueryError, match="mask_policy must be 'strict' or 'warn', not 'lax'"):
        parse_model(chain2_dict(), mask_policy="lax")


def _three_nodes(expr: str) -> dict:
    """Z1, Z2, Z3 with no edges, each with its paired U; Z1's local term
    is ``expr``."""
    return {"variables": [{"name": f"{space}{k}", "kind": kind}
                          for space, kind in (("Z", "endogenous"), ("U", "exogenous"))
                          for k in (1, 2, 3)],
            "edges": [],
            "terms": [{"owner": "local:Z1", "expr": expr},
                      {"owner": "local:Z2", "expr": "sq(z.Z2 - u.U2)"},
                      {"owner": "local:Z3", "expr": "sq(z.Z3 - u.U3)"}]}


def test_symbols_are_checked_from_the_last_in_the_text():
    # mask warnings reach every report in this order, and the first
    # error raised names the last bad symbol of the text
    spec = _three_nodes("sq(z.Z1) + z.Z2*z.Z3 + u.U2")
    model = parse_model(spec, mask_policy="warn")
    assert model.mask_warnings == tuple(
        f"symbol {name!r} outside the parent mask of local term Z1"
        for name in ("u.U2", "z.Z3", "z.Z2"))
    with pytest.raises(MaskViolationError, match="'u.U2'"):
        parse_model(spec)
    with pytest.raises(UnknownSymbolError) as err:
        parse_model(_three_nodes("z.Q1 + z.Q2"))
    assert str(err.value) == "unknown endogenous variable in symbol 'z.Q2'"


def test_a_symbol_is_checked_at_each_occurrence():
    model = parse_model(_three_nodes("z.Z2 + sq(z.Z1) + z . Z2"), mask_policy="warn")
    assert [w.split("'")[1] for w in model.mask_warnings] == ["z . Z2", "z.Z2"]


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


def test_a_name_ending_in_a_newline_is_rejected():
    spec = chain2_dict()
    spec["variables"][0]["name"] = "Z1\n"
    with pytest.raises(SchemaError, match="bad variable name"):
        parse_model(spec)
    spec = chain2_dict()
    spec["terms"][1]["params"] = {"a\n": 2}
    with pytest.raises(SchemaError, match="bad parameter name"):
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
    for label, message in [
        ("z.U1", "cannot parse coordinate 'z.U1': unknown endogenous variable in symbol 'z.U1'"),
        ("theta.Z2.zzz", "cannot parse coordinate 'theta.Z2.zzz': unknown parameter "
                         "'theta.Z2.zzz'"),
        ("w.Z1", "cannot parse coordinate 'w.Z1': unknown symbol 'w.Z1'"),
        ("z.Z1+1", "cannot parse coordinate 'z.Z1+1'"),
        ("-z.Z1", "cannot parse coordinate '-z.Z1'"),
        ("sq(z.Z1)", "cannot parse coordinate 'sq(z.Z1)'"),
        ("2", "cannot parse coordinate '2'"),
        ([1], "cannot parse coordinate [1]: empty expression at position 0: ''"),
    ]:
        with pytest.raises(QueryError) as err:
            chain2.parse_coord(label)
        assert str(err.value) == message


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


def _module_theta_refs_uncached(model, owner, dynamics):
    """A module's parameter set computed from scratch: the parameters its
    term declares, those it reads, and with ``dynamics`` those its field
    component reads."""
    term = model.term_by_label[owner]
    thetas = set(model.coords("theta"))
    refs = {model.parse_coord(f"theta.{owner}.{name}") for name in term.params}
    refs |= thetas & set(term.compiled.refs)
    if dynamics:
        for comp in model.dynamics or ():
            if comp.var == owner:
                refs |= thetas & set(comp.compiled.refs)
    return sorted(refs)


def _shared_parameter_model():
    """chain2 whose Z1 term and field component read Z2's parameter, and
    whose Z1 component reads a parameter of its own term."""
    spec = chain2_dict()
    spec["terms"][0].update(expr="0.5*sq(z.Z1 - theta.Z2.a*theta.Z1.b*u.U1)", params={"b": 1})
    spec["dynamics"] = [{"var": "Z1", "expr": "-(z.Z1 - theta.Z2.a*u.U1)"},
                        {"var": "Z2", "expr": "-(z.Z2 - theta.Z1.b*z.Z1 - u.U2)"}]
    return parse_model(spec)


def test_module_theta_refs_are_the_uncached_sets_and_callers_own_them():
    models = [parse_model(path.read_text(), mask_policy="warn") for path in
              sorted((Path(__file__).parent / "golden" / "models").glob("*.json"))]
    models.append(_shared_parameter_model())
    shared = 0
    for model in models:
        for owner in model.term_by_label:
            for dynamics in (False, True):
                expected = _module_theta_refs_uncached(model, owner, dynamics)
                first = model.module_theta_refs(owner, dynamics=dynamics)
                assert first == expected
                first.append(-1)
                first.clear()
                again = model.module_theta_refs(owner, dynamics=dynamics)
                assert again == expected and again is not first
                shared += len(expected) > len(model.term_by_label[owner].params)
        with pytest.raises(QueryError, match="no term owned"):
            model.module_theta_refs("Nope")
        with pytest.raises(QueryError, match="no term owned"):
            model.module_theta_refs("Nope")
    assert shared  # the shared model reads parameters it does not declare
    model = models[-1]
    a, b = model.parse_coord("theta.Z2.a"), model.parse_coord("theta.Z1.b")
    assert model.module_theta_refs("Z1") == model.module_theta_refs("Z1", True) == sorted([a, b])
    assert model.module_theta_refs("Z2") == [a]
    assert model.module_theta_refs("Z2", dynamics=True) == sorted([a, b])
