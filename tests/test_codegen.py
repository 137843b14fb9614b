"""Generated derivative code: it holds no text from the model, blocks are
unrolled only up to ``MAX_UNROLLED`` entries and returned flat, terms of
one shape share one code object, and a Hessian flagged as reading no
active coordinate depends only on the coordinates it is said to read."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from escm import EnergyDomainError, ExprSyntaxError, codegen, parse_model
from escm.corpus import random_quadratic_model
from escm.engine import Objective, Point
from escm.expr import MAX_DEPTH, compile_expr, parse_expr
from escm.model import ObjectiveTerm
from tests.genmodels import random_smooth_model

# Names that are legal in a model file and dangerous in Python source.
_VARS = ["__import__", "os", "t0", "exec", "sys"]
_HOSTILE = {
    "variables": ([{"name": n, "kind": "endogenous", "dim": 1} for n in _VARS]
                  + [{"name": f"U_{n}", "kind": "exogenous", "dim": 1} for n in _VARS]),
    "edges": [["__import__", "os"], ["os", "t0"], ["t0", "exec"], ["exec", "sys"]],
    "terms": [
        {"owner": "local:__import__",
         "expr": "0.5*sq(z.__import__ - theta.__import__.__class__ - u.U___import__)",
         "params": {"__class__": 0.125}},
        {"owner": "local:os",
         "expr": "0.25*sq(z.os - theta.os.system*tanh(z.__import__) - u.U_os)"
                 " + 0.0625*exp(0.375*z.os)",
         "params": {"system": 1.375}},
        {"owner": "local:t0",
         "expr": "0.5*sq(z.t0 - u.U_t0) + 0.1875*log(2.5 + sq(z.os - 0.3125))"
                 " + 0.4375*pow(z.t0, 3)/(1.6875 + sq(u.U_t0))"},
        {"owner": "local:exec",
         "expr": "0.5*sq(z.exec - theta.exec.eval*z.t0 - u.U_exec) + pow(2.125 + z.exec, -2)",
         "params": {"eval": 0.8125}},
        {"owner": "local:sys", "expr": "0.5*sq(z.sys - z.exec*z.exec - u.U_sys)"},
        *({"owner": f"exo:U_{n}", "expr": f"0.5*sq(u.U_{n})"} for n in _VARS),
    ],
}

_TOKEN = re.compile(
    r"\s+|def term\(|[akv]\d+|one|zero|bs|L|K|None|return|try:|except ZeroDivisionError:"
    r"|_ar|_d2|_d3|_outer_sym|_outer|_sym3|_exp|_tanh|_log|_pwz|_pw|_nzb|_nz|_dv|_divzero"
    r"|\d+\.0|\d+|[-+*/=,():\[\]]")


def _allowed(line: str) -> bool:
    pos = 0
    while pos < len(line):
        m = _TOKEN.match(line, pos)
        if m is None:
            return False
        pos = m.end()
    return True


def test_generated_source_holds_no_model_text():
    model = parse_model(_HOSTILE)
    objective = Objective.from_model(model)
    x = np.random.default_rng(3).uniform(-0.5, 0.5, size=model.dim)
    x[model.coords("theta")] = model.theta_defaults()
    point = Point.from_flat(model, x)
    words = set(_VARS) | {f"U_{n}" for n in _VARS} | {"__class__", "system", "eval"}
    literals = set(re.findall(r"\d+\.\d+", str(_HOSTILE["terms"]))) - {"0.0", "1.0", "2.0"}
    for term, entry in zip(objective.terms, _HOSTILE["terms"]):
        for active, order in ((term.refs, 3), (term.refs[::2], 2), (term.refs, 1), ((), 0)):
            if order:
                objective.term_jet(term, point, active, order)
            source = codegen.source(term, active, order)
            for line in source.splitlines():
                assert _allowed(line), line
            names = set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", source))
            assert not names & words
            assert entry["expr"] not in source
            assert not any(lit in source for lit in literals)
        assert objective.value(point) == objective.value(point)


def test_wide_blocks_are_numpy_expressions():
    # a square of a 7-coordinate sum: its Hessian has 28 distinct entries
    spec = {"variables": [{"name": f"Z{k}", "kind": "endogenous", "dim": 1} for k in range(7)],
            "edges": [],
            "terms": [{"owner": "global", "expr": "sq(" + " + ".join(
                f"z.Z{k}" for k in range(7)) + ")"}]
            + [{"owner": f"local:Z{k}", "expr": f"0.5*sq(z.Z{k})"} for k in range(7)]}
    model = parse_model(spec)
    term = model.global_term.objective_term
    wide = codegen.source(term, term.refs, 3)
    narrow = codegen.source(term, term.refs[:2], 2)
    assert "_outer(" in wide and wide.count("\n") < 40
    assert "_outer(" not in narrow


def test_dense_formulas_give_the_unrolled_entries(monkeypatch):
    # a product of two sums has a 5x5 outer-sum Hessian block, and the
    # exp of a 3-coordinate sum a 3x3x3 cube: both past MAX_UNROLLED
    spec = {"variables": [{"name": n, "kind": "endogenous", "dim": 1} for n in "ABCDE"],
            "edges": [],
            "terms": [{"owner": "global",
                       "expr": "(z.A + z.B + z.C)*(z.D + z.E) + exp(0.3*(z.A + z.B + z.C))"}]
            + [{"owner": f"local:{n}", "expr": f"0.5*sq(z.{n})"} for n in "ABCDE"]}
    x = np.array([0.25, -0.5, 1.0, 0.75, -1.25])

    def jet(model):
        term = model.global_term.objective_term
        point = Point.for_model(model, z=x)
        return codegen.source(term, term.refs, 3), Objective.from_model(model).term_jet(
            term, point, term.refs, 3)

    dense_source, dense = jet(parse_model(spec))
    assert "_outer_sym(" in dense_source
    assert "[:, None, None] * " in dense_source  # the cube g_a g_b g_c
    monkeypatch.setattr(codegen, "MAX_UNROLLED", 1000)
    monkeypatch.setattr(codegen, "_FUNCTIONS", {})
    unrolled_source, unrolled = jet(parse_model(spec))  # a new model: no code kept
    assert "_outer_sym(" not in unrolled_source and "[:, None, None]" not in unrolled_source
    assert dense[0] == unrolled[0]
    for got, want in zip(dense[1:], unrolled[1:]):
        assert got.shape == want.shape and (got == want).all()


def test_unrolled_blocks_are_returned_as_flat_tuples():
    spec = {"variables": [{"name": n, "kind": "endogenous", "dim": 1} for n in "AB"],
            "edges": [["A", "B"]],
            "terms": [{"owner": "local:A", "expr": "0.5*sq(z.A)"},
                      {"owner": "local:B", "expr": "0.5*sq(z.B - theta.B.a*tanh(z.A))",
                       "params": {"a": 0.5}}]}
    model = parse_model(spec)
    term = model.local_term("B").objective_term
    for active in (term.refs, term.refs[1:]):
        for order in (1, 2, 3):
            source = codegen.source(term, active, order)
            (ret,) = [line for line in source.splitlines() if line.lstrip().startswith("return")]
            assert "_ar(" not in ret


def test_terms_of_one_shape_share_one_code_object():
    spec = {"variables": [{"name": n, "kind": "endogenous", "dim": 1} for n in "ABCD"],
            "edges": [["A", "B"], ["C", "D"]],
            "terms": [{"owner": "local:A", "expr": "0.5*sq(z.A)"},
                      {"owner": "local:B", "expr": "0.75*sq(z.B - 2.5*z.A)"},
                      {"owner": "local:C", "expr": "0.5*sq(z.C)"},
                      {"owner": "local:D", "expr": "1.25*sq(z.D - 0.5*z.C)"}]}
    model = parse_model(spec)
    objective = Objective.from_model(model)
    point = Point.for_model(model, z=np.array([0.5, -1.0, 2.0, 0.25]))
    b, d = model.local_term("B").objective_term, model.local_term("D").objective_term
    jb = objective.term_jet(b, point, b.refs, 2)
    jd = objective.term_jet(d, point, d.refs, 2)
    fb, fd = (t.code.function(t.refs, 2, False) for t in (b, d))
    assert fb is fd
    assert jb[0] == 0.75 * (-1.0 - 2.5 * 0.5) ** 2
    assert jd[0] == 1.25 * (0.25 - 0.5 * 2.0) ** 2


def _nested_calls(depth: int) -> tuple[str, list[str]]:
    """``depth`` levels of sq and tanh calls around z.Z0, and the calls
    from the innermost out."""
    fns = ["sq" if j % 50 == 0 else "tanh" for j in range(depth - 1)]
    text = "z.Z0"
    for fn in fns:
        text = f"{fn}({text})"
    return text, fns


def _calls_jet(fns, x):
    """Value and first three derivatives of the nested calls at ``x``."""
    v, d1, d2, d3 = x, 1.0, 0.0, 0.0
    for fn in fns:
        if fn == "sq":
            f0, f1, f2, f3 = v * v, 2.0 * v, 2.0, 0.0
        else:
            t = math.tanh(v)
            f0, f1 = t, 1.0 - t * t
            f2, f3 = -2.0 * t * f1, -2.0 * f1 * (1.0 - 3.0 * t * t)
        v, d1, d2, d3 = (f0, f1 * d1, f2 * d1 * d1 + f1 * d2,
                         f3 * d1 ** 3 + 3.0 * f2 * d1 * d2 + f1 * d3)
    return v, d1, d2, d3


def _cycle(depth: int, sep: str) -> str:
    """A left-deep chain of ``depth`` levels over z.Z0, z.Z1, z.Z2: a
    product of single leaves, or a sum of products of two."""
    if sep == "*":
        return "*".join(f"z.Z{j % 3}" for j in range(depth))
    return " + ".join(f"z.Z{j % 3}*z.Z{(j + 1) % 3}" for j in range(depth - 1))


# each form nested exactly MAX_DEPTH levels, and an expression equal to it
# that nests shallowly; None means the nested calls, checked by the chain rule
_AT_LIMIT = {
    "parentheses": ("(" * (MAX_DEPTH - 1) + "z.Z0" + ")" * (MAX_DEPTH - 1), "z.Z0"),
    "calls": (_nested_calls(MAX_DEPTH)[0], None),
    "sum": (_cycle(MAX_DEPTH, "+"), " + ".join(
        f"{(MAX_DEPTH - 1 - j + 2) // 3}.0*z.Z{j}*z.Z{(j + 1) % 3}" for j in range(3))),
    "product": (_cycle(MAX_DEPTH, "*"), "*".join(
        f"pow(z.Z{j}, {(MAX_DEPTH - j + 2) // 3})" for j in range(3))),
}
_DEEPER = {
    "parentheses": "(" * MAX_DEPTH + "z.Z0" + ")" * MAX_DEPTH,
    "calls": _nested_calls(MAX_DEPTH + 1)[0],
    "sum": _cycle(MAX_DEPTH + 1, "+"),
    "product": _cycle(MAX_DEPTH + 1, "*"),
}


@pytest.mark.parametrize("form", sorted(_AT_LIMIT))
def test_expressions_at_the_depth_limit_evaluate(form):
    deep, shallow = _AT_LIMIT[form]
    with pytest.raises(ExprSyntaxError, match="nested deeper than"):
        parse_expr(_DEEPER[form])
    model = parse_model({"variables": [{"name": f"Z{j}", "kind": "endogenous", "dim": 1}
                                       for j in range(3)],
                         "edges": [], "terms": [{"owner": f"local:Z{j}", "expr": f"sq(z.Z{j})"}
                                                for j in range(3)]})

    def objective(source):
        term = ObjectiveTerm("global", [(1.0, compile_expr(parse_expr(source),
                                                           model.readout_resolver()))])
        return Objective(model, [term]), term

    deep_objective, term = objective(deep)
    z = np.array([1.25, 0.75, 1.0625])
    point = Point.for_model(model, z=z)
    jet = deep_objective.term_jet(term, point, term.refs, 3)
    if shallow is None:
        want = _calls_jet(_nested_calls(MAX_DEPTH)[1], z[0])
        assert deep_objective.value(point) == jet[0] == want[0]
        got = (jet[1][0], jet[2][0, 0], jet[3][0, 0, 0])
        np.testing.assert_allclose(got, want[1:], rtol=1e-12)
    else:
        shallow_objective, shallow_term = objective(shallow)
        assert shallow_term.refs == term.refs
        want = shallow_objective.term_jet(shallow_term, point, term.refs, 3)
        assert math.isclose(deep_objective.value(point), want[0], rel_tol=1e-12)
        for got_block, want_block in zip(jet, want):
            np.testing.assert_allclose(got_block, want_block, rtol=1e-12, atol=1e-12)
    # three points at once give bitwise what each gives alone
    x = np.stack([point.x, point.x * 0.5, point.x * 1.5], axis=1)
    batch = deep_objective.derivatives(Point.from_flat(model, x), order=2)
    for j in range(3):
        alone = deep_objective.derivatives(Point.from_flat(model, x[:, j]), order=2)
        assert batch.grad[..., j].tobytes() == alone.grad.tobytes()
        assert batch.hess[..., j].tobytes() == alone.hess.tobytes()


# -- Hessians that read no active coordinate -------------------------------------

_GOLDEN_MODELS = sorted((Path(__file__).parent / "golden" / "models").glob("*.json"))


def _models():
    for path in _GOLDEN_MODELS:
        yield parse_model(json.loads(path.read_text(encoding="utf-8")), mask_policy="warn")
    rng = np.random.default_rng(31)
    for _ in range(4):
        yield parse_model(random_quadratic_model(rng, int(rng.integers(2, 12)), density=0.3))
    for _ in range(30):
        yield random_smooth_model(rng, max_nodes=5)


def _hessian(active: codegen._ActiveTerms, x: np.ndarray):
    try:
        return np.asarray(active.blocks(x, 2)[0][2], dtype=float).tobytes()
    except EnergyDomainError:
        return None


def test_a_flagged_hessian_is_the_same_wherever_the_coordinates_it_does_not_read_go():
    # every coordinate outside the flagged read set moves: the active ones,
    # the term's held ones and every other one, parameters included
    rng = np.random.default_rng(7)
    flagged = unflagged = compared = unread = 0
    for model in _models():
        state = [*model.coords("z"), *model.coords("u")]
        for term in model.terms:
            refs = [ref for ref in term.objective_term.refs if ref in state]
            if not refs:
                continue
            for _ in range(3):
                chosen = rng.permutation(refs)[:int(rng.integers(1, len(refs) + 1))]
                active = codegen._ActiveTerms([term.objective_term],
                                              {int(ref): j for j, ref in enumerate(chosen)})
                reads = active.hessian_reads()
                if reads is None:
                    unflagged += 1
                    continue
                flagged += 1
                assert not set(reads.tolist()) & set(chosen.tolist())
                moved = np.setdiff1d(np.arange(model.dim), reads)
                unread += bool(set(term.objective_term.refs) - set(chosen.tolist())
                               - set(reads.tolist()))
                x = np.concatenate([rng.uniform(-1.0, 1.0, len(state)), model.theta_defaults()])
                want = _hessian(active, x)
                for _ in range(2):
                    x[moved] = rng.uniform(-1.0, 1.0, len(moved))
                    got = _hessian(active, x)
                    if want is not None and got is not None:
                        assert got == want, (term.owner, chosen)
                        compared += 1
    assert flagged > 300 and unflagged > 200 and compared > 600 and unread > 100
