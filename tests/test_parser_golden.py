"""Golden parses: every expression string in ``tests/golden/parser.json``
must parse to its committed tree, with every node's span, or fail with its
committed ``ExprSyntaxError`` message and position, byte for byte.  The
parser builds no tree: each tree is rebuilt from the flat record it lists
(form, symbols, numbers and post-order spans), every entry of which the
rebuild reads exactly once.

The strings are a seeded mix of valid and invalid expressions: random
expressions with random spacing (spaced dotted symbols, component indices,
every number spelling, every function), mutations of them (a character
dropped, doubled, swapped or replaced, the text cut short), hand-picked
edge cases, and nesting at and past ``MAX_DEPTH`` (parentheses, calls,
minus signs, operator chains).  The file was recorded from the
recursive-descent parser that the precedence loop replaced.  Regenerate it
with ``PYTHONPATH=src python tests/test_parser_golden.py`` only for a
change that is meant to change what the grammar accepts, and say which
cases moved.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from escm.errors import ExprSyntaxError
from escm.expr import FORM_CALLS, MAX_DEPTH, _pow_params, parse_expr

GOLDEN = Path(__file__).parent / "golden" / "parser.json"
SEED = 17
RANDOM_CASES = 2500
MUTATIONS = 2000


_FUNCTION = {code: fn for fn, code in FORM_CALLS.items()}


def dump(expr) -> list:
    """The tree of a parsed expression as nested lists (kind, payload, span,
    children), rebuilt from its form, taking symbols and numbers in text
    order and spans in post-order."""
    syms, numbers, spans = iter(expr.syms), iter(expr.numbers), iter(expr.spans)
    at = 0

    def span() -> list:
        return [next(spans), next(spans)]

    def node() -> list:
        nonlocal at
        kind = expr.form[at]
        at += 2 if kind == "p" else 1
        if kind == "c":
            return ["num", repr(next(numbers)), *span()]
        if kind == "s":
            sym, where = next(syms), span()
            assert [sym.start, sym.end] == where
            return ["sym", sym.text, list(sym.parts), sym.comp, *where]
        if kind in "+-*/":
            left = node()
            right = node()
            return ["bin", kind, *span(), left, right]
        child = node()
        if kind == "p":  # the exponent's parameters follow the base's numbers
            n = next(numbers)
            for _ in _pow_params(n)[1:]:
                next(numbers)
            return ["pow", n, *span(), child]
        if kind == "n":
            return ["neg", *span(), child]
        return ["call", _FUNCTION[kind], *span(), child]

    tree = node()
    assert at == len(expr.form)
    assert next(syms, None) is None and next(numbers, None) is None and next(spans, None) is None
    return tree


def outcome(source: str) -> list:
    try:
        return ["tree", dump(parse_expr(source))]
    except ExprSyntaxError as err:
        return ["error", str(err), err.position]


# ---------------------------------------------------------------------------
# The strings


_NAMES = ["Z1", "Z2", "U1", "V", "a", "c_Z2", "_x", "exp", "log", "s", "z", "theta", "Q9"]
_NUMBERS = ["0", "1", "2.5", "1.", ".5", "1e-3", "2.5E+2", "007", "3.0e0", "1e400", "0.125"]


def _space(rng: random.Random) -> str:
    return rng.choice(["", "", "", " ", "  ", "\t", "\n"])


def _symbol(rng: random.Random) -> str:
    dot = lambda: rng.choice([".", ".", ".", " . ", ". ", " ."])  # noqa: E731
    kind = rng.randrange(8)
    if kind < 3:
        text = rng.choice(["z", "u"]) + dot() + rng.choice(_NAMES)
    elif kind == 3:
        text = "theta" + dot() + rng.choice(_NAMES) + dot() + rng.choice(_NAMES)
    elif kind == 4:
        text = rng.choice(["z", "u"]) + dot() + "V" + _space(rng) + "[" + _space(rng) + rng.choice(
            ["0", "1", "2", "2.0", "1e0", "-1", "1.5", "a", ""]) + _space(rng) + "]"
    elif kind == 5:
        text = rng.choice(["s", "s[0]", "s[1]", "s [ 2 ]"])
    elif kind == 6:
        text = rng.choice(["z.Z1.a", "theta.Z2", "u", "z.exp", "theta.a.b.c"])
    else:
        text = rng.choice(_NAMES)
    return text


def _expression(rng: random.Random, depth: int) -> str:
    """A random expression of the grammar, nested at most ``depth`` deep."""
    roll = rng.random() if depth > 0 else rng.random() * 0.45
    sp = lambda: _space(rng)  # noqa: E731
    if roll < 0.2:
        return rng.choice(_NUMBERS)
    if roll < 0.45:
        return _symbol(rng)
    if roll < 0.55:
        return "-" + sp() + _expression(rng, depth - 1)
    if roll < 0.65:
        return "(" + sp() + _expression(rng, depth - 1) + sp() + ")"
    if roll < 0.75:
        fn = rng.choice(["exp", "log", "tanh", "sq"])
        return fn + sp() + "(" + sp() + _expression(rng, depth - 1) + sp() + ")"
    if roll < 0.8:
        n = rng.choice(["2", "3", "-2", "- 1", "0", "1", "4", "2.0", "1e1", "-0"])
        return "pow(" + _expression(rng, depth - 1) + "," + sp() + n + sp() + ")"
    op = rng.choice(["+", "-", "*", "/"])
    return _expression(rng, depth - 1) + sp() + op + sp() + _expression(rng, depth - 1)


def _mutate(rng: random.Random, text: str) -> str:
    if not text:
        return rng.choice("+-*/().,[]")
    at = rng.randrange(len(text))
    kind = rng.randrange(6)
    if kind == 0:
        return text[:at] + text[at + 1:]
    if kind == 1:
        return text[:at] + text[at] + text[at:]
    if kind == 2 and at + 1 < len(text):
        return text[:at] + text[at + 1] + text[at] + text[at + 2:]
    if kind == 3:
        return text[:at]
    extra = rng.choice("+-*/().,[]eE0._zx @$#é٣ ;!'")
    return text[:at] + extra + text[at:]


_EDGES = [
    "", " ", "\t\n", "z.Z1", "z . Z1", "z. Z1", "z .Z1", "theta . Z2 . a", "theta.Z2 . a",
    "theta . Z2.a", "z.exp(1)", "exp.x(1)", "sq .x(1)", "z(1)", "sq(z.exp(1))", "z.Z1(2)",
    "u.V[2.0]", "u.V[-1]", "u.V[1e0]", "u.V[1.5]", "u.V[a]", "u.V[", "u.V[2", "u.V[2)",
    "u.V 2]", "pow(x, -2)", "pow(x, - 2)", "pow(x, 2.0)", "pow(x, 0.5)", "pow(x, z.Z2)",
    "pow(x)", "pow(x, 2", "pow(x 2)", "pow(x, --2)", "pow(x, -)", "1.", ".5", "1e-3",
    "1e", "1.e5", "1.5.2", "z.1", "z.Z1.5", "z..Z1", "z.", "z.Z1.", "2z.Z1", "z.Z1 z.Z2",
    "1 + * 2", "1 + 2 )", "(1 + 2", "(1, 2)", "abs(z.Z1)", "relu(z.Z1)", "exp()",
    "exp(1,2)", "exp 1", "--1", "- - - z.Z1", "-(-(z.Z1))", "-z.Z1*z.Z2", "a@b", "$",
    "z.Z1 + é", "٣ + 1", "1 + 2", "z.Z1;", "1 +", "*", ")", "(", "[", "]", ",",
    ".", "s", "s[1]", "s.1", "theta.Z2.a.b", "z.Z1[0].a", "z.Z1[0][1]", "x-1", "x--1",
    "x+-+1", "1/2/3", "1-2-3", "2*(3+4)*5", "exp(log(tanh(sq(1))))", "1 2", "1e999",
]


def _depth_cases() -> list[str]:
    out = []
    for k in (MAX_DEPTH - 2, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, MAX_DEPTH + 5):
        out += [
            "(" * k + "z.Z1" + ")" * k,
            "(" * k + "z.Z1",
            "(" * k + ")" * k,
            "sq(" * k + "z.Z1" + ")" * k,
            "pow(" * k + "z.Z1" + ", 2)" * k,
            "-" * k + "z.Z1",
            "- " * k + "(z.Z1 + 1)",
            "-(" * k + "z.Z1" + ")" * k,
            "+".join(["z.Z1"] * k),
            "*".join(["z.Z1"] * k),
            " - ".join(["1"] * k),
            "/".join(["2"] * k),
            " + ".join(["z.Z1*z.Z2"] * k),
            "z.Z1" + "*z.Z1" * (k - 1) + " + " + "(" * 3 + "1" + ")" * 3,
            "(" * (k // 2) + "+".join(["1"] * (k // 2 + 1)) + ")" * (k // 2),
            "(" * k + "z.Z1" + ")" * (k - 1) + " +",
            "tanh(" * k + "@" + ")" * k,
            "sq(" * (k - 3) + "-(" * 2 + "z.Z1" + ")" * (k - 1),
        ]
    return out


def cases() -> list[str]:
    rng = random.Random(SEED)
    valid = [_expression(rng, rng.randrange(1, 7)) for _ in range(RANDOM_CASES)]
    mutated = [_mutate(rng, rng.choice(valid + _EDGES)) for _ in range(MUTATIONS)]
    return _EDGES + _depth_cases() + valid + mutated


# ---------------------------------------------------------------------------
# The test


def test_every_string_parses_as_recorded():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["max_depth"] == MAX_DEPTH
    wrong = [(source, want, outcome(source)) for source, want in golden["cases"]
             if outcome(source) != want]
    assert not wrong, f"{len(wrong)} of {len(golden['cases'])} differ; first: {wrong[0]}"


def test_every_node_spans_balanced_parentheses():
    """A node's span is the fragment a domain error quotes: where an
    operand is parenthesised, its parent's span takes in both parentheses."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for source, want in golden["cases"]:
        if want[0] == "tree":
            spans = parse_expr(source).spans
            for start, end in zip(spans[::2], spans[1::2]):
                depth = 0
                for char in source[start:end]:
                    depth += (char == "(") - (char == ")")
                    assert depth >= 0, (source, source[start:end])
                assert depth == 0, (source, source[start:end])


def _sym_leaves(node: list) -> list:
    """The symbol leaves of a recorded tree in text order, as recorded."""
    kind = node[0]
    if kind == "sym":
        return [node[1:]]
    if kind == "num":
        return []
    if kind == "bin":
        return _sym_leaves(node[4]) + _sym_leaves(node[5])
    return _sym_leaves(node[-1])


def test_the_parser_lists_every_symbol_in_text_order():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for source, want in golden["cases"]:
        if want[0] == "tree":
            syms = [[sym.text, list(sym.parts), sym.comp, sym.start, sym.end]
                    for sym in parse_expr(source).syms]
            assert syms == _sym_leaves(want[1]), source


def _numbers_before(node: list, count: int, out: list) -> int:
    """Walk a recorded tree in text order, counting numbers (a pow's
    exponent parameters after its base) and appending the count at each
    symbol."""
    kind = node[0]
    if kind == "num":
        return count + 1
    if kind == "sym":
        out.append(count)
        return count
    if kind == "bin":
        return _numbers_before(node[5], _numbers_before(node[4], count, out), out)
    if kind == "pow":
        return _numbers_before(node[4], count, out) + len(_pow_params(node[1]))
    return _numbers_before(node[-1], count, out)


def test_each_symbol_knows_its_place_among_the_numbers():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for source, want in golden["cases"]:
        if want[0] == "tree":
            expr = parse_expr(source)
            gaps: list = []
            assert _numbers_before(want[1], 0, gaps) == len(expr.numbers), source
            assert [sym.gap for sym in expr.syms] == gaps, source


def test_the_recorded_strings_are_the_generated_ones():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [source for source, _ in golden["cases"]] == cases()


def test_the_golden_covers_trees_and_errors():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    kinds = [want[0] for _, want in golden["cases"]]
    assert kinds.count("tree") > 1000 and kinds.count("error") > 1000
    messages = {want[1].split(" at position")[0] for _, want in golden["cases"]
                if want[0] == "error"}
    assert f"expression nested deeper than {MAX_DEPTH} levels" in messages
    assert len(messages) > 20


if __name__ == "__main__":
    records = [[source, outcome(source)] for source in cases()]
    GOLDEN.write_text(json.dumps({"max_depth": MAX_DEPTH, "cases": records},
                                 ensure_ascii=True, separators=(",", ":")) + "\n",
                      encoding="utf-8")
    sys.stdout.write(f"wrote {len(records)} cases to {GOLDEN}\n")
