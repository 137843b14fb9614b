"""Expression grammar for energy terms and vector-field components.

The grammar is deliberately small so that models stay diffable text:

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | atom
    atom   := NUMBER | symbol | call | "(" expr ")"
    call   := ("exp" | "log" | "tanh" | "sq") "(" expr ")"
            | "pow" "(" expr "," INTEGER ")"
    symbol := ("z" | "u") "." NAME ("[" INTEGER "]")?
            | "theta" "." NAME "." NAME
            | "s" ("[" INTEGER "]")?

Every whitelisted function is twice continuously differentiable on its
domain; ``log`` checks positivity at evaluation time.  The ``s`` symbol is
only legal in selection-cost expressions, where it names the candidate
value of a set-valued intervention.  An expression nests at most
``MAX_DEPTH`` levels deep.

This module parses text into an AST and resolves every symbol to a flat
index or a constant (:func:`compile_expr`); it evaluates nothing.
:mod:`escm.codegen` turns compiled expressions into Python functions.
"""

from __future__ import annotations

import re
from typing import Callable

from .errors import ExprSyntaxError, QueryError, UnknownSymbolError

__all__ = ["Expr", "parse_expr", "compile_expr", "compile_query", "CompiledExpr", "FUNCTIONS",
           "MAX_DEPTH"]

FUNCTIONS = ("exp", "log", "tanh", "sq", "pow")

# The deepest an expression may nest: in its tree, and in parentheses,
# calls and minus signs open at once in its text.  More than twice the
# deepest term of a 160-node corpus model (56 to 66 levels over seeds 0-9
# at density 0.3), and shallow enough that parsing, code generation and
# evaluation stay inside Python's default recursion limit.
MAX_DEPTH = 150

# leading whitespace, then one token: the first alternative that matches;
# ``bad`` takes any other character
_TOKEN_RE = re.compile(
    r"(\s*)(?:((?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"  # num
    r"|([A-Za-z_][A-Za-z0-9_]*)"  # name
    r"|([-+*/(),.\[\]])"  # punct
    r"|(\S))"  # bad
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(source: str) -> list[_Token]:
    """Every token of ``source``, in one regex scan; the matches tile the
    text up to trailing whitespace, so a running sum of their lengths gives
    each token's position."""
    tokens = []
    pos = 0
    for space, num, name, punct, bad in _TOKEN_RE.findall(source):
        pos += len(space)
        if bad:
            raise ExprSyntaxError("unexpected character", source, pos)
        if num:
            tokens.append(_Token("num", num, pos))
        elif name:
            tokens.append(_Token("name", name, pos))
        else:
            tokens.append(_Token("punct", punct, pos))
        pos += len(num or name or punct)
    return tokens


# ---------------------------------------------------------------------------
# AST


class Node:
    """An AST node: its span ``start:end`` in the source, and its
    ``height``, the levels of the tree it roots (1 for a leaf)."""

    __slots__ = ("start", "end")


class Num(Node):
    __slots__ = ("value",)
    height = 1

    def __init__(self, value: float, start: int, end: int):
        self.value = value
        self.start, self.end = start, end

    def children(self):
        return ()


class Sym(Node):
    """Dotted symbol; compilation sets ``ref`` to the flat index it reads,
    or ``const`` to the value it is bound to."""

    __slots__ = ("parts", "comp", "text", "ref", "const")
    height = 1

    def __init__(self, parts: tuple[str, ...], comp: int | None, text: str, start: int, end: int):
        self.parts = parts
        self.comp = comp
        self.text = text
        self.start, self.end = start, end
        self.ref = None
        self.const = None

    def children(self):
        return ()


class Neg(Node):
    __slots__ = ("child", "height")

    def __init__(self, child: Node, start: int, end: int):
        self.child = child
        self.height = child.height + 1
        self.start, self.end = start, end

    def children(self):
        return (self.child,)


class Bin(Node):
    __slots__ = ("op", "left", "right", "height")

    def __init__(self, op: str, left: Node, right: Node):
        self.op = op
        self.left = left
        self.right = right
        self.height = max(left.height, right.height) + 1
        self.start, self.end = left.start, right.end

    def children(self):
        return (self.left, self.right)


class Pow(Node):
    __slots__ = ("base", "exponent", "height")

    def __init__(self, base: Node, exponent: int, start: int, end: int):
        self.base = base
        self.height = base.height + 1
        self.exponent = exponent
        self.start, self.end = start, end

    def children(self):
        return (self.base,)


class Call(Node):
    __slots__ = ("fn", "child", "height")

    def __init__(self, fn: str, child: Node, start: int, end: int):
        self.fn = fn
        self.child = child
        self.height = child.height + 1
        self.start, self.end = start, end

    def children(self):
        return (self.child,)


class Expr:
    """Parsed expression: source text plus AST root."""

    __slots__ = ("source", "root")

    def __init__(self, source: str, root: Node):
        self.source = source
        self.root = root

    def symbols(self) -> list[Sym]:
        out = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Sym):
                out.append(node)
            stack.extend(node.children())
        return out

    def __repr__(self):
        return f"Expr({self.source!r})"


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, source: str):
        self.source = source
        # a sentinel closes the list; its text equals no token's text
        self.tokens = _tokenize(source) + [_Token("end", " ", len(source))]
        self.i = 0
        self.depth = 0  # calls of unary() open: each paren, call or minus nests one

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of expression", self.source, len(self.source))
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text!r}", self.source, tok.pos)
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", self.source, tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while (tok := self.tokens[self.i]).text in "+-":
            self.i += 1
            node = Bin(tok.text, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while (tok := self.tokens[self.i]).text in "*/":
            self.i += 1
            node = Bin(tok.text, node, self.unary())
        return node

    def unary(self) -> Node:
        tok = self.tokens[self.i]
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(self.source, tok.pos)
        if tok.text == "-":
            self.i += 1
            child = self.unary()
            node = Neg(child, tok.pos, child.end)
        else:
            node = self.atom()
        self.depth -= 1
        return node

    def atom(self) -> Node:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text), tok.pos, tok.pos + len(tok.text))
        if tok.kind == "name":
            if self.tokens[self.i].text == "(":
                return self.call(tok)
            return self.symbol(tok)
        if tok.text == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", self.source, tok.pos)

    def call(self, name_tok: _Token) -> Node:
        fn = name_tok.text
        if fn not in FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {fn!r}", self.source, name_tok.pos)
        self.expect("(")
        arg = self.expr()
        if fn == "pow":
            self.expect(",")
            exponent = self.integer_literal()
            close = self.expect(")")
            return Pow(arg, exponent, name_tok.pos, close.pos + 1)
        close = self.expect(")")
        return Call(fn, arg, name_tok.pos, close.pos + 1)

    def integer_literal(self) -> int:
        tok = self.next()
        negative = False
        if tok.text == "-":
            negative = True
            tok = self.next()
        if tok.kind != "num" or not float(tok.text).is_integer():
            raise ExprSyntaxError("pow exponent must be an integer literal", self.source, tok.pos)
        n = int(float(tok.text))
        return -n if negative else n

    def symbol(self, head: _Token) -> Sym:
        parts = [head.text]
        end = head.pos + len(head.text)
        while self.tokens[self.i].text == ".":
            self.i += 1
            part = self.next()
            if part.kind != "name":
                raise ExprSyntaxError("expected name after '.'", self.source, part.pos)
            parts.append(part.text)
            end = part.pos + len(part.text)
        comp = None
        if self.tokens[self.i].text == "[":
            self.i += 1
            idx = self.next()
            if idx.kind != "num" or not float(idx.text).is_integer():
                raise ExprSyntaxError("component index must be an integer", self.source, idx.pos)
            comp = int(float(idx.text))
            close = self.expect("]")
            end = close.pos + 1
        text = self.source[head.pos:end]
        return Sym(tuple(parts), comp, text, head.pos, end)


def _too_deep(source: str, pos: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", source, pos)


def parse_expr(source: str) -> Expr:
    """Parse expression text; raises :class:`ExprSyntaxError` with position,
    also for an expression nested deeper than :data:`MAX_DEPTH`."""
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError("empty expression", source if isinstance(source, str) else "", 0)
    root = _Parser(source).parse()
    if root.height > MAX_DEPTH:  # a chain of binary operators nests in the tree only
        raise _too_deep(source, root.start)
    return Expr(source, root)


# ---------------------------------------------------------------------------
# Compilation and evaluation


class CompiledExpr:
    """Expression with every symbol resolved to a coordinate or constant.

    ``refs`` lists the distinct flat indices the expression reads, sorted.
    ``code`` holds what :mod:`escm.codegen` built to evaluate it alone, as
    a readout, on first use.
    """

    __slots__ = ("expr", "refs", "code")

    def __init__(self, expr: Expr, refs: tuple[int, ...]):
        self.expr = expr
        self.refs = refs
        self.code = None

    @property
    def source(self) -> str:
        return self.expr.source


def compile_expr(expr: Expr, resolve: Callable[[Sym], int | float]) -> CompiledExpr:
    """Resolve all symbols via ``resolve`` and return a compiled expression.

    ``resolve`` maps a :class:`Sym` to the ``int`` flat index it reads, or
    to a ``float`` constant it is bound to; it raises for undeclared or
    masked-out symbols.
    """
    refs = set()
    for sym in expr.symbols():
        ref = resolve(sym)
        if isinstance(ref, int):
            sym.ref, sym.const = ref, None
            refs.add(ref)
        else:
            sym.ref, sym.const = None, float(ref)
    return CompiledExpr(expr, tuple(sorted(refs)))


def compile_query(source: str, resolve: Callable[[Sym], int | float]) -> CompiledExpr:
    """Parse and compile expression text that a query supplies (a readout,
    a soft-edit replacement, a selection cost).  Text that fails to parse
    or names an unknown symbol is the query's fault: :class:`QueryError`,
    where the same text in a model file is a model error."""
    try:
        return compile_expr(parse_expr(source), resolve)
    except (ExprSyntaxError, UnknownSymbolError) as err:
        raise QueryError(str(err)) from err
