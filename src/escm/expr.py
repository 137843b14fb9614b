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
value of a set-valued intervention.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from .errors import EnergyDomainError, ExprSyntaxError, QueryError, UnknownSymbolError
from .jets import jexp, jlog, jpow, jsq, jtanh

__all__ = ["Expr", "parse_expr", "compile_expr", "compile_query", "CompiledExpr", "Env",
           "FUNCTIONS"]

FUNCTIONS = ("exp", "log", "tanh", "sq", "pow")

_TOKEN_RE = re.compile(
    r"(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[-+*/(),.\[\]]))"
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError("unexpected character", source, pos)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(kind), pos))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# AST


class Node:
    __slots__ = ("start", "end")


class Num(Node):
    __slots__ = ("value",)

    def __init__(self, value: float, start: int, end: int):
        self.value = value
        self.start, self.end = start, end

    def eval(self, env):
        return self.value

    def children(self):
        return ()


class Sym(Node):
    """Dotted symbol; compilation sets ``ref`` to the flat index it reads,
    or ``const`` to the value it is bound to."""

    __slots__ = ("parts", "comp", "text", "ref", "const")

    def __init__(self, parts: tuple[str, ...], comp: int | None, text: str, start: int, end: int):
        self.parts = parts
        self.comp = comp
        self.text = text
        self.start, self.end = start, end
        self.ref = None
        self.const = None

    def eval(self, env):
        return self.const if self.ref is None else env.leaves[self.ref]

    def children(self):
        return ()


class Neg(Node):
    __slots__ = ("child",)

    def __init__(self, child: Node, start: int, end: int):
        self.child = child
        self.start, self.end = start, end

    def eval(self, env):
        return -self.child.eval(env)

    def children(self):
        return (self.child,)


class Bin(Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Node, right: Node):
        self.op = op
        self.left = left
        self.right = right
        self.start, self.end = left.start, right.end

    def eval(self, env):
        a = self.left.eval(env)
        b = self.right.eval(env)
        op = self.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if isinstance(b, np.ndarray) or (isinstance(a, np.ndarray) and b == 0.0):
            # a batch divides without raising; check its divisor here
            if np.any(b == 0.0):
                raise EnergyDomainError("division by zero", fragment=env.fragment(self))
        try:
            return a / b
        except ZeroDivisionError:
            raise EnergyDomainError("division by zero", fragment=env.fragment(self)) from None
        except EnergyDomainError as err:
            if err.fragment is not None:
                raise
            raise EnergyDomainError(err.base_message, fragment=env.fragment(self)) from None

    def children(self):
        return (self.left, self.right)


class Pow(Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Node, exponent: int, start: int, end: int):
        self.base = base
        self.exponent = exponent
        self.start, self.end = start, end

    def eval(self, env):
        try:
            return jpow(self.base.eval(env), self.exponent)
        except EnergyDomainError as err:
            if err.fragment is not None:
                raise
            raise EnergyDomainError(err.base_message, fragment=env.fragment(self)) from None

    def children(self):
        return (self.base,)


_CALL_IMPL: dict[str, Callable] = {"exp": jexp, "log": jlog, "tanh": jtanh, "sq": jsq}


class Call(Node):
    __slots__ = ("fn", "child")

    def __init__(self, fn: str, child: Node, start: int, end: int):
        self.fn = fn
        self.child = child
        self.start, self.end = start, end

    def eval(self, env):
        try:
            return _CALL_IMPL[self.fn](self.child.eval(env))
        except EnergyDomainError as err:
            if err.fragment is not None:
                raise
            raise EnergyDomainError(err.base_message, fragment=env.fragment(self)) from None

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
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
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
        if tok is not None:
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", self.source, tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while (tok := self.peek()) is not None and tok.text in "+-":
            self.next()
            node = Bin(tok.text, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while (tok := self.peek()) is not None and tok.text in "*/":
            self.next()
            node = Bin(tok.text, node, self.unary())
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok is not None and tok.text == "-":
            self.next()
            child = self.unary()
            return Neg(child, tok.pos, child.end)
        return self.atom()

    def atom(self) -> Node:
        tok = self.next()
        if tok.kind == "num":
            return Num(float(tok.text), tok.pos, tok.pos + len(tok.text))
        if tok.kind == "name":
            nxt = self.peek()
            if nxt is not None and nxt.text == "(":
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
        while (tok := self.peek()) is not None and tok.text == ".":
            self.next()
            part = self.next()
            if part.kind != "name":
                raise ExprSyntaxError("expected name after '.'", self.source, part.pos)
            parts.append(part.text)
            end = part.pos + len(part.text)
        comp = None
        if (tok := self.peek()) is not None and tok.text == "[":
            self.next()
            idx = self.next()
            if idx.kind != "num" or not float(idx.text).is_integer():
                raise ExprSyntaxError("component index must be an integer", self.source, idx.pos)
            comp = int(float(idx.text))
            close = self.expect("]")
            end = close.pos + 1
        text = self.source[head.pos:end]
        return Sym(tuple(parts), comp, text, head.pos, end)


def parse_expr(source: str) -> Expr:
    """Parse expression text; raises :class:`ExprSyntaxError` with position."""
    if not isinstance(source, str) or not source.strip():
        raise ExprSyntaxError("empty expression", source if isinstance(source, str) else "", 0)
    return Expr(source, _Parser(source).parse())


# ---------------------------------------------------------------------------
# Compilation and evaluation


class CompiledExpr:
    """Expression with every symbol resolved to a coordinate or constant.

    ``refs`` lists the distinct flat indices the expression reads, sorted.
    """

    __slots__ = ("expr", "refs")

    def __init__(self, expr: Expr, refs: tuple[int, ...]):
        self.expr = expr
        self.refs = refs

    @property
    def source(self) -> str:
        return self.expr.source

    def evaluate(self, env: "Env"):
        env.source = self.expr.source
        return self.expr.root.eval(env)


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


class Env:
    """Evaluation environment: ``leaves[i]`` is the float or jet bound to
    flat index ``i``, or the ``(B,)`` array or batched jet of a batch of
    points."""

    __slots__ = ("leaves", "source")

    def __init__(self, leaves):
        self.leaves = leaves
        self.source = ""

    def fragment(self, node: Node) -> str:
        return self.source[node.start:node.end]
