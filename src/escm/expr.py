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

Text is read in one pass.  One regex scan cuts it into tokens, each the
tuple ``findall`` returns (no token objects); a dotted name such as
``theta.Z2.a`` is one token, and a spaced spelling such as ``z . Z1`` is
read part by part.  One precedence loop (:meth:`_Parser.expr`) reads
``expr``, ``term`` and ``unary`` together, so only parentheses and calls
recurse.  It builds no tree: it builds the expression's *form* (see
``FORM_CALLS``), the tree in prefix notation that :mod:`escm.codegen`
generates code from, and lists the symbols and the numbers as it meets
them and the span of each node as it completes it, so an :class:`Expr` is
one flat record.  :func:`compile_expr` resolves each listed symbol to a
flat index or a constant; nothing here evaluates.
"""

from __future__ import annotations

import math
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

# leading whitespace, then one token: the first alternative that matches.
# ``findall`` gives (space, text, name) per token, ``name`` empty unless the
# token is a name; a token that is neither a name nor punctuation is a
# number.  Punctuation comes first, as the most common token that one
# character decides, but "." last, after the numbers that start with one.
_TOKEN_RE = re.compile(
    r"(\s*)([-+*/(),\[\]]"  # punctuation but "."
    r"|([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)"  # name, dotted
    r"|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"  # number
    r"|\.)"
)
# a character that starts no token: where the matches stop tiling the
# text, the first one is where reading stops
_BAD_RE = re.compile(r"[^\s\dA-Za-z_\-+*/(),.\[\]]")
_PUNCT = frozenset("-+*/(),.[]")
_END = ("", "", "")  # closes the token list: the one token with empty text


# ---------------------------------------------------------------------------
# Parsed expressions


class Sym:
    """A symbol as its text spells it: its dotted ``parts``, component
    index and text, its span ``start:end`` in the source, and ``gap``, how
    many of the expression's numbers come before it, which is where its
    value goes among them when it is bound to a constant."""

    __slots__ = ("parts", "comp", "text", "start", "end", "gap")

    def __init__(self, parts: tuple[str, ...], comp: int | None, text: str, start: int, end: int,
                 gap: int):
        self.parts = parts
        self.comp = comp
        self.text = text
        self.start, self.end = start, end
        self.gap = gap


# The form of an expression: its tree in prefix notation, one character per
# node, with spans, numbers and symbols left out.  "c" is a number, "s" a
# symbol, "n" a minus sign, "+-*/" a binary operator, "e", "l", "t" and "q"
# exp, log, tanh and sq, and "p" a pow, followed by its exponent's class:
# "n" for a negative exponent, else the exponent up to 3.  Generated code
# depends on the form and not on what it leaves out (see escm.codegen).
FORM_CALLS = {"exp": "e", "log": "l", "tanh": "t", "sq": "q"}


class Expr:
    """Parsed expression: its source text, its ``form``, and what compiling
    it and reporting a fault in it read, listed while parsing.  ``syms``
    holds its symbols in text order, one per occurrence.  ``numbers`` holds
    its constants in the order generated code takes them: every number in
    text order, and after each ``pow``'s base the exponent's parameters
    (:func:`_pow_params`).  ``spans`` holds the start and end of each node
    of the form, flat and in post-order, the order generated code numbers
    the nodes in: node ``j`` is ``source[spans[2*j]:spans[2*j + 1]]``.  A
    binary node's span runs from its left operand's start to its right
    operand's end, a minus sign's from the sign to its operand's end, and a
    call's or a ``pow``'s from its name to its closing parenthesis; where
    an operand is parenthesised, its start and end are its parentheses', so
    every span is balanced."""

    __slots__ = ("source", "form", "syms", "numbers", "spans")

    def __init__(self, source: str, form: str, syms: tuple[Sym, ...], numbers: tuple,
                 spans: tuple[int, ...]):
        self.source = source
        self.form = form
        self.syms = syms
        self.numbers = numbers
        self.spans = spans

    def __repr__(self):
        return f"Expr({self.source!r})"


# ---------------------------------------------------------------------------
# Parser


def _shown(token: tuple) -> str:
    """A token as an error message quotes it: a dotted name by its first
    part, which is where a name stops when it is not read as a symbol."""
    return token[2].partition(".")[0] if token[2] else token[1]


def _number(token: tuple) -> str:
    """The text of a number token, or "" for any other token."""
    text = token[1]
    return "" if token[2] or text in _PUNCT else text


class _Parser:
    """The tokens of one source, the index ``i`` of the next one, and the
    symbols, numbers and spans read so far (see :class:`Expr`)."""

    __slots__ = ("source", "tokens", "starts", "i", "syms", "numbers", "spans")

    def __init__(self, source: str):
        """Every token of ``source``, in one regex scan; the matches tile
        the text up to trailing whitespace unless a character starts no
        token, so a running sum of their lengths gives each token's
        position in ``starts``."""
        self.source = source
        self.tokens = tokens = _TOKEN_RE.findall(source)
        self.starts = starts = []
        pos = 0
        for space, text, _ in tokens:
            pos += len(space)
            starts.append(pos)
            pos += len(text)
        if pos < len(source) and not source[pos:].isspace():
            bad = _BAD_RE.search(source)
            raise ExprSyntaxError("unexpected character", source, bad.start())
        tokens.append(_END)
        starts.append(len(source))
        self.i = 0
        self.syms: list[Sym] = []
        self.numbers: list = []
        self.spans: list[int] = []

    def take(self) -> tuple[tuple, int]:
        """The next token and its position; past the end is an error."""
        i = self.i
        token = self.tokens[i]
        if not token[1]:
            raise ExprSyntaxError("unexpected end of expression", self.source, len(self.source))
        self.i = i + 1
        return token, self.starts[i]

    def expect(self, text: str) -> int:
        token, pos = self.take()
        if token[1] != text:
            raise ExprSyntaxError(f"expected {text!r}, found {_shown(token)!r}", self.source, pos)
        return pos

    def parse(self) -> tuple[str, int]:
        form, height = self.expr(0)
        token = self.tokens[self.i]
        if token[1]:
            raise ExprSyntaxError(f"unexpected token {_shown(token)!r}", self.source,
                                  self.starts[self.i])
        return form, height

    def expr(self, depth: int) -> tuple[str, int]:
        """One ``expr``: its form and its height, the levels of its tree,
        with its ``term``s and their ``unary`` operands read in one
        precedence loop: ``product`` folds each operand into the current
        term and ``total`` each finished term into the sum, both to the
        left, so only parentheses and calls read a further ``expr``.  Each
        node's span is listed as the node is completed, which is post-order.
        ``depth`` counts the parentheses, calls and minus signs open around
        this one: each operand, and each of its minus signs, nests one level
        more."""
        tokens, starts = self.tokens, self.starts
        syms, numbers, spans = self.syms, self.numbers, self.spans
        i = self.i
        level = depth + 1  # every operand's, so the first one over the limit raises
        if level > MAX_DEPTH:
            raise _too_deep(self.source, starts[i])
        add = mul = None
        while True:
            _, text, name = tokens[i]
            nested = level  # one more for each minus sign
            minus = None
            if text == "-":
                minus = []
                while text == "-":
                    minus.append(starts[i])
                    i += 1
                    nested += 1
                    if nested > MAX_DEPTH:
                        raise _too_deep(self.source, starts[i])
                    _, text, name = tokens[i]
            start = starts[i]
            i += 1
            if name:
                follow = tokens[i][1]
                if follow == "(" and "." not in name:
                    self.i = i
                    form, height = self.call(name, start, nested)
                    i = self.i
                elif follow == "." or follow == "[":
                    self.i = i
                    self.symbol(name, start)
                    form, height = "s", 1
                    i = self.i
                else:
                    end = start + len(name)
                    syms.append(Sym(tuple(name.split(".")), None, name, start, end, len(numbers)))
                    spans += (start, end)
                    form, height = "s", 1
            elif text == "(":
                self.i = i
                form, height = self.expr(nested)
                i = self.i
                if tokens[i][1] != ")":
                    self.expect(")")  # raises
                i += 1
            elif not text:
                raise ExprSyntaxError("unexpected end of expression", self.source,
                                      len(self.source))
            elif text in _PUNCT:
                raise ExprSyntaxError(f"unexpected token {text!r}", self.source, start)
            else:
                number = float(text)
                if number == math.inf:
                    raise ExprSyntaxError(f"number {text!r} is out of range", self.source, start)
                numbers.append(number)
                spans += (start, start + len(text))
                form, height = "c", 1
            # the operand's text ends at its node's end or its ")", and so
            # does every node's it completes
            end = starts[i - 1] + 1 if text == "(" else spans[-1]
            if minus:
                for pos in reversed(minus):
                    spans += (pos, end)
                form = "n" * len(minus) + form
                height += len(minus)
            if mul is None:
                product_start = minus[0] if minus else start
                product_form, product_height = form, height
            else:
                spans += (product_start, end)
                product_form = mul + product_form + form
                product_height = max(product_height, height) + 1
            op = tokens[i][1]
            if op == "*" or op == "/":
                mul = op
                i += 1
                continue
            if add is None:
                total_start, total_form, total_height = product_start, product_form, product_height
            else:
                spans += (total_start, end)
                total_form = add + total_form + product_form
                total_height = max(total_height, product_height) + 1
            if op == "+" or op == "-":
                add, mul = op, None
                i += 1
                continue
            self.i = i
            return total_form, total_height

    def call(self, fn: str, start: int, depth: int) -> tuple[str, int]:
        if fn not in FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {fn!r}", self.source, start)
        self.i += 1  # the "(" that made this a call
        form, height = self.expr(depth)
        if fn == "pow":
            self.expect(",")
            n = self.integer_literal()
            self.numbers += _pow_params(n)
            # exponents of 3 and more share a form, and so do negative ones
            form = ("pn" if n < 0 else f"p{min(n, 3)}") + form
            end = self.expect(")") + 1
        else:
            i = self.i
            if self.tokens[i][1] != ")":
                self.expect(")")  # raises
            self.i = i + 1
            form = FORM_CALLS[fn] + form
            end = self.starts[i] + 1
        self.spans += (start, end)
        return form, height + 1

    def integer_literal(self) -> int:
        token, pos = self.take()
        negative = False
        if token[1] == "-":
            negative = True
            token, pos = self.take()
        number = _number(token)
        if not number or not float(number).is_integer():
            raise ExprSyntaxError("pow exponent must be an integer literal", self.source, pos)
        n = int(float(number))
        return -n if negative else n

    def symbol(self, head: str, start: int) -> None:
        """A symbol that goes on past its first token: spaced dots, or a
        component index."""
        parts = head.split(".")
        end = start + len(head)
        while self.tokens[self.i][1] == ".":
            self.i += 1
            part, pos = self.take()
            if not part[2]:
                raise ExprSyntaxError("expected name after '.'", self.source, pos)
            parts += part[2].split(".")
            end = pos + len(part[2])
        comp = None
        if self.tokens[self.i][1] == "[":
            self.i += 1
            index, pos = self.take()
            number = _number(index)
            if not number or not float(number).is_integer():
                raise ExprSyntaxError("component index must be an integer", self.source, pos)
            comp = int(float(number))
            end = self.expect("]") + 1
        self.syms.append(Sym(tuple(parts), comp, self.source[start:end], start, end,
                             len(self.numbers)))
        self.spans += (start, end)


def _pow_params(n: int) -> list:
    """``n`` followed by (coefficient, exponent) of every derivative order
    k <= 3 whose falling factorial n(n-1)...(n-k+1) is nonzero."""
    out: list = [n]
    c = 1.0
    for k in range(4):
        if k:
            c *= (n - k + 1)
        if c != 0.0:
            out += [c, n - k]
    return out


def _too_deep(source: str, pos: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", source, pos)


def parse_expr(source: str) -> Expr:
    """Parse expression text; raises :class:`ExprSyntaxError` with position,
    also for an expression nested deeper than :data:`MAX_DEPTH`."""
    if not isinstance(source, str) or not source or source.isspace():
        raise ExprSyntaxError("empty expression", source if isinstance(source, str) else "", 0)
    parser = _Parser(source)
    form, height = parser.parse()
    spans = parser.spans
    if height > MAX_DEPTH:  # a chain of binary operators nests in the tree only
        raise _too_deep(source, spans[-2])
    return Expr(source, form, tuple(parser.syms), tuple(parser.numbers), tuple(spans))


# ---------------------------------------------------------------------------
# Compilation


class CompiledExpr:
    """Expression with every symbol resolved to a coordinate or constant.

    ``reads`` holds, for each symbol in text order, the flat index it
    reads, or -1 where it is bound to a constant; ``refs`` lists the
    distinct flat indices, sorted.  ``consts`` holds the expression's
    numbers with each bound symbol's value in its place.  With the
    expression's ``form`` this is all :mod:`escm.codegen` needs; ``code``
    holds what it built to evaluate the expression alone, as a readout, on
    first use.
    """

    __slots__ = ("expr", "reads", "refs", "consts", "code")

    def __init__(self, expr: Expr, reads: tuple[int, ...], refs: tuple[int, ...], consts: tuple):
        self.expr = expr
        self.reads = reads
        self.refs = refs
        self.consts = consts
        self.code = None

    @property
    def source(self) -> str:
        return self.expr.source


def compile_expr(expr: Expr, resolve: Callable[[Sym], int | float]) -> CompiledExpr:
    """Resolve all symbols via ``resolve`` and return a compiled expression.

    ``resolve`` maps a :class:`Sym` to the ``int`` flat index it reads, or
    to a ``float`` constant it is bound to; it raises for undeclared or
    masked-out symbols.  Symbols are resolved last to first in the text,
    so the first error raised, and the order of warnings a resolver
    collects, follow the text backwards.  A symbol bound to a constant takes
    its place among the numbers at the symbol's ``gap``.
    """
    values = list(map(resolve, reversed(expr.syms)))
    values.reverse()
    if set(map(type, values)) <= _INT:
        return CompiledExpr(expr, tuple(values), tuple(sorted(set(values))), expr.numbers)
    values = [value if isinstance(value, int) else float(value) for value in values]
    consts = list(expr.numbers)
    for sym, value in reversed(list(zip(expr.syms, values))):  # right to left keeps each gap
        if type(value) is float:
            consts.insert(sym.gap, value)
    reads = tuple(-1 if type(value) is float else value for value in values)
    return CompiledExpr(expr, reads, tuple(sorted({ref for ref in reads if ref >= 0})),
                        tuple(consts))


_INT = frozenset((int,))


def compile_query(source: str, resolve: Callable[[Sym], int | float]) -> CompiledExpr:
    """Parse and compile expression text that a query supplies (a readout,
    a soft-edit replacement, a selection cost).  Text that fails to parse
    or names an unknown symbol is the query's fault: :class:`QueryError`,
    where the same text in a model file is a model error."""
    try:
        return compile_expr(parse_expr(source), resolve)
    except (ExprSyntaxError, UnknownSymbolError) as err:
        raise QueryError(str(err)) from err
