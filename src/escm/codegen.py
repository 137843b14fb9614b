"""Straight-line derivative code, generated once per term shape.

Every energy term, readout and vector-field component is evaluated by a
Python function generated from its compiled expressions (source
transformation; Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
SIAM 2008, ch. 6).  The function is generated for one *shape*: the form
of each piece (its tree in prefix notation, as the parser lists it;
constants are taken in order from the term's constant tuple),
the leaf each symbol reads (numbered in the order the term first reads
its coordinates, or none for a symbol bound to a constant), the slot each
coordinate takes among the active ones (or none), and the derivative
order 0 to 3.  Terms of one shape share one code object, compiled on
first use and kept for the life of the process.

The generated code applies the forward-mode rules of a truncated Taylor
value one operation at a time, in a post-order walk of the form, and keeps
each subexpression's static sparsity: a slot that a subexpression does not
read gets no line, and a Hessian or third-order block that is structurally
zero is never formed.  Every operation (a value, a gradient entry, a
chain-rule coefficient) is one assignment, in the order of the walk.
Expressions nest one way only: :func:`_inline` substitutes an intermediate
that is read once and cannot raise where it is read.  An operation that
may raise stays its own assignment and keeps its place, so the first
failure is the walk's.  A Hessian or third block is unrolled into one line
per entry only while it has at most ``MAX_UNROLLED`` entries; a larger
block is one numpy expression over the term's full slot layout
(:func:`_outer`, :func:`_outer_sym` and :func:`_sym3`), the dense formula
itself.  Dropping a structurally zero operand leaves every entry bitwise
what the dense sum gives, except that a zero entry may differ in sign.

A generated function returns ``value, grad, hess, third``.  Each block is
flat: an unrolled one is the tuple of its entries over all ``k`` slots,
row-major, and one past ``MAX_UNROLLED`` is the ndarray its numpy formula
builds; ``np.asarray(block).reshape`` and ``np.concatenate(..., axis=None)``
read either the same way.  A block that is structurally zero, or above the
order, is None.  From the assignments it generates, the generator also
reads which leaves the Hessian an order-2 function returns reads.  A
Hessian that reads no leaf in an active slot is bitwise the same at every
point that agrees on the leaves it reads, and ``_HESSIAN_READS`` maps its
functions to those leaves.

The same code object runs one point in Python floats and a batch of points
on ``(B,)`` arrays: when it is compiled, it is bound to each of two helper
tables, as two functions cached together.  In a batch, ``exp``, ``log``,
``tanh`` and integer powers evaluate entry by entry in Python floats, so
every batch entry is bitwise its point alone, and a domain check reports
the first failing entry.

Generated source holds no text from a model: only generated names (``a``
leaves, ``k`` constants, ``v`` intermediates), integer slots, a few fixed
float literals and the helpers below.  A domain failure raises
:class:`DomainFault` with the post-order index of the failing node among
the nodes of all the term's pieces, which :func:`term_value` and
:class:`_ActiveTerms` turn into the :class:`~escm.errors.EnergyDomainError`
naming the term's owner and the failing subexpression: the span the parser
listed at that index.  A float operation out of range (``exp`` of 1000,
``pow`` of 1e200) raises ``OverflowError`` or, where a power a derivative
divides by underflows, ``ZeroDivisionError``; both become an
:class:`~escm.errors.EnergyDomainError` for "numeric overflow" naming the
owner.
"""

from __future__ import annotations

import math
import operator
import re
import types
from collections import Counter
from operator import itemgetter

import numpy as np

from .errors import EnergyDomainError
from .expr import FORM_CALLS

__all__ = ["MAX_UNROLLED", "DomainFault", "term_value", "expr_value", "source"]

# A Hessian or third block with more entries than this is one numpy
# expression instead of one line per entry.
MAX_UNROLLED = 16


class DomainFault(Exception):
    """Raised by generated code: node ``node`` (post-order) left its domain."""

    def __init__(self, node: int, message: str):
        super().__init__(node, message)
        self.node = node
        self.message = message


# ---------------------------------------------------------------------------
# Helpers the generated code calls: one table for Python floats, one for
# (B,) batches.


def _each(fn, v):
    """``fn`` of a float, or of every entry of a batch through Python
    floats, so a batch entry is bitwise the scalar result."""
    if isinstance(v, np.ndarray):
        return np.array([fn(a) for a in v.tolist()])
    return fn(v)


def _first(v, hit):
    """The first entry of ``v`` for which ``hit`` holds, or None; a float
    ``v`` is its own only entry."""
    if isinstance(v, np.ndarray):
        idx = np.flatnonzero(hit(v))
        return v.item(idx[0]) if idx.size else None
    return v if hit(v) else None


def _fault(node: int, message: str):
    raise DomainFault(node, message)


def _divzero(node: int):
    _fault(node, "division by zero")


def _s_log(v, node):
    if v <= 0.0:
        _fault(node, f"log of non-positive value {v!r}")
    return math.log(v)


def _s_nonzero(v, node):
    if v == 0.0:
        _fault(node, "division by zero")


def _s_nonzero_base(v, node):
    if v == 0.0:
        _fault(node, "zero raised to a negative power")


def _s_pow_negative(v, n, node):
    if v == 0.0:
        _fault(node, "zero raised to a negative power")
    return v ** n


def _s_div(a, b, node):
    if b == 0.0:
        _fault(node, "division by zero")
    return a / b


def _b_log(v, node):
    bad = _first(v, lambda a: a <= 0.0)
    if bad is not None:
        _fault(node, f"log of non-positive value {bad!r}")
    return _each(math.log, v)


def _b_nonzero(v, node):
    if _first(v, lambda a: a == 0.0) is not None:
        _fault(node, "division by zero")


def _b_nonzero_base(v, node):
    if _first(v, lambda a: a == 0.0) is not None:
        _fault(node, "zero raised to a negative power")


def _b_pow_negative(v, n, node):
    _b_nonzero_base(v, node)
    return _each(lambda a: a ** n, v)


def _b_div(a, b, node):
    _b_nonzero(b, node)
    return a / b


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.outer over the leading axis, broadcast over a trailing batch axis
    return a[:, None] * b[None, :]


def _outer_sym(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a_i b_j + b_i a_j: bitwise symmetric because float addition commutes.
    return _outer(a, b) + _outer(b, a)


def _sym3(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    # T_abc = h_ab g_c + h_ac g_b + h_bc g_a for symmetric h.
    return (
        h[:, :, None] * g[None, None, :]
        + h[:, None, :] * g[None, :, None]
        + h[None, :, :] * g[:, None, None]
    )


def _dense2(k, bs, rows, cols, vals):
    out = np.zeros((k, k) + bs)
    out[rows, cols] = vals
    return out


def _dense3(k, bs, i, j, m, vals):
    out = np.zeros((k, k, k) + bs)
    out[i, j, m] = vals
    return out


_COMMON = {"__builtins__": {}, "_ar": np.array, "_d2": _dense2, "_d3": _dense3,
           "_outer": _outer, "_outer_sym": _outer_sym, "_sym3": _sym3,
           "_divzero": _divzero, "ZeroDivisionError": ZeroDivisionError}
_SCALAR = dict(_COMMON, _exp=math.exp, _tanh=math.tanh, _pw=operator.pow, _log=_s_log,
               _nz=_s_nonzero, _nzb=_s_nonzero_base, _pwz=_s_pow_negative, _dv=_s_div)
_BATCH = dict(_COMMON, _exp=lambda v: _each(math.exp, v), _tanh=lambda v: _each(math.tanh, v),
              _pw=lambda v, n: _each(lambda a: a ** n, v), _log=_b_log,
              _nz=_b_nonzero, _nzb=_b_nonzero_base, _pwz=_b_pow_negative, _dv=_b_div)


# ---------------------------------------------------------------------------
# Shapes


class _TermCode:
    """What evaluating one term needs: its shape, constants and leaf
    gatherers, the pair of functions of order 0 (``value``), and the pair
    of functions for each (active, order) seen.

    The term's shape is its leaf count and, for each piece, whether its
    weight is one, its form (see :data:`escm.expr.FORM_CALLS`), and for
    each of its symbols in text order the term's leaf number of the
    coordinate it reads (-1 for a symbol bound to a constant).  Leaves are
    numbered in the order the term's text first reads them, so a
    coordinate two pieces read is one leaf."""

    __slots__ = ("owner", "pieces", "refs", "index", "gather", "shape", "consts", "value",
                 "functions")

    def __init__(self, owner, pieces):
        self.owner = owner
        self.pieces = pieces
        local: dict[int, int] = {}  # flat index -> leaf number, in order of first use
        consts: list = []
        shape = []
        for coeff, compiled in pieces:
            one = coeff == 1.0  # 1.0 * x is x bitwise: the weight is skipped
            if not one:
                consts.append(coeff)
            consts += compiled.consts
            leaves = tuple(-1 if ref < 0 else local.setdefault(ref, len(local))
                           for ref in compiled.reads)
            shape.append((one, compiled.expr.form, leaves))
        self.shape = _number((len(local), tuple(shape)))
        one_piece = len(pieces) == 1 and pieces[0][0] == 1.0
        self.consts = pieces[0][1].consts if one_piece else tuple(consts)
        self.refs = refs = tuple(local)
        self.index = np.array(refs, dtype=np.intp)
        if len(refs) == 1:
            ref = refs[0]
            self.gather = lambda values: (values[ref],)
        else:
            self.gather = itemgetter(*refs) if refs else (lambda values: ())
        self.value = _functions(self.shape, (), 0, 0)
        self.functions: dict = {}

    def function(self, active, order: int, batch: bool):
        key = (tuple(active), order)
        pair = self.functions.get(key)
        if pair is None:
            pair = self.functions[key] = _functions(self.shape, *self.slots(key[0], order), order)
        return pair[batch]

    def slots(self, active: tuple, order: int) -> tuple[tuple[int, ...], int]:
        """The slot of each ref among ``active`` (-1 for none), and the
        slot count; at order 0 nothing is active."""
        if not order:
            return (), 0
        slot = {ref: j for j, ref in enumerate(active)}
        return tuple(slot.get(ref, -1) for ref in self.refs), len(active)

    def overflow(self) -> EnergyDomainError:
        """What an ``OverflowError`` or ``ZeroDivisionError`` of the
        generated code means: a float result out of range, or a power that
        a derivative divides by underflowed to zero.  Division by a zero
        value is a :class:`DomainFault` instead."""
        return EnergyDomainError("numeric overflow", owner=self.owner)

    def error(self, fault: DomainFault) -> EnergyDomainError:
        """The fault of node ``fault.node``, numbered in post-order over the
        nodes of all pieces, quoting its span."""
        node = fault.node
        for _, compiled in self.pieces:
            spans = compiled.expr.spans
            if 2 * node < len(spans):
                break
            node -= len(spans) // 2
        start, end = spans[2 * node:2 * node + 2]
        return EnergyDomainError(fault.message, owner=self.owner,
                                 fragment=compiled.source[start:end])

    def failure(self, error: Exception) -> EnergyDomainError:
        """The :class:`~escm.errors.EnergyDomainError` of one of ``_FAULTS``
        raised by the term's generated code."""
        return self.error(error) if isinstance(error, DomainFault) else self.overflow()


# what generated code raises: a domain fault, or a Python float operation out
# of range
_FAULTS = (DomainFault, OverflowError, ZeroDivisionError)


def _code(term) -> _TermCode:
    code = term.code
    if code is None:
        code = term.code = _TermCode(term.owner, term.pieces)
    return code


# ---------------------------------------------------------------------------
# Evaluation


def term_value(term, values):
    """The value of ``term`` (an ``ObjectiveTerm``) where flat index ``i``
    holds ``values[i]``: a list of floats for one point, or a (dim, B)
    array for a batch, which gives a (B,) array or, for a term that reads
    no coordinate, a float."""
    return _value(_code(term), values)


def expr_value(compiled, values):
    """The value of a ``CompiledExpr`` alone, such as a readout, as
    :func:`term_value` gives it; a domain error names no owner."""
    code = compiled.code
    if code is None:
        code = compiled.code = _TermCode(None, ((1.0, compiled),))
    return _value(code, values)


def _value(code: _TermCode, values):
    return _values((code,), values, not isinstance(values, list))[0]


def _term_values(terms, x: np.ndarray) -> list:
    """The value of every term of ``terms`` at the flat point ``x``, (dim,)
    or (dim, B), in term order, as :func:`term_value` gives it."""
    values, batch = (x, True) if x.ndim > 1 else (x.tolist(), False)
    return _values(map(_code, terms), values, batch)


def _values(codes, values, batch: bool) -> list:
    """The value of every code of ``codes``, in order, where flat index
    ``i`` holds ``values[i]``: a list of floats, or with ``batch`` a (dim, B)
    array; the first fault raises its term's
    :class:`~escm.errors.EnergyDomainError`."""
    out = []
    code = None
    try:
        for code in codes:
            out.append(code.value[batch](code.gather(values), code.consts))
    except _FAULTS as error:
        raise code.failure(error) from None
    return out


def _run(runs, values, tail) -> list:
    """``function(gather(values), consts, *tail)`` of every (code,
    function) of ``runs``, in order; the first fault raises its term's
    :class:`~escm.errors.EnergyDomainError`."""
    out = []
    code = None
    try:
        for code, fn in runs:
            out.append(fn(code.gather(values), code.consts, *tail))
    except _FAULTS as error:
        raise code.failure(error) from None
    return out


class _ActiveTerms:
    """The terms of ``terms`` that read a flat index in ``slot``, which
    maps each active flat index to its position, ready to run at many
    points: ``owners`` holds their owners, ``positions`` the positions of
    each term's active indices, in the order of its sorted refs, and
    ``where`` their places in ``terms``; ``rest`` holds the places of the
    other terms.  The functions of each (order, batch) are looked up on
    first use."""

    def __init__(self, terms, slot: dict[int, int]):
        self.owners: list = []
        self.positions: list[list[int]] = []
        self.where: list[int] = []
        self.rest: list[int] = []
        self.codes: list[_TermCode] = []
        self._active: list[list[int]] = []  # the active indices of each term
        self._runs: dict = {}
        reads, position = slot.__contains__, slot.__getitem__
        for n, term in enumerate(terms):
            active = list(filter(reads, term.refs))
            if active:
                self.owners.append(term.owner)
                self.positions.append(list(map(position, active)))
                self.where.append(n)
                self.codes.append(_code(term))
                self._active.append(active)
            else:
                self.rest.append(n)

    def _functions(self, order: int, batch: bool) -> list:
        runs = self._runs.get((order, batch))
        if runs is None:
            runs = self._runs[order, batch] = [(code, code.function(active, order, batch))
                                               for code, active in zip(self.codes, self._active)]
        return runs

    def blocks(self, x: np.ndarray, order: int) -> list:
        """Every term's (value, grad, hess, third) at the flat point ``x``,
        (dim,) or (dim, B), in term order, flat as generated code returns
        them and with respect to the term's ``positions``, up to ``order``,
        which is at least 1."""
        if x.ndim > 1:
            n = x.shape[1]
            return _run(self._functions(order, True), x,
                        (np.ones(n), np.zeros(n), (n,)))
        return _run(self._functions(order, False), x.tolist(), (1.0, 0.0, ()))

    def values(self, x: np.ndarray) -> list:
        """Every term's value at the flat point ``x``, as :func:`term_value`
        gives it."""
        batch = x.ndim > 1
        return _values(self.codes, x if batch else x.tolist(), batch)

    def hessian_reads(self) -> np.ndarray | None:
        """The flat indices the terms' Hessian blocks read, sorted, if no
        block reads an active index, and None otherwise: then every block
        is bitwise the same at points that agree on those indices.  The
        functions on floats and on batches share their code, and so this."""
        reads: set[int] = set()
        for code, fn in self._functions(2, False):
            leaves = _HESSIAN_READS.get(fn)
            if leaves is None:
                return None
            reads.update(map(code.refs.__getitem__, leaves))
        return np.array(sorted(reads), dtype=np.intp)


# ---------------------------------------------------------------------------
# Generation

_SHAPES: list = []     # every shape seen, numbered so that keys below hash quickly
_NUMBERS: dict = {}    # shape -> its number
_FUNCTIONS: dict = {}  # (shape number, slots, k, order) -> (function on floats, on batches)
# each order-2 function whose Hessian reads no active slot -> the leaves it reads
_HESSIAN_READS: dict = {}


def source(term, active, order: int) -> str:
    """The generated source that evaluates ``term`` with respect to the
    flat indices ``active`` at ``order``."""
    code = _code(term)
    return generate(_SHAPES[code.shape], *code.slots(tuple(active), order), order)


def _number(shape) -> int:
    number = _NUMBERS.get(shape)
    if number is None:
        number = _NUMBERS[shape] = len(_SHAPES)
        _SHAPES.append(shape)
    return number


def _functions(shape: int, slots, k, order) -> tuple:
    key = (shape, slots, k, order)
    pair = _FUNCTIONS.get(key)
    if pair is None:
        text, leaves = _generated(_SHAPES[shape], slots, k, order)
        module = compile(text, "<escm term>", "exec")
        code = next(c for c in module.co_consts if isinstance(c, types.CodeType))
        pair = _FUNCTIONS[key] = (types.FunctionType(code, _SCALAR, "term"),
                                  types.FunctionType(code, _BATCH, "term"))
        if leaves is not None:
            _HESSIAN_READS.update(dict.fromkeys(pair, leaves))
    return pair


def _tuple(items) -> str:
    items = list(items)
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(map(str, items))})"


class _Val:
    """A generated subexpression: the name ``v`` of its value and, if it
    reads an active slot, its gradient ({slot: name}) and its Hessian and
    third blocks, each None (zero), a dict of unrolled entries (Hessian keys
    i <= j; third keys every ordered triple) or the name of a dense array
    over all ``k`` slots."""

    __slots__ = ("v", "g", "h", "t", "vec")

    def __init__(self, v, g=None, h=None, t=None):
        self.v, self.g, self.h, self.t = v, g, h, t
        self.vec = None


_ZERO = "0.0"  # a coefficient that is exactly 0.0: its terms are skipped
_FORM_FN = {code: fn for fn, code in FORM_CALLS.items()}  # form character -> function


class _Gen:
    def __init__(self, slots, k, order):
        self.slots, self.k, self.order = slots, k, order
        self.lines: list = []  # statements, and (indent, name, expr, raises) per assignment
        self.names = 0
        self.const = 0
        self.node = 0
        self.form = ""  # the form of the piece being emitted
        self.at = 0  # the position in it of the next node
        self.leaves = ()  # the leaf number of each symbol of the piece
        self.sym = 0  # symbols of the piece emitted so far

    def let(self, expr: str, indent: str = "", raises: bool = False) -> str:
        """A new name for ``expr``, computed here; ``raises`` if it may
        raise, which keeps it on its own line."""
        name = f"v{self.names}"
        self.names += 1
        self.lines.append((indent, name, expr, raises))
        return name

    # -- blocks ---------------------------------------------------------------

    def vec(self, x: _Val) -> str:
        """The full gradient of ``x`` as one (k,) or (k, B) array."""
        if x.vec is None:
            x.vec = self.let(f"_ar({_tuple(x.g.get(s, 'zero') for s in range(self.k))})")
        return x.vec

    def entries(self, blk: dict, rank: int) -> list[str]:
        """Every entry of an unrolled block over all ``k`` slots, row-major."""
        r = range(self.k)
        if rank == 2:
            return [blk.get((min(i, j), max(i, j)), "zero") for i in r for j in r]
        return [blk.get((a, b, c), "zero") for a in r for b in r for c in r]

    def flat(self, blk, rank: int) -> str:
        """A block as generated code returns it: the tuple of its entries
        while it is unrolled, else one array over all ``k`` slots."""
        if isinstance(blk, dict) and self.k ** rank <= MAX_UNROLLED:
            return _tuple(self.entries(blk, rank))
        return self.dense(blk, rank)

    def dense(self, blk, rank: int) -> str:
        """A block as one array over all ``k`` slots."""
        if not isinstance(blk, dict):
            return blk
        if self.k ** rank <= MAX_UNROLLED:  # a nested tuple of every entry
            nested = self.entries(blk, rank)
            for _ in range(rank - 1):
                nested = [_tuple(nested[i:i + self.k]) for i in range(0, len(nested), self.k)]
            return self.let(f"_ar({_tuple(nested)})")
        if rank == 2:
            rows, cols, vals = [], [], []
            for (i, j), name in blk.items():
                rows.append(i), cols.append(j), vals.append(name)
                if i != j:
                    rows.append(j), cols.append(i), vals.append(name)
            return self.let(f"_d2({self.k}, bs, {_tuple(rows)}, {_tuple(cols)}, {_tuple(vals)})")
        idx = list(zip(*blk))
        return self.let(f"_d3({self.k}, bs, {_tuple(idx[0])}, {_tuple(idx[1])}, "
                        f"{_tuple(idx[2])}, {_tuple(blk.values())})")

    def bounded(self, blk: dict, rank: int):
        return self.dense(blk, rank) if len(blk) > MAX_UNROLLED else blk

    def map(self, blk, fmt: str):
        """``fmt`` applied to every entry of a block, or to its array."""
        if blk is None:
            return None
        if isinstance(blk, dict):
            return {key: self.let(fmt.format(name)) for key, name in blk.items()}
        return self.let(fmt.format(blk))

    def add(self, a, b, rank: int, op: str = "+"):
        """``a + b`` or ``a - b`` of two blocks, None being zero."""
        if b is None:
            return a
        if a is None:
            return b if op == "+" else self.map(b, "0.0 - {}")
        if isinstance(a, dict) and isinstance(b, dict):
            out = dict(a)
            for key, nb in b.items():
                na = a.get(key)
                if na is not None:
                    out[key] = self.let(f"{na} {op} {nb}")
                else:
                    out[key] = nb if op == "+" else self.let(f"0.0 - {nb}")
            return self.bounded(out, rank)
        return self.let(f"{self.dense(a, rank)} {op} {self.dense(b, rank)}")

    def outer(self, f: str, x: _Val):
        """``f * g gᵀ`` for the gradient g of ``x``."""
        s = sorted(x.g)
        if len(s) ** 2 > MAX_UNROLLED:
            g = self.vec(x)
            return self.let(f"{f} * _outer({g}, {g})")
        return {(i, j): self.let(f"{f} * ({x.g[i]} * {x.g[j]})")
                for n, i in enumerate(s) for j in s[n:]}

    def outer_sym(self, a: _Val, b: _Val):
        """``ga gbᵀ + gb gaᵀ``."""
        s = sorted(a.g.keys() | b.g.keys())
        if len(s) ** 2 > MAX_UNROLLED:
            return self.let(f"_outer_sym({self.vec(a)}, {self.vec(b)})")
        out = {}
        for i, j in ((i, j) for n, i in enumerate(s) for j in s[n:]
                     if (i in a.g and j in b.g) or (i in b.g and j in a.g)):
            terms = []
            if i in a.g and j in b.g:
                terms.append(f"{a.g[i]} * {b.g[j]}")
            if i in b.g and j in a.g:
                terms.append(f"{b.g[i]} * {a.g[j]}")
            out[(i, j)] = self.let(" + ".join(terms))
        return out

    def sym3(self, h, x: _Val, f: str | None = None):
        """``T_abc = h_ab g_c + h_ac g_b + h_bc g_a`` for the symmetric
        block ``h`` and the gradient g of ``x``, times ``f`` if given."""
        g = x.g
        if isinstance(h, dict):
            pairs = {}
            for (i, j), name in h.items():
                pairs[(i, j)] = pairs[(j, i)] = name
            triples = set()
            for i, j in pairs:
                for c in g:
                    triples.update(((i, j, c), (i, c, j), (c, i, j)))
            if len(triples) <= MAX_UNROLLED:
                out = {}
                for a, b, c in sorted(triples):
                    terms = [f"{pairs[p]} * {g[q]}" for p, q in
                             (((a, b), c), ((a, c), b), ((b, c), a)) if p in pairs and q in g]
                    total = " + ".join(terms)
                    out[(a, b, c)] = self.let(total if f is None else f"{f} * ({total})")
                return out
        total = f"_sym3({self.dense(h, 2)}, {self.vec(x)})"
        return self.let(total if f is None else f"{f} * {total}")

    def cube(self, f: str, x: _Val):
        """``f g_a g_b g_c``, multiplied left to right."""
        s = sorted(x.g)
        if len(s) ** 3 > MAX_UNROLLED:
            g = self.vec(x)
            return self.let(f"{f} * {g}[:, None, None] * {g}[None, :, None] * {g}[None, None, :]")
        return {(a, b, c): self.let(f"{f} * {x.g[a]} * {x.g[b]} * {x.g[c]}")
                for a in s for b in s for c in s}

    # -- jet rules ------------------------------------------------------------

    def scaled(self, x: _Val, c: str, op: str = "*", value: str | None = None) -> _Val:
        """A jet times (or divided by) the name ``c`` of a non-jet; its
        value is ``value`` if given."""
        fmt = f"{c} * {{}}" if op == "*" else f"{{}} / {c}"
        return _Val(value or self.let(f"{x.v} {op} {c}"),
                    {s: self.let(f"{n} {op} {c}") for s, n in x.g.items()},
                    self.map(x.h, fmt), self.map(x.t, fmt))

    def negated(self, x: _Val) -> _Val:
        return _Val(self.let(f"-{x.v}"), {s: self.let(f"-{n}") for s, n in x.g.items()},
                    self.map(x.h, "-{}"), self.map(x.t, "-{}"))

    def plus(self, a: _Val, b: _Val, op: str) -> _Val:
        v = self.let(f"{a.v} {op} {b.v}")
        g = dict(a.g)
        for s, nb in b.g.items():
            na = a.g.get(s)
            if na is not None:
                g[s] = self.let(f"{na} {op} {nb}")
            else:
                g[s] = nb if op == "+" else self.let(f"0.0 - {nb}")
        return _Val(v, dict(sorted(g.items())),
                    self.add(a.h, b.h, 2, op), self.add(a.t, b.t, 3, op))

    def times(self, a: _Val, b: _Val, value: str | None = None) -> _Val:
        """The product of two jets; its value is ``value`` if given."""
        v = value or self.let(f"{a.v} * {b.v}")
        g = {}
        for s in sorted(a.g.keys() | b.g.keys()):
            ga, gb = a.g.get(s), b.g.get(s)
            if ga is not None and gb is not None:
                g[s] = self.let(f"{b.v} * {ga} + {a.v} * {gb}")
            elif ga is not None:
                g[s] = self.let(f"{b.v} * {ga}")
            else:
                g[s] = self.let(f"{a.v} * {gb}")
        h = t = None
        if self.order >= 2:
            h = self.add(self.add(self.map(a.h, f"{b.v} * {{}}"), self.map(b.h, f"{a.v} * {{}}"), 2),
                         self.outer_sym(a, b), 2)
        if self.order >= 3:
            t = self.add(self.map(a.t, f"{b.v} * {{}}"), self.map(b.t, f"{a.v} * {{}}"), 3)
            if a.h is not None:
                t = self.add(t, self.sym3(a.h, b), 3)
            if b.h is not None:
                t = self.add(t, self.sym3(b.h, a), 3)
        return _Val(v, g, h, t)

    def chain(self, x: _Val, f0: str, f1: str, f2: str, f3: str) -> _Val:
        """f(x) from the coefficients f0..f3 of f at x's value."""
        h = t = None
        if self.order >= 2:
            if f2 != _ZERO:
                h = self.outer(f2, x)
            h = self.add(self.map(x.h, f"{f1} * {{}}"), h, 2)
        if self.order >= 3:
            t = self.map(x.t, f"{f1} * {{}}")
            if x.h is not None and f2 != _ZERO:
                t = self.add(t, self.sym3(x.h, x, f2), 3)
            if f3 != _ZERO:
                t = self.add(t, self.cube(f3, x), 3)
        return _Val(f0, {s: self.let(f"{f1} * {n}") for s, n in x.g.items()}, h, t)

    # -- nodes ----------------------------------------------------------------

    def consts(self, count: int) -> list[str]:
        names = [f"k{self.const + j}" for j in range(count)]
        self.const += count
        return names

    def emit(self) -> _Val:
        """The node at ``at`` in the piece's form, after its operands: it
        is numbered ``node`` in post-order, the order of the spans the
        parser lists."""
        kind = self.form[self.at]
        self.at += 1
        if kind == "c":
            out = _Val(self.consts(1)[0])
        elif kind == "s":
            leaf = self.leaves[self.sym]
            self.sym += 1
            if leaf < 0:
                out = _Val(self.consts(1)[0])
            else:
                slot = self.slots[leaf] if self.order else -1
                out = _Val(f"a{leaf}", {slot: "one"} if slot >= 0 else None)
        elif kind == "p":
            cls = self.form[self.at]
            self.at += 1
            out = self.power(-1 if cls == "n" else int(cls))
        elif kind == "n":
            x = self.emit()
            out = _Val(self.let(f"-{x.v}")) if x.g is None else self.negated(x)
        elif kind in "+-*/":
            a = self.emit()
            b = self.emit()
            out = self.binary(self.node, kind, a, b)
        else:
            x = self.emit()
            out = self.call(self.node, _FORM_FN[kind], x)
        self.node += 1
        return out

    def binary(self, node: int, op: str, a: _Val, b: _Val) -> _Val:
        if a.g is None and b.g is None:
            if op == "/":
                return _Val(self.let(f"_dv({a.v}, {b.v}, {node})", raises=True))
            return _Val(self.let(f"{a.v} {op} {b.v}"))
        if op in "+-":
            if b.g is None:
                return _Val(self.let(f"{a.v} {op} {b.v}"), a.g, a.h, a.t)
            if a.g is None:
                if op == "-":  # (-b) + a
                    b = self.negated(b)
                return _Val(self.let(f"{b.v} + {a.v}"), b.g, b.h, b.t)
            return self.plus(a, b, op)
        if op == "*":
            if b.g is None:
                return self.scaled(a, b.v)
            if a.g is None:
                return self.scaled(b, a.v)
            return self.times(a, b)
        self.lines.append(f"_nz({b.v}, {node})")
        if b.g is None:
            return self.scaled(a, b.v, "/")
        v = b.v
        self.lines.append("try:")
        f = [self.let(f"1.0 / {v}", "    "), self.let(f"-1.0 / _pw({v}, 2)", "    ", True),
             self.let(f"2.0 / _pw({v}, 3)", "    ", True),
             self.let(f"-6.0 / _pw({v}, 4)", "    ", True)]
        self.lines += ["except ZeroDivisionError:",
                       f"    _divzero({node})"]
        recip = self.chain(b, *f)
        value = self.let(f"{a.v} / {v}")  # the quotient as order 0 computes it
        if a.g is None:
            return self.scaled(recip, a.v, value=value)
        return self.times(a, recip, value)

    def power(self, cls: int) -> _Val:
        x = self.emit()
        node = self.node
        # parameters, after the base's constants: n, then (coefficient,
        # exponent) per nonzero order
        count = 1 + 2 * (4 if cls < 0 else cls + 1)
        params = self.consts(count)
        if x.g is None:
            if cls < 0:
                return _Val(self.let(f"_pwz({x.v}, {params[0]}, {node})", raises=True))
            return _Val(self.let(f"_pw({x.v}, {params[0]})", raises=True))
        if cls < 0:
            self.lines.append(f"_nzb({x.v}, {node})")
        f = [self.let(f"{params[1 + 2 * j]} * _pw({x.v}, {params[2 + 2 * j]})", raises=True)
             for j in range((count - 1) // 2)]
        f += [_ZERO] * (4 - len(f))
        return self.chain(x, *f)

    def call(self, node: int, fn: str, x: _Val) -> _Val:
        v = x.v
        if fn == "sq":
            f0 = self.let(f"{v} * {v}")
        elif fn == "log":
            f0 = self.let(f"_log({v}, {node})", raises=True)
        else:
            f0 = self.let(f"_{fn}({v})", raises=fn == "exp")
        if x.g is None:
            return _Val(f0)
        if fn == "sq":
            return self.chain(x, f0, self.let(f"2.0 * {v}"), "2.0", _ZERO)
        if fn == "log":
            return self.chain(x, f0, self.let(f"1.0 / {v}"),
                              self.let(f"-1.0 / _pw({v}, 2)", raises=True),
                              self.let(f"2.0 / _pw({v}, 3)", raises=True))
        if fn == "exp":
            return self.chain(x, f0, f0, f0, f0)
        d1 = self.let(f"1.0 - {f0} * {f0}")
        f2 = self.let(f"-2.0 * {f0} * {d1}") if self.order >= 2 else _ZERO
        f3 = self.let(f"-2.0 * {d1} * (1.0 - 3.0 * {f0} * {f0})") if self.order >= 3 else _ZERO
        return self.chain(x, f0, d1, f2, f3)


def generate(shape, slots, k: int, order: int) -> str:
    """Python source of the function ``term`` for one term shape."""
    return _generated(shape, slots, k, order)[0]


def _generated(shape, slots, k: int, order: int) -> tuple[str, tuple | None]:
    """The source :func:`generate` gives, and, at order 2, the leaves the
    Hessian it returns reads if none is in an active slot (None otherwise,
    and at other orders)."""
    gen = _Gen(slots, k, order)
    nleaf, pieces = shape
    total = None
    for one, form, leaves in pieces:
        coeff = None if one else _Val(gen.consts(1)[0])
        gen.form, gen.at, gen.leaves, gen.sym = form, 0, leaves, 0
        piece = gen.emit()
        if coeff is not None:
            piece = gen.binary(-1, "*", coeff, piece)
        total = piece if total is None else gen.binary(-1, "+", total, piece)
    head = ["def term(L, K, one, zero, bs):" if order else "def term(L, K):"]
    if nleaf:
        head.append(f"    {', '.join(f'a{j}' for j in range(nleaf))}, = L")
    if gen.const:
        head.append(f"    {', '.join(f'k{j}' for j in range(gen.const))}, = K")
    h = "None"
    if not order:
        tail = [f"return {total.v}"]
    elif total.g is None:
        tail = [f"return {total.v}, None, None, None"]
    else:
        g = total.vec or _tuple(total.g.get(s, "zero") for s in range(k))
        if order >= 2 and total.h is not None:
            h = gen.flat(total.h, 2)
        t = "None" if order < 3 or total.t is None else gen.flat(total.t, 3)
        tail = [f"return {total.v}, {g}, {h}, {t}"]
    leaves = None
    if order == 2:
        leaves = _reads(gen.lines, h)
        if any(slots[leaf] >= 0 for leaf in leaves):
            leaves = None
    body = _inline(gen.lines + tail)
    return "\n".join(head + [f"    {line}" for line in body]) + "\n", leaves


_NAMES = re.compile(r"\b[av]\d+\b")  # leaves and intermediates


def _reads(lines: list, expr: str) -> tuple[int, ...]:
    """The leaves ``expr`` reads, itself or through the assignments of
    ``lines``, sorted: the generator's own data flow, with no evaluation.
    Every intermediate is assigned once, after its operands, so one walk
    back from ``expr`` finds them all."""
    names = set(_NAMES.findall(expr))
    for line in reversed(lines):
        if isinstance(line, tuple) and line[1] in names:
            names.update(_NAMES.findall(line[2]))
    return tuple(sorted(int(name[1:]) for name in names if name[0] == "a"))


_TEMP = re.compile(r"\bv\d+\b")
_MAX_INLINED = 300  # characters of one substituted intermediate


def _inline(lines: list) -> list[str]:
    """The source lines of ``lines``, with every intermediate that is read
    once and cannot raise substituted, parenthesised, where it is read,
    while its text stays under ``_MAX_INLINED`` characters.  This is the one
    way generated code nests expressions.  A substituted operation keeps its
    operands and so its rounding; it only runs later.  An assignment that
    may raise is never substituted, so every raising operation runs where
    the post-order walk puts it and the first failure is the walk's.  Each
    level of nesting costs a pair of parentheses, so the length bound keeps
    every line far inside what Python's parser accepts; and Python compiles
    the shorter source faster."""
    uses = Counter(_TEMP.findall("\n".join(
        line[2] if isinstance(line, tuple) else line for line in lines)))
    subst: dict[str, str] = {}

    def sub(m):
        return subst.get(m.group(0), m.group(0))

    out = []
    for line in lines:
        if not isinstance(line, tuple):
            out.append(_TEMP.sub(sub, line))
            continue
        indent, name, expr, raises = line
        expr = _TEMP.sub(sub, expr) if subst else expr
        if uses[name] == 1 and not (indent or raises) and len(expr) < _MAX_INLINED:
            subst[name] = f"({expr})"
        else:
            out.append(f"{indent}{name} = {expr}")
    return out
