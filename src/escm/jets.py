"""Truncated Taylor values for exact forward-mode differentiation.

A :class:`Jet` carries a value, a gradient, and optionally a Hessian and a
third-derivative tensor with respect to a small set of active coordinates.
Arithmetic propagates all carried orders exactly (no finite differences),
so structural zero tests downstream can assert against 0.0 rather than a
tolerance.

A Hessian or third tensor that is exactly zero is not stored: it is None,
and ``Jet.order`` says which orders the jet carries.  Leaves start that
way (:func:`seed`, :func:`lift`), and the operations skip a None operand
and a term whose Python-float coefficient is 0.0, so a block is allocated
only once some term can make it nonzero (sparse forward mode; Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., ch. 7).  Skipping an exact
zero leaves every nonzero entry bitwise as the dense sum gives it; only
the sign of a zero entry, or an entry where ``0 * inf`` would have read
NaN, may differ.  :meth:`Jet.dense` materialises absent blocks as +0.0;
``Objective.term_jet`` returns jets in that form, so callers see full
shapes.

Inputs are never mutated; every operation allocates fresh arrays or reuses
operand arrays only when they are provably unchanged (adding a constant or
an absent block).  Hessians are assembled from symmetric outer products,
which keeps them bitwise symmetric.

A jet may also carry a trailing batch axis, one entry per point: value
``(B,)``, grad ``(k, B)``, hess ``(k, k, B)``, third ``(k, k, k, B)``.  The
same formulas broadcast over it, and the scalar functions evaluate each
entry through Python's float arithmetic, so every batch entry is bitwise
the jet of its point alone (vector-mode Taylor arithmetic; Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  A domain check
fails when any entry is outside the domain, with the message that entry
alone would give.  Frozen batched values are plain ``(B,)`` arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EnergyDomainError

__all__ = ["Jet", "seed", "lift", "jexp", "jlog", "jtanh", "jsq", "jpow"]


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.outer over the leading axis, broadcast over a trailing batch axis
    return a[:, None] * b[None, :]


def _outer_sym(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # a_i b_j + b_i a_j: bitwise symmetric because float addition commutes.
    return _outer(a, b) + _outer(b, a)


def _each(fn, v):
    """``fn`` of a float, or of every entry of a batch through Python
    floats, so a batch entry is bitwise the scalar result."""
    if isinstance(v, np.ndarray):
        return np.array([fn(a) for a in v.tolist()])
    return fn(v)


def _first(v, hit):
    """The first value of ``v`` for which ``hit`` holds, or None; a float
    ``v`` is its own only entry."""
    if isinstance(v, np.ndarray):
        idx = np.flatnonzero(hit(v))
        return v.item(idx[0]) if idx.size else None
    return v if hit(v) else None


def _is_zero(v) -> bool:
    return _first(v, lambda a: a == 0.0) is not None


def _sym3(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    # T_abc = h_ab g_c + h_ac g_b + h_bc g_a for symmetric h.
    return (
        h[:, :, None] * g[None, None, :]
        + h[:, None, :] * g[None, :, None]
        + h[None, :, :] * g[:, None, None]
    )


def _plus(a, b):
    """``a + b`` where None is an all-zero block."""
    if a is None:
        return b
    return a if b is None else a + b


def _minus(a, b):
    """``a - b`` where None is an all-zero block; ``0.0 - b`` rather than
    ``-b`` keeps a zero entry of ``b`` at +0.0."""
    if b is None:
        return a
    return 0.0 - b if a is None else a - b


def _times(f, block):
    """``f * block``, or None for an all-zero block."""
    return None if block is None else f * block


def _is_float_zero(f) -> bool:
    # only a Python-float coefficient drops its term; a batch array is kept
    return isinstance(f, float) and f == 0.0


class Jet:
    """Value plus derivatives with respect to ``k`` active coordinates.

    ``order`` is 1, 2 or 3.  ``hess`` belongs to orders 2 and 3 and
    ``third`` to order 3; either is None while it is exactly zero, and
    :meth:`dense` materialises it.
    """

    __slots__ = ("value", "grad", "hess", "third", "order")
    __array_ufunc__ = None  # ndarray op Jet defers to the Jet's reflected op

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray | None,
                 third: np.ndarray | None, order: int):
        self.value = value
        self.grad = grad
        self.hess = hess
        self.third = third
        self.order = order

    def dense(self) -> "Jet":
        """The same jet with every block its order carries as an array,
        an absent one as +0.0 of shape (k, k) or (k, k, k) plus the batch
        axis."""
        k, batch = self.grad.shape[0], self.grad.shape[1:]
        hess, third = self.hess, self.third
        if hess is None and self.order >= 2:
            hess = np.zeros((k, k) + batch)
        if third is None and self.order >= 3:
            third = np.zeros((k, k, k) + batch)
        return Jet(self.value, self.grad, hess, third, self.order)

    # -- addition ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value + other.value, self.grad + other.grad,
                       _plus(self.hess, other.hess), _plus(self.third, other.third),
                       self.order)
        return Jet(self.value + other, self.grad, self.hess, self.third, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(self.value - other.value, self.grad - other.grad,
                       _minus(self.hess, other.hess), _minus(self.third, other.third),
                       self.order)
        return Jet(self.value - other, self.grad, self.hess, self.third, self.order)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet(-self.value, -self.grad, None if self.hess is None else -self.hess,
                   None if self.third is None else -self.third, self.order)

    # -- multiplication / division ---------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.value * other, self.grad * other, _times(other, self.hess),
                       _times(other, self.third), self.order)
        v1, v2 = self.value, other.value
        g = v2 * self.grad + v1 * other.grad
        h = t = None
        if self.order >= 2:
            h = _plus(_plus(_times(v2, self.hess), _times(v1, other.hess)),
                      _outer_sym(self.grad, other.grad))
        if self.order >= 3:
            # summed left to right, in the order of the dense formula
            t = _plus(_times(v2, self.third), _times(v1, other.third))
            if self.hess is not None:
                t = _plus(t, _sym3(self.hess, other.grad))
            if other.hess is not None:
                t = _plus(t, _sym3(other.hess, self.grad))
        return Jet(v1 * v2, g, h, t, self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._recip()
        if _is_zero(other):
            raise EnergyDomainError("division by zero")
        return Jet(self.value / other, self.grad / other,
                   None if self.hess is None else self.hess / other,
                   None if self.third is None else self.third / other, self.order)

    def __rtruediv__(self, other):
        return self._recip() * other

    def _recip(self) -> "Jet":
        v = self.value
        if _is_zero(v):
            raise EnergyDomainError("division by zero")
        return self._chain(1.0 / v, -1.0 / _pow(v, 2), 2.0 / _pow(v, 3), -6.0 / _pow(v, 4))

    # -- chain rule for scalar functions ----------------------------------

    def _chain(self, f0: float, f1: float, f2: float, f3: float) -> "Jet":
        gg = self.grad
        h = t = None
        if self.order >= 2 and not _is_float_zero(f2):
            h = f2 * _outer(gg, gg)
        if self.order >= 3:
            t = _times(f1, self.third)
            if self.hess is not None and not _is_float_zero(f2):
                t = _plus(t, f2 * _sym3(self.hess, gg))
            if not _is_float_zero(f3):
                t = _plus(t, f3 * gg[:, None, None] * gg[None, :, None] * gg[None, None, :])
        return Jet(f0, f1 * gg, _plus(_times(f1, self.hess), h), t, self.order)


def seed(value: float, slot: int, k: int, order: int) -> Jet:
    """Jet for an active coordinate occupying ``slot`` of ``k``; a ``(B,)``
    array ``value`` gives a batched jet."""
    jet = lift(value, k, order)
    jet.grad[slot] = 1.0
    return jet


def lift(value: float, k: int, order: int) -> Jet:
    """Jet for a frozen (constant) value; a ``(B,)`` array ``value`` gives
    a batched jet.  Its Hessian and third tensor are absent (zero)."""
    shape = getattr(value, "shape", ())  # np.shape would build an array from a float
    return Jet(value.astype(float) if shape else float(value), np.zeros((k,) + shape),
               None, None, order)


def _pow(v, n: int):
    return _each(lambda a: a ** n, v)


# Whitelisted scalar functions; each dispatches on float vs Jet so that
# all-frozen subtrees stay in plain float (or batch array) arithmetic.

def jexp(x):
    if isinstance(x, Jet):
        e = _each(math.exp, x.value)
        return x._chain(e, e, e, e)
    return _each(math.exp, x)


def jlog(x):
    v = x.value if isinstance(x, Jet) else x
    bad = _first(v, lambda a: a <= 0.0)
    if bad is not None:
        raise EnergyDomainError(f"log of non-positive value {bad!r}")
    if isinstance(x, Jet):
        return x._chain(_each(math.log, v), 1.0 / v, -1.0 / _pow(v, 2), 2.0 / _pow(v, 3))
    return _each(math.log, v)


def jtanh(x):
    if isinstance(x, Jet):
        t = _each(math.tanh, x.value)
        d1 = 1.0 - t * t
        return x._chain(t, d1, -2.0 * t * d1, -2.0 * d1 * (1.0 - 3.0 * t * t))
    return _each(math.tanh, x)


def jsq(x):
    if isinstance(x, Jet):
        return x._chain(x.value * x.value, 2.0 * x.value, 2.0, 0.0)
    return x * x


def jpow(x, n: int):
    """Integer power with exact derivatives; negative n requires x != 0."""
    if not isinstance(x, Jet):
        if n < 0 and _is_zero(x):
            raise EnergyDomainError("zero raised to a negative power")
        return _pow(x, n) if isinstance(x, np.ndarray) else float(x) ** n
    v = x.value
    if n < 0 and _is_zero(v):
        raise EnergyDomainError("zero raised to a negative power")

    def dcoef(k: int) -> float:
        # n(n-1)...(n-k+1) * v^(n-k); the coefficient is exactly zero for
        # 0 <= n < k, in which case v^(n-k) is never evaluated.
        c = 1.0
        for j in range(k):
            c *= (n - j)
        if c == 0.0:
            return 0.0
        if n - k < 0 and _is_zero(v):
            raise EnergyDomainError("zero raised to a negative power")
        return c * _pow(v, n - k)

    return x._chain(dcoef(0), dcoef(1), dcoef(2), dcoef(3))
