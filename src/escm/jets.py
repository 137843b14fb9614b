"""Truncated Taylor values for exact forward-mode differentiation.

A :class:`Jet` carries a value, a gradient, and optionally a Hessian and a
third-derivative tensor with respect to a small set of active coordinates.
Arithmetic propagates all carried orders exactly (no finite differences),
so structural zero tests downstream can assert against 0.0 rather than a
tolerance.

Inputs are never mutated; every operation allocates fresh arrays or reuses
operand arrays only when they are provably unchanged (adding a constant).
Hessians are assembled from symmetric outer products, which keeps them
bitwise symmetric.

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


class Jet:
    """Value plus derivatives with respect to ``k`` active coordinates.

    ``order`` is 1, 2 or 3; ``hess``/``third`` are present only for the
    corresponding orders.
    """

    __slots__ = ("value", "grad", "hess", "third")
    __array_ufunc__ = None  # ndarray op Jet defers to the Jet's reflected op

    def __init__(self, value: float, grad: np.ndarray,
                 hess: np.ndarray | None = None, third: np.ndarray | None = None):
        self.value = value
        self.grad = grad
        self.hess = hess
        self.third = third

    @property
    def order(self) -> int:
        if self.third is not None:
            return 3
        return 2 if self.hess is not None else 1

    # -- addition ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            h = self.hess + other.hess if self.hess is not None else None
            t = self.third + other.third if self.third is not None else None
            return Jet(self.value + other.value, self.grad + other.grad, h, t)
        return Jet(self.value + other, self.grad, self.hess, self.third)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            h = self.hess - other.hess if self.hess is not None else None
            t = self.third - other.third if self.third is not None else None
            return Jet(self.value - other.value, self.grad - other.grad, h, t)
        return Jet(self.value - other, self.grad, self.hess, self.third)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        h = -self.hess if self.hess is not None else None
        t = -self.third if self.third is not None else None
        return Jet(-self.value, -self.grad, h, t)

    # -- multiplication / division ---------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Jet):
            h = self.hess * other if self.hess is not None else None
            t = self.third * other if self.third is not None else None
            return Jet(self.value * other, self.grad * other, h, t)
        v1, v2 = self.value, other.value
        g = v2 * self.grad + v1 * other.grad
        h = t = None
        if self.hess is not None:
            h = v2 * self.hess + v1 * other.hess + _outer_sym(self.grad, other.grad)
        if self.third is not None:
            t = (
                v2 * self.third
                + v1 * other.third
                + _sym3(self.hess, other.grad)
                + _sym3(other.hess, self.grad)
            )
        return Jet(v1 * v2, g, h, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._recip()
        if _is_zero(other):
            raise EnergyDomainError("division by zero")
        return Jet(self.value / other, self.grad / other,
                   self.hess / other if self.hess is not None else None,
                   self.third / other if self.third is not None else None)

    def __rtruediv__(self, other):
        return self._recip() * other

    def _recip(self) -> "Jet":
        v = self.value
        if _is_zero(v):
            raise EnergyDomainError("division by zero")
        return self._chain(1.0 / v, -1.0 / _pow(v, 2), 2.0 / _pow(v, 3), -6.0 / _pow(v, 4))

    # -- chain rule for scalar functions ----------------------------------

    def _chain(self, f0: float, f1: float, f2: float, f3: float) -> "Jet":
        g = f1 * self.grad
        h = t = None
        if self.hess is not None:
            h = f1 * self.hess + f2 * _outer(self.grad, self.grad)
        if self.third is not None:
            gg = self.grad
            t = (f1 * self.third + f2 * _sym3(self.hess, gg)
                 + f3 * gg[:, None, None] * gg[None, :, None] * gg[None, None, :])
        return Jet(f0, g, h, t)


def seed(value: float, slot: int, k: int, order: int) -> Jet:
    """Jet for an active coordinate occupying ``slot`` of ``k``; a ``(B,)``
    array ``value`` gives a batched jet."""
    jet = lift(value, k, order)
    jet.grad[slot] = 1.0
    return jet


def lift(value: float, k: int, order: int) -> Jet:
    """Jet for a frozen (constant) value; a ``(B,)`` array ``value`` gives
    a batched jet."""
    shape = getattr(value, "shape", ())  # np.shape would build an array from a float
    h = np.zeros((k, k) + shape) if order >= 2 else None
    t = np.zeros((k, k, k) + shape) if order >= 3 else None
    return Jet(value.astype(float) if shape else float(value), np.zeros((k,) + shape), h, t)


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
