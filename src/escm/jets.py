"""Truncated Taylor values: the container exact derivatives come back in.

A :class:`Jet` carries a value, a gradient, and optionally a Hessian and a
third-derivative tensor with respect to a small set of active coordinates.
:mod:`escm.codegen` computes them by forward mode (no finite differences),
so structural zero tests downstream can assert against 0.0 rather than a
tolerance.

A Hessian or third tensor that is exactly zero is not stored: it is None,
and ``Jet.order`` says which orders the jet carries.  :meth:`Jet.dense`
materialises absent blocks as +0.0; ``Objective.term_jet`` returns jets in
that form, so callers see full shapes.  ``Objective.derivatives`` builds no
jets: it adds the generated code's blocks directly and skips absent ones.

A jet may also carry a trailing batch axis, one entry per point: value
``(B,)``, grad ``(k, B)``, hess ``(k, k, B)``, third ``(k, k, k, B)``
(vector-mode Taylor arithmetic; Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13).

The block formulas below are those of the product and chain rules over a
whole gradient; generated code uses them for every block too wide to
unroll, and they broadcast over a trailing batch axis.  Hessians are
assembled from symmetric outer products, which keeps them bitwise
symmetric.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet"]


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


class Jet:
    """Value plus derivatives with respect to ``k`` active coordinates.

    ``order`` is 1, 2 or 3.  ``hess`` belongs to orders 2 and 3 and
    ``third`` to order 3; either is None while it is exactly zero, and
    :meth:`dense` materialises it.
    """

    __slots__ = ("value", "grad", "hess", "third", "order")

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
