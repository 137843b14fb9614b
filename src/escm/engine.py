"""Energy evaluation with exact first, second and third derivatives.

All differentiation is forward-mode on the expression AST (see
:mod:`escm.jets`): no symbolic expansion, no finite differences.  Each
model term is compiled once at parse into an :class:`ObjectiveTerm`, which
every evaluation reads; only surgery builds new ones.  A caller names the
coordinates it differentiates with respect to; the result is indexed by
position in that list, so its size follows the query and not the model.
``term_jet`` always returns a jet over those coordinates.  ``derivatives``
evaluates only the terms that read one of them and adds each into the
positions it reads, so coordinates a term never mentions contribute exact
zeros and the assembled Hessian is bitwise symmetric; it returns no
energy value, which ``value`` computes.

A :class:`Point` may also hold a batch of points, ``x`` of shape
``(dim, B)``.  ``value``, ``term_jet`` and ``derivatives`` then carry a
trailing batch axis on everything they return, and each batch entry is
bitwise what its point alone gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EnergyDomainError, PairError, QueryError
from .expr import Env
from .jets import Jet, lift, seed
from .model import Model, ObjectiveTerm

__all__ = [
    "Point",
    "FirstOrder",
    "SecondOrder",
    "Objective",
    "evaluate",
    "second_order",
    "effective_energy_pair",
    "PairEnergy",
]


@dataclass
class Point:
    """Values of every coordinate, held in one flat float array ``x`` in
    stacked (z, u, theta) order; ``z``, ``u`` and ``theta`` are views into
    it, so writing one of them writes ``x``.  Blocks of shape ``(n, B)``
    make a batch of B points, ``x`` of shape ``(dim, B)``."""

    z: np.ndarray
    u: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        parts = [np.asarray(a, dtype=float) for a in (self.z, self.u, self.theta)]
        self.x = np.concatenate(parts)
        nz, nu = len(parts[0]), len(parts[1])
        self.z, self.u, self.theta = self.x[:nz], self.x[nz:nz + nu], self.x[nz + nu:]

    @classmethod
    def for_model(cls, model: Model, z=None, u=None, theta=None) -> "Point":
        return cls(z=np.zeros(model.nz) if z is None else z,
                   u=np.zeros(model.nu) if u is None else u,
                   theta=model.theta_defaults() if theta is None else theta)

    @classmethod
    def from_flat(cls, model: Model, x: np.ndarray) -> "Point":
        """The point, or batch of points, whose flat vector is a copy of
        ``x``, shape ``(dim,)`` or ``(dim, B)``."""
        point = cls.__new__(cls)
        point.x = np.array(x, dtype=float)
        nz, nu = model.nz, model.nu
        point.z, point.u, point.theta = point.x[:nz], point.x[nz:nz + nu], point.x[nz + nu:]
        return point

    def copy(self) -> "Point":
        return Point(self.z, self.u, self.theta)


@dataclass
class FirstOrder:
    """Total energy and exact gradients at a point."""

    value: float
    grad_z: np.ndarray
    grad_u: np.ndarray
    grad_theta: np.ndarray


@dataclass
class SecondOrder:
    """Exact second-derivative blocks plus per-term attribution.

    ``attribution`` maps a term owner label to its additive contribution,
    as a dict with "zz", "zu" and "ztheta" blocks.
    """

    h_zz: np.ndarray
    h_zu: np.ndarray
    h_ztheta: np.ndarray
    attribution: dict[str, dict[str, np.ndarray]]


@dataclass
class _Derivatives:
    """Derivatives with respect to ``active``, indexed by position in it;
    ``owner_hess`` maps a term owner to its Hessian contribution."""

    active: tuple[int, ...]
    grad: np.ndarray
    hess: np.ndarray | None
    third: np.ndarray | None
    owner_hess: dict[str, np.ndarray] | None


class Objective:
    """An evaluable energy: the model's terms, possibly after surgery."""

    def __init__(self, model: Model, terms: Sequence[ObjectiveTerm]):
        self.model = model
        self.terms = tuple(terms)
        self.dim = model.dim

    @classmethod
    def from_model(cls, model: Model) -> "Objective":
        return cls(model, [t.objective_term for t in model.terms])

    def has_global(self) -> bool:
        return any(t.owner == "global" for t in self.terms)

    def check_point(self, point: Point) -> None:
        if point.x.ndim > 2 or point.x.shape[0] != self.dim:
            raise QueryError("point does not match the model's flat coordinate maps")
        if not np.all(np.isfinite(point.x)):
            raise QueryError("point contains non-finite entries")

    # -- evaluation ----------------------------------------------------------

    def value(self, point: Point) -> float:
        self.check_point(point)
        values = point.x.tolist() if point.x.ndim == 1 else point.x
        total = 0.0
        for term in self.terms:
            total += _evaluate_term(term, values)
        return total if point.x.ndim == 1 else np.broadcast_to(total, point.x.shape[1:])

    def term_jet(self, term: ObjectiveTerm, point: Point,
                 active: Sequence[int], order: int) -> Jet:
        """Evaluate one term with the given flat indices active; everything
        else is frozen at the point.  The jet is over all of ``active``,
        with exact zeros where the term does not read a coordinate, and
        carries every block its order has as an array (``Jet.dense``)."""
        slot = {ref: j for j, ref in enumerate(active)}
        k = len(active)
        x = point.x
        read = x.item if x.ndim == 1 else x.__getitem__
        leaves = {ref: seed(read(ref), slot[ref], k, order) if ref in slot
                  else read(ref) for ref in term.refs}
        total = _evaluate_term(term, leaves)
        if not isinstance(total, Jet):
            if x.ndim > 1:
                total = np.broadcast_to(total, x.shape[1:])
            total = lift(total, k, order)
        return total.dense()

    def derivatives(self, point: Point, order: int = 2,
                    attribution: bool = False,
                    active: Iterable[int] | None = None) -> _Derivatives:
        """Exact derivatives up to ``order`` with respect to ``active``;
        only the terms that read an active coordinate are evaluated.

        ``grad``, ``hess`` and ``third`` (and every ``owner_hess`` block)
        are indexed by position in ``active``, with repeated indices removed
        in order: shapes (k,), (k, k) and (k, k, k), each with a trailing
        batch axis for a batch of points.  ``active=None`` means every flat
        index, ``range(dim)``.  Coordinates not in ``active`` enter as
        constants.
        """
        self.check_point(point)
        refs = tuple(dict.fromkeys(range(self.dim) if active is None else active))
        slot = {ref: j for j, ref in enumerate(refs)}
        k = len(refs)
        batch = point.x.shape[1:]
        grad = np.zeros((k,) + batch)
        hess = np.zeros((k, k) + batch) if order >= 2 else None
        third = np.zeros((k, k, k) + batch) if order >= 3 else None
        owner_hess = {} if attribution else None
        for term in self.terms:
            term_active = [r for r in term.refs if r in slot]
            if not term_active:
                continue
            jet = self.term_jet(term, point, term_active, order)
            g = np.array([slot[r] for r in term_active])
            grad[g] += jet.grad
            if order >= 2:
                rows = g[:, None]  # with g: the (g, g) block, as np.ix_(g, g)
                hess[rows, g] += jet.hess
                if owner_hess is not None:
                    block = owner_hess.setdefault(term.owner, np.zeros((k, k) + batch))
                    block[rows, g] += jet.hess
            if order >= 3:
                third[g[:, None, None], rows, g] += jet.third
        return _Derivatives(refs, grad, hess, third, owner_hess)

    def first_order(self, point: Point) -> FirstOrder:
        grad = self.derivatives(point, order=1).grad
        coords = self.model.coords
        return FirstOrder(value=self.value(point), grad_z=grad[coords("z")],
                          grad_u=grad[coords("u")], grad_theta=grad[coords("theta")])

    def second_order(self, point: Point) -> SecondOrder:
        full = self.derivatives(point, order=2, attribution=True)
        z = self.model.coords("z")
        zz, zu = np.ix_(z, z), np.ix_(z, self.model.coords("u"))
        ztheta = np.ix_(z, self.model.coords("theta"))
        attribution = {
            owner: {"zz": block[zz], "zu": block[zu], "ztheta": block[ztheta]}
            for owner, block in full.owner_hess.items()
        }
        return SecondOrder(h_zz=full.hess[zz], h_zu=full.hess[zu],
                           h_ztheta=full.hess[ztheta], attribution=attribution)


def _evaluate_term(term: ObjectiveTerm, leaves):
    """Weighted sum of ``term``'s pieces, each flat index ``i`` it reads
    bound to the float or jet ``leaves[i]``; a domain error is re-raised
    naming the term's owner."""
    env = Env(leaves)
    total = None
    try:
        for coeff, compiled in term.pieces:
            piece = coeff * compiled.evaluate(env)
            total = piece if total is None else total + piece
    except EnergyDomainError as err:
        if err.owner is not None:
            raise
        raise EnergyDomainError(err.base_message, owner=term.owner,
                                fragment=err.fragment) from None
    return total


def _as_objective(target) -> Objective:
    if isinstance(target, Objective):
        return target
    return Objective.from_model(target)


def evaluate(target, point: Point) -> FirstOrder:
    """Total energy and exact gradients of a model or edited objective."""
    return _as_objective(target).first_order(point)


def second_order(target, point: Point) -> SecondOrder:
    """Exact second-derivative blocks of a model or edited objective."""
    return _as_objective(target).second_order(point)


def _require_nondescendant(model: Model, a: str, i: str) -> None:
    if i == a or i in model.descendants(a):
        raise PairError(f"{i!r} is {a!r} or one of its descendants")


def _module_terms(model: Model, i: str) -> list[ObjectiveTerm]:
    """The terms of module ``i``'s effective energy: its local term, its
    paired exogenous term and the global term."""
    terms = [model.local_term(i).objective_term]
    paired = model.paired_exo(i)
    if paired is not None and paired in model.term_by_label:
        exo = model.term_by_label[paired]
        if exo.owner_kind == "exo":
            terms.append(exo.objective_term)
    if model.global_term is not None:
        terms.append(model.global_term.objective_term)
    return terms


class PairEnergy:
    """Effective energy of module ``i`` relative to ``a``.

    Holds the module's local and exogenous terms plus the global term
    restricted to the pair: every coordinate other than the two modules'
    z-blocks and local parameters is frozen at the anchor point.
    """

    def __init__(self, model: Model, a: str, i: str, point: Point):
        _require_nondescendant(model, a, i)
        self.model = model
        self.a, self.i = a, i
        self.point = point.copy()
        self._objective = Objective(model, _module_terms(model, i))

        self.zi_refs = model.coord_indices(i)
        self.za_refs = model.coord_indices(a)
        self.ti_refs = model.module_theta_refs(i)
        self.ta_refs = model.module_theta_refs(a)
        # shared parameters may appear in both modules' sets; deduplicate
        self.active = list(dict.fromkeys(
            self.zi_refs + self.za_refs + self.ti_refs + self.ta_refs))
        self.theta_a_labels = [model.coord_label(k).partition(".")[2] for k in self.ta_refs]
        self._hess: np.ndarray | None = None

    def _point_with(self, zi=None, za=None) -> Point:
        p = self.point.copy()
        if zi is not None:
            p.x[self.zi_refs] = np.asarray(zi, dtype=float)
        if za is not None:
            p.x[self.za_refs] = np.asarray(za, dtype=float)
        return p

    def value(self, zi=None, za=None) -> float:
        return self._objective.value(self._point_with(zi, za))

    def gradient(self, zi=None, za=None) -> dict[str, np.ndarray]:
        grad = self._objective.derivatives(self._point_with(zi, za),
                                           order=1, active=self.active).grad
        return {"z_i": grad[self._positions(self.zi_refs)],
                "z_a": grad[self._positions(self.za_refs)]}

    def _positions(self, refs: list[int]) -> list[int]:
        return [self.active.index(r) for r in refs]

    def _cross(self, rows: list[int], cols: list[int]) -> np.ndarray:
        # one order-2 evaluation at the anchor serves every cross block
        if self._hess is None:
            self._hess = self._objective.derivatives(
                self.point, order=2, active=self.active).hess
        return self._hess[np.ix_(self._positions(rows), self._positions(cols))]

    def cross_zz(self) -> np.ndarray:
        """Exact block of mixed partials d2E/(dz_i dz_a)."""
        return self._cross(self.zi_refs, self.za_refs)

    def cross_ztheta(self) -> np.ndarray:
        """Exact block of mixed partials d2E/(dz_i dtheta_a)."""
        return self._cross(self.zi_refs, self.ta_refs)


def effective_energy_pair(model: Model, a: str, i: str, point: Point) -> PairEnergy:
    """Pair energy handle for cross-partial queries; requires ``i`` to be a
    non-descendant of ``a``."""
    return PairEnergy(model, a, i, point)
