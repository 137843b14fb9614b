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

Ref = tuple[str, int]


@dataclass
class Point:
    """Full assignment of values to all z-, u- and theta-coordinates."""

    z: np.ndarray
    u: np.ndarray
    theta: np.ndarray

    @classmethod
    def for_model(cls, model: Model, z=None, u=None, theta=None) -> "Point":
        return cls(
            z=np.zeros(model.nz) if z is None else np.asarray(z, dtype=float).copy(),
            u=np.zeros(model.nu) if u is None else np.asarray(u, dtype=float).copy(),
            theta=model.theta_defaults() if theta is None
            else np.asarray(theta, dtype=float).copy(),
        )

    def copy(self) -> "Point":
        return Point(self.z.copy(), self.u.copy(), self.theta.copy())

    def get(self, ref: Ref) -> float:
        return float(getattr(self, ref[0])[ref[1]])

    def set(self, ref: Ref, value: float) -> None:
        getattr(self, ref[0])[ref[1]] = value


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

    active: tuple[Ref, ...]
    grad: np.ndarray
    hess: np.ndarray | None
    third: np.ndarray | None
    owner_hess: dict[str, np.ndarray] | None


class Objective:
    """An evaluable energy: the model's terms, possibly after surgery."""

    def __init__(self, model: Model, terms: Sequence[ObjectiveTerm]):
        self.model = model
        self.terms = tuple(terms)
        self.nz, self.nu, self.ntheta = model.nz, model.nu, model.ntheta
        self.dim = self.nz + self.nu + self.ntheta
        self._offsets = {"z": 0, "u": self.nz, "theta": self.nz + self.nu}

    @classmethod
    def from_model(cls, model: Model) -> "Objective":
        return cls(model, [t.objective_term for t in model.terms])

    def space_slice(self, space: str) -> slice:
        start = self._offsets[space]
        size = {"z": self.nz, "u": self.nu, "theta": self.ntheta}[space]
        return slice(start, start + size)

    def owners(self) -> list[str]:
        return [t.owner for t in self.terms]

    def has_global(self) -> bool:
        return any(t.owner == "global" for t in self.terms)

    def check_point(self, point: Point) -> None:
        if len(point.z) != self.nz or len(point.u) != self.nu or len(point.theta) != self.ntheta:
            raise QueryError("point does not match the model's flat coordinate maps")
        for arr in (point.z, point.u, point.theta):
            if arr.size and not np.all(np.isfinite(arr)):
                raise QueryError("point contains non-finite entries")

    # -- evaluation ----------------------------------------------------------

    def value(self, point: Point) -> float:
        self.check_point(point)
        total = 0.0
        for term in self.terms:
            total += _evaluate_term(term, {ref: point.get(ref) for ref in term.refs})
        return total

    def term_jet(self, term: ObjectiveTerm, point: Point,
                 active: Sequence[Ref], order: int) -> Jet:
        """Evaluate one term with the given coordinates active; everything
        else is frozen at the point.  The jet is over all of ``active``,
        with exact zeros where the term does not read a coordinate."""
        slot = {ref: j for j, ref in enumerate(active)}
        k = len(active)
        leaves = {ref: seed(point.get(ref), slot[ref], k, order) if ref in slot
                  else point.get(ref) for ref in term.refs}
        total = _evaluate_term(term, leaves)
        return total if isinstance(total, Jet) else lift(total, k, order)

    def derivatives(self, point: Point, order: int = 2,
                    attribution: bool = False,
                    active: Iterable[Ref] | None = None) -> _Derivatives:
        """Exact derivatives up to ``order`` with respect to ``active``;
        only the terms that read an active coordinate are evaluated.

        ``grad``, ``hess`` and ``third`` (and every ``owner_hess`` block)
        are indexed by position in ``active``, with repeated refs removed
        in order: shapes (k,), (k, k) and (k, k, k).  ``active=None`` means
        every coordinate in stacked (z, u, theta) order.  Coordinates not
        in ``active`` enter as constants.
        """
        self.check_point(point)
        if active is None:
            active = [(space, j) for space, n in
                      (("z", self.nz), ("u", self.nu), ("theta", self.ntheta))
                      for j in range(n)]
        refs = tuple(dict.fromkeys(active))
        slot = {ref: j for j, ref in enumerate(refs)}
        k = len(refs)
        grad = np.zeros(k)
        hess = np.zeros((k, k)) if order >= 2 else None
        third = np.zeros((k, k, k)) if order >= 3 else None
        owner_hess = {} if attribution else None
        for term in self.terms:
            term_active = [r for r in term.refs if r in slot]
            if not term_active:
                continue
            jet = self.term_jet(term, point, term_active, order)
            g = [slot[r] for r in term_active]
            grad[g] += jet.grad
            if order >= 2:
                hess[np.ix_(g, g)] += jet.hess
                if owner_hess is not None:
                    block = owner_hess.setdefault(term.owner, np.zeros((k, k)))
                    block[np.ix_(g, g)] += jet.hess
            if order >= 3:
                third[np.ix_(g, g, g)] += jet.third
        return _Derivatives(refs, grad, hess, third, owner_hess)

    def first_order(self, point: Point) -> FirstOrder:
        full = self.derivatives(point, order=1)
        return FirstOrder(
            value=self.value(point),
            grad_z=full.grad[self.space_slice("z")],
            grad_u=full.grad[self.space_slice("u")],
            grad_theta=full.grad[self.space_slice("theta")],
        )

    def second_order(self, point: Point) -> SecondOrder:
        full = self.derivatives(point, order=2, attribution=True)
        zs, us, ts = (self.space_slice(s) for s in ("z", "u", "theta"))
        attribution = {
            owner: {"zz": block[zs, zs].copy(), "zu": block[zs, us].copy(),
                    "ztheta": block[zs, ts].copy()}
            for owner, block in full.owner_hess.items()
        }
        return SecondOrder(
            h_zz=full.hess[zs, zs].copy(),
            h_zu=full.hess[zs, us].copy(),
            h_ztheta=full.hess[zs, ts].copy(),
            attribution=attribution,
        )


def _evaluate_term(term: ObjectiveTerm, leaves: dict):
    """Weighted sum of ``term``'s pieces with its refs bound to ``leaves``
    (floats or jets); a domain error is re-raised naming the term's owner."""
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

        self.zi_refs = [("z", k) for k in model.coord_indices("z", i)]
        self.za_refs = [("z", k) for k in model.coord_indices("z", a)]
        self.ti_refs = [("theta", k) for k in model.module_theta_refs(i)]
        self.ta_refs = [("theta", k) for k in model.module_theta_refs(a)]
        # shared parameters may appear in both modules' sets; deduplicate
        self.active = list(dict.fromkeys(
            self.zi_refs + self.za_refs + self.ti_refs + self.ta_refs))
        self.theta_a_labels = [model.labels("theta")[k] for _, k in self.ta_refs]
        self._hess: np.ndarray | None = None

    def _point_with(self, zi=None, za=None) -> Point:
        p = self.point.copy()
        if zi is not None:
            p.z[self.model.var_slice("z", self.i)] = np.asarray(zi, dtype=float)
        if za is not None:
            p.z[self.model.var_slice("z", self.a)] = np.asarray(za, dtype=float)
        return p

    def value(self, zi=None, za=None) -> float:
        return self._objective.value(self._point_with(zi, za))

    def gradient(self, zi=None, za=None) -> dict[str, np.ndarray]:
        grad = self._objective.derivatives(self._point_with(zi, za),
                                           order=1, active=self.active).grad
        return {"z_i": grad[self._positions(self.zi_refs)],
                "z_a": grad[self._positions(self.za_refs)]}

    def _positions(self, refs: list[Ref]) -> list[int]:
        return [self.active.index(r) for r in refs]

    def _cross(self, rows: list[Ref], cols: list[Ref]) -> np.ndarray:
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
