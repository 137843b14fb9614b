"""Energy evaluation with exact first, second and third derivatives.

All differentiation is forward mode, run by the straight-line code that
:mod:`escm.codegen` generates once per term shape: no symbolic expansion,
no finite differences.  Each model term is compiled once at parse into an
:class:`ObjectiveTerm`, which every evaluation reads; only surgery builds
new ones.  A caller names the coordinates it differentiates with respect
to; the result is indexed by position in that list, so its size follows
the query and not the model.  Both derivative methods evaluate only the
terms that read one of those coordinates.  ``term_jet`` evaluates one
term and returns ``value, grad, hess, third`` as dense arrays over all of
them.  ``derivatives`` adds each kind of block, gradient, Hessian or third
tensor, into its output with one ``np.bincount`` over the flat targets of
a :class:`_Layout`, in term order.  So coordinates a term never mentions
contribute exact zeros, a structurally zero block is skipped, the sums
are those of adding the terms one after another, and the assembled
Hessian is bitwise symmetric.  It returns no energy value, which ``value``
computes.

A :class:`Point` may also hold a batch of points, ``x`` of shape
``(dim, B)``.  ``value``, ``term_jet`` and ``derivatives`` then carry a
trailing batch axis on everything they return, and each batch entry is
bitwise what its point alone gives.

A solve takes its energies and derivatives many times with respect to
one free list, and the solves of a query repeat terms and free lists.
A :class:`_Plan` is the structure of solves over one terms tuple and
free list: the terms that read a free coordinate, with their generated
functions and layout.  It holds no point value but one free Hessian,
under the shape and bytes of the coordinates codegen proves it reads
when none of them is free (for the corpus's weighted squares, only
theta).  A model holds the plans of objectives made only of its own
terms, at most ``_PLANS``, the least recently used going first; a soft
edit's blend is a new term on every edit, so its plan is made per solve.
:class:`_Planned` is the objective planned for one solve.  Its ``value``
runs the moving terms once per point, at order 1 where the plan's
Hessian key matches and at order 2 elsewhere, and adds them in term
order to the other terms' values, held for the last held coordinates;
``derivatives`` at that point assembles that run's blocks.  Both are
reached through the private ``_summed`` and ``_assembled``, so a tracer
of ``Objective.value`` and ``Objective.derivatives`` sees the solve's
evaluations, and they give bitwise what the whole objective gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from . import codegen
from .errors import EnergyDomainError, PairError, QueryError
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
    def from_flat(cls, model: Model, x: np.ndarray, copy: bool = True) -> "Point":
        """The point, or batch of points, whose flat vector is a copy of
        ``x``, shape ``(dim,)`` or ``(dim, B)``; with ``copy=False`` it is
        ``x`` itself, a float array, so writing the point writes ``x``."""
        point = cls.__new__(cls)
        point.x = np.array(x, dtype=float) if copy else x
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
        if not np.isfinite(point.x).all():
            raise QueryError("point contains non-finite entries")

    # -- evaluation ----------------------------------------------------------

    def value(self, point: Point) -> float:
        self.check_point(point)
        return self._summed(point.x)

    def _summed(self, x: np.ndarray):
        """``value`` at the checked flat point ``x``: every term's value,
        added in term order; :class:`_Planned` evaluates it from its plan."""
        return _sum(codegen._term_values(self.terms, x), x)

    def term_jet(self, term: ObjectiveTerm, point: Point,
                 active: Sequence[int], order: int) -> tuple:
        """``value, grad, hess, third`` of one term with the given flat
        indices active; everything else is frozen at the point.  Each block
        up to ``order`` is an array over all of ``active``, (k,), (k, k) or
        (k, k, k) plus the batch axis, holding +0.0 where the term does not
        read a coordinate; a block above ``order`` is None."""
        x = point.x
        k, batch = len(active), x.shape[1:]
        one = codegen._ActiveTerms([term], dict(zip(active, range(k))))
        if one.positions:
            positions = one.positions[0]
            value, grad, hess, third = one.blocks(x, order)[0]
            if batch and value.base is not None:  # a row of ``x``: the term is one symbol
                value = value.copy()
        else:  # the term reads no active coordinate
            value = codegen.term_value(term, x if batch else x.tolist())
            value = np.full(batch, value) if batch else float(value)
            positions, grad, hess, third = [], None, None, None
        whole = positions == [*range(k)]

        def dense(block, rank):
            shape = (k,) * rank + batch
            if block is None:
                return np.zeros(shape)
            if whole:
                return np.asarray(block).reshape(shape)
            out = np.zeros(shape)
            out[np.ix_(*[positions] * rank)] = np.asarray(block).reshape(
                (len(positions),) * rank + batch)
            return out

        return (value, dense(grad, 1), dense(hess, 2) if order >= 2 else None,
                dense(third, 3) if order >= 3 else None)

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
        return _Derivatives(refs, *self._assembled(point.x, refs, order, attribution))

    def _assembled(self, x: np.ndarray, refs: tuple, order: int, attribution: bool):
        """grad, hess, third and owner_hess of ``derivatives`` at the checked
        flat point ``x``; :class:`_Planned` evaluates them from its plan."""
        active = codegen._ActiveTerms(self.terms, {ref: j for j, ref in enumerate(refs)})
        blocks = active.blocks(x, order)
        return _Layout(active, blocks, order, len(refs), attribution).assemble(blocks,
                                                                              x.shape[1:])

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


_PLANS = 16  # the most plans a model holds; the least recently used goes first


class _Plan:
    """The structure of solves over ``terms`` with respect to the flat
    indices ``free``: the terms that read a free coordinate, the *moving*
    terms (:class:`escm.codegen._ActiveTerms`, with the function table of
    each order), the codes of the other terms, the held flat indices (those
    that are not free) as runs [start, stop), the :class:`_Layout` of the
    highest order yet asked, and ``reads``: the flat indices the moving
    terms' Hessians read if none of them is free, or None.  All of it comes
    from the generated code, so one plan serves every point of every solve
    over the same terms and free list.  With ``reads``, ``hessian`` holds
    the free Hessian last assembled under its :meth:`key`: its code reads
    nothing else, so it is bitwise the Hessian of every point with that
    key.  A miss replaces it."""

    __slots__ = ("moving", "rest", "held", "layout", "reads", "hessian")

    def __init__(self, terms: tuple, free, dim: int):
        self.moving = codegen._ActiveTerms(terms, {ref: j for j, ref in enumerate(free)})
        self.rest = [codegen._code(terms[n]) for n in self.moving.rest]
        self.held: list[tuple[int, int]] = []
        start = 0
        for ref in sorted(free):
            if ref > start:
                self.held.append((start, ref))
            start = ref + 1
        if start < dim:
            self.held.append((start, dim))
        self.layout: _Layout | None = None  # it serves the lower orders too
        self.reads = self.moving.hessian_reads()
        self.hessian: tuple | None = None  # (key, free Hessian)

    def key(self, x: np.ndarray) -> tuple | None:
        """The key of ``hessian`` at the flat point ``x``: its shape and the
        bytes of the coordinates ``reads`` names; None without ``reads``."""
        return None if self.reads is None else (x.shape, x[self.reads].tobytes())

    def hessian_at(self, key: tuple | None) -> np.ndarray | None:
        """The kept Hessian if ``key`` is its key, else None."""
        kept = self.hessian
        return kept[1] if key is not None and kept is not None and kept[0] == key else None


def _plan(objective: Objective, free) -> _Plan:
    """The plan of solves of ``objective`` over ``free``.  Its model holds
    the plans of objectives made only of its own terms, as a hard edit's
    are, and at most ``_PLANS`` of them; a plan of other terms, such as a
    soft edit's blend, which is new on every edit, is not kept."""
    model = objective.model
    plans = model._plans
    key = objective.terms, tuple(free)
    plan = plans.get(key)
    if plan is not None:
        plans.move_to_end(key)
        return plan
    plan = _Plan(objective.terms, free, objective.dim)
    own = {term.objective_term for term in model.terms}
    if own.issuperset(objective.terms):
        plans[key] = plan
        if len(plans) > _PLANS:
            plans.popitem(last=False)
    return plan


class _Planned(Objective):
    """``objective`` planned for one solve, which takes its derivatives
    only with respect to the flat indices ``free`` and with no attribution.

    Its :class:`_Plan`, which it may share with other solves of the same
    model, gives the moving terms, their layout and the Hessian its key
    matches.  The other terms read only held coordinates: their values are
    this solve's own, held in ``kept`` for the last held coordinates and
    computed again where those change.  ``value`` runs the moving terms at
    order 1 where the plan's Hessian key matches and at order 2 elsewhere,
    and holds their blocks and the key in ``last``, which a ``derivatives``
    call at the same point assembles.

    ``value`` and ``derivatives`` are those of :class:`Objective`, and give
    bitwise what it gives: every order gives a term the same value, and
    where a moving term raises at order 2 or 1, the moving terms are run
    again at order 0, in term order after the other terms passed, which
    raises the error of the whole sum or gives its value.  The Hessian
    ``derivatives`` returns may be the plan's own: a caller copies it
    before writing to it.
    """

    def __init__(self, objective: Objective, free):
        super().__init__(objective.model, objective.terms)
        self.plan = _plan(objective, free)
        self.kept = None  # (held key, every term's value with the moving ones None)
        self.last = None  # (shape, point, order, blocks, Hessian key) of the last ``value``

    def _kept_values(self, x: np.ndarray, point: bytes) -> list:
        """Every term's value at the flat point ``x``, whose bytes are
        ``point``, the moving ones None: the values of the terms that read
        only held coordinates are held under the shape and bytes of those,
        and computed again where they change."""
        row = 8 if x.ndim == 1 else 8 * x.shape[1]  # the bytes of one flat index
        plan = self.plan
        key = x.shape, b"".join([point[row * start:row * stop] for start, stop in plan.held])
        if self.kept is not None and self.kept[0] == key:
            return self.kept[1]
        batch = x.ndim > 1
        values = [None] * len(self.terms)
        for n, value in zip(plan.moving.rest, codegen._values(
                plan.rest, x if batch else x.tolist(), batch)):
            # a row of ``x``, from a term that is one symbol, is copied
            values[n] = value.copy() if batch and isinstance(value, np.ndarray) else value
        self.kept = key, values
        return values

    def _summed(self, x: np.ndarray):
        point = x.tobytes()
        try:
            values = self._kept_values(x, point)
        except EnergyDomainError:  # the whole sum names its first failing term
            return super()._summed(x)
        plan = self.plan
        key = plan.key(x)
        order = 1 if plan.hessian_at(key) is not None else 2
        try:
            blocks = plan.moving.blocks(x, order)
        except EnergyDomainError:  # order 0 decides: the other terms passed, so this
            moving = plan.moving.values(x)  # raises what the whole sum does
        else:
            self.last = x.shape, point, order, blocks, key
            moving = map(itemgetter(0), blocks)
        values = values.copy()
        for n, value in zip(plan.moving.where, moving):
            values[n] = value
        return _sum(values, x)

    def _assembled(self, x: np.ndarray, refs: tuple, order: int, attribution: bool):
        plan = self.plan
        last = self.last
        if last is not None and not (last[0] == x.shape and last[1] == x.tobytes()):
            last = None
        key = hess = None
        if order == 2:
            key = plan.key(x) if last is None else last[4]
            hess = plan.hessian_at(key)
        run = order if hess is None else 1
        blocks = last[3] if last is not None and last[2] == run else plan.moving.blocks(x, run)
        if plan.layout is None or plan.layout.order < run:
            plan.layout = _Layout(plan.moving, blocks, run, len(refs), False)
        grad, new, third, _ = plan.layout.assemble(blocks, x.shape[1:], run)
        if key is not None and hess is None:
            plan.hessian = key, new
        return grad, new if hess is None else hess, third, None


class _Layout:
    """Where ``derivatives`` adds up the blocks of the terms ``active``
    (a :class:`escm.codegen._ActiveTerms`) at ``order``: the flat target
    of each entry of each rank, and with ``attribution`` of each Hessian
    entry in its owner's block.

    A layout depends only on each term's positions and on which of its
    blocks are present, ``blocks`` at one point: both are fixed by the term
    and its active indices, so it serves the blocks of every point.  The
    targets of every rank come from the concatenated positions with a
    fixed number of numpy calls: an entry of rank r, read row-major in its
    term's block, opens a row of rank r + 1 over its term's positions.
    Ranks above the highest that has a block, such as the third rank of
    quadratic terms, get none."""

    def __init__(self, active, blocks, order: int, k: int, attribution: bool):
        self.order, self.k = order, k
        present = [[block[rank] is not None for block in blocks] for rank in range(1, order + 1)]
        # per rank: whether every block is present, and whether every
        # present block is a tuple of entries (not a numpy block)
        self.whole = [all(flags) for flags in present]
        self.tuples = [all(type(block[rank]) is tuple for block in blocks
                           if block[rank] is not None) for rank in range(1, order + 1)]
        top = order
        while top and not any(present[top - 1]):
            top -= 1
        sizes = np.array([len(positions) for positions in active.positions], dtype=np.intp)
        position = np.fromiter(chain.from_iterable(active.positions), np.intp, sizes.sum())
        start = np.cumsum(sizes) - sizes  # where each term's positions start
        target = position  # the flat target of every entry of the current rank
        self.targets: list[np.ndarray | None] = [None] * order
        # with attribution, the Hessian entries of each owner of an
        # evaluated term form one block, in order of the owner's first term
        # (none below order 2)
        self.owners = None if not attribution else {} if order < 2 else {
            owner: n for n, owner in enumerate(dict.fromkeys(active.owners))}
        self.grouped = None
        for rank in range(1, top + 1):
            if rank > 1:
                count = sizes ** (rank - 1)  # each term's entries of the rank below
                width = sizes.repeat(count)  # the row each of them opens
                shift = np.cumsum(width) - width - start.repeat(count)
                target = (target * k).repeat(width) + position[
                    np.arange(width.sum()) - shift.repeat(width)]
            self.targets[rank - 1] = _of_present(target, present[rank - 1], sizes, rank)
            if rank == 2 and attribution:
                group = np.array([self.owners[owner] for owner in active.owners], dtype=np.intp)
                self.grouped = _of_present(target + group.repeat(sizes * sizes) * (k * k),
                                           present[1], sizes, 2)

    def assemble(self, blocks, batch: tuple, order: int | None = None):
        """grad, hess, third and owner_hess, as ``derivatives`` returns
        them, from ``blocks`` up to ``order`` (the layout's if None): each
        kind of block goes into its output in one :meth:`_sum`.  Blocks of a
        lower order than the layout's serve: a gradient's place does not
        depend on the order."""
        k = self.k
        sums = [None, None, None]
        for rank in range(1, (order or self.order) + 1):
            sums[rank - 1] = self._sum(blocks, rank, self.targets[rank - 1], (k,) * rank, batch)
        owner_hess = None
        if self.owners is not None:
            owner_hess = dict(zip(self.owners, self._sum(
                blocks, 2, self.grouped, (len(self.owners), k, k), batch)))
        return sums[0], sums[1], sums[2], owner_hess

    def _sum(self, blocks, rank: int, target, shape: tuple, batch: tuple) -> np.ndarray:
        """An array of ``shape + batch`` holding the sum of the rank-``rank``
        blocks of ``blocks``, where entry i of the present ones goes to
        ``target[i]``.  ``np.bincount`` adds in input order from +0.0, so
        every output entry is the sum the terms give one after another; an
        absent (structurally zero) block is skipped, which changes no such
        sum."""
        shape += batch
        if target is None:
            return np.zeros(shape)
        values = map(itemgetter(rank), blocks)
        if not self.whole[rank - 1]:
            values = [block for block in values if block is not None]
        if batch:  # a block entry holds one value per point, last
            target = (target[:, None] * batch[0] + np.arange(batch[0])).ravel()
            flat = np.concatenate(list(values), axis=None)
        elif self.tuples[rank - 1]:  # floats: quicker than np.concatenate
            flat = np.fromiter(chain.from_iterable(values), float, len(target))
        else:
            flat = np.concatenate(list(values), axis=None)
        return np.bincount(target, flat, math.prod(shape)).reshape(shape)


def _sum(values: list, x: np.ndarray):
    """``values`` added one after another from 0.0, as the energy at the
    flat point ``x``: a float, or for a batch an array over its points."""
    total = 0.0
    for value in values:
        total += value
    return total if x.ndim == 1 else np.broadcast_to(total, x.shape[1:])


def _of_present(target: np.ndarray, present: list[bool], sizes: np.ndarray, rank: int):
    """The entries of ``target`` that belong to present blocks of rank
    ``rank``, for blocks over ``sizes`` positions each; None if no block
    is present."""
    if all(present):
        return target if present else None
    return target[np.array(present).repeat(sizes ** rank)] if any(present) else None


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
    if not isinstance(i, str):  # not a name, and perhaps not hashable
        model.descendants(a)  # as for any i, a bad ``a`` is named first
        model.var(i)  # raises QueryError
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
