"""Modularity diagnostics, equilibrium geometry, and gauge probes.

A mechanism is a constraint, an energy or a vector field, and each
modularity principle tests its residual: for an energy module the z_i
gradient, for a vector field the component F_i.  Locality (LAP) asks that
module i's residual not depend on the state or parameters of a node A it
is a non-descendant of; independence (ICM) asks that parent parameters
not deform it, to first order or mixed with i's own.  Each check builds
its residual's exact derivative rows and hands them to one shared routine
per principle, which gathers the blocks, reduces them and builds the
report (:class:`LapReport`, :class:`IcmReport`).  The locality checks and
penalties and ``escm diagnose`` read the same gathered block entries
(``_locality_blocks``), and diagnose builds no :class:`LapReport`; only a
check, whose pairs its caller names, tests that they are non-descendant.

A check differentiates only the terms that reach a block it reports: a
term that does not read a block's row and column coordinates adds exactly
0.0 to it.  The energy checks make one order-2 ``derivatives`` call per
module i over its terms that read z_i and a coordinate of one of i's pairs
(LAP), and one order-3 call per node over the terms that read z_i and a
parent parameter (ICM); the field checks in ``dynamics`` read one field
Jacobian per point (LAP) and one order-2 jet of F_i if it reads a parent
parameter (ICM).  Where no term is left, the call is skipped and the
blocks are exact zeros, so clean models make no derivative call at all.
Every entry is bitwise what differentiating every term gives, and planted
coefficients are recovered bit-for-bit.

The domain rule: each check still evaluates, once per report, the energy
(order 0) of every term it would differentiate without the filter, in the
order it would, so a point outside a term's domain raises
:class:`~escm.errors.EnergyDomainError` as before.  A term whose energy is
defined at the point but whose derivative is not, such as ``1/z.Z1`` at
1e-200, raises only where it enters a reported block.

The locality penalty reads the block entries and the independence penalty
the :class:`IcmReport` fields.  Weights are finite numbers, so a block whose
maximum is exactly 0.0 adds exactly 0.0 and is skipped; a NaN maximum
takes the full path.

The probe heads measure what a model commits to numerically at shared
sample points in a fixed chart: per-module energies, partials, gradients,
differences against a base point, and Hessians.  A gauge transform
(per-module positive scale and offset plus an invertible linear latent
map) is "preserved" by a head when the head's numbers do not move.

Every requested head is read from one pass over the terms per point: each
term is differentiated once in the z coordinates it reads, at order 2 when
``H_Hess`` is requested and at order 1 otherwise, and ``H_deltaE`` adds
one pass at its base point (by default the first sample point), read
before the sample points.  On a gauged view the pass pulls each point's z
back through J^{-1} and turns each owner's value, gradient and Hessian
into a E + b, a J^{-T} g and a J^{-T} H J^{-1}.  ``gauge_preserved``
compares one pass over the model with one over its gauged view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .codegen import term_value
from .engine import Objective, Point, _as_objective, _module_terms, _require_nondescendant
from .errors import IndefiniteMetricError, QueryError, SingularSystemError
from .model import Model
from .solver import (Equilibrium, finite_array, finite_number, normalize_refs,
                     schur_effective_hessian)

__all__ = [
    "LapReport",
    "IcmReport",
    "GaugeTransform",
    "ProbeReport",
    "HEADS",
    "nondesc_pairs",
    "lap_check",
    "lap_penalty",
    "icm_check",
    "icm_penalty",
    "causal_metric",
    "metric_in_chart",
    "susceptibility",
    "apply_gauge",
    "GaugedModel",
    "probe",
    "gauge_preserved",
]

HEADS = ("H_E", "H_dE", "H_gradE", "H_deltaE", "H_Hess")

STRUCTURAL_TOL = 1e-10


def _max_abs(block: np.ndarray) -> float:
    return float(np.abs(block).max()) if block.size else 0.0


def nondesc_pairs(model: Model) -> list[tuple[str, str]]:
    """All ordered pairs (A, i) with i a non-descendant of A."""
    out = []
    for a in model.dag.nodes:
        nondesc = model.nondescendants(a)
        out.extend((a, i) for i in model.dag.nodes if i in nondesc)
    return out


# ---------------------------------------------------------------------------
# Locality (non-descendant) checks


@dataclass
class LapReport:
    pair: tuple[str, str]
    z_block: np.ndarray
    theta_block: np.ndarray
    theta_labels: list[str]
    max_abs_z: float
    max_abs_theta: float
    tol: float
    eliminated: tuple = ()  # field components solved out before the check

    @property
    def passed(self) -> bool:
        # a NaN maximum fails, wherever it sits
        return self.max_abs_z <= self.tol and self.max_abs_theta <= self.tol


def lap_check(model: Model, a: str, i: str, point: Point,
              tol: float = STRUCTURAL_TOL) -> LapReport:
    """Exact cross-partials of module i's pair energy with respect to the
    state and parameters of non-descendant A: the blocks d2E_i/(dz_i dz_A)
    and d2E_i/(dz_i dtheta_A), equal to ``effective_energy_pair``'s
    ``cross_zz`` and ``cross_ztheta``."""
    return _lap_reports(model, [(a, i)], point, tol)[0]


def _lap_reports(model: Model, pairs, point: Point,
                 tol: float = STRUCTURAL_TOL) -> list[LapReport]:
    """``lap_check`` of every (A, i) pair, in order."""
    finite_number(tol, "tol", low=0.0)
    for a, i in pairs:
        _require_nondescendant(model, a, i)
    return _locality_reports(model, pairs, _lap_blocks(model, pairs, point), tol)


def _lap_blocks(model: Model, pairs, point: Point) -> list[tuple]:
    """The locality blocks of every (A, i) pair, in order (see
    ``_locality_blocks``), with at most one order-2 derivative call per
    module i.

    Module i's energy is the same for every A, so one Hessian over z_i and
    the coordinates of all of i's pairs holds every block.  Only the terms
    that read z_i and one of those pair coordinates are differentiated: any
    other term adds nothing to a block, and a module with no such term has
    exactly zero blocks and makes no call.  A coordinate the differentiated
    terms do not read has exactly zero cross-partials and maps to the zero
    slot k, which keeps the Hessian sized by what the terms read rather
    than by the model.
    """
    energies = _Energies(model, point)

    def residual_rows(i, refs):
        zi = model.coord_indices(i)
        zi_refs, pair_refs = set(zi), set(refs)
        terms = _module_terms(model, i)
        # the energy of every term an unfiltered call would differentiate
        energies.evaluate([t for t in terms if not zi_refs.isdisjoint(t.refs)
                           or not pair_refs.isdisjoint(t.refs)])
        # only a term that reads z_i and a pair coordinate reaches a block
        terms = [t for t in terms if not zi_refs.isdisjoint(t.refs)
                 and not pair_refs.isdisjoint(t.refs)]
        if not terms:
            return None
        read = {r for t in terms for r in t.refs}
        full = Objective(model, terms).derivatives(
            point, order=2, active=[r for r in zi + refs if r in read])
        # slot k of ``hess`` is a zero row and column: the slot of every
        # coordinate the terms do not read, and of ``model.dim``
        k = len(full.active)
        slot = np.full(model.dim + 1, k)
        slot[list(full.active)] = np.arange(k)
        hess = np.zeros((k + 1, k + 1))
        hess[:k, :k] = full.hess
        return hess[slot[zi]], slot

    return _locality_blocks(model, pairs, residual_rows)


class _Energies:
    """The energy of each term at one point, evaluated at most once.

    The domain rule of the module docstring: a check first evaluates the
    energy of every term it would differentiate without the filter, so a
    point outside a term's domain raises as it would if every such term
    were differentiated.
    """

    def __init__(self, model: Model, point: Point):
        self.model, self.point = model, point
        self.values = None  # the point as floats, once it has been checked
        self.seen: set[int] = set()

    def evaluate(self, terms) -> None:
        if self.values is None:
            Objective(self.model, ()).check_point(self.point)
            self.values = self.point.x.tolist()
        for term in terms:
            if id(term) not in self.seen:
                self.seen.add(id(term))
                term_value(term, self.values)


def _locality_blocks(model: Model, pairs, residual_rows,
                     dynamics: bool = False) -> list[tuple]:
    """The locality blocks of every (A, i) pair, in order, from the
    derivative rows of each module's residual.

    ``residual_rows(i, refs)`` is called once per module i, with the flat
    indices of all of i's pairs' z_A and theta_A; it returns ``(rows,
    slot)`` such that ``rows[:, slot[r]]`` is the derivative of i's residual
    with respect to coordinate r, and ``slot[model.dim]`` is a zero column,
    or None when every one of those derivatives is exactly zero.  The
    columns of all of i's blocks are gathered side by side once, and one
    ``np.maximum.reduceat`` over their column maxima gives every pair's two
    maxima.  Each pair's entry is ``(blocks, z_at, theta_at, theta_end,
    max_abs_z, max_abs_theta)``: its z block is ``blocks[:, z_at:theta_at]``
    and its theta block ``blocks[:, theta_at:theta_end]``.  ``dynamics``
    picks the parameter sets of ``Model.module_theta_refs``.  The pairs
    are taken as non-descendant pairs, unchecked.
    """
    sources: dict[str, list[str]] = {}
    for a, i in pairs:
        sources.setdefault(i, []).append(a)
    named = dict.fromkeys(a for a, _ in pairs)
    z_refs = {a: model.coord_indices(a) for a in named}
    theta_refs = {a: model.module_theta_refs(a, dynamics=dynamics) for a in named}
    zero = model.dim  # stands for a coordinate with exactly zero partials
    entries = {}
    for i, sources_i in sources.items():
        # every pair's z and theta columns side by side, one segment each;
        # an empty segment holds the zero column so reduceat reads it as 0.0
        refs, starts = [], []
        for a in sources_i:
            for segment in (z_refs[a], theta_refs[a]):
                starts.append(len(refs))
                refs.extend(segment or (zero,))
        found = residual_rows(i, refs)
        if found is None:
            blocks = np.zeros((len(model.coord_indices(i)), len(refs)))
            maxima = [0.0] * len(starts)
        else:
            rows, slot = found
            blocks = rows[:, slot[refs]]
            maxima = np.maximum.reduceat(np.abs(blocks).max(axis=0), starts).tolist()
        for n, a in enumerate(sources_i):
            theta_at = starts[2 * n + 1]
            entries[(a, i)] = (blocks, starts[2 * n], theta_at, theta_at + len(theta_refs[a]),
                               maxima[2 * n], maxima[2 * n + 1])
    return [entries[pair] for pair in pairs]


def _locality_reports(model: Model, pairs, found: list[tuple], tol: float,
                      dynamics: bool = False, eliminated: tuple = ()) -> list[LapReport]:
    """A report per (A, i) pair from its ``_locality_blocks`` entry; each
    report's blocks are views of its module's gathered columns."""
    labels: dict[str, list[str]] = {}
    reports = []
    for (a, i), (blocks, z_at, theta_at, theta_end, max_z, max_theta) in zip(pairs, found):
        if a not in labels:
            labels[a] = [_param_label(model, r)
                         for r in model.module_theta_refs(a, dynamics=dynamics)]
        reports.append(LapReport(
            pair=(a, i),
            z_block=blocks[:, z_at:theta_at],
            theta_block=blocks[:, theta_at:theta_end],
            theta_labels=list(labels[a]),
            max_abs_z=max_z,
            max_abs_theta=max_theta,
            tol=tol,
            eliminated=eliminated,
        ))
    return reports


def _locality_penalty(pairs, found_by_sample, lam, mu, default: float) -> float:
    """Mean over samples of the weighted squared Frobenius norms of each
    (A, i) pair's z and theta blocks, summed in pair order, from each
    sample's ``_locality_blocks`` entries of ``pairs``; ``lam`` and ``mu``
    weight the two blocks (see ``_weights``)."""
    lam, mu = _weights(lam, "lam", default), _weights(mu, "mu", default)
    total = 0.0
    for found in found_by_sample:
        for pair, (blocks, z_at, theta_at, theta_end, max_z, max_theta) in zip(pairs, found):
            w_z, w_theta = lam(pair), mu(pair)
            if max_z != 0.0:
                total += w_z * float(np.sum(blocks[:, z_at:theta_at] ** 2))
            if max_theta != 0.0:
                total += w_theta * float(np.sum(blocks[:, theta_at:theta_end] ** 2))
    return total / len(found_by_sample)


def _param_label(model: Model, index: int) -> str:
    """"Z2.a" for the parameter at a flat index."""
    return model.coord_label(index)[len("theta."):]


def _weights(weights, name: str, default: float):
    """The weight of a pair or node as a function of its key, from a scalar
    (None reads 1.0) or a dict with ``default`` for missing keys; each is
    checked to be a finite number, a dict value when it is looked up (the
    penalties look up every key, a zero block's too)."""
    if isinstance(weights, dict):
        default = finite_number(default, "default")
        return lambda key: finite_number(weights.get(key, default), f"{name}[{key!r}]")
    weight = 1.0 if weights is None else finite_number(weights, name)
    return lambda key: weight


def lap_penalty(model: Model, samples: list[Point], lam=1.0, mu=1.0,
                default: float = 0.0) -> float:
    """Mean over samples of the weighted squared Frobenius norms of both
    cross-partial blocks, summed over all non-descendant pairs.

    ``lam``/``mu`` may be finite scalars or dicts keyed by the (A, i) pair;
    ``default`` is the weight for pairs missing from a dict.
    """
    if not samples:
        raise QueryError("lap_penalty needs at least one sample point")
    pairs = nondesc_pairs(model)
    return _locality_penalty(pairs, [_lap_blocks(model, pairs, point) for point in samples],
                             lam, mu, default)


# ---------------------------------------------------------------------------
# Mechanism-independence (parameter) checks


@dataclass
class IcmReport:
    node: str
    parent_params: list[str]
    own_params: list[str]
    d_residual_d_parent: np.ndarray       # (dim_i, n_parent_params)
    mixed_parent_own: np.ndarray          # (dim_i, n_parent_params, n_own_params)
    max_abs_first: float
    max_abs_mixed: float
    tol: float

    @property
    def passed_first(self) -> bool:
        return self.max_abs_first <= self.tol

    @property
    def passed_mixed(self) -> bool:
        return self.max_abs_mixed <= self.tol

    @property
    def passed(self) -> bool:
        return self.passed_first and self.passed_mixed


def icm_check(model: Model, i: str, point: Point,
              tol: float = STRUCTURAL_TOL) -> IcmReport:
    """Parameter derivatives of node i's residual (the z_i gradient of the
    total energy) with respect to parent parameters, and the mixed
    parent-own second derivatives.  Nodes without parents pass with empty
    blocks.

    A parent's parameter set is usage-based (declared plus read), so a
    child parameter reused inside a parent's mechanism is correctly
    attributed to the parent side of the check."""
    if model.var(i).kind != "endogenous":
        raise QueryError(f"{i!r} is not endogenous")
    zi = model.coord_indices(i)

    def residual_derivatives(parent_refs, own_refs):
        # Only terms that read z_i enter its residual, and of those only the
        # terms that read a parent parameter reach a reported block; a
        # parameter none of them reads has exactly zero derivatives there.
        terms = model._terms_reading(zi)
        _Energies(model, point).evaluate(terms)
        parents = set(parent_refs)
        terms = [t for t in terms if not parents.isdisjoint(t.refs)]
        if not terms:
            return None
        read = {r for t in terms for r in t.refs}
        full = Objective(model, terms).derivatives(
            point, order=3, active=[r for r in zi + parent_refs + own_refs if r in read])
        return full.hess, full.third, {ref: j for j, ref in enumerate(full.active)}

    return _independence_report(model, i, residual_derivatives, tol)


def _independence_report(model: Model, i: str, residual_derivatives, tol: float,
                         dynamics: bool = False) -> IcmReport:
    """The independence report of node i from the parameter derivatives of
    its residual.

    ``residual_derivatives(parent_refs, own_refs)`` is called with the flat
    indices of the parent and own parameters, unless i has no parent
    parameter.  It returns None when every derivative the report reads is
    exactly zero, or ``(first, second, slot)``: the residual's row for a
    z_i coordinate r has the derivatives ``first[slot[r], slot[p]]`` and
    ``second[slot[r], slot[p], slot[q]]`` in parameters p and q, and a
    coordinate without a slot has exactly zero derivatives.  A parameter
    shared by parent and own sets holds one slot.  ``dynamics`` picks the
    parameter sets of ``Model.module_theta_refs``.
    """
    finite_number(tol, "tol", low=0.0)
    parent_refs = list(dict.fromkeys(k for p in model.dag.parents(i)
                                     for k in model.module_theta_refs(p, dynamics=dynamics)))
    own_refs = model.module_theta_refs(i, dynamics=dynamics)
    zi = model.coord_indices(i)
    first = np.zeros((len(zi), len(parent_refs)))
    mixed = np.zeros((len(zi), len(parent_refs), len(own_refs)))
    max_first = max_mixed = 0.0
    found = residual_derivatives(parent_refs, own_refs) if parent_refs else None
    if found is not None:
        d1, d2, slot = found
        (rows, at_rows), (cols_p, at_p), (cols_o, at_o) = (
            _present(slot, refs) for refs in (zi, parent_refs, own_refs))
        first[at_rows[:, None], at_p] = d1[rows[:, None], cols_p]
        mixed[at_rows[:, None, None], at_p[:, None], at_o] = \
            d2[rows[:, None, None], cols_p[:, None], cols_o]
        max_first, max_mixed = _max_abs(first), _max_abs(mixed)
    return IcmReport(
        node=i,
        parent_params=[_param_label(model, r) for r in parent_refs],
        own_params=[_param_label(model, r) for r in own_refs],
        d_residual_d_parent=first,
        mixed_parent_own=mixed,
        max_abs_first=max_first,
        max_abs_mixed=max_mixed,
        tol=tol,
    )


def _present(slot: dict[int, int], refs: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The slots of the ``refs`` that have one, and their positions in
    ``refs``, as index arrays."""
    at = [n for n, r in enumerate(refs) if r in slot]
    return (np.array([slot[refs[n]] for n in at], dtype=np.intp),
            np.array(at, dtype=np.intp))


def icm_penalty(model: Model, samples: list[Point], alpha=1.0, beta=1.0,
                default: float = 0.0) -> float:
    """Mean over samples of the weighted squared norms of the residual's
    parent-parameter derivatives and the mixed parent-own interactions."""
    if not samples:
        raise QueryError("icm_penalty needs at least one sample point")
    icm = [[icm_check(model, node, point) for node in model.dag.nodes] for point in samples]
    return _independence_penalty(icm, alpha, beta, default)


def _independence_penalty(reports_by_sample, alpha, beta, default: float) -> float:
    """Mean over samples of the weighted squared norms of each report's
    first and mixed blocks, summed in report order; ``alpha`` and ``beta``
    weight the two blocks (see ``_weights``)."""
    alpha, beta = _weights(alpha, "alpha", default), _weights(beta, "beta", default)
    total = 0.0
    for reports in reports_by_sample:
        for report in reports:
            w_first, w_mixed = alpha(report.node), beta(report.node)
            if report.max_abs_first != 0.0:
                total += w_first * float(np.sum(report.d_residual_d_parent ** 2))
            if report.max_abs_mixed != 0.0:
                total += w_mixed * float(np.sum(report.mixed_parent_own ** 2))
    return total / len(reports_by_sample)


# ---------------------------------------------------------------------------
# Equilibrium geometry


def causal_metric(target, eq: Equilibrium, subset=None, scales=None,
                  mode: str = "minimize") -> np.ndarray:
    """Free-block curvature at a stable equilibrium: a local inner product
    on latent perturbations, in energetic units.

    ``subset`` restricts to a coordinate subset through the effective
    (re-minimized or clamped) curvature.  ``scales`` applies per-module
    energy rescalings via the term attribution blocks.
    """
    objective = _as_objective(target)
    z_refs = [r for r in eq.free if r in objective.model.coords("z")]
    if not z_refs:
        raise QueryError("equilibrium has no free z coordinates")

    full = objective.derivatives(eq.point, order=2, attribution=scales is not None,
                                 active=z_refs)
    if scales is None:
        metric = full.hess
    else:
        metric = np.zeros((len(z_refs), len(z_refs)))
        for owner, block in full.owner_hess.items():
            metric = metric + float(scales.get(owner, 1.0)) * block

    try:
        np.linalg.cholesky(metric)
    except np.linalg.LinAlgError:
        raise IndefiniteMetricError(
            "free-block curvature is not positive definite (saddle); "
            "no metric is defined here") from None
    if not eq.hessian_pd:
        raise IndefiniteMetricError("equilibrium was flagged as a saddle")

    if subset is None:
        return metric
    keep_refs = normalize_refs(objective, subset)
    positions = []
    for ref in keep_refs:
        if ref not in z_refs:
            raise QueryError(f"subset coordinate {ref} is not a free z coordinate")
        positions.append(z_refs.index(ref))
    return schur_effective_hessian(metric, positions, mode=mode)


def metric_in_chart(metric: np.ndarray, chart_jacobian: np.ndarray) -> np.ndarray:
    """Congruence transform of the metric under a linear chart z = J zeta."""
    metric = finite_array(metric, "metric")
    j = finite_array(chart_jacobian, "chart Jacobian")
    if metric.ndim != 2 or j.ndim != 2 or not metric.shape[0] == metric.shape[1] == j.shape[0]:
        raise QueryError("the metric must be square, with one chart Jacobian row per row")
    with np.errstate(all="ignore"):
        out = j.T @ metric @ j
    if not np.isfinite(out).all():
        raise QueryError("the metric in the chart overflows")
    return out


def _exact_zero_support(objective: Objective, eq: Equilibrium,
                        wrt: int) -> list[int] | None:
    """Free coordinates that can respond to ``wrt``, or None when the
    structural argument does not apply and a dense solve is required.

    Valid only for separable objectives where every clamped endogenous
    coordinate lost its local term (a hard edit): then responses flow
    strictly downstream of the terms that read ``wrt``, and all other
    responses are exactly zero.
    """
    model = objective.model
    z = model.coords("z")
    if objective.has_global() or model.mask_warnings:
        return None
    if any(r not in z for r in eq.free):
        return None
    retained = {t.owner for t in objective.terms}
    for ref in eq.clamps:
        if ref in z:
            owner = next(v.name for v in model.endogenous
                         if ref in model.coord_indices(v.name))
            if owner in retained:
                return None  # conditioning on an un-edited module: dense path
    responders: set[str] = set()
    for term in objective.terms:
        if model.term_by_label.get(term.owner) is None:
            continue
        if model.term_by_label[term.owner].owner_kind != "local":
            continue
        if wrt in term.refs:
            responders.add(term.owner)
            responders |= set(model.descendants(term.owner))
    return [r for r in eq.free
            if any(r in model.coord_indices(v) for v in responders)]


def susceptibility(target, eq: Equilibrium, wrt) -> np.ndarray:
    """Implicit-function response of the equilibrium to one coordinate.

    ``wrt`` is a u coordinate, a theta coordinate, or a clamped z
    coordinate; the result is aligned with ``eq.free``.  On separable
    models the structurally-unreachable entries are exactly zero.
    """
    objective = _as_objective(target)
    (wref,) = normalize_refs(objective, [wrt])
    if wref in objective.model.coords("z") and wref not in eq.clamps:
        raise QueryError("susceptibility with respect to a z coordinate "
                         "requires it to be clamped")
    if wref in eq.free:
        raise QueryError("cannot differentiate with respect to a free coordinate")

    nfree = len(eq.free)
    hess = objective.derivatives(eq.point, order=2, active=list(eq.free) + [wref]).hess
    h_ff, rhs = hess[:nfree, :nfree], hess[:nfree, nfree]
    response = np.zeros(nfree)

    support = _exact_zero_support(objective, eq, wref)
    if support is not None:
        if not support:
            return response
        pos = [eq.free.index(r) for r in support]
        h_ff, rhs = h_ff[np.ix_(pos, pos)], rhs[pos]
    else:
        pos = slice(None)
    try:
        response[pos] = np.linalg.solve(h_ff, -rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError("free-block curvature is singular") from None
    return response


# ---------------------------------------------------------------------------
# Gauge transforms and probe heads


@dataclass
class GaugeTransform:
    """Per-module energy rescaling/offset plus a linear latent map.

    The gauged energy of module i at the numeric point w is
    ``a_i * E_i(J^{-1} w) + b_i`` with u and theta untouched.
    """

    scale: dict[str, float] = field(default_factory=dict)
    offset: dict[str, float] = field(default_factory=dict)
    j: np.ndarray | None = None

    def __post_init__(self):
        if not (isinstance(self.scale, dict) and isinstance(self.offset, dict)):
            raise QueryError("gauge scale and offset must map term owners to numbers")
        self.scale = {o: finite_number(a, f"gauge scale for {o!r}") for o, a in self.scale.items()}
        self.offset = {o: finite_number(b, f"gauge offset for {o!r}") for o, b in self.offset.items()}
        for owner, a in self.scale.items():
            if not a > 0:
                raise QueryError(f"gauge scale for {owner!r} must be positive")
        if self.j is not None:
            try:
                self.j = np.asarray(self.j, dtype=float)
            except (TypeError, ValueError):
                raise QueryError("gauge latent map must be a matrix of numbers") from None
            if self.j.ndim != 2 or self.j.shape[0] != self.j.shape[1] \
                    or not np.all(np.isfinite(self.j)):
                raise QueryError("gauge latent map must be a finite square matrix")
            if abs(np.linalg.det(self.j)) <= 1e-12:
                raise QueryError("gauge latent map is singular")


class GaugedModel:
    """Read-only gauged view of a model, evaluable by the probe heads."""

    def __init__(self, model: Model, gauge: GaugeTransform):
        if gauge.j is not None and gauge.j.shape[0] != model.nz:
            raise QueryError("gauge latent map does not match the z dimension")
        unknown = [o for o in list(gauge.scale) + list(gauge.offset)
                   if o not in {t.label for t in model.terms}]
        if unknown:
            raise QueryError(f"gauge references unknown term owners: {unknown}")
        self.model = model
        self.gauge = gauge
        self._j_inv = None if gauge.j is None else np.linalg.inv(gauge.j)


def apply_gauge(model: Model, gauge: GaugeTransform) -> GaugedModel:
    """Gauged view evaluating each term as a_i E_i(J^{-1} w) + b_i."""
    return GaugedModel(model, gauge)


@dataclass
class ProbeReport:
    head: str
    outputs: list[dict[str, object]]


# where each head but H_deltaE reads a term's (value, gradient, Hessian)
_HEAD_SLOT = {"H_E": 0, "H_dE": 1, "H_gradE": 1, "H_Hess": 2}


def _probe_heads(target, heads, points: list[Point],
                 base: Point | None = None) -> dict[str, list[dict[str, object]]]:
    """The outputs of every requested head, keyed by head, from one pass
    over the terms per point; see the module docstring."""
    for head in heads:
        if head not in HEADS:
            raise QueryError(f"unknown probe head {head!r} (expected one of {HEADS})")
    if not points:
        raise QueryError("probe needs at least one sample point")
    out: dict[str, list] = {head: [] for head in heads}
    if not out:
        return out
    gauge = target.gauge if isinstance(target, GaugedModel) else None
    model = target if gauge is None else target.model
    jinv = None if gauge is None else target._j_inv
    objective = Objective.from_model(model)
    order = 2 if "H_Hess" in out else 1
    nz = model.nz

    def read(point: Point) -> dict:
        """owner -> (value, gradient, Hessian) of every term at the point;
        the Hessian is None at order 1."""
        if jinv is not None:
            point = point.copy()
            point.z[:] = jinv @ point.z
        found = {}
        for term in objective.terms:
            idx = [r for r in term.refs if r < nz]  # z sits at [0, nz) of the flat order
            value, g, h, _ = objective.term_jet(term, point, idx, order)
            grad = np.zeros(nz)
            grad[idx] = g
            hess = None
            if order == 2:
                hess = np.zeros((nz, nz))
                hess[np.ix_(idx, idx)] = h
            if gauge is not None:
                a = float(gauge.scale.get(term.owner, 1.0))
                value = a * value + float(gauge.offset.get(term.owner, 0.0))
                grad = a * (grad if jinv is None else jinv.T @ grad)
                if hess is not None:
                    hess = a * (hess if jinv is None else jinv.T @ hess @ jinv)
            found[term.owner] = (float(value), grad, hess)
        return found

    if "H_deltaE" in out:
        at_base = read(points[0] if base is None else base)
    for point in points:
        found = read(point)
        for head, outputs in out.items():
            if head == "H_deltaE":
                outputs.append({owner: value - at_base[owner][0]
                                for owner, (value, _, _) in found.items()})
            else:
                outputs.append({owner: entry[_HEAD_SLOT[head]] for owner, entry in found.items()})
    return out


def probe(target, head: str, points: list[Point], base: Point | None = None) -> ProbeReport:
    """Numeric readouts of one head per point per module.

    ``target`` is a model or a gauged view; for ``H_deltaE`` the base point
    defaults to the first sample point.
    """
    return ProbeReport(head=head, outputs=_probe_heads(target, [head], points, base)[head])


def gauge_preserved(model: Model, gauge: GaugeTransform, points: list[Point],
                    heads=HEADS, tol: float = 1e-9,
                    base: Point | None = None) -> dict[str, bool]:
    """Per-head preservation verdicts: does the gauged model report the
    same numbers as the base model at the same sample points?"""
    if not points:
        raise QueryError("gauge_preserved needs sample points")
    finite_number(tol, "tol", low=0.0)
    gauged = apply_gauge(model, gauge)
    return _preserved(_probe_heads(model, heads, points, base),
                      _probe_heads(gauged, heads, points, base), tol)


def _preserved(reference: dict, gauged: dict, tol: float) -> dict[str, bool]:
    """Per-head verdicts: is every output of ``gauged`` within ``tol`` of
    the same output of ``reference``?  Both are ``_probe_heads`` results."""
    verdicts = {}
    for head, outputs in reference.items():
        worst = 0.0
        for payload_ref, payload_alt in zip(outputs, gauged[head]):
            for owner in payload_ref:
                delta = np.max(np.abs(np.asarray(payload_ref[owner], dtype=float)
                                      - np.asarray(payload_alt[owner], dtype=float)))
                worst = max(worst, float(delta))
        verdicts[head] = worst <= tol
    return verdicts
