"""Modularity diagnostics, equilibrium geometry, and gauge probes.

A mechanism is a constraint, an energy or a vector field, and each
modularity principle tests its residual: for an energy module the z_i
gradient, for a vector field the component F_i.  Locality (LAP) asks that
module i's residual not depend on the state or parameters of a node A it
is a non-descendant of; independence (ICM) asks that parent parameters
not deform it, to first order or mixed with i's own.  Each check builds
its residual's exact derivative rows and hands them to one shared routine
per principle, which gathers the blocks, reduces them and builds the
report (:class:`LapReport`, :class:`IcmReport`).  The energy checks make
one order-2 ``derivatives`` call per module i over its energy (LAP) and
one order-3 call per node over the terms that read z_i (ICM); the field
checks in ``dynamics`` read one field Jacobian per point (LAP) and one
order-2 jet of F_i (ICM).  Clean models read exactly zero and planted
coefficients are recovered bit-for-bit.  The penalties sum squared blocks
and skip a block with no nonzero entry, whose sum of squares is exactly
0.0.

The probe heads measure what a model commits to numerically at shared
sample points in a fixed chart: per-module energies, partials, gradients,
differences against a base point, and Hessians.  A gauge transform
(per-module positive scale and offset plus an invertible linear latent
map) is "preserved" by a head when the head's numbers do not move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import (Objective, Point, _as_objective, _module_terms,
                     _require_nondescendant)
from .errors import IndefiniteMetricError, QueryError, SingularSystemError
from .model import Model
from .solver import Equilibrium, finite_number, normalize_refs, schur_effective_hessian

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

    def _penalty_blocks(self):
        return self.pair, self.z_block, self.theta_block


def lap_check(model: Model, a: str, i: str, point: Point,
              tol: float = STRUCTURAL_TOL) -> LapReport:
    """Exact cross-partials of module i's pair energy with respect to the
    state and parameters of non-descendant A: the blocks d2E_i/(dz_i dz_A)
    and d2E_i/(dz_i dtheta_A), equal to ``effective_energy_pair``'s
    ``cross_zz`` and ``cross_ztheta``."""
    return _lap_reports(model, [(a, i)], point, tol)[0]


def _lap_reports(model: Model, pairs, point: Point,
                 tol: float = STRUCTURAL_TOL) -> list[LapReport]:
    """``lap_check`` of every (A, i) pair, in order, with one order-2
    derivative call per module i.

    Module i's energy is the same for every A, so one Hessian over z_i and
    the coordinates of all of i's pairs holds every block.  A coordinate
    none of i's terms reads has exactly zero cross-partials and maps to the
    zero slot k, which keeps the Hessian sized by what the terms read
    rather than by the model.
    """
    def residual_rows(i, refs):
        objective = Objective(model, _module_terms(model, i))
        read = {r for t in objective.terms for r in t.refs}
        zi = model.coord_indices(i)
        full = objective.derivatives(point, order=2,
                                     active=[r for r in zi + refs if r in read])
        # slot k of ``hess`` is a zero row and column: the slot of every
        # coordinate the terms do not read, and of ``model.dim``
        k = len(full.active)
        slot = np.full(model.dim + 1, k)
        slot[list(full.active)] = np.arange(k)
        hess = np.zeros((k + 1, k + 1))
        hess[:k, :k] = full.hess
        return hess[slot[zi]], slot

    return _locality_reports(model, pairs, residual_rows, tol)


def _locality_reports(model: Model, pairs, residual_rows, tol: float,
                      dynamics: bool = False, eliminated: tuple = ()) -> list[LapReport]:
    """Locality reports of every (A, i) pair, in order, from the
    derivative rows of each module's residual.

    ``residual_rows(i, refs)`` is called once per module i, with the flat
    indices of all of i's pairs' z_A and theta_A; it returns ``(rows,
    slot)`` such that ``rows[:, slot[r]]`` is the derivative of i's residual
    with respect to coordinate r, and ``slot[model.dim]`` is a zero column.
    The columns of all of i's blocks are gathered side by side once; each
    report's blocks are views of them, and one ``np.maximum.reduceat`` over
    their column maxima gives every pair's two maxima.  ``dynamics`` picks
    the parameter sets of ``Model.module_theta_refs``.
    """
    finite_number(tol, "tol", low=0.0)
    sources: dict[str, list[str]] = {}
    for a, i in pairs:
        _require_nondescendant(model, a, i)
        sources.setdefault(i, []).append(a)
    named = dict.fromkeys(a for a, _ in pairs)
    z_refs = {a: model.coord_indices(a) for a in named}
    theta_refs = {a: model.module_theta_refs(a, dynamics=dynamics) for a in named}
    labels = {a: [_param_label(model, r) for r in theta_refs[a]] for a in named}
    zero = model.dim  # stands for a coordinate with exactly zero partials
    reports = {}
    for i, sources_i in sources.items():
        # every pair's z and theta columns side by side, one segment each;
        # an empty segment holds the zero column so reduceat reads it as 0.0
        refs, starts = [], []
        for a in sources_i:
            for segment in (z_refs[a], theta_refs[a]):
                starts.append(len(refs))
                refs.extend(segment or (zero,))
        rows, slot = residual_rows(i, refs)
        blocks = rows[:, slot[refs]]
        maxima = np.maximum.reduceat(np.abs(blocks).max(axis=0), starts).tolist()
        for n, a in enumerate(sources_i):
            z_at, theta_at = starts[2 * n], starts[2 * n + 1]
            reports[(a, i)] = LapReport(
                pair=(a, i),
                z_block=blocks[:, z_at:theta_at],
                theta_block=blocks[:, theta_at:theta_at + len(theta_refs[a])],
                theta_labels=list(labels[a]),
                max_abs_z=maxima[2 * n],
                max_abs_theta=maxima[2 * n + 1],
                tol=tol,
                eliminated=eliminated,
            )
    return [reports[pair] for pair in pairs]


def _param_label(model: Model, index: int) -> str:
    """"Z2.a" for the parameter at a flat index."""
    return model.coord_label(index)[len("theta."):]


def _weight(weights, key, default: float) -> float:
    if isinstance(weights, dict):
        return float(weights.get(key, default))
    return 1.0 if weights is None else float(weights)


def _penalty(reports_by_sample, first, second, default: float = 0.0) -> float:
    """Mean over samples of the weighted squared Frobenius norms of each
    report's two blocks, summed in report order.

    ``first``/``second`` weight the two blocks: a scalar, or a dict keyed by
    the report's pair or node with ``default`` for missing keys.
    """
    total = 0.0
    for reports in reports_by_sample:
        for report in reports:
            key, block_1, block_2 = report._penalty_blocks()
            total += _weight(first, key, default) * _sum_sq(block_1)
            total += _weight(second, key, default) * _sum_sq(block_2)
    return total / len(reports_by_sample)


def _sum_sq(block: np.ndarray) -> float:
    # the squares of exact zeros sum to 0.0; a NaN entry takes the full path
    return float(np.sum(block ** 2)) if block.any() else 0.0


def lap_penalty(model: Model, samples: list[Point], lam=1.0, mu=1.0,
                default: float = 0.0) -> float:
    """Mean over samples of the weighted squared Frobenius norms of both
    cross-partial blocks, summed over all non-descendant pairs.

    ``lam``/``mu`` may be scalars or dicts keyed by the (A, i) pair;
    ``default`` is the weight for pairs missing from a dict.
    """
    if not samples:
        raise QueryError("lap_penalty needs at least one sample point")
    pairs = nondesc_pairs(model)
    return _penalty([_lap_reports(model, pairs, point) for point in samples],
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

    def _penalty_blocks(self):
        return self.node, self.d_residual_d_parent, self.mixed_parent_own


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

    def residual_derivatives(params):
        # Only terms that read z_i enter its residual, and a parameter none
        # of them reads has exactly zero derivatives there.
        terms = model._terms_reading(zi)
        read = {r for t in terms for r in t.refs}
        full = Objective(model, terms).derivatives(
            point, order=3, active=[r for r in zi + params if r in read])
        return full.hess, full.third, {ref: j for j, ref in enumerate(full.active)}

    return _independence_report(model, i, residual_derivatives, tol)


def _independence_report(model: Model, i: str, residual_derivatives, tol: float,
                         dynamics: bool = False) -> IcmReport:
    """The independence report of node i from the parameter derivatives of
    its residual.

    ``residual_derivatives(params)`` is called with the flat indices of the
    parent and own parameters, unless i has no parent parameter.  It
    returns ``(first, second, slot)``: the residual's row for a z_i
    coordinate r has the derivatives ``first[slot[r], slot[p]]`` and
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
    if parent_refs:
        d1, d2, slot = residual_derivatives(parent_refs + own_refs)
        (rows, at_rows), (cols_p, at_p), (cols_o, at_o) = (
            _present(slot, refs) for refs in (zi, parent_refs, own_refs))
        first[at_rows[:, None], at_p] = d1[rows[:, None], cols_p]
        mixed[at_rows[:, None, None], at_p[:, None], at_o] = \
            d2[rows[:, None, None], cols_p[:, None], cols_o]
    return IcmReport(
        node=i,
        parent_params=[_param_label(model, r) for r in parent_refs],
        own_params=[_param_label(model, r) for r in own_refs],
        d_residual_d_parent=first,
        mixed_parent_own=mixed,
        max_abs_first=_max_abs(first),
        max_abs_mixed=_max_abs(mixed),
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
    return _penalty([[icm_check(model, node, point) for node in model.dag.nodes]
                     for point in samples], alpha, beta, default)


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
    j = np.asarray(chart_jacobian, dtype=float)
    return j.T @ np.asarray(metric, dtype=float) @ j


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

    def pullback_point(self, point: Point) -> Point:
        if self._j_inv is None:
            return point.copy()
        pulled = point.copy()
        pulled.z[:] = self._j_inv @ point.z
        return pulled

    def scale_of(self, owner: str) -> float:
        return float(self.gauge.scale.get(owner, 1.0))

    def offset_of(self, owner: str) -> float:
        return float(self.gauge.offset.get(owner, 0.0))


def apply_gauge(model: Model, gauge: GaugeTransform) -> GaugedModel:
    """Gauged view evaluating each term as a_i E_i(J^{-1} w) + b_i."""
    return GaugedModel(model, gauge)


@dataclass
class ProbeReport:
    head: str
    outputs: list[dict[str, object]]
    base_z: np.ndarray | None = None


def _per_term_z_derivs(model: Model, point: Point, order: int):
    """value/gradient/Hessian of each term with respect to the flat z
    vector, keyed by owner."""
    objective = Objective.from_model(model)
    z = model.coords("z")
    out = {}
    for term in objective.terms:
        idx = [r for r in term.refs if r in z]  # z sits at [0, nz) of the flat order
        jet = objective.term_jet(term, point, idx, order)
        grad = np.zeros(model.nz)
        hess = np.zeros((model.nz, model.nz))
        grad[idx] = jet.grad
        if order >= 2:
            hess[np.ix_(idx, idx)] = jet.hess
        out[term.owner] = (jet.value, grad, hess)
    return out


def _head_payload(target, head: str, point: Point, base: Point | None):
    order = 2 if head == "H_Hess" else 1
    if isinstance(target, GaugedModel):
        raw = _per_term_z_derivs(target.model, target.pullback_point(point), order)
        payload = {}
        jinv = target._j_inv
        for owner, (value, grad, hess) in raw.items():
            a = target.scale_of(owner)
            value = a * value + target.offset_of(owner)
            grad = a * grad if jinv is None else a * (jinv.T @ grad)
            if head == "H_Hess":
                hess = a * hess if jinv is None else a * (jinv.T @ hess @ jinv)
            payload[owner] = (value, grad, hess)
    else:
        payload = _per_term_z_derivs(target, point, order)

    out = {}
    for owner, (value, grad, hess) in payload.items():
        if head == "H_E":
            out[owner] = float(value)
        elif head in ("H_dE", "H_gradE"):
            out[owner] = np.asarray(grad, dtype=float)
        elif head == "H_Hess":
            out[owner] = np.asarray(hess, dtype=float)
        elif head == "H_deltaE":
            out[owner] = float(value)  # differenced against base by caller
        else:
            raise QueryError(f"unknown probe head {head!r}")
    return out


def probe(target, head: str, points: list[Point], base: Point | None = None) -> ProbeReport:
    """Numeric readouts of one head per point per module.

    ``target`` is a model or a gauged view; for ``H_deltaE`` the base point
    defaults to the first sample point.
    """
    if head not in HEADS:
        raise QueryError(f"unknown probe head {head!r} (expected one of {HEADS})")
    if not points:
        raise QueryError("probe needs at least one sample point")
    base_point = base if base is not None else points[0]
    base_payload = _head_payload(target, head, base_point, None) if head == "H_deltaE" else None
    outputs = []
    for point in points:
        payload = _head_payload(target, head, point, base_point)
        if head == "H_deltaE":
            payload = {owner: float(payload[owner]) - float(base_payload[owner])
                       for owner in payload}
        outputs.append(payload)
    return ProbeReport(head=head, outputs=outputs,
                       base_z=base_point.z.copy() if head == "H_deltaE" else None)


def gauge_preserved(model: Model, gauge: GaugeTransform, heads=HEADS,
                    points: list[Point] | None = None, tol: float = 1e-9,
                    base: Point | None = None) -> dict[str, bool]:
    """Per-head preservation verdicts: does the gauged model report the
    same numbers as the base model at the same sample points?"""
    if points is None or not points:
        raise QueryError("gauge_preserved needs sample points")
    finite_number(tol, "tol", low=0.0)
    gauged = apply_gauge(model, gauge)
    verdicts = {}
    for head in heads:
        ref = probe(model, head, points, base)
        alt = probe(gauged, head, points, base)
        worst = 0.0
        for payload_ref, payload_alt in zip(ref.outputs, alt.outputs):
            for owner in payload_ref:
                delta = np.max(np.abs(np.asarray(payload_ref[owner], dtype=float)
                                      - np.asarray(payload_alt[owner], dtype=float)))
                worst = max(worst, float(delta))
        verdicts[head] = worst <= tol
    return verdicts
