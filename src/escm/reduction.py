"""Induced structural-equation semantics and equivalence checking.

For separable models (no global coupling term, every local term strictly
convex in its own coordinate), each local energy induces a best-response
map: the argmin of the local term given parents and the paired exogenous
value.  Solving the resulting structural equations by one topological pass
must reproduce the energy equilibrium, before and after hard/soft surgery.
The checks here exercise exactly that equality and are deliberately built
on a different numerical route (bracketed scalar root-finding) than the
equilibrium solver they validate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .causal import (EditedEnergy, HardSurgery, SoftSurgery, _compile_readout, _read,
                     apply_surgery)
from .engine import Objective, ObjectiveTerm, Point
from .errors import ClassViolationError, NonConvexBlockError, QueryError
from .model import Model
from .solver import SolverConfig, finite_number, solve

__all__ = [
    "InducedScm",
    "EquivalenceReport",
    "PushforwardReport",
    "induce_scm",
    "scm_solve",
    "equivalence_check",
    "pushforward_check",
    "contraction_factor",
    "forward_init",
]

_BRACKET_LIMIT = 1e12


def _scalar_argmin(objective: Objective, term: ObjectiveTerm, point: Point,
                   ref: int, node: str) -> float:
    """Argmin of a strictly convex scalar slice via bracketed root finding."""
    p = point.copy()  # ``ref`` moves along the slice; the rest stays at ``point``

    def dphi(x: float) -> float:
        p.x[ref] = x
        return float(objective.term_jet(term, p, [ref], order=1).grad[0])

    x0 = point.x.item(ref)
    # Strictly convex slices may still have zero curvature at isolated
    # points (quartics at their minimum); only negative curvature disproves
    # convexity outright.
    curv = float(objective.term_jet(term, point, [ref], order=2).hess[0, 0])
    if curv < 0.0:
        raise NonConvexBlockError(node, f"z={x0:g}")
    g0 = dphi(x0)
    if g0 == 0.0:
        return x0
    # The derivative of a strictly convex coercive slice is increasing and
    # changes sign; expand away from x0 in the downhill direction.
    step = 1.0
    if g0 > 0.0:
        lo, hi = x0 - step, x0
        while dphi(lo) > 0.0:
            step *= 2.0
            lo = x0 - step
            if step > _BRACKET_LIMIT:
                raise NonConvexBlockError(node, f"z={x0:g}")
    else:
        lo, hi = x0, x0 + step
        while dphi(hi) < 0.0:
            step *= 2.0
            hi = x0 + step
            if step > _BRACKET_LIMIT:
                raise NonConvexBlockError(node, f"z={x0:g}")
    root = brentq(dphi, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps)
    p.x[ref] = root
    if float(objective.term_jet(term, p, [ref], order=2).hess[0, 0]) < 0.0:
        raise NonConvexBlockError(node, f"z={root:g}")
    return float(root)


def _block_argmin(objective: Objective, term: ObjectiveTerm, point: Point,
                  refs: list[int], node: str) -> np.ndarray:
    """Argmin of a local term over its own coordinate block, parents and
    exogenous values frozen at ``point``."""
    if len(refs) == 1:
        return np.array([_scalar_argmin(objective, term, point, refs[0], node)])
    # Multi-component block: guarded Newton on the block gradient.
    p = point.copy()
    for _ in range(100):
        g = objective.term_jet(term, p, refs, order=1).grad
        if float(np.max(np.abs(g))) <= 1e-12:
            h = objective.term_jet(term, p, refs, order=2).hess
            try:
                np.linalg.cholesky(h)
            except np.linalg.LinAlgError:
                raise NonConvexBlockError(node, "block minimizer") from None
            return p.x[refs]
        h = objective.term_jet(term, p, refs, order=2).hess
        try:
            np.linalg.cholesky(h)
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            raise NonConvexBlockError(node, "block Newton") from None
        t = 1.0
        base = float(g @ g)
        while t > 1e-16:
            cand = p.copy()
            cand.x[refs] += t * step
            g_new = objective.term_jet(term, cand, refs, order=1).grad
            if float(g_new @ g_new) < base:
                p = cand
                break
            t *= 0.5
        else:
            raise NonConvexBlockError(node, "block line search")
    raise NonConvexBlockError(node, "no convergence in block argmin")


@dataclass
class InducedScm:
    """Structural equations induced by blockwise argmins of local terms."""

    model: Model
    order: list[str] = field(init=False)

    def __post_init__(self):
        self.order = self.model.dag.topo_order()
        self._objective = Objective.from_model(self.model)

    def mechanism(self, node: str, point: Point,
                  override: ObjectiveTerm | None = None) -> np.ndarray:
        """f_node: best response given parent and exogenous values in ``point``."""
        term = override if override is not None else \
            self.model.local_term(node).objective_term
        return _block_argmin(self._objective, term, point,
                             self.model.coord_indices(node), node)

    def solve(self, u, surgeries=(), theta=None) -> np.ndarray:
        """One topological forward pass; returns the full z vector."""
        return self._forward(u, apply_surgery(self.model, surgeries), theta)

    def _forward(self, u, edited: EditedEnergy, theta=None) -> np.ndarray:
        """The forward pass of :meth:`solve` under an applied edit: hard
        targets keep their clamps, every other node its edited term."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.model.nu,):
            raise QueryError("context u has the wrong length")
        terms = {t.owner: t for t in edited.objective.terms}
        point = Point.for_model(self.model, u=u, theta=theta)
        for ref, value in edited.clamps.items():
            point.x[ref] = value
        for node in self.order:
            if node not in edited.hard_targets:
                point.x[self.model.coord_indices(node)] = self.mechanism(node, point, terms[node])
        return point.z.copy()


def _require_separable(model: Model, what: str) -> None:
    if model.global_term is not None:
        raise ClassViolationError(
            f"{what} requires a separable energy, but the model declares a "
            "global coupling term; the induced structural equations would "
            "not reproduce its equilibria")
    if model.mask_warnings:
        raise ClassViolationError(
            f"{what} requires locality; the model carries parent-mask "
            f"violations: {model.mask_warnings[0]}")


def induce_scm(model: Model, probe_points: list[Point] | None = None) -> InducedScm:
    """Build the induced structural equations; verifies blockwise convexity
    at the probe points (default: the origin)."""
    _require_separable(model, "the induced structural model")
    scm = InducedScm(model)
    probes = probe_points or [Point.for_model(model)]
    objective = Objective.from_model(model)
    for node in scm.order:
        term = model.local_term(node).objective_term
        refs = model.coord_indices(node)
        for p in probes:
            h = objective.term_jet(term, p, refs, order=2).hess
            # negative curvature disproves blockwise convexity; zero is
            # inconclusive (e.g. quartics at their minimum) and admitted
            if float(np.min(np.linalg.eigvalsh(h))) < 0.0:
                raise NonConvexBlockError(node, "probe point")
    return scm


def scm_solve(scm: InducedScm, u, surgeries=(), theta=None) -> np.ndarray:
    """Forward-solve the induced structural equations in context ``u``."""
    return scm.solve(u, surgeries, theta)


def forward_init(model: Model, clamps: dict[int, float]) -> Point:
    """Initialization by a topological best-response pass.

    Exact for separable blockwise-convex models; used as a solver warm
    start elsewhere.  Clamped coordinates keep their clamp values; global
    terms are ignored for initialization purposes.
    """
    point = Point.for_model(model)
    for ref, val in clamps.items():
        point.x[ref] = val
    objective = Objective.from_model(model)
    for node in model.dag.topo_order():
        unclamped = [r for r in model.coord_indices(node) if r not in clamps]
        if not unclamped:
            continue
        try:
            point.x[unclamped] = _block_argmin(
                objective, model.local_term(node).objective_term, point, unclamped, node)
        except NonConvexBlockError:
            continue  # leave this block at its current values
    return point


# ---------------------------------------------------------------------------
# Equivalence checking


@dataclass
class EquivalenceReport:
    trials: list[dict]
    max_deviation: float
    tol: float
    passed: bool
    seed: int


def shifted_local_source(model: Model, node: str, delta: float) -> str:
    """Source of the node's local term with z_node replaced by (z_node - delta).

    This is the biasing form of a soft edit: a blend of shifted copies of
    the same residual keeps the parent-gradient zero at the blockwise
    argmin, so the induced structural equations still reproduce the joint
    minimum.  Blending in an unrelated replacement does not, in general.
    """
    expr = model.local_term(node).expr
    spans = [(sym.start, sym.end) for sym in expr.symbols()
             if sym.parts[0] == "z" and len(sym.parts) == 2 and sym.parts[1] == node]
    src = expr.source
    for start, end in sorted(spans, reverse=True):
        src = src[:start] + f"({src[start:end]} - ({float(delta)!r}))" + src[end:]
    return src


def _default_surgery(rng: np.random.Generator, model: Model, index: int):
    """Cycle observational / hard / soft edits over the trial index.

    Soft edits are mean shifts of the target's own mechanism (see
    :func:`shifted_local_source`)."""
    mode = index % 3
    if mode == 0:
        return []
    node = str(rng.choice([v.name for v in model.endogenous]))
    dim = model.var(node).dim
    if mode == 1:
        value = rng.uniform(-2.0, 2.0, size=dim)
        return [HardSurgery(node, tuple(float(v) for v in value))]
    delta = float(rng.uniform(-2.0, 2.0))
    lam = float(rng.uniform(0.0, 1.0))
    return [SoftSurgery(node, lam, shifted_local_source(model, node, delta), {})]


def _energy_side(model: Model, u: np.ndarray, surgeries,
                 cfg: SolverConfig) -> np.ndarray:
    """Equilibrium z in context ``u`` under ``surgeries``, given as a list
    or as the ``EditedEnergy`` they were already applied to."""
    edited = surgeries if isinstance(surgeries, EditedEnergy) else \
        apply_surgery(model, surgeries)
    clamps = dict(edited.clamps)
    clamps.update(zip(model.coords("u"), u.tolist()))
    free = [i for i in model.coords("z") if i not in edited.clamps]
    eq = solve(edited.objective, clamps=clamps, free=free, cfg=cfg)
    return eq.point.z.copy()


def equivalence_check(model: Model, trials: int = 100, seed: int = 0,
                      surgery_generator=None, tol: float = 1e-8,
                      cfg: SolverConfig | None = None) -> EquivalenceReport:
    """Compare energy equilibria with induced-SCM forward solutions over
    seeded random contexts and surgeries."""
    _require_separable(model, "the equivalence check")
    scm = induce_scm(model)
    rng = np.random.default_rng(seed)
    generator = surgery_generator or _default_surgery
    cfg = cfg or SolverConfig()
    records = []
    worst = 0.0
    for t in range(trials):
        u = rng.uniform(-2.0, 2.0, size=model.nu)
        surgeries = generator(rng, model, t)
        edited = apply_surgery(model, surgeries)
        z_energy = _energy_side(model, u, edited, cfg)
        z_scm = scm._forward(u, edited)
        deviation = float(np.max(np.abs(z_energy - z_scm))) if model.nz else 0.0
        worst = max(worst, deviation)
        kind = surgeries[0].kind if surgeries else "observational"
        records.append({"trial": t, "kind": kind, "deviation": deviation})
    return EquivalenceReport(records, worst, tol, worst <= tol, seed)


@dataclass
class PushforwardReport:
    statistics: dict[str, dict[str, float]]
    paired_max_deviation: float
    trials: int
    tol: float
    passed: bool
    seed: int


def _build_sampler(model: Model, spec: dict):
    """Independent per-variable exogenous sampler from a JSON spec; a draw
    stacks the variables' blocks in declaration order, the order of u."""
    draws = []
    for v in model.exogenous:
        entry = spec.get(v.name)
        if entry is None:
            raise QueryError(f"sampler spec missing exogenous variable {v.name!r}")
        if not isinstance(entry, dict):
            raise QueryError(f"sampler entry for {v.name!r} must be an object")
        dist = entry.get("dist")
        if dist == "uniform":
            lo, hi = (finite_number(entry.get(key), f"sampler {key!r} of {v.name!r}")
                      for key in ("lo", "hi"))
            draws.append(("uniform", lo, hi, v.dim))
        elif dist in ("gauss", "normal"):
            mu, sigma = (finite_number(entry.get(key, default), f"sampler {key!r} of {v.name!r}")
                         for key, default in (("mu", 0.0), ("sigma", 1.0)))
            if sigma < 0:
                raise QueryError(f"negative sigma for {v.name!r}")
            draws.append(("gauss", mu, sigma, v.dim))
        else:
            raise QueryError(f"unknown distribution {dist!r} for {v.name!r}")

    def sample(rng: np.random.Generator) -> np.ndarray:
        return np.concatenate([np.zeros(0)] + [
            rng.uniform(a, b, size=dim) if kind == "uniform" else a + b * rng.standard_normal(dim)
            for kind, a, b, dim in draws])

    return sample


def pushforward_check(model: Model, sampler_spec: dict, trials: int = 1000,
                      surgeries=(), statistics: dict[str, str] | None = None,
                      seed: int = 0, tol: float = 1e-8,
                      cfg: SolverConfig | None = None) -> PushforwardReport:
    """Monte Carlo over the exogenous law: paired comparison of statistics
    under the energy semantics and the induced-SCM semantics.

    Pairing means identical draws must map to identical outcomes; this is
    a pointwise check, not a distributional test.
    """
    _require_separable(model, "the pushforward check")
    scm = induce_scm(model)
    sample = _build_sampler(model, sampler_spec)
    statistics = statistics or {"z_all_max": None}
    readouts = {name: None if source is None else _compile_readout(model, source)
                for name, source in statistics.items()}
    rng = np.random.default_rng(seed)
    cfg = cfg or SolverConfig()
    edited = apply_surgery(model, surgeries)

    values_energy: dict[str, list[float]] = {k: [] for k in statistics}
    values_scm: dict[str, list[float]] = {k: [] for k in statistics}
    worst = 0.0
    for _ in range(trials):
        u = sample(rng)
        z_energy = _energy_side(model, u, edited, cfg)
        z_scm = scm._forward(u, edited)
        worst = max(worst, float(np.max(np.abs(z_energy - z_scm))) if model.nz else 0.0)
        p_energy = Point.for_model(model, z=z_energy, u=u)
        p_scm = Point.for_model(model, z=z_scm, u=u)
        for name, compiled in readouts.items():
            if compiled is None:
                a, b = float(np.max(z_energy)), float(np.max(z_scm))
            else:
                a, b = _read(compiled, p_energy), _read(compiled, p_scm)
            values_energy[name].append(a)
            values_scm[name].append(b)
            worst = max(worst, abs(a - b))

    summary = {}
    for name in statistics:
        ve = np.asarray(values_energy[name])
        vs = np.asarray(values_scm[name])
        summary[name] = {
            "mean_energy": float(ve.mean()),
            "mean_scm": float(vs.mean()),
            "var_energy": float(ve.var()),
            "var_scm": float(vs.var()),
        }
    return PushforwardReport(summary, worst, trials, tol, worst <= tol, seed)


def contraction_factor(model: Model, points: list[Point], iterations: int = 60) -> float:
    """Operator-norm estimate of the best-response Jacobian.

    Power iteration on J^T J at each point gives the largest singular
    value of the blockwise-argmin Jacobian; a value below one witnesses
    the contraction-style well-posedness alternative.  (The spectral
    radius would be useless here: on a DAG the Jacobian is nilpotent.)
    """
    _require_separable(model, "the contraction estimate")
    objective = Objective.from_model(model)
    worst = 0.0
    for point in points:
        jac = np.zeros((model.nz, model.nz))
        for node in model.dag.topo_order():
            own = model.coord_indices(node)
            parents = model.dag.parents(node)
            if not parents:
                continue
            parent_refs = [i for p in parents for i in model.coord_indices(p)]
            refs = own + parent_refs
            h = objective.term_jet(model.local_term(node).objective_term, point, refs,
                                   order=2).hess
            h_oo = h[: len(own), : len(own)]
            h_op = h[: len(own), len(own):]
            try:
                block = -np.linalg.solve(h_oo, h_op)
            except np.linalg.LinAlgError:
                raise NonConvexBlockError(node, "jacobian of the best response") from None
            jac[np.ix_(own, parent_refs)] = block  # z sits at [0, nz) of the flat order
        vec = np.ones(model.nz) / np.sqrt(model.nz)
        sigma = 0.0
        gram = jac.T @ jac
        for _ in range(iterations):
            nxt = gram @ vec
            norm = float(np.linalg.norm(nxt))
            if norm == 0.0:
                sigma = 0.0
                break
            sigma = norm
            vec = nxt / norm
        worst = max(worst, float(np.sqrt(sigma)))
    return worst
