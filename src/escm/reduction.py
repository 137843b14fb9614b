"""Induced structural-equation semantics and equivalence checking.

For separable models (no global coupling term, every local term strictly
convex in its own coordinate), each local energy induces a best-response
map: the argmin of the local term given parents and the paired exogenous
value.  Solving the resulting structural equations by one topological pass
must reproduce the energy equilibrium, before and after hard/soft surgery.
The checks here exercise exactly that equality and are deliberately built
on a different numerical route (bracketed scalar root-finding) than the
equilibrium solver they validate.

The checks evaluate their draws in chunks.  On the energy side a chunk
takes its undamped Newton steps together (``solver.newton_batch``) and a
draw that leaves that path is solved alone.  On the SCM side the route is
still bracketed root finding, now over a batch of draws: each draw runs
the bracket expansion and a port of ``scipy.optimize.brentq`` on Python
floats, and the slopes all of them need next are one batched jet
evaluation.  Every draw's numbers, and the error of the first draw that
fails, are bitwise those of evaluating the draws one by one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .causal import (EditedEnergy, HardSurgery, SoftSurgery, _compile_readout, _read,
                     apply_surgery)
from .engine import Objective, ObjectiveTerm, Point
from .errors import ClassViolationError, EnergyDomainError, NonConvexBlockError, QueryError
from .model import Model
from .expr import Env
from .solver import SolverConfig, finite_number, newton_batch, solve

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
_XTOL, _RTOL, _MAXITER = 1e-14, 4 * sys.float_info.epsilon, 100  # Python floats
_CHUNK = 256  # draws evaluated together; bounds the batch arrays of a check


def _brentq_steps(xpre: float, xcur: float, fpre: float, fcur: float):
    """``scipy.optimize.brentq(f, xpre, xcur, xtol=1e-14, rtol=4*eps)``
    given f at both ends, as a coroutine: it yields each point where it
    needs f, is sent f there, and returns the root.

    A line-by-line port of scipy's brentq.c, so the iterates, the root and
    the errors raised are the same as scipy's.
    """
    for x, fx in ((xpre, fpre), (xcur, fcur)):
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # for values that are neither 0 nor NaN, signbit(f) is f < 0
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf  # C gets inf or nan here, and so bisects below
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield xcur
        if math.isnan(fcur):
            raise ValueError(f"The function value at x={xcur} is NaN; solver cannot continue.")
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations.")


def _argmin_steps(x0: float, g0: float, node: str):
    """Root of the slope of a strictly convex scalar slice, from its slope
    ``g0 != 0`` at ``x0``, as a coroutine like :func:`_brentq_steps`."""
    # The derivative of a strictly convex coercive slice is increasing and
    # changes sign; expand away from x0 in the downhill direction.
    step = 1.0
    if g0 > 0.0:
        lo, hi, f_hi = x0 - step, x0, g0
        f_lo = yield lo
        while f_lo > 0.0:
            step *= 2.0
            lo = x0 - step
            if step > _BRACKET_LIMIT:
                raise NonConvexBlockError(node, f"z={x0:g}")
            f_lo = yield lo
    else:
        lo, f_lo, hi = x0, g0, x0 + step
        f_hi = yield hi
        while f_hi < 0.0:
            step *= 2.0
            hi = x0 + step
            if step > _BRACKET_LIMIT:
                raise NonConvexBlockError(node, f"z={x0:g}")
            f_hi = yield hi
    return (yield from _brentq_steps(lo, hi, f_lo, f_hi))


def _lockstep(steps: dict[int, object], evaluate) -> tuple[dict[int, float], dict[int, Exception]]:
    """Run coroutines like :func:`_argmin_steps` side by side; every
    round, ``evaluate(keys, points)`` computes the values all of them wait
    for as one batch.  Returns each coroutine's result or error by key."""
    results: dict[int, float] = {}
    errors: dict[int, Exception] = {}
    sent = dict.fromkeys(steps)  # the value each coroutine is sent next
    while sent:
        waiting = {}
        for key, value in sent.items():
            try:
                waiting[key] = steps[key].send(value)
            except StopIteration as stop:
                results[key] = stop.value
            except Exception as err:  # that coroutine's error; the others go on
                errors[key] = err
        keys = list(waiting)
        sent = dict(zip(keys, evaluate(keys, list(waiting.values())).tolist())) if keys else {}
    return results, errors


def _scalar_argmins(objective: Objective, term: ObjectiveTerm, x: np.ndarray,
                    ref: int, node: str) -> tuple[np.ndarray, dict[int, Exception]]:
    """Argmins of strictly convex scalar slices via bracketed root finding,
    one per column of ``x`` (dim, B): coordinate ``ref`` moves, the rest
    stays.  Every column takes the steps it takes alone; the slopes they
    need are evaluated as one batch per round.  Returns the roots and,
    keyed by column, the error a column meets; a domain error raises for
    the whole batch."""
    model = objective.model
    p = x.copy()  # row ``ref`` moves along the slices

    def jet(cols, order):
        return objective.term_jet(term, Point.from_flat(model, p[:, cols]), [ref], order)

    def slope(cols, values):
        p[ref, cols] = values
        return jet(cols, 1).grad[0]

    at_x0 = jet(slice(None), 2)  # its gradient is bitwise the order-1 one
    x0, g0 = x[ref].tolist(), at_x0.grad[0].tolist()
    errors: dict[int, Exception] = {}
    steps = {}
    for j, curvature in enumerate(at_x0.hess[0, 0].tolist()):
        # Strictly convex slices may still have zero curvature at isolated
        # points (quartics at their minimum); only negative curvature
        # disproves convexity outright.
        if curvature < 0.0:
            errors[j] = NonConvexBlockError(node, f"z={x0[j]:g}")
        elif g0[j] != 0.0:
            steps[j] = _argmin_steps(x0[j], g0[j], node)
    found, failed = _lockstep(steps, slope)
    errors.update(failed)
    roots = x[ref].copy()
    if found:
        cols = list(found)
        p[ref, cols] = roots[cols] = list(found.values())
        for j, curvature in zip(cols, jet(cols, 2).hess[0, 0].tolist()):
            if curvature < 0.0:
                errors[j] = NonConvexBlockError(node, f"z={found[j]:g}")
    return roots, errors


def _block_argmin(objective: Objective, term: ObjectiveTerm, point: Point,
                  refs: list[int], node: str) -> np.ndarray:
    """Argmin of a local term over its own coordinate block, parents and
    exogenous values frozen at ``point``."""
    if len(refs) == 1:
        roots, errors = _scalar_argmins(objective, term, point.x[:, None], refs[0], node)
        if errors:
            raise errors[0]
        return roots
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
        if theta is not None and np.shape(theta) != (self.model.ntheta,):
            raise QueryError("theta has the wrong length")
        z, errors = self._forward_many(u[:, None], [edited], theta)
        if errors:
            raise errors[0]
        return z[:, 0]

    def _forward_many(self, u: np.ndarray, edits: list[EditedEnergy],
                      theta=None) -> tuple[np.ndarray, dict[int, Exception]]:
        """Forward passes for the contexts ``u[:, j]`` (nu, B), each under
        its own applied edit ``edits[j]``; returns z (nz, B) and the error
        each failing pass meets, keyed by column.

        Node by node, the passes that share the node's term run as one
        batch: a hard target keeps its clamp, a soft target's blend is its
        own sub-batch.  A failing pass stops at its failing node.
        """
        model = self.model
        x = _context_batch(model, u, theta)
        by_edit: dict[int, tuple[EditedEnergy, list[int]]] = {}
        for j, edited in enumerate(edits):
            by_edit.setdefault(id(edited), (edited, []))[1].append(j)
        for edited, cols in by_edit.values():
            for ref, value in edited.clamps.items():
                x[ref, cols] = value
        terms = {key: {t.owner: t for t in edited.objective.terms}
                 for key, (edited, _) in by_edit.items()}
        errors: dict[int, Exception] = {}
        for node in self.order:
            refs = model.coord_indices(node)
            groups: dict[int, tuple[ObjectiveTerm, list[int]]] = {}
            for key, (edited, cols) in by_edit.items():
                if node not in edited.hard_targets:
                    term = terms[key][node]
                    groups.setdefault(id(term), (term, []))[1].extend(
                        j for j in cols if j not in errors)
            for term, cols in groups.values():
                if not cols:
                    continue
                cols = np.array(sorted(cols))
                values, failed = self._responses(node, term, x[:, cols])
                ok = np.array([i not in failed for i in range(len(cols))], dtype=bool)
                x[np.ix_(refs, cols[ok])] = values[:, ok]
                errors.update((int(cols[i]), err) for i, err in failed.items())
        return x[:model.nz], errors

    def _responses(self, node: str, term: ObjectiveTerm,
                   x: np.ndarray) -> tuple[np.ndarray, dict[int, Exception]]:
        """Best responses of ``node`` under ``term`` at every column of
        ``x`` (dim, b), as a (block, b) array, and the error each failing
        column meets."""
        refs = self.model.coord_indices(node)
        if len(refs) == 1:
            try:
                roots, errors = _scalar_argmins(self._objective, term, x, refs[0], node)
                return roots[None, :], errors
            except EnergyDomainError:
                pass  # a column left the term's domain: find it below
        # a vector block, or a batch with a domain error: each column alone
        values, errors = x[refs].copy(), {}
        for j in range(x.shape[1]):
            try:
                values[:, j] = _block_argmin(self._objective, term,
                                             Point.from_flat(self.model, x[:, j]), refs, node)
            except Exception as err:  # raised by the check, in draw order
                errors[j] = err
        return values, errors


def _context_batch(model: Model, u: np.ndarray, theta=None) -> np.ndarray:
    """Flat points (dim, B) with z = 0, the contexts ``u`` (nu, B) and
    ``theta`` (default: the model's defaults) in every column."""
    x = np.zeros((model.dim, u.shape[1]))
    x[model.coords("u")] = u
    theta = model.theta_defaults() if theta is None else np.asarray(theta, dtype=float)
    x[model.coords("theta")] = theta[:, None]
    return x


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


def _energy_sides(model: Model, u: np.ndarray, edited: EditedEnergy,
                  cfg: SolverConfig) -> tuple[np.ndarray, dict[int, Exception]]:
    """:func:`_energy_side` for the contexts ``u[:, j]`` (nu, B) under one
    applied edit; returns z (nz, B) and the error each failing draw meets.

    The draws take their undamped Newton steps as one batch; a draw that
    leaves that path starts again alone in :func:`_energy_side`, so every
    z is bitwise the per-draw one.
    """
    free = [i for i in model.coords("z") if i not in edited.clamps]
    x = _context_batch(model, u)
    for ref, value in edited.clamps.items():
        x[ref] = value
    # x holds the start solve takes for init "zeros"; a lone draw is
    # quickest in solve's float arithmetic
    if cfg.init == "zeros" and u.shape[1] > 1:
        x, alone = newton_batch(edited.objective, free, x, cfg)
    else:
        alone = np.ones(u.shape[1], dtype=bool)
    errors: dict[int, Exception] = {}
    for j in np.flatnonzero(alone).tolist():
        try:
            x[:model.nz, j] = _energy_side(model, u[:, j], edited, cfg)
        except Exception as err:  # raised by the check, in draw order
            errors[j] = err
    return x[:model.nz], errors


def _edit_key(edited: EditedEnergy):
    """Trials whose surgeries are equal share an edit; a trial whose
    surgeries cannot be hashed shares it with no other."""
    try:
        hash(edited.surgeries)
    except TypeError:
        return id(edited)
    return edited.surgeries


def _first_failure(count: int, *errors: dict[int, Exception]) -> int:
    """The first draw with an error in any of ``errors``, or ``count``."""
    return min((j for found in errors for j in found), default=count)


def equivalence_check(model: Model, trials: int = 100, seed: int = 0,
                      surgery_generator=None, tol: float = 1e-8,
                      cfg: SolverConfig | None = None) -> EquivalenceReport:
    """Compare energy equilibria with induced-SCM forward solutions over
    seeded random contexts and surgeries.

    Every trial's context and edit are drawn first, in trial order; then
    trials run in chunks, the energy side batched over trials that share
    an edit and the forward pass over trials that share a node's term.
    The report is bitwise the one of running the trials one by one, and
    so is the error raised, that of the first trial that fails.
    """
    _require_separable(model, "the equivalence check")
    scm = induce_scm(model)
    rng = np.random.default_rng(seed)
    generator = surgery_generator or _default_surgery
    cfg = cfg or SolverConfig()
    contexts, edits = [], []
    late = None  # an error in drawing or applying a trial's edit
    for t in range(trials):
        try:
            u = rng.uniform(-2.0, 2.0, size=model.nu)
            edited = apply_surgery(model, generator(rng, model, t))
        except Exception as err:  # raised after the trials before it ran
            late = err
            break
        contexts.append(u)
        edits.append(edited)
    records = []
    worst = 0.0
    for first in range(0, len(edits), _CHUNK):
        chunk = edits[first:first + _CHUNK]
        u = np.array(contexts[first:first + _CHUNK]).reshape(len(chunk), model.nu).T
        z_energy = np.zeros((model.nz, len(chunk)))
        errors: dict[int, Exception] = {}
        by_edit: dict[object, list[int]] = {}
        for j, edited in enumerate(chunk):
            by_edit.setdefault(_edit_key(edited), []).append(j)
        for cols in by_edit.values():
            z, found = _energy_sides(model, u[:, cols], chunk[cols[0]], cfg)
            z_energy[:, cols] = z
            errors.update((cols[i], err) for i, err in found.items())
        z_scm, scm_errors = scm._forward_many(u, chunk)
        bad = _first_failure(len(chunk), errors, scm_errors)
        if bad < len(chunk):  # a draw meets its energy side first
            raise errors.get(bad) or scm_errors[bad]
        deviations = np.max(np.abs(z_energy - z_scm), axis=0) if model.nz \
            else np.zeros(len(chunk))
        for j, (edited, deviation) in enumerate(zip(chunk, deviations.tolist())):
            worst = max(worst, deviation)
            kind = edited.surgeries[0].kind if edited.surgeries else "observational"
            records.append({"trial": first + j, "kind": kind, "deviation": deviation})
    if late is not None:
        raise late
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

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` draws, taken one after another, as the columns of a
        (nu, count) array."""
        values: list[float] = []
        for _ in range(count):
            for kind, a, b, dim in draws:
                values.extend((rng.uniform(a, b, size=dim) if kind == "uniform"
                               else a + b * rng.standard_normal(dim)).tolist())
        return np.array(values).reshape(count, model.nu).T

    return sample


def _statistic_values(model: Model, readouts: dict, u: np.ndarray,
                      z_energy: np.ndarray, z_scm: np.ndarray) -> dict[str, tuple]:
    """Every statistic at every draw, on both sides: name -> (energy
    values, SCM values), each (B,).  A readout that leaves its domain at
    some draw raises the error the draws read one by one would raise."""
    x_energy, x_scm = _context_batch(model, u), _context_batch(model, u)
    x_energy[:model.nz], x_scm[:model.nz] = z_energy, z_scm
    try:
        return {name: (np.max(z_energy, axis=0), np.max(z_scm, axis=0)) if compiled is None
                else (_read_batch(compiled, x_energy), _read_batch(compiled, x_scm))
                for name, compiled in readouts.items()}
    except EnergyDomainError:
        for j in range(u.shape[1]):  # raises at the first draw that fails
            for compiled in readouts.values():
                if compiled is not None:
                    _read(compiled, Point.from_flat(model, x_energy[:, j]))
                    _read(compiled, Point.from_flat(model, x_scm[:, j]))
        raise


def _read_batch(compiled, x: np.ndarray) -> np.ndarray:
    """A compiled readout at every column of ``x`` (dim, B)."""
    return np.broadcast_to(compiled.evaluate(Env(x)), x.shape[1:])


def pushforward_check(model: Model, sampler_spec: dict, trials: int = 1000,
                      surgeries=(), statistics: dict[str, str] | None = None,
                      seed: int = 0, tol: float = 1e-8,
                      cfg: SolverConfig | None = None) -> PushforwardReport:
    """Monte Carlo over the exogenous law: paired comparison of statistics
    under the energy semantics and the induced-SCM semantics.

    Pairing means identical draws must map to identical outcomes; this is
    a pointwise check, not a distributional test.  Draws are sampled one
    by one and evaluated in chunks; the report, and the error of the first
    failing draw, are bitwise those of evaluating the draws one by one.
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
    for first in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - first)
        u = sample(rng, count)
        z_energy, errors = _energy_sides(model, u, edited, cfg)
        z_scm, scm_errors = scm._forward_many(u, [edited] * count)
        bad = _first_failure(count, errors, scm_errors)
        stats = _statistic_values(model, readouts, u[:, :bad], z_energy[:, :bad], z_scm[:, :bad])
        if bad < count:  # a draw meets its energy side first, its readouts last
            raise errors.get(bad) or scm_errors[bad]
        deviations = np.max(np.abs(z_energy - z_scm), axis=0) if model.nz else np.zeros(count)
        pairs = {name: (a.tolist(), b.tolist()) for name, (a, b) in stats.items()}
        for j, deviation in enumerate(deviations.tolist()):
            worst = max(worst, deviation)
            for name, (a, b) in pairs.items():
                values_energy[name].append(a[j])
                values_scm[name].append(b[j])
                worst = max(worst, abs(a[j] - b[j]))

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
