"""Induced structural-equation semantics and equivalence checking.

For separable models (no global coupling term, every local term strictly
convex in its own coordinate), each local energy induces a best-response
map: the argmin of the local term given parents and the paired exogenous
value.  Solving the resulting structural equations by one topological pass
must reproduce the energy equilibrium, before and after hard/soft surgery.
The checks here exercise exactly that equality and are deliberately built
on a different numerical route (bracketed scalar root-finding) than the
equilibrium solver they validate.

The checks evaluate their draws in chunks.  On the energy side the
draws of a chunk whose edits share their terms run through the solver's
Newton loop as one batch, damped steps included, so no draw is handed
off or solved again.  The energy side starts from zeros, never from the
forward sweep, so the checks refuse any other ``SolverConfig.init``:
from the sweep it would compare the sweep with itself.  On the SCM side the route is still bracketed root finding, now
over a batch of draws: each draw runs the bracket expansion and a port
of ``scipy.optimize.brentq`` on Python floats, and the slopes all of
them need next are one batched jet evaluation.  Every draw's numbers are
bitwise those of evaluating the draws one by one.

A chunk runs as one batch or, if the batch raises, replays draw by draw
on the per-draw path (:func:`_energy_side`, :meth:`InducedScm._forward`,
``causal._read``): each draw's energy side, SCM side and readouts in
turn, so the error raised is the one of the first draw that fails.  The
batched helpers keep no per-draw errors; a check that fails ends there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .causal import (EditedEnergy, HardSurgery, SoftSurgery, _compile_readout, _read,
                     apply_surgery)
from .engine import Objective, ObjectiveTerm, Point
from .errors import ClassViolationError, EscmError, NonConvexBlockError, QueryError
from .model import Model
from .expr import Env
from .solver import SolverConfig, _newton, finite_number, solve

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


def _lockstep(steps: dict[int, object], evaluate) -> dict[int, float]:
    """Run coroutines like :func:`_argmin_steps` side by side; every
    round, ``evaluate(keys, points)`` computes the values all of them wait
    for as one batch.  Returns each coroutine's result by key; a
    coroutine's error propagates."""
    results: dict[int, float] = {}
    sent = dict.fromkeys(steps)  # the value each coroutine is sent next
    while sent:
        waiting = {}
        for key, value in sent.items():
            try:
                waiting[key] = steps[key].send(value)
            except StopIteration as stop:
                results[key] = stop.value
        keys = list(waiting)
        sent = dict(zip(keys, evaluate(keys, list(waiting.values())).tolist())) if keys else {}
    return results


def _scalar_argmins(objective: Objective, term: ObjectiveTerm, x: np.ndarray,
                    ref: int, node: str) -> np.ndarray:
    """Argmins of strictly convex scalar slices via bracketed root finding,
    one per column of ``x`` (dim, B): coordinate ``ref`` moves, the rest
    stays.  Every column takes the steps it takes alone; the slopes they
    need are evaluated as one batch per round."""
    model = objective.model
    p = x.copy()  # row ``ref`` moves along the slices

    def jet(cols, order):
        return objective.term_jet(term, Point.from_flat(model, p[:, cols]), [ref], order)

    def slope(cols, values):
        p[ref, cols] = values
        return jet(cols, 1).grad[0]

    at_x0 = jet(slice(None), 2)  # its gradient is bitwise the order-1 one
    x0, g0 = x[ref].tolist(), at_x0.grad[0].tolist()
    steps = {}
    for j, curvature in enumerate(at_x0.hess[0, 0].tolist()):
        # Strictly convex slices may still have zero curvature at isolated
        # points (quartics at their minimum); only negative curvature
        # disproves convexity outright.
        if curvature < 0.0:
            raise NonConvexBlockError(node, f"z={x0[j]:g}")
        if g0[j] != 0.0:
            steps[j] = _argmin_steps(x0[j], g0[j], node)
    found = _lockstep(steps, slope)
    roots = x[ref].copy()
    if found:
        cols = list(found)
        p[ref, cols] = roots[cols] = list(found.values())
        for root, curvature in zip(found.values(), jet(cols, 2).hess[0, 0].tolist()):
            if curvature < 0.0:
                raise NonConvexBlockError(node, f"z={root:g}")
    return roots


def _block_argmin(objective: Objective, term: ObjectiveTerm, point: Point,
                  refs: list[int], node: str) -> np.ndarray:
    """Argmin of a local term over its own coordinate block, parents and
    exogenous values frozen at ``point``."""
    if len(refs) == 1:
        return _scalar_argmins(objective, term, point.x[:, None], refs[0], node)
    # Multi-component block: guarded Newton on the block gradient.
    p = point.copy()
    for _ in range(100):
        jet = objective.term_jet(term, p, refs, order=2)  # its gradient is the order-1 one
        g = jet.grad
        done = float(np.max(np.abs(g))) <= 1e-12
        try:
            np.linalg.cholesky(jet.hess)
            if done:
                return p.x[refs]
            step = np.linalg.solve(jet.hess, -g)
        except np.linalg.LinAlgError:
            raise NonConvexBlockError(node, "block minimizer" if done else "block Newton") from None
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
        return self._forward_many(u[:, None], [edited], theta)[:, 0]

    def _forward_many(self, u: np.ndarray, edits: list[EditedEnergy], theta=None) -> np.ndarray:
        """Forward passes for the contexts ``u[:, j]`` (nu, B), each under
        its own applied edit ``edits[j]``; returns z (nz, B).

        Node by node, the passes that share the node's term run as one
        batch: a hard target keeps its clamp, a soft target's blend is its
        own sub-batch.  A scalar block's sub-batch finds its roots
        together, a vector block's columns one by one.
        """
        model = self.model
        by_edit = _by_edit(edits)
        x = _context_batch(model, u, theta, by_edit)
        owners = [{t.owner: t for t in edited.objective.terms} for edited, _ in by_edit]
        for node in self.order:
            refs = model.coord_indices(node)
            groups: dict[int, tuple[ObjectiveTerm, list[int]]] = {}
            for (edited, cols), terms in zip(by_edit, owners):
                if node not in edited.hard_targets:
                    groups.setdefault(id(terms[node]), (terms[node], []))[1].extend(cols)
            for term, cols in groups.values():
                cols = sorted(cols)
                if len(refs) == 1:
                    x[refs[0], cols] = _scalar_argmins(self._objective, term, x[:, cols],
                                                       refs[0], node)
                    continue
                for j in cols:
                    x[refs, j] = _block_argmin(self._objective, term,
                                               Point.from_flat(model, x[:, j]), refs, node)
        return x[:model.nz]


def _by_edit(edits: list[EditedEnergy]) -> list[tuple[EditedEnergy, list[int]]]:
    """Every distinct edit object in ``edits`` with the columns it edits."""
    found: dict[int, tuple[EditedEnergy, list[int]]] = {}
    for j, edited in enumerate(edits):
        found.setdefault(id(edited), (edited, []))[1].append(j)
    return list(found.values())


def _context_batch(model: Model, u: np.ndarray, theta=None, by_edit=()) -> np.ndarray:
    """Flat points (dim, B) with the contexts ``u`` (nu, B), ``theta``
    (default: the model's defaults) in every column, and z = 0 but for
    the clamps of each edit of ``by_edit`` in its columns."""
    x = np.zeros((model.dim, u.shape[1]))
    x[model.coords("u")] = u
    theta = model.theta_defaults() if theta is None else np.asarray(theta, dtype=float)
    x[model.coords("theta")] = theta[:, None]
    for edited, cols in by_edit:
        for ref, value in edited.clamps.items():
            x[ref, cols] = value
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


def _require_draws(trials: int, seed: int, tol: float,
                   cfg: SolverConfig | None) -> SolverConfig:
    """At least one trial, a seed numpy accepts, a finite tol >= 0 and a
    solver started from zeros; returns the solver configuration."""
    if trials < 1:
        raise QueryError("trials must be at least 1")
    if seed < 0:
        raise QueryError("seed must be non-negative")
    finite_number(tol, "tol", low=0.0)
    cfg = cfg or SolverConfig()
    if cfg.init != "zeros":
        raise QueryError(f"the oracle checks solve from zeros, not from {cfg.init!r}")
    return cfg


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


def _energy_side(model: Model, u: np.ndarray, edited: EditedEnergy,
                 cfg: SolverConfig) -> np.ndarray:
    """Equilibrium z in context ``u`` under an applied edit."""
    clamps = dict(edited.clamps)
    clamps.update(zip(model.coords("u"), u.tolist()))
    free = [i for i in model.coords("z") if i not in edited.clamps]
    eq = solve(edited.objective, clamps=clamps, free=free, cfg=cfg)
    return eq.point.z.copy()


def _energy_sides(model: Model, u: np.ndarray, edits: list[EditedEnergy],
                  cfg: SolverConfig) -> np.ndarray:
    """:func:`_energy_side` for the contexts ``u[:, j]`` (nu, B), each
    under its own applied edit ``edits[j]``; returns z (nz, B).

    Draws whose edits keep the same terms and clamp the same coordinates
    (hard edits on one target, say) are solved as one batch by the Newton
    loop ``solve`` runs, each with its own clamp values, so every z is
    bitwise the per-draw one.  A lone draw is solved by ``solve`` itself,
    which runs that loop on one column and is the span perfbench traces.
    """
    by_edit = _by_edit(edits)
    x = _context_batch(model, u, by_edit=by_edit)
    groups: dict[tuple, tuple[EditedEnergy, list[int]]] = {}
    for edited, cols in by_edit:
        key = (tuple(map(id, edited.objective.terms)), tuple(edited.clamps))
        groups.setdefault(key, (edited, []))[1].extend(cols)
    for edited, cols in groups.values():
        if len(cols) == 1:
            x[:model.nz, cols[0]] = _energy_side(model, u[:, cols[0]], edited, cfg)
            continue
        cols = sorted(cols)
        block = x[:, cols]  # the starts solve takes from zeros
        _newton(edited.objective, [i for i in model.coords("z") if i not in edited.clamps],
                block, cfg)
        x[:, cols] = block
    return x[:model.nz]


def _paired(scm: InducedScm, u: np.ndarray, edits: list[EditedEnergy], readouts: dict,
            cfg: SolverConfig) -> tuple[list[float], dict[str, tuple[list, list]]]:
    """Both semantics at the draws ``u[:, j]`` (nu, B), each under its own
    applied edit ``edits[j]``: every draw's largest |z_energy - z_scm|,
    and every readout at every draw on both sides, name -> (energy
    values, SCM values); a readout that is None reads max z.

    The draws run as one batch.  If that raises, they replay one by one,
    each through its energy side, its SCM side and then its readouts, so
    the error raised is the one of the first draw that fails.
    """
    model = scm.model
    try:
        z_energy = _energy_sides(model, u, edits, cfg)
        z_scm = scm._forward_many(u, edits)
        x_energy, x_scm = _context_batch(model, u), _context_batch(model, u)
        x_energy[:model.nz], x_scm[:model.nz] = z_energy, z_scm
        stats = {name: (np.max(z_energy, axis=0), np.max(z_scm, axis=0)) if compiled is None
                 else (_read_batch(compiled, x_energy), _read_batch(compiled, x_scm))
                 for name, compiled in readouts.items()}
    except Exception:  # replay: the first failing draw raises its own error
        for j, edited in enumerate(edits):
            sides = [_energy_side(model, u[:, j], edited, cfg), scm._forward(u[:, j], edited)]
            for compiled in readouts.values():
                for z in sides if compiled is not None else ():  # None reads max z
                    _read(compiled, Point.for_model(model, z=z, u=u[:, j]))
        raise  # the batch and its replay disagree: a bug, not a result
    deviations = np.max(np.abs(z_energy - z_scm), axis=0) if model.nz else np.zeros(len(edits))
    return deviations.tolist(), {name: (a.tolist(), b.tolist()) for name, (a, b) in stats.items()}


def equivalence_check(model: Model, trials: int = 100, seed: int = 0,
                      surgery_generator=None, tol: float = 1e-8,
                      cfg: SolverConfig | None = None) -> EquivalenceReport:
    """Compare energy equilibria with induced-SCM forward solutions over
    seeded random contexts and surgeries.

    Trials run in chunks of ``_CHUNK``, each chunk's contexts and edits
    drawn in trial order just before it runs, so memory follows the chunk
    and not ``trials``.  In a chunk the energy side is batched over trials
    whose edits keep the same terms and clamp the same coordinates, and
    the forward pass over trials that share a node's term.  The report is
    bitwise the one of running the trials one by one, and so is the error
    raised, that of the first trial that fails.
    """
    _require_separable(model, "the equivalence check")
    cfg = _require_draws(trials, seed, tol, cfg)
    scm = induce_scm(model)
    rng = np.random.default_rng(seed)
    generator = surgery_generator or _default_surgery
    records = []
    worst = 0.0
    for first in range(0, trials, _CHUNK):
        contexts, chunk = [], []
        late = None  # an error in drawing or applying a trial's edit
        for t in range(first, min(first + _CHUNK, trials)):
            try:
                u = rng.uniform(-2.0, 2.0, size=model.nu)
                edited = apply_surgery(model, generator(rng, model, t))
            except EscmError as err:  # raised after the trials before it ran
                late = err
                break
            contexts.append(u)
            chunk.append(edited)
        if chunk:
            u = np.array(contexts).reshape(len(chunk), model.nu).T
            deviations, _ = _paired(scm, u, chunk, {}, cfg)
            for j, (edited, deviation) in enumerate(zip(chunk, deviations)):
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
            finite_number(hi - lo, f"sampler range hi - lo of {v.name!r}")
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
    cfg = _require_draws(trials, seed, tol, cfg)
    scm = induce_scm(model)
    sample = _build_sampler(model, sampler_spec)
    statistics = statistics or {"z_all_max": None}
    readouts = {name: None if source is None else _compile_readout(model, source)
                for name, source in statistics.items()}
    rng = np.random.default_rng(seed)
    edited = apply_surgery(model, surgeries)

    values: dict[str, tuple[list, list]] = {k: ([], []) for k in statistics}  # energy, SCM
    worst = 0.0
    for first in range(0, trials, _CHUNK):
        count = min(_CHUNK, trials - first)
        u = sample(rng, count)
        deviations, stats = _paired(scm, u, [edited] * count, readouts, cfg)
        worst = max(worst, *deviations)
        for name, (a, b) in stats.items():
            values[name][0].extend(a)
            values[name][1].extend(b)
            worst = max(worst, *(abs(e - s) for e, s in zip(a, b)))

    summary = {}
    for name in statistics:
        ve, vs = map(np.asarray, values[name])
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
