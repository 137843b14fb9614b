"""Induced structural-equation semantics and equivalence checking.

For separable models (no global coupling term, every local term strictly
convex in its own coordinate), each local energy induces a best-response
map: the argmin of the local term given parents and the paired exogenous
value.  Solving the resulting structural equations by one topological pass
must reproduce the energy equilibrium, before and after hard/soft surgery.
The checks here exercise exactly that equality.  For scalar blocks the
forward pass is a per-node route apart from the joint Newton solve it
validates: each scalar best response takes safeguarded Newton steps on
its own slice inside a sign bracket, and steps downhill or bisects where a
Newton step would leave the bracket or not halve the last step.  A vector
block runs the solver's Newton loop on its own term, parents frozen: it
shares the loop with the energy side, not the problem.  Blockwise
convexity is probed at the origin when :func:`induce_scm` first builds a
model's equations; a model that passes keeps the verdict, so the repeated
checks of one model object probe it once.

The checks evaluate their draws in chunks, and every path runs on a
batch of draws, whatever its size: one draw is a batch of one.  On the
energy side the draws of a chunk whose edits share their terms run
through the solver's Newton loop as one batch, damped steps included, so
no draw is handed off or solved again.  The energy side always starts
from zeros, never from the forward sweep, so a check never compares the
sweep with itself.  On the SCM side the draws that share a node's term
find their best responses together: at a scalar block each runs its own
steps on Python floats, and the slopes and curvatures all of them need
next are one batched evaluation of the term's generated code; a vector
block runs its draws as the columns of one Newton batch.  Every draw's
numbers are bitwise those of evaluating the draws one by one.

A chunk runs as one batch or, if the batch raises, replays the same code
one draw at a time: each draw's energy side, SCM side and readouts in
turn, so the error raised is the one of the first draw that fails.  The
batched helpers keep no per-draw errors; a check that fails ends there.
The one exception is a step out of the energy's domain, which only halves
its own draw's step: :func:`_lockstep` evaluates the points of a round
that raises one by one and hands each its own error.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import codegen
from .causal import EditedEnergy, HardSurgery, SoftSurgery, _compile_readout, apply_surgery
from .engine import Objective, ObjectiveTerm, Point
from .errors import (ClassViolationError, EnergyDomainError, EscmError, NonConvexBlockError,
                     QueryError, SolverError)
from .model import Model
from .solver import SolverConfig, _is_int, _newton, finite_array, finite_number

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
_XTOL, _RTOL = 1e-14, 4 * sys.float_info.epsilon  # Python floats
_CHUNK = 256  # draws evaluated together; bounds the batch arrays of a check


def _argmin_steps(x0: float, g0: float, h0: float, node: str):
    """Root of the slope of a strictly convex scalar slice, from its slope
    ``g0 != 0`` and curvature ``h0`` at ``x0``, as a coroutine: it yields
    each point where it needs them, is sent (slope, curvature) there, and
    returns the root with the curvature there.

    Safeguarded Newton (Press et al., *Numerical Recipes*, 3rd ed., §9.4,
    ``rtsafe``).  Every evaluation narrows the sign bracket, which starts
    at x0 ± ``_BRACKET_LIMIT`` with both ends open (not evaluated).  A
    Newton step is taken if it lies strictly inside the bracket and is at
    most half the last step; otherwise the slice steps downhill by a
    reach, from 1 doubling, while an end is open, and bisects once both
    are evaluated.  A step out of the energy's domain is halved until it
    lies inside.  With delta = (``_XTOL`` + ``_RTOL``·|x|)/2, the slice
    stops at a Newton iterate whose next step is within delta and at most
    half the last step, which a root of multiplicity 3 or more never
    meets, or once bisection narrows the bracket to 2·delta.  A NaN slope
    or curvature, or a reach out of the bracket, disproves convexity."""
    ends = [x0 - _BRACKET_LIMIT, x0 + _BRACKET_LIMIT]  # the root lies between
    shut = [False, False]  # whether the slope at each end is evaluated
    x, g, h = x0, g0, h0
    last, reach, newton = math.inf, 1.0, False  # the last step, and whether it was Newton's
    while True:
        if math.isnan(g) or math.isnan(h):
            raise NonConvexBlockError(node, f"z={x:g}")
        if g == 0.0:
            return x, h
        ends[g > 0.0], shut[g > 0.0] = x, True
        delta = (_XTOL + _RTOL * abs(x)) / 2
        if newton and abs(g) <= h * min(delta, last / 2):  # next step within delta, <= last/2
            return x, h
        step = -g / h if h > 0.0 else math.nan
        newton = ends[0] < x + step < ends[1] and abs(step) <= last / 2
        if not (newton or all(shut)):  # downhill, toward the open end
            step = reach if g < 0.0 else -reach
            reach *= 2.0
            if not ends[0] < x + step < ends[1]:
                raise NonConvexBlockError(node, f"z={x0:g}")
        elif not newton:
            if ends[1] - ends[0] <= 2 * delta:
                return x, h
            step = (ends[0] + ends[1]) / 2 - x  # bisect
        while True:
            try:
                g, h = yield x + step
                break
            except EnergyDomainError:  # the step left the energy's domain
                step /= 2
                if x + step == x:
                    raise
        x += step
        last = abs(step)


def _lockstep(steps: dict[int, object], evaluate) -> dict[int, object]:
    """Run coroutines like :func:`_argmin_steps` side by side; every
    round, ``evaluate(keys, points)`` computes the values all of them wait
    for as one batch.  If that raises :class:`EnergyDomainError`, every
    point is evaluated alone, and the error of each that raises alone is
    thrown into its coroutine.  Returns each coroutine's result by key; a
    coroutine's error propagates."""
    results: dict[int, object] = {}
    sent = dict.fromkeys(steps, (None, None))  # the value or error each is sent next
    while sent:
        waiting = {}
        for key, (value, error) in sent.items():
            try:
                waiting[key] = steps[key].send(value) if error is None else steps[key].throw(error)
            except StopIteration as stop:
                results[key] = stop.value
        sent = _outcomes(evaluate, waiting) if waiting else {}
    return results


def _outcomes(evaluate, waiting: dict) -> dict:
    """(value, None) at every point of ``waiting`` (key -> point), as one
    batch; if that raises a domain error, each point's (value, None) or
    (None, error) alone, or the batch's error if no point raises alone."""
    keys = list(waiting)
    try:
        return {key: (value, None)
                for key, value in zip(keys, evaluate(keys, list(waiting.values())).tolist())}
    except EnergyDomainError:
        alone = {}
        for key, point in waiting.items():
            try:
                alone[key] = (evaluate([key], [point]).tolist()[0], None)
            except EnergyDomainError as error:
                alone[key] = (None, error)
        if all(error is None for _, error in alone.values()):
            raise  # the batch and its points alone disagree: a bug
        return alone


def _scalar_argmins(term: ObjectiveTerm, x: np.ndarray, ref: int, node: str) -> np.ndarray:
    """Argmins of strictly convex scalar slices by safeguarded Newton steps
    (:func:`_argmin_steps`), one per column of ``x`` (dim, B): coordinate
    ``ref`` moves, the rest stays.  Every column takes the steps it takes
    alone; the slopes and curvatures they need are evaluated as one batch
    per round."""
    p = x.copy()  # row ``ref`` moves along the slices
    active = codegen._ActiveTerms([term], {ref: 0})
    alone = x.shape[1] == 1  # evaluated in Python floats, bitwise as in a batch

    def jets(cols, values):  # slope and curvature at ``values``, (B, 2)
        p[ref, cols] = values
        out = np.zeros((len(values), 2))
        at = p[:, 0] if alone else p[:, cols]
        for _, grad, hess, _ in active.blocks(at, 2):
            # one slot: each block is None or the 1-tuple of its entry
            for k, block in enumerate((grad, hess)):
                if block is not None:
                    out[:, k] = block[0]
        return out

    x0 = x[ref].tolist()
    steps = {}
    for j, (g, h) in enumerate(jets(slice(None), x0).tolist()):
        # Strictly convex slices may still have zero curvature at isolated
        # points (quartics at their minimum); only negative curvature
        # disproves convexity outright.
        if h < 0.0:
            raise NonConvexBlockError(node, f"z={x0[j]:g}")
        if g != 0.0:
            steps[j] = _argmin_steps(x0[j], g, h, node)
    found = _lockstep(steps, jets)
    for root, h in found.values():
        if h < 0.0:
            raise NonConvexBlockError(node, f"z={root:g}")
    out = x[ref].copy()
    if found:
        out[list(found)] = [root for root, _ in found.values()]
    return out


def _block_argmin(model: Model, term: ObjectiveTerm, x: np.ndarray,
                  refs: list[int], node: str) -> np.ndarray:
    """Argmins of a local term over its own coordinate block, one per
    column of ``x`` (dim, B), parents and exogenous values frozen there;
    returns (len(refs), B).  A scalar block takes the independent sweep of
    :func:`_scalar_argmins`; a vector block runs the solver's Newton loop
    on its own term alone, all columns as one batch, and has no best
    response if that loop fails or ends where a column's block Hessian is
    not positive definite."""
    if len(refs) == 1:
        return _scalar_argmins(term, x, refs[0], node)[None]
    x = x.copy()
    try:
        hessians = _newton(Objective(model, [term]), refs, x, SolverConfig())[2]
    except SolverError:
        raise NonConvexBlockError(node, "block Newton") from None
    for hess in hessians:
        try:
            np.linalg.cholesky(hess)
        except np.linalg.LinAlgError:
            raise NonConvexBlockError(node, "block minimizer") from None
    return x[refs]


@dataclass
class InducedScm:
    """Structural equations induced by blockwise argmins of local terms."""

    model: Model
    order: list[str] = field(init=False)

    def __post_init__(self):
        self.order = self.model.dag.topo_order()

    def mechanism(self, node: str, point: Point) -> np.ndarray:
        """f_node: best response given parent and exogenous values in ``point``."""
        return _block_argmin(self.model, self.model.local_term(node).objective_term,
                             point.x[:, None], self.model.coord_indices(node), node)[:, 0]

    def solve(self, u, surgeries=(), theta=None) -> np.ndarray:
        """One topological forward pass; returns the full z vector."""
        edited = apply_surgery(self.model, surgeries)
        u = finite_array(u, "context u")
        if u.shape != (self.model.nu,):
            raise QueryError("context u has the wrong length")
        if theta is not None:
            theta = finite_array(theta, "theta")
            if theta.shape != (self.model.ntheta,):
                raise QueryError("theta has the wrong length")
        return self._forward_many(u[:, None], [edited], theta)[:, 0]

    def _forward_many(self, u: np.ndarray, edits: list[EditedEnergy], theta=None) -> np.ndarray:
        """Forward passes for the contexts ``u[:, j]`` (nu, B), each under
        its own applied edit ``edits[j]``: hard targets keep their clamps,
        every other node its edited term; returns z (nz, B).

        Node by node, the passes that share the node's term run as one
        :func:`_block_argmin` batch, whatever its size: a hard target keeps
        its clamp, a soft target's blend is its own batch.
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
                x[np.ix_(refs, cols)] = _block_argmin(model, term, x[:, cols], refs, node)
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


def _require_draws(trials: int, seed: int, tol: float) -> None:
    """At least one trial, an integer seed numpy accepts and a finite
    tol >= 0."""
    if not _is_int(trials):
        raise QueryError(f"trials is not an integer: {trials!r}")
    if trials < 1:
        raise QueryError("trials must be at least 1")
    if not _is_int(seed):
        raise QueryError(f"seed is not an integer: {seed!r}")
    if seed < 0:
        raise QueryError("seed must be non-negative")
    finite_number(tol, "tol", low=0.0)


def induce_scm(model: Model) -> InducedScm:
    """Build the induced structural equations; verifies blockwise convexity
    at the origin.

    The probe is a fact about the model, so it runs on the first call for
    a model object only: once every block passes, the model keeps the
    verdict and later calls build the equations without probing.  A model
    whose probe fails is probed again, and fails again, on every call."""
    _require_separable(model, "the induced structural model")
    scm = InducedScm(model)
    if model._convex_probed:
        return scm
    origin = Point.for_model(model)
    objective = Objective.from_model(model)
    for node in scm.order:
        term = model.local_term(node).objective_term
        h = objective.term_jet(term, origin, model.coord_indices(node), order=2)[2]
        # negative curvature disproves blockwise convexity; zero is
        # inconclusive (e.g. quartics at their minimum) and admitted
        if float(np.min(np.linalg.eigvalsh(h))) < 0.0:
            raise NonConvexBlockError(node, "probe point")
    model._convex_probed = True
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
    for node in model.dag.topo_order():
        unclamped = [r for r in model.coord_indices(node) if r not in clamps]
        if not unclamped:
            continue
        try:
            point.x[unclamped] = _block_argmin(
                model, model.local_term(node).objective_term, point.x[:, None], unclamped,
                node)[:, 0]
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
    spans = [(sym.start, sym.end) for sym in expr.syms
             if sym.parts[0] == "z" and len(sym.parts) == 2 and sym.parts[1] == node]
    src = expr.source
    for start, end in reversed(spans):
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


def _energy_sides(model: Model, u: np.ndarray, edits: list[EditedEnergy],
                  cfg: SolverConfig) -> np.ndarray:
    """Equilibrium z for the contexts ``u[:, j]`` (nu, B), each under its
    own applied edit ``edits[j]``; returns z (nz, B).

    Draws whose edits keep the same terms and clamp the same coordinates
    (hard edits on one target, say) are solved as one batch, of one draw
    or many, by the Newton loop ``solve`` runs, each from zeros with its
    own clamp values, so every z is bitwise the one ``solve`` finds.
    """
    by_edit = _by_edit(edits)
    x = _context_batch(model, u, by_edit=by_edit)
    groups: dict[tuple, tuple[EditedEnergy, list[int]]] = {}
    for edited, cols in by_edit:
        key = (tuple(map(id, edited.objective.terms)), tuple(edited.clamps))
        groups.setdefault(key, (edited, []))[1].extend(cols)
    for edited, cols in groups.values():
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

    The draws run as one batch.  If that raises, the same code runs on
    one draw at a time, so the error raised is the one of the first draw
    that fails.
    """
    try:
        return _paired_batch(scm, u, edits, readouts, cfg)
    except Exception:  # replay: the first failing draw raises its own error
        for j in range(len(edits)):
            _paired_batch(scm, u[:, j:j + 1], edits[j:j + 1], readouts, cfg)
        raise  # the batch and its replay disagree: a bug, not a result


def _paired_batch(scm: InducedScm, u: np.ndarray, edits: list[EditedEnergy], readouts: dict,
                  cfg: SolverConfig) -> tuple[list[float], dict[str, tuple[list, list]]]:
    """:func:`_paired` of the draws as one batch: the energy side, then the
    SCM side, then the readouts."""
    model = scm.model
    z_energy = _energy_sides(model, u, edits, cfg)
    z_scm = scm._forward_many(u, edits)
    x_energy, x_scm = _context_batch(model, u), _context_batch(model, u)
    x_energy[:model.nz], x_scm[:model.nz] = z_energy, z_scm
    stats = {name: (np.max(z_energy, axis=0), np.max(z_scm, axis=0)) if compiled is None
             else (_read_batch(compiled, x_energy), _read_batch(compiled, x_scm))
             for name, compiled in readouts.items()}
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
    _require_draws(trials, seed, tol)
    cfg = cfg or SolverConfig()
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
    if not isinstance(spec, dict):
        raise QueryError("sampler spec must map exogenous variables to entries")
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
            draws.append(("uniform", lo, hi, v.dim, v.name))
        elif dist in ("gauss", "normal"):
            mu, sigma = (finite_number(entry.get(key, default), f"sampler {key!r} of {v.name!r}")
                         for key, default in (("mu", 0.0), ("sigma", 1.0)))
            if sigma < 0:
                raise QueryError(f"negative sigma for {v.name!r}")
            draws.append(("gauss", mu, sigma, v.dim, v.name))
        else:
            raise QueryError(f"unknown distribution {dist!r} for {v.name!r}")

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` draws, taken one after another, as the columns of a
        (nu, count) array; raises :class:`QueryError` naming the entry of
        the first value that overflows."""
        values: list[float] = []
        for _ in range(count):
            for kind, a, b, dim, _ in draws:
                if kind == "uniform":
                    values.extend(rng.uniform(a, b, size=dim).tolist())
                else:  # in floats: an overflow is inf, and numpy does not warn
                    values.extend([a + b * v for v in rng.standard_normal(dim).tolist()])
        u = np.array(values)
        bad = np.flatnonzero(~np.isfinite(u))
        if bad.size:  # only a Gaussian overflows: a uniform range is finite
            _, mu, sigma, _, name = [entry for entry in draws
                                     for _ in range(entry[3])][bad[0] % model.nu]
            raise QueryError(f"sampler entry for {name!r} draws a non-finite value "
                             f"(mu {mu:g}, sigma {sigma:g})")
        return u.reshape(count, model.nu).T

    return sample


def _read_batch(compiled, x: np.ndarray) -> np.ndarray:
    """A compiled readout at every column of ``x`` (dim, B)."""
    return np.broadcast_to(codegen.expr_value(compiled, x), x.shape[1:])


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
    _require_draws(trials, seed, tol)
    cfg = cfg or SolverConfig()
    scm = induce_scm(model)
    sample = _build_sampler(model, sampler_spec)
    if not isinstance(statistics, (dict, type(None))):
        raise QueryError("statistics must map names to expressions")
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


def contraction_factor(model: Model, points: list[Point]) -> float:
    """Largest operator norm of the best-response Jacobian over ``points``.

    The norm is the largest singular value of the blockwise-argmin
    Jacobian; a value below one witnesses the contraction-style
    well-posedness alternative.  (The spectral radius would be useless
    here: on a DAG the Jacobian is nilpotent.)
    """
    _require_separable(model, "the contraction estimate")
    objective = Objective.from_model(model)
    if not (isinstance(points, (list, tuple))
            and all(isinstance(p, Point) and p.x.ndim == 1 for p in points)):
        raise QueryError("points must be a list of Points of one point each")
    worst = 0.0
    for point in points:
        objective.check_point(point)
        jac = np.zeros((model.nz, model.nz))
        for node in model.dag.topo_order():
            own = model.coord_indices(node)
            parents = model.dag.parents(node)
            if not parents:
                continue
            parent_refs = [i for p in parents for i in model.coord_indices(p)]
            refs = own + parent_refs
            h = objective.term_jet(model.local_term(node).objective_term, point, refs,
                                   order=2)[2]
            h_oo = h[: len(own), : len(own)]
            h_op = h[: len(own), len(own):]
            try:
                block = -np.linalg.solve(h_oo, h_op)
            except np.linalg.LinAlgError:
                raise NonConvexBlockError(node, "jacobian of the best response") from None
            jac[np.ix_(own, parent_refs)] = block  # z sits at [0, nz) of the flat order
        worst = max(worst, float(np.linalg.norm(jac, 2)))
    return worst
