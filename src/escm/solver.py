"""Equilibrium solving: damped Newton over the free coordinates.

Clamped coordinates are eliminated from the decision vector (not
penalized), so they hold their values bit-exactly.  Each iteration first
tries an undamped Newton step; on a rejected or unsolvable step the
Levenberg shift grows geometrically, and past ``_LAMBDA_MAX`` the solver
falls back to gradient descent with Armijo backtracking.  Accepted
iterates never increase the objective.

:func:`newton_batch` runs the undamped path of :func:`solve` on many
points at once and reports the points that leave it; those are solved
alone, so damping and line search live only in :func:`solve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .engine import Objective, Point, _as_objective
from .errors import EnergyDomainError, QueryError, SingularSystemError, SolverError

__all__ = ["SolverConfig", "Equilibrium", "solve", "newton_batch", "schur_effective_hessian",
           "normalize_refs"]


_LAMBDA0, _LAMBDA_GROWTH, _LAMBDA_MAX = 1e-8, 10.0, 1e8  # the Levenberg shift's schedule
_ARMIJO_C = 1e-4  # sufficient decrease of the gradient-descent fallback


@dataclass
class SolverConfig:
    tol_grad: float = 1e-10
    max_iter: int = 200
    init: str = "zeros"  # "zeros" | "point" | "forward-scm"

    def __post_init__(self):
        if finite_number(self.tol_grad, "tol_grad") <= 0:
            raise QueryError("tol_grad must be positive")
        if self.max_iter < 1:
            raise QueryError("max_iter must be at least 1")


@dataclass
class Equilibrium:
    """Solution point plus solver metadata.

    ``free`` and the keys of ``clamps`` are flat indices; ``hessian`` is
    the free-block Hessian at the point, from which ``hessian_pd`` and
    ``condition_number`` are computed when first read.
    """

    point: Point
    residual: float
    iterations: int
    energy: float
    free: tuple[int, ...]
    hessian: np.ndarray
    clamps: dict[int, float] = field(default_factory=dict)
    energy_trace: list[float] = field(default_factory=list)

    @cached_property
    def hessian_pd(self) -> bool:
        try:
            np.linalg.cholesky(self.hessian)
        except np.linalg.LinAlgError:
            return False
        return True

    @cached_property
    def condition_number(self) -> float:
        return float(np.linalg.cond(self.hessian)) if self.free else 1.0


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def normalize_refs(objective_or_model, items) -> list[int]:
    """Flat indices of coordinates given as labels ("z.Z1"), (space, index)
    pairs such as ("u", 0), or flat indices; raises :class:`QueryError`
    for anything else, an index out of range included."""
    model = objective_or_model.model if isinstance(objective_or_model, Objective) \
        else objective_or_model
    out: list[int] = []
    for item in items:
        if isinstance(item, str):
            out.append(model.parse_coord(item))
            continue
        if _is_int(item):
            coords, index = range(model.dim), item
        else:
            try:
                space, index = item
            except (TypeError, ValueError):
                raise QueryError(f"bad coordinate {item!r}") from None
            coords = model.coords(space)  # a QueryError unless "z", "u" or "theta"
        if not (_is_int(index) and 0 <= index < len(coords)):
            raise QueryError(f"coordinate {item!r} is out of range")
        out.append(coords[index])
    return out


def normalize_clamps(objective_or_model, clamps) -> dict[int, float]:
    """Map coordinates, in any form :func:`normalize_refs` accepts, to
    finite float values; raises :class:`QueryError` on anything else."""
    if not isinstance(clamps, dict):
        raise QueryError("clamps must map coordinates to values")
    refs = normalize_refs(objective_or_model, clamps.keys())
    out: dict[int, float] = {}
    for key, ref, val in zip(clamps, refs, clamps.values()):
        val = finite_number(val, f"clamp value for {key}")
        if ref in out and out[ref] != val:
            raise QueryError(f"conflicting clamp values for {key}")
        out[ref] = val
    return out


def finite_number(value, what: str, low: float | None = None) -> float:
    """``value`` as a finite float, and at least ``low`` if that is given;
    raises :class:`QueryError` otherwise."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise QueryError(f"{what} is not a number: {value!r}") from None
    if not np.isfinite(number):
        raise QueryError(f"{what} is not finite")
    if low is not None and number < low:
        raise QueryError(f"{what} must be at least {low:g}")
    return number


def _initial_point(objective: Objective, cfg: SolverConfig,
                   init_point: Point | None, clamps: dict[int, float]) -> Point:
    model = objective.model
    if cfg.init == "zeros":
        point = Point.for_model(model)
    elif cfg.init == "point":
        if init_point is None:
            raise QueryError("init='point' requires an initial point")
        point = init_point.copy()
    elif cfg.init == "forward-scm":
        from .reduction import forward_init  # local import: avoids a cycle

        point = forward_init(model, clamps)
    else:
        raise QueryError(f"unknown init mode {cfg.init!r}")
    for ref, val in clamps.items():
        point.x[ref] = val
    return point


def solve(target, clamps=None, free=None, cfg: SolverConfig | None = None,
          init_point: Point | None = None) -> Equilibrium:
    """Minimize an energy over ``free`` coordinates with ``clamps`` fixed.

    ``target`` is a model or an edited objective.  ``free`` defaults to
    every z- and u-coordinate that is not clamped.  Raises
    :class:`SolverError` (with diagnostics attached) on non-convergence and
    :class:`SingularSystemError` when damping escalation is exhausted.
    """
    objective = _as_objective(target)
    model = objective.model
    cfg = cfg or SolverConfig()
    clamps = normalize_clamps(objective, clamps or {})

    if free is None:
        free_refs = [i for i in (*model.coords("z"), *model.coords("u")) if i not in clamps]
    else:
        free_refs = normalize_refs(objective, free)
    for ref in free_refs:
        if ref in model.coords("theta"):
            raise QueryError("theta coordinates cannot be solved for")
        if ref in clamps:
            raise QueryError(f"coordinate {model.coord_label(ref)} is both free and clamped")
    if len(set(free_refs)) != len(free_refs):
        raise QueryError("duplicate free coordinates")

    point = _initial_point(objective, cfg, init_point, clamps)
    nfree = len(free_refs)

    energy = objective.value(point)
    trace = [energy]
    iterations = 0
    lam = 0.0

    while True:
        full = objective.derivatives(point, order=2, active=free_refs)
        grad_free, hess_free = full.grad, full.hess
        residual = float(np.max(np.abs(grad_free))) if nfree else 0.0
        if residual <= cfg.tol_grad:
            break
        if iterations >= cfg.max_iter:
            raise SolverError(
                f"no convergence after {cfg.max_iter} iterations (residual {residual:.3e})",
                diagnostics={"residual": residual, "iterations": iterations,
                             "energy": energy, "point": point},
            )

        accepted = None
        while lam <= _LAMBDA_MAX:
            shifted = hess_free + lam * np.eye(nfree) if lam else hess_free
            try:
                step = np.linalg.solve(shifted, -grad_free)
            except np.linalg.LinAlgError:
                lam = max(_LAMBDA0, lam * _LAMBDA_GROWTH)
                continue
            if not np.all(np.isfinite(step)):
                lam = max(_LAMBDA0, lam * _LAMBDA_GROWTH)
                continue
            candidate = point.copy()
            candidate.x[free_refs] += step
            try:
                e_new = objective.value(candidate)
            except EnergyDomainError:
                e_new = np.inf
            if e_new < energy:
                accepted = (candidate, e_new)
                break
            if e_new == energy:
                # Flat bottom: accept only if the step strictly reduces the
                # residual, preserving energy monotonicity.
                g_new = objective.derivatives(candidate, order=1, active=free_refs).grad
                if float(np.max(np.abs(g_new))) < residual:
                    accepted = (candidate, e_new)
                    break
            lam = max(_LAMBDA0, lam * _LAMBDA_GROWTH)

        if accepted is None:
            # Regularized solve failed; gradient descent with backtracking.
            g2 = float(grad_free @ grad_free)
            t = 1.0
            while t >= 1e-18:
                candidate = point.copy()
                candidate.x[free_refs] -= t * grad_free
                try:
                    e_new = objective.value(candidate)
                except EnergyDomainError:
                    t *= 0.5
                    continue
                if e_new <= energy - _ARMIJO_C * t * g2:
                    accepted = (candidate, e_new)
                    break
                t *= 0.5
            if accepted is None:
                raise SingularSystemError(
                    "damping escalation past lambda_max and line search both failed",
                    diagnostics={"residual": residual, "iterations": iterations,
                                 "energy": energy, "point": point},
                )

        point, energy = accepted
        trace.append(energy)
        iterations += 1
        lam = 0.0  # reset after acceptance

    return Equilibrium(
        point=point,
        residual=residual,
        iterations=iterations,
        energy=energy,
        free=tuple(free_refs),
        hessian=hess_free,
        clamps=dict(clamps),
        energy_trace=trace,
    )


def _batch_values(objective: Objective, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies of the columns of ``x`` and a mask of the columns that
    :func:`solve` could not evaluate: non-finite entries or a domain error
    (their energy reads inf)."""
    ok = np.all(np.isfinite(x), axis=0)
    values = np.full(x.shape[1], np.inf)
    if not ok.any():
        return values, ~ok
    try:
        values[ok] = objective.value(Point.from_flat(objective.model, x[:, ok]))
    except EnergyDomainError:
        for j in np.flatnonzero(ok):  # find the columns outside the domain
            try:
                values[j] = objective.value(Point.from_flat(objective.model, x[:, j]))
            except EnergyDomainError:
                ok[j] = False
    return values, ~ok


def _newton_steps(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undamped Newton steps for batched ``hess`` (k, k, B) and ``grad``
    (k, B), and a mask of the columns whose step exists and is finite."""
    mats = np.moveaxis(hess, -1, 0)
    rhs = -grad.T
    try:
        step = np.linalg.solve(mats, rhs[:, :, None])[:, :, 0].T
        ok = np.ones(grad.shape[1], dtype=bool)
    except np.linalg.LinAlgError:  # find the singular columns
        step = np.zeros_like(grad)
        ok = np.zeros(grad.shape[1], dtype=bool)
        for j in range(grad.shape[1]):
            try:
                step[:, j] = np.linalg.solve(mats[j], rhs[j])
                ok[j] = True
            except np.linalg.LinAlgError:
                pass
    return step, ok & np.all(np.isfinite(step), axis=0)


def newton_batch(objective: Objective, free: list[int], x: np.ndarray,
                 cfg: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run :func:`solve`'s iterations on every column of ``x`` (dim, B)
    at once, while each column's undamped Newton step is accepted.

    Each column of ``x`` is a start point with its clamps already set;
    ``free`` are flat indices.  Returns the final points and a mask of the
    columns that left the undamped path: a rejected, singular or
    non-finite step, a domain error, or ``cfg.max_iter`` reached.  Every
    other column is bitwise the point :func:`solve` returns from that
    start; a masked one must be solved alone.
    """
    model = objective.model
    x = x.copy()
    energy, handoff = _batch_values(objective, x)
    live = np.flatnonzero(~handoff)
    energy = energy[live]
    iterations = 0
    while live.size:
        try:
            full = objective.derivatives(Point.from_flat(model, x[:, live]), order=2, active=free)
        except EnergyDomainError:
            handoff[live] = True
            break
        residual = np.max(np.abs(full.grad), axis=0) if free else np.zeros(live.size)
        going = ~(residual <= cfg.tol_grad)
        if iterations >= cfg.max_iter:
            handoff[live[going]] = True
            break
        live, energy, residual = live[going], energy[going], residual[going]
        if not live.size:
            break
        step, ok = _newton_steps(full.hess[:, :, going], full.grad[:, going])
        candidate = x[:, live]
        candidate[free] += step
        e_new, failed = _batch_values(objective, candidate)
        ok &= ~failed
        accept = ok & (e_new < energy)
        flat = np.flatnonzero(ok & (e_new == energy))
        if flat.size:
            # flat bottom: accept only a step that strictly reduces the residual
            try:
                g_new = objective.derivatives(Point.from_flat(model, candidate[:, flat]),
                                              order=1, active=free).grad
                accept[flat] = np.max(np.abs(g_new), axis=0) < residual[flat]
            except EnergyDomainError:
                pass
        handoff[live[~accept]] = True
        x[:, live[accept]] = candidate[:, accept]
        live, energy = live[accept], e_new[accept]
        iterations += 1
    return x, handoff


def schur_effective_hessian(hess: np.ndarray, keep, mode: str = "minimize") -> np.ndarray:
    """Effective Hessian on the ``keep`` coordinates.

    ``mode="minimize"`` re-minimizes the complement: returns
    ``H_ff - H_fc H_cc^{-1} H_cf``.  ``mode="clamp"`` holds the complement
    fixed and returns the plain ``H_ff`` submatrix.
    """
    hess = np.asarray(hess, dtype=float)
    n = hess.shape[0]
    if hess.shape != (n, n):
        raise QueryError("hessian must be square")
    keep = list(keep)
    if any(not 0 <= k < n for k in keep):
        raise QueryError("keep indices out of range")
    if len(set(keep)) != len(keep):
        raise QueryError("duplicate keep indices")
    drop = [j for j in range(n) if j not in set(keep)]
    h_ff = hess[np.ix_(keep, keep)].copy()
    if mode == "clamp" or not drop:
        return h_ff
    if mode != "minimize":
        raise QueryError(f"unknown mode {mode!r}")
    h_fc = hess[np.ix_(keep, drop)]
    h_cc = hess[np.ix_(drop, drop)]
    h_cf = hess[np.ix_(drop, keep)]
    try:
        solved = np.linalg.solve(h_cc, h_cf)
    except np.linalg.LinAlgError:
        raise SingularSystemError("eliminated block is singular") from None
    return h_ff - h_fc @ solved
