"""Equilibrium solving: damped Newton over the free coordinates.

Clamped coordinates are eliminated from the decision vector (not
penalized), so they hold their values bit-exactly.  Each iteration first
tries an undamped Newton step; on a rejected or unsolvable step the
Levenberg shift grows geometrically, and past ``lambda_max`` the solver
falls back to gradient descent with Armijo backtracking.  Accepted
iterates never increase the objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Objective, Point, Ref, _as_objective
from .errors import EnergyDomainError, QueryError, SingularSystemError, SolverError

__all__ = ["SolverConfig", "Equilibrium", "solve", "schur_effective_hessian", "normalize_refs"]


@dataclass
class SolverConfig:
    tol_grad: float = 1e-10
    max_iter: int = 200
    levenberg_lambda0: float = 1e-8
    lambda_growth: float = 10.0
    lambda_max: float = 1e8
    armijo_c: float = 1e-4
    init: str = "zeros"  # "zeros" | "point" | "forward-scm"

    def __post_init__(self):
        if self.tol_grad <= 0:
            raise ValueError("tol_grad must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class Equilibrium:
    """Solution point plus solver metadata."""

    point: Point
    residual: float
    iterations: int
    hessian_pd: bool
    condition_number: float
    energy: float
    free: tuple[Ref, ...]
    clamps: dict[Ref, float] = field(default_factory=dict)
    energy_trace: list[float] = field(default_factory=list)


def normalize_refs(objective_or_model, items) -> list[Ref]:
    """Accept coordinate labels ("z.Z1") or (space, index) pairs."""
    model = objective_or_model.model if isinstance(objective_or_model, Objective) \
        else objective_or_model
    out: list[Ref] = []
    for item in items:
        if isinstance(item, str):
            out.append(model.parse_coord(item))
        else:
            space, idx = item
            if space not in ("z", "u", "theta"):
                raise QueryError(f"bad coordinate space {space!r}")
            out.append((space, int(idx)))
    return out


def normalize_clamps(objective_or_model, clamps) -> dict[Ref, float]:
    """Map coordinate labels (or refs) to finite float values; raises
    :class:`QueryError` on anything else."""
    if not isinstance(clamps, dict):
        raise QueryError("clamps must map coordinates to values")
    refs = normalize_refs(objective_or_model, clamps.keys())
    values = list(clamps.values())
    out: dict[Ref, float] = {}
    for ref, val in zip(refs, values):
        try:
            val = float(val)
        except (TypeError, ValueError):
            raise QueryError(f"clamp value for {ref} is not a number: {val!r}") from None
        if not np.isfinite(val):
            raise QueryError(f"clamp value for {ref} is not finite")
        if ref in out and out[ref] != val:
            raise QueryError(f"conflicting clamp values for {ref}")
        out[ref] = val
    return out


def _initial_point(objective: Objective, cfg: SolverConfig,
                   init_point: Point | None, clamps: dict[Ref, float]) -> Point:
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
        point.set(ref, val)
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
    cfg = cfg or SolverConfig()
    clamps = normalize_clamps(objective, clamps or {})

    if free is None:
        free_refs = [("z", i) for i in range(objective.nz)]
        free_refs += [("u", i) for i in range(objective.nu)]
        free_refs = [r for r in free_refs if r not in clamps]
    else:
        free_refs = normalize_refs(objective, free)
    for ref in free_refs:
        if ref[0] == "theta":
            raise QueryError("theta coordinates cannot be solved for")
        if ref in clamps:
            raise QueryError(f"coordinate {ref} is both free and clamped")
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
        while lam <= cfg.lambda_max:
            shifted = hess_free + lam * np.eye(nfree) if lam else hess_free
            try:
                step = np.linalg.solve(shifted, -grad_free)
            except np.linalg.LinAlgError:
                lam = max(cfg.levenberg_lambda0, lam * cfg.lambda_growth)
                continue
            if not np.all(np.isfinite(step)):
                lam = max(cfg.levenberg_lambda0, lam * cfg.lambda_growth)
                continue
            candidate = point.copy()
            for ref, delta in zip(free_refs, step):
                candidate.set(ref, candidate.get(ref) + float(delta))
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
            lam = max(cfg.levenberg_lambda0, lam * cfg.lambda_growth)

        if accepted is None:
            # Regularized solve failed; gradient descent with backtracking.
            g2 = float(grad_free @ grad_free)
            t = 1.0
            while t >= 1e-18:
                candidate = point.copy()
                for ref, gval in zip(free_refs, grad_free):
                    candidate.set(ref, candidate.get(ref) - t * float(gval))
                try:
                    e_new = objective.value(candidate)
                except EnergyDomainError:
                    t *= 0.5
                    continue
                if e_new <= energy - cfg.armijo_c * t * g2:
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

    if nfree:
        try:
            np.linalg.cholesky(hess_free)
            hessian_pd = True
        except np.linalg.LinAlgError:
            hessian_pd = False
        condition_number = float(np.linalg.cond(hess_free))
    else:
        hessian_pd = True
        condition_number = 1.0

    return Equilibrium(
        point=point,
        residual=residual,
        iterations=iterations,
        hessian_pd=hessian_pd,
        condition_number=condition_number,
        energy=energy,
        free=tuple(free_refs),
        clamps=dict(clamps),
        energy_trace=trace,
    )


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
