"""Equilibrium solving: damped Newton over the free coordinates.

Clamped coordinates are eliminated from the decision vector (not
penalized), so they hold their values bit-exactly.  One loop,
:func:`_newton`, runs the iterations from a batch of start points, the
columns of a (dim, B) array: :func:`solve` runs it on one column, the
oracle checks on the draws of a chunk.  Each iteration takes every live
column's undamped Newton step as one batch.  A column whose step is
rejected or unsolvable takes the damped fallback alone and in place: the
Levenberg shift grows geometrically from ``_LAMBDA0``, and past
``_LAMBDA_MAX`` gradient descent with Armijo backtracking takes over.
Accepted iterates never increase the objective, and every column's
iterates are bitwise those of running it alone.  A lone live column is
evaluated on its 1-D point, in Python floats, which is quicker than a
batch of one.  The loop plans its work once (:class:`escm.engine._Planned`):
the terms that read a free coordinate, and where their blocks go, come
from the plan the model keeps for the objective's terms and the free
list (:class:`escm.engine._Plan`, found once per run and shared by the
runs over the same terms and free list, which a hard edit's are too),
and the values of the other terms are computed once per start and kept
for this run alone.  Each iterate is evaluated once: the
energy at the start and at each undamped candidate comes from one run of
the moving terms, whose blocks the derivative call at the accepted
candidate then adds up, bitwise as the whole objective does.  Where no
moving term's Hessian reads a free coordinate, the plan keeps the last
Hessian under the coordinates it reads, and every iterate of this or a
later run whose coordinates match there runs at order 1: the Hessian is
the same bits.  Each returned Hessian is the run's own array, so writing
to an :class:`Equilibrium`'s changes no later solve.  Damped trials,
which are mostly rejected, take the whole objective's order-0 energies,
as before the plan kept anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .engine import Objective, Point, _as_objective, _Planned
from .errors import EnergyDomainError, QueryError, SingularSystemError, SolverError

__all__ = ["SolverConfig", "Equilibrium", "solve", "schur_effective_hessian", "normalize_refs"]


_LAMBDA0, _LAMBDA_GROWTH, _LAMBDA_MAX = 1e-8, 10.0, 1e8  # the Levenberg shift's schedule
_ARMIJO_C = 1e-4  # sufficient decrease of the gradient-descent fallback


@dataclass
class SolverConfig:
    tol_grad: float = 1e-10
    max_iter: int = 200

    def __post_init__(self):
        if finite_number(self.tol_grad, "tol_grad") <= 0:
            raise QueryError("tol_grad must be positive")
        if not _is_int(self.max_iter):
            raise QueryError(f"max_iter is not an integer: {self.max_iter!r}")
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
    dim = model.dim
    for item in items:
        if type(item) is int and 0 <= item < dim:  # a flat index, the common case
            out.append(item)
            continue
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
    except OverflowError:  # an int beyond the float range
        raise QueryError(f"{what} is not finite") from None
    if not math.isfinite(number):
        raise QueryError(f"{what} is not finite")
    if low is not None and number < low:
        raise QueryError(f"{what} must be at least {low:g}")
    return number


def finite_array(value, what: str) -> np.ndarray:
    """``value`` as an array of finite floats; raises :class:`QueryError`
    otherwise."""
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise QueryError(f"{what} is not an array of numbers") from None
    if not np.isfinite(array).all():
        raise QueryError(f"{what} is not finite")
    return array


def solve(target, clamps=None, free=None, cfg: SolverConfig | None = None,
          init_point: Point | None = None) -> Equilibrium:
    """Minimize an energy over ``free`` coordinates with ``clamps`` fixed.

    ``target`` is a model or an edited objective.  ``free`` defaults to
    every z- and u-coordinate that is not clamped.  The solve starts from a
    copy of ``init_point``, theta included, when one is given, and from
    zeros with the model's default parameters otherwise; clamps overwrite
    the start.  Raises :class:`SolverError` (with diagnostics attached)
    on non-convergence and :class:`SingularSystemError` when damping
    escalation is exhausted.
    """
    objective = _as_objective(target)
    return _solve(objective, normalize_clamps(objective, clamps or {}), free, cfg, init_point)


def _solve(objective: Objective, clamps: dict[int, float], free, cfg: SolverConfig | None,
           init_point: Point | None) -> Equilibrium:
    """:func:`solve` with ``clamps`` already checked: a dict of flat
    indices to finite floats, as :func:`normalize_clamps` returns them."""
    model = objective.model
    cfg = cfg or SolverConfig()
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

    if init_point is None:
        point = Point.for_model(model)
    elif isinstance(init_point, Point) and init_point.x.shape == (model.dim,):
        point = init_point.copy()
    else:
        raise QueryError("init_point must be a Point of the model")
    for ref, val in clamps.items():
        point.x[ref] = val
    traces, residuals, hessians = _newton(objective, free_refs, point.x[:, None], cfg)
    return Equilibrium(
        point=point,
        residual=residuals[0],
        iterations=len(traces[0]) - 1,
        energy=traces[0][-1],
        free=tuple(free_refs),
        hessian=hessians[0],
        clamps=dict(clamps),
        energy_trace=traces[0],
    )


def _newton(objective: Objective, free: list[int], x: np.ndarray,
            cfg: SolverConfig) -> tuple[list[list[float]], list[float], list[np.ndarray]]:
    """Minimize ``objective`` over the flat indices ``free`` from every
    column of ``x`` (dim, B), a start point with its clamps set; ``x``
    ends holding the minimizers.

    Returns each column's energy trace (its start energy, then one entry
    per accepted iterate), and its residual and free Hessian at its
    minimizer.  Every column's iterates are bitwise those of running it
    alone.  Raises as :func:`solve` documents, for the first column that
    fails.
    """
    model = objective.model
    k = len(free)
    live = list(range(x.shape[1]))  # the columns still iterating
    objective = _Planned(objective, free)  # for every energy and derivative of the run
    energy = _values(objective, x)
    traces = [[e] for e in energy]
    residuals, hessians = [0.0] * len(live), [None] * len(live)
    iterations = 0
    while True:
        cols = slice(None) if len(live) == x.shape[1] else live  # a slice does not copy
        full = objective.derivatives(_at(model, x[:, cols]), order=2, active=free)
        grad, hess = full.grad.reshape(k, len(live)), full.hess.reshape(k, k, len(live))
        residual = _residuals(grad)
        stop = [r <= cfg.tol_grad for r in residual]
        if any(stop):
            done = [i for i, s in enumerate(stop) if s]
            # one copy, a (k, k) block per column: ``hess`` may be the plan's own
            for i, own in zip(done, hess.transpose(2, 0, 1)[done]):
                residuals[live[i]], hessians[live[i]] = residual[i], own
            if all(stop):
                return traces, residuals, hessians
            going = [i for i, s in enumerate(stop) if not s]
            live, energy, residual = ([seq[i] for i in going] for seq in (live, energy, residual))
            cols, grad, hess = live, grad[:, going], hess[:, :, going]
        if iterations >= cfg.max_iter:
            raise SolverError(
                f"no convergence after {cfg.max_iter} iterations (residual {residual[0]:.3e})",
                diagnostics={"residual": residual[0], "iterations": iterations,
                             "energy": energy[0], "point": Point.from_flat(model, x[:, live[0]])})

        step, ok = _steps(hess, grad)
        candidate = x[:, cols].copy()
        candidate[free] += step
        e_new, accept = _try_candidates(objective, free, candidate, ok, energy, residual)
        for i in (i for i, a in enumerate(accept) if not a):
            found = _damped(objective.trials, free, x[:, live[i]:live[i] + 1],
                            grad[:, i:i + 1], hess[:, :, i], energy[i:i + 1], residual[i:i + 1])
            if found is None:
                raise SingularSystemError(
                    "damping escalation past lambda_max and line search both failed",
                    diagnostics={"residual": residual[i], "iterations": iterations,
                                 "energy": energy[i],
                                 "point": Point.from_flat(model, x[:, live[i]])})
            candidate[:, i:i + 1], e_new[i] = found
        x[:, cols], energy = candidate, e_new
        for j, e in zip(live, energy):
            traces[j].append(e)
        iterations += 1


def _damped(objective: Objective, free: list[int], x: np.ndarray, grad: np.ndarray,
            hess: np.ndarray, energy: list[float], residual: list[float]):
    """The fallback step from the column ``x`` (dim, 1), of gradient
    ``grad`` (k, 1), free Hessian ``hess`` (k, k), ``energy`` and
    ``residual`` ([float]), whose undamped Newton step was rejected: the
    Levenberg shift grows geometrically from ``_LAMBDA0``, and past
    ``_LAMBDA_MAX`` gradient descent with Armijo backtracking takes over.
    Returns the accepted candidate (dim, 1) and its energy, or None if
    none is accepted."""
    eye = np.eye(len(free))
    lam = _LAMBDA0
    while lam <= _LAMBDA_MAX:
        step, ok = _steps((hess + lam * eye)[:, :, None], grad)
        candidate = x.copy()
        candidate[free] += step
        e_new, accept = _try_candidates(objective, free, candidate, ok, energy, residual)
        if accept[0]:
            return candidate, e_new[0]
        lam *= _LAMBDA_GROWTH
    with np.errstate(over="ignore"):  # an unbounded energy's gradient may square to inf
        g2 = float(grad[:, 0] @ grad[:, 0])
    t = 1.0
    while t >= 1e-18:
        candidate = x.copy()
        candidate[free] -= t * grad
        e_new = _energies(objective, candidate)[0]
        if e_new <= energy[0] - _ARMIJO_C * t * g2:
            return candidate, e_new
        t *= 0.5
    return None


def _try_candidates(objective: Objective, free: list[int], x: np.ndarray, ok: list[bool],
                    energy: list[float], residual: list[float]) -> tuple[list[float], list[bool]]:
    """Energies of the candidates, the columns of ``x`` (dim, m), at
    points of ``energy`` and ``residual``, and whether each is accepted.
    A candidate whose step is not ``ok`` is not evaluated and reads inf.
    One is accepted if its energy is lower, or on a flat bottom (the same
    energy) if its residual is strictly lower, so accepted iterates never
    increase the energy."""
    if all(ok):
        tried, e_new = range(len(ok)), _energies(objective, x)
    else:
        tried = [i for i, o in enumerate(ok) if o]
        e_new = [np.inf] * len(ok)
        for i, e in zip(tried, _energies(objective, x[:, tried]) if tried else ()):
            e_new[i] = e
    accept = [e < e0 for e, e0 in zip(e_new, energy)]
    flat = [i for i in tried if e_new[i] == energy[i]]
    if flat:
        grad = objective.derivatives(_at(objective.model, x[:, flat]), order=1, active=free).grad
        for i, r in zip(flat, _residuals(grad.reshape(len(free), len(flat)))):
            accept[i] = r < residual[i]
    return e_new, accept


def _at(model, x: np.ndarray) -> Point:
    """The points of the columns of ``x`` (dim, m), as a view: ``value``
    and ``derivatives`` never write to a point.  A single column is
    evaluated on its 1-D point: Python-float arithmetic is quicker than a
    batch of one."""
    return Point.from_flat(model, x[:, 0] if x.shape[1] == 1 else x, copy=False)


def _values(objective: Objective, x: np.ndarray) -> list[float]:
    """Energies of the columns of ``x`` (dim, m)."""
    energy = objective.value(_at(objective.model, x))
    return [energy] if x.shape[1] == 1 else energy.tolist()


def _energies(objective: Objective, x: np.ndarray) -> list[float]:
    """Energies of the columns of ``x`` (dim, m); a column outside the
    energy's domain reads inf."""
    try:
        return _values(objective, x)
    except EnergyDomainError:
        if x.shape[1] == 1:
            return [np.inf]
        return [e for j in range(x.shape[1]) for e in _energies(objective, x[:, j:j + 1])]


def _residuals(grad: np.ndarray) -> list[float]:
    """max|g| of each column of ``grad`` (k, m)."""
    return abs(grad).max(0).tolist() if len(grad) else [0.0] * grad.shape[1]


def _steps(hess: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, list[bool]]:
    """Newton steps for ``hess`` (k, k, m) and ``grad`` (k, m), and for
    each column whether its step exists and is finite."""
    try:
        step = np.linalg.solve(hess.transpose(2, 0, 1), -grad.T[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError:
        if grad.shape[1] == 1:
            return np.zeros_like(grad), [False]
        parts = [_steps(hess[:, :, j:j + 1], grad[:, j:j + 1]) for j in range(grad.shape[1])]
        return np.hstack([step for step, _ in parts]), [ok for _, (ok,) in parts]
    return step, np.isfinite(step).all(0).tolist()


def schur_effective_hessian(hess: np.ndarray, keep, mode: str = "minimize") -> np.ndarray:
    """Effective Hessian on the ``keep`` coordinates.

    ``mode="minimize"`` re-minimizes the complement: returns
    ``H_ff - H_fc H_cc^{-1} H_cf``.  ``mode="clamp"`` holds the complement
    fixed and returns the plain ``H_ff`` submatrix.
    """
    hess = finite_array(hess, "hessian")
    if hess.ndim != 2 or hess.shape[0] != hess.shape[1]:
        raise QueryError("hessian must be square")
    n = hess.shape[0]
    try:
        keep = list(keep)
    except TypeError:
        raise QueryError("keep must be a list of indices") from None
    if not all(_is_int(k) and 0 <= k < n for k in keep):
        raise QueryError(f"keep indices must be integers in [0, {n})")
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
    with np.errstate(all="ignore"):
        out = h_ff - h_fc @ solved
    if not np.isfinite(out).all():
        raise SingularSystemError("the effective Hessian overflows")
    return out
