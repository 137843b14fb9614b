"""Vector-field semantics: trajectories, steady states, dynamic checks.

Dynamics are declared per endogenous variable (scalar variables only) and
obey the same parent mask as local energy terms.  Hard interventions act
as feedback control, replacing the target's component with
``gain * (value - z_target)``; soft interventions blend in a replacement
field.  Integration is classical fixed-step fourth-order Runge-Kutta.

The dynamic locality check reads dF_i/dz_A and dF_i/dtheta_A from one
exact field Jacobian per point, shared by every (A, i) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import _max_abs, _penalty, nondesc_pairs
from .engine import (Objective, ObjectiveTerm, Point, _evaluate_term,
                     _require_nondescendant)
from .errors import QueryError, SingularSystemError, SolverError
from .expr import compile_query
from .model import Model
from .solver import SolverConfig, finite_number

__all__ = [
    "Trajectory",
    "DynHardSurgery",
    "DynSoftSurgery",
    "SteadyState",
    "dyn_surgery_from_dict",
    "integrate",
    "steady_state",
    "dyn_lap_check",
    "dyn_icm_check",
    "dyn_lap_penalty",
    "dyn_icm_penalty",
]


@dataclass(frozen=True)
class DynHardSurgery:
    """Replace the target's field with feedback control toward ``value``."""

    target: str
    value: float
    gain: float = 10.0

    kind = "hard"

    def __post_init__(self):
        if not self.gain > 0:
            raise QueryError("feedback gain must be positive")


@dataclass(frozen=True)
class DynSoftSurgery:
    """Blend the target's field with a replacement at weight ``lam``."""

    target: str
    lam: float
    expr: str

    kind = "soft"

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise QueryError("soft surgery weight must lie in [0, 1]")
        if not isinstance(self.expr, str):
            raise QueryError(f"soft surgery expression {self.expr!r} is not a string")


def dyn_surgery_from_dict(model: Model, data: dict):
    if not isinstance(data, dict) or "kind" not in data:
        raise QueryError(f"bad dynamic surgery payload {data!r}")
    target = data.get("target")
    model.var(target)  # a QueryError unless it names a variable
    if data["kind"] == "hard":
        return DynHardSurgery(target, finite_number(data.get("value"), "feedback value"),
                              finite_number(data.get("gain", 10.0), "feedback gain"))
    if data["kind"] == "soft":
        return DynSoftSurgery(target, finite_number(data.get("lambda", data.get("lam")),
                                                    "soft surgery weight"), data.get("expr"))
    raise QueryError(f"unknown dynamic surgery kind {data['kind']!r}")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (len(times), nz)
    events: list[dict] = field(default_factory=list)
    node_order: list[str] = field(default_factory=list)


def _require_dynamics(model: Model):
    if model.dynamics is None:
        raise QueryError("model declares no dynamics")
    for v in model.endogenous:
        if v.dim != 1:
            raise QueryError("dynamic semantics require scalar endogenous variables")
    return {comp.var: comp for comp in model.dynamics}


class _Field:
    """Evaluable vector field after surgery, with exact Jacobians."""

    def __init__(self, model: Model, surgeries=()):
        components = _require_dynamics(model)
        self.model = model
        self.objective = Objective.from_model(model)  # evaluates the rows' jets
        self.nodes = [v.name for v in model.endogenous]
        self.rows: list[tuple[str, object]] = []
        hard: dict[str, DynHardSurgery] = {}
        soft: dict[str, DynSoftSurgery] = {}
        for s in surgeries:
            if isinstance(s, DynHardSurgery):
                hard[s.target] = s
            elif isinstance(s, DynSoftSurgery):
                soft[s.target] = s
            else:
                raise QueryError("dynamic surgeries must be DynHardSurgery or DynSoftSurgery")
        for name in list(hard) + list(soft):
            if name not in components:
                raise QueryError(f"dynamic surgery target {name!r} has no component")
        for name in self.nodes:
            if name in hard:
                self.rows.append(("hard", hard[name]))
                continue
            if name in soft:
                s = soft[name]
                replacement = compile_query(s.expr, model.term_resolver(model.local_term(name)))
                self.rows.append(("term", ObjectiveTerm.blend(
                    name, s.lam, components[name].compiled, replacement)))
            else:
                self.rows.append(("term", components[name].objective_term))

    def value(self, z: np.ndarray, point: Point) -> np.ndarray:
        point.z[:] = z
        values = point.x.tolist()
        out = np.empty(len(self.rows))
        for k, (kind, payload) in enumerate(self.rows):
            if kind == "hard":
                out[k] = payload.gain * (payload.value - z[k])
            else:
                out[k] = _evaluate_term(payload, values)
        return out

    def jacobian(self, z: np.ndarray, point: Point) -> np.ndarray:
        point.z[:] = z
        return self.derivatives(point)[0]

    def derivatives(self, point: Point, theta_refs=()):
        """dF/dz (n, n) and dF/dtheta (n, len(theta_refs)) at the point,
        exactly, with one order-1 jet per component; ``theta_refs`` are
        flat indices."""
        col = {ref: j for j, ref in enumerate(theta_refs)}
        z = self.model.coords("z")
        n = len(self.rows)
        jac = np.zeros((n, n))
        dtheta = np.zeros((n, len(col)))
        for k, (kind, payload) in enumerate(self.rows):
            if kind == "hard":
                jac[k, k] = -payload.gain
                continue
            active = [r for r in payload.refs if r in z or r in col]
            jet = self.objective.term_jet(payload, point, active, order=1)
            for ref, g in zip(active, jet.grad):
                if ref in z:
                    jac[k, ref] = g  # z sits at [0, nz) of the flat order
                else:
                    dtheta[k, col[ref]] = g
        return jac, dtheta


def integrate(model: Model, z0, u, surgeries=(), t_end: float = 10.0,
              dt: float = 0.01, theta=None) -> Trajectory:
    """Fixed-step RK4 integration of the (possibly edited) field.

    Surgeries are active from t=0 and recorded as events.  Raises
    :class:`SolverError` on a non-finite state, reporting the last finite
    time.
    """
    if finite_number(dt, "dt") <= 0:
        raise QueryError("dt must be positive")
    t_end = finite_number(t_end, "t_end", low=0.0)
    steps = round(finite_number(t_end / dt, "t_end / dt"))
    if (steps + 1) * max(model.nz, 1) * 8 > np.iinfo(np.intp).max:
        raise QueryError(f"t_end / dt is {steps} steps, more than an array can hold")
    field_fn = _Field(model, surgeries)
    point = Point.for_model(model, u=u, theta=theta)
    z = np.asarray(z0, dtype=float).copy()
    if z.shape != (model.nz,):
        raise QueryError("z0 has the wrong length")

    times = np.empty(steps + 1)
    states = np.empty((steps + 1, model.nz))
    times[0] = 0.0
    states[0] = z
    for n in range(steps):
        k1 = field_fn.value(z, point)
        k2 = field_fn.value(z + 0.5 * dt * k1, point)
        k3 = field_fn.value(z + 0.5 * dt * k2, point)
        k4 = field_fn.value(z + dt * k3, point)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)):
            raise SolverError(
                f"state became non-finite at t={(n + 1) * dt:g}",
                diagnostics={"last_finite_time": n * dt, "state": states[n].copy()},
            )
        times[n + 1] = (n + 1) * dt
        states[n + 1] = z
    events = [{"t": 0.0, "surgery": f"{s.kind}:{s.target}"} for s in surgeries]
    return Trajectory(times=times, states=states, events=events,
                      node_order=[v.name for v in model.endogenous])


@dataclass
class SteadyState:
    z: np.ndarray
    stable: bool
    residual: float
    iterations: int
    jacobian: np.ndarray


def steady_state(model: Model, u, surgeries=(), cfg: SolverConfig | None = None,
                 z0=None, theta=None) -> SteadyState:
    """Newton solve of F(z)=0 with exact Jacobians.

    Stability is judged by the Jacobian spectrum at the root: all real
    parts strictly negative.
    """
    cfg = cfg or SolverConfig()
    field_fn = _Field(model, surgeries)
    point = Point.for_model(model, u=u, theta=theta)
    z = np.zeros(model.nz) if z0 is None else np.asarray(z0, dtype=float).copy()

    iterations = 0
    fval = field_fn.value(z, point)
    residual = float(np.max(np.abs(fval))) if model.nz else 0.0
    while residual > cfg.tol_grad:
        if iterations >= cfg.max_iter:
            raise SolverError(
                f"steady state not found after {cfg.max_iter} iterations "
                f"(residual {residual:.3e})",
                diagnostics={"residual": residual, "z": z.copy()})
        jac = field_fn.jacobian(z, point)
        try:
            step = np.linalg.solve(jac, -fval)
        except np.linalg.LinAlgError:
            raise SingularSystemError("field Jacobian is singular") from None
        t = 1.0
        norm0 = float(np.linalg.norm(fval))
        while t >= 1e-14:
            cand = z + t * step
            f_new = field_fn.value(cand, point)
            if np.all(np.isfinite(f_new)) and float(np.linalg.norm(f_new)) < norm0:
                z, fval = cand, f_new
                break
            t *= 0.5
        else:
            raise SolverError("steady-state line search failed",
                              diagnostics={"residual": residual, "z": z.copy()})
        residual = float(np.max(np.abs(fval)))
        iterations += 1

    jac = field_fn.jacobian(z, point)
    eigenvalues = np.linalg.eigvals(jac)
    stable = bool(np.all(eigenvalues.real < 0.0))
    return SteadyState(z=z, stable=stable, residual=residual,
                       iterations=iterations, jacobian=jac)


# ---------------------------------------------------------------------------
# Dynamic locality / independence checks


@dataclass
class DynLapReport:
    pair: tuple[str, str]
    z_block: np.ndarray
    theta_block: np.ndarray
    max_abs_z: float
    max_abs_theta: float
    tol: float
    eliminated: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return max(self.max_abs_z, self.max_abs_theta) <= self.tol

    def _penalty_blocks(self):
        return self.pair, self.z_block, self.theta_block


def _field_derivs(model: Model, point: Point):
    """dF/dz and dF/dtheta over every theta coordinate the field reads."""
    field_fn = _Field(model)
    thetas = model.coords("theta")
    theta_refs = sorted({r for _, term in field_fn.rows for r in term.refs if r in thetas})
    jac, dtheta = field_fn.derivatives(point, theta_refs)
    return jac, dtheta, theta_refs


def dyn_lap_check(model: Model, a: str, i: str, point: Point,
                  tol: float = 1e-10, eliminate=()) -> DynLapReport:
    """Exact partials dF_i/dz_a and dF_i/dtheta_a; i must be a
    non-descendant of a.  Both are entries of the field Jacobian at the
    point, which ``escm diagnose`` and ``dyn_lap_penalty`` build once and
    share among all pairs.

    ``eliminate`` names coordinates removed by substitution: the check then
    applies to the reduced field obtained by solving those components'
    stationarity and chaining through them.
    """
    return _dyn_lap_reports(model, [(a, i)], point, tol, eliminate)[0]


def _dyn_lap_reports(model: Model, pairs, point: Point, tol: float = 1e-10,
                     eliminate=()) -> list[DynLapReport]:
    """``dyn_lap_check`` of every (A, i) pair, in order, sliced from one
    field Jacobian at the point (reduced once when ``eliminate`` is set).
    A theta coordinate the field does not read maps to the zero column m.
    Each row i gives the maxima of all of its pairs: its z entries at
    once, and its theta entries with one ``np.maximum.reduceat``.
    """
    finite_number(tol, "tol", low=0.0)
    sources: dict[str, list[str]] = {}
    for a, i in pairs:
        _require_nondescendant(model, a, i)
        sources.setdefault(i, []).append(a)
    jac, dtheta, theta_refs = _field_derivs(model, point)
    nodes = [v.name for v in model.endogenous]
    eliminated = tuple(eliminate)
    if eliminated:
        if any(a in eliminated or i in eliminated for a, i in pairs):
            raise QueryError("cannot eliminate the pair coordinates themselves")
        index = {name: k for k, name in enumerate(nodes)}
        drop = [index[name] for name in eliminated]
        keep = [k for k in range(len(nodes)) if k not in set(drop)]
        j_cc = jac[np.ix_(drop, drop)]
        try:
            solve_cf = np.linalg.solve(j_cc, jac[np.ix_(drop, keep)])
            solve_ct = np.linalg.solve(j_cc, dtheta[drop])
        except np.linalg.LinAlgError:
            raise SingularSystemError("eliminated block is singular") from None
        j_kd = jac[np.ix_(keep, drop)]
        jac, dtheta = jac[np.ix_(keep, keep)] - j_kd @ solve_cf, dtheta[keep] - j_kd @ solve_ct
        nodes = [nodes[k] for k in keep]
    row = {name: k for k, name in enumerate(nodes)}
    col = {ref: j for j, ref in enumerate(theta_refs)}
    m = len(col)
    cols = {a: [col.get(k, m) for k in model.module_theta_refs(a, dynamics=True)]
            for a in dict.fromkeys(a for a, _ in pairs)}
    dtheta = np.pad(dtheta, ((0, 0), (0, 1)))
    reports = {}
    for i, sources_i in sources.items():
        r = row[i]
        # every source's theta columns of row i side by side; an empty
        # segment holds the zero column m so reduceat reads it as 0.0
        picked, starts = [], []
        for a in sources_i:
            starts.append(len(picked))
            picked.extend(cols[a] or (m,))
        theta_row = dtheta[r:r + 1, picked]
        max_theta = np.maximum.reduceat(np.abs(theta_row[0]), starts).tolist()
        max_z = np.abs(jac[r, [row[a] for a in sources_i]]).tolist()
        for n, a in enumerate(sources_i):
            c = row[a]
            reports[(a, i)] = DynLapReport(
                pair=(a, i),
                z_block=jac[r:r + 1, c:c + 1],
                theta_block=theta_row[:, starts[n]:starts[n] + len(cols[a])],
                max_abs_z=max_z[n],
                max_abs_theta=max_theta[n],
                tol=tol,
                eliminated=eliminated,
            )
    return [reports[pair] for pair in pairs]


@dataclass
class DynIcmReport:
    node: str
    first: np.ndarray   # dF_i/dtheta_PA(i)
    mixed: np.ndarray   # d2F_i/(dtheta_PA(i) dtheta_i)
    max_abs_first: float
    max_abs_mixed: float
    tol: float

    @property
    def passed(self) -> bool:
        return max(self.max_abs_first, self.max_abs_mixed) <= self.tol

    def _penalty_blocks(self):
        return self.node, self.first, self.mixed


def dyn_icm_check(model: Model, i: str, point: Point,
                  tol: float = 1e-10) -> DynIcmReport:
    """Parent-parameter derivatives of the component F_i, first and mixed."""
    finite_number(tol, "tol", low=0.0)
    components = _require_dynamics(model)
    if i not in components:
        raise QueryError(f"no dynamics component for {i!r}")
    parent_refs = list(dict.fromkeys(k for p in model.dag.parents(i)
                                     for k in model.module_theta_refs(p, dynamics=True)))
    own_refs = model.module_theta_refs(i, dynamics=True)
    dp, do = len(parent_refs), len(own_refs)
    if dp == 0:
        return DynIcmReport(i, np.zeros((1, 0)), np.zeros((1, 0, do)), 0.0, 0.0, tol)
    # shared parameters may sit in both sets; evaluate on unique slots
    active = list(dict.fromkeys(parent_refs + own_refs))
    slot = {ref: k for k, ref in enumerate(active)}
    jet = Objective.from_model(model).term_jet(components[i].objective_term, point,
                                               active, order=2)
    cols_p = [slot[r] for r in parent_refs]
    first = jet.grad[None, cols_p]
    mixed = jet.hess[np.ix_(cols_p, [slot[r] for r in own_refs])][None]
    return DynIcmReport(
        node=i,
        first=first,
        mixed=mixed,
        max_abs_first=_max_abs(first),
        max_abs_mixed=_max_abs(mixed),
        tol=tol,
    )


def dyn_lap_penalty(model: Model, samples: list[Point], lam=1.0, mu=1.0) -> float:
    """Sampled penalty mirroring the static locality aggregation."""
    if not samples:
        raise QueryError("dyn_lap_penalty needs at least one sample point")
    pairs = nondesc_pairs(model)
    return _penalty([_dyn_lap_reports(model, pairs, point) for point in samples],
                    lam, mu)


def dyn_icm_penalty(model: Model, samples: list[Point], alpha=1.0, beta=1.0) -> float:
    """Sampled penalty mirroring the static independence aggregation."""
    if not samples:
        raise QueryError("dyn_icm_penalty needs at least one sample point")
    return _penalty([[dyn_icm_check(model, node, point) for node in model.dag.nodes]
                     for point in samples], alpha, beta)
