"""Vector-field semantics: trajectories, steady states, dynamic checks.

Dynamics are declared per endogenous variable (scalar variables only) and
obey the same parent mask as local energy terms.  Hard interventions act
as feedback control, replacing the target's component with
``gain * (value - z_target)``; a soft intervention is a ``causal.SoftSurgery``
that blends the target's component as ``causal.apply_surgery`` blends a local
term.  Integration is classical fixed-step fourth-order Runge-Kutta.

The dynamic checks test the field's residual F_i with the shared routines
of ``diagnostics``: locality reads dF_i/dz_A and dF_i/dtheta_A from one
exact field Jacobian per point, shared by every (A, i) pair and reduced
once when components are eliminated, whose ``_locality_blocks`` entries
the check, its penalty and ``escm diagnose`` read; independence reads one
order-2 jet of F_i over the parent and own parameters, or, when F_i reads
no parent parameter, evaluates only its value and reports exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .causal import SoftSurgery, _blend, _targets, surgery_from_dict
from .codegen import term_value
from .diagnostics import (STRUCTURAL_TOL, IcmReport, LapReport, _independence_penalty,
                          _independence_report, _locality_blocks, _locality_penalty,
                          _locality_reports, nondesc_pairs)
from .engine import Objective, Point, _require_nondescendant
from .errors import QueryError, SingularSystemError, SolverError
from .model import Model
from .solver import SolverConfig, finite_number

__all__ = [
    "Trajectory",
    "DynHardSurgery",
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
        object.__setattr__(self, "value", finite_number(self.value, "feedback value"))
        object.__setattr__(self, "gain", finite_number(self.gain, "feedback gain"))
        if not self.gain > 0:
            raise QueryError("feedback gain must be positive")


def dyn_surgery_from_dict(model: Model, data: dict):
    """A field edit from its JSON form: ``hard`` is feedback control with a
    gain; any other payload goes to :func:`causal.surgery_from_dict`."""
    if isinstance(data, dict) and data.get("kind") == "hard":
        return DynHardSurgery(data.get("target"), data.get("value"), data.get("gain", 10.0))
    return surgery_from_dict(model, data)


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
        surgeries = tuple(surgeries)
        if not all(isinstance(s, (DynHardSurgery, SoftSurgery)) for s in surgeries):
            raise QueryError("dynamic surgeries must be DynHardSurgery or SoftSurgery")
        _targets(model, [s.target for s in surgeries])
        edits = {s.target: s for s in surgeries}
        self.rows: list[tuple[str, object]] = []
        for name in self.nodes:
            s = edits.get(name)
            if isinstance(s, DynHardSurgery):
                self.rows.append(("hard", s))
            elif s is not None:
                self.rows.append(("term", _blend(model, s, components[name].compiled)))
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
                out[k] = term_value(payload, values)
        return out

    def jacobian(self, z: np.ndarray, point: Point) -> np.ndarray:
        point.z[:] = z
        return self.derivatives(point)

    def derivatives(self, point: Point, theta_refs=()) -> np.ndarray:
        """dF/dz and dF/dtheta side by side, (n, n + len(theta_refs)), at
        the point, exactly, with one order-1 jet per component;
        ``theta_refs`` are flat indices."""
        n = len(self.rows)
        col = dict(zip(theta_refs, range(n, n + len(theta_refs))))
        col.update((ref, ref) for ref in self.model.coords("z"))  # z sits at [0, nz)
        out = np.zeros((n, n + len(theta_refs)))
        for k, (kind, payload) in enumerate(self.rows):
            if kind == "hard":
                out[k, k] = -payload.gain
                continue
            active = [r for r in payload.refs if r in col]
            out[k, [col[r] for r in active]] = self.objective.term_jet(
                payload, point, active, order=1)[1]
        return out


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
    surgeries = tuple(surgeries)  # read twice: by the field and for the events
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


def _field_rows(model: Model, point: Point, eliminated: tuple = ()):
    """The ``residual_rows`` of ``diagnostics._locality_blocks`` for the
    field, from one field Jacobian at the point: ``residual_rows(i, refs)``
    is ``(rows, slot)`` with ``rows[0, slot[r]]`` the exact dF_i/dr for a z
    or theta coordinate r, and ``slot[model.dim]`` a zero column.

    With ``eliminated`` nodes, the rows are those of the reduced field
    obtained by solving those components' stationarity and chaining
    through them.
    """
    field_fn = _Field(model)
    thetas = model.coords("theta")
    theta_refs = sorted({r for _, term in field_fn.rows for r in term.refs if r in thetas})
    table = np.pad(field_fn.derivatives(point, theta_refs), ((0, 0), (0, 1)))
    nodes = field_fn.nodes
    keep = [k for k, name in enumerate(nodes) if name not in eliminated]
    if eliminated:
        drop = [nodes.index(name) for name in eliminated]
        try:
            chained = np.linalg.solve(table[np.ix_(drop, drop)], table[drop])
        except np.linalg.LinAlgError:
            raise SingularSystemError("eliminated block is singular") from None
        table = table[keep] - table[np.ix_(keep, drop)] @ chained
    n = len(nodes)
    slot = np.full(model.dim + 1, table.shape[1] - 1)
    slot[:n] = np.arange(n)  # z sits at [0, nz) of the flat order
    slot[theta_refs] = n + np.arange(len(theta_refs))
    row = {nodes[k]: r for r, k in enumerate(keep)}
    return lambda i, refs: (table[row[i]:row[i] + 1], slot)


def _eliminated(model: Model, eliminate, pairs) -> tuple:
    """``eliminate`` as a tuple of distinct endogenous names that no pair
    names."""
    nodes = [v.name for v in model.endogenous]
    try:
        eliminated = None if isinstance(eliminate, str) else tuple(eliminate)
    except TypeError:  # not iterable
        eliminated = None
    if eliminated is None or any(name not in nodes for name in eliminated) \
            or len(set(eliminated)) < len(eliminated):
        raise QueryError(f"eliminate must list distinct endogenous variables, not {eliminate!r}")
    if any(a in eliminated or i in eliminated for a, i in pairs):
        raise QueryError("cannot eliminate the pair coordinates themselves")
    return eliminated


def dyn_lap_check(model: Model, a: str, i: str, point: Point,
                  tol: float = STRUCTURAL_TOL, eliminate=()) -> LapReport:
    """Exact partials dF_i/dz_a and dF_i/dtheta_a; i must be a
    non-descendant of a.  Both are entries of the field Jacobian at the
    point, which ``escm diagnose`` and ``dyn_lap_penalty`` build once and
    share among all pairs.

    ``eliminate`` names coordinates removed by substitution: the check then
    applies to the reduced field obtained by solving those components'
    stationarity and chaining through them.
    """
    return _dyn_lap_reports(model, [(a, i)], point, tol, eliminate)[0]


def _dyn_lap_reports(model: Model, pairs, point: Point, tol: float = STRUCTURAL_TOL,
                     eliminate=()) -> list[LapReport]:
    """``dyn_lap_check`` of every (A, i) pair, in order, read from one
    field Jacobian at the point (reduced once when ``eliminate`` is set)."""
    finite_number(tol, "tol", low=0.0)
    eliminated = _eliminated(model, eliminate, pairs)
    residual_rows = _field_rows(model, point, eliminated)
    for a, i in pairs:  # after the field's own errors
        _require_nondescendant(model, a, i)
        model.var(i)  # an i with no field row raises what lap_check raises
        model.local_term(i)
    found = _locality_blocks(model, pairs, residual_rows, dynamics=True)
    return _locality_reports(model, pairs, found, tol, dynamics=True, eliminated=eliminated)


def _dyn_lap_blocks(model: Model, pairs, point: Point) -> list[tuple]:
    """The locality blocks of every (A, i) pair, in order (see
    ``diagnostics._locality_blocks``), read from one field Jacobian."""
    return _locality_blocks(model, pairs, _field_rows(model, point), dynamics=True)


def dyn_icm_check(model: Model, i: str, point: Point,
                  tol: float = STRUCTURAL_TOL) -> IcmReport:
    """Parent-parameter derivatives of the component F_i, first and mixed:
    ``d_residual_d_parent`` holds dF_i/dtheta_PA(i) and
    ``mixed_parent_own`` d2F_i/(dtheta_PA(i) dtheta_i)."""
    components = _require_dynamics(model)
    if not isinstance(i, str) or i not in components:
        raise QueryError(f"no dynamics component for {i!r}")

    def residual_derivatives(parent_refs, own_refs):
        # F_i is the residual's one row, at slot 0 of the row axis; if it
        # reads no parent parameter, every block is exactly zero and only
        # its value is evaluated, which keeps a domain error
        term = components[i].objective_term
        if set(parent_refs).isdisjoint(term.refs):
            term_value(term, point.x.tolist())
            return None
        active = list(dict.fromkeys(parent_refs + own_refs))
        _, grad, hess, _ = Objective.from_model(model).term_jet(term, point, active, order=2)
        slot = {ref: k for k, ref in enumerate(active)}
        slot[model.coord_indices(i)[0]] = 0
        return grad[None], hess[None], slot

    return _independence_report(model, i, residual_derivatives, tol, dynamics=True)


def dyn_lap_penalty(model: Model, samples: list[Point], lam=1.0, mu=1.0) -> float:
    """Sampled penalty mirroring the static locality aggregation."""
    if not samples:
        raise QueryError("dyn_lap_penalty needs at least one sample point")
    pairs = nondesc_pairs(model)
    return _locality_penalty(pairs, [_dyn_lap_blocks(model, pairs, point) for point in samples],
                             lam, mu, 0.0)


def dyn_icm_penalty(model: Model, samples: list[Point], alpha=1.0, beta=1.0) -> float:
    """Sampled penalty mirroring the static independence aggregation."""
    if not samples:
        raise QueryError("dyn_icm_penalty needs at least one sample point")
    icm = [[dyn_icm_check(model, node, point) for node in model.dag.nodes] for point in samples]
    return _independence_penalty(icm, alpha, beta, 0.0)
