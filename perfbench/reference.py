"""Closed-form answers for the benchmark's models, computed without escm.

Every model the benchmark feeds to escm is a corpus model: scalar
variables Z1..Zn paired with U1..Un, local terms

    0.5*w_j*sq(z.Zj - sum_p theta.Zj.c_Zp*z.Zp - u.Uj)

and exogenous terms 0.5*sq(u.Uj).  With A = I - C the energy over
x = (z, u) is the quadratic form 0.5 * x^T M x with

    M = [[A^T W A, -A^T W], [-W A, W + I]],

so every query the benchmark asks has an answer that needs only numpy:
abduction is a linear solve on the free block of M, prediction after a
hard or mean-shift surgery is a forward pass through the structural
equations z_j = sum_p c_jp z_p + u_j (+ shift), and the pushforward of a
Gaussian exogenous law through that affine map has closed-form moments.

escm stops a solve once max|grad E| <= TOL_GRAD, so a solved answer is
compared within the distance that rule allows (``stopping_slack``) on
top of the relative tolerance.  The diagnose models may also carry one
planted violation (see ``plant``), whose exact cross-partials this module
derives from the planted term alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

TOL_GRAD = 1e-10  # escm's default SolverConfig.tol_grad

_NUM = r"-?[0-9][0-9.eE+-]*"
_LOCAL_RE = re.compile(
    rf"^0\.5\*(?:(?P<w>{_NUM})\*)?sq\((?P<res>[^()]*)\)(?P<rest>.*)$")
_COUPLING_RE = re.compile(r"^- theta\.(\w+)\.(\w+)\*z\.(\w+)$")
_ICM_RE = re.compile(
    rf"^ \+ (?P<c>{_NUM})\*theta\.(?P<p>\w+)\.q(?P<m>\*theta\.(?P<own>\w+)\.m)?\*z\.(?P<i>\w+)$")
_LAP_Z_RE = re.compile(rf"^(?P<c>{_NUM})\*z\.(?P<a>\w+)\*z\.(?P<i>\w+)$")
_LAP_THETA_RE = re.compile(rf"^(?P<c>{_NUM})\*theta\.(?P<a>\w+)\.p_lap\*z\.(?P<i>\w+)$")


@dataclass
class Plant:
    """One planted violation: its kind, the (A, i) pair or (parent, child)
    edge it sits on, and its coefficient."""

    kind: str  # "lap_z" | "lap_theta" | "icm_first" | "icm_mixed"
    where: tuple[str, str]
    coeff: float


@dataclass
class QuadModel:
    """The structural reading of a corpus model dict."""

    names: list[str]
    weights: np.ndarray
    coupling: np.ndarray  # coupling[j, p] = c_jp
    edge: list[list[bool]]  # edge[j][p]: p is a parent of j
    order: list[int]
    has_dynamics: bool
    plants: list[Plant]

    @property
    def n(self) -> int:
        return len(self.names)

    def descendants(self, j: int) -> set[int]:
        out: set[int] = set()
        stack = [j]
        while stack:
            k = stack.pop()
            for child in range(self.n):
                if self.edge[child][k] and child not in out:
                    out.add(child)
                    stack.append(child)
        return out


def parse(spec: dict) -> QuadModel:
    """Read weights, couplings, edges and planted terms from a model dict.

    Raises ValueError on any term outside the forms the benchmark writes,
    so a checker never silently answers a different question.
    """
    names = [v["name"] for v in spec["variables"] if v["kind"] == "endogenous"]
    exo = [v["name"] for v in spec["variables"] if v["kind"] == "exogenous"]
    n = len(names)
    if exo != [f"U{k + 1}" for k in range(n)] or \
            names != [f"Z{k + 1}" for k in range(n)]:
        raise ValueError("expected variables Z1..Zn paired with U1..Un")
    index = {name: k for k, name in enumerate(names)}
    edge = [[False] * n for _ in range(n)]
    for parent, child in spec["edges"]:
        edge[index[child]][index[parent]] = True

    weights = np.zeros(n)
    coupling = np.zeros((n, n))
    plants: list[Plant] = []
    seen_local = set()
    for term in spec["terms"]:
        owner, expr = term["owner"], term["expr"]
        params = term.get("params", {})
        if owner.startswith("exo:"):
            k = exo.index(owner[4:])
            if expr != f"0.5*sq(u.U{k + 1})":
                raise ValueError(f"unexpected exogenous term {expr!r}")
            continue
        if owner == "global":
            m = _LAP_Z_RE.match(expr)
            kind = "lap_z"
            if m is None:
                m = _LAP_THETA_RE.match(expr)
                kind = "lap_theta"
            if m is None:
                raise ValueError(f"unexpected global term {expr!r}")
            plants.append(Plant(kind, (m["a"], m["i"]), float(m["c"])))
            continue
        name = owner[len("local:"):]
        j = index[name]
        seen_local.add(name)
        m = _LOCAL_RE.match(expr)
        if m is None:
            raise ValueError(f"unexpected local term {expr!r}")
        weights[j] = float(m["w"]) if m["w"] is not None else 1.0
        tokens = [t.strip() for t in re.split(r"(?= - )", m["res"])]
        if tokens[0] != f"z.{name}" or tokens[-1] != f"- u.U{j + 1}":
            raise ValueError(f"unexpected residual {m['res']!r}")
        for tok in tokens[1:-1]:
            c = _COUPLING_RE.match(tok)
            if c is None or c[1] != name or not edge[j][index[c[3]]]:
                raise ValueError(f"unexpected coupling {tok!r}")
            coupling[j, index[c[3]]] = float(params[c[2]])
        if m["rest"]:
            r = _ICM_RE.match(m["rest"])
            if r is None or r["i"] != name or (r["m"] and r["own"] != name):
                raise ValueError(f"unexpected planted term {m['rest']!r}")
            kind = "icm_mixed" if r["m"] else "icm_first"
            plants.append(Plant(kind, (r["p"], name), float(r["c"])))
    if seen_local != set(names):
        raise ValueError("every endogenous variable needs a local term")

    order: list[int] = []
    placed: set[int] = set()
    while len(order) < n:
        ready = [j for j in range(n) if j not in placed
                 and all(p in placed for p in range(n) if edge[j][p])]
        if not ready:
            raise ValueError("edges are cyclic")
        order.extend(ready)
        placed.update(ready)
    return QuadModel(names, weights, coupling, edge, order,
                     spec.get("dynamics") is not None, plants)


def energy_hessian(qm: QuadModel) -> np.ndarray:
    """M such that the energy is 0.5 x^T M x over x = (z, u)."""
    n = qm.n
    a = np.eye(n) - qm.coupling
    w = np.diag(qm.weights)
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = a.T @ w @ a
    m[:n, n:] = -a.T @ w
    m[n:, :n] = -w @ a
    m[n:, n:] = w + np.eye(n)
    return m


def forward(qm: QuadModel, z: np.ndarray, u: np.ndarray, free: set[int],
            hard: dict[int, float] | None = None,
            shift: dict[int, float] | None = None) -> np.ndarray:
    """One pass of the structural equations over ``free`` nodes; other
    nodes keep ``z`` and hard targets take their clamp value."""
    z = np.array(z, dtype=float)
    hard = hard or {}
    shift = shift or {}
    for j in qm.order:
        if j in hard:
            z[j] = hard[j]
        elif j in free:
            z[j] = qm.coupling[j] @ z + u[j] + shift.get(j, 0.0)
    return z


def observational(qm: QuadModel, u: np.ndarray) -> np.ndarray:
    """z solving every structural equation in context u."""
    return forward(qm, np.zeros(qm.n), u, set(range(qm.n)))


def abduct(qm: QuadModel, evidence: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-energy (z, u) with the evidence z clamped and the rest free:
    x_f = -M_ff^{-1} M_fc x_c."""
    n = qm.n
    m = energy_hessian(qm)
    clamped = sorted(evidence)
    free = [k for k in range(2 * n) if k not in evidence]
    x = np.zeros(2 * n)
    x[clamped] = [evidence[k] for k in clamped]
    x[free] = np.linalg.solve(m[np.ix_(free, free)], -m[np.ix_(free, clamped)] @ x[clamped])
    return x[:n], x[n:]


def predict_free(qm: QuadModel, target: int, soft: bool) -> set[int]:
    """Nodes that re-equilibrate after surgery on ``target``: its
    descendants, plus the target itself under a soft edit."""
    free = qm.descendants(target)
    return free | {target} if soft else free


def predict(qm: QuadModel, pre_z: np.ndarray, pre_u: np.ndarray, target: int,
            value: float | None = None, lam: float = 0.0,
            delta: float = 0.0) -> np.ndarray:
    """Post-surgery z from an abducted point: do(target := value) when
    ``value`` is given, else a soft blend at weight ``lam`` with the
    mean-shifted mechanism (residual shifted by ``delta``), whose joint
    minimum puts the target's residual at lam * delta."""
    if value is not None:
        return forward(qm, pre_z, pre_u, predict_free(qm, target, False),
                       hard={target: value})
    return forward(qm, pre_z, pre_u, predict_free(qm, target, True),
                   shift={target: lam * delta})


def counterfactual(qm: QuadModel, evidence: dict[int, float], target: int,
                   value: float | None = None, lam: float = 0.0,
                   delta: float = 0.0):
    """(pre_z, pre_u, post_z): abduction, then :func:`predict`."""
    pre_z, pre_u = abduct(qm, evidence)
    return pre_z, pre_u, predict(qm, pre_z, pre_u, target, value, lam, delta)


def envelope(qm: QuadModel, pre_z: np.ndarray, pre_u: np.ndarray, target: int,
             values: list[float], readout: int):
    """Per-branch readouts of do(target in values) from an abducted point,
    and their [min, max]."""
    branches = {v: float(predict(qm, pre_z, pre_u, target, value=v)[readout])
                for v in values}
    return branches, (min(branches.values()), max(branches.values()))


def stopping_slack(qm: QuadModel, free: list[int]) -> np.ndarray:
    """How far from the exact minimizer escm's stopping rule lets a solve
    end, per coordinate of x = (z, u); zero on clamped coordinates.

    escm stops once max|grad| <= TOL_GRAD.  The energy is quadratic, so
    grad = M_ff (x_f - x*_f) and |x_f - x*_f| <= |M_ff^{-1}| 1 TOL_GRAD.
    Hard surgery deletes only the target's term, which reads no
    descendant, and a mean-shift blend keeps the target's curvature, so
    the free block of M is the same before and after surgery.
    """
    m = energy_hessian(qm)
    out = np.zeros(2 * qm.n)
    if free:
        inverse = np.linalg.inv(m[np.ix_(free, free)])
        out[free] = TOL_GRAD * np.abs(inverse).sum(axis=1)
    return out


def linear_readout_moments(qm: QuadModel, weights: np.ndarray, mu: np.ndarray,
                           sigma: np.ndarray) -> tuple[float, float]:
    """Mean and variance of weights . z when u ~ N(mu, diag(sigma^2));
    z = B u is linear, with column k of B the answer to u = e_k."""
    basis = np.column_stack([observational(qm, np.eye(qm.n)[k]) for k in range(qm.n)])
    row = weights @ basis
    return float(row @ mu), float(np.sum(row ** 2 * sigma ** 2))


def nondesc_pairs(qm: QuadModel) -> list[tuple[str, str]]:
    """Ordered pairs (A, i) with i neither A nor a descendant of A."""
    return [(qm.names[a], qm.names[i]) for a in range(qm.n) for i in range(qm.n)
            if i != a and i not in qm.descendants(a)]


def expected_diagnose(qm: QuadModel) -> dict:
    """The exact report entries of ``escm diagnose`` at the zero point.

    Clean structure has exactly zero cross-partials.  A planted term
    c*z.A*z.i shows |c| in the z block of each orientation of {A, i} that
    is a non-descendant pair; c*theta.A.p_lap*z.i shows |c| in the theta
    block of (A, i); c*theta.P.q*z.i and c*theta.P.q*theta.i.m*z.i (m = 0)
    show |c| in the first and mixed independence blocks of i.  Each
    penalty is the sum of squares of the blocks it aggregates, each square
    the rounded product c * c as numpy forms it (``c ** 2`` goes through
    pow and can differ in the last bit).
    """
    pairs = nondesc_pairs(qm)
    lap = {pair: [0.0, 0.0] for pair in pairs}
    icm = {name: [0.0, 0.0] for name in qm.names}
    lap_penalty = 0.0
    icm_penalty = 0.0
    for plant in qm.plants:
        a, i = plant.where
        size = abs(plant.coeff)
        if plant.kind == "lap_z":
            for pair in ((a, i), (i, a)):
                if pair in lap:
                    lap[pair][0] = size
                    lap_penalty += plant.coeff * plant.coeff
        elif plant.kind == "lap_theta":
            lap[(a, i)][1] = size
            lap_penalty += plant.coeff * plant.coeff
        else:
            icm[i][0 if plant.kind == "icm_first" else 1] = size
            icm_penalty += plant.coeff * plant.coeff
    out = {"lap": lap, "icm": icm, "lap_penalty": lap_penalty,
           "icm_penalty": icm_penalty}
    if qm.has_dynamics:
        # planted terms live in the energy only; the declared vector field
        # reads each node's own parameters and parents, so every dynamic
        # block is an exact zero
        out["dyn_lap"] = {pair: [0.0, 0.0] for pair in pairs}
        out["dyn_icm"] = {name: [0.0, 0.0] for name in qm.names}
    return out


def mean_shifted(expr: str, delta: float) -> str:
    """A local term's source with its residual shifted by ``delta``: the
    replacement mechanism of a soft mean-shift surgery."""
    m = _LOCAL_RE.match(expr)
    if m is None or m["rest"]:
        raise ValueError(f"unexpected local term {expr!r}")
    weight = f"{m['w']}*" if m["w"] is not None else ""
    return f"0.5*{weight}sq({m['res']} - ({float(delta)!r}))"


def plant(spec: dict, kind: str, where: tuple[str, str], coeff: float) -> dict:
    """Copy of a corpus model dict with one violation of ``kind`` planted
    on the (A, i) pair (lap kinds) or the (parent, child) edge (icm kinds)."""
    out = {"variables": spec["variables"], "edges": spec["edges"],
           "terms": [dict(t, params=dict(t.get("params", {}))) for t in spec["terms"]]}
    if "dynamics" in spec:
        out["dynamics"] = spec["dynamics"]
    for t in out["terms"]:
        if not t["params"]:
            del t["params"]
    local = {t["owner"][len("local:"):]: t for t in out["terms"]
             if t["owner"].startswith("local:")}
    a, i = where
    c = repr(float(coeff))
    if kind == "lap_z":
        out["terms"].append({"owner": "global", "expr": f"{c}*z.{a}*z.{i}"})
    elif kind == "lap_theta":
        local[a].setdefault("params", {})["p_lap"] = 1.0
        out["terms"].append({"owner": "global", "expr": f"{c}*theta.{a}.p_lap*z.{i}"})
    elif kind == "icm_first":
        local[a].setdefault("params", {})["q"] = 1.0
        local[i]["expr"] += f" + {c}*theta.{a}.q*z.{i}"
    elif kind == "icm_mixed":
        local[a].setdefault("params", {})["q"] = 1.0
        # m = 0 keeps the first-order block exactly clean
        local[i].setdefault("params", {})["m"] = 0.0
        local[i]["expr"] += f" + {c}*theta.{a}.q*theta.{i}.m*z.{i}"
    else:
        raise ValueError(f"unknown violation kind {kind!r}")
    return out
