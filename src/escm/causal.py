"""Surgery and the abduction-intervention-prediction pipeline.

Hard surgery removes the target's local term and clamps its coordinates
(children still read the clamped value).  Soft surgery blends the target's
mechanism, a local term or a ``dynamics`` field component, with a
replacement without deleting edges.  Set-valued surgery is kept as a
family of hard branches: the envelope reports the family and its bounds,
and an optional selection cost with a softmin temperature commits to (or
blends) a branch.

Prediction re-minimizes descendants of the edited mechanisms while holding
the abducted exogenous configuration and all non-descendants fixed; the
hold/free partition is overridable because which latents count as
operationally exogenous is a modeling choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .codegen import expr_value
from .engine import Objective, ObjectiveTerm, Point
from .errors import EnergyDomainError, QueryError, SolverError
from .expr import CompiledExpr, compile_query
from .model import Model, VariableDecl
from .solver import (Equilibrium, SolverConfig, finite_number, normalize_clamps,
                     normalize_refs, solve)

__all__ = [
    "HardSurgery",
    "SoftSurgery",
    "DisjunctiveSurgery",
    "Evidence",
    "Explanation",
    "CounterfactualResult",
    "EnvelopeResult",
    "SelectionResult",
    "hard",
    "soft",
    "disjunctive",
    "surgery_from_dict",
    "apply_surgery",
    "abduct",
    "counterfactual",
    "disjunctive_envelope",
    "disjunctive_select",
    "evaluate_readout",
]


def _as_vector(value, dim: int, what: str) -> tuple[float, ...]:
    items = value if isinstance(value, (list, tuple, np.ndarray)) else [value]
    vec = tuple(finite_number(v, what) for v in items)
    if len(vec) != dim:
        raise QueryError(f"{what}: expected {dim} component(s), got {len(vec)}")
    return vec


@dataclass(frozen=True)
class HardSurgery:
    """do(target := value): delete the local term, clamp the coordinate."""

    target: str
    value: tuple[float, ...]

    kind = "hard"


@dataclass(frozen=True)
class SoftSurgery:
    """Blend the target's local term with a replacement at weight ``lam``."""

    target: str
    lam: float
    expr: str
    params: dict[str, float] = field(default_factory=dict)

    kind = "soft"

    def __hash__(self):
        return hash((self.target, self.lam, self.expr, tuple(sorted(self.params.items()))))


@dataclass(frozen=True)
class DisjunctiveSurgery:
    """Constrain target to a finite value set, optionally with a selection
    cost ``control`` (an expression over ``s`` and the abducted point)."""

    target: str
    values: tuple[tuple[float, ...], ...]
    rho: float = 0.0
    control: str | None = None
    tau: float = 0.0

    kind = "disjunctive"


Surgery = HardSurgery | SoftSurgery | DisjunctiveSurgery


def _targets(model: Model, targets) -> list[VariableDecl]:
    """The declarations of surgery targets, which must be endogenous and distinct."""
    decls = [model.var(target) for target in targets]
    for decl in decls:
        if decl.kind != "endogenous":
            raise QueryError(f"surgery target {decl.name!r} is not endogenous")
    if len({decl.name for decl in decls}) != len(decls):
        raise QueryError("multiple surgeries on the same target")
    return decls


def _weight(lam) -> float:
    """A soft surgery weight: a finite number in [0, 1]."""
    lam = finite_number(lam, "soft surgery weight")
    if not 0.0 <= lam <= 1.0:
        raise QueryError("soft surgery weight must lie in [0, 1]")
    return lam


def hard(model: Model, target: str, value) -> HardSurgery:
    [decl] = _targets(model, [target])
    return HardSurgery(target, _as_vector(value, decl.dim, f"do({target})"))


def soft(model: Model, target: str, lam: float, expr: str, params=None) -> SoftSurgery:
    _targets(model, [target])
    lam = _weight(lam)
    if not isinstance(expr, str):
        raise QueryError(f"soft surgery expression {expr!r} is not a string")
    if not isinstance(params or {}, dict):
        raise QueryError("soft surgery params must map names to numbers")
    params = {k: finite_number(v, f"soft surgery param {k!r}") for k, v in (params or {}).items()}
    # compile now so mask violations surface at construction time
    replacement = _compile_replacement(model, target, expr, params)
    surgery = SoftSurgery(target, lam, expr, params)
    # kept for apply_surgery; not a field, so equality, hash and JSON form
    # stay those of the four fields
    object.__setattr__(surgery, "_compiled", (model, replacement))
    return surgery


def disjunctive(model: Model, target: str, values, rho=0.0, control=None, tau=0.0) -> DisjunctiveSurgery:
    return _disjunctive(model, target, values, rho, control, tau)[0]


def _disjunctive(model: Model, target: str, values, rho, control,
                 tau) -> tuple[DisjunctiveSurgery, CompiledExpr | None]:
    """:func:`disjunctive`, plus the compiled selection cost (or None)."""
    [decl] = _targets(model, [target])
    if isinstance(values, (str, dict)) or not hasattr(values, "__iter__"):
        raise QueryError(f"disjunctive values must be a list, not {values!r}")
    vecs = sorted({_as_vector(v, decl.dim, f"do({target} in S)") for v in values})
    if not vecs:
        raise QueryError("disjunctive surgery needs a non-empty value set")
    rho, tau = finite_number(rho, "rho"), finite_number(tau, "tau")
    if rho < 0 or tau < 0:
        raise QueryError("rho and tau must be non-negative")
    compiled = None if control is None else _compile_readout(model, control, s_dim=decl.dim)
    return DisjunctiveSurgery(target, tuple(vecs), rho, control, tau), compiled


def surgery_from_dict(model: Model, data: dict) -> Surgery:
    """Build a surgery from its JSON form (see the query-file schema)."""
    if not isinstance(data, dict) or "kind" not in data:
        raise QueryError(f"bad surgery payload {data!r}")
    kind = data["kind"]
    if kind == "hard":
        return hard(model, data.get("target"), data.get("value"))
    if kind == "soft":
        return soft(model, data.get("target"), data.get("lambda", data.get("lam")),
                    data.get("expr"), data.get("params"))
    if kind == "disjunctive":
        return disjunctive(model, data.get("target"), data.get("values"),
                           data.get("rho", 0.0), data.get("control"),
                           data.get("tau", 0.0))
    raise QueryError(f"unknown surgery kind {kind!r}")


def _compile_replacement(model: Model, target: str, expr: str,
                         params: dict[str, float]) -> CompiledExpr:
    """Compile a replacement local term for ``target``.

    The replacement obeys the target's parent mask.  Its own parameters are
    bound to their supplied values as constants so that the model's flat
    theta map (and with it every Point) stays valid for the edited energy.
    """
    base = model.term_resolver(model.local_term(target))

    def resolve(sym):
        if (sym.parts[0] == "theta" and len(sym.parts) == 3
                and sym.parts[1] == target and sym.parts[2] in params):
            return float(params[sym.parts[2]])
        return base(sym)

    return compile_query(expr, resolve)


def _replacement(model: Model, surgery: SoftSurgery) -> CompiledExpr:
    """The compiled replacement of a soft surgery: the one :func:`soft`
    kept for this model, else compiled now."""
    owner, compiled = getattr(surgery, "_compiled", (None, None))
    if owner is model:
        return compiled
    return _compile_replacement(model, surgery.target, surgery.expr, surgery.params)


def _blend(model: Model, surgery: SoftSurgery, original: CompiledExpr) -> ObjectiveTerm:
    """``original`` (the target's local term or field component) blended
    with the surgery's replacement at its weight."""
    return ObjectiveTerm.blend(surgery.target, _weight(surgery.lam), original,
                               _replacement(model, surgery))


@dataclass
class EditedEnergy:
    """Objective after surgery, plus the clamp set hard surgery induces."""

    objective: Objective
    clamps: dict[int, float]
    hard_targets: tuple[str, ...]
    soft_targets: tuple[str, ...]
    surgeries: tuple[Surgery, ...]

    @property
    def targets(self) -> tuple[str, ...]:
        return self.hard_targets + self.soft_targets


def apply_surgery(model: Model, surgeries) -> EditedEnergy:
    """Apply hard/soft surgeries, returning the edited energy description.

    Set-valued surgeries are families of edits, not a single edit; expand
    them through :func:`disjunctive_envelope` or :func:`disjunctive_select`.
    """
    surgeries = (surgeries,) if isinstance(surgeries, Surgery) else tuple(surgeries)
    if not all(isinstance(s, (HardSurgery, SoftSurgery)) for s in surgeries):
        raise QueryError("only hard and soft surgeries edit the energy; expand a disjunctive "
                         "one branchwise (use disjunctive_envelope or disjunctive_select)")
    decls = _targets(model, [s.target for s in surgeries])

    terms = {t.label: t.objective_term for t in model.terms}
    clamps: dict[int, float] = {}
    hard_targets: list[str] = []
    soft_targets: list[str] = []
    for s, decl in zip(surgeries, decls):
        if isinstance(s, HardSurgery):
            value = _as_vector(s.value, decl.dim, f"do({s.target})")
            del terms[s.target]  # children still read the clamped value
            clamps.update(zip(model.coord_indices(s.target), value))
            hard_targets.append(s.target)
        else:
            terms[s.target] = _blend(model, s, model.local_term(s.target).compiled)
            soft_targets.append(s.target)

    return EditedEnergy(Objective(model, terms.values()), clamps,
                        tuple(hard_targets), tuple(soft_targets), surgeries)


# ---------------------------------------------------------------------------
# Evidence and abduction


@dataclass
class Evidence:
    """Clamp values for a subset of z (and optionally u) coordinates."""

    clamps: dict[int, float]

    @classmethod
    def from_dict(cls, model: Model, data: dict) -> "Evidence":
        clamps = normalize_clamps(model, data)
        if any(ref in model.coords("theta") for ref in clamps):
            raise QueryError("evidence on parameters is not supported")
        return cls(clamps)


@dataclass
class Explanation:
    """Abducted account of the evidence: the model, the latent witness,
    and how it was selected."""

    model: Model
    point: Point
    selector: str
    clamped: tuple[int, ...]
    free: tuple[int, ...]
    residual: float
    equilibrium: Equilibrium


def abduct(model: Model, evidence: Evidence | dict, cfg: SolverConfig | None = None) -> Explanation:
    """Recover the latent/exogenous configuration consistent with evidence.

    Minimizes the total energy with the evidence clamped and everything
    else free, from a deterministic zero initialization (the minimal-norm
    tie-break among solver-reachable minimizers).
    """
    if not isinstance(evidence, Evidence):
        evidence = Evidence.from_dict(model, evidence)
    cfg = cfg or SolverConfig()
    eq = solve(model, clamps=evidence.clamps, cfg=cfg)
    return Explanation(
        model=model,
        point=eq.point,
        selector=f"min-norm(init={cfg.init})",
        clamped=tuple(eq.clamps),
        free=eq.free,
        residual=eq.residual,
        equilibrium=eq,
    )


# ---------------------------------------------------------------------------
# Prediction


@dataclass
class CounterfactualResult:
    pre: Point
    post: Point
    surgeries: tuple[Surgery, ...]
    readouts: dict[str, float]
    explanation: Explanation
    equilibrium: Equilibrium
    free: tuple[int, ...]


def _compile_readout(model: Model, source, s_dim: int | None = None) -> CompiledExpr:
    if not isinstance(source, str):
        raise QueryError(f"readout {source!r} is not an expression string")
    return compile_query(source, model.readout_resolver(s_dim=s_dim))


def _read(compiled: CompiledExpr, point: Point, s=None) -> float:
    """A compiled readout at a point; ``s`` fills the indices past it."""
    values = point.x.tolist()
    if s is not None:
        values += [float(v) for v in s]
    return float(expr_value(compiled, values))


def evaluate_readout(model: Model, source: str, point: Point, s=None) -> float:
    """Evaluate a named readout expression at a point."""
    return _read(_compile_readout(model, source, None if s is None else len(s)), point, s)


def _default_free(model: Model, edited: EditedEnergy) -> list[int]:
    free_vars: set[str] = set(edited.soft_targets)
    for target in edited.targets:
        free_vars |= set(model.descendants(target))
    return [i for name in model.dag.topo_order() if name in free_vars
            for i in model.coord_indices(name) if i not in edited.clamps]


def _apply_hold_override(model: Model, default: list[int], hold) -> list[int]:
    if hold is None:
        return default
    if (not isinstance(hold, dict) or set(hold) - {"free", "hold"}
            or not all(isinstance(v, (list, tuple)) for v in hold.values())):
        raise QueryError("hold override must be {'free': [...], 'hold': [...]}")
    free = default if "free" not in hold else normalize_refs(model, hold["free"])
    held = set(normalize_refs(model, hold.get("hold", [])))
    overlap = held.intersection(free) if "free" in hold else set()
    if overlap:
        raise QueryError("coordinates both free and held: "
                         f"{[model.coord_label(i) for i in sorted(overlap)]}")
    return [r for r in free if r not in held]


def _read_all(model: Model, readouts: dict[str, str] | None, point: Point,
              compiled: dict[str, CompiledExpr]) -> dict[str, float]:
    """Every readout at ``point``; ``compiled`` keeps each readout's
    compiled form for the other branches of the same query."""
    values = {}
    for name, source in (readouts or {}).items():
        if name not in compiled:
            compiled[name] = _compile_readout(model, source)
        values[name] = _read(compiled[name], point)
    return values


def _predict(model: Model, explanation: Explanation, edited: EditedEnergy,
             readouts: dict[str, str] | None, hold, cfg: SolverConfig | None,
             compiled: dict[str, CompiledExpr] | None = None):
    free = _apply_hold_override(model, _default_free(model, edited), hold)
    for ref in free:
        if ref in edited.clamps:
            raise QueryError(f"coordinate {model.coord_label(ref)} is clamped by a hard surgery")

    # every other z and u coordinate holds its abducted value
    clamps = dict(edited.clamps)
    state = np.array([*model.coords("z"), *model.coords("u")], dtype=np.intp)
    held = state[~np.isin(state, [*free, *clamps])]
    clamps.update(zip(held.tolist(), explanation.point.x[held].tolist()))

    predict_cfg = replace(cfg or SolverConfig(), init="point")
    eq = solve(edited.objective, clamps=clamps, free=free,
               cfg=predict_cfg, init_point=explanation.point)
    return CounterfactualResult(
        pre=explanation.point.copy(),
        post=eq.point,
        surgeries=edited.surgeries,
        readouts=_read_all(model, readouts, eq.point, {} if compiled is None else compiled),
        explanation=explanation,
        equilibrium=eq,
        free=tuple(free),
    )


def counterfactual(model: Model, evidence, surgeries, readouts=None,
                   hold=None, cfg: SolverConfig | None = None) -> CounterfactualResult:
    """Abduct, apply surgery, re-equilibrate, and read out.

    By default the abducted exogenous configuration is held fixed, the
    endogenous non-descendants of every surgery target stay at their
    abducted values, and descendants (plus softly edited targets)
    re-minimize.  ``hold`` overrides that partition.
    """
    explanation = abduct(model, evidence, cfg)
    edited = apply_surgery(model, surgeries)
    return _predict(model, explanation, edited, readouts, hold, cfg)


# ---------------------------------------------------------------------------
# Disjunctive interventions


@dataclass
class EnvelopeResult:
    """Per-branch effects of do(target in S) plus the policy-free bounds."""

    target: str
    branches: dict[tuple[float, ...], CounterfactualResult]
    envelopes: dict[str, tuple[float, float]]
    explanation: Explanation


@dataclass
class SelectionResult:
    """Committed (or softly blended) choice among the admissible values."""

    target: str
    branch_energies: dict[tuple[float, ...], float]
    weights: dict[tuple[float, ...], float]
    selected: tuple[float, ...] | None
    readouts: dict[str, float]
    branch_readouts: dict[tuple[float, ...], dict[str, float]]
    tau: float
    rho: float
    explanation: Explanation


def _branch_results(model, explanation, surgery: DisjunctiveSurgery,
                    readouts, hold, cfg):
    results = {}
    compiled: dict[str, CompiledExpr] = {}  # each readout compiled once per query
    for value in surgery.values:
        edited = apply_surgery(model, hard(model, surgery.target, value))
        try:
            results[value] = _predict(model, explanation, edited, readouts, hold, cfg, compiled)
        except SolverError as err:
            raise SolverError(f"branch {surgery.target}:={list(value)} failed: {err}",
                              diagnostics=getattr(err, "diagnostics", {})) from err
        except EnergyDomainError as err:
            raise EnergyDomainError(
                f"branch {surgery.target}:={list(value)} failed: {err}") from err
    return results


def disjunctive_envelope(model: Model, evidence, target: str, values,
                         readouts: dict[str, str], hold=None,
                         cfg: SolverConfig | None = None) -> EnvelopeResult:
    """Run every singleton branch from one abducted context and report the
    family plus [min, max] per readout (the family is not collapsed)."""
    surgery = disjunctive(model, target, values)
    explanation = abduct(model, evidence, cfg)
    branches = _branch_results(model, explanation, surgery, readouts, hold, cfg)
    envelopes = {}
    for name in readouts:
        vals = [res.readouts[name] for res in branches.values()]
        envelopes[name] = (min(vals), max(vals))
    return EnvelopeResult(target, branches, envelopes, explanation)


def disjunctive_select(model: Model, evidence, target: str, values,
                       rho: float = 0.0, control: str | None = None,
                       tau: float = 0.0, readouts: dict[str, str] | None = None,
                       hold=None, cfg: SolverConfig | None = None) -> SelectionResult:
    """Score branches by post-surgery equilibrium energy plus a weighted
    selection cost; commit at tau=0 (ties -> lexicographically smaller
    value) or blend with softmin weights at tau>0."""
    surgery, cost = _disjunctive(model, target, values, rho, control, tau)
    explanation = abduct(model, evidence, cfg)
    branches = _branch_results(model, explanation, surgery, readouts or {}, hold, cfg)

    energies: dict[tuple[float, ...], float] = {}
    for value, res in branches.items():
        e = res.equilibrium.energy
        if cost is not None and surgery.rho:
            e += surgery.rho * _read(cost, explanation.point, s=value)
        energies[value] = float(e)

    ordered = sorted(energies)  # lexicographic over value vectors
    if surgery.tau == 0.0:
        best = min(energies.values())
        selected = next(v for v in ordered if energies[v] == best)
        weights = {v: (1.0 if v == selected else 0.0) for v in ordered}
        readout_values = dict(branches[selected].readouts)
    else:
        emin = min(energies.values())
        raw = {v: math.exp(-(energies[v] - emin) / surgery.tau) for v in ordered}
        total = sum(raw.values())
        weights = {v: raw[v] / total for v in ordered}
        selected = None
        readout_values = {}
        for name in (readouts or {}):
            readout_values[name] = float(
                sum(weights[v] * branches[v].readouts[name] for v in ordered))
    return SelectionResult(
        target=target,
        branch_energies=energies,
        weights=weights,
        selected=selected,
        readouts=readout_values,
        branch_readouts={v: dict(res.readouts) for v, res in branches.items()},
        tau=surgery.tau,
        rho=surgery.rho,
        explanation=explanation,
    )
