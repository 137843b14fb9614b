"""Surgery and the abduction-intervention-prediction pipeline.

Hard surgery removes the target's local term and clamps its coordinates
(children still read the clamped value).  Soft surgery blends the original
local term with a replacement without deleting edges.  Set-valued surgery
is kept as a family of hard branches: the envelope reports the family and
its bounds, and an optional selection cost with a softmin temperature
commits to (or blends) a branch.

Prediction re-minimizes descendants of the edited mechanisms while holding
the abducted exogenous configuration and all non-descendants fixed; the
hold/free partition is overridable because which latents count as
operationally exogenous is a modeling choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .engine import Objective, ObjectiveTerm, Point, Ref
from .errors import EnergyDomainError, QueryError, SolverError
from .expr import CompiledExpr, Env, compile_expr, parse_expr
from .model import Model
from .solver import Equilibrium, SolverConfig, normalize_clamps, normalize_refs, solve

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
    if isinstance(value, (int, float)):
        vec = (float(value),)
    else:
        vec = tuple(float(v) for v in value)
    if len(vec) != dim:
        raise QueryError(f"{what}: expected {dim} component(s), got {len(vec)}")
    if not all(math.isfinite(v) for v in vec):
        raise QueryError(f"{what}: value is not finite")
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


def hard(model: Model, target: str, value) -> HardSurgery:
    decl = model.var(target)
    if decl.kind != "endogenous":
        raise QueryError(f"surgery target {target!r} is not endogenous")
    return HardSurgery(target, _as_vector(value, decl.dim, f"do({target})"))


def soft(model: Model, target: str, lam: float, expr: str, params=None) -> SoftSurgery:
    decl = model.var(target)
    if decl.kind != "endogenous":
        raise QueryError(f"surgery target {target!r} is not endogenous")
    if not 0.0 <= lam <= 1.0:
        raise QueryError("soft surgery weight must lie in [0, 1]")
    params = {k: float(v) for k, v in (params or {}).items()}
    # compile now so mask violations surface at construction time
    _compile_replacement(model, target, expr, params)
    return SoftSurgery(target, float(lam), expr, params)


def disjunctive(model: Model, target: str, values, rho=0.0, control=None, tau=0.0) -> DisjunctiveSurgery:
    decl = model.var(target)
    if decl.kind != "endogenous":
        raise QueryError(f"surgery target {target!r} is not endogenous")
    if not values:
        raise QueryError("disjunctive surgery needs a non-empty value set")
    if rho < 0 or tau < 0:
        raise QueryError("rho and tau must be non-negative")
    vecs = sorted({_as_vector(v, decl.dim, f"do({target} in S)") for v in values})
    if control is not None:
        compile_expr(parse_expr(control), model.readout_resolver(s_dim=decl.dim))
    return DisjunctiveSurgery(target, tuple(vecs), float(rho), control, float(tau))


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
            return ("const", params[sym.parts[2]])
        return base(sym)

    return compile_expr(parse_expr(expr), resolve)


@dataclass
class EditedEnergy:
    """Objective after surgery, plus the clamp set hard surgery induces."""

    objective: Objective
    clamps: dict[Ref, float]
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
    if isinstance(surgeries, (HardSurgery, SoftSurgery, DisjunctiveSurgery)):
        surgeries = [surgeries]
    surgeries = tuple(surgeries)
    targets = [s.target for s in surgeries]
    if len(set(targets)) != len(targets):
        raise QueryError("multiple surgeries on the same target")

    terms = {t.label: t.objective_term for t in model.terms}
    clamps: dict[Ref, float] = {}
    hard_targets: list[str] = []
    soft_targets: list[str] = []
    for s in surgeries:
        if isinstance(s, DisjunctiveSurgery):
            raise QueryError("disjunctive surgery must be expanded branchwise "
                             "(use disjunctive_envelope or disjunctive_select)")
        decl = model.var(s.target)
        if decl.kind != "endogenous":
            raise QueryError(f"surgery target {s.target!r} is not endogenous")
        if isinstance(s, HardSurgery):
            value = _as_vector(s.value, decl.dim, f"do({s.target})")
            del terms[s.target]  # children still read the clamped value
            for k, idx in enumerate(model.coord_indices("z", s.target)):
                clamps[("z", idx)] = value[k]
            hard_targets.append(s.target)
        else:
            if not 0.0 <= s.lam <= 1.0:
                raise QueryError("soft surgery weight must lie in [0, 1]")
            replacement = _compile_replacement(model, s.target, s.expr, s.params)
            terms[s.target] = ObjectiveTerm.blend(
                s.target, s.lam, model.local_term(s.target).compiled, replacement)
            soft_targets.append(s.target)

    return EditedEnergy(Objective(model, terms.values()), clamps,
                        tuple(hard_targets), tuple(soft_targets), surgeries)


# ---------------------------------------------------------------------------
# Evidence and abduction


@dataclass
class Evidence:
    """Clamp values for a subset of z (and optionally u) coordinates."""

    clamps: dict[Ref, float]

    @classmethod
    def from_dict(cls, model: Model, data: dict) -> "Evidence":
        clamps = normalize_clamps(model, data)
        for ref in clamps:
            if ref[0] == "theta":
                raise QueryError("evidence on parameters is not supported")
        return cls(clamps)


@dataclass
class Explanation:
    """Abducted account of the evidence: the model, the latent witness,
    and how it was selected."""

    model: Model
    point: Point
    selector: str
    clamped: tuple[Ref, ...]
    free: tuple[Ref, ...]
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
        clamped=tuple(evidence.clamps),
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
    free: tuple[Ref, ...]


def evaluate_readout(model: Model, source: str, point: Point, s=None) -> float:
    """Evaluate a named readout expression at a point."""
    s_dim = None if s is None else len(s)
    compiled = compile_expr(parse_expr(source), model.readout_resolver(s_dim=s_dim))
    leaves = {}
    for ref in compiled.refs:
        if ref[0] == "s":
            leaves[ref] = float(s[ref[1]])
        else:
            leaves[ref] = point.get(ref)
    return float(compiled.evaluate(Env(leaves)))


def _default_free(model: Model, edited: EditedEnergy) -> list[Ref]:
    free_vars: set[str] = set(edited.soft_targets)
    for target in edited.targets:
        free_vars |= set(model.descendants(target))
    refs: list[Ref] = []
    for name in model.dag.topo_order():
        if name in free_vars:
            refs.extend(("z", i) for i in model.coord_indices("z", name))
    return [r for r in refs if r not in edited.clamps]


def _apply_hold_override(model: Model, default: list[Ref], hold) -> list[Ref]:
    if hold is None:
        return default
    if not isinstance(hold, dict) or set(hold) - {"free", "hold"}:
        raise QueryError("hold override must be {'free': [...], 'hold': [...]}")
    free = default if "free" not in hold else normalize_refs(model, hold["free"])
    held = set(normalize_refs(model, hold.get("hold", [])))
    overlap = held.intersection(free) if "free" in hold else set()
    if overlap:
        raise QueryError(f"coordinates both free and held: {sorted(overlap)}")
    return [r for r in free if r not in held]


def _predict(model: Model, explanation: Explanation, edited: EditedEnergy,
             readouts: dict[str, str] | None, hold, cfg: SolverConfig | None):
    free = _apply_hold_override(model, _default_free(model, edited), hold)
    for ref in free:
        if ref in edited.clamps:
            raise QueryError(f"coordinate {ref} is clamped by a hard surgery")

    clamps = dict(edited.clamps)
    free_set = set(free)
    for i in range(model.nz):
        ref = ("z", i)
        if ref not in free_set and ref not in clamps:
            clamps[ref] = explanation.point.get(ref)
    for i in range(model.nu):
        ref = ("u", i)
        if ref not in free_set and ref not in clamps:
            clamps[ref] = explanation.point.get(ref)

    predict_cfg = replace(cfg or SolverConfig(), init="point")
    eq = solve(edited.objective, clamps=clamps, free=free,
               cfg=predict_cfg, init_point=explanation.point)
    values = {}
    for name, source in (readouts or {}).items():
        values[name] = evaluate_readout(model, source, eq.point)
    return CounterfactualResult(
        pre=explanation.point.copy(),
        post=eq.point,
        surgeries=edited.surgeries,
        readouts=values,
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
    for value in surgery.values:
        edited = apply_surgery(model, hard(model, surgery.target, value))
        try:
            results[value] = _predict(model, explanation, edited, readouts, hold, cfg)
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
    surgery = disjunctive(model, target, values, rho=rho, control=control, tau=tau)
    explanation = abduct(model, evidence, cfg)
    branches = _branch_results(model, explanation, surgery, readouts or {}, hold, cfg)

    energies: dict[tuple[float, ...], float] = {}
    for value, res in branches.items():
        e = res.equilibrium.energy
        if surgery.control is not None and surgery.rho:
            e += surgery.rho * evaluate_readout(model, surgery.control,
                                                explanation.point, s=value)
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
