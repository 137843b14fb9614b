"""Energy-structured causal models.

Mechanisms are declarative energy terms over a DAG; admissible states are
energy minima.  Interventions edit terms locally (hard clamps, soft
blends, set-valued families) and equilibria restore consistency, which
yields observational, interventional and counterfactual inference plus
modularity diagnostics and equilibrium geometry.
"""

from .causal import (
    CounterfactualResult,
    DisjunctiveSurgery,
    EnvelopeResult,
    Evidence,
    Explanation,
    HardSurgery,
    SelectionResult,
    SoftSurgery,
    abduct,
    apply_surgery,
    counterfactual,
    disjunctive,
    disjunctive_envelope,
    disjunctive_select,
    hard,
    soft,
)
from .diagnostics import (
    GaugeTransform,
    IcmReport,
    LapReport,
    ProbeReport,
    apply_gauge,
    causal_metric,
    gauge_preserved,
    icm_check,
    icm_penalty,
    lap_check,
    lap_penalty,
    metric_in_chart,
    probe,
    susceptibility,
)
from .dynamics import (
    DynHardSurgery,
    SteadyState,
    Trajectory,
    dyn_icm_check,
    dyn_lap_check,
    integrate,
    steady_state,
)
from .engine import (
    FirstOrder,
    Objective,
    Point,
    SecondOrder,
    effective_energy_pair,
    evaluate,
    second_order,
)
from .errors import (
    ClassViolationError,
    CycleError,
    EnergyDomainError,
    EscmError,
    ExprSyntaxError,
    IndefiniteMetricError,
    MaskViolationError,
    ModelError,
    NonConvexBlockError,
    PairError,
    QueryError,
    SchemaError,
    SingularSystemError,
    SolverError,
    UnknownSymbolError,
)
from .model import Model, descendants, nondescendants, parse_model, topo_order
from .reduction import (
    EquivalenceReport,
    InducedScm,
    contraction_factor,
    equivalence_check,
    induce_scm,
    pushforward_check,
    scm_solve,
)
from .report import canonical_json, model_hash, model_text
from .solver import Equilibrium, SolverConfig, schur_effective_hessian, solve

__version__ = "0.1.0"
