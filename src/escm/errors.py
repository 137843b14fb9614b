"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: model/validation problems map to 1,
numerical failures (solver, domain, non-convex blocks) map to 2, and
query/usage problems map to 3.
"""

from __future__ import annotations


class EscmError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(EscmError):
    """A model file or in-memory model violates a structural invariant."""


class SchemaError(ModelError):
    """Malformed model file (missing keys, wrong types, bad owner tags)."""


#: the most characters of expression text an ExprSyntaxError message quotes;
#: longer text is cut to a window around the position, marked with "..."
EXCERPT_WIDTH = 80


class ExprSyntaxError(ModelError):
    """Expression text failed to parse; carries the offending position."""

    def __init__(self, message: str, source: str, position: int):
        start = max(0, min(position - EXCERPT_WIDTH // 2, len(source) - EXCERPT_WIDTH))
        end = start + EXCERPT_WIDTH
        excerpt = "..." * (start > 0) + repr(source[start:end]) + "..." * (end < len(source))
        super().__init__(f"{message} at position {position}: {excerpt}")
        self.source = source
        self.position = position


class UnknownSymbolError(ModelError):
    """An expression references an undeclared variable or parameter."""


class MaskViolationError(ModelError):
    """A term or vector-field component reads a coordinate outside its
    allowed parent mask."""


class CycleError(ModelError):
    """The declared edge set contains a directed cycle."""

    def __init__(self, cycle: list[str]):
        super().__init__("cycle detected: " + " -> ".join(cycle + cycle[:1]))
        self.cycle = cycle


class EnergyDomainError(EscmError):
    """Evaluation left the domain of a term (log of a non-positive value,
    division by zero)."""

    def __init__(self, message: str, owner: str | None = None, fragment: str | None = None):
        detail = message
        if fragment is not None:
            detail += f" at subexpression {fragment!r}"
        if owner is not None:
            detail += f" in term {owner!r}"
        super().__init__(detail)
        self.base_message = message
        self.owner = owner
        self.fragment = fragment


class SolverError(EscmError):
    """Equilibrium solve failed; carries the last iterate's diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SingularSystemError(SolverError):
    """Linear system remained unsolvable after damping escalation."""


class IndefiniteMetricError(EscmError):
    """Curvature requested at a saddle: the free-block Hessian is not
    positive definite."""


class PairError(EscmError):
    """An (A, i) pair query where i is A itself or a descendant of A."""


class NonConvexBlockError(EscmError):
    """A local term is not strictly convex in its own coordinate at the
    probed point, so no blockwise response map exists there."""

    def __init__(self, node: str, point_repr: str):
        super().__init__(f"local term of {node!r} is not convex in its own coordinate near {point_repr}")
        self.node = node


class ClassViolationError(EscmError):
    """The model lies outside the separable, blockwise-convex class that the
    structural-equation reduction requires (for example a global coupling
    term is present)."""


class QueryError(EscmError):
    """Bad query input: unknown coordinates, malformed surgery payloads,
    inconsistent hold/free sets."""
