"""Model definition: variables, DAG, energy terms, flat coordinate maps.

A model file is a UTF-8 JSON object with keys ``variables``, ``edges``,
``terms`` and optionally ``dynamics``.  Every endogenous variable owns
exactly one local energy term; each exogenous variable owns at most one
exogenous term; at most one global term couples modules.  The i-th
endogenous variable is paired with the i-th exogenous variable (by
declaration order): that exogenous variable is the only one its local term
and vector-field component may read.

Every coordinate is one integer index into a stacked vector: z at
[0, nz), u at [nz, nz + nu) and theta at [nz + nu, dim).  Inside each
space, variables contribute blocks in declaration order (components in
order), and parameters contribute one slot per (term, name) in term
declaration order with names sorted inside each term.  Expressions resolve
their symbols to these indices once, at compile time.  Labels such as
"z.Z1" or "theta.Z2.a" name a coordinate for people: ``parse_coord`` turns
one into its index and ``coord_label`` back.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    CycleError,
    ExprSyntaxError,
    MaskViolationError,
    QueryError,
    SchemaError,
    UnknownSymbolError,
)
from .expr import CompiledExpr, Expr, Sym, compile_expr, parse_expr

__all__ = [
    "VariableDecl",
    "Dag",
    "EnergyTerm",
    "Model",
    "parse_model",
    "topo_order",
    "descendants",
    "nondescendants",
]

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_SPACE_OF = {"endogenous": "z", "exogenous": "u"}  # variable kind -> coordinate space


@dataclass(frozen=True)
class VariableDecl:
    name: str
    kind: str  # "endogenous" | "exogenous"
    dim: int = 1


class Dag:
    """Directed acyclic graph over the endogenous variables."""

    def __init__(self, nodes: list[str], edges: list[tuple[str, str]]):
        self.nodes = list(nodes)
        self.edges = list(edges)
        order = {n: i for i, n in enumerate(self.nodes)}
        self._parents: dict[str, list[str]] = {n: [] for n in self.nodes}
        self._children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for parent, child in edges:
            self._parents[child].append(parent)
            self._children[parent].append(child)
        for lst in self._parents.values():
            lst.sort(key=order.__getitem__)
        for lst in self._children.values():
            lst.sort(key=order.__getitem__)
        self._topo = self._topo_sort(order)
        self._desc: dict[str, frozenset[str]] = {}

    def parents(self, node: str) -> tuple[str, ...]:
        self._check(node)
        return tuple(self._parents[node])

    def children(self, node: str) -> tuple[str, ...]:
        self._check(node)
        return tuple(self._children[node])

    def topo_order(self) -> list[str]:
        return list(self._topo)

    def descendants(self, node: str) -> frozenset[str]:
        self._check(node)
        if node not in self._desc:
            seen: set[str] = set()
            stack = list(self._children[node])
            while stack:
                current = stack.pop()
                if current not in seen:
                    seen.add(current)
                    stack.extend(self._children[current])
            self._desc[node] = frozenset(seen)
        return self._desc[node]

    def nondescendants(self, node: str) -> frozenset[str]:
        closed = self.descendants(node) | {node}
        return frozenset(n for n in self.nodes if n not in closed)

    def _check(self, node: str) -> None:
        if node not in self._parents:
            raise QueryError(f"unknown variable {node!r}")

    def _topo_sort(self, position: dict[str, int]) -> list[str]:
        # Kahn's algorithm; the ready heap holds declaration positions, so
        # ties break deterministically (a sorted list is already a heap).
        indeg = {n: len(self._parents[n]) for n in self.nodes}
        ready = [position[n] for n in self.nodes if indeg[n] == 0]
        out: list[str] = []
        while ready:
            node = self.nodes[heapq.heappop(ready)]
            out.append(node)
            for kid in self._children[node]:
                indeg[kid] -= 1
                if indeg[kid] == 0:
                    heapq.heappush(ready, position[kid])
        if len(out) < len(self.nodes):
            # every node left has a parent left, so walking to such parents
            # revisits a node: the path from its first visit is a cycle
            node, seen = next(n for n in self.nodes if indeg[n]), {}
            while node not in seen:
                seen[node] = len(seen)
                node = next(p for p in self._parents[node] if indeg[p])
            cycle = list(seen)[seen[node]:][::-1]
            first = cycle.index(min(cycle, key=position.__getitem__))
            raise CycleError(cycle[first:] + cycle[:first])
        return out


class ObjectiveTerm:
    """One additive contribution: a weighted sum of compiled expressions.

    ``parse_model`` builds one for every model term and dynamics component,
    with a single piece of weight 1; edit code builds the others, such as
    the two-piece blends of soft surgery.  ``refs`` holds the sorted flat
    indices its pieces read.  ``code`` holds what :mod:`escm.codegen` built
    for it, on first evaluation.
    """

    __slots__ = ("owner", "pieces", "refs", "code")

    def __init__(self, owner: str | None, pieces: Sequence[tuple[float, CompiledExpr]]):
        self.owner = owner
        self.pieces = tuple(pieces)
        self.refs = tuple(sorted({ref for _, compiled in self.pieces for ref in compiled.refs}))
        self.code = None

    @classmethod
    def blend(cls, owner: str, lam: float, original: CompiledExpr,
              replacement: CompiledExpr) -> "ObjectiveTerm":
        """``(1 - lam) * original + lam * replacement``; a piece of weight
        zero is dropped, so lam = 0 or 1 leaves a single plain piece."""
        pieces = []
        if lam < 1.0:
            pieces.append((1.0 - lam, original))
        if lam > 0.0:
            pieces.append((lam, replacement))
        return cls(owner, pieces)


@dataclass
class EnergyTerm:
    """One additive energy contribution.

    ``owner_kind`` is "local", "exo" or "global"; ``owner`` is the variable
    name for local/exo terms and the literal string "global" otherwise.
    ``compiled`` and ``objective_term`` are set once by ``parse_model``.
    """

    owner_kind: str
    owner: str
    expr: Expr
    params: dict[str, float] = field(default_factory=dict)
    compiled: CompiledExpr | None = None
    objective_term: ObjectiveTerm | None = None

    @property
    def label(self) -> str:
        return self.owner


@dataclass
class DynComponent:
    var: str
    expr: Expr
    compiled: CompiledExpr | None = None
    objective_term: ObjectiveTerm | None = None


class Model:
    """Validated, immutable energy-structured causal model."""

    def __init__(self, variables, dag, terms, dynamics):
        self.variables: tuple[VariableDecl, ...] = tuple(variables)
        self.dag: Dag = dag
        self.terms: tuple[EnergyTerm, ...] = tuple(terms)
        self.dynamics: tuple[DynComponent, ...] | None = (
            tuple(dynamics) if dynamics is not None else None
        )
        self.mask_warnings: tuple[str, ...] = ()  # parse_model fills it after compiling
        self._readers: dict[int, list[int]] | None = None  # see _terms_reading
        self._build_indexes()

    # -- flat coordinate maps ---------------------------------------------

    def _build_indexes(self) -> None:
        self.endogenous = tuple(v for v in self.variables if v.kind == "endogenous")
        self.exogenous = tuple(v for v in self.variables if v.kind == "exogenous")
        self._var_by_name = {v.name: v for v in self.variables}

        # every coordinate's label, in stacked order
        labels: list[str] = []
        self._coords: dict[str, range] = {}
        self._start: dict[str, int] = {}  # variable -> flat index of its first component
        for space, decls in {"z": self.endogenous, "u": self.exogenous}.items():
            first = len(labels)
            for v in decls:
                self._start[v.name] = len(labels)
                labels += [f"{space}.{v.name}" + (f"[{k}]" if v.dim > 1 else "")
                           for k in range(v.dim)]
            self._coords[space] = range(first, len(labels))

        self._theta_index: dict[tuple[str, str], int] = {}  # (owner, name) -> flat index
        self._theta_refs: dict[str, range] = {}  # owner -> its declared parameters
        defaults: list[float] = []
        first = len(labels)
        for term in self.terms:
            start = len(labels)
            for name in sorted(term.params):
                self._theta_index[(term.label, name)] = len(labels)
                labels.append(f"theta.{term.label}.{name}")
                defaults.append(float(term.params[name]))
            self._theta_refs[term.label] = range(start, len(labels))
        self._coords["theta"] = range(first, len(labels))
        self._theta_defaults = tuple(defaults)
        self._coord_labels = labels
        self.nz, self.nu, self.ntheta = (len(r) for r in self._coords.values())
        self.dim = len(labels)

        self.term_by_label = {t.label: t for t in self.terms}
        # endo <-> exo pairing by declaration position
        self._paired_exo = {}
        for i, endo in enumerate(self.endogenous):
            if i < len(self.exogenous):
                self._paired_exo[endo.name] = self.exogenous[i].name

    def var(self, name: str) -> VariableDecl:
        try:
            return self._var_by_name[name]
        except (KeyError, TypeError):
            raise QueryError(f"unknown variable {name!r}") from None

    def var_slice(self, space: str, name: str) -> slice:
        """The block of variable ``name`` within its space's array."""
        v = self._var_by_name.get(name)
        if v is None or _SPACE_OF[v.kind] != space:
            raise QueryError(f"unknown {space!r} variable {name!r}")
        start = self._start[name] - self._coords[space].start
        return slice(start, start + v.dim)

    def coord_indices(self, name: str) -> list[int]:
        """Flat indices of the components of variable ``name``."""
        v = self.var(name)
        return list(range(self._start[v.name], self._start[v.name] + v.dim))

    def coords(self, space: str) -> range:
        """Flat indices of every coordinate of ``space``: "z", "u" or "theta"."""
        try:
            return self._coords[space]
        except (KeyError, TypeError):
            raise QueryError(f"bad coordinate space {space!r}") from None

    def theta_defaults(self):
        import numpy as np

        return np.array(self._theta_defaults, dtype=float)

    def module_theta_refs(self, owner: str, dynamics: bool = False) -> list[int]:
        """Flat theta indices belonging to a module's mechanism: those its
        term declares plus any parameter symbols the mechanism reads.

        These coincide for well-separated models; they differ exactly when
        parameters are shared across mechanisms, which is what the
        independence diagnostics must attribute correctly.
        """
        if owner not in self._theta_refs:
            raise QueryError(f"no term owned by {owner!r}")
        thetas = self._coords["theta"]
        idx = set(self._theta_refs[owner])
        term = self.term_by_label.get(owner)
        if term is not None and term.compiled is not None:
            idx |= {r for r in term.compiled.refs if r in thetas}
        if dynamics and self.dynamics is not None:
            for comp in self.dynamics:
                if comp.var == owner and comp.compiled is not None:
                    idx |= {r for r in comp.compiled.refs if r in thetas}
        return sorted(idx)

    def labels(self, space: str) -> list[str]:
        """Labels of one space's coordinates without the space prefix."""
        coords = self.coords(space)
        return [label.split(".", 1)[1] for label in self._coord_labels[coords.start:coords.stop]]

    def coord_label(self, index: int) -> str:
        """Label of a flat index, such as "z.Z1", "u.V[2]" or "theta.Z2.a"."""
        if not 0 <= index < self.dim:
            raise QueryError(f"coordinate index {index} is out of range")
        return self._coord_labels[index]

    def paired_exo(self, endo_name: str) -> str | None:
        return self._paired_exo.get(endo_name)

    def parse_coord(self, label: str) -> int:
        """Resolve "z.Z1", "z.V[2]", "u.U1" or "theta.Z2.a", read as an
        expression symbol, to its flat index."""
        try:
            root = parse_expr(label).root
            if isinstance(root, Sym):
                return self.resolver()(root)
        except (ExprSyntaxError, UnknownSymbolError) as err:
            raise QueryError(f"cannot parse coordinate {label!r}: {err}") from None
        raise QueryError(f"cannot parse coordinate {label!r}")

    # -- graph queries ------------------------------------------------------

    def parents(self, name: str) -> tuple[str, ...]:
        if self.var(name).kind != "endogenous":
            raise QueryError(f"{name!r} is not endogenous")
        return self.dag.parents(name)

    def descendants(self, name: str) -> frozenset[str]:
        if self.var(name).kind != "endogenous":
            raise QueryError(f"{name!r} is not endogenous")
        return self.dag.descendants(name)

    def nondescendants(self, name: str) -> frozenset[str]:
        if self.var(name).kind != "endogenous":
            raise QueryError(f"{name!r} is not endogenous")
        return self.dag.nondescendants(name)

    def local_term(self, name: str) -> EnergyTerm:
        term = self.term_by_label.get(name)
        if term is None or term.owner_kind != "local":
            raise QueryError(f"no local term for {name!r}")
        return term

    def _terms_reading(self, refs) -> list[ObjectiveTerm]:
        """The compiled terms that read any of the flat indices ``refs``,
        in term order, from an index of readers built on first use."""
        if self._readers is None:
            self._readers = {}
            for pos, term in enumerate(self.terms):
                for ref in term.objective_term.refs:
                    self._readers.setdefault(ref, []).append(pos)
        hits = sorted({pos for ref in refs for pos in self._readers.get(ref, ())})
        return [self.terms[pos].objective_term for pos in hits]

    @property
    def global_term(self) -> EnergyTerm | None:
        term = self.term_by_label.get("global")
        return term if term is not None and term.owner_kind == "global" else None

    # -- symbol resolution ---------------------------------------------------

    def _resolve_var_sym(self, sym: Sym, space: str, name: str) -> int:
        v = self._var_by_name.get(name)
        if v is None or _SPACE_OF[v.kind] != space:
            kind = "endogenous" if space == "z" else "exogenous"
            raise UnknownSymbolError(f"unknown {kind} variable in symbol {sym.text!r}")
        comp = sym.comp
        if comp is None:
            if v.dim != 1:
                raise UnknownSymbolError(
                    f"symbol {sym.text!r} needs a component index (dim {v.dim})"
                )
            comp = 0
        if not 0 <= comp < v.dim:
            raise UnknownSymbolError(f"component out of range in symbol {sym.text!r}")
        return self._start[name] + comp

    def resolver(self, *, z_allowed=None, u_allowed=None, context="", warnings=None, s_dim=None):
        """Build a symbol resolver with optional z/u masks.

        The resolver maps a symbol to its flat index; the selection-cost
        symbol ``s[k]`` resolves past the point, to ``dim + k``.
        ``z_allowed``/``u_allowed`` are sets of variable names or None for
        unrestricted.  Parameter symbols resolve against the whole table:
        cross-module parameter sharing is representable (it is what the
        mechanism-independence diagnostics exist to detect).  ``warnings``
        collects mask violations instead of raising when provided.
        """

        def resolve(sym: Sym):
            head = sym.parts[0]
            if head == "theta":
                if len(sym.parts) != 3 or sym.comp is not None:
                    raise UnknownSymbolError(f"malformed parameter symbol {sym.text!r}")
                owner, name = sym.parts[1], sym.parts[2]
                if (owner, name) not in self._theta_index:
                    raise UnknownSymbolError(f"unknown parameter {sym.text!r}")
                return self._theta_index[(owner, name)]
            if head in _SPACE_OF.values():
                if len(sym.parts) != 2:
                    raise UnknownSymbolError(f"malformed symbol {sym.text!r}")
                name = sym.parts[1]
                ref = self._resolve_var_sym(sym, head, name)
                allowed = z_allowed if head == "z" else u_allowed
                if allowed is not None and name not in allowed:
                    message = f"symbol {sym.text!r} outside the parent mask of {context}"
                    if warnings is None:
                        raise MaskViolationError(message)
                    warnings.append(message)
                return ref
            if head == "s" and len(sym.parts) == 1:
                if s_dim is None:
                    raise UnknownSymbolError("symbol 's' is only valid in selection costs")
                comp = sym.comp if sym.comp is not None else 0
                if not 0 <= comp < s_dim:
                    raise UnknownSymbolError(f"component out of range in symbol {sym.text!r}")
                return self.dim + comp
            raise UnknownSymbolError(f"unknown symbol {sym.text!r}")

        return resolve

    def term_resolver(self, term: EnergyTerm, warnings=None):
        if term.owner_kind == "global":
            return self.resolver()
        if term.owner_kind == "exo":
            return self.resolver(z_allowed=frozenset(), u_allowed={term.owner},
                                 context=f"exo term {term.owner}", warnings=None)
        z_ok = {term.owner, *self.dag.parents(term.owner)}
        u_ok = set()
        paired = self.paired_exo(term.owner)
        if paired is not None:
            u_ok.add(paired)
        return self.resolver(z_allowed=z_ok, u_allowed=u_ok,
                             context=f"local term {term.owner}", warnings=warnings)

    def readout_resolver(self, s_dim: int | None = None):
        return self.resolver(s_dim=s_dim)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {
            "variables": [
                {"name": v.name, "kind": v.kind, "dim": v.dim} for v in self.variables
            ],
            "edges": [[p, c] for p, c in self.dag.edges],
            "terms": [],
        }
        for term in self.terms:
            owner = "global" if term.owner_kind == "global" else f"{term.owner_kind}:{term.owner}"
            entry: dict = {"owner": owner, "expr": term.expr.source}
            if term.params:
                entry["params"] = {k: term.params[k] for k in sorted(term.params)}
            out["terms"].append(entry)
        if self.dynamics is not None:
            out["dynamics"] = [{"var": d.var, "expr": d.expr.source} for d in self.dynamics]
        return out

    def __eq__(self, other):
        return isinstance(other, Model) and self.to_dict() == other.to_dict()

    def __repr__(self):
        return (f"Model({len(self.endogenous)} endogenous, {len(self.exogenous)} exogenous, "
                f"{len(self.dag.edges)} edges, {len(self.terms)} terms)")


# ---------------------------------------------------------------------------
# Parsing / validation


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def parse_model(text, mask_policy: str = "strict") -> Model:
    """Parse and validate a model file.

    ``text`` may be a JSON string or an already-decoded dict.  With
    ``mask_policy="warn"``, parent-mask violations in local terms and
    vector-field components are recorded on ``model.mask_warnings`` instead
    of raising; this is how locality-violating diagnostic fixtures are
    constructed on purpose.
    """
    if isinstance(text, (str, bytes)):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise SchemaError(f"invalid JSON: {err}") from None
    else:
        data = text
    _require(isinstance(data, dict), "model file must be a JSON object")
    if mask_policy not in ("strict", "warn"):
        raise ValueError("mask_policy must be 'strict' or 'warn'")
    unknown = set(data) - {"variables", "edges", "terms", "dynamics"}
    _require(not unknown, f"unknown top-level keys: {sorted(unknown)}")

    raw_vars = data.get("variables")
    _require(isinstance(raw_vars, list) and raw_vars, "'variables' must be a non-empty list")
    variables: list[VariableDecl] = []
    seen_names: set[str] = set()
    for item in raw_vars:
        _require(isinstance(item, dict), "variable entries must be objects")
        name = item.get("name")
        kind = item.get("kind")
        dim = item.get("dim", 1)
        _require(isinstance(name, str) and _IDENT_RE.match(name), f"bad variable name {name!r}")
        _require(name != "global", "'global' is a reserved name")
        _require(kind in ("endogenous", "exogenous"), f"bad kind for variable {name!r}")
        _require(isinstance(dim, int) and dim >= 1, f"dim of {name!r} must be a positive integer")
        _require(name not in seen_names, f"duplicate variable name {name!r}")
        seen_names.add(name)
        variables.append(VariableDecl(name, kind, dim))

    endo_names = [v.name for v in variables if v.kind == "endogenous"]
    _require(len(endo_names) > 0, "at least one endogenous variable is required")

    raw_edges = data.get("edges", [])
    _require(isinstance(raw_edges, list), "'edges' must be a list")
    edges: list[tuple[str, str]] = []
    for item in raw_edges:
        _require(isinstance(item, (list, tuple)) and len(item) == 2, f"bad edge {item!r}")
        parent, child = item
        for end in (parent, child):
            _require(end in seen_names, f"edge references undeclared variable {end!r}")
            _require(end in endo_names, f"edge endpoint {end!r} is not endogenous")
        _require(parent != child, f"self-edge on {parent!r}")
        _require((parent, child) not in edges, f"duplicate edge {item!r}")
        edges.append((parent, child))

    dag = Dag(endo_names, edges)

    raw_terms = data.get("terms")
    _require(isinstance(raw_terms, list), "'terms' must be a list")
    terms: list[EnergyTerm] = []
    for item in raw_terms:
        _require(isinstance(item, dict), "term entries must be objects")
        owner_tag = item.get("owner")
        _require(isinstance(owner_tag, str), "term owner must be a string")
        if owner_tag == "global":
            owner_kind, owner = "global", "global"
        else:
            _require(":" in owner_tag, f"bad term owner {owner_tag!r}")
            owner_kind, owner = owner_tag.split(":", 1)
            _require(owner_kind in ("local", "exo"), f"bad term owner {owner_tag!r}")
            _require(owner in seen_names, f"term owner {owner!r} is undeclared")
            expected = "endogenous" if owner_kind == "local" else "exogenous"
            actual = next(v.kind for v in variables if v.name == owner)
            _require(actual == expected, f"term owner {owner!r} is not {expected}")
        params = item.get("params", {})
        _require(isinstance(params, dict), f"params of term {owner!r} must be an object")
        for pname, pval in params.items():
            _require(isinstance(pname, str) and _IDENT_RE.match(pname),
                     f"bad parameter name {pname!r} in term {owner!r}")
            _require(isinstance(pval, (int, float)) and not isinstance(pval, bool),
                     f"parameter {pname!r} of term {owner!r} must be numeric")
        source = item.get("expr")
        _require(isinstance(source, str), f"term {owner!r} is missing an 'expr' string")
        terms.append(EnergyTerm(owner_kind, owner,
                                parse_expr(source),
                                {k: float(v) for k, v in params.items()}))

    owners_local = [t.owner for t in terms if t.owner_kind == "local"]
    owners_exo = [t.owner for t in terms if t.owner_kind == "exo"]
    n_global = sum(1 for t in terms if t.owner_kind == "global")
    _require(len(set(owners_local)) == len(owners_local), "duplicate local term")
    _require(len(set(owners_exo)) == len(owners_exo), "duplicate exo term")
    _require(n_global <= 1, "at most one global term is allowed")
    missing = [n for n in endo_names if n not in owners_local]
    _require(not missing, f"endogenous variables without a local term: {missing}")

    raw_dyn = data.get("dynamics")
    dynamics: list[DynComponent] | None = None
    if raw_dyn is not None:
        _require(isinstance(raw_dyn, list), "'dynamics' must be a list")
        dynamics = []
        for item in raw_dyn:
            _require(isinstance(item, dict) and isinstance(item.get("var"), str)
                     and isinstance(item.get("expr"), str), f"bad dynamics entry {item!r}")
            _require(item["var"] in endo_names, f"dynamics for non-endogenous {item['var']!r}")
            dynamics.append(DynComponent(item["var"], parse_expr(item["expr"])))
        dyn_vars = [d.var for d in dynamics]
        _require(len(set(dyn_vars)) == len(dyn_vars), "duplicate dynamics component")
        absent = [n for n in endo_names if n not in dyn_vars]
        _require(not absent, f"dynamics must cover every endogenous variable; missing {absent}")

    warnings: list[str] = [] if mask_policy == "warn" else None
    model = Model(variables, dag, terms, dynamics)

    # Compile after the full parameter table exists so that terms may refer
    # to parameters declared later in the file.
    for term in model.terms:
        term.compiled = compile_expr(term.expr, model.term_resolver(term, warnings=warnings))
        term.objective_term = ObjectiveTerm(term.label, [(1.0, term.compiled)])
    if model.dynamics is not None:
        for comp in model.dynamics:
            local = model.local_term(comp.var)
            comp.compiled = compile_expr(
                comp.expr, model.term_resolver(local, warnings=warnings))
            comp.objective_term = ObjectiveTerm(comp.var, [(1.0, comp.compiled)])
    model.mask_warnings = tuple(warnings or [])
    return model


def topo_order(model: Model) -> list[str]:
    """Endogenous names with every parent before its children."""
    return model.dag.topo_order()


def descendants(model: Model, name: str) -> set[str]:
    """All endogenous variables reachable from ``name`` (excluding itself)."""
    return set(model.descendants(name))


def nondescendants(model: Model, name: str) -> set[str]:
    return set(model.nondescendants(name))
