"""Model definition: variables, DAG, energy terms, flat coordinate maps.

A model file is a UTF-8 JSON object with keys ``variables``, ``edges``,
``terms`` and optionally ``dynamics``.  Every endogenous variable owns
exactly one local energy term; each exogenous variable owns at most one
exogenous term; at most one global term couples modules.  The i-th
endogenous variable is paired with the i-th exogenous variable (by
declaration order): that exogenous variable is the only one its local term
and vector-field component may read.

Flat coordinate indexing is deterministic: variables contribute blocks in
declaration order (components in order), parameters contribute one slot
per (term, name) in term declaration order with names sorted inside each
term.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Sequence

from .errors import (
    CycleError,
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
_SPACES = ("z", "u")


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
        self._assert_acyclic()
        self._topo = self._topo_sort()
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

    def _assert_acyclic(self) -> None:
        # Iterative DFS with colors; on a back edge, report the cycle found.
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {n: WHITE for n in self.nodes}
        parent_on_path: dict[str, str | None] = {}
        for root in self.nodes:
            if color[root] != WHITE:
                continue
            stack: list[tuple[str, int]] = [(root, 0)]
            parent_on_path[root] = None
            while stack:
                node, child_idx = stack[-1]
                if child_idx == 0:
                    color[node] = GRAY
                kids = self._children[node]
                if child_idx < len(kids):
                    stack[-1] = (node, child_idx + 1)
                    kid = kids[child_idx]
                    if color[kid] == GRAY:
                        cycle = [kid]
                        cursor = node
                        while cursor != kid:
                            cycle.append(cursor)
                            cursor = parent_on_path[cursor]
                        cycle.reverse()
                        raise CycleError(cycle)
                    if color[kid] == WHITE:
                        parent_on_path[kid] = node
                        stack.append((kid, 0))
                else:
                    color[node] = BLACK
                    stack.pop()

    def _topo_sort(self) -> list[str]:
        # Kahn's algorithm; the ready set keeps declaration order, so ties
        # break deterministically.
        indeg = {n: len(self._parents[n]) for n in self.nodes}
        ready = [n for n in self.nodes if indeg[n] == 0]
        out: list[str] = []
        while ready:
            node = ready.pop(0)
            out.append(node)
            for kid in self._children[node]:
                indeg[kid] -= 1
                if indeg[kid] == 0:
                    # insert keeping declaration order among ready nodes
                    pos = 0
                    decl = self.nodes.index(kid)
                    while pos < len(ready) and self.nodes.index(ready[pos]) < decl:
                        pos += 1
                    ready.insert(pos, kid)
        return out


class ObjectiveTerm:
    """One additive contribution: a weighted sum of compiled expressions.

    ``parse_model`` builds one for every model term and dynamics component,
    with a single piece of weight 1; edit code builds the others, such as
    the two-piece blends of soft surgery.
    """

    __slots__ = ("owner", "pieces", "refs")

    def __init__(self, owner: str, pieces: Sequence[tuple[float, CompiledExpr]]):
        self.owner = owner
        self.pieces = tuple(pieces)
        seen: dict[tuple[str, int], None] = {}
        for _, compiled in self.pieces:
            for ref in compiled.refs:
                seen.setdefault(ref, None)
        order = {"z": 0, "u": 1, "theta": 2}
        self.refs = tuple(sorted(seen, key=lambda r: (order[r[0]], r[1])))

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

    def __init__(self, variables, dag, terms, dynamics, mask_policy, mask_warnings):
        self.variables: tuple[VariableDecl, ...] = tuple(variables)
        self.dag: Dag = dag
        self.terms: tuple[EnergyTerm, ...] = tuple(terms)
        self.dynamics: tuple[DynComponent, ...] | None = (
            tuple(dynamics) if dynamics is not None else None
        )
        self.mask_policy = mask_policy
        self.mask_warnings: tuple[str, ...] = tuple(mask_warnings)
        self._build_indexes()

    # -- flat coordinate maps ---------------------------------------------

    def _build_indexes(self) -> None:
        self.endogenous = tuple(v for v in self.variables if v.kind == "endogenous")
        self.exogenous = tuple(v for v in self.variables if v.kind == "exogenous")
        self._var_by_name = {v.name: v for v in self.variables}

        self._offset = {"z": {}, "u": {}}
        self._labels = {"z": [], "u": [], "theta": []}
        for space, decls in (("z", self.endogenous), ("u", self.exogenous)):
            cursor = 0
            for v in decls:
                self._offset[space][v.name] = cursor
                for k in range(v.dim):
                    self._labels[space].append(v.name if v.dim == 1 else f"{v.name}[{k}]")
                cursor += v.dim
        self.nz = len(self._labels["z"])
        self.nu = len(self._labels["u"])

        self._theta_index: dict[tuple[str, str], int] = {}
        self._theta_slice: dict[str, tuple[int, int]] = {}
        defaults: list[float] = []
        for term in self.terms:
            start = len(defaults)
            for name in sorted(term.params):
                self._theta_index[(term.label, name)] = len(defaults)
                self._labels["theta"].append(f"{term.label}.{name}")
                defaults.append(float(term.params[name]))
            self._theta_slice[term.label] = (start, len(defaults))
        self.ntheta = len(defaults)
        self._theta_defaults = tuple(defaults)

        self.term_by_label = {t.label: t for t in self.terms}
        # endo <-> exo pairing by declaration position
        self._paired_exo = {}
        self._paired_endo = {}
        for i, endo in enumerate(self.endogenous):
            if i < len(self.exogenous):
                self._paired_exo[endo.name] = self.exogenous[i].name
                self._paired_endo[self.exogenous[i].name] = endo.name

    def var(self, name: str) -> VariableDecl:
        try:
            return self._var_by_name[name]
        except KeyError:
            raise QueryError(f"unknown variable {name!r}") from None

    def var_slice(self, space: str, name: str) -> slice:
        try:
            start = self._offset[space][name]
        except KeyError:
            raise QueryError(f"unknown {space!r} variable {name!r}") from None
        return slice(start, start + self._var_by_name[name].dim)

    def coord_indices(self, space: str, name: str) -> list[int]:
        s = self.var_slice(space, name)
        return list(range(s.start, s.stop))

    def theta_index(self, owner: str, param: str) -> int:
        try:
            return self._theta_index[(owner, param)]
        except KeyError:
            raise QueryError(f"unknown parameter theta.{owner}.{param}") from None

    def theta_slice(self, owner: str) -> slice:
        if owner not in self._theta_slice:
            raise QueryError(f"no term owned by {owner!r}")
        start, stop = self._theta_slice[owner]
        return slice(start, stop)

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
        sl = self.theta_slice(owner)
        idx = set(range(sl.start, sl.stop))
        term = self.term_by_label.get(owner)
        if term is not None and term.compiled is not None:
            idx |= {r[1] for r in term.compiled.refs if r[0] == "theta"}
        if dynamics and self.dynamics is not None:
            for comp in self.dynamics:
                if comp.var == owner and comp.compiled is not None:
                    idx |= {r[1] for r in comp.compiled.refs if r[0] == "theta"}
        return sorted(idx)

    def labels(self, space: str) -> list[str]:
        return list(self._labels[space])

    def coord_label(self, space: str, index: int) -> str:
        return f"{space}.{self._labels[space][index]}"

    def paired_exo(self, endo_name: str) -> str | None:
        return self._paired_exo.get(endo_name)

    def parse_coord(self, label: str) -> tuple[str, int]:
        """Resolve "z.Z1", "z.V[2]", "u.U1" or "theta.Z2.a" to (space, index)."""
        parts = label.split(".")
        if len(parts) == 3 and parts[0] == "theta":
            return ("theta", self.theta_index(parts[1], parts[2]))
        if len(parts) == 2 and parts[0] in _SPACES:
            space, rest = parts
            comp = None
            m = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)\[(\d+)\]$", rest)
            if m:
                rest, comp = m.group(1), int(m.group(2))
            v = self.var(rest)
            expected = "endogenous" if space == "z" else "exogenous"
            if v.kind != expected:
                raise QueryError(f"{label!r}: {rest!r} is not {expected}")
            if comp is None:
                if v.dim != 1:
                    raise QueryError(f"{label!r}: variable has dim {v.dim}, index required")
                comp = 0
            if not 0 <= comp < v.dim:
                raise QueryError(f"{label!r}: component out of range")
            return (space, self._offset[space][rest] + comp)
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

    @property
    def global_term(self) -> EnergyTerm | None:
        term = self.term_by_label.get("global")
        return term if term is not None and term.owner_kind == "global" else None

    # -- symbol resolution ---------------------------------------------------

    def _resolve_var_sym(self, sym: Sym, space: str, name: str) -> tuple[str, int]:
        if name not in self._offset[space]:
            kind = "endogenous" if space == "z" else "exogenous"
            raise UnknownSymbolError(f"unknown {kind} variable in symbol {sym.text!r}")
        v = self._var_by_name[name]
        comp = sym.comp
        if comp is None:
            if v.dim != 1:
                raise UnknownSymbolError(
                    f"symbol {sym.text!r} needs a component index (dim {v.dim})"
                )
            comp = 0
        if not 0 <= comp < v.dim:
            raise UnknownSymbolError(f"component out of range in symbol {sym.text!r}")
        return (space, self._offset[space][name] + comp)

    def resolver(self, *, z_allowed=None, u_allowed=None, context="", warnings=None, s_dim=None):
        """Build a symbol resolver with optional z/u masks.

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
                return ("theta", self._theta_index[(owner, name)])
            if head in _SPACES:
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
                return ("s", comp)
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
    model = Model(variables, dag, terms, dynamics, mask_policy, warnings if warnings else [])

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
