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
import math
import re
from collections import OrderedDict
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

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
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
        for lists in (self._parents, self._children):
            for lst in lists.values():
                if len(lst) > 1:
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
        self.pieces = pieces = tuple(pieces)
        self.refs = (pieces[0][1].refs if len(pieces) == 1 else
                     tuple(sorted({ref for _, compiled in pieces for ref in compiled.refs})))
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
        self._plans: OrderedDict = OrderedDict()  # (terms, free) -> solve plan, see engine._plan
        self._module_thetas: dict[tuple[str, bool], tuple[int, ...]] = {}  # module_theta_refs
        # set by reduction.induce_scm once every local term has passed its
        # convexity probe; a model that fails is probed again on every call
        self._convex_probed = False
        self._located: dict[str, int] = {}  # symbol text -> flat index, see _locate
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
        self._var_at: list[str] = []  # z or u flat index -> its variable
        for space, decls in (("z", self.endogenous), ("u", self.exogenous)):
            first = len(labels)
            for v in decls:
                self._start[v.name] = len(labels)
                if v.dim == 1:
                    labels.append(f"{space}.{v.name}")
                else:
                    labels += [f"{space}.{v.name}[{k}]" for k in range(v.dim)]
                self._var_at += [v.name] * v.dim
            self._coords[space] = range(first, len(labels))

        self._theta_index: dict[tuple[str, str], int] = {}  # (owner, name) -> flat index
        self._theta_refs: dict[str, range] = {}  # owner -> its declared parameters
        defaults: list[float] = []
        first = len(labels)
        for term in self.terms:
            owner, params, start = term.owner, term.params, len(labels)
            for name in sorted(params):
                self._theta_index[(owner, name)] = len(labels)
                labels.append(f"theta.{owner}.{name}")
                defaults.append(float(params[name]))
            self._theta_refs[owner] = range(start, len(labels))
        self._coords["theta"] = range(first, len(labels))
        self._theta_defaults = tuple(defaults)
        self._coord_labels = labels
        self._coord_index = {label: index for index, label in enumerate(labels)}
        self.nz, self.nu, self.ntheta = (len(r) for r in self._coords.values())
        self.dim = len(labels)

        self.term_by_label = {t.owner: t for t in self.terms}
        # endo <-> exo pairing by declaration position
        self._paired_exo = {endo.name: exo.name
                            for endo, exo in zip(self.endogenous, self.exogenous)}

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
        independence diagnostics must attribute correctly.  Each set is
        computed on first use and kept; the caller gets a new list.
        """
        key = (owner, bool(dynamics))
        refs = self._module_thetas.get(key)
        if refs is None:
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
            refs = self._module_thetas[key] = tuple(sorted(idx))
        return list(refs)

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
        expression symbol, to its flat index.  A label as ``coord_label``
        spells it is looked up; only other spellings are parsed."""
        index = self._coord_index.get(label) if isinstance(label, str) else None
        if index is not None:
            return index
        try:
            expr = parse_expr(label)
            if expr.form == "s":
                return self.resolver()(expr.syms[0])
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

    def _locate(self, sym: Sym, s_dim: int | None) -> int:
        """The flat index ``sym`` reads, with no mask; a z, u or theta
        symbol is looked up once per text and kept in ``_located``."""
        head = sym.parts[0]
        if head == "theta":
            if len(sym.parts) != 3 or sym.comp is not None:
                raise UnknownSymbolError(f"malformed parameter symbol {sym.text!r}")
            ref = self._theta_index.get((sym.parts[1], sym.parts[2]))
            if ref is None:
                raise UnknownSymbolError(f"unknown parameter {sym.text!r}")
        elif head == "z" or head == "u":
            if len(sym.parts) != 2:
                raise UnknownSymbolError(f"malformed symbol {sym.text!r}")
            ref = self._resolve_var_sym(sym, head, sym.parts[1])
        elif head == "s" and len(sym.parts) == 1:
            if s_dim is None:
                raise UnknownSymbolError("symbol 's' is only valid in selection costs")
            comp = sym.comp if sym.comp is not None else 0
            if not 0 <= comp < s_dim:
                raise UnknownSymbolError(f"component out of range in symbol {sym.text!r}")
            return self.dim + comp
        else:
            raise UnknownSymbolError(f"unknown symbol {sym.text!r}")
        self._located[sym.text] = ref
        return ref

    def resolver(self, *, allowed=None, context="", warnings=None, s_dim=None):
        """Build a symbol resolver with an optional parent mask.

        The resolver maps a symbol to its flat index; the selection-cost
        symbol ``s[k]`` resolves past the point, to ``dim + k``.
        ``allowed`` is the set of variables whose z or u coordinates a
        symbol may read, or None for unrestricted.  Parameter symbols
        resolve against the whole table: cross-module parameter sharing is
        representable (it is what the mechanism-independence diagnostics
        exist to detect).
        ``warnings`` collects mask violations instead of raising when
        provided.
        """
        located, var_at = self._located, self._var_at
        theta = len(var_at)  # every z and u index lies below

        def resolve(sym: Sym):
            ref = located.get(sym.text)
            if ref is None:
                ref = self._locate(sym, s_dim)
            if allowed is not None and ref < theta and var_at[ref] not in allowed:
                message = f"symbol {sym.text!r} outside the parent mask of {context}"
                if warnings is None:
                    raise MaskViolationError(message)
                warnings.append(message)
            return ref

        return resolve

    def term_resolver(self, term: EnergyTerm, warnings=None):
        """The resolver of a term's mask: a local term reads its own
        variable, its parents and its paired exogenous variable; an exo
        term its own variable alone, and its violations always raise."""
        if term.owner_kind == "global":
            return self.resolver()
        if term.owner_kind == "exo":
            return self.resolver(allowed={term.owner}, context=f"exo term {term.owner}")
        allowed = {term.owner, *self.dag.parents(term.owner)}
        paired = self._paired_exo.get(term.owner)
        if paired is not None:
            allowed.add(paired)
        return self.resolver(allowed=allowed, context=f"local term {term.owner}",
                             warnings=warnings)

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


def parse_model(text, mask_policy: str = "strict") -> Model:
    """Parse and validate a model file.

    ``text`` may be a JSON string or an already-decoded dict.  With
    ``mask_policy="warn"``, parent-mask violations in local terms and
    vector-field components are recorded on ``model.mask_warnings`` instead
    of raising; this is how locality-violating diagnostic fixtures are
    constructed on purpose.  Checks run in file order, and the first that
    fails raises; every lookup is a set or dict lookup.
    """
    if isinstance(text, (str, bytes)):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise SchemaError(f"invalid JSON: {err}") from None
    else:
        data = text
    if not isinstance(data, dict):
        raise SchemaError("model file must be a JSON object")
    if mask_policy not in ("strict", "warn"):
        raise QueryError(f"mask_policy must be 'strict' or 'warn', not {mask_policy!r}")
    unknown = set(data) - {"variables", "edges", "terms", "dynamics"}
    if unknown:
        raise SchemaError(f"unknown top-level keys: {sorted(unknown)}")

    raw_vars = data.get("variables")
    if not (isinstance(raw_vars, list) and raw_vars):
        raise SchemaError("'variables' must be a non-empty list")
    variables: list[VariableDecl] = []
    kinds: dict[str, str] = {}  # variable name -> kind
    for item in raw_vars:
        if not isinstance(item, dict):
            raise SchemaError("variable entries must be objects")
        name = item.get("name")
        kind = item.get("kind")
        dim = item.get("dim", 1)
        if not (isinstance(name, str) and _IDENT_RE.fullmatch(name)):
            raise SchemaError(f"bad variable name {name!r}")
        if name == "global":
            raise SchemaError("'global' is a reserved name")
        if kind not in ("endogenous", "exogenous"):
            raise SchemaError(f"bad kind for variable {name!r}")
        if not (isinstance(dim, int) and dim >= 1):
            raise SchemaError(f"dim of {name!r} must be a positive integer")
        if name in kinds:
            raise SchemaError(f"duplicate variable name {name!r}")
        kinds[name] = kind
        variables.append(VariableDecl(name, kind, dim))

    endo_names = [v.name for v in variables if v.kind == "endogenous"]
    if not endo_names:
        raise SchemaError("at least one endogenous variable is required")

    raw_edges = data.get("edges", [])
    if not isinstance(raw_edges, list):
        raise SchemaError("'edges' must be a list")
    edges: dict[tuple[str, str], None] = {}  # in file order
    for item in raw_edges:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise SchemaError(f"bad edge {item!r}")
        parent, child = item
        for end in (parent, child):
            if end not in kinds:
                raise SchemaError(f"edge references undeclared variable {end!r}")
            if kinds[end] != "endogenous":
                raise SchemaError(f"edge endpoint {end!r} is not endogenous")
        if parent == child:
            raise SchemaError(f"self-edge on {parent!r}")
        if (parent, child) in edges:
            raise SchemaError(f"duplicate edge {item!r}")
        edges[(parent, child)] = None

    dag = Dag(endo_names, list(edges))

    raw_terms = data.get("terms")
    if not isinstance(raw_terms, list):
        raise SchemaError("'terms' must be a list")
    terms: list[EnergyTerm] = []
    for item in raw_terms:
        if not isinstance(item, dict):
            raise SchemaError("term entries must be objects")
        owner_tag = item.get("owner")
        if not isinstance(owner_tag, str):
            raise SchemaError("term owner must be a string")
        if owner_tag == "global":
            owner_kind, owner = "global", "global"
        else:
            owner_kind, colon, owner = owner_tag.partition(":")
            if not colon or owner_kind not in ("local", "exo"):
                raise SchemaError(f"bad term owner {owner_tag!r}")
            if owner not in kinds:
                raise SchemaError(f"term owner {owner!r} is undeclared")
            expected = "endogenous" if owner_kind == "local" else "exogenous"
            if kinds[owner] != expected:
                raise SchemaError(f"term owner {owner!r} is not {expected}")
        params = item.get("params", {})
        if not isinstance(params, dict):
            raise SchemaError(f"params of term {owner!r} must be an object")
        values = {}
        for pname, pval in params.items():
            if not (isinstance(pname, str) and _IDENT_RE.fullmatch(pname)):
                raise SchemaError(f"bad parameter name {pname!r} in term {owner!r}")
            if not isinstance(pval, (int, float)) or isinstance(pval, bool):
                raise SchemaError(f"parameter {pname!r} of term {owner!r} must be numeric")
            try:
                value = float(pval)
            except OverflowError:  # an int past the float range
                value = math.inf
            if not math.isfinite(value):
                raise SchemaError(f"parameter {pname!r} of term {owner!r} must be finite")
            values[pname] = value
        source = item.get("expr")
        if not isinstance(source, str):
            raise SchemaError(f"term {owner!r} is missing an 'expr' string")
        terms.append(EnergyTerm(owner_kind, owner, parse_expr(source), values))

    owners_local = [t.owner for t in terms if t.owner_kind == "local"]
    owners_exo = [t.owner for t in terms if t.owner_kind == "exo"]
    n_global = sum(1 for t in terms if t.owner_kind == "global")
    if len(set(owners_local)) != len(owners_local):
        raise SchemaError("duplicate local term")
    if len(set(owners_exo)) != len(owners_exo):
        raise SchemaError("duplicate exo term")
    if n_global > 1:
        raise SchemaError("at most one global term is allowed")
    local = set(owners_local)
    missing = [n for n in endo_names if n not in local]
    if missing:
        raise SchemaError(f"endogenous variables without a local term: {missing}")

    raw_dyn = data.get("dynamics")
    dynamics: list[DynComponent] | None = None
    if raw_dyn is not None:
        if not isinstance(raw_dyn, list):
            raise SchemaError("'dynamics' must be a list")
        dynamics = []
        for item in raw_dyn:
            if not (isinstance(item, dict) and isinstance(item.get("var"), str)
                    and isinstance(item.get("expr"), str)):
                raise SchemaError(f"bad dynamics entry {item!r}")
            if kinds.get(item["var"]) != "endogenous":
                raise SchemaError(f"dynamics for non-endogenous {item['var']!r}")
            dynamics.append(DynComponent(item["var"], parse_expr(item["expr"])))
        dyn_vars = {d.var for d in dynamics}
        if len(dyn_vars) != len(dynamics):
            raise SchemaError("duplicate dynamics component")
        absent = [n for n in endo_names if n not in dyn_vars]
        if absent:
            raise SchemaError(f"dynamics must cover every endogenous variable; missing {absent}")

    warnings: list[str] = [] if mask_policy == "warn" else None
    model = Model(variables, dag, terms, dynamics)

    # Compile after the full parameter table exists so that terms may refer
    # to parameters declared later in the file.  A vector-field component
    # obeys its local term's mask.
    local_resolvers = {}
    for term in model.terms:
        resolve = model.term_resolver(term, warnings=warnings)
        if term.owner_kind == "local":
            local_resolvers[term.owner] = resolve
        term.compiled = compile_expr(term.expr, resolve)
        term.objective_term = ObjectiveTerm(term.label, [(1.0, term.compiled)])
    if model.dynamics is not None:
        for comp in model.dynamics:
            comp.compiled = compile_expr(comp.expr, local_resolvers[comp.var])
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
