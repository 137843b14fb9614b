"""Command-line interface.

Every command prints one JSON report to stdout (keys sorted, shortest
round-trip floats) and uses the exit-code contract: 0 success, 1 model
validation error, 2 solver/numerical failure (including running out of
memory), 3 query or usage error.
Commands that sample require an explicit --seed; nothing reads the clock
except the timing field, which --no-timing removes for byte-identical
reruns.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import causal, diagnostics, dynamics, reduction
from .corpus import write_corpus
from .engine import Point
from .errors import (EnergyDomainError, EscmError, ModelError, NonConvexBlockError, QueryError,
                     SolverError)
from .model import Model, parse_model
from .report import canonical_json, jsonable, model_hash
from .solver import SolverConfig, normalize_clamps, solve

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_QUERY = 3


def _read_model(path: str, mask_policy: str = "strict") -> Model:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise QueryError(f"cannot read model file {path!r}: {err}") from None
    return parse_model(text, mask_policy=mask_policy)


def _read_json_arg(raw: str, what: str, kind: type = dict):
    """Inline JSON, or @path to read a JSON file; the value must be a JSON
    object, or a list when ``kind`` is ``list``."""
    if raw is None:
        return None
    try:
        if raw.startswith("@"):
            with open(raw[1:], "r", encoding="utf-8") as fh:
                value = json.load(fh)
        else:
            value = json.loads(raw)
    except (OSError, json.JSONDecodeError) as err:
        raise QueryError(f"bad {what}: {err}") from None
    if not isinstance(value, kind):
        raise QueryError(f"{what} must be a JSON {'list' if kind is list else 'object'}")
    return value


def _point_from_overrides(model: Model, overrides: dict | None,
                          space: str | None = None) -> Point:
    """The zero point (default parameters) with ``overrides`` applied; with
    ``space``, every override must be a coordinate of that space."""
    point = Point.for_model(model)
    for ref, value in normalize_clamps(model, overrides or {}).items():
        if space is not None and ref not in model.coords(space):
            raise QueryError(f"{model.coord_label(ref)} is not a {space} coordinate")
        point.x[ref] = value
    return point


def _point_payload(model: Model, point: Point) -> dict:
    return {
        "z": {label: float(v) for label, v in zip(model.labels("z"), point.z)},
        "u": {label: float(v) for label, v in zip(model.labels("u"), point.u)},
    }


def _solver_config(args) -> SolverConfig:
    kwargs = {}
    if getattr(args, "tol", None) is not None:
        kwargs["tol_grad"] = args.tol
    if getattr(args, "max_iter", None) is not None:
        kwargs["max_iter"] = args.max_iter
    if getattr(args, "init", None) is not None:
        kwargs["init"] = args.init
    return SolverConfig(**kwargs)


def _equilibrium_payload(model: Model, eq) -> dict:
    return {
        **_point_payload(model, eq.point),
        "condition_number": eq.condition_number,
        "energy": eq.energy,
        "hessian_pd": eq.hessian_pd,
        "iterations": eq.iterations,
        "residual": eq.residual,
    }


def _branch_key(value: tuple[float, ...]) -> str:
    return canonical_json(list(value))


# ---------------------------------------------------------------------------
# Command handlers (each returns the "results" payload)


def _cmd_validate(model: Model, args) -> dict:
    return {
        "valid": True,
        "variables": len(model.variables),
        "edges": len(model.dag.edges),
        "terms": len(model.terms),
        "topo_order": model.dag.topo_order(),
        "mask_warnings": list(model.mask_warnings),
        "has_dynamics": model.dynamics is not None,
    }


def _cmd_solve(model: Model, args) -> dict:
    context = _read_json_arg(args.context, "--context")
    free = None
    if args.free:
        free = [s.strip() for s in args.free.split(",") if s.strip()]
    eq = solve(model, clamps=context, free=free, cfg=_solver_config(args))
    return _equilibrium_payload(model, eq)


def _cmd_abduct(model: Model, args) -> dict:
    evidence = _read_json_arg(args.evidence, "--evidence")
    explanation = causal.abduct(model, evidence, cfg=_solver_config(args))
    return {
        **_point_payload(model, explanation.point),
        "selector": explanation.selector,
        "residual": explanation.residual,
        "clamped": [model.coord_label(ref) for ref in explanation.clamped],
    }


def _load_query(args) -> dict:
    query = _read_json_arg(args.query, "--query") if args.query else {}
    if getattr(args, "evidence", None):
        query["evidence"] = _read_json_arg(args.evidence, "--evidence")
    if getattr(args, "surgeries", None):
        query["surgeries"] = _read_json_arg(args.surgeries, "--surgeries", list)
    if getattr(args, "readouts", None):
        query["readouts"] = _read_json_arg(args.readouts, "--readouts")
    if not isinstance(query.get("surgeries", []), list):
        raise QueryError("query surgeries must be a JSON list")
    if not isinstance(query.get("readouts", {}), dict):
        raise QueryError("query readouts must map names to expressions")
    return query


def _cmd_counterfactual(model: Model, args) -> dict:
    query = _load_query(args)
    surgeries = [causal.surgery_from_dict(model, s) for s in query.get("surgeries", [])]
    result = causal.counterfactual(
        model,
        query.get("evidence", {}),
        surgeries,
        readouts=query.get("readouts", {}),
        hold=query.get("hold"),
        cfg=_solver_config(args),
    )
    return {
        "pre": _point_payload(model, result.pre),
        "post": _point_payload(model, result.post),
        "readouts": result.readouts,
        "free": [model.coord_label(ref) for ref in result.free],
        "residual": result.equilibrium.residual,
    }


def _cmd_disjunct(model: Model, args) -> dict:
    query = _load_query(args)
    for key in ("target", "values"):
        if key not in query:
            raise QueryError(f"disjunct query is missing {key!r}")
    mode = query.get("mode", "envelope")
    readouts = query.get("readouts", {})
    cfg = _solver_config(args)
    if mode == "envelope":
        result = causal.disjunctive_envelope(
            model, query.get("evidence", {}), query["target"], query["values"],
            readouts, hold=query.get("hold"), cfg=cfg)
        return {
            "mode": mode,
            "branches": {
                _branch_key(v): {"readouts": r.readouts}
                for v, r in result.branches.items()
            },
            "envelopes": {name: list(bounds) for name, bounds in result.envelopes.items()},
        }
    if mode == "select":
        result = causal.disjunctive_select(
            model, query.get("evidence", {}), query["target"], query["values"],
            rho=query.get("rho", 0.0), control=query.get("control"),
            tau=query.get("tau", 0.0), readouts=readouts,
            hold=query.get("hold"), cfg=cfg)
        return {
            "mode": mode,
            "branch_energies": {_branch_key(v): e for v, e in result.branch_energies.items()},
            "weights": {_branch_key(v): w for v, w in result.weights.items()},
            "selected": None if result.selected is None else list(result.selected),
            "readouts": result.readouts,
        }
    raise QueryError(f"unknown disjunct mode {mode!r}")


def _lap_payload(reports) -> list[dict]:
    return [{
        "pair": list(r.pair),
        "max_abs_z": r.max_abs_z,
        "max_abs_theta": r.max_abs_theta,
        "passed": r.passed,
    } for r in reports]


def _icm_payload(reports) -> list[dict]:
    return [{
        "node": r.node,
        "max_abs_first": r.max_abs_first,
        "max_abs_mixed": r.max_abs_mixed,
        "passed": r.passed,
    } for r in reports]


def _cmd_diagnose(model: Model, args) -> dict:
    point = _point_from_overrides(model, _read_json_arg(args.point, "--point"))
    tol = args.tol if args.tol is not None else diagnostics.STRUCTURAL_TOL
    pairs = diagnostics.nondesc_pairs(model)
    lap = diagnostics._lap_reports(model, pairs, point, tol)
    icm = [diagnostics.icm_check(model, node, point, tol=tol) for node in model.dag.nodes]
    results = {
        "lap": _lap_payload(lap),
        "icm": _icm_payload(icm),
        # the unit-weight penalties of this one point, from the same reports
        "lap_penalty": diagnostics._penalty([lap], 1.0, 1.0),
        "icm_penalty": diagnostics._penalty([icm], 1.0, 1.0),
        "tol": tol,
    }
    if model.dynamics is not None:
        results["dyn_lap"] = _lap_payload(dynamics._dyn_lap_reports(model, pairs, point, tol))
        results["dyn_icm"] = _icm_payload(dynamics.dyn_icm_check(model, node, point, tol=tol)
                                          for node in model.dag.nodes)
    return results


def _cmd_probes(model: Model, args) -> dict:
    raw_points = _read_json_arg(args.points, "--points", list)
    if not raw_points or not all(isinstance(entry, dict) for entry in raw_points):
        raise QueryError("--points must be a non-empty JSON list of coordinate objects")
    points = [_point_from_overrides(model, entry) for entry in raw_points]
    base = _point_from_overrides(model, _read_json_arg(args.base, "--base")) \
        if args.base else None
    heads = [h.strip() for h in args.heads.split(",")] if args.heads else list(diagnostics.HEADS)
    results: dict = {"heads": {}}
    gauge = None
    if args.gauge:
        payload = _read_json_arg(args.gauge, "--gauge")
        gauge = diagnostics.GaugeTransform(scale=payload.get("scale", {}),
                                           offset=payload.get("offset", {}), j=payload.get("j"))
    for head in heads:
        report = diagnostics.probe(model, head, points, base=base)
        results["heads"][head] = jsonable(report.outputs)
    if gauge is not None:
        results["preserved"] = diagnostics.gauge_preserved(
            model, gauge, heads=heads, points=points, tol=args.gauge_tol, base=base)
    return results


def _cmd_reduce_check(model: Model, args) -> dict:
    report = reduction.equivalence_check(model, trials=args.trials, seed=args.seed,
                                         tol=args.tol if args.tol is not None else 1e-8)
    return {
        "trials": report.trials,
        "max_deviation": report.max_deviation,
        "tol": report.tol,
        "passed": report.passed,
        "seed": report.seed,
    }


def _cmd_pushforward(model: Model, args) -> dict:
    sampler = _read_json_arg(args.sampler, "--sampler")
    surgeries = [causal.surgery_from_dict(model, s)
                 for s in (_read_json_arg(args.surgeries, "--surgeries", list) or [])]
    stats = _read_json_arg(args.stats, "--stats") or None
    report = reduction.pushforward_check(
        model, sampler, trials=args.trials, surgeries=surgeries,
        statistics=stats, seed=args.seed,
        tol=args.tol if args.tol is not None else 1e-8)
    return {
        "statistics": report.statistics,
        "paired_max_deviation": report.paired_max_deviation,
        "trials": report.trials,
        "tol": report.tol,
        "passed": report.passed,
        "seed": report.seed,
    }


def _cmd_simulate(model: Model, args) -> dict:
    u = _point_from_overrides(model, _read_json_arg(args.context, "--context"), "u").u
    z0 = _point_from_overrides(model, _read_json_arg(args.z0, "--z0"), "z").z
    surgeries = [dynamics.dyn_surgery_from_dict(model, s)
                 for s in (_read_json_arg(args.surgeries, "--surgeries", list) or [])]
    trajectory = dynamics.integrate(model, z0, u, surgeries,
                                    t_end=args.t_end, dt=args.dt)
    stride = max(1, args.stride)
    return {
        "times": [float(t) for t in trajectory.times[::stride]],
        "states": {
            name: [float(v) for v in trajectory.states[::stride, k]]
            for k, name in enumerate(trajectory.node_order)
        },
        "events": trajectory.events,
        "dt": args.dt,
    }


def _cmd_gen_corpus(args) -> dict:
    manifest = write_corpus(args.out, count=args.count, nodes=args.nodes,
                            density=args.density, seed=args.seed,
                            dynamics=args.dynamics)
    return manifest


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """An argument parser that also prints a usage error as a JSON report."""

    def error(self, message):
        sys.stdout.write(canonical_json({"error": {"type": "QueryError", "message": message}})
                         + "\n")
        super().error(message)  # the usage text on stderr, and exit 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="escm",
        description="Energy-structured causal models: equilibria, surgery, "
                    "counterfactuals, diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, model_arg=True):
        p = sub.add_parser(name, help=help_text)
        if model_arg:
            p.add_argument("model", help="model file (JSON)")
        p.add_argument("--no-timing", action="store_true",
                       help="omit the timing field (byte-identical reruns)")
        p.add_argument("--mask-policy", choices=("strict", "warn"), default="strict",
                       help="treat parent-mask violations as errors or record them")
        return p

    p = add("validate", "parse and validate a model file")

    p = add("solve", "solve for an equilibrium under clamped coordinates")
    p.add_argument("--context", help="JSON object of coordinate clamps, e.g. "
                                     '\'{"u.U1":1,"u.U2":0.5}\' (or @file)')
    p.add_argument("--free", help="comma-separated free coordinates (default: all unclamped z,u)")
    p.add_argument("--init", choices=("zeros", "forward-scm"), default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)

    p = add("abduct", "recover latent/exogenous configuration from evidence")
    p.add_argument("--evidence", required=True, help="JSON object of clamped coordinates")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)

    p = add("counterfactual", "abduction -> surgery -> prediction")
    p.add_argument("--query", help="query file (JSON or @file)")
    p.add_argument("--evidence", help="inline evidence JSON (overrides query file)")
    p.add_argument("--surgeries", help="inline surgeries JSON list")
    p.add_argument("--readouts", help="inline readouts JSON object")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)

    p = add("disjunct", "set-valued intervention: envelope or selection")
    p.add_argument("--query", required=True,
                   help="JSON with evidence/target/values/readouts/mode[/rho/tau/control]")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)

    p = add("diagnose", "locality and mechanism-independence checks")
    p.add_argument("--point", help="JSON object of coordinate overrides (default zeros)")
    p.add_argument("--tol", type=float, default=None)

    p = add("probes", "numeric observable heads, optionally under a gauge")
    p.add_argument("--points", required=True,
                   help="JSON list of coordinate-override objects")
    p.add_argument("--heads", help="comma-separated head ids (default: all)")
    p.add_argument("--gauge", help="JSON {scale:{},offset:{},j:[[..]]}")
    p.add_argument("--base", help="base point overrides for difference heads")
    p.add_argument("--gauge-tol", type=float, default=1e-9)

    p = add("reduce-check", "equivalence against the induced structural model")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tol", type=float, default=None)

    p = add("pushforward", "paired Monte Carlo over the exogenous law")
    p.add_argument("--sampler", required=True,
                   help='JSON like {"U1":{"dist":"uniform","lo":-1,"hi":1}}')
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--surgeries", help="JSON list of surgeries applied to every draw")
    p.add_argument("--stats", help="JSON object name -> readout expression")
    p.add_argument("--tol", type=float, default=None)

    p = add("simulate", "integrate declared dynamics")
    p.add_argument("--z0", help="JSON object of initial endogenous values (default zeros)")
    p.add_argument("--context", help="JSON object of exogenous values")
    p.add_argument("--surgeries", help="JSON list of dynamic surgeries")
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--stride", type=int, default=1,
                   help="record every n-th step in the report")

    p = add("gen-corpus", "write a seeded random model corpus with fixtures",
            model_arg=False)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--nodes", type=int, default=5)
    p.add_argument("--density", type=float, default=0.4)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dynamics", action="store_true")

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "abduct": _cmd_abduct,
    "counterfactual": _cmd_counterfactual,
    "disjunct": _cmd_disjunct,
    "diagnose": _cmd_diagnose,
    "probes": _cmd_probes,
    "reduce-check": _cmd_reduce_check,
    "pushforward": _cmd_pushforward,
    "simulate": _cmd_simulate,
}


def run(argv=None) -> int:
    """Execute one CLI invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; remap usage to 3.
        return EXIT_OK if exc.code == 0 else EXIT_QUERY

    started = time.perf_counter()
    report: dict = {"command": args.command, "diagnostics": {}}
    try:
        if args.command == "gen-corpus":
            report["results"] = _cmd_gen_corpus(args)
            report["model_hash"] = None
        else:
            model = _read_model(args.model, mask_policy=args.mask_policy)
            report["model_hash"] = model_hash(model)
            report["diagnostics"]["mask_warnings"] = list(model.mask_warnings)
            report["results"] = _HANDLERS[args.command](model, args)
        code = EXIT_OK
    except ModelError as err:
        report["error"] = {"type": type(err).__name__, "message": str(err)}
        code = EXIT_VALIDATION
    except (SolverError, EnergyDomainError, NonConvexBlockError) as err:
        report["error"] = {"type": type(err).__name__, "message": str(err)}
        if getattr(err, "diagnostics", None):
            report["error"]["diagnostics"] = jsonable(err.diagnostics)
        code = EXIT_SOLVER
    except MemoryError as err:
        # numpy raises a private subclass; report the builtin's name
        report["error"] = {"type": "MemoryError", "message": str(err)}
        code = EXIT_SOLVER
    except EscmError as err:
        report["error"] = {"type": type(err).__name__, "message": str(err)}
        code = EXIT_QUERY

    if not args.no_timing:
        report["timing"] = {"seconds": time.perf_counter() - started}
    sys.stdout.write(canonical_json(report) + "\n")
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
