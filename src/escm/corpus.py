"""Seeded generator for strongly convex quadratic DAG models.

Each generated model has scalar variables Z1..Zn (with paired exogenous
U1..Un), random lower-triangular structure at the requested edge density,
and local terms of the form

    0.5*w * sq(z.Zj - sum_p theta.Zj.c_Zp * z.Zp - u.Uj)

so the total energy is strongly convex for any coupling values and the
blockwise best responses are linear.  With ``dynamics=True`` the same
residuals (unit weights, small couplings) drive a blockwise gradient flow
whose energy descends along trajectories.

Everything is driven by a single seeded generator, and files are written
in canonical form, so regeneration is byte-identical.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import QueryError
from .model import parse_model
from .report import canonical_json, model_hash, model_text

__all__ = ["random_quadratic_model", "write_corpus"]


def _fmt(x: float) -> str:
    return repr(float(x))


def random_quadratic_model(rng: np.random.Generator, n_nodes: int = 5,
                           density: float = 0.4, dynamics: bool = False) -> dict:
    """Model-file dict for a random strongly convex quadratic DAG model:
    weights in [0.5, 2] and couplings of magnitude [0.5, 2], each sign with
    probability 1/2."""
    if not 1 <= n_nodes:
        raise QueryError("n_nodes must be at least 1")
    if not 0.0 <= density <= 1.0:
        raise QueryError("density must lie in [0, 1]")
    # With dynamics, unit weights and weak couplings keep sym(I - C)
    # positive definite, so the blockwise flow descends the total energy;
    # the draws are the same either way.
    weight_range = (1.0, 1.0) if dynamics else (0.5, 2.0)
    coupling_range = (0.05, 0.12) if dynamics else (0.5, 2.0)

    names = [f"Z{k + 1}" for k in range(n_nodes)]
    variables = [{"name": n, "kind": "endogenous", "dim": 1} for n in names]
    variables += [{"name": f"U{k + 1}", "kind": "exogenous", "dim": 1}
                  for k in range(n_nodes)]

    edges = []
    parents: dict[str, list[str]] = {n: [] for n in names}
    for j in range(n_nodes):
        for i in range(j):
            if rng.uniform() < density:
                edges.append([names[i], names[j]])
                parents[names[j]].append(names[i])

    terms = []
    dynamics_entries = []
    for k, name in enumerate(names):
        weight = float(rng.uniform(*weight_range))
        params = {}
        residual = [f"z.{name}"]
        for p in parents[name]:
            c = float(rng.uniform(*coupling_range))
            if rng.uniform() < 0.5:
                c = -c
            params[f"c_{p}"] = c
            residual.append(f"- theta.{name}.c_{p}*z.{p}")
        residual.append(f"- u.U{k + 1}")
        residual_src = " ".join(residual)
        entry = {"owner": f"local:{name}",
                 "expr": f"0.5*{_fmt(weight)}*sq({residual_src})"}
        if params:
            entry["params"] = params
        terms.append(entry)
        if dynamics:
            dynamics_entries.append({"var": name,
                                     "expr": f"-({_fmt(weight)})*({residual_src})"})
    for k in range(n_nodes):
        terms.append({"owner": f"exo:U{k + 1}", "expr": f"0.5*sq(u.U{k + 1})"})

    out = {"variables": variables, "edges": edges, "terms": terms}
    if dynamics:
        out["dynamics"] = dynamics_entries
    return out


def write_corpus(out_dir, count: int = 10, nodes: int = 5, density: float = 0.4,
                 seed: int = 0, dynamics: bool = False) -> dict:
    """Write seeded model files plus forward-solve fixtures.

    Fixtures pair each model with three random contexts and the z vector
    obtained by one topological pass of the induced structural equations;
    they are the oracle side for equivalence testing.  Returns the manifest.
    """
    from .reduction import induce_scm

    if count < 1 or nodes < 1:
        raise QueryError("count and nodes must be positive")
    if seed < 0:
        raise QueryError("seed must be non-negative")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    manifest: dict = {"seed": seed, "count": count, "nodes": nodes,
                      "density": density, "dynamics": dynamics, "models": []}
    for index in range(count):
        spec = random_quadratic_model(rng, n_nodes=nodes, density=density,
                                      dynamics=dynamics)
        model = parse_model(spec)
        scm = induce_scm(model)
        contexts = []
        for _ in range(3):
            u = rng.uniform(-2.0, 2.0, size=model.nu)
            z = scm.solve(u)
            contexts.append({
                "u": {model.labels("u")[i]: float(u[i]) for i in range(model.nu)},
                "z_expected": {model.labels("z")[i]: float(z[i]) for i in range(model.nz)},
            })
        filename = f"model_{index:03d}.json"
        (out_path / filename).write_text(model_text(model), encoding="utf-8")
        manifest["models"].append({
            "file": filename,
            "hash": model_hash(model),
            "contexts": contexts,
        })
    (out_path / "fixtures.json").write_text(canonical_json(manifest) + "\n",
                                            encoding="utf-8")
    return manifest
