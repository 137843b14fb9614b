"""The benchmark's workloads: seeded inputs, operations and answer checks.

A workload is built in three steps.  ``setup`` is the program's own set-up
and is what ``setup_s`` times: generating corpus models with escm's
generator, writing them, parsing them back, and for the oracle building
the induced structural models.  ``prepare`` draws the queries from a
separate seeded stream and computes their answers with ``reference``,
which never imports escm; it is not timed.  ``ops`` lists the
operations of one round; a run repeats whole rounds, so every run
attempts the same mix.

Each operation is (kind, run, check): ``run`` calls escm's public API and
is timed; ``check`` compares its result with the reference answer and
returns an error message or None.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

import escm
import reference as ref
from escm import cli
from escm.causal import evaluate_readout
from escm.corpus import random_quadratic_model

DENSITY = 0.3
REL_TOL = 1e-8  # answers agree to this, relative to max(1, max |reference|)

QUERY_NODES = 40
QUERY_MODELS = 16

ORACLE_NODES = 10
ORACLE_MODELS = 32
ORACLE_DRAWS = 6      # pushforward draws per operation
ORACLE_TRIALS = 6     # equivalence trials per operation: 2 of each edit kind
MOMENT_SE = 5.0       # pooled readout moments lie within this many standard errors

# (nodes, declares dynamics, planted violation).  A round holds 45 light
# models of 10 to 18 nodes (75% of its reports), twelve 18-node models
# that declare dynamics (20%) and three 30-node models (5%), whose dense
# third-derivative tensors set peak_rss_mb.  A percentile of a mix of
# models falls between the costs of two of them; with many models near it
# the gap is small.  So latency_p50_ms sits among the light models,
# latency_p90_ms among the dynamics models, and no run holds fewer than
# 100 reports even when the host runs at half speed.
_PLANTS = (None, "lap_z", "icm_first", "lap_theta", "icm_mixed")
DIAGNOSE_MIX = (
    [(nodes, False, kind) for nodes in range(10, 19) for kind in _PLANTS]
    + [(18, True, kind) for kind in _PLANTS * 2 + (None, "lap_z")]
    + [(30, False, kind) for kind in (None, "lap_theta", "icm_first")]
)


@dataclass
class Op:
    kind: str
    run: object
    check: object


@dataclass
class Workload:
    name: str
    seed: int
    out_dir: Path
    models: list = field(default_factory=list)   # (spec, path, escm model)
    ops: list[Op] = field(default_factory=list)
    finish: object = None  # final check over the whole run, or None
    agreement: Agreement = field(default_factory=lambda: Agreement())


def _rng(seed: int, workload: str, stream: int) -> np.random.Generator:
    tag = {"query": 1, "oracle": 2, "diagnose": 3}[workload]
    return np.random.default_rng([seed, tag, stream])


def _write_and_parse(specs: list[dict], out_dir: Path) -> list:
    out_dir.mkdir(parents=True, exist_ok=True)
    models = []
    for k, spec in enumerate(specs):
        path = out_dir / f"model_{k:02d}.json"
        path.write_text(json.dumps(spec, sort_keys=True) + "\n", encoding="utf-8")
        models.append((spec, path, escm.parse_model(path.read_text(encoding="utf-8"))))
    return models


@dataclass
class Agreement:
    """Compares answers with their reference.

    A vector agrees when every coordinate is within REL_TOL * scale plus
    the slack escm's stopping rule allows there (``ref.stopping_slack``);
    comparisons that miss REL_TOL * scale alone are counted, not failed.
    """

    compared: int = 0
    beyond_rel_tol: int = 0

    def __call__(self, what: str, actual, expected, slack=0.0) -> str | None:
        actual = np.asarray(actual, dtype=float)
        expected = np.asarray(expected, dtype=float)
        if actual.shape != expected.shape:
            return f"{what}: shape {actual.shape}, expected {expected.shape}"
        scale = max(1.0, float(np.max(np.abs(expected))))
        err = np.abs(actual - expected)
        self.compared += 1
        if not np.all(err <= REL_TOL * scale):
            self.beyond_rel_tol += 1
        if not np.all(err <= REL_TOL * scale + slack):
            return f"{what}: off by {float(np.max(err)):.3e} at scale {scale:.3e}"
        return None


def _first(*messages):
    return next((m for m in messages if m is not None), None)


# ---------------------------------------------------------------------------
# query: observational solves, counterfactuals and envelopes on 40 nodes


def query_setup(seed: int, out_dir: Path) -> Workload:
    rng = _rng(seed, "query", 0)
    specs = [random_quadratic_model(rng, QUERY_NODES, density=DENSITY)
             for _ in range(QUERY_MODELS)]
    return Workload("query", seed, out_dir, _write_and_parse(specs, out_dir))


@dataclass
class _Query:
    """One model's queries and what their answers are checked against."""

    qm: ref.QuadModel
    model: object
    agree: Agreement
    sink: int
    target: int
    evidence: dict[str, float]
    pre_z: np.ndarray        # closed-form abduction
    pre_u: np.ndarray
    pre_slack: np.ndarray    # over (z, u)
    hard_slack: np.ndarray   # over z, after hard surgery on the target
    soft_slack: np.ndarray   # over z, after soft surgery on the target

    @property
    def readout(self) -> str:
        return f"z.{self.qm.names[self.sink]}"

    def check_pre(self, point) -> str | None:
        n = self.qm.n
        return _first(self.agree("pre z", point.z, self.pre_z, self.pre_slack[:n]),
                      self.agree("pre u", point.u, self.pre_u, self.pre_slack[n:]))

    def check_post(self, what, pre, post, phi, **surgery) -> str | None:
        """Post-surgery z against a forward pass from escm's own abducted
        point, so an abduction error is not charged to the prediction."""
        expected = ref.predict(self.qm, pre.z, pre.u, self.target, **surgery)
        slack = self.hard_slack if "value" in surgery else self.soft_slack
        return _first(self.agree(f"{what} z", post.z, expected, slack),
                      self.agree(f"{what} u", post.u, pre.u),
                      self.agree(f"{what} readout", phi, expected[self.sink],
                                 slack[self.sink]))


def query_prepare(w: Workload) -> None:
    rng = _rng(w.seed, "query", 1)
    for spec, _, model in w.models:
        qm = ref.parse(spec)
        n = qm.n
        sink = qm.order[-1]
        ancestors = [j for j in range(n) if sink in qm.descendants(j)]
        t = int(rng.choice(ancestors or [j for j in range(n) if j != sink]))
        u_obs = rng.standard_normal(n)
        z_true = ref.observational(qm, rng.standard_normal(n))
        seen = sorted(int(k) for k in rng.choice(n, n // 2, replace=False))
        evd = {k: float(z_true[k]) for k in seen}
        value = float(rng.uniform(-2.0, 2.0))
        lam = float(rng.uniform(0.2, 0.8))
        delta = float(rng.uniform(-2.0, 2.0))
        values = sorted(float(v) for v in rng.uniform(-2.0, 2.0, size=3))

        pre_z, pre_u = ref.abduct(qm, evd)
        q = _Query(
            qm, model, w.agreement, sink, t,
            {f"z.{qm.names[k]}": v for k, v in evd.items()}, pre_z, pre_u,
            ref.stopping_slack(qm, [k for k in range(2 * n) if k not in evd]),
            ref.stopping_slack(qm, sorted(ref.predict_free(qm, t, False)))[:n],
            ref.stopping_slack(qm, sorted(ref.predict_free(qm, t, True)))[:n])
        target = qm.names[t]
        local = next(term for term in spec["terms"] if term["owner"] == f"local:{target}")
        shifted = ref.mean_shifted(local["expr"], delta)
        w.ops += [
            _obs_op(q, u_obs),
            _cf_op("hard", q, partial(escm.hard, model, target, value), value=value),
            _cf_op("soft", q, partial(escm.soft, model, target, lam, shifted),
                   lam=lam, delta=delta),
            _envelope_op(q, values),
        ]


def _obs_op(q: _Query, u: np.ndarray) -> Op:
    n = q.qm.n
    clamps = {f"u.U{k + 1}": float(u[k]) for k in range(n)}
    expected = ref.observational(q.qm, u)
    slack = ref.stopping_slack(q.qm, list(range(n)))[:n]

    def run():
        eq = escm.solve(q.model, clamps=clamps)
        return eq, evaluate_readout(q.model, q.readout, eq.point)

    def check(result):
        eq, phi = result
        return _first(q.agree("z", eq.point.z, expected, slack),
                      q.agree("readout", phi, expected[q.sink], slack[q.sink]))

    return Op("solve", run, check)


def _cf_op(kind: str, q: _Query, make_surgery, **surgery) -> Op:
    def run():
        return escm.counterfactual(q.model, q.evidence, [make_surgery()],
                                   readouts={"phi": q.readout})

    def check(result):
        return _first(q.check_pre(result.pre),
                      q.check_post("post", result.pre, result.post,
                                   result.readouts["phi"], **surgery))

    return Op(kind, run, check)


def _envelope_op(q: _Query, values: list[float]) -> Op:
    target = q.qm.names[q.target]

    def run():
        return escm.disjunctive_envelope(q.model, q.evidence, target, values,
                                         {"phi": q.readout})

    def check(result):
        pre = result.explanation.point
        if sorted(result.branches) != [(v,) for v in values]:
            return "envelope branches differ from the value set"
        errors = [q.check_pre(pre)]
        for v in values:
            branch = result.branches[(v,)]
            errors.append(q.check_post(f"branch {v}", pre, branch.post,
                                       branch.readouts["phi"], value=v))
        _, bounds = ref.envelope(q.qm, pre.z, pre.u, q.target, values, q.sink)
        errors.append(q.agree("envelope", result.envelopes["phi"], bounds,
                              q.hard_slack[q.sink]))
        return _first(*errors)

    return Op("envelope", run, check)


# ---------------------------------------------------------------------------
# oracle: induced-SCM pushforward and equivalence checks on 10 nodes


def oracle_setup(seed: int, out_dir: Path) -> Workload:
    rng = _rng(seed, "oracle", 0)
    specs = [random_quadratic_model(rng, ORACLE_NODES, density=DENSITY)
             for _ in range(ORACLE_MODELS)]
    w = Workload("oracle", seed, out_dir, _write_and_parse(specs, out_dir))
    for _, _, model in w.models:
        escm.induce_scm(model)  # rejects a model outside the separable class
    return w


@dataclass
class _Moments:
    """Pooled standardized deviations of the readout's sample moments.

    Each operation's sample mean and (ddof=0) sample variance of k
    Gaussian draws is standardized by its own closed-form expectation and
    standard error, so every operation weighs the same; under the right
    law the sum over n operations divided by sqrt(n) is close to N(0, 1).
    """

    mean_z: float = 0.0
    var_z: float = 0.0
    n: int = 0

    def add(self, sample_mean, sample_var, mu, var, k):
        self.mean_z += (sample_mean - mu) / np.sqrt(var / k)
        self.var_z += (sample_var - var * (k - 1) / k) / np.sqrt(2.0 * var ** 2 * (k - 1) / k ** 2)
        self.n += 1

    def check(self) -> str | None:
        if not self.n:
            return None
        z_mean = self.mean_z / np.sqrt(self.n)
        z_var = self.var_z / np.sqrt(self.n)
        if abs(z_mean) > MOMENT_SE or abs(z_var) > MOMENT_SE:
            return (f"pooled readout moments off by {z_mean:.2f} (mean) and "
                    f"{z_var:.2f} (variance) standard errors")
        return None


def oracle_prepare(w: Workload) -> None:
    rng = _rng(w.seed, "oracle", 1)
    moments = _Moments()
    counter = iter(range(w.seed * 10 ** 6, (w.seed + 1) * 10 ** 6))
    for spec, _, model in w.models:
        qm = ref.parse(spec)
        n = qm.n
        mu = rng.uniform(-1.0, 1.0, size=n)
        sigma = rng.uniform(0.5, 1.5, size=n)
        sampler = {f"U{k + 1}": {"dist": "gauss", "mu": float(mu[k]), "sigma": float(sigma[k])}
                   for k in range(n)}
        weights = rng.uniform(-1.0, 1.0, size=n)
        readout = " + ".join(f"({float(a)!r})*z.{name}" for a, name in zip(weights, qm.names))
        mean, var = ref.linear_readout_moments(qm, weights, mu, sigma)
        w.ops.append(_pushforward_op(model, sampler, readout, counter, moments, mean, var))
        w.ops.append(_equivalence_op(model, counter))
    w.finish = moments.check


def _pushforward_op(model, sampler, readout, counter, moments, mean, var) -> Op:
    def run():
        return escm.pushforward_check(model, sampler, trials=ORACLE_DRAWS,
                                      statistics={"lin": readout}, seed=next(counter))

    def check(report):
        if not report.passed or report.trials != ORACLE_DRAWS:
            return f"pushforward report failed (deviation {report.paired_max_deviation:.3e})"
        stats = report.statistics["lin"]
        moments.add(stats["mean_energy"], stats["var_energy"], mean, var, ORACLE_DRAWS)
        return None

    return Op("pushforward", run, check)


def _equivalence_op(model, counter) -> Op:
    kinds = [("observational", "hard", "soft")[t % 3] for t in range(ORACLE_TRIALS)]

    def run():
        return escm.equivalence_check(model, trials=ORACLE_TRIALS, seed=next(counter))

    def check(report):
        if not report.passed or not report.max_deviation <= report.tol:
            return f"equivalence report failed (deviation {report.max_deviation:.3e})"
        if [t["kind"] for t in report.trials] != kinds:
            return "equivalence trials do not cycle observational, hard and soft edits"
        return None

    return Op("equivalence", run, check)


# ---------------------------------------------------------------------------
# diagnose: the full CLI report on a mix of 10- to 30-node models


def diagnose_setup(seed: int, out_dir: Path) -> Workload:
    rng = _rng(seed, "diagnose", 0)
    specs = []
    for nodes, dynamics, kind in DIAGNOSE_MIX:
        spec = random_quadratic_model(rng, nodes, density=DENSITY, dynamics=dynamics)
        if kind is not None:
            coeff = float(rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0]))
            if kind.startswith("lap"):
                pairs = ref.nondesc_pairs(ref.parse(spec))
                where = pairs[int(rng.integers(len(pairs)))]
            else:
                where = tuple(spec["edges"][int(rng.integers(len(spec["edges"])))])
            spec = ref.plant(spec, kind, where, coeff)
        specs.append(spec)
    return Workload("diagnose", seed, out_dir, _write_and_parse(specs, out_dir))


def diagnose_prepare(w: Workload) -> None:
    for spec, path, _ in w.models:
        w.ops.append(_diagnose_op(path, ref.expected_diagnose(ref.parse(spec))))


def _diagnose_op(path: Path, expected: dict) -> Op:
    first: list[str] = []  # the first report, checked in full

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(["diagnose", str(path), "--no-timing"])
        if code != 0:
            raise RuntimeError(f"{path.name}: exit code {code}: {out.getvalue()[:300]}")
        return out.getvalue()

    def check(text):
        if first:
            return None if text == first[0] else f"{path.name}: reports differ between runs"
        first.append(text)
        return _check_report(path.name, json.loads(text), expected)

    return Op("diagnose", run, check)


def _check_report(name: str, report: dict, expected: dict) -> str | None:
    """Every entry of the report equals its exact expected value."""
    results = report["results"]
    tol = results["tol"]
    sections = [("lap", "pair", ("max_abs_z", "max_abs_theta")),
                ("icm", "node", ("max_abs_first", "max_abs_mixed")),
                ("dyn_lap", "pair", ("max_abs_z", "max_abs_theta")),
                ("dyn_icm", "node", ("max_abs_first", "max_abs_mixed"))]
    for section, key, fields in sections:
        if section not in expected:
            if section in results:
                return f"{name}: unexpected {section} section"
            continue
        got = {tuple(e[key]) if key == "pair" else e[key]: e for e in results[section]}
        if set(got) != set(expected[section]):
            return f"{name}: {section} covers the wrong pairs or nodes"
        for where, values in expected[section].items():
            entry = got[where]
            if [entry[f] for f in fields] != values or entry["passed"] != (max(values) <= tol):
                return (f"{name}: {section} {where} reads "
                        f"{[entry[f] for f in fields]}, expected {values}")
    for penalty in ("lap_penalty", "icm_penalty"):
        if results[penalty] != expected[penalty]:
            return f"{name}: {penalty} {results[penalty]!r}, expected {expected[penalty]!r}"
    return None


WORKLOADS = {
    "query": (query_setup, query_prepare),
    "oracle": (oracle_setup, oracle_prepare),
    "diagnose": (diagnose_setup, diagnose_prepare),
}
