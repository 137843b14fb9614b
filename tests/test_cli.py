"""CLI contract: reports, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from escm import parse_model
from escm.cli import run
from escm.report import canonical_json
from tests.conftest import CHAIN2_DYNAMICS, chain2_dict


@pytest.fixture
def chain2_path(tmp_path) -> str:
    path = tmp_path / "chain2.json"
    path.write_text(json.dumps(chain2_dict()), encoding="utf-8")
    return str(path)


@pytest.fixture
def chain2_dyn_path(tmp_path) -> str:
    spec = chain2_dict()
    spec["dynamics"] = CHAIN2_DYNAMICS
    path = tmp_path / "chain2_dyn.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def invoke(capsys, *argv) -> tuple[int, dict]:
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else {})


def test_solve_command(capsys, chain2_path):
    code, report = invoke(capsys, "solve", chain2_path,
                          "--context", '{"u.U1":1,"u.U2":0.5}', "--no-timing")
    assert code == 0
    assert report["results"]["z"]["Z1"] == pytest.approx(1.0, abs=1e-10)
    assert report["results"]["z"]["Z2"] == pytest.approx(2.5, abs=1e-10)
    assert "timing" not in report


def test_validate_cycle_exit_code(capsys, tmp_path):
    spec = chain2_dict()
    spec["edges"].append(["Z2", "Z1"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec), encoding="utf-8")
    code, report = invoke(capsys, "validate", str(bad), "--no-timing")
    assert code == 1
    assert "cycle" in report["error"]["message"]


def assert_usage_error(capsys, argv, message):
    """Exit 3, argparse's usage text on stderr and, on stdout, one JSON
    error object whose message is argparse's, which starts with
    ``message``."""
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out.count("\n") == 1
    report = json.loads(captured.out)
    assert report == {"error": {"type": "QueryError", "message": report["error"]["message"]}}
    assert report["error"]["message"].startswith(message)
    assert captured.err.startswith("usage: escm")
    assert captured.err.endswith(f"error: {report['error']['message']}\n")


def test_unknown_subcommand_is_usage_error(capsys):
    assert_usage_error(capsys, ["frobnicate"], "argument command: invalid choice")


def test_unknown_flag_is_usage_error(capsys, chain2_path):
    assert_usage_error(capsys, ["solve", chain2_path, "--does-not-exist"],
                       "unrecognized arguments: --does-not-exist")


def test_missing_seed_is_usage_error(capsys, chain2_path):
    assert_usage_error(capsys, ["reduce-check", chain2_path, "--trials", "3"],
                       "the following arguments are required: --seed")


def test_value_read_as_an_option_is_usage_error(capsys, chain2_path):
    # argparse reads a value that begins with "-" as an option
    assert_usage_error(capsys, ["solve", chain2_path, "--tol", "-1e+308"],
                       "argument --tol: expected one argument")


def test_query_error_exit_code(capsys, chain2_path):
    code, report = invoke(capsys, "solve", chain2_path,
                          "--context", '{"z.Nope": 1}', "--no-timing")
    assert code == 3


def test_solver_failure_exit_code(capsys, tmp_path):
    spec = {
        "variables": [{"name": "Z1", "kind": "endogenous"}],
        "edges": [],
        "terms": [{"owner": "local:Z1", "expr": "-sq(z.Z1) + z.Z1"}],
    }
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, report = invoke(capsys, "solve", str(path), "--no-timing")
    assert code == 2


def test_abduct_and_counterfactual(capsys, chain2_path, tmp_path):
    code, report = invoke(capsys, "abduct", chain2_path,
                          "--evidence", '{"z.Z1":1,"z.Z2":2.5}', "--no-timing")
    assert code == 0
    assert report["results"]["u"]["U1"] == pytest.approx(0.5, abs=1e-10)

    query = {
        "evidence": {"z.Z1": 1, "z.Z2": 2.5},
        "surgeries": [{"kind": "hard", "target": "Z1", "value": 0}],
        "readouts": {"phi": "z.Z2"},
    }
    qpath = tmp_path / "query.json"
    qpath.write_text(json.dumps(query), encoding="utf-8")
    code, report = invoke(capsys, "counterfactual", chain2_path,
                          "--query", f"@{qpath}", "--no-timing")
    assert code == 0
    assert report["results"]["readouts"]["phi"] == pytest.approx(0.25, abs=1e-10)


def test_disjunct_command(capsys, chain2_path):
    query = canonical_json({
        "evidence": {"z.Z1": 1, "z.Z2": 2.5},
        "target": "Z1",
        "values": [0, 1],
        "readouts": {"phi": "z.Z2"},
        "mode": "envelope",
    })
    code, report = invoke(capsys, "disjunct", chain2_path, "--query", query,
                          "--no-timing")
    assert code == 0
    assert report["results"]["envelopes"]["phi"] == [0.25, 2.25]

    query = canonical_json({
        "evidence": {"z.Z1": 1, "z.Z2": 2.5},
        "target": "Z1",
        "values": [0, 1],
        "mode": "select",
    })
    code, report = invoke(capsys, "disjunct", chain2_path, "--query", query,
                          "--no-timing")
    assert code == 0
    assert report["results"]["selected"] == [0.0]


def test_diagnose_command(capsys, chain2_path):
    code, report = invoke(capsys, "diagnose", chain2_path, "--no-timing")
    assert code == 0
    assert report["results"]["lap_penalty"] == 0.0
    assert all(entry["passed"] for entry in report["results"]["lap"])


def test_probes_command_with_gauge(capsys, chain2_path):
    points = canonical_json([{"z.Z1": 0.5, "z.Z2": -1.0}, {"z.Z1": 1.0}])
    gauge = canonical_json({"offset": {"Z1": 5.0}})
    code, report = invoke(capsys, "probes", chain2_path, "--points", points,
                          "--gauge", gauge, "--no-timing")
    assert code == 0
    preserved = report["results"]["preserved"]
    assert preserved["H_E"] is False
    assert preserved["H_Hess"] is True


def test_reduce_check_and_pushforward(capsys, chain2_path):
    code, report = invoke(capsys, "reduce-check", chain2_path,
                          "--trials", "9", "--seed", "7", "--no-timing")
    assert code == 0
    assert report["results"]["passed"] is True

    sampler = canonical_json({"U1": {"dist": "uniform", "lo": -1, "hi": 1},
                              "U2": {"dist": "uniform", "lo": -1, "hi": 1}})
    code, report = invoke(capsys, "pushforward", chain2_path,
                          "--sampler", sampler, "--trials", "50",
                          "--seed", "3", "--stats", '{"z2":"z.Z2"}',
                          "--no-timing")
    assert code == 0
    assert report["results"]["passed"] is True


def test_reduce_check_class_violation(capsys, tmp_path):
    spec = chain2_dict()
    spec["terms"].append({"owner": "global", "expr": "0.1*z.Z1*z.Z2"})
    path = tmp_path / "coupled.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, report = invoke(capsys, "reduce-check", str(path),
                          "--trials", "3", "--seed", "0", "--no-timing")
    assert code == 3
    assert "global" in report["error"]["message"]


def test_simulate_command(capsys, chain2_dyn_path):
    code, report = invoke(capsys, "simulate", chain2_dyn_path,
                          "--context", '{"u.U1":1,"u.U2":0.5}',
                          "--t-end", "20", "--dt", "0.01", "--stride", "200",
                          "--no-timing")
    assert code == 0
    assert report["results"]["states"]["Z2"][-1] == pytest.approx(2.5, abs=1e-5)


def test_report_determinism(capsys, chain2_path):
    argv = ["solve", chain2_path, "--context", '{"u.U1":1,"u.U2":0.5}',
            "--no-timing"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second
    # keys are emitted in sorted order at every level
    parsed = json.loads(first)
    assert list(parsed) == sorted(parsed)
    assert list(parsed["results"]) == sorted(parsed["results"])


def test_gen_corpus_determinism(capsys, tmp_path):
    out1 = tmp_path / "corpus_a"
    out2 = tmp_path / "corpus_b"
    assert run(["gen-corpus", "--out", str(out1), "--count", "3",
                "--nodes", "4", "--density", "0.5", "--seed", "5",
                "--no-timing"]) == 0
    capsys.readouterr()
    assert run(["gen-corpus", "--out", str(out2), "--count", "3",
                "--nodes", "4", "--density", "0.5", "--seed", "5",
                "--no-timing"]) == 0
    capsys.readouterr()
    files1 = sorted(p.name for p in Path(out1).iterdir())
    files2 = sorted(p.name for p in Path(out2).iterdir())
    assert files1 == files2 and len(files1) == 4  # 3 models + fixtures
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gen_corpus_density_extremes(capsys, tmp_path):
    assert run(["gen-corpus", "--out", str(tmp_path / "d0"), "--count", "2",
                "--nodes", "4", "--density", "0", "--seed", "1",
                "--no-timing"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "d0" / "fixtures.json").read_text())
    for entry in manifest["models"]:
        model = json.loads((tmp_path / "d0" / entry["file"]).read_text())
        assert model["edges"] == []

    assert run(["gen-corpus", "--out", str(tmp_path / "d1"), "--count", "2",
                "--nodes", "4", "--density", "1", "--seed", "1",
                "--no-timing"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "d1" / "fixtures.json").read_text())
    for entry in manifest["models"]:
        model = json.loads((tmp_path / "d1" / entry["file"]).read_text())
        assert len(model["edges"]) == 6  # full lower-triangular DAG on 4 nodes


def test_gen_corpus_negative_seed_is_a_query_error(capsys, tmp_path):
    code, report = invoke(capsys, "gen-corpus", "--out", str(tmp_path / "c"), "--seed", "-1",
                          "--no-timing")
    assert code == 3
    assert report["error"]["type"] == "QueryError"


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    captured = capsys.readouterr()  # the help text, and no JSON report
    assert captured.out.startswith("usage: escm") and captured.err == ""


def test_report_carries_diagnostics_field(capsys, chain2_path):
    code, report = invoke(capsys, "validate", chain2_path, "--no-timing")
    assert code == 0
    assert report["diagnostics"] == {"mask_warnings": []}


def test_exit_code_contract_on_malformed_corpus(capsys, tmp_path):
    """Property: corrupted model files exit 1, corrupted queries exit 3,
    and stdout is always a single JSON report."""
    rng_cases = []
    base = chain2_dict()
    # structurally corrupted models -> validation errors
    import copy

    broken = copy.deepcopy(base)
    broken["terms"][0]["expr"] = "0.5*sq(z.Z1 -"
    rng_cases.append(broken)
    broken = copy.deepcopy(base)
    broken["terms"][0]["owner"] = "local:Nope"
    rng_cases.append(broken)
    broken = copy.deepcopy(base)
    del broken["variables"]
    rng_cases.append(broken)
    broken = copy.deepcopy(base)
    broken["variables"][0]["dim"] = 0
    rng_cases.append(broken)
    broken = copy.deepcopy(base)
    broken["terms"][0]["expr"] = "0.5*sq(z.Z1 - u.U1) + abs(z.Z1)"
    rng_cases.append(broken)
    for k, spec in enumerate(rng_cases):
        path = tmp_path / f"broken_{k}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        code, report = invoke(capsys, "validate", str(path), "--no-timing")
        assert code == 1
        assert "error" in report

    not_json = tmp_path / "not_json.json"
    not_json.write_text("{", encoding="utf-8")
    code, report = invoke(capsys, "validate", str(not_json), "--no-timing")
    assert code == 1

    good = tmp_path / "good.json"
    good.write_text(json.dumps(base), encoding="utf-8")
    for argv in (
        ["solve", str(good), "--context", "{bad json", "--no-timing"],
        ["solve", str(good), "--context", '{"q.Z1": 1}', "--no-timing"],
        ["abduct", str(good), "--evidence", '{"theta.Z2.a": 1}', "--no-timing"],
        ["disjunct", str(good), "--query", '{"target":"Z1"}', "--no-timing"],
        ["counterfactual", str(good), "--surgeries",
         '[{"kind":"warp","target":"Z1"}]', "--no-timing"],
        ["simulate", str(good), "--no-timing"],  # no dynamics declared
        ["probes", str(good), "--points", "[]", "--no-timing"],
    ):
        code, report = invoke(capsys, *argv)
        assert code == 3, argv
        assert "error" in report


def test_memory_error_maps_to_solver_exit_code(capsys, chain2_path, monkeypatch):
    from escm import cli

    class _ArrayMemoryError(MemoryError):
        """Stand-in for numpy's private subclass."""

    def exhausted(model, args):
        raise _ArrayMemoryError("Unable to allocate 10.1 GiB")

    monkeypatch.setitem(cli._HANDLERS, "diagnose", exhausted)
    code, report = invoke(capsys, "diagnose", chain2_path, "--no-timing")
    assert code == cli.EXIT_SOLVER == 2
    assert report["error"] == {"type": "MemoryError",
                               "message": "Unable to allocate 10.1 GiB"}


def test_threads_option_is_gone(capsys, chain2_path):
    assert run(["solve", chain2_path, "--threads", "2"]) == 3


def test_diagnose_checks_each_pair_and_node_once(capsys, tmp_path, chain2_z3, monkeypatch):
    """One order-2 derivative call per module that is i in a pair, one
    field derivative pass per report with dynamics, one icm_check per node,
    and penalties equal to lap_penalty/icm_penalty."""
    from escm import Point, diagnostics, dynamics
    from escm.engine import Objective

    spec = chain2_z3.to_dict()
    spec["dynamics"] = CHAIN2_DYNAMICS + [{"var": "Z3", "expr": "-z.Z3"}]
    models = {"static": chain2_z3, "dynamic": parse_model(spec)}
    pairs = diagnostics.nondesc_pairs(chain2_z3)
    assert len(pairs) > len({i for _, i in pairs})  # some module is i twice

    derivatives, field_rows = Objective.derivatives, dynamics._field_rows
    icm_check = diagnostics.icm_check
    for name, model in models.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(model.to_dict()), encoding="utf-8")
        calls = {"order2": 0, "field": 0, "icm": 0}

        def counted_derivatives(self, point, order=2, *args, **kwargs):
            calls["order2"] += order == 2
            return derivatives(self, point, order, *args, **kwargs)

        def counted_field(*args, **kwargs):
            calls["field"] += 1
            return field_rows(*args, **kwargs)

        def counted_icm(*args, **kwargs):
            calls["icm"] += 1
            return icm_check(*args, **kwargs)

        monkeypatch.setattr(Objective, "derivatives", counted_derivatives)
        monkeypatch.setattr(dynamics, "_field_rows", counted_field)
        monkeypatch.setattr(diagnostics, "icm_check", counted_icm)
        code, report = invoke(capsys, "diagnose", str(path), "--no-timing")
        monkeypatch.undo()
        assert code == 0
        assert calls == {"order2": len({i for _, i in pairs}),
                         "field": int(model.dynamics is not None),
                         "icm": len(model.dag.nodes)}
        point = Point.for_model(model)
        results = report["results"]
        assert results["lap_penalty"] == diagnostics.lap_penalty(model, [point])
        assert results["lap_penalty"] == pytest.approx(0.18, abs=1e-15)
        assert results["icm_penalty"] == diagnostics.icm_penalty(model, [point])
        assert [tuple(e["pair"]) for e in results["lap"]] == pairs
        assert ("dyn_lap" in results) == (model.dynamics is not None)


def test_solver_failure_reports_diagnostics(capsys, tmp_path):
    spec = chain2_dict()
    # quartic, so one Newton step from zero cannot land on the minimum
    spec["terms"][0]["expr"] = "0.5*sq(z.Z1 - u.U1) + 0.1*pow(z.Z1, 4)"
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, report = invoke(capsys, "solve", str(path), "--context", '{"u.U1":1,"u.U2":0.5}',
                          "--max-iter", "1", "--tol", "1e-30", "--no-timing")
    assert code == 2
    error = report["error"]
    assert error["type"] == "SolverError"
    diagnostics = error["diagnostics"]
    assert set(diagnostics) == {"residual", "iterations", "energy", "point"}
    assert diagnostics["iterations"] == 1
    assert diagnostics["residual"] > 1e-30
    assert set(diagnostics["point"]) == {"z", "u", "theta"}
    assert diagnostics["point"]["u"] == [1.0, 0.5]
    assert len(diagnostics["point"]["z"]) == 2


def test_parser_is_built_once_and_usage_errors_still_exit_3(capsys, chain2_path):
    from escm import cli

    assert cli._build_parser() is cli._build_parser()
    assert run(["solve", chain2_path, "--max-iter", "many"]) == 3
    assert run(["solve", chain2_path, "--no-timing"]) == 0


@pytest.mark.parametrize("path_fixture, argv", [
    ("chain2_path", ("diagnose", "--point", '{"z.Z1":"abc"}')),
    ("chain2_path", ("diagnose", "--point", "[1]")),
    ("chain2_path", ("solve", "--context", "[1,2]")),
    ("chain2_path", ("solve", "--context", '{"u.U1":"x"}')),
    ("chain2_dyn_path", ("simulate", "--context", '{"u.U1":"x"}')),
    ("chain2_path", ("abduct", "--evidence", '{"z.Z1":null}')),
    ("chain2_path", ("probes", "--points", "[{}]", "--gauge", "[]")),
    ("chain2_path", ("counterfactual", "--query", "[]")),
    ("chain2_path", ("counterfactual", "--query", '{"readouts":[1]}')),
    ("chain2_path", ("counterfactual", "--query", '{"readouts":{"phi":5}}')),
    ("chain2_path", ("counterfactual", "--query", '{"surgeries":5}')),
    ("chain2_path", ("counterfactual", "--query", '{"hold":{"hold":5}}')),
    ("chain2_path", ("counterfactual", "--query",
                     '{"surgeries":[{"kind":"soft","target":"Z1","lambda":"a","expr":"z.Z1"}]}')),
    ("chain2_path", ("disjunct", "--query", '{"target":"Z1","values":5}')),
    ("chain2_path", ("disjunct", "--query",
                     '{"target":"Z1","values":[0,1],"mode":"select","rho":"x"}')),
    ("chain2_path", ("pushforward", "--seed", "1", "--sampler", '{"U1":5,"U2":{}}')),
    ("chain2_path", ("pushforward", "--seed", "1", "--sampler",
                     '{"U1":{"dist":"uniform","hi":1},"U2":{"dist":"gauss"}}')),
    ("chain2_path", ("pushforward", "--seed", "1", "--stats", '{"a":5}', "--sampler",
                     '{"U1":{"dist":"gauss"},"U2":{"dist":"gauss"}}')),
    ("chain2_path", ("probes", "--points", "[{}]", "--gauge", '{"scale":[1]}')),
    ("chain2_path", ("probes", "--points", "[{}]", "--gauge", '{"j":"a"}')),
    ("chain2_dyn_path", ("simulate", "--surgeries", '[{"kind":"hard"}]')),
    # expression text in a query: a syntax error or an unknown symbol
    ("chain2_path", ("counterfactual", "--query",
                     '{"evidence":{"z.Z1":1},"readouts":{"phi":"z.Z1 +"}}')),
    ("chain2_path", ("counterfactual", "--query",
                     '{"evidence":{"z.Z1":1},"readouts":{"phi":"z.Nope"}}')),
    ("chain2_path", ("counterfactual", "--query",
                     '{"surgeries":[{"kind":"soft","target":"Z1","lambda":0.5,"expr":"sq(z.Z1"}]}')),
    ("chain2_path", ("counterfactual", "--query",
                     '{"surgeries":[{"kind":"soft","target":"Z1","lambda":0.5,"expr":"z.Nope"}]}')),
    ("chain2_path", ("disjunct", "--query",
                     '{"target":"Z1","values":[0,1],"mode":"select","rho":1,"control":"s +"}')),
    ("chain2_path", ("disjunct", "--query",
                     '{"target":"Z1","values":[0,1],"mode":"select","rho":1,"control":"z.Nope"}')),
    ("chain2_path", ("pushforward", "--seed", "1", "--stats", '{"a":"exp(z.Z1"}', "--sampler",
                     '{"U1":{"dist":"gauss"},"U2":{"dist":"gauss"}}')),
    ("chain2_dyn_path", ("simulate", "--surgeries",
                         '[{"kind":"soft","target":"Z2","lambda":0.5,"expr":"z.Nope"}]')),
    # numeric options outside what they can mean
    ("chain2_path", ("solve", "--max-iter", "0")),
    ("chain2_path", ("solve", "--tol", "-1")),
    ("chain2_path", ("abduct", "--evidence", '{"z.Z1":1}', "--tol", "inf")),
    ("chain2_path", ("diagnose", "--tol", "nan")),
    ("chain2_path", ("probes", "--points", "[{}]", "--gauge", "{}", "--gauge-tol", "nan")),
    ("chain2_path", ("pushforward", "--seed", "-1", "--sampler",
                     '{"U1":{"dist":"gauss"},"U2":{"dist":"gauss"}}')),
    ("chain2_path", ("pushforward", "--seed", "1", "--trials", "0", "--sampler",
                     '{"U1":{"dist":"gauss"},"U2":{"dist":"gauss"}}')),
    ("chain2_path", ("pushforward", "--seed", "1", "--tol", "nan", "--sampler",
                     '{"U1":{"dist":"gauss"},"U2":{"dist":"gauss"}}')),
    ("chain2_path", ("pushforward", "--seed", "1", "--sampler",
                     '{"U1":{"dist":"uniform","lo":-1e308,"hi":1e308},"U2":{"dist":"gauss"}}')),
    ("chain2_path", ("reduce-check", "--seed", "-5")),
    ("chain2_path", ("reduce-check", "--seed", "1", "--trials", "-1")),
    ("chain2_path", ("reduce-check", "--seed", "1", "--tol", "-1")),
    ("chain2_dyn_path", ("simulate", "--t-end", "inf")),
    ("chain2_dyn_path", ("simulate", "--dt", "nan")),
    ("chain2_dyn_path", ("simulate", "--t-end", "1e300", "--dt", "1")),
])
def test_malformed_json_arguments_are_query_errors(capsys, request, path_fixture, argv):
    command, *options = argv
    path = request.getfixturevalue(path_fixture)
    code, report = invoke(capsys, command, path, *options, "--no-timing")
    assert code == 3
    assert report["error"]["type"] == "QueryError"


_DEEP = "(" * 250 + "z.Z0" + ")" * 250


@pytest.mark.parametrize("expr, argv, exit_code", [
    ("sq(" + _DEEP + ")", ("validate",), 1),
    (" + ".join(["0.5*z.Z0*z.Z0"] * 1000), ("solve",), 1),
    ("0.5*sq(z.Z0)", ("counterfactual", "--readouts", json.dumps({"r": _DEEP})), 3),
])
def test_deeply_nested_expressions_exit_with_one_json_error(capsys, tmp_path, expr, argv,
                                                            exit_code):
    spec = {"variables": [{"name": "Z0", "kind": "endogenous", "dim": 1}], "edges": [],
            "terms": [{"owner": "local:Z0", "expr": expr}]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    command, *options = argv
    code = run([command, str(path), *options, "--no-timing"])
    captured = capsys.readouterr()
    assert code == exit_code
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert "nested deeper than" in json.loads(lines[0])["error"]["message"]
    assert "Traceback" not in captured.err
    assert len(captured.out.encode()) < 1000  # an excerpt, not the whole source
