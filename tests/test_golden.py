"""Golden CLI reports: every case reruns one command and must reproduce
its committed ``--no-timing`` report byte for byte.

The models live in ``tests/golden/models`` and the reports in
``tests/golden/reports``.  A change that is meant to move report digits
regenerates the reports with ``PYTHONPATH=src python tests/test_golden.py``
and says which reports changed and by how much.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from escm.cli import run

GOLDEN = Path(__file__).parent / "golden"

_CF_CHAIN2 = '{"evidence":{"z.Z1":1,"z.Z2":2.5},"readouts":{"phi":"z.Z2","psi":"z.Z1*z.Z2"},'
_CF_RQ10 = ('{"evidence":{"z.Z1":0.4,"z.Z3":-1.1,"z.Z6":0.7,"z.Z9":2.0},'
            '"readouts":{"phi":"z.Z7","psi":"z.Z6 + 2*z.Z7 - u.U4"},')
_Z4_SHIFTED = "0.5*1.8147263462160557*sq(z.Z4 - theta.Z4.c_Z1*z.Z1 - u.U4 - 0.7)"
_U_RQ10 = "{" + ",".join(f'"u.U{k + 1}":{0.1 * k!r}' for k in range(10)) + "}"
_UNIFORM_2 = '{"U1":{"dist":"uniform","lo":-1,"hi":1},"U2":{"dist":"gauss","mu":0.5,"sigma":2}}'
_GAUSS_10 = "{" + ",".join(f'"U{k + 1}":{{"dist":"normal","mu":{0.1 * k!r},"sigma":1}}'
                           for k in range(10)) + "}"

CASES = {
    "solve_chain2": ("solve", "chain2", "--context", '{"u.U1":1,"u.U2":0.5}'),
    "solve_chain2_free": ("solve", "chain2", "--context", '{"z.Z1":1,"u.U1":1,"u.U2":0.5}',
                          "--free", "z.Z2"),
    "solve_rq10": ("solve", "rq10", "--context", _U_RQ10),
    "solve_rq10_forward_init": ("solve", "rq10", "--context", _U_RQ10, "--init", "forward-scm"),
    "solve_error_rq10": ("solve", "rq10", "--context", _U_RQ10, "--max-iter", "1",
                         "--tol", "1e-30"),
    "abduct_chain2": ("abduct", "chain2", "--evidence", '{"z.Z1":1,"z.Z2":2.5}'),
    "abduct_rq10": ("abduct", "rq10", "--evidence", '{"z.Z1":0.4,"z.Z3":-1.1,"u.U2":0.3}'),
    "counterfactual_hard_chain2": (
        "counterfactual", "chain2", "--query",
        _CF_CHAIN2 + '"surgeries":[{"kind":"hard","target":"Z1","value":0}]}'),
    "counterfactual_hold_chain2": (
        "counterfactual", "chain2", "--query",
        _CF_CHAIN2 + '"surgeries":[{"kind":"hard","target":"Z1","value":0}],'
        '"hold":{"free":["z.Z2","u.U2"]}}'),
    "counterfactual_soft_chain2": (
        "counterfactual", "chain2", "--query",
        _CF_CHAIN2 + '"surgeries":[{"kind":"soft","target":"Z1","lambda":0.5,'
        '"expr":"0.5*sq(z.Z1 - 3)"}]}'),
    "counterfactual_hard_rq10": (
        "counterfactual", "rq10", "--query",
        _CF_RQ10 + '"surgeries":[{"kind":"hard","target":"Z4","value":1.5}]}'),
    "counterfactual_soft_rq10": (
        "counterfactual", "rq10", "--query",
        _CF_RQ10 + '"surgeries":[{"kind":"soft","target":"Z4","lambda":0.4,'
        f'"expr":"{_Z4_SHIFTED}"}}]}}'),
    "disjunct_envelope_chain2": (
        "disjunct", "chain2", "--query",
        '{"evidence":{"z.Z1":1,"z.Z2":2.5},"target":"Z1","values":[0,1,-0.5],'
        '"readouts":{"phi":"z.Z2"},"mode":"envelope"}'),
    "disjunct_select_chain2": (
        "disjunct", "chain2", "--query",
        '{"evidence":{"z.Z1":1,"z.Z2":2.5},"target":"Z1","values":[0,1,-0.5],'
        '"readouts":{"phi":"z.Z2"},"mode":"select","rho":0.3,"control":"sq(s - 0.8)"}'),
    "disjunct_select_tau_chain2": (
        "disjunct", "chain2", "--query",
        '{"evidence":{"z.Z1":1,"z.Z2":2.5},"target":"Z1","values":[0,1,-0.5],'
        '"readouts":{"phi":"z.Z2"},"mode":"select","rho":0.3,"control":"sq(s - 0.8)",'
        '"tau":0.5}'),
    "disjunct_envelope_rq10": (
        "disjunct", "rq10", "--query",
        _CF_RQ10 + '"target":"Z4","values":[-1,0.25,1.5],"mode":"envelope"}'),
    "diagnose_chain2": ("diagnose", "chain2", "--point", '{"z.Z1":0.3,"u.U2":-0.2}'),
    "diagnose_chain2_dyn": ("diagnose", "chain2_dyn", "--point", '{"z.Z2":1.5}'),
    "diagnose_rq10": ("diagnose", "rq10"),
    # planted violations: every maximum and penalty below is nonzero somewhere
    "diagnose_plant4": (
        "diagnose", "plant4", "--mask-policy", "warn", "--point",
        '{"z.Z1":0.3,"z.Z2[0]":-0.7,"z.Z2[1]":0.45,"z.Z4":1.1,"u.U1":-0.2,"u.U4":0.6}'),
    "diagnose_plant4_dyn": (
        "diagnose", "plant4_dyn", "--mask-policy", "warn", "--point",
        '{"z.Z1":0.4,"z.Z2":-0.3,"z.Z4":0.9,"u.U4":-0.5}'),
    "probes_gauge_chain2": (
        "probes", "chain2", "--points", '[{"z.Z1":0.5,"z.Z2":-1.0},{"z.Z1":1.0,"u.U1":0.2}]',
        "--base", '{"z.Z2":0.25}',
        "--gauge", '{"scale":{"Z2":2.0},"offset":{"Z1":5.0},"j":[[1,0.5],[0,2]]}'),
    "reduce_check_chain2": ("reduce-check", "chain2", "--trials", "9", "--seed", "7"),
    "reduce_check_rq10": ("reduce-check", "rq10", "--trials", "6", "--seed", "3"),
    "reduce_check_rq10_30": ("reduce-check", "rq10", "--trials", "30", "--seed", "11"),
    "pushforward_soft_chain2": (
        "pushforward", "chain2", "--sampler", _UNIFORM_2, "--trials", "40", "--seed", "3",
        "--surgeries", '[{"kind":"soft","target":"Z2","lambda":0.3,'
        '"expr":"0.5*sq(z.Z2 - theta.Z2.a*z.Z1 - u.U2 - 1.5)"}]',
        "--stats", '{"z2":"z.Z2","mix":"z.Z1*z.Z2 + u.U1"}'),
    "pushforward_soft_rq10": (
        "pushforward", "rq10", "--sampler", _GAUSS_10, "--trials", "20", "--seed", "5",
        "--surgeries", f'[{{"kind":"soft","target":"Z4","lambda":0.6,"expr":"{_Z4_SHIFTED}"}}]',
        "--stats", '{"z7":"z.Z7","sum":"z.Z4 + z.Z6 + z.Z7"}'),
    "pushforward_hard_rq10": (
        "pushforward", "rq10", "--sampler", _GAUSS_10, "--trials", "500", "--seed", "9",
        "--surgeries", '[{"kind":"hard","target":"Z4","value":1.5}]',
        "--stats", '{"z7":"z.Z7","sum":"z.Z4 + z.Z6 + z.Z7"}'),
    "simulate_chain2_dyn": (
        "simulate", "chain2_dyn", "--context", '{"u.U1":1,"u.U2":0.5}', "--z0", '{"z.Z2":0.1}',
        "--surgeries", '[{"kind":"soft","target":"Z2","lambda":0.5,"expr":"-(z.Z2 - 1)"},'
        '{"kind":"hard","target":"Z1","value":0.5,"gain":4}]',
        "--t-end", "2", "--dt", "0.05", "--stride", "5"),
}


def report_of(name: str) -> str:
    command, model, *options = CASES[name]
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        run([command, str(GOLDEN / "models" / f"{model}.json"), *options, "--no-timing"])
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = (GOLDEN / "reports" / f"{name}.json").read_text(encoding="utf-8")
    assert report_of(name) == expected


def test_golden_probes_read_every_head_from_one_pass_per_point(monkeypatch):
    """chain2 has four terms; the golden probes command reads two points
    and a base point once for the model and once for its gauged view, so
    it differentiates each term 6 times with --gauge and 3 times without,
    at order 2 only when H_Hess is asked for."""
    from escm.engine import Objective

    orders = []
    term_jet = Objective.term_jet

    def counted(self, term, point, active, order):
        orders.append(order)
        return term_jet(self, term, point, active, order)

    monkeypatch.setattr(Objective, "term_jet", counted)
    command, model, *options = CASES["probes_gauge_chain2"]
    assert options[-2] == "--gauge"
    for argv, bound, order in ((options, 24, 2), (options[:-2], 12, 2),
                               (options[:-2] + ["--heads", "H_E,H_gradE"], 8, 1)):
        orders.clear()
        with redirect_stdout(io.StringIO()):
            assert run([command, str(GOLDEN / "models" / f"{model}.json"), *argv,
                        "--no-timing"]) == 0
        assert len(orders) <= bound, (argv, len(orders))
        assert orders == [order] * bound  # four terms per pass, not fewer


if __name__ == "__main__":
    out = GOLDEN / "reports"
    out.mkdir(parents=True, exist_ok=True)
    for name in sorted(CASES):
        (out / f"{name}.json").write_text(report_of(name), encoding="utf-8")
    sys.stdout.write(f"wrote {len(CASES)} reports to {out}\n")
