import csv
import importlib
import io
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import remest
from remest import (DistortionFn, IntegerPmf, ModelSpecA, NumericsError, solver_a, solver_b,
                    validation)
from remest.cli import OutputRecord, build_parser, main
from remest.model import spec_digest
from remest.simulate import PolicySpec, SimConfig, simulate


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return [dict(zip(header, r)) for r in body]


class TestTable:
    def test_reference_row(self, capsys):
        code, out, _ = run_cli(["table", "--p", "0.3", "--betas", "0.95",
                                "--k-max", "6"], capsys)
        assert code == 0
        rows = parse_csv(out)
        row6 = next(r for r in rows if r["k"] == "6")
        assert float(row6["D"]) == pytest.approx(1.5811, abs=5e-4)
        assert float(row6["N"]) == pytest.approx(0.0098, abs=5e-4)
        assert float(row6["lambda"]) == pytest.approx(46.4727, abs=5e-4)

    def test_k0_dash(self, capsys):
        code, out, _ = run_cli(["table", "--p", "0.3", "--betas", "1.0",
                                "--k-max", "2"], capsys)
        assert code == 0
        row0 = parse_csv(out)[0]
        assert (row0["D"], row0["N"], row0["lambda"]) == ("0", "1", "—")

    def test_bad_p_exits_one(self, capsys):
        code, _, err = run_cli(["table", "--p", "0.5"], capsys)
        assert code == 1
        assert "usage error" in err

    def test_non_unimodal_p_exits_one(self, capsys):
        code, _, err = run_cli(["table", "--p", "0.4"], capsys)
        assert code == 1
        assert err.startswith("usage error:")

    def test_avg_k10_distortion_is_consistent(self, capsys):
        # the k=10 average-cost distortion must satisfy (k^2-1)/(3k)
        code, out, _ = run_cli(["table", "--p", "0.3", "--betas", "1.0",
                                "--k-max", "10"], capsys)
        rows = parse_csv(out)
        row10 = next(r for r in rows if r["k"] == "10")
        assert float(row10["D"]) == pytest.approx(99.0 / 30.0, abs=1e-9)


class TestCurve:
    def test_model_a_constrained_contains_table_point(self, capsys):
        code, out, _ = run_cli(["curve", "--model", "A", "--kind", "constrained",
                                "--p", "0.3", "--beta", "1.0", "--k-max", "5"], capsys)
        assert code == 0
        rows = parse_csv(out)
        match = [r for r in rows if abs(float(r["alpha"]) - 0.0667) < 5e-4]
        assert match and float(match[0]["D"]) == pytest.approx(0.8889, abs=5e-4)

    def test_model_a_costly_contains_corner(self, capsys):
        code, out, _ = run_cli(["curve", "--model", "A", "--kind", "costly",
                                "--p", "0.3", "--beta", "0.9", "--k-max", "5"], capsys)
        assert code == 0
        abscissas = [float(r["lambda"]) for r in parse_csv(out)]
        assert any(abs(x - 9.2839) < 5e-4 for x in abscissas)

    def test_model_b_constrained_decreasing(self, capsys):
        code, out, _ = run_cli(["curve", "--model", "B", "--kind", "constrained",
                                "--sigma", "1", "--alphas", "0.2,0.4,0.6",
                                "--epsilon", "1e-5"], capsys)
        assert code == 0
        ds = [float(r["D"]) for r in parse_csv(out)]
        assert ds == sorted(ds, reverse=True)

    def test_model_b_costly_rows_match_algorithm1(self, capsys):
        code, out, _ = run_cli(["curve", "--model", "B", "--kind", "costly",
                                "--lambdas", "0.5,2", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 2
        for row, lam in zip(rows, (0.5, 2.0)):
            k, cost = solver_b.algorithm1_costly(solver_b.gauss_markov_spec(1.0), lam, 1e-6)
            assert row == {"lambda": lam, "C": cost, "k": k}

    def test_model_b_constrained_solve_count(self, capsys, solve_log):
        # the two searches make 8 solves; bisecting them takes 35
        code, _, _ = run_cli(["curve", "--model", "B", "--kind", "constrained",
                              "--alphas", "0.25,0.45"], capsys)
        assert code == 0
        assert len(solve_log) <= 10


class _Bounded:
    """Equal to any relative error bound, of a threshold table or a Nystrom
    solve, within the default tolerance."""

    def __eq__(self, other):
        return other is not None and 0.0 < other <= solver_b._DEFAULT_TOL

    def __repr__(self):
        return f"<error bound in (0, {solver_b._DEFAULT_TOL}]>"


BOUNDED = _Bounded()


def _record(factorizations=0, largest_system=0, error_bound=None, search_steps=0,
            step_loops=0, simulated_policies=0, draws=0):
    """A full ``metadata.diagnostics`` record: every command writes all seven keys."""
    return {"factorizations": factorizations, "largest_system": largest_system,
            "error_bound": error_bound, "search_steps": search_steps,
            "step_loops": step_loops, "simulated_policies": simulated_policies,
            "draws": draws}


# the Monte-Carlo suites on a short config, so that every suite and "all"
# run once for the whole class
_SHORT_MC = SimConfig(horizon=2_000, replications=20, seed=5, burn_in=100)


@pytest.fixture(scope="module")
def suite_records(tmp_path_factory):
    """``validate --format json`` diagnostics of each suite and of "all"."""
    out = tmp_path_factory.mktemp("validate") / "record.json"
    records = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validation, "RENEWAL_CONFIG", _SHORT_MC)
        mp.setattr(validation, "BASELINES_CONFIG", _SHORT_MC)
        for suite in (*validation.SUITES, "all"):
            assert main(["validate", "--suite", suite, "--format", "json",
                         "--out", str(out)]) == 0
            records[suite] = json.loads(out.read_text())["metadata"]["diagnostics"]
    return records


class TestDiagnostics:
    """Deterministic work counters in JSON ``metadata.diagnostics``."""

    def _diagnostics(self, args, capsys):
        code, out, _ = run_cli(args + ["--format", "json"], capsys)
        assert code == 0
        again = run_cli(args + ["--format", "json"], capsys)[1]
        assert again == out  # reruns are byte-identical
        return json.loads(out)["metadata"]["diagnostics"]

    def test_table_one_factorization_per_beta(self, capsys):
        diag = self._diagnostics(["table", "--p", "0.3", "--k-max", "10"], capsys)
        assert diag == _record(factorizations=3, largest_system=11, error_bound=BOUNDED)

    def test_curve_one_factorization(self, capsys):
        diag = self._diagnostics(["curve", "--model", "A", "--kind", "costly", "--p", "0.3",
                                  "--beta", "1.0", "--k-max", "120"], capsys)
        assert diag == _record(factorizations=1, largest_system=121, error_bound=BOUNDED)

    def test_costly_search_doublings(self, capsys):
        # the price 2000 falls to threshold 19: tables of 9, 17 and 33 thresholds
        diag = self._diagnostics(["solve", "--model", "A", "--problem", "costly", "--p", "0.3",
                                  "--beta", "1.0", "--lambda", "2000"], capsys)
        assert diag == _record(factorizations=3, largest_system=33, error_bound=BOUNDED,
                               search_steps=2)

    def test_constrained_search_doublings(self, capsys):
        # N(16) = 2.3e-3 still meets the budget 1e-3, N(32) does not
        diag = self._diagnostics(["solve", "--model", "A", "--problem", "constrained",
                                  "--p", "0.3", "--beta", "1.0", "--alpha", "1e-3"], capsys)
        assert diag == _record(factorizations=3, largest_system=32, error_bound=BOUNDED,
                               search_steps=2)

    def test_model_b_solve_counts_search_steps_and_rungs(self, capsys):
        # 5 thresholds searched, seed included; each solve stops at the
        # first rung, order 17, on its error bound
        diag = self._diagnostics(["solve", "--model", "B", "--problem", "costly",
                                  "--sigma", "1", "--lambda", "1"], capsys)
        assert diag == _record(factorizations=5, largest_system=17, error_bound=BOUNDED,
                               search_steps=5)

    def test_model_b_curve_adds_both_searches(self, capsys):
        diag = self._diagnostics(["curve", "--model", "B", "--kind", "constrained",
                                  "--alphas", "0.25,0.45"], capsys)
        assert diag == _record(factorizations=8, largest_system=17, error_bound=BOUNDED,
                               search_steps=8)

    def test_simulate_one_step_loop(self, capsys):
        diag = self._diagnostics(["simulate", "--model", "A", "--p", "0.3", "--policy",
                                  "threshold", "--k", "2", "--reps", "20", "--horizon", "1000",
                                  "--burn-in", "10"], capsys)
        assert diag == _record(step_loops=1, simulated_policies=1, draws=20_000)

    @pytest.mark.parametrize("suite, want", [
        ("tableI", _record(factorizations=3, largest_system=11, error_bound=BOUNDED)),
        ("closed_forms", _record(factorizations=33, largest_system=17, error_bound=BOUNDED)),
        ("scaling", _record(factorizations=106, largest_system=17, error_bound=BOUNDED,
                            search_steps=66)),
        # two blocks of 20 replications x 2000 steps; one birth-death table
        # and one Nystrom rung per Gaussian threshold
        ("renewal", _record(factorizations=3, largest_system=17, error_bound=BOUNDED,
                            step_loops=2, simulated_policies=5, draws=2 * 20 * 2_000)),
        ("dp", _record(factorizations=6, largest_system=9, error_bound=BOUNDED)),
        ("baselines", _record(factorizations=8, largest_system=17, error_bound=BOUNDED,
                              search_steps=8, step_loops=1, simulated_policies=8,
                              draws=20 * 2_000)),
    ])
    def test_validate_suite(self, suite_records, suite, want):
        assert suite_records[suite] == want

    def test_validate_all_sums_the_suites(self, suite_records):
        singles = [suite_records[suite] for suite in validation.SUITES]
        want = {key: sum(record[key] for record in singles)
                for key in _record() if key != "error_bound"}
        want["largest_system"] = max(record["largest_system"] for record in singles)
        want["error_bound"] = max(record["error_bound"] or 0.0 for record in singles)
        assert suite_records["all"] == want


class TestSolve:
    def test_costly_worked_example(self, capsys):
        code, out, _ = run_cli(["solve", "--model", "A", "--problem", "costly",
                                "--p", "0.3", "--beta", "0.9", "--lambda", "20"],
                               capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert row["k"] == "5"
        assert float(row["C"]) == pytest.approx(1.4064, abs=1.5e-3)

    def test_constrained_worked_example(self, capsys):
        code, out, _ = run_cli(["solve", "--model", "A", "--problem", "constrained",
                                "--p", "0.3", "--beta", "0.9", "--alpha", "0.1"],
                               capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert row["k"] == "2"
        assert float(row["theta"]) == pytest.approx(0.6899, abs=5e-4)
        assert float(row["D"]) == pytest.approx(0.5543, abs=5e-4)

    def test_costly_zero_rate_threshold(self, capsys):
        # a = 0: threshold 2 never transmits and owns every price above the
        # last corner price 1.0
        code, out, _ = run_cli(["solve", "--model", "A", "--problem", "costly", "--p", "0.3",
                                "--beta", "0.9", "--a", "0", "--lambda", "5"], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert row["k"] == "2" and float(row["N"]) == 0.0
        assert float(row["C"]) == pytest.approx(0.54, rel=1e-14)

    def test_huge_dynamics_coefficient_solves(self, capsys):
        # every state but 0 escapes once |a| > K + r, so a = 1e21 solves as a = 1e4;
        # a * state used to overflow int64 in the table's landings
        rows = {}
        for a in ("1e21", "1e4"):
            code, out, err = run_cli(["solve", "--model", "A", "--p", "0.3", "--a", a,
                                      "--beta", "0.9", "--problem", "costly", "--lambda", "1"],
                                     capsys)
            assert code == 0, err
            rows[a] = parse_csv(out)
        assert rows["1e21"] == rows["1e4"] and rows["1e21"][0]["k"] == "1"

    def test_model_b_loose_budget(self, capsys):
        code, out, _ = run_cli(["solve", "--model", "B", "--problem", "constrained",
                                "--sigma", "1", "--alpha", "0.999",
                                "--epsilon", "1e-4"], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["k"]) < 0.01
        assert float(row["D"]) < 1e-4

    def test_model_b_abs_distortion_converges(self, capsys):
        code, out, _ = run_cli(["solve", "--model", "B", "--problem", "constrained",
                                "--distortion", "abs", "--sigma", "1", "--alpha", "0.3",
                                "--epsilon", "1e-6"], capsys)
        assert code == 0
        assert 0.0 < float(parse_csv(out)[0]["D"]) < 1.0

    def test_negative_rate_exits_two(self, capsys, monkeypatch):
        # U(0)/M(0) = -1e-9; rows are e = 0 and e = k, columns L, M, U and phi
        M0 = 10.0
        fixed = types.SimpleNamespace(ends=np.array([[0.5, M0, -1e-9 * M0, 0.1],
                                                     [1.0, M0, 0.0, 0.1]]))
        monkeypatch.setattr(solver_b, "fredholm_solve", lambda *args: fixed)
        code, _, err = run_cli(["solve", "--model", "B", "--problem", "constrained",
                                "--sigma", "1", "--beta", "0.9", "--alpha", "0.3"], capsys)
        assert code == 2
        assert "negative" in err and "k=" in err and "M0=" in err

    def test_model_b_costly(self, capsys):
        lam, eps = 1.0, 1e-6
        code, out, _ = run_cli(["solve", "--model", "B", "--problem", "costly",
                                "--sigma", "1", "--beta", "0.9", "--lambda", str(lam),
                                "--epsilon", str(eps)], capsys)
        assert code == 0
        row = {key: float(v) for key, v in parse_csv(out)[0].items() if v != "—"}
        spec = solver_b.gauss_markov_spec(1.0, beta=0.9)
        assert abs(solver_b.lambda_of_k(spec, row["k"]) - lam) <= eps
        assert abs(row["C"] - (row["D"] + lam * row["N"])) <= 1e-12

    def test_model_b_costly_solves_once_per_search_step(self, capsys, solve_log,
                                                       monkeypatch):
        # one solve per search step, 5 in all; bisecting takes 21
        steps = []
        real = solver_b.renewal
        monkeypatch.setattr(solver_b, "renewal",
                            lambda spec, k: steps.append(k) or real(spec, k))
        code, out, _ = run_cli(["solve", "--model", "B", "--problem", "costly",
                                "--lambda", "1"], capsys)
        assert code == 0
        assert solve_log == steps
        assert len(solve_log) <= 6
        row = {key: float(v) for key, v in parse_csv(out)[0].items() if v != "—"}
        assert solve_log[-1] == row["k"]
        assert abs(row["C"] - (row["D"] + row["N"])) <= 1e-12

    def test_negative_price_exits_two(self, capsys, monkeypatch):
        # L(0) = 2 above M(0) L(k) / M(k) = 1 makes the price -1; rows are
        # e = 0 and e = k, columns L, M, U and phi
        fixed = types.SimpleNamespace(ends=np.array([[2.0, 1.0, 0.5, 0.1],
                                                     [1.0, 1.0, 0.5, 0.1]]))
        monkeypatch.setattr(solver_b, "fredholm_solve", lambda *args: fixed)
        code, _, err = run_cli(["solve", "--model", "B", "--problem", "costly",
                                "--sigma", "1", "--lambda", "1"], capsys)
        assert code == 2
        assert "price" in err and "negative at k=" in err

    @pytest.mark.parametrize("argv", [
        "solve --model A --p 0.3 --beta 0.9 --problem costly --lambda nan",
        "solve --model A --p 0.3 --problem costly --lambda 1 --a inf",
        "solve --model A --p 0.3 --problem costly --lambda 1 --a nan",
        "solve --model B --problem constrained --alpha 0.3 --sigma nan",
        "solve --model B --problem constrained --alpha 0.3 --sigma inf",
        "solve --model B --problem constrained --alpha 0.3 --a inf",
        "solve --model B --problem costly --lambda nan",
        "curve --model B --kind costly --lambdas nan",
        "solve --model B --problem costly --lambda 1 --epsilon nan",
        "solve --model B --problem costly --lambda 1 --epsilon inf",
        "curve --model B --kind constrained --alphas 0.3 --epsilon inf",
        "simulate --model B --policy steering --k nan --theta 0.5 --reps 2 --horizon 100"
        " --burn-in 10",
        "simulate --model B --policy steering --k -1 --theta 0.5 --reps 2 --horizon 100"
        " --burn-in 10",
        "simulate --model B --policy timesharing --k nan --schedule 1:1 --reps 2"
        " --horizon 100 --burn-in 10",
        "simulate --model B --policy timesharing --k -1 --schedule 1:1 --reps 2"
        " --horizon 100 --burn-in 10",
        "simulate --model A --p 0.3 --policy threshold --k 2 --seed -1 --reps 2"
        " --horizon 100 --burn-in 10",
        "table --p 0.3 --betas ,",
        "table --p 0.3 --betas 0.9,0.90",
        "curve --model B --kind costly --lambdas 0.5,0.5",
        "curve --model B --kind constrained --alphas ,",
        "curve --model B --kind constrained --alphas 0.3,0.2,0.3",
        "solve --model A --problem costly --lambda 1",
        "table --p 0.3 --betas 0.9,x",
        "table --p 0.3 --k-max 0",
        "curve --model B --kind costly",
        "simulate --model A --p 0.3 --policy iid --reps 2 --horizon 100 --burn-in 10",
        "table --p 0.3 --k-max 2 --out /nonexistent/dir/x.csv",
        "solve --model A --p 0.3 --problem costly --lambda 2 --epsilon 5",
        "solve --model A --p 0.3 --problem costly --lambda 2 --alpha 0.4",
        "solve --model B --problem constrained --alpha 0.3 --lambda 2",
        "curve --model A --kind costly --p 0.3 --lambdas 1,2",
        "curve --model A --kind constrained --p 0.3 --alphas 0.2",
        "curve --model A --kind costly --p 0.3 --epsilon 1e-6",
        "curve --model B --kind constrained --alphas 0.3 --k-max 99",
        "curve --model B --kind constrained --alphas 0.3 --lambdas 1",
        "curve --model B --kind costly --lambdas 1 --alphas 0.3",
        "solve --model B --p 0.3 --problem costly --lambda 1",
        "curve --model B --kind constrained --p 0.3 --alphas 0.3",
        "simulate --model A --p 0.3 --sigma 5 --policy threshold --k 2 --reps 2 --horizon 100"
        " --burn-in 10",
        "solve --model A --p 0.3 --sigma 1 --problem costly --lambda 2",
        "simulate --model A --p 0.3 --policy threshold --k 2 --theta 0.5 --reps 2 --horizon 100"
        " --burn-in 10",
        "simulate --model A --p 0.3 --policy periodic --pattern 1,0 --k 2 --reps 2 --horizon 100"
        " --burn-in 10",
        "simulate --model A --p 0.3 --policy steering --k 2 --theta 0.5 --pattern 1,0 --reps 2",
        "simulate --model A --p 0.3 --policy randomized --k 2 --theta 0.5 --alpha 0.3 --reps 2",
        "simulate --model A --p 0.3 --policy iid --alpha 0.3 --schedule 1:1 --reps 2",
        # a discounted run's length comes from its truncation
        "simulate --model A --p 0.3 --beta 0.9 --policy threshold --k 2 --horizon 10"
        " --burn-in 5 --reps 4",
        "simulate --model B --beta 0.9 --policy iid --alpha 0.3 --burn-in 5 --reps 4",
    ], ids=["A-lambda-nan", "A-a-inf", "A-a-nan", "B-sigma-nan", "B-sigma-inf",
            "B-a-inf", "B-lambda-nan", "B-curve-lambdas-nan", "B-epsilon-nan",
            "B-epsilon-inf", "B-curve-epsilon-inf", "steering-k-nan", "steering-k-negative",
            "timesharing-k-nan", "timesharing-k-negative", "seed-negative",
            "table-betas-empty", "table-betas-repeated", "B-curve-lambdas-repeated",
            "B-curve-alphas-empty", "B-curve-alphas-repeated", "A-no-p", "table-betas-bad",
            "table-k-max-zero", "B-curve-no-grid", "iid-no-alpha", "out-unwritable",
            "A-solve-epsilon", "costly-alpha", "constrained-lambda", "A-curve-lambdas",
            "A-curve-alphas", "A-curve-epsilon", "B-curve-k-max", "B-constrained-curve-lambdas",
            "B-costly-curve-alphas", "B-solve-p", "B-curve-p", "A-simulate-sigma",
            "A-solve-sigma", "threshold-theta", "periodic-k", "steering-pattern",
            "randomized-alpha", "iid-schedule", "discounted-horizon", "discounted-burn-in"])
    def test_non_finite_input_exits_one(self, capsys, argv):
        code, _, err = run_cli(argv.split(), capsys)
        assert code == 1
        assert err.startswith("usage error")

    def test_overflowing_kernel_exits_two(self):
        # a subprocess, so stderr shows what a user sees: the typed error and
        # no RuntimeWarning before it, at either end of the float range
        env = {**os.environ, "PYTHONPATH": str(Path(remest.__file__).parents[1])}
        for sigma in ("1e300", "1e154", "1e-300"):
            run = subprocess.run(
                [sys.executable, "-m", "remest.cli", "solve", "--model", "B",
                 "--problem", "costly", "--lambda", "1", "--sigma", sigma],
                capture_output=True, text=True, env=env, timeout=60)
            assert run.returncode == 2, sigma
            lines = run.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("numerical failure:"), run.stderr

    def test_model_a_quadratic_distortion(self, capsys):
        code, out, _ = run_cli(["solve", "--model", "A", "--distortion", "quad", "--p", "0.3",
                                "--beta", "0.9", "--problem", "costly", "--lambda", "20",
                                "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        spec = ModelSpecA(a=1, pmf=IntegerPmf.birth_death(0.3),
                          distortion=DistortionFn.quadratic(), beta=0.9)
        assert payload["metadata"]["spec"] == spec_digest(spec)
        assert payload["rows"][0]["D"] == solver_a.optimal_costly(spec, 20.0).perf.distortion

    def test_missing_value_is_usage_error(self, capsys):
        code, _, err = run_cli(["solve", "--model", "A", "--problem", "costly",
                                "--p", "0.3"], capsys)
        assert code == 1


class TestSimulateCommand:
    def test_always_transmit_exact(self, capsys):
        code, out, _ = run_cli(["simulate", "--model", "A", "--p", "0.3",
                                "--policy", "threshold", "--k", "0",
                                "--reps", "5", "--horizon", "2000"], capsys)
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["d_hat"]) == 0.0
        assert float(row["n_hat"]) == 1.0

    def test_overflow_guard_exits_two(self, capsys):
        code, _, err = run_cli(["simulate", "--model", "A", "--p", "0.3", "--a", "2",
                                "--policy", "threshold", "--k", "inf",
                                "--reps", "2", "--horizon", "100",
                                "--burn-in", "10"], capsys)
        assert code == 2
        assert "numerical failure" in err

    @pytest.mark.parametrize("policy, flags", [
        (PolicySpec.threshold(float("inf")), ["threshold", "--k", "inf"]),
        (PolicySpec.steering(float("inf"), 0.5), ["steering", "--k", "inf", "--theta", "0.5"]),
        (PolicySpec.time_sharing(float("inf"), [(1, 1)]),
         ["timesharing", "--k", "inf", "--schedule", "1:1"]),
        (PolicySpec.periodic([0]), ["periodic", "--pattern", "0"]),
    ], ids=["threshold", "steering", "time_sharing", "periodic"])
    def test_never_transmit_unstable_state_exits_two(self, capsys, policy, flags):
        # at 1 < |a| < 2 and beta = 0.9999 the state reaches inf, where |inf| >= inf
        # would count as a transmission (d_hat = 2.4e305, n_hat = 5e-4 without the guard)
        for beta in (0.9, 0.99, 0.9999):
            spec = solver_b.gauss_markov_spec(1.0, a=1.5, beta=beta)
            with pytest.raises(NumericsError, match="grows geometrically"):
                simulate(spec, policy, SimConfig(replications=2))
            code, _, err = run_cli(["simulate", "--model", "B", "--a", "1.5", "--beta", str(beta),
                                    "--distortion", "abs", "--reps", "2", "--policy", *flags],
                                   capsys)
            assert code == 2
            assert "grows geometrically" in err

    def test_overflow_below_threshold_exits_two(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(["simulate", "--model", "A", "--p", "0.2", "--a", "2",
                                    "--policy", "threshold", "--k", "1e200",
                                    "--reps", "2", "--horizon", "3000"], capsys)
        assert code == 2
        assert "not finite" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_never_transmit_average_exits_two(self, capsys):
        code, _, err = run_cli(["simulate", "--model", "A", "--p", "0.3",
                                "--policy", "threshold", "--k", "inf",
                                "--reps", "2", "--horizon", "100",
                                "--burn-in", "10"], capsys)
        assert code == 2
        assert "diverges" in err

    def test_memory_cap_exits_one(self, capsys):
        code, _, err = run_cli(["simulate", "--model", "A", "--p", "0.3",
                                "--policy", "threshold", "--k", "2",
                                "--reps", "200", "--horizon", "1000000000"], capsys)
        assert code == 1
        assert "cap" in err

    def test_width_cap_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(importlib.import_module("remest.simulate"), "MAX_SIM_WIDTH", 10)
        code, _, err = run_cli(["simulate", "--model", "B", "--policy", "threshold", "--k", "1",
                                "--reps", "11", "--horizon", "2", "--burn-in", "1"], capsys)
        assert code == 1
        assert err.startswith("usage error:") and "cap" in err

    def test_step_cap_exits_one(self, capsys):
        # two replications are within the draw cap but above the step cap
        start = time.perf_counter()
        code, _, err = run_cli(["simulate", "--model", "A", "--p", "0.3",
                                "--policy", "threshold", "--k", "2",
                                "--reps", "2", "--horizon", "20000000"], capsys)
        assert code == 1
        assert "cap" in err
        assert time.perf_counter() - start < 1.0

    def test_workers_below_one_exits_one(self, capsys):
        code, _, err = run_cli(["simulate", "--model", "A", "--p", "0.3",
                                "--policy", "threshold", "--k", "2",
                                "--reps", "2", "--horizon", "100", "--burn-in", "10",
                                "--workers", "0"], capsys)
        assert code == 1
        assert "--workers" in err

    @pytest.mark.parametrize("flags", [
        ["--policy", "threshold", "--k", "abc"],
        ["--policy", "timesharing", "--k", "1", "--schedule", "3"],
        ["--policy", "periodic", "--pattern", "1,x"],
        ["--policy", "randomized", "--k", "2.5", "--theta", "0.5"],
    ], ids=["threshold-k", "timesharing-schedule", "periodic-pattern", "randomized-k"])
    def test_malformed_policy_input_exits_one(self, capsys, flags):
        code, _, err = run_cli(["simulate", "--model", "A", "--p", "0.3", "--reps", "2",
                                "--horizon", "100", "--burn-in", "10", *flags], capsys)
        assert code == 1
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("flags, policy", [
        (["--policy", "iid", "--alpha", "0.5"], PolicySpec.iid_random(0.5)),
        (["--policy", "randomized", "--k", "2", "--theta", "0.4"],
         PolicySpec.randomized_threshold(2, 0.4)),
    ], ids=["iid", "randomized"])
    def test_row_matches_library(self, capsys, flags, policy):
        code, out, _ = run_cli(["simulate", "--model", "A", "--p", "0.3", "--reps", "4",
                                "--horizon", "1000", "--burn-in", "100", "--seed", "3",
                                "--format", "json"] + flags, capsys)
        assert code == 0
        res = simulate(solver_a.bd_spec(0.3, 1.0), policy,
                       SimConfig(horizon=1000, replications=4, seed=3, burn_in=100))
        assert json.loads(out)["rows"] == [{"d_hat": res.d_hat, "n_hat": res.n_hat,
                                            "d_se": res.d_se, "n_se": res.n_se,
                                            "replications": 4}]

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(["simulate", "--model", "A", "--p", "0.3",
                                "--policy", "threshold", "--k", "2",
                                "--reps", "4", "--horizon", "1000",
                                "--burn-in", "100", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == "1"
        assert payload["command"] == "simulate"
        assert "seed" in payload["metadata"]
        assert len(payload["rows"]) == 1


class TestOutputContracts:
    def test_csv_round_trip_bytes(self, tmp_path, capsys):
        out_path = tmp_path / "table.csv"
        code = main(["table", "--p", "0.3", "--betas", "0.9", "--k-max", "4",
                     "--out", str(out_path)])
        assert code == 0
        original = out_path.read_bytes()
        text = original.decode()
        rows = list(csv.reader(io.StringIO(text)))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        assert buf.getvalue().encode() == original

    def test_lf_line_endings(self, tmp_path):
        out_path = tmp_path / "t.csv"
        main(["table", "--p", "0.3", "--betas", "0.9", "--k-max", "2",
              "--out", str(out_path)])
        raw = out_path.read_bytes()
        assert b"\r" not in raw


_TRICKY_TEXT = ['"', "\\", "\n", "é", "—", "}", "},\n      {", '": ', ""]
_CELLS = st.one_of(
    st.none(), st.booleans(),
    st.integers(-10 ** 30, 10 ** 30), st.sampled_from([2 ** 63, -2 ** 64]),
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -5e-324]),
    st.text(), st.sampled_from(_TRICKY_TEXT))
_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(_TRICKY_TEXT))
_METADATA = st.dictionaries(_KEYS, st.recursive(
    _CELLS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=8), max_size=4)


@st.composite
def _records(draw):
    columns = draw(st.lists(_KEYS, max_size=5))
    row_keys = st.sampled_from(columns) | _KEYS if columns else _KEYS
    rows = draw(st.lists(st.dictionaries(row_keys, _CELLS, max_size=6), max_size=5))
    return OutputRecord(command=draw(st.text(max_size=8)), columns=columns, rows=rows,
                        metadata=draw(_METADATA))


@given(_records())
@settings(max_examples=150, deadline=None)
def test_json_text_matches_indented_dumps(record):
    payload = {
        "schema_version": "1",
        "command": record.command,
        "metadata": record.metadata,
        "rows": [{c: ("—" if row.get(c) is None else row.get(c)) for c in record.columns}
                 for row in record.rows],
    }
    assert record.to_json_text() == json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestValidateCommand:
    def test_closed_forms_suite_passes(self, capsys):
        code, out, _ = run_cli(["validate", "--suite", "closed_forms"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert rows and all(r["passed"] == "true" for r in rows)

    def test_table_suite_has_99_cells(self, capsys):
        code, out, _ = run_cli(["validate", "--suite", "tableI"], capsys)
        assert code == 0
        assert len(parse_csv(out)) == 99

    def test_renewal_suite_simulates_one_block_per_spec(self, capsys):
        # birth-death k = 2, 3, 5 and Gaussian k = 1, 2: two step loops, each
        # drawing 1000 replications x 5000 innovations once; the analytic side
        # factors one table for all three birth-death thresholds and one
        # Nystrom rung per Gaussian one
        code, out, _ = run_cli(["validate", "--suite", "renewal", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["metadata"]["diagnostics"] == _record(
            factorizations=3, largest_system=17, error_bound=BOUNDED, step_loops=2,
            simulated_policies=5, draws=10**7)

    def test_unknown_suite_exits_one_naming_the_suites(self, capsys):
        # the parser takes any name; run_suite is the one check of it
        code, out, err = run_cli(["validate", "--suite", "nope"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: bad suites ('nope',)") and "tableI" in err

    def test_failed_check_exits_three(self, capsys, monkeypatch):
        from remest import validation

        def broken(name, **kwargs):
            return [validation.CheckResult(suite=name, name="forced", passed=False,
                                           detail="injected failure")]

        monkeypatch.setattr(validation, "run_suite", broken)
        code, out, _ = run_cli(["validate", "--suite", "dp"], capsys)
        assert code == 3
        assert parse_csv(out)[0]["passed"] == "false"


class TestFlagsFromFile:
    def test_at_file_indirection(self, tmp_path, capsys):
        # the parser is reused across calls, but the file is read on each
        flags = tmp_path / "flags.txt"
        row_counts = []
        for k_max in ("2", "3"):
            flags.write_text("\n".join([
                "table", "--p", "0.3", "--betas", "1.0", "--k-max", k_max,
            ]))
            code, out, _ = run_cli([f"@{flags}"], capsys)
            assert code == 0
            assert parse_csv(out)[0]["k"] == "0"
            row_counts.append(len(parse_csv(out)))
        assert row_counts == [3, 4]


class TestParserReuse:
    """One parser serves every ``main`` call of a process, so no call may see
    what an earlier one parsed."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_defaults_do_not_leak(self, capsys):
        line = ["simulate", "--model", "A", "--p", "0.3", "--policy", "threshold", "--k", "2",
                "--reps", "2", "--horizon", "200", "--burn-in", "10", "--format", "json"]
        seeds = []
        for argv in (line + ["--seed", "7"], line):
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            seeds.append(json.loads(out)["metadata"]["seed"])
        assert seeds == [7, 0]

    def test_values_do_not_leak(self, capsys):
        spec = ["solve", "--model", "A", "--p", "0.3"]
        assert run_cli(spec + ["--problem", "costly", "--lambda", "1"], capsys)[0] == 0
        code, _, err = run_cli(spec + ["--problem", "constrained"], capsys)
        assert (code, err) == (1, "usage error: --alpha is required for the constrained problem\n")
        assert run_cli(spec + ["--problem", "constrained", "--alpha", "0.2"], capsys)[0] == 0
        code, _, err = run_cli(spec + ["--problem", "costly"], capsys)
        assert (code, err) == (1, "usage error: --lambda is required for the costly problem\n")

    def test_usage_error_then_command_matches_fresh_process(self, capsys):
        argv = ["table", "--p", "0.27", "--betas", "0.93", "--k-max", "3", "--format", "json"]
        env = {**os.environ, "PYTHONPATH": str(Path(remest.__file__).parents[1])}
        fresh = subprocess.run([sys.executable, "-m", "remest.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        code, _, err = run_cli(["table", "--p", "0.27", "--k-max", "x"], capsys)
        assert code == 1 and err.startswith("usage error: ")
        assert run_cli(argv, capsys) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert fresh.returncode == 0


# after remest.cli, scipy.linalg costs about 300 ms, scipy.sparse 16 ms,
# scipy.special 68 ms and scipy.optimize 276 ms of start-up
_HEAVY_SCIPY = ("scipy.linalg", "scipy.sparse", "scipy.special", "scipy.optimize")


# a script that runs one command line in process, its output discarded
_RUN_MAIN = ("import contextlib, io, remest.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert remest.cli.main({argv!r}) == 0")


def _modules_loaded_after(script: str, heavy: tuple[str, ...] = _HEAVY_SCIPY) -> list[str]:
    """The modules in ``sys.modules`` after ``script`` runs in a fresh
    interpreter that are one of ``heavy`` or a submodule of one, sorted: each
    would add to every command's start-up."""
    env = {**os.environ, "PYTHONPATH": str(Path(remest.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", f"{script}\nimport sys\n"
         f"print(*sorted(m for m in sys.modules\n"
         f"              if any(m == h or m.startswith(h + '.') for h in {heavy!r})))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout.split()


def test_public_names_resolve_once():
    assert len(set(remest.__all__)) == len(remest.__all__)
    for name in remest.__all__:
        assert getattr(remest, name, None) is not None, name


def test_cli_import_leaves_heavy_scipy_modules_unloaded():
    for script in ("import remest", "import remest.cli"):
        assert _modules_loaded_after(script) == [], script


def test_cli_import_leaves_process_pool_modules_unloaded():
    # the validation suites import their process pool when a call first has
    # blocks to run side by side: neither the import, nor a simulate command,
    # nor a suite with no Monte-Carlo block loads it
    pools = ("multiprocessing", "concurrent.futures.process")
    for script in ("import remest.cli",
                   _RUN_MAIN.format(argv=["simulate", "--model", "B", "--policy", "threshold",
                                          "--k", "1", "--reps", "20", "--horizon", "2000"]),
                   _RUN_MAIN.format(argv=["validate", "--suite", "tableI"])):
        assert _modules_loaded_after(script, pools) == [], script


def test_cli_import_loads_no_solver_suite_or_thread_pool():
    # each command imports the solver, the suites or the simulator's thread
    # pool when it runs, so the import itself loads none of them
    loaded = _modules_loaded_after(
        "import remest.cli", ("remest", "concurrent.futures", "logging", "fractions", "scipy"))
    assert loaded == ["remest", "remest.cli", "remest.errors", "remest.model", "remest.simulate"]


@pytest.mark.parametrize("argv, unread", [
    (["solve", "--model", "B", "--problem", "costly", "--sigma", "1", "--lambda", "1"],
     "remest.solver_a"),
    (["simulate", "--model", "A", "--p", "0.3", "--policy", "threshold", "--k", "2",
      "--reps", "20", "--horizon", "2000"], "remest.solver_b"),
])
def test_command_loads_only_what_it_runs(argv, unread):
    assert _modules_loaded_after(_RUN_MAIN.format(argv=argv), (
        unread, "remest.validation", "remest.dp", "remest.reference")) == []


def test_package_simulate_stays_the_function():
    # the package re-exports the function under its module's name; the CLI's
    # imports of the module must not rebind it
    check = "\nimport types\nassert not isinstance(remest.simulate, types.ModuleType)"
    argv = ["simulate", "--model", "B", "--sigma", "1", "--policy", "threshold", "--k", "1",
            "--reps", "20", "--horizon", "2000"]
    for script in ("import remest.cli", _RUN_MAIN.format(argv=argv)):
        assert _modules_loaded_after(script + "\nimport remest" + check, ()) == [], script


def test_model_b_commands_leave_scipy_linalg_unloaded():
    # Model B never factors an integer system, so its commands never pay for
    # scipy.linalg: the import is removed for them, not deferred
    script = "\n".join(_RUN_MAIN.format(argv=argv) for argv in (
        ["solve", "--model", "B", "--problem", "costly", "--sigma", "1", "--lambda", "1"],
        ["simulate", "--model", "B", "--sigma", "1", "--policy", "threshold", "--k", "1",
         "--reps", "20"]))
    assert _modules_loaded_after(script) == []


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("remest ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_names_resolve():
    # every constant and every remest.<module>.<name> that README names exists
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = [importlib.import_module(f"remest.{info.name}")
               for info in pkgutil.iter_modules(remest.__path__) if not info.name.startswith("_")]
    constants = set(re.findall(r"`([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)`", readme))
    assert "MAX_SILENT_DIM" in constants
    assert [c for c in sorted(constants) if not any(hasattr(m, c) for m in modules)] == []
    dotted = set(re.findall(r"\bremest\.(\w+)\.(\w+)", readme))
    assert ("simulate", "DISCOUNT_TRUNCATION_TOL") in dotted
    assert [f"remest.{m}.{name}" for m, name in sorted(dotted)
            if not hasattr(importlib.import_module(f"remest.{m}"), name)] == []
