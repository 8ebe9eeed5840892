import csv
import io
import json
import warnings

import pytest

from remest import solver_b
from remest.cli import main


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
        # 1/M0 - (1 - beta) = -1e-9 at beta = 0.9
        monkeypatch.setattr(solver_b, "lm_at_zero",
                            lambda spec, k, tol: (0.5, 1.0 / (0.1 - 1e-9)))
        code, _, err = run_cli(["solve", "--model", "B", "--problem", "constrained",
                                "--sigma", "1", "--beta", "0.9", "--alpha", "0.3"], capsys)
        assert code == 2
        assert "negative" in err and "k=" in err and "M0=" in err

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

    def test_workers_below_one_exits_one(self, capsys):
        code, _, err = run_cli(["simulate", "--model", "A", "--p", "0.3",
                                "--policy", "threshold", "--k", "2",
                                "--reps", "2", "--horizon", "100", "--burn-in", "10",
                                "--workers", "0"], capsys)
        assert code == 1
        assert "--workers" in err

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
        flags = tmp_path / "flags.txt"
        flags.write_text("\n".join([
            "table", "--p", "0.3", "--betas", "1.0", "--k-max", "2",
        ]))
        code, out, _ = run_cli([f"@{flags}"], capsys)
        assert code == 0
        assert parse_csv(out)[0]["k"] == "0"
