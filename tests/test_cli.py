"""Command-line surface tests: dispatch, CSV formats, exit codes, verify."""

import pytest

from qdelay import ModelParams, simulate
from qdelay.cli import run, write_trajectory_csv


def _lines(path):
    return path.read_text().splitlines()


class TestSimulateCommand:
    def test_fixed_point_rows(self, capsys):
        code = run(["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
                    "--delta", "0", "--horizon", "10",
                    "--phi1", "5", "--phi2", "5"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t,q1,q2"
        for line in out[1:]:
            t, q1, q2 = line.split(",")
            assert q1 == "5" and q2 == "5"

    def test_three_node_run_has_four_lines(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
                    "--delta", "0", "--horizon", "0.02", "--step", "0.01",
                    "--phi1", "5", "--phi2", "5", "--out", str(out)])
        assert code == 0
        assert len(_lines(out)) == 4

    def test_ma_csv_has_five_columns(self, tmp_path):
        out = tmp_path / "ma.csv"
        code = run(["simulate", "--model", "moving-average", "--lambda", "10",
                    "--mu", "1", "--delta", "2", "--horizon", "1",
                    "--out", str(out)])
        assert code == 0
        lines = _lines(out)
        assert lines[0] == "t,q1,q2,m1,m2"
        assert all(len(line.split(",")) == 5 for line in lines)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
                "--delta", "0.4", "--horizon", "5", "--phi1", "5.5", "--phi2", "4.5"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_at_printed_precision(self, tmp_path):
        out = tmp_path / "traj.csv"
        assert run(["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
                    "--delta", "0.4", "--horizon", "2",
                    "--phi1", "5.5", "--phi2", "4.5", "--out", str(out)]) == 0
        p = ModelParams(10.0, 1.0, 0.4)
        traj = simulate("constant", p, horizon=2.0, phi1=5.5, phi2=4.5)
        lines = _lines(out)[1:]
        assert len(lines) == traj.times.size
        for line, t, state in zip(lines, traj.times, traj.states):
            ft, f1, f2 = (float(v) for v in line.split(","))
            assert ft == float(format(t, ".9g"))
            assert f1 == float(format(state[0], ".9g"))
            assert f2 == float(format(state[1], ".9g"))

    def test_phi_flags_must_come_together(self, capsys):
        code = run(["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
                    "--delta", "0.4", "--horizon", "1", "--phi1", "5"])
        assert code == 1

    def test_write_rejects_model_dimension_mismatch(self, tmp_path):
        p = ModelParams(10.0, 1.0, 0.4)
        traj = simulate("constant", p, horizon=1.0)
        with pytest.raises(ValueError):
            write_trajectory_csv(traj, "moving-average", str(tmp_path / "x.csv"))


class TestCriticalDelayCommand:
    def test_constant_reports_threshold(self, capsys):
        assert run(["critical-delay", "--model", "constant",
                    "--lambda", "10", "--mu", "1"]) == 0
        out = capsys.readouterr().out
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["delta_cr"]) == pytest.approx(0.36174, abs=1e-4)
        assert float(fields["omega"]) == pytest.approx(4.89898, abs=1e-4)

    def test_constant_without_hopf(self, capsys):
        assert run(["critical-delay", "--model", "constant",
                    "--lambda", "1", "--mu", "1"]) == 0
        assert "no Hopf bifurcation" in capsys.readouterr().out

    def test_ma_lists_validated_branches(self, capsys):
        assert run(["critical-delay", "--model", "moving-average",
                    "--lambda", "10", "--mu", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "branch=0" in lines[0] and "branch=1" in lines[1]
        first = dict(kv.split("=") for kv in lines[0].split())
        assert float(first["delta_cr"]) == pytest.approx(2.1448, abs=1e-3)

    def test_ma_bracket_narrows_the_scan(self, capsys):
        assert run(["critical-delay", "--model", "moving-average",
                    "--lambda", "10", "--mu", "1", "--bracket", "0.5", "1.5"]) == 0
        assert "no validated Hopf root" in capsys.readouterr().out


class TestHopfCurveCommand:
    def test_constant_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["hopf-curve", "--model", "constant", "--mu", "1",
                    "--lambda-min", "2.5", "--lambda-max", "100",
                    "--points", "10", "--out", str(out)]) == 0
        lines = _lines(out)
        assert lines[0] == "lambda,delta_cr,omega,branch,validated"
        assert len(lines) == 11
        deltas = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))
        assert all(line.split(",")[4] == "true" for line in lines[1:])


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--model", "constant", "--mu", "1",
                    "--lambdas", "10", "--deltas", "0.2,0.5",
                    "--out", str(out)]) == 0
        lines = _lines(out)
        assert lines[0] == "lambda,mu,delta,predicted,observed,amplitude,agree"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[4] for r in rows] == ["synchronized", "oscillatory"]
        assert all(r[6] == "true" for r in rows)

    def test_bad_grid_is_usage_error(self):
        assert run(["sweep", "--model", "constant", "--mu", "1",
                    "--lambdas", "10,banana", "--deltas", "0.2"]) == 1


class TestExitCodes:
    def test_unknown_flag(self):
        assert run(["simulate", "--nope"]) == 1

    def test_invalid_parameters(self):
        assert run(["critical-delay", "--model", "constant",
                    "--lambda", "-5", "--mu", "1"]) == 1

    def test_ma_zero_delta(self):
        assert run(["simulate", "--model", "moving-average", "--lambda", "10",
                    "--mu", "1", "--delta", "0", "--horizon", "1"]) == 1

    def test_unwritable_output_is_exit_two(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "o.csv"
        assert run(["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
                    "--delta", "0.4", "--horizon", "1", "--out", str(missing)]) == 2

    def test_stage_overflow_at_zero_delta_is_exit_two(self, tmp_path, capsys):
        # mu h = 50 blows up; at delta = 0 a stage overflows before a node does
        assert run(["simulate", "--model", "constant", "--lambda", "10", "--mu", "50",
                    "--delta", "0", "--step", "1", "--horizon", "1000",
                    "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == \
            "numerical failure: integration produced a non-finite state (t = 58)\n"

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.count("[PASS]") == 12
        # both moving-average crossings at (10, 1), the second restabilising
        assert "moving-average (10, 1) crossings +1, -1" in out
        assert "all checks passed" in out

    def test_failing_check_exits_nonzero(self, capsys, monkeypatch):
        import qdelay.cli as cli

        def broken_suite():
            return [("always-fails", lambda: (False, "forced failure")),
                    ("raises", lambda: (_ for _ in ()).throw(RuntimeError("boom")))]

        monkeypatch.setattr(cli, "_verify_checks", broken_suite)
        assert run(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 2
