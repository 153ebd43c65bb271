"""Command-line surface tests: dispatch, CSV formats, exit codes, verify."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdelay import ModelParams, Trajectory, checks, cli, simulate
from qdelay.cli import run, write_trajectory_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")


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

    def test_write_refuses_a_three_column_trajectory(self, tmp_path):
        states = np.ones((5, 3))
        traj = Trajectory(step=0.01, states=states, derivs=np.zeros_like(states), lag=0.0)
        with pytest.raises(ValueError, match="dimension 3"):
            write_trajectory_csv(traj, str(tmp_path / "x.csv"))


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
        assert capsys.readouterr().out == "no Hopf point in the delta range [0.5, 1.5]\n"

    def test_ma_without_hopf(self, capsys):
        # lambda / mu = 5 < 9.2066777: no window has a Hopf point
        assert run(["critical-delay", "--model", "moving-average",
                    "--lambda", "5", "--mu", "1"]) == 0
        assert capsys.readouterr().out == ("no Hopf bifurcation (lambda = 5, mu = 1); "
                                           "equilibrium stable for all delays\n")

    def test_ma_bracket_at_a_huge_rate(self, capsys):
        assert run(["critical-delay", "--model", "moving-average",
                    "--lambda", "2e9", "--mu", "1", "--bracket", "0", "1e-8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        fields = dict(kv.split("=") for kv in lines[0].split())
        assert float(fields["delta_cr"]) == pytest.approx(4.93480221e-09, rel=1e-8)

    def test_constant_at_a_huge_rate(self, capsys):
        assert run(["critical-delay", "--model", "constant",
                    "--lambda", "1.4e154", "--mu", "1"]) == 0
        fields = dict(kv.split("=") for kv in capsys.readouterr().out.split())
        assert float(fields["omega"]) == pytest.approx(7e153, rel=1e-8)
        assert float(fields["delta_cr"]) == pytest.approx(2.24399475e-154, rel=1e-8)

    def test_ma_unbounded_list_is_usage_error(self, capsys):
        # about 1.6e11 Hopf points: refused before the scan, and a bracket
        # at the same rate still answers
        assert run(["critical-delay", "--model", "moving-average",
                    "--lambda", "1e12", "--mu", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: the search may list 1.5915494e+11 Hopf points")
        assert "--bracket" in lines[0]
        assert run(["critical-delay", "--model", "moving-average",
                    "--lambda", "1e12", "--mu", "1", "--bracket", "0", "1e-10"]) == 0
        assert capsys.readouterr().out.startswith("model=moving-average lambda=1e+12")

    @pytest.mark.parametrize("bracket", [["5", "1"], ["nan", "5"], ["0", "nan"]])
    def test_ma_invalid_bracket_is_usage_error(self, capsys, bracket):
        assert run(["critical-delay", "--model", "moving-average",
                    "--lambda", "10", "--mu", "1", "--bracket", *bracket]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bracket must satisfy lo <= hi")

    @pytest.mark.parametrize("bracket", [["1", "2"], ["5", "1"], ["0", "inf"]])
    def test_constant_bracket_is_usage_error(self, capsys, bracket):
        # the constant threshold is closed-form; a bracket would be ignored
        assert run(["critical-delay", "--model", "constant",
                    "--lambda", "10", "--mu", "1", "--bracket", *bracket]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --bracket applies only to the moving-average model\n"


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

    def test_no_row_at_an_overflowing_delay(self, capsys):
        # both delays of (pi, 2 pi) overflow: no Hopf point to print
        assert run(["hopf-curve", "--model", "moving-average", "--mu", "5e-324",
                    "--lambda-min", "1e-322", "--lambda-max", "1e-322",
                    "--points", "1"]) == 0
        assert capsys.readouterr().out == "lambda,delta_cr,omega,branch,validated\n"

    def test_grid_beyond_the_cap_is_usage_error(self, capsys):
        # refused before the 8 GB grid is built
        assert run(["hopf-curve", "--model", "constant", "--mu", "1",
                    "--lambda-min", "2.5", "--lambda-max", "100",
                    "--points", "1000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: n_points = 1000000000 is more than the 1000000 allowed\n"

    @pytest.mark.parametrize("bounds", [["1", "inf"], ["nan", "10"], ["10", "1"]])
    def test_bad_lambda_range_is_usage_error(self, capsys, recwarn, bounds):
        assert run(["hopf-curve", "--model", "constant", "--mu", "1",
                    "--lambda-min", bounds[0], "--lambda-max", bounds[1],
                    "--points", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: lambda_range must satisfy 0 < lo <= hi < inf, "
                                f"got ({float(bounds[0])}, {float(bounds[1])})\n")
        assert len(recwarn) == 0


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

    def test_empty_grid_is_usage_error(self, capsys):
        assert run(["sweep", "--model", "constant", "--mu", "1",
                    "--lambdas", ",", "--deltas", "1"]) == 1
        assert capsys.readouterr().err == "error: --lambdas must contain at least one value\n"

    def test_inconclusive_cell_reports_its_trend(self, capsys):
        # at the threshold itself the tail decays too slowly to decide
        assert run(["sweep", "--model", "constant", "--mu", "1", "--lambdas", "10",
                    "--deltas", "0.3617394710074713"]) == 0
        assert capsys.readouterr().err.splitlines()[1:] == [
            "# inconclusive at lambda=10 delta=0.361739471: amplitude 0.390956377, "
            "decaying"]

    def test_failed_row_reports_its_error(self, capsys):
        assert run(["sweep", "--model", "moving-average", "--mu", "1",
                    "--lambdas", "10", "--deltas", "0,2.5"]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].split(",")[4] == "failed"
        assert captured.err.splitlines() == [
            "# 2 rows, 1 disagreements, 0 inconclusive",
            "# failed at lambda=10 delta=0: the moving-average model needs delta > 0; "
            "use the constant model at delta = 0",
        ]

    def test_infinite_delay_fails_its_own_row(self, capsys):
        # the prediction reads one bracket: no Hopf search runs up to the
        # delay, which could list 1.6 million points at lambda = 1e7
        assert run(["sweep", "--model", "moving-average", "--mu", "1",
                    "--lambdas", "1e7", "--deltas", "1e-5,inf"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[2] == "10000000,1,inf,failed,failed,nan,false"
        failed = [line for line in err.splitlines()
                  if line.startswith("# failed at") and "delta=inf" in line]
        assert failed == ["# failed at lambda=10000000 delta=inf: delta must be finite and >= 0"]


class TestExitCodes:
    def test_unknown_flag(self):
        assert run(["simulate", "--nope"]) == 1

    def test_invalid_parameters(self):
        assert run(["critical-delay", "--model", "constant",
                    "--lambda", "-5", "--mu", "1"]) == 1

    def test_ma_zero_delta(self):
        assert run(["simulate", "--model", "moving-average", "--lambda", "10",
                    "--mu", "1", "--delta", "0", "--horizon", "1"]) == 1

    def test_unwritable_output_is_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "o.csv"
        assert run(["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
                    "--delta", "0.4", "--horizon", "1", "--out", str(missing)]) == 2
        assert capsys.readouterr().err == \
            f"cannot write output: [Errno 2] No such file or directory: '{missing}'\n"

    def test_stage_overflow_at_zero_delta_is_exit_two(self, tmp_path, capsys):
        # mu h = 50 blows up; at delta = 0 a stage overflows before a node does
        assert run(["simulate", "--model", "constant", "--lambda", "10", "--mu", "50",
                    "--delta", "0", "--step", "1", "--horizon", "1000",
                    "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == \
            "numerical failure: integration produced a non-finite state (t = 58)\n"

    def test_grid_beyond_the_node_budget_is_usage_error(self, capsys):
        # the default step here is 5e-302: refused before any node is stored
        assert run(["simulate", "--model", "moving-average", "--lambda", "10",
                    "--mu", "1", "--delta", "1e-300", "--horizon", "1"]) == 1
        assert capsys.readouterr().err == \
            "error: the grid needs 2e+301 nodes, more than the 10000000 allowed\n"

    def test_lag_step_overflow_is_usage_error(self, capsys):
        # lag / step overflows before the grid is sized
        assert run(["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
                    "--delta", "1e300", "--step", "1e-10", "--horizon", "1e-5"]) == 1
        assert capsys.readouterr().err == "error: lag / step = 1e+300 / 1e-10 overflows\n"

    @pytest.mark.parametrize("argv,code,first_err", [
        # node 0's derivative overflows in q2'
        (["simulate", "--model", "constant", "--lambda", "2", "--mu", "1e3", "--delta",
          "0.5", "--horizon", "5", "--phi1", "1e-300", "--phi2", "1.7e308"],
         2, "numerical failure: integration produced a non-finite state (t = 0)"),
        # a lag of 5e299 steps on a one-node grid
        (["simulate", "--model", "constant", "--lambda", "1e3", "--mu", "1e-300",
          "--delta", "1e300", "--horizon", "1", "--step", "2"], 0, None),
        (["simulate", "--model", "moving-average", "--lambda", "1e3", "--mu", "1e-300",
          "--delta", "1e300", "--horizon", "1", "--step", "2"], 0, None),
        # mu h = 5e153: (mu h)^4 overflows in the window total's closed form
        (["simulate", "--model", "moving-average", "--lambda", "1e154", "--mu", "1e154",
          "--delta", "0.5", "--horizon", "5", "--phi1", "2", "--phi2", "2", "--step", "10"],
         2, "numerical failure: integration produced a non-finite state (t = 0.5)"),
        # lam sin(theta / 2)^2 underflows at the right roots of the phase function
        (["hopf-curve", "--model", "moving-average", "--mu", "1e-320", "--lambda-min",
          "1e-300", "--lambda-max", "2", "--points", "1"], 0, None),
        (["sweep", "--model", "moving-average", "--mu", "1e-320", "--lambdas", "1e-300",
          "--deltas", "1e154"], 0, "# 1 rows, 1 disagreements, 0 inconclusive"),
    ], ids=["node-0-derivative", "lag-beyond-run-constant", "lag-beyond-run-ma",
            "window-total-overflow", "hopf-curve-right-root", "sweep-right-root"])
    def test_extreme_inputs_end_without_a_traceback(self, argv, code, first_err):
        # a fresh interpreter, as warnings are errors: stderr shows what a user sees
        done = subprocess.run([sys.executable, "-W", "error", "-m", "qdelay", *argv],
                              env={**os.environ, "PYTHONPATH": SRC}, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        assert (done.stderr.splitlines() or [None])[0] == first_err
        if argv[0] == "simulate" and code == 0:
            assert len(done.stdout.splitlines()) == 2  # the header and node 0

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out


class TestParserReuse:
    """run reuses one parser; consecutive calls must not see each other's
    arguments, defaults or errors."""

    SEQUENCE = [
        ["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
         "--delta", "0.4", "--horizon", "0.05", "--phi1", "7", "--phi2", "3"],
        ["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
         "--delta", "0.4", "--horizon", "0.05"],
        ["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
         "--delta", "0.4", "--horizon", "0.05", "--phi1", "7"],
        ["critical-delay", "--model", "moving-average", "--lambda", "10"],
        ["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
         "--delta", "0.4", "--horizon", "0.05"],
        ["critical-delay", "--model", "moving-average", "--lambda", "10", "--mu", "1",
         "--bracket", "2", "3"],
        ["critical-delay", "--model", "moving-average", "--lambda", "10", "--mu", "1"],
        ["simulate", "--nope"],
        ["simulate", "--model", "constant", "--lambda", "10", "--mu", "1",
         "--delta", "0.4", "--horizon", "0.05", "--phi1", "7", "--phi2", "3"],
    ]

    def _outcomes(self, capsys, fresh):
        outcomes = []
        for argv in self.SEQUENCE:
            if fresh:
                cli._build_parser.cache_clear()
            code = run(argv)
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        return outcomes

    def test_consecutive_runs_match_fresh_parsers(self, capsys):
        fresh = self._outcomes(capsys, fresh=True)
        reused = self._outcomes(capsys, fresh=False)
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 1, 1, 0, 0, 0, 1, 0]
        # the first and last runs start from (7, 3), the second from the
        # default (1.1 q*, 0.9 q*), not from the previous run's --phi flags
        assert reused[0] == reused[-1]
        assert reused[1][1].splitlines()[1] == "0,5.5,4.5"
        assert reused[0][1].splitlines()[1] == "0,7,3"
        assert cli._build_parser() is cli._build_parser()


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        assert run(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert out.count("[PASS]") == len(checks.SUITE)
        # both moving-average crossings at (10, 1), the second restabilising
        assert "moving-average (10, 1) crossings +1, -1" in out
        assert "all checks passed" in out

    def test_failing_check_exits_nonzero(self, capsys, monkeypatch):
        broken_suite = [("always-fails", lambda: (False, "forced failure")),
                        ("raises", lambda: (_ for _ in ()).throw(RuntimeError("boom")))]
        monkeypatch.setattr(checks, "SUITE", broken_suite)
        assert run(["verify"]) == 1
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 2


class TestModuleEntry:
    """The package as a program, in a fresh interpreter from the checkout."""

    @staticmethod
    def _python(*args):
        env = {**os.environ, "PYTHONPATH": SRC}
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=60)

    def test_python_m_qdelay_help(self):
        done = self._python("-m", "qdelay", "--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: qdelay ")

    def test_import_leaves_the_check_suite_unloaded(self):
        # every benchmark workload imports cli; verify alone needs checks
        done = self._python("-c", "import sys, qdelay, qdelay.cli; "
                                  "print('qdelay.checks' in sys.modules)")
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"

    def test_closed_pipe_ends_the_output_without_error(self):
        # the reader takes one line and closes the pipe, as `| head -1` does,
        # while the 200k-row CSV is still being written
        proc = subprocess.Popen(
            [sys.executable, "-m", "qdelay", "simulate", "--model", "constant",
             "--lambda", "10", "--mu", "1", "--delta", "1", "--horizon", "2000"],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "t,q1,q2\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert "cannot write output" not in err


class TestTrajectoryCsv:
    """The block-formatted trajectory writer against per-value ``_fmt`` rows."""

    @pytest.mark.parametrize("dim", [2, 4])
    def test_blocks_match_per_value_formatting(self, tmp_path, dim):
        rows = 2 * cli._CSV_CHUNK_ROWS + 37
        rng = np.random.default_rng(7)
        states = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-300, 301, (rows, dim))
        states[:6, 0] = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300]
        states[6:9, -1] = [-1.0, 123456789.5, -2.5e-7]
        traj = Trajectory(step=0.01, states=states, derivs=np.zeros_like(states), lag=0.0)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(out))
        header = "t,q1,q2" if dim == 2 else "t,q1,q2,m1,m2"
        expected = [header] + [",".join(cli._fmt(v) for v in (t, *state))
                               for t, state in zip(traj.times, traj.states)]
        assert out.read_bytes() == ("\n".join(expected) + "\n").encode()
        assert out.read_text().splitlines()[1].split(",")[1] == "-0"


def _percent_text(values):
    """The ``%`` row template the writer falls back to, on (rows, cols) values."""
    row = ",".join(["%.9g"] * values.shape[1]) + "\n"
    return (row * values.shape[0]) % tuple(values.ravel().tolist())


def _edge_values():
    """Powers of ten, 9-digit carries, zero runs inside the digits and the
    domain edges with their neighbours, all printed by %.9g in fixed
    notation away from a tie."""
    values = [0.0, -0.0]
    for e in range(-4, 9):
        p = 10.0 ** e
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
        values += [n * 10.0 ** (e - 8) for n in (100000001, 100000050, 100001000,
                                                  100200003, 120000034, 999900001)]
        if e <= 7:
            # 9.9999999997 10^e rounds up to 10^(e+1): the mantissa carries
            values.append(9.9999999997 * p)
    values += [1e-4, np.nextafter(1e-4, 0.0), 999999999.0, 999999999.4]
    values = np.array(values)
    return np.concatenate([values, -values])


class TestFastRows:
    """The numpy block formatter against the ``%`` row template."""

    @staticmethod
    def _count_fallbacks(monkeypatch):
        chunks = []
        percent = cli._percent_rows

        def counted(chunk):
            chunks.append(chunk.copy())
            return percent(chunk)

        monkeypatch.setattr(cli, "_percent_rows", counted)
        return chunks

    @staticmethod
    def _write(tmp_path, states, step=0.01):
        traj = Trajectory(step=step, states=states, derivs=np.zeros_like(states), lag=0.0)
        out = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(out))
        expected = "t,q1,q2,m1,m2\n" + _percent_text(np.column_stack((traj.times, states)))
        return out.read_bytes(), expected.encode()

    def test_in_domain_table_never_falls_back(self, tmp_path, monkeypatch):
        rows = 2 * cli._CSV_CHUNK_ROWS + 37
        rng = np.random.default_rng(11)
        states = rng.choice([-1.0, 1.0], (rows, 4)) * 10.0 ** rng.uniform(-4.0, 9.0, (rows, 4))
        edges = _edge_values()
        states[:edges.size, 1] = edges
        states[-edges.size:, 3] = edges
        fallbacks = self._count_fallbacks(monkeypatch)
        written, expected = self._write(tmp_path, states)
        assert written == expected
        assert fallbacks == []

    def test_near_ties_and_out_of_domain_values(self, tmp_path, monkeypatch):
        ties = []
        for e in range(-4, 9):
            for k in (100000000, 123456789, 555555555, 999999999):
                tie = (k + 0.5) * 10.0 ** (e - 8)
                ties += [tie, np.nextafter(tie, 0.0), np.nextafter(tie, np.inf)]
        ties += [999999999.5 * 10.0 ** j for j in range(-12, 1)]
        outside = [np.nextafter(1e-4 * 0.9999999995, 0.0), 9.9e-5, 1e-5, 1e-300, 5e-324,
                   np.nextafter(1e9, 0.0), 1e9, np.nextafter(1e9, np.inf), 3e9, 1e12,
                   np.inf, -np.inf, np.nan]
        values = np.array(ties + outside)
        values = np.concatenate([values, -values])
        # every suspect value sits in column m1 beside in-domain values, in one block
        states = np.full((values.size, 4), 2.5)
        states[:, 2] = values
        fallbacks = self._count_fallbacks(monkeypatch)
        written, expected = self._write(tmp_path, states)
        assert written == expected
        assert len(fallbacks) == 1
        # value by value, each is either formatted exactly or refused
        refused = 0
        for v in values:
            text = cli._fast_rows(np.array([[v]]))
            if text is None:
                refused += 1
            else:
                assert text == "%.9g\n" % v
        assert refused >= len(outside) * 2

    def test_one_out_of_domain_value_sends_only_its_block_to_the_fallback(
            self, tmp_path, monkeypatch):
        # step h = 5e-5: t = h prints as 5e-05, outside fixed notation
        rows = 3 * cli._CSV_CHUNK_ROWS
        rng = np.random.default_rng(12)
        states = rng.uniform(0.5, 40.0, (rows, 4))
        fallbacks = self._count_fallbacks(monkeypatch)
        written, expected = self._write(tmp_path, states, step=5e-5)
        assert written == expected
        assert len(fallbacks) == 1
        assert fallbacks[0][1, 0] == 5e-5
        assert written.splitlines()[2].startswith(b"5e-05,")
