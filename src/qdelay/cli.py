"""Command-line surface: simulate scenarios, report critical delays, trace
Hopf curves, run regime sweeps, and self-verify the numerics.

All configuration is by flags; CSV goes to --out or standard output.  Exit
codes: 0 success, 1 usage or validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import analysis, models, stability
from .dde import NumericalFailureError, Trajectory

__all__ = ["main", "run", "write_trajectory_csv"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through exit code 1 instead
    def error(self, message):
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w", newline="\n"), True


def _write_rows(header: str, rows, path: str | None) -> None:
    stream, owned = _open_out(path)
    try:
        stream.write(header + "\n")
        for row in rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")
    finally:
        if owned:
            stream.close()


def write_trajectory_csv(traj: Trajectory, model: str, path: str | None) -> None:
    """Write one row per node with 9-significant-digit values.

    Columns are ``t,q1,q2`` for the constant-delay model and
    ``t,q1,q2,m1,m2`` for the moving-average model.
    """
    if model == models.CONSTANT:
        header = "t,q1,q2"
        expected = 2
    elif model == models.MOVING_AVERAGE:
        header = "t,q1,q2,m1,m2"
        expected = 4
    else:
        raise ValueError(f"unknown model kind: {model!r}")
    if traj.dimension != expected:
        raise ValueError(f"trajectory dimension {traj.dimension} does not match "
                         f"model {model!r}")
    rows = ((t, *state) for t, state in zip(traj.times, traj.states))
    _write_rows(header, rows, path)


def write_hopf_curve_csv(points, path: str | None) -> None:
    rows = ((p.lam, p.delta_cr, p.omega, p.branch, p.validated) for p in points)
    _write_rows("lambda,delta_cr,omega,branch,validated", rows, path)


def write_sweep_csv(rows, path: str | None) -> None:
    data = ((r.lam, r.mu, r.delta, r.predicted, r.observed, r.amplitude, r.agree)
            for r in rows)
    _write_rows("lambda,mu,delta,predicted,observed,amplitude,agree", data, path)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qdelay",
                     description="Fluid models of parallel queues under delayed "
                                 "queue-length information")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p):
        p.add_argument("--model", required=True, choices=models.MODEL_KINDS)

    sim = sub.add_parser("simulate", help="integrate one scenario to CSV")
    add_model(sim)
    sim.add_argument("--lambda", dest="lam", type=float, required=True)
    sim.add_argument("--mu", type=float, required=True)
    sim.add_argument("--delta", type=float, required=True)
    sim.add_argument("--horizon", type=float, required=True)
    sim.add_argument("--step", type=float, default=None)
    sim.add_argument("--phi1", type=float, default=None)
    sim.add_argument("--phi2", type=float, default=None)
    sim.add_argument("--out", default=None)

    crit = sub.add_parser("critical-delay", help="report Hopf thresholds")
    add_model(crit)
    crit.add_argument("--lambda", dest="lam", type=float, required=True)
    crit.add_argument("--mu", type=float, required=True)
    crit.add_argument("--bracket", type=float, nargs=2, default=None,
                      metavar=("LO", "HI"))

    curve = sub.add_parser("hopf-curve", help="critical delay vs lambda to CSV")
    add_model(curve)
    curve.add_argument("--mu", type=float, required=True)
    curve.add_argument("--lambda-min", dest="lambda_min", type=float, required=True)
    curve.add_argument("--lambda-max", dest="lambda_max", type=float, required=True)
    curve.add_argument("--points", type=int, required=True)
    curve.add_argument("--out", default=None)

    sweep = sub.add_parser("sweep", help="classify a (lambda, delta) grid to CSV")
    add_model(sweep)
    sweep.add_argument("--mu", type=float, required=True)
    sweep.add_argument("--lambdas", required=True,
                       help="comma-separated arrival rates")
    sweep.add_argument("--deltas", required=True,
                       help="comma-separated delays")
    sweep.add_argument("--out", default=None)

    sub.add_parser("verify", help="run the built-in invariant suite")
    return parser


def _parse_grid(text: str, name: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise _UsageError(f"invalid --{name} list: {exc}") from None
    if not values:
        raise _UsageError(f"--{name} must contain at least one value")
    return values


def _cmd_simulate(args) -> int:
    params = models.ModelParams(lam=args.lam, mu=args.mu, delta=args.delta)
    if (args.phi1 is None) != (args.phi2 is None):
        raise _UsageError("--phi1 and --phi2 must be given together")
    traj = models.simulate(args.model, params, horizon=args.horizon,
                           step=args.step, phi1=args.phi1, phi2=args.phi2)
    write_trajectory_csv(traj, args.model, args.out)
    return 0


def _cmd_critical_delay(args) -> int:
    if args.model == models.CONSTANT:
        point = stability.critical_delay_constant(args.lam, args.mu)
        if point is None:
            print(f"no Hopf bifurcation: lambda <= 2*mu "
                  f"(lambda = {_fmt(args.lam)}, mu = {_fmt(args.mu)}); "
                  f"equilibrium stable for all delays")
        else:
            print(f"model=constant lambda={_fmt(point.lam)} mu={_fmt(point.mu)} "
                  f"delta_cr={_fmt(point.delta_cr)} omega={_fmt(point.omega)}")
        return 0
    bracket = tuple(args.bracket) if args.bracket is not None else None
    points = stability.critical_delay_ma(args.lam, args.mu, bracket=bracket)
    if not points:
        print("no validated Hopf root found in the delta range")
        return 0
    for p in points:
        print(f"model=moving-average lambda={_fmt(p.lam)} mu={_fmt(p.mu)} "
              f"branch={p.branch} delta_cr={_fmt(p.delta_cr)} omega={_fmt(p.omega)}")
    return 0


def _cmd_hopf_curve(args) -> int:
    points = stability.hopf_curve(args.model, args.mu,
                                  (args.lambda_min, args.lambda_max), args.points)
    write_hopf_curve_csv(points, args.out)
    return 0


def _cmd_sweep(args) -> int:
    lambdas = _parse_grid(args.lambdas, "lambdas")
    deltas = _parse_grid(args.deltas, "deltas")
    rows = analysis.sweep(args.model, args.mu, lambdas, deltas)
    write_sweep_csv(rows, args.out)
    disagreements = [r for r in rows if not r.agree]
    near = [r for r in rows if r.observed == analysis.INCONCLUSIVE]
    print(f"# {len(rows)} rows, {len(disagreements)} disagreements, "
          f"{len(near)} inconclusive", file=sys.stderr)
    for r in near:
        trend = "growing" if r.growing else "decaying"
        print(f"# inconclusive at lambda={_fmt(r.lam)} delta={_fmt(r.delta)}: "
              f"amplitude {_fmt(r.amplitude)}, {trend}", file=sys.stderr)
    return 0


def _verify_checks():
    p_fig = models.ModelParams(lam=10.0, mu=1.0, delta=0.4)

    def mnl_normalised():
        pairs = [(0.0, 0.0), (3.0, -2.0), (0.0, 800.0), (-700.0, 700.0), (5.5, 4.5)]
        worst = 0.0
        for a, b in pairs:
            w1, w2 = models.mnl_weights(a, b)
            if not (0.0 <= w1 <= 1.0 and 0.0 <= w2 <= 1.0):
                return False, f"weight outside [0, 1] at {(a, b)}"
            worst = max(worst, abs(w1 + w2 - 1.0))
        return worst <= 1e-15, f"max |w1 + w2 - 1| = {worst:.2e}"

    def equilibrium_fixed_point():
        q = models.equilibrium(p_fig)
        traj = models.simulate(models.CONSTANT, p_fig, horizon=20.0, phi1=q, phi2=q)
        dev = float(np.max(np.abs(traj.states - q)))
        return dev <= 1e-12, f"max deviation from equilibrium = {dev:.2e}"

    def conservation_constant():
        traj = models.simulate(models.CONSTANT, p_fig, horizon=100.0, phi1=5.5, phi2=4.5)
        dev = analysis.conservation_check(traj, p_fig)
        return dev < 1e-6, f"max |q1+q2 - s(t)| = {dev:.2e}"

    def conservation_ma():
        params = models.ModelParams(lam=10.0, mu=1.0, delta=4.0)
        traj = models.simulate(models.MOVING_AVERAGE, params, horizon=100.0,
                               phi1=6.0, phi2=4.5)
        dev = analysis.conservation_check(traj, params)
        return dev < 1e-6, f"max |q1+q2 - s(t)| = {dev:.2e}"

    def invariant_manifold():
        traj = models.simulate(models.CONSTANT, p_fig, horizon=50.0, phi1=7.0, phi2=7.0)
        dev = float(np.max(np.abs(traj.states[:, 0] - traj.states[:, 1])))
        return dev < 1e-12, f"max |q1 - q2| = {dev:.2e}"

    def swap_symmetry():
        a = models.simulate(models.CONSTANT, p_fig, horizon=50.0, phi1=5.5, phi2=4.5)
        b = models.simulate(models.CONSTANT, p_fig, horizon=50.0, phi1=4.5, phi2=5.5)
        ok = np.array_equal(a.states[:, 0], b.states[:, 1]) and \
            np.array_equal(a.states[:, 1], b.states[:, 0])
        return ok, "swapped histories swap the trajectories exactly"

    def residual_constant():
        worst = 0.0
        for mu in (0.5, 1.0):
            for point in stability.hopf_curve(models.CONSTANT, mu, (2.5, 100.0), 20):
                res = stability.characteristic_residual_constant(
                    1j * point.omega, point.lam, point.mu, point.delta_cr)
                worst = max(worst, abs(res))
        return worst < 1e-9, f"max |residual(i omega)| = {worst:.2e}"

    def residual_ma():
        worst = 0.0
        count = 0
        for lam in (10.0, 30.0, 100.0):
            for point in stability.critical_delay_ma(lam, 1.0):
                res = stability.characteristic_residual_ma(
                    1j * point.omega, point.lam, point.mu, point.delta_cr)
                worst = max(worst, abs(res))
                count += 1
        return (count > 0 and worst < 1e-8), \
            f"{count} roots, max |residual| = {worst:.2e}"

    def crossing_direction():
        eps = 1e-3
        points = [(models.CONSTANT, stability.critical_delay_constant(lam, mu))
                  for lam, mu in ((10.0, 1.0), (20.0, 2.0))]
        points += [(models.MOVING_AVERAGE, p) for p in stability.critical_delay_ma(10.0, 1.0)]
        signs = []
        for model, p in points:
            rate = stability.crossing_rate(model, p.lam, p.mu, p.delta_cr,
                                           1j * p.omega).real
            for delta1 in (eps, -eps):
                root = stability.root_track(model, p.lam, p.mu, p.delta_cr + delta1,
                                            1j * p.omega)
                if math.copysign(1.0, root.real) != math.copysign(1.0, rate * delta1):
                    return False, (f"sign mismatch for {model} at lambda={p.lam}, "
                                   f"delta_cr={p.delta_cr:.6g}, delta1={delta1}")
            signs.append(1 if rate > 0.0 else -1)
        # the moving-average pair at (10, 1) enters, then leaves, the right half-plane
        ok = signs[-2:] == [1, -1]
        return ok, ("root-tracking signs match crossing_rate; moving-average "
                    f"(10, 1) crossings {signs[-2]:+d}, {signs[-1]:+d}")

    def regime_boundary():
        params = models.ModelParams(lam=10.0, mu=1.0, delta=0.34)
        eps_sync, eps_osc = analysis.default_thresholds(params)
        lo = analysis.classify_stability(
            models.simulate(models.CONSTANT, params, horizon=200.0),
            0.5, eps_sync, eps_osc)
        hi_params = models.ModelParams(lam=10.0, mu=1.0, delta=0.40)
        hi = analysis.classify_stability(
            models.simulate(models.CONSTANT, hi_params, horizon=200.0),
            0.5, eps_sync, eps_osc)
        ok = (lo.classification == analysis.SYNCHRONIZED
              and hi.classification == analysis.OSCILLATORY)
        return ok, (f"delta=0.34 -> {lo.classification}, "
                    f"delta=0.40 -> {hi.classification}")

    def threshold_vs_simulation():
        point = stability.critical_delay_constant(10.0, 1.0)
        flip = analysis.locate_transition(models.CONSTANT, 10.0, 1.0,
                                          0.5 * point.delta_cr, 1.5 * point.delta_cr)
        rel = abs(flip - point.delta_cr) / point.delta_cr
        return rel < 0.05, f"simulated flip {flip:.4f} vs analytic " \
                           f"{point.delta_cr:.4f} ({100 * rel:.1f}%)"

    def order_four():
        params = models.ModelParams(lam=10.0, mu=1.0, delta=0.4)
        q = models.equilibrium(params)

        def max_err(h):
            traj = models.simulate(models.CONSTANT, params, horizon=4.0, step=h,
                                   phi1=7.0, phi2=7.0)
            exact = q + (7.0 - q) * np.exp(-params.mu * traj.times)
            return float(np.max(np.abs(traj.states[:, 0] - exact)))

        ratio = max_err(0.05) / max_err(0.025)
        return 12.0 < ratio < 20.0, f"error ratio h vs h/2 = {ratio:.2f} (~16 expected)"

    return [
        ("mnl-weights-normalised", mnl_normalised),
        ("equilibrium-fixed-point", equilibrium_fixed_point),
        ("conservation-constant", conservation_constant),
        ("conservation-moving-average", conservation_ma),
        ("invariant-manifold", invariant_manifold),
        ("swap-symmetry", swap_symmetry),
        ("hopf-residual-constant", residual_constant),
        ("hopf-residual-moving-average", residual_ma),
        ("crossing-direction", crossing_direction),
        ("regime-boundary", regime_boundary),
        ("threshold-vs-simulation", threshold_vs_simulation),
        ("order-4-convergence", order_four),
    ]


def _cmd_verify(args) -> int:
    failures = 0
    for name, check in _verify_checks():
        try:
            ok, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}: {detail}")
        if not ok:
            failures += 1
    print(f"{failures} failed" if failures else "all checks passed")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "critical-delay": _cmd_critical_delay,
    "hopf-curve": _cmd_hopf_curve,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    """Dispatch a command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if code is not None else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailureError, stability.ConvergenceError, OSError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
