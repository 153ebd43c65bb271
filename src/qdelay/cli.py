"""Command-line surface: simulate scenarios, report critical delays, trace
Hopf curves, run regime sweeps, and self-verify the numerics.

All configuration is by flags; CSV goes to --out or standard output.  Exit
codes: 0 success, 1 usage or validation error, 2 numerical failure or an
output that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
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


def _write_lines(header: str, blocks, path: str | None) -> None:
    stream, owned = _open_out(path)
    try:
        stream.write(header + "\n")
        for block in blocks:
            stream.write(block)
    finally:
        if owned:
            stream.close()


def _write_rows(header: str, rows, path: str | None) -> None:
    _write_lines(header, (",".join(_fmt(v) for v in row) + "\n" for row in rows), path)


# rows formatted per write_trajectory_csv block; bounds the text held at once
_CSV_CHUNK_ROWS = 1024

# Text pieces of the block formatter are little-endian 4-byte words whose
# NUL bytes are pads, dropped once the block is assembled.  _text_table()
# holds the 4-digit groups 0000..9999 in full, with leading zeros blanked
# (the units digit kept), and with trailing zeros blanked (0 all blank),
# then the sign-and-top-digit words and the decimal point.  It is built on
# first use, so importing cli costs no table.
_LEAD, _TRAIL, _HEAD, _DOT = 10000, 20000, 30000, 30020


def _ascii_words(texts) -> np.ndarray:
    return np.array([int.from_bytes(t.encode("ascii").ljust(4, b"\0"), "little")
                     for t in texts], dtype="<u4")


@functools.cache
def _text_table() -> np.ndarray:
    v = np.arange(10000, dtype="<u4")
    full = (v // 1000 + 48) | (v // 100 % 10 + 48) << 8 \
        | (v // 10 % 10 + 48) << 16 | (v % 10 + 48) << 24
    byte = np.uint32(0xFF)
    lead = full & ((v >= 1000) * byte | (v >= 100) * (byte << 8)
                   | (v >= 10) * (byte << 16) | byte << 24)
    trail = full & ((v > 0) * byte | (v % 1000 > 0) * (byte << 8)
                    | (v % 100 > 0) * (byte << 16) | (v % 10 > 0) * (byte << 24))
    # _HEAD + 10 * negative + top digit: the sign, then the 9th integer digit
    heads = [sign + "\0\0" + str(top) if top else sign
             for sign in ("", "-") for top in range(10)]
    table = np.concatenate([full, lead, trail, _ascii_words(heads + ["", "."])])
    table.flags.writeable = False
    return table


_COMMA, _NEWLINE = _ascii_words([",", "\n"])
# exact: the integers 10^k, k <= 13, are below 2^53
_POW10 = np.array([float(10 ** k) for k in range(14)])


def _fast_rows(chunk: np.ndarray) -> str | None:
    """``_percent_rows(chunk)`` by numpy, or None when a value leaves the
    domain where the two provably agree (see ``write_trajectory_csv``)."""
    rows, cols = chunk.shape
    x = chunk.ravel()
    a = np.abs(x)
    if not a.max() < 1e9:
        return None
    # zeros take the exponent of 1 and get the mantissa 0 once k is checked
    zero = a == 0.0
    a[zero] = 1.0
    # k = 8 - e decimal places put the 9-digit mantissa d = a 10^k in
    # [1e8, 1e9); floor(log10 a) is off by at most one, so one correction
    # does it, except where k is clipped at 13, which the k check refuses
    k = np.clip(8 - np.floor(np.log10(a)).astype(np.int64), 0, 13)
    d = a * _POW10[k]
    low, high = d < 1e8, d >= 1e9
    if low.any() or high.any():
        k += low
        k -= high
        np.clip(k, 0, 13, out=k)
        d = a * _POW10[k]
    n = np.rint(d)
    if not np.abs(d - n).max() < 0.5 - 1e-6:
        return None
    carry = n == 1e9
    n[carry] = 1e8
    k -= carry
    if not (k.min() >= 0 and k.max() <= 12):
        return None
    n[zero] = 0.0
    # the value is n 10^-k: integer part ip < 1e9, 12-digit fraction f < 1e12
    scale = _POW10[k]
    ip = np.floor(n / scale)
    f = ((n - ip * scale) * _POW10[12 - k]).astype(np.int64)
    ip = ip.astype(np.int64)
    q = ip // 10000
    i0 = ip - q * 10000
    i2 = q // 10000
    i1 = q - i2 * 10000
    q = f // 10000
    f0 = f - q * 10000
    f2 = q // 10000
    f1 = q - f2 * 10000
    # words: sign and 9th integer digit; integer digits 8-5, blank below 1e4
    # (there i1 = 0 and the index 2 _LEAD = _TRAIL is the blank _TRAIL + 0);
    # integer digits 4-1; "."; fraction digits 1-4, 5-8 and 9-12; separator
    small = ip < 10000
    text = _text_table()
    words = np.empty((x.size, 8), dtype="<u4")
    words[:, 0] = text[_HEAD + 10 * np.signbit(x) + i2]
    words[:, 1] = text[i1 + _LEAD * (ip < 100000000) + _LEAD * small]
    words[:, 2] = text[i0 + _LEAD * small]
    words[:, 3] = text[_DOT + (f > 0)]
    words[:, 4] = text[f2 + _TRAIL * ((f1 | f0) == 0)]
    words[:, 5] = text[f1 + _TRAIL * (f0 == 0)]
    words[:, 6] = text[f0 + _TRAIL]
    separators = words.reshape(rows, cols, 8)[:, :, 7]
    separators[:] = _COMMA
    separators[:, -1] = _NEWLINE
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _percent_rows(chunk: np.ndarray) -> str:
    # "%.9g" of a Python float is the text _fmt gives it
    row = ",".join(["%.9g"] * chunk.shape[1]) + "\n"
    return (row * chunk.shape[0]) % tuple(chunk.ravel().tolist())


def _trajectory_blocks(traj: Trajectory):
    nodes = traj.states.shape[0]
    for start in range(0, nodes, _CSV_CHUNK_ROWS):
        stop = min(start + _CSV_CHUNK_ROWS, nodes)
        # the node times k * step, as Trajectory.times gives them
        chunk = np.column_stack((np.arange(start, stop) * traj.step, traj.states[start:stop]))
        text = _fast_rows(chunk)
        yield _percent_rows(chunk) if text is None else text


def write_trajectory_csv(traj: Trajectory, path: str | None) -> None:
    """Write one row per node, each value as ``"%.9g"`` formats it.

    Columns are ``t,q1,q2`` for a 2-dimensional trajectory (constant-delay
    model) and ``t,q1,q2,m1,m2`` for a 4-dimensional one (moving-average
    model); any other dimension is a ``ValueError``.  Rows are formatted
    and written in blocks of ``_CSV_CHUNK_ROWS``, by numpy where that gives
    the bytes of ``"%.9g"`` and by the ``%`` operator otherwise.

    Why the numpy text is exact: for ``a = |x| > 0`` with ``k`` decimal
    places, ``0 <= k <= 12``, the power ``10^k`` is exact in float64, so
    ``d = fl(a 10^k)`` in ``[1e8, 1e9)`` lies within ``1e9 2^-53 < 1.2e-7``
    of the exact product, and ``rint(d)`` is the correctly rounded 9-digit
    mantissa ``n`` unless ``d`` lies within 1.2e-7 of a half-integer.
    ``%g`` writes fixed notation exactly when the rounded exponent
    ``e = 8 - k`` lies in ``[-4, 8]``.  The value ``n 10^-k`` is then split
    into an integer part below 1e9 and a 12-digit fraction below 1e12.
    Both steps are exact: ``n / 10^k`` is correctly rounded and lies at
    least ``10^-k`` below the next integer, far more than its rounding
    error, so its floor is the integer part; every other operand is an
    integer below 2^53, split further by int64 division.  The digits are
    looked up in 4-digit tables with the integer's leading and the
    fraction's trailing zeros blanked; ``.`` is written only before a
    nonzero fraction and ``-`` wherever the sign bit is set, so ``-0.0``
    prints ``-0``.

    Fallback rule: a block takes the numpy path only if every value is zero
    or is finite with a final ``e`` in ``[-4, 8]`` and
    ``|d - floor(d) - 0.5| > 1e-6``; any other block is formatted value by
    value with ``"%.9g"``.
    """
    header = {2: "t,q1,q2", 4: "t,q1,q2,m1,m2"}.get(traj.dimension)
    if header is None:
        raise ValueError(f"trajectory dimension {traj.dimension}: expected 2 or 4")
    _write_lines(header, _trajectory_blocks(traj), path)


def write_hopf_curve_csv(points, path: str | None) -> None:
    rows = ((p.lam, p.delta_cr, p.omega, p.branch, p.validated) for p in points)
    _write_rows("lambda,delta_cr,omega,branch,validated", rows, path)


def write_sweep_csv(rows, path: str | None) -> None:
    data = ((r.lam, r.mu, r.delta, r.predicted, r.observed, r.amplitude, r.agree)
            for r in rows)
    _write_rows("lambda,mu,delta,predicted,observed,amplitude,agree", data, path)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and reused: parsing
    reads it without changing it, and each call gets a fresh namespace."""
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
                      metavar=("LO", "HI"), help="moving-average model only")

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
    write_trajectory_csv(traj, args.out)
    return 0


def _cmd_critical_delay(args) -> int:
    if args.model == models.CONSTANT:
        if args.bracket is not None:
            raise _UsageError("--bracket applies only to the moving-average model")
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
    if not points and bracket is not None:
        print(f"no Hopf point in the delta range [{_fmt(bracket[0])}, {_fmt(bracket[1])}]")
    elif not points:
        print(f"no Hopf bifurcation (lambda = {_fmt(args.lam)}, mu = {_fmt(args.mu)}); "
              f"equilibrium stable for all delays")
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
    for r in rows:
        if r.observed == analysis.FAILED:
            print(f"# failed at lambda={_fmt(r.lam)} delta={_fmt(r.delta)}: {r.error}",
                  file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    # imported here, so that importing qdelay or its command line skips it
    from . import checks

    failures = 0
    for name, check in checks.SUITE:
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
    except (NumericalFailureError, stability.ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        raise  # for main, which treats a closed pipe as the end of the output
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
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
