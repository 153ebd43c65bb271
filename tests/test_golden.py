"""CLI outputs byte for byte against stored goldens.

Each file under ``tests/golden`` is the standard output of one command, so
a change that moves any printed digit of a threshold, a Hopf curve or a
sweep row fails here.  To regenerate one on purpose, run its command with
``PYTHONPATH=src python -m qdelay ... > tests/golden/NAME``.
"""

from pathlib import Path

import pytest

from qdelay.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

_HOPF_CURVE = ["--mu", "1", "--lambda-min", "2.5", "--lambda-max", "100", "--points", "20"]
_SWEEP = ["--mu", "1", "--lambdas", "3,10,40", "--deltas", "0.2,1,2.5,6"]

COMMANDS = {
    "critical-delay_constant_10_1.txt":
        ["critical-delay", "--model", "constant", "--lambda", "10", "--mu", "1"],
    "critical-delay_moving-average_10_1.txt":
        ["critical-delay", "--model", "moving-average", "--lambda", "10", "--mu", "1"],
    "critical-delay_moving-average_1000_1_bracket.txt":
        ["critical-delay", "--model", "moving-average", "--lambda", "1000", "--mu", "1",
         "--bracket", "1e-6", "1000"],
    "hopf-curve_constant.csv": ["hopf-curve", "--model", "constant"] + _HOPF_CURVE,
    "hopf-curve_moving-average.csv": ["hopf-curve", "--model", "moving-average"] + _HOPF_CURVE,
    "sweep_constant.csv": ["sweep", "--model", "constant"] + _SWEEP,
    "sweep_moving-average.csv": ["sweep", "--model", "moving-average"] + _SWEEP,
}


def test_every_golden_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_golden(name, capsysbinary):
    assert run(COMMANDS[name]) == 0
    assert capsysbinary.readouterr().out == (GOLDEN / name).read_bytes()
