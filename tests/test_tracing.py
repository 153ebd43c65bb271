"""The benchmark tracer against the names it patches.

``perfbench/tracing.py`` wraps qdelay functions at the module attributes
their callers resolve.  Renaming or deleting one of them must fail here,
not only when the benchmark runs with ``--trace 1``.
"""

import sys
from pathlib import Path

from qdelay import CONSTANT, MOVING_AVERAGE, ModelParams, models, stability

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_tracer_installs_and_restores_every_patch():
    tracer = tracing.Tracer()
    with tracer:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert owner.__dict__[attr] is not original, f"{attr} not wrapped"
    for owner, attr, original in patches:
        assert owner.__dict__[attr] is original, f"{attr} not restored"
    assert not tracer._patches


def test_traced_reference_counts_the_model_rhs():
    # simulate_reference reaches integrate and both right-hand sides through
    # the module globals, where the tracer wraps them
    with tracing.Tracer() as tracer:
        tracer.begin_round()
        for model, delta in ((CONSTANT, 0.4), (MOVING_AVERAGE, 2.0)):
            models.simulate_reference(model, ModelParams(10.0, 1.0, delta), 1.0)
        tracer.end_round()
    spans, hot = tracer.rounds[0]
    names = [span[1] for span in spans]
    assert names.count("dde.integrate") == 2
    rhs_calls = sum(v[0] for (name, _), v in hot.items() if name == "models.rhs")
    # one call at node 0 and four per step, 100 steps of h = 0.01 per run
    assert rhs_calls == 2 * (1 + 4 * 100)


def test_traced_hopf_curve_counts_the_critical_delays():
    # hopf_points reaches both critical-delay functions through the module
    # globals: one traced call per grid point
    with tracing.Tracer() as tracer:
        tracer.begin_round()
        stability.hopf_curve(MOVING_AVERAGE, 1.0, (10.0, 20.0), 3)
        stability.hopf_curve(CONSTANT, 1.0, (10.0, 20.0), 2)
        tracer.end_round()
    names = [span[1] for span in tracer.rounds[0][0]]
    assert names.count("stability.critical_delay_ma") == 3
    assert names.count("stability.critical_delay_constant") == 2
