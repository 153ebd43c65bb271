"""Fluid models of parallel queues under delayed queue-length information.

Customers pick one of two identical queues through a multinomial logit rule
applied either to queue lengths reported with a constant delay or to their
running window average.  The package integrates both delay-differential
systems, computes the Hopf thresholds where the symmetric equilibrium loses
stability, and classifies simulated runs as synchronized or oscillatory.
"""

from .analysis import (
    INCONCLUSIVE,
    OSCILLATORY,
    SYNCHRONIZED,
    StabilityVerdict,
    SweepRow,
    classify_difference,
    classify_stability,
    conservation_check,
    default_thresholds,
    locate_transition,
    sweep,
)
from .dde import (
    NumericalFailureError,
    Trajectory,
    integrate,
)
from .models import (
    CONSTANT,
    MODEL_KINDS,
    MOVING_AVERAGE,
    ModelParams,
    constant_delay_rhs,
    default_step,
    equilibrium,
    ma_from_trajectory,
    ma_rhs,
    mnl_weights,
    simulate,
    simulate_difference,
    simulate_reference,
)
from .stability import (
    ConvergenceError,
    HopfPoint,
    characteristic_residual_constant,
    characteristic_residual_ma,
    critical_delay_constant,
    critical_delay_ma,
    crossing_rate,
    hopf_curve,
    hopf_points,
    ma_candidate_roots,
    ma_threshold_function,
    root_track,
    unstable_delays,
)

__version__ = "0.1.0"
