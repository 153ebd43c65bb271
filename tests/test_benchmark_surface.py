"""The benchmark workloads against the qdelay API they call.

``perfbench/workloads.py`` builds its items from, and checks its results
with, public qdelay functions and fields (``HopfPoint.validated``,
``SweepRow.observed``, ``cli.run``, ...).  Renaming or reshaping one of
them must fail here, not only when the benchmark runs.  Agreement with the
reference oracle is a benchmark metric, not a gate, so only its range is
checked.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

SEED = 1


def _check_items(workload, items):
    for item in items:
        result = workload.run(item)
        assert workload.gate(item, result) == []
        assert workload.failed(item, result) == 0
        agreed, _ = workload.agree(item, result)
        assert 0 <= agreed <= workload.size(item)
        again = workload.run(item)
        assert workload.fingerprint(again) == workload.fingerprint(result)


def test_hopf_thresholds_every_item():
    workload = workloads.HopfThresholds(SEED)
    workload.warm_up()
    _check_items(workload, workload.items)


@pytest.mark.parametrize("name", ["regime-sweep", "trajectory-export"])
def test_first_item(name, tmp_path):
    # the first item of each model, so that both difference kernels run
    cls = workloads.WORKLOADS[name]
    workload = cls(SEED, tmp_path) if cls is workloads.TrajectoryExport else cls(SEED)
    workload.warm_up()
    firsts = [next(item for item in workload.items if item["model"] == model)
              for model in (workloads.CONSTANT, workloads.MOVING_AVERAGE)]
    _check_items(workload, firsts)
