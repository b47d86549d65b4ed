"""The benchmark's probes still find the program functions they patch.

``perfbench`` patches functions by module and name. A refactor that renames
or inlines one of them would otherwise fail only when the benchmark runs.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_probes_find_a_site(name):
    with tracing.step_probes(tracing.StepClock(), WORKLOADS[name].step_targets):
        pass
    with tracing.captured("diffusion", "sample"):
        pass
