"""The benchmark's own self-test, run as part of the unit tests.

``perfbench/selftest.py`` runs every workload at small sizes and checks its
digest, its tracing and its declared metrics. A refactor that breaks a
probe, a traced attribute or a declared metric then fails here, not only
when the benchmark runs. Standalone: ``python3 perfbench/selftest.py``.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from selftest import DeclaredMetricsTest, DigestTest, TracingTest  # noqa: E402,F401
