"""One cold start: import tracetwist and build a workload's inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
``run.py`` times this script from outside, several times, for ``setup_s``.
"""

import sys

import tracetwist  # noqa: F401  (the import is what is being timed)
import tracetwist.cli  # noqa: F401
import workloads

workloads.build_inputs(sys.argv[1], int(sys.argv[2]))
