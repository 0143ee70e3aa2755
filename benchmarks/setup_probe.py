"""Time stokin's set-up in a fresh process.

Usage: ``python3 setup_probe.py SRC_DIR SCENARIO``.  Prints the seconds taken
by ``import stokin`` plus ``load_scenario``, ``build_parameters`` and
``build_initial``; interpreter start-up is not included.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import stokin  # noqa: E402

scenario = stokin.load_scenario(sys.argv[2])
scenario.build_initial(scenario.build_parameters())
print(repr(time.perf_counter() - start))
