"""Time what every `failwave run` pays before step 1, in a fresh process:
`import failwave`, `build_scenario` on the YAML text and `initialize_state`.

Usage: python3 perfbench/setup_probe.py <scenario.yaml>
Prints the seconds taken.
"""

import sys
import time

import env

with open(sys.argv[1]) as fh:
    text = fh.read()
sys.path.insert(0, str(env.SRC))
t0 = time.perf_counter()
import failwave  # noqa: E402

cfg = failwave.build_scenario(text)
failwave.initialize_state(cfg)
print(repr(time.perf_counter() - t0))
