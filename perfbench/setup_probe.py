"""Time the set-up of one workload in a fresh process.

    python3 perfbench/setup_probe.py WORKLOAD

with gwimm's `src` directory on PYTHONPATH.  Set-up is `import gwimm,
gwimm.cli` plus the first-call builds of the lazily cached tables on the
workload's path (`warm()` in workloads.py).  Prints one JSON line with
`import_s` and `setup_s`.
"""

import json
import sys
import time

t0 = time.perf_counter()
import gwimm  # noqa: E402,F401
import gwimm.cli  # noqa: E402,F401
t1 = time.perf_counter()

import workloads  # noqa: E402

t2 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].warm()
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)}))
