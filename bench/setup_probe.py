"""Set-up of one workload in a fresh process: `import mdgp`, then generate and
parse every instance. Prints one JSON line of phase times in seconds.

Usage: python3 bench/setup_probe.py <workload> <seed>
Only the standard library is imported before the clock starts.
"""

import json
import sys
import time

start = time.perf_counter()
import mdgp  # noqa: E402
from mdgp.cli import gen_instance, parse_instance  # noqa: E402

import_s = time.perf_counter() - start

from workloads import instance_specs, metric_of  # noqa: E402

gen_s = parse_s = distance_s = 0.0
setup_s = import_s
for spec in instance_specs(sys.argv[1], int(sys.argv[2])):
    t0 = time.perf_counter()
    text = gen_instance(spec["n"], spec["g"], spec["a"], spec["b"], spec["kind"], spec["gen_seed"])
    t1 = time.perf_counter()
    loaded = parse_instance(text, metric_of(spec["kind"]))
    t2 = time.perf_counter()
    # parse_instance builds the distance matrix itself; time one more build
    # alone to split parsing from the distance layer
    mdgp.distance_matrix(loaded.table, metric_of(spec["kind"]))
    t3 = time.perf_counter()
    gen_s += t1 - t0
    parse_s += (t2 - t1) - (t3 - t2)
    distance_s += t3 - t2
    setup_s += t2 - t0

print(json.dumps({"setup_s": setup_s, "import_s": import_s, "cli.gen_s": gen_s,
                  "cli.parse_s": parse_s, "core.distance_s": distance_s}))
