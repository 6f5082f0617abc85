"""Record the stored references in bench/reference.json for some seeds.

    PYTHONPATH=src:bench python3 bench/make_reference.py 0 1 2 ...

bnb-prove optima come from the exhaustive oracle `solve_bruteforce(cap=16)`,
never from `solve_bnb`; heuristic-large best-known values from a 32-restart
`multistart`; ilp-roundtrip goldens (LP digests, violated rows, first bad
triple) from the code at the time of recording. It takes minutes per seed.
Existing entries are kept; the file is rewritten after every seed.
"""

import json
import sys
from pathlib import Path

from mdgp import multistart, solve_bruteforce

import oracle
import workloads as wl

PATH = Path(__file__).resolve().parent / "reference.json"


def record(workload: str, spec: dict) -> dict:
    inst = wl.load(spec)
    if workload == "bnb-prove":
        res = solve_bruteforce(inst, cap=16)
        return {"optimum": res.value, "groups": [list(g) for g in res.grouping.groups]}
    if workload == "heuristic-large":
        return {"best_known": multistart(inst, wl.BEST_KNOWN_RESTARTS, 0).value}
    ref, problems = wl.ilp_reference(inst, oracle.distances(wl.spec_text(spec)))
    if problems:
        raise SystemExit(f"{wl.spec_key(spec)}: {problems}")
    return {k: ref[k] for k in ("lp_sha256", "violated", "bad_triple", "greedy_groups")}


def main(seeds: list[int]):
    stored = json.loads(PATH.read_text()) if PATH.exists() else {}
    for seed in seeds:
        for workload in wl.WORKLOADS:
            for spec in wl.instance_specs(workload, seed):
                key = wl.spec_key(spec)
                if key not in stored:
                    stored[key] = dict(record(workload, spec), workload=workload)
        tmp = PATH.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
        tmp.replace(PATH)
        print(f"seed {seed}: {len(stored)} stored instances", flush=True)


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
