"""mdgp benchmark: a single-threaded closed loop over seeded instances.

    python3 bench/run.py --workload bnb-prove --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --report bench/out/results.jsonl
    python3 bench/run.py --compare OLD.jsonl NEW.jsonl

A run measures set-up in fresh processes, computes the references for its
instances (untimed), then times the workload's operation in a fresh child
process and checks every result. It prints one row of metrics, appends the
full record to the results file (--out) and ends with one JSON line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Workloads, metrics and bounds are listed in BENCHMARK.json at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
DEFAULT_OUT = BENCH / "out" / "results.jsonl"
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0
# Threads of BLAS/OpenMP would compete with the measured single thread on a
# small machine, so every process of the benchmark is pinned to one.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREAD_ENV,
    }


def read_records(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(ln) for ln in path.read_text().splitlines() if ln.strip()]


def setup_times(workload: str, seed: int, deadline: float) -> list[dict]:
    """One untimed warm-up (it may compile bytecode), then SETUP_REPEATS
    fresh processes that each import the package and load every instance."""
    runs = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            env=child_env(), capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return runs[1:]


def references(workload: str, seed: int, trace: bool) -> tuple[dict, dict, list[str]]:
    """Reference for every instance the run (and, traced, its companions)
    will use: (specs by workload, references by instance key, problems)."""
    import workloads as wl

    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    specs = {workload: wl.instance_specs(workload, seed)}
    if trace:
        for other in companions(workload):
            specs[other] = wl.instance_specs(other, seed)[:1]
    refs, problems = {}, []
    for name, lst in specs.items():
        for spec in lst:
            key = wl.spec_key(spec)
            refs[key], found = wl.compute_reference(name, spec, stored.get(key), trace)
            problems += [f"{key} reference: {p}" for p in found]
    return specs, refs, problems


def companions(workload: str) -> list[str]:
    """Workloads whose first instance a traced run borrows, so that every
    per-layer metric is measured in every traced run: bnb-prove supplies the
    solver (and heuristic replay), ilp-roundtrip the model and decode layers."""
    return [w for w in ("bnb-prove", "ilp-roundtrip") if w != workload]


def child_main() -> int:
    """Timed part of a run, in its own process so peak RSS is the workload's."""
    import resource

    import workloads as wl

    job = json.load(sys.stdin)
    out = {}
    for name, specs in job["specs"].items():
        own = name == job["workload"]
        res = wl.run(name, job["seed"], job["seconds"] if own else 0.0, job["trace"], job["refs"], specs)
        if job["trace"]:
            res["layers"] = wl.layer_metrics(name, res)
            if own:
                spans_path = Path(job["spans_path"])
                spans_path.parent.mkdir(parents=True, exist_ok=True)
                with open(spans_path, "w") as fh:
                    for s in res["spans"]:
                        fh.write(json.dumps(dict(zip(("id", "name", "start", "end", "parent", "op"), s))) + "\n")
            del res["spans"]
        if own:
            res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            res.update(wl.end_to_end(res))
        out[name] = res
    json.dump(out, sys.stdout)
    return 0


def exact_mismatches(record: dict, earlier: list[dict]) -> list[str]:
    """Exact counts must repeat in every run of the same code and seed."""
    found = []
    for old in earlier:
        if (old["workload"], old["seed"], old["code"]) != (record["workload"], record["seed"], record["code"]):
            continue
        for key, counts in record["exact"].items():
            if key in old["exact"] and old["exact"][key] != counts:
                found.append(f"{key}: exact counts {old['exact'][key]} in an earlier run, now {counts}")
        if record["trace"] and old["trace"]:
            for name in ("solver.bound_slack_pct", "quality_gap_pct"):
                a, b = old["layers"].get(name), record["layers"].get(name)
                if a is not None and b is not None and a != b:
                    found.append(f"{name} was {a!r} in an earlier run, now {b!r}")
    return found


def tracing_overhead(record: dict, earlier: list[dict]):
    """Traced over untraced time of the same operations (same code and seed),
    in percent; None until both kinds of run exist."""
    untraced = [r["metrics"]["op_s"] for r in earlier
                if not r["trace"] and (r["workload"], r["seed"], r["code"]) ==
                (record["workload"], record["seed"], record["code"])]
    if not record["trace"] or not untraced:
        return None
    return 100.0 * (record["traced_op_s"] / statistics.median(untraced) - 1.0)


def run_main(args) -> int:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if not (SRC / "mdgp" / "__init__.py").exists():
        print(f"bench: no package sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads as wl

    spec = json.loads(SPEC.read_text())
    if args.workload not in wl.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    trace = bool(args.trace)

    setups = setup_times(args.workload, args.seed, deadline)
    specs, refs, problems = references(args.workload, args.seed, trace)
    job = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": trace,
           "specs": specs, "refs": refs,
           "spans_path": str(args.out.parent / f"spans-{args.workload}-{args.seed}.jsonl")}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--child"], input=json.dumps(job),
        env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 1
    results = json.loads(proc.stdout)
    res = results[args.workload]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": trace,
        "code": wl.code_hash(SRC), "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine(), "instances": res["instances"], "exact": res["exact"],
        "setup_runs": setups,
    }
    setup = {k: statistics.median(r[k] for r in setups) for k in setups[0]}
    if trace:
        layers = {}
        for name in companions(args.workload):
            layers.update(results[name]["layers"])
        layers.update(res["layers"])
        layers.update({k: v for k, v in setup.items() if k != "setup_s"})
        record["layers"] = layers
        record["traced_op_s"] = res["op_s"]
    else:
        record["metrics"] = {"setup_s": setup["setup_s"], "op_s": res["op_s"], "total_s": res["total_s"],
                             "peak_rss_mb": res["peak_rss_mb"]}

    earlier = read_records(args.out)
    problems += exact_mismatches(record, earlier)
    record["machine"]["tracing_overhead_pct"] = tracing_overhead(record, earlier)
    # every operation (and, traced, every probe and companion operation)
    # counts once; so does every reference or exact-repeat check that failed
    attempted = sum(r["attempted"] for r in results.values()) + len(problems)
    failed = sum(r["failed"] for r in results.values()) + len(problems)
    problems += [f for r in results.values() for f in r["failures"]]
    record.update(attempted=attempted, failed=failed, failures=problems)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    group = "per_layer" if trace else "end_to_end"
    values = record["layers"] if trace else record["metrics"]
    missing = [m["name"] for m in spec[group] if m["name"] not in values]
    if missing:
        print(f"bench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[group]}
    for p in problems:
        print(f"FAILED {p}")
    print_instances(record)
    print(f"machine {json.dumps(record['machine'])}")
    print_row(args.workload, metrics, failed, attempted)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def print_instances(record: dict):
    for key, inst in record["instances"].items():
        tail = inst["tail"]
        tail_txt = f"p{tail['pct']}={tail['value_s']:.4f}s" if tail else "no percentile with 10 samples beyond"
        print(f"  {key:<40} median={inst['median_s']:.4f}s {tail_txt} n={inst['n']}")


def print_row(workload: str, metrics: dict, failed: int, attempted: int):
    cells = [f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    cells.append(f"failed_share={failed / attempted:.3g}")
    print(f"{workload:<16} " + "  ".join(cells))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(records: list[dict], trace: bool) -> dict:
    """{workload: {metric: [values]}} over the runs of one kind."""
    out: dict = {}
    for r in records:
        if r["trace"] != trace:
            continue
        values = r["layers"] if trace else dict(r["metrics"], failed_share=r["failed"] / r["attempted"])
        for name, v in values.items():
            out.setdefault(r["workload"], {}).setdefault(name, []).append(v)
    return out


def report_main(path: Path) -> int:
    """One row per workload: the median of every metric over the runs in a
    results file, end-to-end first, then per-layer."""
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_share"] = ""
    records = read_records(path)
    for trace in (False, True):
        for workload, metrics in summarise(records, trace).items():
            cells = [f"{n}={statistics.median(v):.6g} {units.get(n, '')}".rstrip() for n, v in metrics.items()]
            runs = len(next(iter(metrics.values())))
            print(f"{workload:<16} {'traced' if trace else 'untraced'} runs={runs}  " + "  ".join(cells))
    return 0


def compare_main(old_path: Path, new_path: Path) -> int:
    """Median and quartiles of each side; flags end-to-end regressions beyond
    the bounds in BENCHMARK.json and any optimum that changed."""
    spec = json.loads(SPEC.read_text())
    old, new = read_records(old_path), read_records(new_path)
    flags = []
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        a, b = summarise(old, trace), summarise(new, trace)
        for workload in sorted(set(a) & set(b)):
            for m in spec[group]:
                name = m["name"]
                if name not in a[workload] or name not in b[workload]:
                    continue
                qa, qb = quartiles(a[workload][name]), quartiles(b[workload][name])
                line = (f"{workload:<16} {name:<26} old {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                        f"  new {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']}")
                if "bound" in m:
                    worse = qb[1] - qa[1] if m["better"] == "lower" else qa[1] - qb[1]
                    spread = (qa[2] - qa[0]) / qa[1] if qa[1] else float("inf")
                    if worse > m["bound"] * qa[1]:
                        line += "  REGRESSION"
                        flags.append(f"{workload} {name}")
                    elif spread > m["bound"]:
                        line += "  unresolved (old spread beyond bound)"
                print(line)
    optima_old = {(r["seed"], k): c["value"] for r in old if r["workload"] == "bnb-prove" for k, c in r["exact"].items()}
    for r in new:
        if r["workload"] != "bnb-prove":
            continue
        for k, c in r["exact"].items():
            before = optima_old.get((r["seed"], k))
            if before is not None and before != c["value"]:
                print(f"OPTIMUM CHANGED seed {r['seed']} {k}: {before!r} -> {c['value']!r}")
                flags.append(f"optimum {k}")
    failed = [f"{r['workload']} seed {r['seed']}" for r in new if r["failed"]]
    for f in failed:
        print(f"FAILED RUN {f}")
    print(f"{len(flags)} flag(s), {len(failed)} failed run(s)")
    return 1 if flags or failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=DEFAULT_OUT, help="results file to append the run's record to")
    ap.add_argument("--report", type=Path, metavar="RESULTS", help="print one row per workload and exit")
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main()
    if args.report:
        return report_main(args.report)
    if args.compare:
        return compare_main(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    return run_main(args)


if __name__ == "__main__":
    sys.exit(main())
