"""Workloads, operations, correctness checks and layer spans of the benchmark.

Every instance is (N, G, a, b, kind, gen_seed), generated as text by
`mdgp.cli.gen_instance` and parsed by `mdgp.cli.parse_instance` (Gower for
`mixed:*` kinds, manhattan otherwise). The gen_seed of instance i of a
workload is derived from the run's --seed, so a fresh seed gives fresh
instances of the same shapes.

Each workload has one operation. Operations call only public functions of the
package, each wrapped in a span named `<layer>.<step>`; the benchmark's own
checks run outside the spans, against references from `oracle.py` or the
stored reference file, never against the code under test.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import zlib
from contextlib import contextmanager

import mdgp
from mdgp import (
    SearchState,
    TransitivityError,
    build_model,
    build_report,
    check_assignment,
    decode_partition,
    encode_grouping,
    export_lp,
    greedy_construct,
    local_search,
    multistart,
    partial_value,
    solve_bnb,
    upper_bound,
)
from mdgp.cli import gen_instance, parse_instance
from mdgp.model import PairAssignment
from mdgp.rng import derive_seed

import oracle

# (N, G, a, b, kind) shapes and how many instances of each a run draws. Run
# time varies by 15-20% between instances of one shape, so each shape is drawn
# more than once to keep a run's figures steady from seed to seed.
# bnb-prove mixes equal and unequal size bounds and both metrics so that a
# bound change which helps [a, a] but loosens [a, b] shows; its first shape is
# the cheapest, because other workloads borrow it as a companion (see below).
GRIDS = {
    "bnb-prove": (
        [
            (12, 4, 3, 3, "mixed:2,2"),
            (15, 3, 5, 5, "uniformkd:2"),
            (15, 3, 5, 5, "mixed:1,3"),
            (13, 3, 3, 6, "uniformkd:3"),
            (14, 3, 4, 5, "mixed:2,2"),
            (12, 4, 2, 4, "mixed:2,2"),
            (13, 3, 3, 5, "uniformkd:2"),
        ],
        2,
    ),
    "heuristic-large": (
        [
            (60, 6, 10, 10, "uniformkd:2"),
            (80, 10, 8, 8, "uniformkd:2"),
            (72, 8, 7, 11, "mixed:2,2"),
        ],
        3,
    ),
    "ilp-roundtrip": (
        [
            (30, 5, 6, 6, "uniformkd:2"),
            (40, 6, 5, 8, "uniformkd:3"),
            (40, 4, 8, 12, "uniformkd:2"),
            (48, 6, 8, 8, "mixed:2,2"),
        ],
        1,
    ),
}
WORKLOADS = tuple(GRIDS)

HEURISTIC_RESTARTS = 4
SEED_RESTARTS = 8  # the multistart call solve_bnb seeds itself with
BEST_KNOWN_RESTARTS = 32
FALLBACK_BEST_KNOWN_RESTARTS = 8  # traced runs on seeds without a stored best-known value
GREEDY_SEED = 1
OP_WALL_LIMIT_S = 60.0


def metric_of(kind: str) -> str:
    return "gower" if kind.startswith("mixed") else "manhattan"


def instance_specs(workload: str, seed: int) -> list[dict]:
    shapes, copies = GRIDS[workload]
    base = zlib.crc32(workload.encode())
    specs = []
    for _ in range(copies):
        for n, g, a, b, kind in shapes:
            gen_seed = derive_seed(seed, base + len(specs))
            specs.append(dict(n=n, g=g, a=a, b=b, kind=kind, gen_seed=gen_seed))
    return specs


def spec_key(spec: dict) -> str:
    return "{n},{g},{a},{b},{kind},{gen_seed}".format(**spec)


def spec_text(spec: dict) -> str:
    return gen_instance(spec["n"], spec["g"], spec["a"], spec["b"], spec["kind"], spec["gen_seed"])


def load(spec: dict):
    return parse_instance(spec_text(spec), metric_of(spec["kind"])).instance


def code_hash(src_dir) -> str:
    """Digest of the package sources, so exact counts are only compared
    between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted(src_dir.rglob("*.py")):
        h.update(path.relative_to(src_dir).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans of the calls the benchmark makes, kept in memory.

    A span is (id, name, start, end, parent id, op id); times are
    perf_counter seconds. With `enabled=False` nothing is recorded.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op)


def self_times(spans) -> dict[int, float]:
    """Span duration minus the time its child spans cover (children of one
    span run one after another, so their durations add)."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


# --------------------------------------------------------------------------
# references


def compute_reference(workload: str, spec: dict, stored: dict | None, trace: bool) -> tuple[dict, list[str]]:
    """Expected results for one instance, plus any disagreement with the
    stored reference. Runs before timing and is not timed."""
    text = spec_text(spec)
    d = oracle.distances(text)
    inst = parse_instance(text, metric_of(spec["kind"])).instance
    problems = []
    dist_gap = float(abs(inst.dist.as_square() - d).max())
    if dist_gap > oracle.REL_TOL * max(1.0, float(d.max())):
        problems.append(f"package distances differ from the reference by {dist_gap}")
    ref: dict = {}
    if workload == "bnb-prove":
        value, groups = oracle.enumerate_optimum(d, spec["g"], spec["a"], spec["b"])
        ref.update(optimum=value, groups=groups)
        if stored is not None and not oracle.close(stored["optimum"], value):
            problems.append(f"stored optimum {stored['optimum']!r} != enumerated {value!r}")
    elif workload == "heuristic-large":
        if stored is not None:
            ref.update(best_known=stored["best_known"], best_known_restarts=BEST_KNOWN_RESTARTS)
        elif trace:
            best = multistart(inst, FALLBACK_BEST_KNOWN_RESTARTS, 0)
            ref.update(best_known=best.value, best_known_restarts=FALLBACK_BEST_KNOWN_RESTARTS)
    else:
        found, ilp_problems = ilp_reference(inst, d)
        ref.update(found)
        problems += ilp_problems
        if stored is not None:
            for field in ("lp_sha256", "violated", "bad_triple", "greedy_groups"):
                if stored[field] != ref[field]:
                    problems.append(f"{field} differs from the stored golden")
    return ref, problems


def ilp_variants(inst) -> list[str]:
    """`unequal` always, `equal` too where G divides N; `unequal` last."""
    return (["equal"] if inst.n % inst.G == 0 else []) + ["unequal"]


def flip_pair(groups) -> tuple[int, int]:
    """Lexicographically smallest pair of elements that share a group."""
    return min((g[0], g[1]) for g in groups if len(g) > 1)


def ilp_reference(inst, d) -> tuple[dict, list[str]]:
    """LP digests plus the rows and triple the flipped assignment must break,
    and the problems found on the way.

    The package builds and exports each model once; the exported text is then
    checked independently: its row count against the formulation's formula,
    its objective against the reference distances, and the encoded grouping
    against every row.
    """
    n = inst.n
    out = {"lp_sha256": {}, "rows": 0, "lp_bytes": 0}
    problems = []
    groups = [list(g) for g in greedy_construct(inst, GREEDY_SEED).groups]
    x = oracle.pair_values(groups, n)
    i, j = flip_pair(groups)
    for variant in ilp_variants(inst):
        text = export_lp(build_model(inst, variant))
        rows = oracle.lp_rows(text)
        if len(rows) != oracle.model_row_count(variant, n):
            problems.append(f"{variant}: {len(rows)} rows, the formulation has {oracle.model_row_count(variant, n)}")
        coefs = oracle.lp_objective(text)
        if any(not oracle.close(coefs.get(f"x_{p}_{q}", math.nan), float(d[p - 1, q - 1])) for p, q in x):
            problems.append(f"{variant}: objective coefficients differ from the reference distances")
        out["lp_sha256"][variant] = hashlib.sha256(text.encode()).hexdigest()
        out["rows"] += len(rows)
        out["lp_bytes"] += len(text.encode())
    # `rows` now holds the unequal model, the one the operation checks against
    minima = {g[0] for g in groups}
    values = {f"x_{p}_{q}": v for (p, q), v in x.items()}
    values.update({f"y_{k}": int(k in minima) for k in range(2, n + 1)})
    if oracle.violated_rows(rows, values):
        problems.append("the encoded grouping breaks a row of its own model")
    values[f"x_{i}_{j}"] = 0
    out["violated"] = oracle.violated_rows(rows, values)
    out["greedy_groups"] = groups
    out["objective"] = oracle.objective(d, groups)
    out["flip"] = [i, j]
    out["bad_triple"] = oracle.first_bad_triple({**x, (i, j): 0}, n)
    return out, problems


# --------------------------------------------------------------------------
# operations: each returns (exact counts, list of failures)


def check_grouping(groups, value, spec, d) -> list[str]:
    errors = oracle.feasibility_errors(groups, spec["n"], spec["g"], spec["a"], spec["b"])
    if not errors and not oracle.close(oracle.objective(d, groups), value):
        errors.append(f"reported value {value!r} != recomputed {oracle.objective(d, groups)!r}")
    return errors


def op_bnb(tr: Tracer, inst, spec, ref, d):
    with tr.span("solver.solve_bnb"):
        res = solve_bnb(inst)
    errors = [] if res.proven else ["solve_bnb returned proven=False"]
    errors += check_grouping([list(g) for g in res.grouping.groups], res.value, spec, d)
    if not oracle.close(res.value, ref["optimum"]):
        errors.append(f"optimum {res.value!r} != reference {ref['optimum']!r}")
    return {"nodes": res.nodes_explored, "value": res.value}, errors


def op_heuristic(tr: Tracer, inst, spec, ref, d):
    with tr.span("heuristic.multistart"):
        res = multistart(inst, HEURISTIC_RESTARTS, 0)
    errors = check_grouping([list(g) for g in res.grouping.groups], res.value, spec, d)
    return {"value": res.value}, errors


def op_ilp(tr: Tracer, inst, spec, ref, d):
    n, errors = inst.n, []
    rows = lp_bytes = 0
    shas = {}
    model = None
    for variant in ilp_variants(inst):
        with tr.span("model.build"):
            model = build_model(inst, variant)
        with tr.span("model.export"):
            text = export_lp(model)
        rows += len(model.constraints)
        lp_bytes += len(text.encode())
        shas[variant] = hashlib.sha256(text.encode()).hexdigest()
    # `unequal` comes last, so `model` is the full formulation from here on
    with tr.span("heuristic.greedy_construct"):
        grouping = greedy_construct(inst, GREEDY_SEED)
    with tr.span("model.encode"):
        asg = encode_grouping(grouping, "unequal")
    with tr.span("model.check"):
        report = check_assignment(model, asg)
    i, j = ref["flip"]
    flipped = PairAssignment(x={**asg.x, (i, j): 0}, y=asg.y)
    with tr.span("model.check_violated"):
        bad_report = check_assignment(model, flipped)
    with tr.span("decode.decode"):
        decoded = decode_partition(asg.x, n)
    with tr.span("decode.audit"):
        theorem = mdgp.verify_group_count(build_report(decoded, asg.y), asg.y, inst.G)
    triple = None
    with tr.span("decode.reject"):
        try:
            decode_partition(flipped.x, n)
        except TransitivityError as exc:
            triple = list(exc.triple)

    if shas != ref["lp_sha256"]:
        errors.append("LP export differs from the reference")
    if rows != ref["rows"] or lp_bytes != ref["lp_bytes"]:
        errors.append("model size differs from the reference")
    if [list(g) for g in grouping.groups] != ref["greedy_groups"]:
        errors.append("greedy grouping differs from the reference")
    if report.violations or not oracle.close(report.objective, ref["objective"]):
        errors.append("check_assignment rejects or misvalues a feasible encoding")
    if list(bad_report.violations) != ref["violated"]:
        errors.append("violated rows differ from the reference")
    if sorted(map(list, decoded.groups)) != sorted(ref["greedy_groups"]):
        errors.append("decoded partition differs from the encoded grouping")
    if not theorem.all_hold:
        errors.append(f"group-count audit failed: {theorem.failures}")
    if triple != ref["bad_triple"]:
        errors.append(f"rejected triple {triple} != reference {ref['bad_triple']}")
    return {"rows": rows, "lp_bytes": lp_bytes}, errors


OPS = {"bnb-prove": op_bnb, "heuristic-large": op_heuristic, "ilp-roundtrip": op_ilp}


# --------------------------------------------------------------------------
# probes of single layers, run only in traced mode


def replay_restarts(tr: Tracer, inst, restarts: int) -> list[float]:
    """Re-run multistart(inst, restarts, 0) one restart at a time."""
    values = []
    for r in range(1, restarts + 1):
        with tr.span("heuristic.restart"):
            with tr.span("heuristic.greedy_construct"):
                start = greedy_construct(inst, derive_seed(0, r))
            with tr.span("heuristic.local_search"):
                g = local_search(inst, start)
        values.append(mdgp.objective_value(g, inst.dist))
    return values


def probe_bnb(tr: Tracer, inst, ref) -> tuple[dict, list[str]]:
    """Seed heuristic timed alone, its restarts replayed, and the completion
    bound evaluated on every proper prefix of the optimal grouping."""
    errors = []
    with tr.span("solver.seed"):
        seed = multistart(inst, SEED_RESTARTS, 0)
    if max(replay_restarts(tr, inst, SEED_RESTARTS)) != seed.value:
        errors.append("replayed restarts do not reproduce multistart")
    opt = ref["optimum"]
    label = {e: k + 1 for k, g in enumerate(sorted(ref["groups"])) for e in g}
    labels = [label[e] for e in range(1, inst.n + 1)]
    slacks = []
    for t in range(inst.n):
        state = SearchState(inst, tuple(labels[:t]))
        with tr.span("solver.upper_bound"):
            ub = upper_bound(state)
        slack = 100.0 * (partial_value(state) + ub - opt) / opt
        if slack < -100.0 * oracle.REL_TOL:
            errors.append(f"bound not admissible at prefix {t}: slack {slack:.6g}%")
        slacks.append(slack)
    return {"slacks": slacks, "gap_pct": gap_pct(opt, seed.value)}, errors


def probe_heuristic(tr: Tracer, inst, ref, value) -> tuple[dict, list[str]]:
    errors = []
    if max(replay_restarts(tr, inst, HEURISTIC_RESTARTS)) != value:
        errors.append("replayed restarts do not reproduce multistart")
    out = {}
    if "best_known" in ref:
        out["gap_pct"] = gap_pct(ref["best_known"], value)
    return out, errors


def gap_pct(reference: float, value: float) -> float:
    """100·(reference − value)/reference; values equal within the comparison
    tolerance (they differ only in summation order) have no gap."""
    return 0.0 if oracle.close(reference, value) else 100.0 * (reference - value) / reference


# --------------------------------------------------------------------------
# running


def median_and_tail(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"n": len(samples), "median_s": statistics.median(samples), "tail": None}
    k = len(samples) - 10  # samples at or below the percentile
    if k >= 1:
        srt = sorted(samples)
        out["tail"] = {"pct": round(100.0 * k / len(samples), 1), "value_s": srt[k - 1]}
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, refs: dict, specs=None) -> dict:
    """Time the workload's operation on every instance for about `seconds`.

    Passes over all instances repeat while another pass fits in the time
    left (at least one pass). A traced run records spans in every pass and
    then runs the layer probes once. Exact counts must repeat across passes.
    """
    specs = specs if specs is not None else instance_specs(workload, seed)
    op = OPS[workload]
    tr = Tracer(trace)
    loaded = []
    for spec in specs:
        text = spec_text(spec)
        loaded.append((spec, parse_instance(text, metric_of(spec["kind"])).instance,
                       refs[spec_key(spec)], oracle.distances(text)))

    samples = {spec_key(s): [] for s in specs}
    exact = {}
    failures = []
    attempted = failed = 0
    pass_walls = []
    start = time.perf_counter()
    while True:
        pass_wall = 0.0
        for idx, (spec, inst, ref, d) in enumerate(loaded):
            key = spec_key(spec)
            tr.op = f"{key}#{len(samples[key])}"
            attempted += 1
            t0 = time.perf_counter()
            try:
                counts, errors = op(tr, inst, spec, ref, d)
            except Exception as exc:  # a raising operation is a failed operation
                counts, errors = None, [f"{type(exc).__name__}: {exc}"]
            wall = time.perf_counter() - t0
            pass_wall += wall
            samples[key].append(wall)
            if wall > OP_WALL_LIMIT_S:
                errors.append(f"operation took {wall:.1f}s, limit {OP_WALL_LIMIT_S}s")
            if counts is not None:
                if exact.setdefault(key, counts) != counts:
                    errors.append(f"exact counts changed between passes: {exact[key]} -> {counts}")
            failed += bool(errors)
            failures += [f"{key}: {e}" for e in errors]
        pass_walls.append(pass_wall)
        elapsed = time.perf_counter() - start
        if elapsed + pass_wall > seconds:
            break

    result = {
        "instances": {k: median_and_tail(v) for k, v in samples.items()},
        "exact": exact,
        "pass_walls": pass_walls,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if trace:
        result["probes"] = run_probes(workload, tr, loaded, result)
        result["spans"] = tr.spans
    return result


def run_probes(workload, tr, loaded, result) -> dict:
    """Layer probes of a traced run; each probed instance counts as one
    more attempted check."""
    probes = {}
    for spec, inst, ref, _ in loaded:
        key = spec_key(spec)
        if workload == "ilp-roundtrip" or key not in result["exact"]:
            continue
        tr.op = f"{key}#probe"
        try:
            if workload == "bnb-prove":
                out, errors = probe_bnb(tr, inst, ref)
            else:
                out, errors = probe_heuristic(tr, inst, ref, result["exact"][key]["value"])
        except Exception as exc:  # a raising probe is a failed check
            out, errors = {}, [f"{type(exc).__name__}: {exc}"]
        probes[key] = out
        result["attempted"] += 1
        result["failed"] += bool(errors)
        result["failures"] += [f"{key} probe: {e}" for e in errors]
    return probes


# --------------------------------------------------------------------------
# metrics


def end_to_end(result: dict) -> dict:
    medians = [v["median_s"] for v in result["instances"].values()]
    return {
        "op_s": math.exp(sum(math.log(m) for m in medians) / len(medians)),
        "total_s": statistics.median(result["pass_walls"]),
    }


def layer_metrics(workload: str, result: dict) -> dict:
    """Per-layer metrics of a traced run: self times of the operations' spans
    per pass, plus the probes (run once). Only the layers this workload
    calls appear."""
    spans = result["spans"]
    own = self_times(spans)
    passes = len(result["pass_walls"])
    total: dict[str, float] = {}
    wall: dict[str, float] = {}
    count: dict[str, int] = {}
    for s in spans:
        scale = 1.0 if s[5].endswith("#probe") else 1.0 / passes
        total[s[1]] = total.get(s[1], 0.0) + own[s[0]] * scale
        wall[s[1]] = wall.get(s[1], 0.0) + (s[3] - s[2]) * scale
        count[s[1]] = count.get(s[1], 0) + 1
    out = {}
    probes = result["probes"]
    gaps = [p["gap_pct"] for p in probes.values() if "gap_pct" in p]
    if gaps:
        out["quality_gap_pct"] = sum(gaps) / len(gaps)
    if workload == "bnb-prove":
        nodes = sum(c["nodes"] for c in result["exact"].values())
        search = total["solver.solve_bnb"] - total["solver.seed"]
        slacks = [x for p in probes.values() for x in p["slacks"]]
        out.update({
            "solver.nodes": nodes,
            "solver.seed_s": total["solver.seed"],
            "solver.search_s": search,
            "solver.nodes_per_s": nodes / search,
            "solver.bound_us": 1e6 * total["solver.upper_bound"] / count["solver.upper_bound"],
            "solver.bound_slack_pct": sum(slacks) / len(slacks),
        })
    if "heuristic.restart" in total:
        out.update({
            "heuristic.greedy_s": total["heuristic.greedy_construct"],
            "heuristic.local_search_s": total["heuristic.local_search"],
            "heuristic.restart_s": wall["heuristic.restart"] / count["heuristic.restart"],
        })
    if workload == "ilp-roundtrip":
        out["heuristic.greedy_s"] = total["heuristic.greedy_construct"]
        for step in ("build", "export", "encode", "check", "check_violated"):
            out[f"model.{step}_s"] = total[f"model.{step}"]
        for step in ("decode", "audit", "reject"):
            out[f"decode.{step}_s"] = total[f"decode.{step}"]
        out["model.rows"] = sum(c["rows"] for c in result["exact"].values())
        out["model.lp_bytes"] = sum(c["lp_bytes"] for c in result["exact"].values())
    return out
