"""Command-line surface: parse/generate instances, solve, export, verify.

Instance file grammar (``#`` lines are comments)::

    N G a b
    DIST                  | ATTR K
    <N-1 distance rows>   | <K kinds: num|cat>
                          | <N attribute rows>

DIST row i holds the N-i values d(i, i+1) .. d(i, N). Solution files list one
group per line as whitespace-separated 1-based indices, order-insensitive.

Exit codes: 0 success, 2 verification failure or invalid request,
3 search finished unproven (budget exhausted).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .core import (
    AttributeTable,
    DistanceMatrix,
    Grouping,
    Instance,
    METRICS,
    SchemaError,
    _distances_and_columns,
    objective_value,
    validate_grouping,
)
from .model import (
    _equal_size,
    build_model,
    build_unequal,
    check_assignment,
    encode_grouping,
    export_lp,
)
from .heuristic import multistart
from .rng import SplitMix64
from .solver import (
    DEFAULT_ENUMERATION_CAP,
    SolveOptions,
    iter_set_partitions,
    solve_bnb,
    solve_bruteforce,
)

CLI_MODELS = ("equal", "unequal", "degree-only")
# the one solver that reads each solver flag; any other request refuses it
_SOLVER_FLAGS = {"time_limit": "bnb", "restarts": "heuristic", "seed": "heuristic"}


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class LoadedInstance:
    instance: Instance
    table: AttributeTable | None
    warnings: tuple[str, ...]


REPORT_SCHEMA = {
    "type": "object",
    "properties": {
        "instance": {
            "type": "object",
            "properties": {
                "n": {"type": "integer"},
                "G": {"type": "integer"},
                "a": {"type": "integer"},
                "b": {"type": "integer"},
            },
            "required": ["n", "G", "a", "b"],
            "additionalProperties": False,
        },
        "solver": {"type": "string"},
        "value": {"type": "number"},
        "groups": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
        "proven": {"type": "boolean"},
        "elapsed_ms": {"type": "number"},
        "nodes": {"type": "integer"},
        "gap": {"type": "number"},
    },
    "required": ["instance", "solver", "value", "groups", "proven", "elapsed_ms", "nodes"],
    "additionalProperties": False,
}


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped


def _floats(tokens: list, cols, lineno: int, malformed: str, non_finite: str) -> list:
    """Parse ``tokens[i]`` for each i in `cols` to a finite float, in place, and
    return `tokens`. A malformed token is reported before a non-finite one;
    `malformed` may name the token as ``{!r}``."""
    for i in cols:
        try:
            tokens[i] = float(tokens[i])
        except ValueError:
            raise ParseError(malformed.format(tokens[i]), lineno) from None
    if not all(map(math.isfinite, map(tokens.__getitem__, cols))):
        raise ParseError(non_finite, lineno)
    return tokens


def parse_instance(text: str, metric: str = "manhattan") -> LoadedInstance:
    """Parse the instance grammar above; `metric` applies to ATTR bodies."""
    lines = list(_significant_lines(text))
    if not lines:
        raise ParseError("empty instance file")

    lineno, header = lines[0]
    try:
        n, g, a, b = (int(t) for t in header.split())
    except ValueError:
        raise ParseError("header must be 4 integers: N G a b", lineno) from None
    if n < 1:
        raise ParseError("element count must be >= 1", lineno)

    if len(lines) < 2:
        raise ParseError("missing DIST or ATTR section", lineno)
    mode_lineno, mode_line = lines[1]
    mode = mode_line.split()
    body = lines[2:]
    table = columns = None
    warnings: list[str] = []

    if mode[0] == "DIST":
        if len(mode) != 1:
            raise ParseError("DIST takes no arguments", mode_lineno)
        if len(body) != n - 1:
            raise ParseError(
                f"DIST body needs {n - 1} rows, found {len(body)}", mode_lineno
            )
        condensed: list[float] = []
        for row_idx, (row_lineno, row) in enumerate(body, 1):
            values = row.split()
            if len(values) != n - row_idx:
                raise ParseError(
                    f"row {row_idx} needs {n - row_idx} values, found {len(values)}",
                    row_lineno,
                )
            condensed += _floats(values, range(len(values)), row_lineno,
                                 "malformed distance value", "all distances must be finite")
        if negatives := sum(1 for v in condensed if v < 0):
            warnings.append(
                f"{negatives} negative distance(s) accepted; no formulation step "
                "requires nonnegativity"
            )
        try:
            dist = DistanceMatrix(n, condensed)
        except ValueError as exc:  # the sum of the whole body overflows
            raise ParseError(str(exc), mode_lineno) from None

    elif mode[0] == "ATTR":
        if len(mode) != 2:
            raise ParseError("ATTR needs a column count: ATTR K", mode_lineno)
        try:
            k = int(mode[1])
        except ValueError:
            raise ParseError("ATTR needs an integer column count", mode_lineno) from None
        if k < 1:
            raise ParseError("ATTR column count must be >= 1", mode_lineno)
        if not body:
            raise ParseError("missing schema line after ATTR", mode_lineno)
        schema_lineno, schema_line = body[0]
        schema = tuple(schema_line.split())
        if len(schema) != k or any(kind not in ("num", "cat") for kind in schema):
            raise ParseError(f"schema line needs {k} kinds (num|cat)", schema_lineno)
        rows_lines = body[1:]
        if len(rows_lines) != n:
            raise ParseError(
                f"ATTR body needs {n} rows, found {len(rows_lines)}", schema_lineno
            )
        num = [i for i, kind in enumerate(schema) if kind == "num"]
        rows = []
        for row_lineno, row in rows_lines:
            values = row.split()
            if len(values) != k:
                raise ParseError(f"row needs {k} values, found {len(values)}", row_lineno)
            rows.append(_floats(values, num, row_lineno,
                                "malformed numeric value {!r}", "non-finite numeric value"))
        table = AttributeTable(rows, schema)

    else:
        raise ParseError(f"expected DIST or ATTR, found {mode[0]!r}", mode_lineno)

    try:
        if table is not None:
            dist, columns = _distances_and_columns(table, metric)
        instance = Instance(dist, g, a, b, columns)
    except SchemaError:
        raise
    except ValueError as exc:  # the header's G, a and b, or an overflowing metric
        raise ParseError(str(exc), lineno) from None
    return LoadedInstance(instance, table, tuple(warnings))


def _parse_kind(kind: str) -> tuple[int, int]:
    if kind == "uniform1d":
        return 1, 0
    if m := re.fullmatch(r"uniformkd:(\d+)", kind):
        k_num, k_cat = int(m.group(1)), 0
        if k_num < 1:
            raise ValueError("uniformkd needs at least one column")
    elif m := re.fullmatch(r"mixed:(\d+),(\d+)", kind):
        k_num, k_cat = int(m.group(1)), int(m.group(2))
        if k_num + k_cat < 1:
            raise ValueError("mixed needs at least one column")
    else:
        raise ValueError(
            f"unknown kind {kind!r}; use uniform1d, uniformkd:K or mixed:KNUM,KCAT"
        )
    return k_num, k_cat


def gen_instance(n: int, g: int, a: int, b: int, kind: str = "uniform1d", seed: int = 0) -> str:
    """Deterministic ATTR instance text: numeric columns uniform in [0, 100],
    categorical columns drawn from a 4-letter alphabet."""
    if n < 1 or g < 1 or not (1 <= a <= b <= n) or not (g * a <= n <= g * b):
        raise ValueError(
            f"invalid bounds: need 1 <= a <= b <= N and G*a <= N <= G*b, "
            f"got N={n}, G={g}, a={a}, b={b}"
        )
    k_num, k_cat = _parse_kind(kind)
    # refused before any row is built: a million values is about 10 MB of text
    if n * (k_num + k_cat) > 10**6:
        raise ValueError(
            f"column count in {kind!r} is too large: N={n} rows of it exceed 10**6 values"
        )
    rng = SplitMix64(seed)
    alphabet = "abcd"
    lines = [
        f"# generated: kind={kind} seed={seed}",
        f"{n} {g} {a} {b}",
        f"ATTR {k_num + k_cat}",
        " ".join(["num"] * k_num + ["cat"] * k_cat),
    ]
    for _ in range(n):
        row = [f"{rng.next_float() * 100.0:.6f}" for _ in range(k_num)]
        row += [alphabet[rng.randrange(4)] for _ in range(k_cat)]
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> list[list[int]]:
    """Solution grammar: one group per line, whitespace-separated indices."""
    groups = []
    for lineno, line in _significant_lines(text):
        try:
            groups.append([int(tok) for tok in line.split()])
        except ValueError:
            raise ParseError("malformed element index", lineno) from None
    if not groups:
        raise ParseError("empty solution file")
    return groups


def worked_example_instance() -> Instance:
    """Six elements valued 1..6 under manhattan distance, G=3, sizes in [2, 3]."""
    table = AttributeTable([(float(v),) for v in range(1, 7)], ("num",))
    dist, columns = _distances_and_columns(table, "manhattan")
    return Instance(dist, G=3, a=2, b=3, columns=columns)


def demonstrate() -> dict:
    """Why degree bounds alone are not enough, end to end on the worked instance.

    The correct formulation's optimum respects G=3; dropping the group-count
    machinery admits a strictly better partition into two groups, whose
    encoding violates exactly the leader-count row of the full model. The
    returned dict is the report that `mdgp demonstrate --json` prints.
    """
    inst = worked_example_instance()
    exact = solve_bruteforce(inst)

    correct_witness = Grouping([(1, 5), (2, 4), (3, 6)])
    assert objective_value(correct_witness, inst.dist) == exact.value

    # sweep: partitions into ANY number of groups, every size within [a, b]
    best_value = float("-inf")
    for g in iter_set_partitions(inst.n):
        if all(inst.a <= len(members) <= inst.b for members in g.groups):
            best_value = max(best_value, objective_value(g, inst.dist))
    witness = Grouping([(1, 3, 6), (2, 4, 5)])
    assert objective_value(witness, inst.dist) == best_value

    check = check_assignment(build_unequal(inst), encode_grouping(witness, "unequal"))
    return {
        "correct": {"value": exact.value, "groups": [list(g) for g in correct_witness.groups]},
        "degree_only": {"value": best_value, "groups": [list(g) for g in witness.groups]},
        "violated": list(check.violations),
    }


def _fmt_groups(groups) -> str:
    return " ".join("{" + ",".join(str(e) for e in g) + "}" for g in groups)


def _write(text: str):
    """Write to stdout. A reader that closed the pipe has read all it wanted:
    stdout goes to the null device, so the flush at exit cannot fail again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit(as_json: bool, report: dict, lines: list[str]):
    """Every command's one output path: the report as JSON, or its text lines."""
    _write((json.dumps(report, indent=2) if as_json else "\n".join(lines)) + "\n")


def _load(args) -> Instance:
    loaded = parse_instance(Path(args.input).read_text(), metric=args.metric or "manhattan")
    if args.metric is not None and loaded.table is None:
        raise ValueError("--metric applies to ATTR instances only")
    for w in loaded.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return loaded.instance


def _instance_dict(inst: Instance) -> dict:
    return {"n": inst.n, "G": inst.G, "a": inst.a, "b": inst.b}


def _instance_line(inst: Instance) -> str:
    return f"instance: n={inst.n} G={inst.G} a={inst.a} b={inst.b}"


def _oracle_gap(inst: Instance, value: float) -> float | None:
    """Exact optimum minus `value`; None when n is past the oracle's cap."""
    if inst.n > DEFAULT_ENUMERATION_CAP:
        return None
    return solve_bruteforce(inst).value - value


def _cmd_solve(args) -> int:
    inst = _load(args)
    variant = args.model.replace("-", "_")
    export_only = args.export_lp and args.solver is None
    solver = None if export_only else args.solver or "bnb"
    # refused before any LP is written, like every other invalid request
    for flag, reader in _SOLVER_FLAGS.items():
        if getattr(args, flag) is not None and solver != reader:
            raise ValueError(f"--{flag.replace('_', '-')} applies to --solver {reader} only")

    if export_only:
        Path(args.export_lp).write_text(export_lp(build_model(inst, variant)))
        _emit(
            args.json,
            {"instance": _instance_dict(inst), "model": args.model, "exported_lp": args.export_lp},
            [f"exported {args.model} model ({inst.n} elements) to {args.export_lp}"],
        )
        return 0

    if variant == "degree_only":
        raise ValueError(
            "the degree-only model has no partition semantics to solve "
            "(it ignores the group count); run `mdgp demonstrate` to see its "
            "relaxed optimum on the worked example, or use --export-lp without "
            "--solver to export it"
        )
    if variant == "equal":
        size = _equal_size(inst)
        inst = replace(inst, a=size, b=size)

    t0 = time.perf_counter()
    if solver == "heuristic":
        if args.seed is None:
            raise ValueError("--solver heuristic requires --seed")
        restarts = 20 if args.restarts is None else args.restarts
        found = multistart(inst, restarts=restarts, seed=args.seed)
    elif solver == "bnb":
        found = solve_bnb(inst, SolveOptions(time_budget=args.time_limit))
    else:
        found = solve_bruteforce(inst)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    if solver == "heuristic":
        proven, nodes, gap = False, 0, _oracle_gap(inst, found.value)
    else:
        proven, nodes, gap = found.proven, found.nodes_explored, None
    # only a request the solver accepted leaves an LP file behind
    if args.export_lp:
        Path(args.export_lp).write_text(export_lp(build_model(inst, variant)))

    report = {
        "instance": _instance_dict(inst),
        "solver": solver,
        "value": found.value,
        "groups": [list(g) for g in found.grouping.groups],
        "proven": proven,
        "elapsed_ms": elapsed_ms,
        "nodes": nodes,
    }
    lines = [
        _instance_line(inst),
        f"solver: {solver}",
        f"value: {found.value:g}",
        f"groups: {_fmt_groups(found.grouping.groups)}",
        f"proven: {'yes' if proven else 'no'}",
        f"nodes: {nodes}",
        f"elapsed: {elapsed_ms:.1f} ms",
    ]
    if gap is not None:
        report["gap"] = gap
        lines.append(f"gap vs exact optimum: {gap:g}")
    _emit(args.json, report, lines)
    return 3 if solver == "bnb" and not proven else 0


def _cmd_demonstrate(args) -> int:
    report = demonstrate()
    correct, relaxed = report["correct"], report["degree_only"]
    violated = ",".join(report["violated"])
    _emit(args.json, report, [
        "worked example: six elements valued 1..6, manhattan, G=3, a=2, b=3",
        f"correct formulation optimum: {correct['value']:g}",
        f"  attained by: {_fmt_groups(correct['groups'])}",
        f"degree-bounds-only optimum (any group count): {relaxed['value']:g}",
        f"  attained by: {_fmt_groups(relaxed['groups'])} (2 groups, not 3)",
        f"  full-model rows violated by that encoding: {violated}",
        f"correct: {correct['value']:g}, degree-only: {relaxed['value']:g}, violated: {violated}",
    ])
    return 0


def _partition_problem(groups, n: int) -> str | None:
    """Why ``groups`` is not a partition of 1..n, or None if it is one."""
    seen: set[int] = set()
    for g in groups:
        for e in g:
            if not (1 <= e <= n):
                return f"element {e} out of range 1..{n}"
            if e in seen:
                return f"element {e} listed twice"
            seen.add(e)
    if len(seen) != n:
        return f"elements not covered: {sorted(set(range(1, n + 1)) - seen)}"
    return None


def _cmd_verify(args) -> int:
    inst = _load(args)
    raw_groups = parse_solution(Path(args.solution).read_text())

    problem = _partition_problem(raw_groups, inst.n)
    if problem is not None:
        # no grouping, so no value: the report carries what was listed
        _emit(
            args.json,
            {
                "instance": _instance_dict(inst),
                "solver": "verify",
                "groups": raw_groups,
                "feasible": False,
                "violations": [problem],
            },
            [f"verification failure: {problem}"],
        )
        return 2

    t0 = time.perf_counter()
    grouping = Grouping(raw_groups)
    value = objective_value(grouping, inst.dist)
    feas = validate_grouping(grouping, inst)
    # the oracle behind gap is not part of the check, as in solve
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    gap = None
    if args.against_oracle:
        if not feas.feasible:
            print("note: --against-oracle skipped (solution is infeasible)", file=sys.stderr)
        elif (gap := _oracle_gap(inst, value)) is None:
            print(
                f"note: --against-oracle skipped (n={inst.n} exceeds the "
                f"enumeration cap {DEFAULT_ENUMERATION_CAP})",
                file=sys.stderr,
            )

    report = {
        "instance": _instance_dict(inst),
        "solver": "verify",
        "value": value,
        "groups": [list(g) for g in grouping.groups],
        "feasible": feas.feasible,
        "violations": list(feas.violations),
        "elapsed_ms": elapsed_ms,
    }
    lines = [
        _instance_line(inst),
        f"solution: {_fmt_groups(grouping.groups)}",
        f"value: {value:g}",
        f"feasible: {'yes' if feas.feasible else 'no'}",
        *(f"  - {v}" for v in feas.violations),
    ]
    if gap is not None:
        report["gap"] = gap
        lines.append(f"gap vs exact optimum: {gap:g}")
    _emit(args.json, report, lines)
    return 0 if feas.feasible else 2


def _cmd_gen(args) -> int:
    text = gen_instance(args.n, args.g, args.a, args.b, kind=args.kind, seed=args.seed)
    if args.output:
        Path(args.output).write_text(text)
    else:
        _write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdgp",
        description="Exact solvers, ILP export and verification for the "
        "maximally diverse grouping problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--input", required=True, help="instance file path")
    p_solve.add_argument("--metric", choices=METRICS, default=None,
                         help="distance metric for ATTR instances (default: manhattan)")
    p_solve.add_argument("--solver", choices=("bnb", "bruteforce", "heuristic"),
                         default=None, help="search strategy (default: bnb)")
    p_solve.add_argument("--restarts", type=int, default=None,
                         help="heuristic restarts (default: 20)")
    p_solve.add_argument("--seed", type=int, default=None,
                         help="seed, required for --solver heuristic")
    p_solve.add_argument("--time-limit", type=float, default=None,
                         help="wall-clock budget in seconds for bnb, "
                         "counted from the start: the heuristic seed uses it too")
    p_solve.add_argument("--json", action="store_true", help="machine-readable report")
    p_solve.add_argument("--export-lp", metavar="PATH", default=None,
                         help="write the ILP in LP format (without --solver: export only)")
    p_solve.add_argument("--model", choices=CLI_MODELS, default="unequal",
                         help="ILP variant for --export-lp; equal also solves with groups "
                         "of size N/G, degree-only is export-only (default: unequal)")
    p_solve.set_defaults(func=_cmd_solve)

    p_demo = sub.add_parser(
        "demonstrate",
        help="walk through the worked example: correct vs degree-only formulation",
    )
    p_demo.add_argument("--json", action="store_true", help="machine-readable report")
    p_demo.set_defaults(func=_cmd_demonstrate)

    p_verify = sub.add_parser("verify", help="check a solution file against an instance")
    p_verify.add_argument("--input", required=True, help="instance file path")
    p_verify.add_argument("--solution", required=True, help="solution file path")
    p_verify.add_argument("--metric", choices=METRICS, default=None,
                          help="distance metric for ATTR instances (default: manhattan)")
    p_verify.add_argument("--against-oracle", action="store_true",
                          help="also report the optimality gap (small n only)")
    p_verify.add_argument("--json", action="store_true", help="machine-readable report")
    p_verify.set_defaults(func=_cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a random instance file")
    p_gen.add_argument("--n", type=int, required=True, help="element count")
    p_gen.add_argument("--g", type=int, required=True, help="group count")
    p_gen.add_argument("--a", type=int, required=True, help="lower size bound")
    p_gen.add_argument("--b", type=int, required=True, help="upper size bound")
    p_gen.add_argument("--kind", default="uniform1d",
                       help="uniform1d | uniformkd:K | mixed:KNUM,KCAT "
                       "(at most 10**6 values in all)")
    p_gen.add_argument("--seed", type=int, required=True, help="generator seed")
    p_gen.add_argument("--output", default=None, help="output path (default: stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
