"""References for the benchmark that do not come from the package under test.

Everything here reads only instance text, plain groupings and LP text, and
uses numpy but no `mdgp` code: distances are recomputed from the attribute
rows, optima come from a vectorised enumeration of every feasible partition,
and exported models are evaluated row by row from their LP text.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

REL_TOL = 1e-9


def close(x: float, y: float) -> bool:
    """Optima and objective values are compared at 1e-9 relative tolerance."""
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=1e-12)


def parse_attr(text: str):
    """(n, G, a, b, schema, rows) of a generated ATTR instance."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    n, g, a, b = (int(t) for t in lines[0].split())
    schema = lines[2].split()
    rows = [ln.split() for ln in lines[3:3 + n]]
    return n, g, a, b, schema, rows


def distances(text: str) -> np.ndarray:
    """Square distance matrix: manhattan for all-numeric rows, Gower (mean of
    range-normalised |difference| and categorical mismatch) otherwise."""
    n, _, _, _, schema, rows = parse_attr(text)
    d = np.zeros((n, n))
    gower = "cat" in schema
    for col, kind in enumerate(schema):
        if kind == "num":
            v = np.array([float(r[col]) for r in rows])
            diff = np.abs(v[:, None] - v[None, :])
            if gower:
                span = v.max() - v.min()
                diff = diff / span if span > 0 else np.zeros_like(diff)
            d += diff
        else:
            v = np.array([r[col] for r in rows], dtype=object)
            d += (v[:, None] != v[None, :]).astype(float)
    return d / len(schema) if gower else d


def objective(d: np.ndarray, groups) -> float:
    """Sum of d over unordered same-group pairs (1-based members)."""
    return float(sum(d[i - 1, j - 1] for g in groups for i, j in combinations(sorted(g), 2)))


def feasibility_errors(groups, n: int, g: int, a: int, b: int) -> list[str]:
    errors = []
    members = sorted(e for grp in groups for e in grp)
    if members != list(range(1, n + 1)):
        errors.append("groups do not partition 1..N")
    if len(groups) != g:
        errors.append(f"{len(groups)} groups, want {g}")
    errors += [f"group size {len(grp)} outside [{a}, {b}]" for grp in groups if not a <= len(grp) <= b]
    return errors


def enumerate_optimum(d: np.ndarray, g: int, a: int, b: int) -> tuple[float, list[list[int]]]:
    """Proven optimum by exhaustive enumeration of restricted-growth strings.

    The frontier of feasible prefixes is grown one element at a time as numpy
    arrays, keeping only prefixes that can still reach G groups with sizes in
    [a, b]; no prefix is pruned on value, so every feasible partition is
    scored.
    """
    n = len(d)
    labels = np.zeros((1, 1), dtype=np.int8)
    sizes = np.zeros((1, g), dtype=np.int16)
    sizes[0, 0] = 1
    opened = np.ones(1, dtype=np.int16)
    value = np.zeros(1)
    for t in range(1, n):
        remaining = n - t - 1
        parts = []
        for grp in range(g):
            keep = ((grp < opened) & (sizes[:, grp] < b)) | (grp == opened)
            idx = np.nonzero(keep)[0]
            if idx.size == 0:
                continue
            s = sizes[idx]
            s[:, grp] += 1
            deficit = np.maximum(a - s, 0).sum(axis=1)
            capacity = (b - s).sum(axis=1)
            ok = (deficit <= remaining) & (remaining <= capacity)
            idx, s = idx[ok], s[ok]
            lab = labels[idx]
            inc = (lab == grp).astype(float) @ d[t, :t]
            parts.append((
                np.hstack([lab, np.full((idx.size, 1), grp, dtype=np.int8)]),
                s,
                np.maximum(opened[idx], grp + 1).astype(np.int16),
                value[idx] + inc,
            ))
        labels, sizes, opened, value = (np.concatenate(p) for p in zip(*parts))
    best = int(np.argmax(value))
    groups = [[e + 1 for e in range(n) if labels[best, e] == grp] for grp in range(g)]
    return float(value[best]), groups


def lp_rows(lp_text: str):
    """(name, [(coef, var)], sense, rhs) for every row of an LP export."""
    lines = lp_text.splitlines()
    start, end = lines.index("Subject To") + 1, lines.index("Binaries")
    rows = []
    for line in lines[start:end]:
        name, body = line.strip().split(": ", 1)
        tokens = body.split()
        sense, rhs = tokens[-2], int(tokens[-1])
        terms, sign, coef = [], 1, 1
        for tok in tokens[:-2]:
            if tok in ("+", "-"):
                sign = -1 if tok == "-" else 1
            elif tok[0].isdigit():
                coef = int(tok)
            else:
                terms.append((sign * coef, tok))
                sign, coef = 1, 1
        rows.append((name, terms, sense, rhs))
    return rows


def lp_objective(lp_text: str) -> dict[str, float]:
    """Objective coefficient of every variable in an LP export."""
    line = next(ln for ln in lp_text.splitlines() if ln.startswith(" obj: "))
    tokens = line.split()[1:]
    if tokens[0] not in ("+", "-"):
        tokens.insert(0, "+")
    return {
        tokens[k + 2]: float(tokens[k + 1]) * (-1 if tokens[k] == "-" else 1)
        for k in range(0, len(tokens), 3)
    }


def violated_rows(rows, values: dict[str, int]) -> list[str]:
    """Names of LP rows the 0/1 variable values break, in LP order."""
    out = []
    for name, terms, sense, rhs in rows:
        lhs = sum(c * values[v] for c, v in terms)
        ok = lhs <= rhs if sense == "<=" else lhs >= rhs if sense == ">=" else lhs == rhs
        if not ok:
            out.append(name)
    return out


def model_row_count(variant: str, n: int) -> int:
    """Rows of the paper's formulations: three transitivity rows per triple,
    plus degree rows (and, for `unequal`, the leader rows)."""
    tri = 3 * math.comb(n, 3)
    if variant == "equal":
        return tri + n
    return tri + 2 * n + math.comb(n, 2) + (n - 1) + 1


def pair_values(groups, n: int) -> dict[tuple[int, int], int]:
    label = {e: k for k, grp in enumerate(groups) for e in grp}
    return {(i, j): int(label[i] == label[j]) for i, j in combinations(range(1, n + 1), 2)}


def first_bad_triple(x: dict[tuple[int, int], int], n: int):
    """Lexicographically first triple whose pair values are not transitive."""
    for i, j, k in combinations(range(1, n + 1), 3):
        ij, ik, jk = x[(i, j)], x[(i, k)], x[(j, k)]
        if ij + jk - ik > 1 or ij + ik - jk > 1 or ik + jk - ij > 1:
            return [i, j, k]
    return None
