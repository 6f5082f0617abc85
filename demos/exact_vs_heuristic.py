"""Benchmark the multistart heuristic against proven optima.

Generates a batch of seeded random instances, solves each exactly (oracle
and branch-and-bound) and with the heuristic, and tabulates the gaps. This
is the workflow the exact solvers exist for: they turn heuristic output
into measured optimality gaps instead of hopeful numbers. The last columns
show the spread over restarts: the worst restart's value and how many of the
20 restarts reached the heuristic's best (to 1e-9 relative).

Run:  python demos/exact_vs_heuristic.py
"""

import time

from mdgp import multistart, solve_bnb, solve_bruteforce
from mdgp.cli import gen_instance, parse_instance

CASES = [
    # (n, G, a, b, kind, seed)
    (8, 2, 3, 5, "uniform1d", 1),
    (8, 3, 2, 3, "uniformkd:2", 2),
    (9, 3, 3, 3, "uniformkd:2", 3),
    (9, 2, 4, 5, "mixed:2,1", 4),
    (10, 3, 3, 4, "uniform1d", 5),
    (10, 2, 4, 6, "mixed:1,2", 6),
]


def main():
    print(f"{'instance':>22} {'oracle':>10} {'bnb':>10} {'nodes':>7} "
          f"{'heuristic':>10} {'gap':>8} {'gap%':>7} {'worst':>10} {'hits':>5}")
    print("-" * 97)

    total_gap = 0.0
    for n, g, a, b, kind, seed in CASES:
        metric = "gower" if kind.startswith("mixed") else "manhattan"
        text = gen_instance(n, g, a, b, kind=kind, seed=seed)
        inst = parse_instance(text, metric=metric).instance

        oracle = solve_bruteforce(inst)
        bnb = solve_bnb(inst)
        assert abs(oracle.value - bnb.value) < 1e-9, "exact solvers disagree"

        heur = multistart(inst, restarts=20, seed=seed)
        gap = oracle.value - heur.value
        rel = gap / oracle.value if oracle.value > 0 else 0.0
        total_gap += gap
        worst = min(heur.restart_values)
        # different groupings can tie up to float rounding
        hits = sum(1 for v in heur.restart_values if heur.value - v <= 1e-9 * abs(heur.value))

        label = f"n={n} G={g} [{a},{b}] {kind}"
        print(f"{label:>22} {oracle.value:>10.4f} {bnb.value:>10.4f} "
              f"{bnb.nodes_explored:>7d} {heur.value:>10.4f} {gap:>8.4f} {rel:>6.2%} "
              f"{worst:>10.4f} {hits:>2d}/{len(heur.restart_values)}")

    print("-" * 97)
    print(f"total absolute gap over {len(CASES)} instances: {total_gap:.4f}")
    print()
    print("Budgeted search: the same instance with a tiny node budget returns")
    print("its incumbent and marks the result unproven.")
    from mdgp import SolveOptions

    inst = parse_instance(gen_instance(12, 3, 3, 5, kind="uniform1d", seed=9)).instance
    t0 = time.perf_counter()
    limited = solve_bnb(inst, SolveOptions(node_budget=50))
    full = solve_bnb(inst)
    print(f"  node budget 50: value {limited.value:.4f}, proven={limited.proven}")
    print(f"  unlimited:      value {full.value:.4f}, proven={full.proven} "
          f"({full.nodes_explored} nodes, {time.perf_counter() - t0:.2f}s total)")


if __name__ == "__main__":
    main()
