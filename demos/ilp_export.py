"""Build the three ILP variants and export one in LP format.

The models are plain arrays: column names, the objective, row names, the
rows in CSR form and their lower/upper bounds. External MILP solvers can
consume the export while the package's own checker replays any candidate
assignment against the same rows in one vectorised pass.

Run:  python demos/ilp_export.py
"""

from math import comb

from mdgp import (
    Grouping,
    build_model,
    check_assignment,
    encode_grouping,
    export_lp,
)
from mdgp.cli import worked_example_instance


def main():
    inst = worked_example_instance()
    n = inst.n

    print("model sizes for the six-element instance")
    print(f"{'variant':>12} {'variables':>10} {'constraints':>12} {'closed form':>24}")
    closed = {
        "equal": (comb(n, 2), 3 * comb(n, 3) + n),
        "degree_only": (comb(n, 2), 3 * comb(n, 3) + 2 * n),
        "unequal": (
            comb(n, 2) + n - 1,
            3 * comb(n, 3) + 2 * n + comb(n, 2) + (n - 1) + 1,
        ),
    }
    for variant in ("equal", "degree_only", "unequal"):
        m = build_model(inst, variant)
        nv, nc = closed[variant]
        print(f"{variant:>12} {len(m.variables):>10} {len(m.constraints):>12} "
              f"{f'({nv} vars, {nc} rows)':>24}")
        assert (len(m.variables), len(m.constraints)) == (nv, nc)

    print()
    print("replaying the optimal grouping against the full model:")
    model = build_model(inst, "unequal")
    asg = encode_grouping(Grouping([(1, 5), (2, 4), (3, 6)]), "unequal")
    report = check_assignment(model, asg)
    print(f"  objective {report.objective:g}, violations: {list(report.violations) or 'none'}")

    print()
    print("LP export of the full model (head):")
    lp = export_lp(model)
    for line in lp.splitlines()[:12]:
        print(f"  {line}")
    print("  ...")
    tail = [line for line in lp.splitlines() if line.startswith((" lcount", " lforce_2"))]
    for line in tail:
        print(f"  {line}")
    print()
    print(f"full export: {len(lp.splitlines())} lines; write it with")
    print("  mdgp solve --input FILE --export-lp model.lp --model unequal")


if __name__ == "__main__":
    main()
