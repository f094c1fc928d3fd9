#!/usr/bin/env python3
"""Reproduce the faults the benchmark workloads leave out.

    python3 bench/faults.py siso            # SISO systems cannot be reduced
    python3 bench/faults.py no-convergence  # dominant_poles gives up at count n
    python3 bench/faults.py order-ceiling   # r = 6, 7 and ill-conditioned r <= 5

Each command builds its systems with the benchmark's generator
(bench/family.py), runs blockred from ./src on them and prints one line per
failure and a count.  Run it from the root of a source checkout.
"""

import collections
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(60)


def reduce_both(g):
    """Outcome names of reduce_dominant and reduce_latent on one system."""
    import blockred

    ss = blockred.StateSpace(g.A, g.B, g.C)
    frac = blockred.RightMFD(blockred.MatrixPolynomial(list(g.num)),
                             blockred.MatrixPolynomial(list(g.den)))
    out = []
    for name, call in (("reduce_dominant", lambda: blockred.reduce_dominant(ss)),
                       ("reduce_latent", lambda: blockred.reduce_latent(frac))):
        try:
            call()
            out.append((name, "ok", ""))
        except blockred.BlockredError as exc:
            out.append((name, type(exc).__name__, str(exc)))
    return out


def survey(configs, **kwargs):
    """Run both pipelines on SEEDS x configs; print failures and counts."""
    import numpy as np
    import family

    counts = collections.Counter()
    for m, r in configs:
        for seed in SEEDS:
            g = family.make_system(np.random.default_rng(seed), m, r, **kwargs)
            for name, outcome, msg in reduce_both(g):
                counts[(m, r, name, outcome)] += 1
                if outcome != "ok":
                    print(f"m={m} r={r} seed={seed} {name}: {outcome}: {msg}")
    for (m, r, name, outcome), k in sorted(counts.items()):
        print(f"m={m} r={r} {name}: {outcome} on {k} of {len(SEEDS)} seeds")


def siso():
    import blockred

    try:
        blockred.compute_complete_set(
            blockred.denominator_from_solvents([[[-1.0]], [[-2.0]], [[-3.0]]]))
        print("compute_complete_set on solvents -1, -2, -3: ok")
    except blockred.BlockredError as exc:
        print(f"compute_complete_set on solvents -1, -2, -3: {type(exc).__name__}: {exc}")
    survey([(1, 3)])


def no_convergence():
    """reduce_dominant on the m = 3, r = 3 members of a family graded by plain
    output weights 0.2**i, whose adaptive loop often reaches count n."""
    import blockred
    import family

    failed = attempted = 0
    for seed in range(40):
        for g in family.make_family(seed, per_config=8, step=0.2, by_dominance=False):
            if (g.m, g.n) != (3, 9):
                continue
            attempted += 1
            try:
                blockred.reduce_dominant(blockred.StateSpace(g.A, g.B, g.C))
            except blockred.NoConvergence as exc:
                failed += 1
                print(f"seed={seed} {g.label} reduce_dominant: NoConvergence: {exc}")
    print(f"m=3 r=3 reduce_dominant: NoConvergence on {failed} of {attempted} systems")


def order_ceiling():
    """r = 6 and 7, and the rare r <= 5 members the family's filter redraws:
    those past block Krylov condition 1e10 are refused, those between 1e8
    and 1e10 are reduced with inaccurate guard values."""
    import numpy as np
    import blockred
    import check
    import family

    survey([(2, 6), (3, 6), (2, 7), (3, 7)], krylov_cond_max=None)
    for seed, per_config in ((6, 8), (13, 8), (18, 8), (28, 8), (101, 32), (132, 32)):
        for g in family.make_family(seed, per_config, krylov_cond_max=None):
            r = g.n // g.m
            krylov = np.hstack([np.linalg.matrix_power(g.A, k) @ g.B for k in range(r)])
            cond = np.linalg.cond(krylov)
            if cond <= family.KRYLOV_COND_MAX:
                continue
            where = f"unfiltered family seed={seed} {g.label} (Krylov condition {cond:.1e})"
            try:
                red, report = blockred.reduce_dominant(blockred.StateSpace(g.A, g.B, g.C))
            except blockred.BlockredError as exc:
                print(f"{where} reduce_dominant: {type(exc).__name__}: {exc}")
                continue
            problems = check.check_reduction(
                check.Model(g.A, g.B, g.C), check.Model(red.A, red.B, red.C),
                check.Claim.from_report(report), g.m)
            print(f"{where} reduce_dominant: " + ("; ".join(problems) or "checks pass"))


def main(argv):
    commands = {
        "siso": siso,
        "no-convergence": no_convergence,
        "order-ceiling": order_ceiling,
    }
    if len(argv) != 1 or argv[0] not in commands:
        print(__doc__, file=sys.stderr)
        return 2
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    commands[argv[0]]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
