"""Single-run wall times of the main public calls over a grid of agent counts.

    python3 perfbench/scaling.py

Prints a markdown table: find_equilibria of equal_split (2 starts), the
equal_split construction alone, single-tier synthesize_luce, and
optimize_principal with a linear objective. These are one run each, for
reading off how cost grows with n; nothing here is gated. Takes one to two
minutes on 2 cores and peaks near 750 MB at n = 20.
"""

from __future__ import annotations

import time

from run import environment, import_library


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def rows():
    import numpy as np

    import contractgames as cg

    for n in (10, 14, 18, 20):
        costs = cg.CostModel.power([2.0] * n)
        start = time.perf_counter()
        f = cg.equal_split(n)
        built = time.perf_counter() - start
        yield "equal_split(n) construction", n, built
        solve = _timed(lambda: cg.find_equilibria(f, costs, cg.SolverOptions(starts=2)))
        yield "find_equilibria(equal_split, starts=2), construction excluded", n, solve
        del f
    for n in (8, 12, 16):
        costs = cg.CostModel.power([n + 2.0] * n)
        spec = cg.LuceSpec.single_block(np.linspace(1.0, 2.0, n))
        p = cg.find_equilibria(cg.expand_luce(spec, n), costs,
                               cg.SolverOptions(tolerance=1e-13, starts=2))[0].profile
        yield "synthesize_luce (single tier)", n, _timed(lambda: cg.synthesize_luce(p, costs))
    for n in (2, 3, 4):
        costs = cg.CostModel.power([2.0] * n)
        objective = cg.Objective.linear([1.0] * n)
        yield ("optimize_principal (linear objective, seed 0)", n,
               _timed(lambda: cg.optimize_principal(objective, costs, seed=0)))


def main() -> None:
    import_library()
    print(" ".join(f"{k}={v}" for k, v in environment().items()))
    print("| call | n | time (s) |")
    print("| --- | --- | --- |")
    for call, n, seconds in rows():
        print(f"| `{call}` | {n} | {seconds:.3g} |", flush=True)


if __name__ == "__main__":
    main()
