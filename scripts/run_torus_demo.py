#!/usr/bin/env python3
"""Drive a kicked torus superposition to a target momentum eigenstate.

Prepares a random superposition of momentum modes, measures it, plans a
minimal kick sequence (translations plus hyperbolic relabeling kicks) that
stays inside the truncation box, and replays the plan.  Also compares plan
lengths with and without the relabeling kick over random endpoint pairs.
"""

import argparse

import numpy as np

from qphase import CatMap, TorusState, plan_kicks, reach_state


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pairs", type=int, default=300, help="random endpoint pairs to plan")
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    cat = CatMap.default()

    ks = set()
    while len(ks) < 4:
        ks.add(tuple(int(v) for v in rng.integers(-8, 9, 2)))
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    start = TorusState(tuple(zip(ks, amps)))
    target = (5, -3)

    trace, final = reach_state(start, target, rng=rng)
    print(f"target reached : {final.support[0][0]} (fidelity {trace.final_fidelity:.1f})")
    print(f"kicks applied  : {trace.iterations}")

    saved = 0
    total_t, total_c = 0, 0
    for _ in range(args.pairs):
        a = tuple(int(v) for v in rng.integers(-20, 21, 2))
        b = tuple(int(v) for v in rng.integers(-20, 21, 2))
        with_cat = len(plan_kicks(a, b, cat, allow_cat_moves=True))
        without = len(plan_kicks(a, b, cat, allow_cat_moves=False))
        total_c += with_cat
        total_t += without
        saved += with_cat < without
    print(f"pairs planned  : {args.pairs}")
    print(f"cat kick helps : {saved} pairs ({100 * saved / args.pairs:.1f}%)")
    print(f"mean length    : {total_c / args.pairs:.2f} with cat vs {total_t / args.pairs:.2f} translation-only")


if __name__ == "__main__":
    main()
