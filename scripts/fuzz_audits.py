#!/usr/bin/env python3
"""Fuzz the core identities: Riemann-Roch, Clifford, site independence of
the rank (seed 1's sites against seed 0's), and reduced-divisor
quasi-uniqueness (equal Γ-parts and curve classes, every firing event
checked) on random small complexes.

Usage: python3 scripts/fuzz_audits.py [--pairs N] [--seed S]
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import random_complex, random_divisor, random_witness  # noqa: E402

from mcdiv.rank import clifford_audit, rank, rr_audit  # noqa: E402
from mcdiv.reduction import reduce_divisor  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=100)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    t0 = time.time()
    special = 0
    complexes = [random_complex(rng) for _ in range(max(args.pairs // 8, 1))]
    for i in range(args.pairs):
        cx = complexes[i % len(complexes)]
        d = random_divisor(rng, cx, deg_lo=-6, deg_hi=6)
        rep = rr_audit(cx, d)
        if not rep.passed():
            print(f"FAIL riemann-roch at pair {i}: {rep.data} on {d!r}")
            return 1
        rep = clifford_audit(cx, d)
        special += rep.data["special"]
        if not rep.passed():
            print(f"FAIL clifford at pair {i}: {d!r}")
            return 1
        by_seed = rank(cx, d), rank(cx, d, seed=1)
        if by_seed[0] != by_seed[1]:
            print(f"FAIL site independence at pair {i}: ranks {by_seed} with seeds 0, 1 on {d!r}")
            return 1
        w = random_witness(rng, cx)
        # a vertex and an interior base point: the debt cut treats them apart
        first = min(cx.model.edges)
        for v0 in (cx.model.vertex_point(cx.model.vertices[0]),
                   cx.model.point_on(first, cx.model.edges[first].length / 2)):
            r1, _ = reduce_divisor(cx, d, v0, check_each_step=True)
            r2, _ = reduce_divisor(cx, d + w.divisor(), v0, check_each_step=True)
            if r1.gamma_part() != r2.gamma_part() or not all(
                cx.oracles[v].classes_equal(r1.curve_part(v), r2.curve_part(v))
                for v in cx.oracle_vertices()
            ):
                print(f"FAIL quasi-uniqueness at pair {i}, base {v0}: {d!r}")
                return 1
    dt = time.time() - t0
    print(f"ok: {args.pairs} pairs, {special} special divisors, {dt:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
