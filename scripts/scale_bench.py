#!/usr/bin/env python3
"""Fan-level cost at growing size: building a fan, its bad-subset index and
its base loci.

    python scripts/scale_bench.py [--k 3 4 5 6]

For each k, takes P1^k (2k rays, 2^k maximal cones, 3^k cones) and one
seeded GL(k,Z) image of it (the same fan in other coordinates), and times
``Fan(...)`` (ray, simpliciality, completeness and fan-condition checks) and
``cohomology.bad_subsets`` (the 2^(2k)-subset index, its cache bypassed) on a
fresh fan, each the minimum of three runs. The loci are
``stable_base_locus_exact`` and ``augmented_base_locus_exact`` of -K (ample)
and of the first prime divisor (nef, not ample): timed once per fresh fan,
which builds each region plan they read (``loci_cold_s``), and again on a
fan whose plans are built (``loci_s``), each the minimum of three runs. Then
it times ``Fan(...)`` alone on both fans less their first maximal cone: a
fan that is not complete, whose condition is checked pair by pair of maximal
cones. Prints one JSON object: per fan its name, rays, maximal cones, bad
subsets (the same for a fan and its image), the share of bad-subset region
plans that are gapless (``Plan.gapless``: every row of their levels 1.. has
coefficient 1, so an existence query needs no dive; read after the
timings), the minimal cones of the four loci, and the times in seconds; the
counts, share, loci and their times are None for a fan that is not
complete.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from itertools import product

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from toricpos import (  # noqa: E402
    Fan,
    ToricDivisor,
    augmented_base_locus_exact,
    stable_base_locus_exact,
)
from toricpos.cohomology import bad_subsets, sign_picks  # noqa: E402

SEED = 71
REPEAT = 3  # each time is the minimum over this many runs


def unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A seeded matrix in GL(n, Z): row operations on the identity, shuffled."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        a[i] = [x + s * y for x, y in zip(a[i], a[j])]
    rng.shuffle(a)
    return a


def p1_power(k: int, matrix=None) -> tuple:
    """(rank, rays, cones) of P1^k: rays e_1, -e_1, e_2, ... moved by
    ``matrix``, one maximal cone per choice of sign in each factor."""
    rays = [tuple(s * (i == j) for j in range(k)) for i in range(k) for s in (1, -1)]
    if matrix is not None:
        rays = [tuple(sum(a * x for a, x in zip(row, r)) for row in matrix) for r in rays]
    cones = [tuple(2 * i + s for i, s in enumerate(signs)) for signs in product((0, 1), repeat=k)]
    return k, tuple(rays), tuple(cones)


def best_of(run) -> tuple[float, object]:
    """The least wall time of REPEAT calls of ``run`` and its last result."""
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        out = run()
        times.append(time.perf_counter() - start)
    return min(times), out


def loci(fan: Fan) -> list:
    """The minimal cones of B(D) and B+(D), as lists, for D = -K, then D =
    the first prime divisor."""
    out = []
    for coeffs in ((1,) * fan.n_rays, (1,) + (0,) * (fan.n_rays - 1)):
        d = ToricDivisor(fan, coeffs)
        for locus in (stable_base_locus_exact, augmented_base_locus_exact):
            out.append([list(cone) for cone in locus(d).minimal_cones])
    return out


def cold_loci(rank: int, rays, cones) -> tuple[float, list]:
    """The least time of ``loci`` on REPEAT fresh fans, each built untimed."""
    times = []
    for _ in range(REPEAT):
        fan = Fan(rank, rays, cones)
        start = time.perf_counter()
        out = loci(fan)
        times.append(time.perf_counter() - start)
    return min(times), out


def measure(name: str, rank: int, rays, cones) -> dict:
    fan_s, fan = best_of(lambda: Fan(rank, rays, cones))
    row = {"fan": name, "rays": len(rays), "max_cones": len(cones), "bad_subsets": None,
           "gapless_share": None, "loci": None, "fan_s": round(fan_s, 6), "bad_subsets_s": None,
           "loci_cold_s": None, "loci_s": None}
    if fan.incompleteness is None:
        index_s, index = best_of(lambda: bad_subsets.__wrapped__(fan))
        cold_s, _ = cold_loci(rank, rays, cones)
        loci(fan)  # builds the plans, so each timed run reads them
        loci_s, found = best_of(lambda: loci(fan))
        regions = fan.regions(sign_picks)
        gapless = [regions[subset, ()][0].gapless for entries in index for subset, _ in entries]
        row.update(bad_subsets=len(gapless), gapless_share=round(sum(gapless) / len(gapless), 3),
                   loci=found, bad_subsets_s=round(index_s, 6), loci_cold_s=round(cold_s, 6),
                   loci_s=round(loci_s, 6))
    return row


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, nargs="+", default=[3, 4, 5, 6],
                        help="the powers k of P1^k to time (default 3 4 5 6)")
    args = parser.parse_args(argv)
    if min(args.k) < 2:
        parser.error("--k takes powers k >= 2")
    rng = random.Random(SEED)
    rows = []
    for k in args.k:
        fans = {f"P1^{k}": p1_power(k), f"GL.P1^{k}": p1_power(k, unimodular(rng, k))}
        rows += [measure(name, *fan) for name, fan in fans.items()]
        rows += [measure(f"{name} less a cone", rank, rays, cones[1:])
                 for name, (rank, rays, cones) in fans.items()]
    report = {"seed": SEED, "repeat": REPEAT, "python": sys.version.split()[0], "rows": rows}
    print(json.dumps(report))
    return report


if __name__ == "__main__":
    main()
