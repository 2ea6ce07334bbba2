#!/usr/bin/env python3
"""Microbenchmark of the region queries behind the q-ample scan.

    python scripts/region_bench.py [--seed 71] [--classes 13] [--repeat 3]

Draws ``--classes`` seeded (class, q) pairs on the built-in totaro-x
workspace and runs ``check_mode_agreement`` on each, recording every region
its scan hands to ``lattice_points``. It then empties the plan and
projection caches and replays the recorded regions ``--repeat`` times as the
scan asks them, ``lattice_points(region, first_only=True)``, timing each
query. A query is sorted by its answer: empty over Q (its closure is
empty), a hit (it has a lattice point) or empty over Z only. The script
prints microseconds per query for each kind, and the hits and misses of the
plan and projection caches over the replay.

It then times the walk's counting layer the same way: ``--classes`` seeded
classes on totaro-x, each times a multiple k in 10..20, go through
``cohomology_dims``, which counts each bad subset's weight region by
``lattice_blocks``; the recorded regions are replayed ``--repeat`` times.
The count line gives microseconds per counted region, the parent nodes
(depth n - 2) the walk reaches per pass, the children per parent and the
blocks (parents holding a weight) per region.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import toricpos.cohomology  # noqa: E402
import toricpos.positivity  # noqa: E402
from toricpos import ModeDisagreement, ToricDivisor, load_workspace  # noqa: E402
from toricpos.polyhedra import (  # noqa: E402
    _parent_folds,
    _plan,
    _projection,
    closure_nonempty,
    lattice_blocks,
    lattice_points,
)

KINDS = ("empty over Q", "hit", "empty over Z")


def scan_regions(seed: int, classes: int):
    """The regions the scan of each seeded (class, q) pair queries, in order."""
    fan = load_workspace("totaro-x").fan
    rng = random.Random(f"region-bench:{seed}")
    regions = []

    def recording(poly, first_only=False):
        regions.append(poly)
        return lattice_points(poly, first_only)

    toricpos.positivity.lattice_points = recording
    try:
        for _ in range(classes):
            d = ToricDivisor(fan, tuple(rng.randint(-4, 4) for _ in range(fan.n_rays)))
            try:
                toricpos.positivity.check_mode_agreement(d, rng.randint(0, fan.rank - 1))
            except ModeDisagreement:
                pass  # the scan's regions are recorded all the same
    finally:
        toricpos.positivity.lattice_points = lattice_points
    return regions


def replay(regions, repeat: int):
    """Per kind, (queries, total ns) over ``repeat`` replays from empty
    caches, and the cache counters of the replay."""
    _plan.cache_clear()
    _projection.cache_clear()
    answers, spent = [None] * len(regions), [0] * len(regions)
    clock = time.perf_counter_ns
    for _ in range(repeat):
        for i, region in enumerate(regions):
            start = clock()
            answers[i] = lattice_points(region, first_only=True)
            spent[i] += clock() - start
    caches = {"plan": _plan.cache_info(), "projection": _projection.cache_info()}
    totals = {kind: [0, 0] for kind in KINDS}
    for region, points, ns in zip(regions, answers, spent):
        kind = "hit" if points else "empty over Z" if closure_nonempty(region) else "empty over Q"
        totals[kind][0] += 1
        totals[kind][1] += ns
    return totals, caches


def count_regions(seed: int, classes: int):
    """The weight regions ``cohomology_dims`` counts for each seeded class
    times a multiple k in 10..20, in order."""
    fan = load_workspace("totaro-x").fan
    rng = random.Random(f"count-bench:{seed}")
    regions = []

    def recording(poly):
        regions.append(poly)
        return lattice_blocks(poly)

    toricpos.cohomology.lattice_blocks = recording
    try:
        for _ in range(classes):
            k = rng.randint(10, 20)
            toricpos.cohomology.cohomology_dims(
                ToricDivisor(fan, tuple(k * rng.randint(-2, 2) for _ in range(fan.n_rays))))
    finally:
        toricpos.cohomology.lattice_blocks = lattice_blocks
    return regions


def count_replay(regions, repeat: int):
    """Total ns of ``repeat`` replays of the counts, and the parents, their
    children and the blocks of one pass."""
    clock = time.perf_counter_ns
    spent = 0
    for _ in range(repeat):
        for region in regions:
            start = clock()
            tuple(lattice_blocks(region))
            spent += clock() - start
    parents = children = blocks = 0
    for region in regions:
        for _, _, _, his, _ in _parent_folds(region):
            parents += 1
            children += len(list(his))
        blocks += sum(1 for _ in lattice_blocks(region))
    return spent, parents, children, blocks


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=71)
    parser.add_argument("--classes", type=int, default=13)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    if args.classes < 1 or args.repeat < 1:
        parser.error("--classes and --repeat must be positive")
    regions = scan_regions(args.seed, args.classes)
    totals, caches = replay(regions, args.repeat)
    print(f"{len(regions)} queries from {args.classes} classes on totaro-x "
          f"(seed {args.seed}), replayed {args.repeat} times")
    print(f"{'kind':<14}{'queries':>9}{'us/query':>10}")
    for kind in KINDS:
        count, ns = totals[kind]
        per_query = f"{ns / 1000 / (count * args.repeat):.1f}" if count else "-"
        print(f"{kind:<14}{count:>9}{per_query:>10}")
    for name, info in caches.items():
        print(f"{name + ' cache':<17}hits {info.hits:>6}  misses {info.misses:>5}")
    counted = count_regions(args.seed, args.classes)
    spent, parents, children, blocks = count_replay(counted, args.repeat)
    print(f"{'count':<14}{'regions':>9}{'us/region':>11}{'parents':>9}"
          f"{'children/parent':>17}{'blocks/region':>15}")
    print(f"{'weights':<14}{len(counted):>9}{spent / 1000 / (len(counted) * args.repeat):>11.1f}"
          f"{parents:>9}{children / max(parents, 1):>17.1f}{blocks / len(counted):>15.1f}")


if __name__ == "__main__":
    main()
