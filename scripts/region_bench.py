#!/usr/bin/env python3
"""Microbenchmark of region queries, each a (plan, constants) pair.

    python scripts/region_bench.py [--seed 71] [--classes 13] [--repeat 3]

Draws ``--classes`` seeded (class, q) pairs on the built-in totaro-x
workspace and runs ``check_mode_agreement`` on each, recording every region
query it asks as (plan, b): the scan's existence queries on the subset
regions of each twist N*D - j*H (``Plan.has_point``), ``_persists``'s
two questions, the eps = 0 closure of D's subset region
(``Plan.closure_nonempty``, kind "face") and the joint system in (y, eps)
(``Plan.strictly_feasible``), and the (eps, y) point a failure certificate
prints (``Plan.point``, kind "witness"). It then builds each recorded plan afresh
(``Plan(...)``), once however many kinds ask it, and replays the queries
``--repeat`` times, timing each one. The script prints, per kind, the queries,
microseconds per query on the first replay (which builds each plan's
projections) and the median over the later replays (warm, "-" under
``--repeat 1``), and how many answered yes; then the plans built for the
replay and the projections (``_projection`` calls) it made, each kept by
the plan that asked for it. The subset line's fallback column reads
walked/held: how many ``has_point`` dives stopped at an integer gap, a level
whose range holds no integer, and read the count walk (``Plan.blocks``),
and how many of those held a point. Each kind's line also gives the size
of the projections its queries read on its distinct plans: a closure reads
level 0 (``Plan.top``), a strict-feasibility question the projection onto
t (``Plan.t_projection``), a walk the chain of levels (``Plan.levels``) and
a witness both t's projection and the chain. The line sums their rows
(level_rows) and gives the rows of the largest (max_level). A subset's
plan answers both its scan queries and its closure, so it counts under
both the subset and the face kind, with the levels each reads.

It then times the walk's counting layer the same way, on two fans:
``--classes`` seeded classes, each times a multiple k in 10..20, go through
``cohomology_dims``, which counts each bad subset's weight region
(``Plan.blocks``); the recorded queries are replayed ``--repeat`` times.
totaro-x is the fan the perfbench workloads run, and P(1,1,2), whose ray
(-1, -2) gives a row with last coefficient -2, times the floor sums. A count
line per fan gives microseconds per counted region, the parent nodes (depth
n - 2) the walk reaches per pass, the children per parent (v_hi - v_lo + 1
of each parent), the share of parents with a term whose row has a last
coefficient |a| > 1 (one that ``parent_count`` reads with a floor sum, not
an arithmetic series), and the blocks (parents holding a weight) per region.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import toricpos.cohomology  # noqa: E402
import toricpos.polyhedra as polyhedra  # noqa: E402
import toricpos.positivity  # noqa: E402
from toricpos import Fan, ModeDisagreement, ToricDivisor, load_workspace  # noqa: E402
from toricpos.polyhedra import Plan  # noqa: E402

# kind -> the Plan method that answers its queries
KINDS = {"subset": "has_point", "face": "closure_nonempty", "joint": "strictly_feasible",
         "witness": "point"}
# kind -> the projections of a plan that its queries read
READS = {
    "subset": lambda plan: plan.levels,
    "face": lambda plan: (plan.top,),
    "joint": lambda plan: (plan.t_projection,),
    "witness": lambda plan: (plan.t_projection, *plan.levels),
}
# the count lines' fans; a row of P(1,1,2) has a last coefficient -2
COUNT_FANS = ("totaro-x", "P(1,1,2)")


def recorded(methods, run):
    """Call run() with the named Plan methods recording each call as
    (method, plan, b); return the calls in order."""
    calls = []
    originals = {name: getattr(Plan, name) for name in methods}

    def recorder(name, method):
        def recording(plan, b, *args):
            calls.append((name, plan, b))
            return method(plan, b, *args)
        return recording

    for name, method in originals.items():
        setattr(Plan, name, recorder(name, method))
    try:
        run()
    finally:
        for name, method in originals.items():
            setattr(Plan, name, method)
    return calls


def scan_queries(seed: int, classes: int):
    """(kind, plan, b) for every region query the mode check of each seeded
    (class, q) pair asks, in order."""
    fan = load_workspace("totaro-x").fan
    rng = random.Random(f"region-bench:{seed}")

    def run():
        for _ in range(classes):
            d = ToricDivisor(fan, tuple(rng.randint(-4, 4) for _ in range(fan.n_rays)))
            try:
                toricpos.positivity.check_mode_agreement(d, rng.randint(0, fan.rank - 1))
            except ModeDisagreement:
                pass  # the queries are recorded all the same

    kind_of = {method: kind for kind, method in KINDS.items()}
    return [(kind_of[name], plan, b) for name, plan, b in recorded(KINDS.values(), run)]


def replay(queries, repeat: int):
    """Per kind, [queries, ns of each replay, yes answers] over ``repeat``
    replays on a fresh copy of each recorded plan, the number of plans built
    and the ``_projection`` calls of the replay."""
    fresh = {}
    for _, plan, _ in queries:
        if id(plan) not in fresh:
            fresh[id(plan)] = Plan(plan.dim, plan.strict, plan.weak)
    calls = [(kind, getattr(fresh[id(plan)], KINDS[kind]), b) for kind, plan, b in queries]
    totals = {kind: [0, [0] * repeat, 0] for kind in KINDS}
    answers = [None] * len(calls)
    clock = time.perf_counter_ns
    project, projections = polyhedra._projection, []

    def counting(*args):
        projections.append(args)
        return project(*args)

    polyhedra._projection = counting
    try:
        for r in range(repeat):
            for i, (kind, ask, b) in enumerate(calls):
                start = clock()
                answers[i] = ask(b)
                totals[kind][1][r] += clock() - start
    finally:
        polyhedra._projection = project
    for (kind, _, _), answer in zip(calls, answers):
        totals[kind][0] += 1
        totals[kind][2] += bool(answer)
    return totals, len(fresh), len(projections)


def fallbacks(queries):
    """(walked, held): how many subset queries' dives dead-ended and read
    the count walk, and how many of those held a point."""
    asks = [(plan, b) for kind, plan, b in queries if kind == "subset"]
    walked = recorded(("blocks",), lambda: [plan.has_point(b) for plan, b in asks])
    return len(walked), sum(next(plan.blocks(b), None) is not None for _, plan, b in walked)


def level_sizes(queries):
    """Per kind, (rows, largest): the rows of the projections its queries
    read (``READS``) on its distinct plans summed, and the rows of the
    largest of them."""
    plans = {kind: {} for kind in KINDS}
    for kind, plan, _ in queries:
        plans[kind][id(plan)] = plan
    sizes = {kind: [sum(map(len, level)) for plan in kept.values() for level in READS[kind](plan)]
             for kind, kept in plans.items()}
    return {kind: (sum(rows), max(rows, default=0)) for kind, rows in sizes.items()}


def count_fan(name: str) -> Fan:
    if name == "P(1,1,2)":
        return Fan(2, ((1, 0), (-1, -2), (0, 1)), ((0, 1), (1, 2), (0, 2)), name=name)
    return load_workspace(name).fan


def count_queries(seed: int, classes: int, fan_name: str):
    """(plan, b) for every weight region ``cohomology_dims`` counts for each
    seeded class on the named fan times a multiple k in 10..20, in order."""
    fan = count_fan(fan_name)
    rng = random.Random(f"count-bench:{seed}")

    def run():
        for _ in range(classes):
            k = rng.randint(10, 20)
            toricpos.cohomology.cohomology_dims(
                ToricDivisor(fan, tuple(k * rng.randint(-2, 2) for _ in range(fan.n_rays))))

    return [(plan, b) for _, plan, b in recorded(("blocks",), run)]


def count_replay(queries, repeat: int):
    """Total ns of ``repeat`` replays of the counts, and the parents, their
    children, the parents with a |a| > 1 row and the blocks of one pass."""
    clock = time.perf_counter_ns
    spent = 0
    for _ in range(repeat):
        for plan, b in queries:
            start = clock()
            tuple(plan.blocks(b))
            spent += clock() - start
    parents = children = wide = blocks = 0
    for plan, b in queries:
        for _, v_lo, v_hi, terms in plan.parent_terms(b):
            parents += 1
            children += v_hi - v_lo + 1
            wide += any(d > 1 for side in terms for _, _, d in side)
        blocks += sum(1 for _ in plan.blocks(b))
    return spent, parents, children, wide, blocks


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=71)
    parser.add_argument("--classes", type=int, default=13)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    if args.classes < 1 or args.repeat < 1:
        parser.error("--classes and --repeat must be positive")
    queries = scan_queries(args.seed, args.classes)
    totals, plans, projections = replay(queries, args.repeat)
    print(f"{len(queries)} queries from {args.classes} classes on totaro-x "
          f"(seed {args.seed}), replayed {args.repeat} times")
    print(f"{'kind':<14}{'queries':>9}{'first_us/q':>12}{'warm_us/q':>11}{'yes':>7}{'fallback':>10}"
          f"{'level_rows':>12}{'max_level':>11}")
    walked, held = fallbacks(queries)
    levels = level_sizes(queries)
    for kind, (count, ns, yes) in totals.items():
        first = f"{ns[0] / 1000 / count:.1f}" if count else "-"
        warm = f"{statistics.median(ns[1:]) / 1000 / count:.1f}" if count and args.repeat > 1 else "-"
        fallback = f"{walked}/{held}" if kind == "subset" else "-"
        rows, largest = levels[kind]
        print(f"{kind:<14}{count:>9}{first:>12}{warm:>11}{yes:>7}{fallback:>10}{rows:>12}{largest:>11}")
    print(f"{'plans built':<14}{plans:>9}")
    print(f"{'projections':<14}{projections:>9}")
    print(f"{'count':<14}{'regions':>9}{'us/region':>11}{'parents':>9}"
          f"{'children/parent':>17}{'|a|>1_share':>13}{'blocks/region':>15}")
    for fan_name in COUNT_FANS:
        counted = count_queries(args.seed, args.classes, fan_name)
        spent, parents, children, wide, blocks = count_replay(counted, args.repeat)
        print(f"{fan_name:<14}{len(counted):>9}{spent / 1000 / (len(counted) * args.repeat):>11.1f}"
              f"{parents:>9}{children / max(parents, 1):>17.1f}{wide / max(parents, 1):>13.3f}"
              f"{blocks / len(counted):>15.1f}")


if __name__ == "__main__":
    main()
