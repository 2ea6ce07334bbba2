#!/usr/bin/env python3
"""Microbenchmark of region queries, each a (plan, constants) pair.

    python scripts/region_bench.py [--seed 71] [--classes 13] [--repeat 3]

Draws ``--classes`` seeded (class, q) pairs on the built-in totaro-x
workspace and runs ``check_mode_agreement`` on each, recording every region
query it asks: the scan's existence queries on the subset regions of each
twist N*D - j*H, each a (window read, (N, j)) pair (``Twists.has_point``,
a region's level 0 read once per search from its per-row sums), split three
ways: the "reject" kind, those level 0 answers no (y_0 holds no integer),
the "gapless" kind, those level 0 answers yes on a gapless plan
(``Plan.gapless``: y_0 holds an integer and no level below it has a gap),
and the "dive" kind, those that build the constants and dive
(``Plan.dive``), on a plan that is not gapless;
``_persists``'s two questions, the eps = 0 closure of D's subset region
(``Plan.closure_nonempty``, kind "face") and the joint system in (y, eps)
(``Plan.strictly_feasible``), and the (eps, y) point a failure certificate
prints (``Plan.point``, kind "witness"), each a (plan, constants) pair. It
then builds each recorded plan afresh (``Plan(...)``), once however many
kinds ask it, and each recorded window read afresh on its first query, and
replays the queries ``--repeat`` times, timing each one. The script prints,
per kind, the queries, microseconds per query on the first replay (which
builds each plan's projections and each window read's sums) and the median
over the later replays (warm, "-" under ``--repeat 1``), and how many
answered yes; then the plans built for the replay and the projections
(``_projection`` calls) it made, each kept by the plan that asked for it.
The dive line's fallback column reads walked/held: how many dives stopped
at an integer gap, a level whose range holds no integer, and read the count
walk (``Plan.blocks``), and how many of those held a point. Each kind's line
also gives the size of the projections its queries read on its distinct
plans: a rejection or a gapless yes reads level 0 (``Plan.top``), as does
a closure, a strict-feasibility question the projection onto t
(``Plan.t_projection``), a dive the chain of levels (``Plan.levels``) and a
witness both t's projection and the chain. The line sums their rows (level_rows) and gives
the rows of the largest (max_level). A subset's plan answers its scan
queries and its closure, so it counts under each kind that asks it, with
the levels each reads.

It then times the walk's counting layer the same way, on four fans:
``--classes`` seeded classes, each times a multiple k in 10..20, go through
``cohomology_dims``, which counts each bad subset's weight region
(``Plan.blocks``); the recorded queries are replayed ``--repeat`` times.
totaro-x is the fan the perfbench workloads run; P(1,1,2), whose ray
(-1, -2) gives a row with last coefficient -2, times the floor sums; P1^4
(dimension 4) has grandparents below the root, so its parents come from
many nodes' progressions; and a fixed GL(3,Z) image of totaro-x has plans
that are not gapless. A count line per fan gives microseconds per counted
region and per parent, the parent nodes (depth n - 2) the walk reaches per
pass, the children per parent (v_hi - v_lo + 1 of each parent), the share
of parents with a term whose row has a last coefficient |a| > 1 (one that
``parent_sum`` reads with a floor sum, not an arithmetic series), and the
blocks (parents holding a weight) per region.
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import sys
import time
from functools import partial
from itertools import product

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import toricpos.cohomology  # noqa: E402
import toricpos.polyhedra as polyhedra  # noqa: E402
import toricpos.positivity  # noqa: E402
from toricpos import Fan, ModeDisagreement, ToricDivisor, load_workspace  # noqa: E402
from toricpos.polyhedra import Plan, Twists  # noqa: E402

# kind -> the class and method that answer its queries; a scan query is
# recorded as "subset" and split into "reject", "gapless" and "dive"
# (``scan_queries``)
ASKS = {"subset": (Twists, "has_point"), "face": (Plan, "closure_nonempty"),
        "joint": (Plan, "strictly_feasible"), "witness": (Plan, "point")}
KINDS = ("reject", "gapless", "dive", "face", "joint", "witness")
# kind -> the projections of a plan that its queries read
READS = {
    "reject": lambda plan: (plan.top,),
    "gapless": lambda plan: (plan.top,),
    "dive": lambda plan: plan.levels,
    "face": lambda plan: (plan.top,),
    "joint": lambda plan: (plan.t_projection,),
    "witness": lambda plan: (plan.t_projection, *plan.levels),
}
# the count lines' fans; a row of P(1,1,2) has a last coefficient -2, and
# GL.totaro-x is totaro-x's rays moved by GL_MATRIX
COUNT_FANS = ("totaro-x", "P(1,1,2)", "P1^4", "GL.totaro-x")
GL_MATRIX = ((0, 1, 2), (1, -1, 0), (0, 2, 3))


def recorded(asks, run):
    """Call run() with each kind's (class, method) in ``asks`` recording
    each call as [kind, self, args, answer]; return the calls in the order
    they were made (a call made inside another comes after it)."""
    calls = []

    def recorder(kind, method):
        def recording(self, *args):
            call = [kind, self, args, None]
            calls.append(call)
            call[3] = method(self, *args)
            return call[3]
        return recording

    originals = [(owner, name, getattr(owner, name)) for owner, name in asks.values()]
    for kind, (owner, name, method) in zip(asks, originals):
        setattr(owner, name, recorder(kind, method))
    try:
        run()
    finally:
        for owner, name, method in originals:
            setattr(owner, name, method)
    return calls


def plan_of(asked):
    """The plan a query reads: its own, or its window read's."""
    return asked.plan if isinstance(asked, Twists) else asked


def scan_queries(seed: int, classes: int):
    """(kind, asked, args) for every region query the mode check of each
    seeded (class, q) pair asks, in order: a scan query's window read
    (``Twists``) with its (N, j), of kind "dive" when it calls ``Plan.dive``,
    else "gapless" when level 0 answers yes and "reject" when it answers
    no, or the plan of any other query with its constants."""
    fan = load_workspace("totaro-x").fan
    rng = random.Random(f"region-bench:{seed}")

    def run():
        for _ in range(classes):
            d = ToricDivisor(fan, tuple(rng.randint(-4, 4) for _ in range(fan.n_rays)))
            try:
                toricpos.positivity.check_mode_agreement(d, rng.randint(0, fan.rank - 1))
            except ModeDisagreement:
                pass  # the queries are recorded all the same

    queries = []
    for kind, asked, args, answer in recorded({**ASKS, "dive": (Plan, "dive")}, run):
        if kind == "dive":  # called by the scan query just recorded: it dives
            queries[-1] = ("dive", *queries[-1][1:])
        elif kind == "subset":
            queries.append(("gapless" if answer else "reject", asked, args))
        else:
            queries.append((kind, asked, args))
    return queries


def replay(queries, repeat: int):
    """Per kind, [queries, ns of each replay, yes answers] over ``repeat``
    replays on a fresh copy of each recorded plan and window read, the
    number of plans built and the ``_projection`` calls of the replay. A
    window read is rebuilt on its first query, inside the first replay's
    timing, as a search reads it on its region's first query."""
    fresh = {}
    for _, asked, _ in queries:
        plan = plan_of(asked)
        if id(plan) not in fresh:
            fresh[id(plan)] = Plan(plan.dim, plan.strict, plan.weak)
    windows = {}  # id of a recorded window read -> its copy on the fresh plan

    def window_query(twists, n, j):
        copy = windows.get(id(twists))
        if copy is None:
            copy = windows[id(twists)] = Twists(fresh[id(twists.plan)], twists.b_d, twists.b_h)
        return copy.has_point(n, j)

    calls = [(kind, partial(window_query, asked) if isinstance(asked, Twists)
              else getattr(fresh[id(asked)], ASKS[kind][1]), args) for kind, asked, args in queries]
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
            for i, (kind, asked, args) in enumerate(calls):
                start = clock()
                answers[i] = asked(*args)
                totals[kind][1][r] += clock() - start
    finally:
        polyhedra._projection = project
    for (kind, _, _), answer in zip(calls, answers):
        totals[kind][0] += 1
        totals[kind][2] += bool(answer)
    return totals, len(fresh), len(projections)


def fallbacks(queries):
    """(walked, held): how many dives dead-ended and read the count walk,
    and how many of those held a point."""
    asks = [(asked, args) for kind, asked, args in queries if kind == "dive"]
    walked = recorded({"blocks": (Plan, "blocks")}, lambda: [asked.has_point(*args) for asked, args in asks])
    return len(walked), sum(next(plan.blocks(b), None) is not None for _, plan, (b, *_), _ in walked)


def level_sizes(queries):
    """Per kind, (rows, largest): the rows of the projections its queries
    read (``READS``) on its distinct plans summed, and the rows of the
    largest of them."""
    plans = {kind: {} for kind in KINDS}
    for kind, asked, _ in queries:
        plans[kind][id(plan_of(asked))] = plan_of(asked)
    sizes = {kind: [sum(map(len, level)) for plan in kept.values() for level in READS[kind](plan)]
             for kind, kept in plans.items()}
    return {kind: (sum(rows), max(rows, default=0)) for kind, rows in sizes.items()}


def count_fan(name: str) -> Fan:
    if name == "P(1,1,2)":
        return Fan(2, ((1, 0), (-1, -2), (0, 1)), ((0, 1), (1, 2), (0, 2)), name=name)
    if name == "P1^4":  # rays e_1, -e_1, e_2, ...; a maximal cone per choice of sign in each factor
        rays = tuple(tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1))
        return Fan(4, rays, tuple(tuple(2 * i + s for i, s in enumerate(signs))
                                  for signs in product((0, 1), repeat=4)), name=name)
    fan = load_workspace("totaro-x").fan
    if name == "GL.totaro-x":
        rays = tuple(tuple(sum(a * x for a, x in zip(row, r)) for row in GL_MATRIX) for r in fan.rays)
        return Fan(fan.rank, rays, fan.max_cones, name=name)
    return fan


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

    return [(plan, b) for _, plan, (b, *_), _ in recorded({"blocks": (Plan, "blocks")}, run)]


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
        fallback = f"{walked}/{held}" if kind == "dive" else "-"
        rows, largest = levels[kind]
        print(f"{kind:<14}{count:>9}{first:>12}{warm:>11}{yes:>7}{fallback:>10}{rows:>12}{largest:>11}")
    print(f"{'plans built':<14}{plans:>9}")
    print(f"{'projections':<14}{projections:>9}")
    print(f"{'count':<14}{'regions':>9}{'us/region':>11}{'us/parent':>11}{'parents':>9}"
          f"{'children/parent':>17}{'|a|>1_share':>13}{'blocks/region':>15}")
    for fan_name in COUNT_FANS:
        counted = count_queries(args.seed, args.classes, fan_name)
        spent, parents, children, wide, blocks = count_replay(counted, args.repeat)
        us = spent / 1000 / args.repeat
        print(f"{fan_name:<14}{len(counted):>9}{us / len(counted):>11.1f}{us / max(parents, 1):>11.2f}"
              f"{parents:>9}{children / max(parents, 1):>17.1f}{wide / max(parents, 1):>13.3f}"
              f"{blocks / len(counted):>15.1f}")


if __name__ == "__main__":
    main()
