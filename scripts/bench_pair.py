#!/usr/bin/env python3
"""Paired before/after benchmark of two toricpos checkouts.

    python scripts/bench_pair.py --base DIR --change DIR --label NAME

For every workload in ``BENCHMARK.json``, runs ``perfbench/run.py --trace 0``
of the two checkouts in ten alternating pairs (seeds 71, 72, ...; the first
run of a pair switches sides every pair, so a slow drift of the machine hits
both sides alike), then one traced pair (``--trace 1``, seed 71) for the per-layer metrics.
Run length, metrics, their better direction and their bound come from the
base checkout's ``BENCHMARK.json``. Writes ``BENCH_<NAME>.json`` in the
current directory: per metric the median and quartiles of each side, how
many pairs the change won and the ``gain_rule`` and ``within_bound`` flags
(``compare``), plus an ``env`` block (Python version, usable cores, whether
``PYTHONDONTWRITEBYTECODE`` is set, and each checkout's commit), since
cold-cli figures move with the bytecode flag. A run that fails stops the
script with exit 1 after printing its argv and the tail of its stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SEED0 = 71
PAIRS = 10  # a gain claim needs ten alternating pairs
STDERR_TAIL = 20  # lines of a failed run's stderr to print


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, os.path.join(checkout, "perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        tail = "\n".join(out.stderr.splitlines()[-STDERR_TAIL:])
        sys.exit(f"error: exit {out.returncode} from {' '.join(argv)}\n{tail}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"  {os.path.basename(checkout.rstrip('/'))} seed={seed} trace={trace} "
          f"correct={result['correct']} failed={result['failed']}", flush=True)
    return result


def git_head(checkout: str) -> str | None:
    """The checkout's ``git rev-parse HEAD``, or None outside a git clone."""
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def environment(base: str, change: str) -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "git_head": {"base": git_head(base), "change": git_head(change)},
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(base: list[float], change: list[float], direction: str, bound: float) -> dict:
    """One metric's paired runs (pair k is base[k], change[k]) summarised,
    with two flags. ``gain_rule``: the change wins at least nine tenths of
    the pairs, ties counting for neither side, and its median is better than
    the base's by more than the base's quartile spread. ``within_bound``: the
    change's median is worse than the base's by no more than ``bound``, a
    fraction of the base's median."""
    higher = direction == "higher"
    wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
    b, c = summary(base), summary(change)
    gain = c["median"] - b["median"] if higher else b["median"] - c["median"]
    return {
        "better": direction,
        "base": b,
        "change": c,
        "change_wins": f"{wins}/{len(base)}",
        "median_ratio": c["median"] / b["median"],
        "gain_rule": 10 * wins >= 9 * len(base) and gain > b["q3"] - b["q1"],
        "within_bound": -gain <= bound * abs(b["median"]),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--base", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    with open(os.path.join(args.base, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    report = {
        "label": args.label, "pairs": PAIRS, "seconds": seconds,
        "env": environment(args.base, args.change), "workloads": {},
    }
    for workload in workloads:
        print(workload, flush=True)
        runs = {"base": [], "change": []}
        for k in range(PAIRS):
            seed = SEED0 + k
            order = ("base", "change") if k % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, seed, seconds, 0))
        entry = {
            "all_correct": all(r["correct"] and r["failed"] == 0 for rs in runs.values() for r in rs),
            "end_to_end": {},
        }
        for metric, (direction, bound) in metrics.items():
            base = [r["metrics"][metric]["value"] for r in runs["base"]]
            change = [r["metrics"][metric]["value"] for r in runs["change"]]
            entry["end_to_end"][metric] = compare(base, change, direction, bound)
        traced = {side: run_once(getattr(args, side), workload, SEED0, seconds, 1)
                  for side in ("base", "change")}
        entry["traced_pair"] = {
            "seed": SEED0,
            "correct": all(t["correct"] and t["failed"] == 0 for t in traced.values()),
            "metrics": {
                name: {side: traced[side]["metrics"][name]["value"] for side in traced}
                for name in traced["base"]["metrics"]
            },
        }
        report["workloads"][workload] = entry
        with open(f"BENCH_{args.label}.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
