"""Shows that the benchmark's output checks bite.

    python3 perfbench/gate_check.py

For every workload it runs one pass on seed 0 twice: once as is, which must
count no failed op, and once with one wrong answer injected in memory, which
must count failed ops. The injections flip the q = 1 verdict of
``decide_qample``, add one to a cohomology dimension, flip the scan's
obstruction verdict, and flip the first boolean verdict in each CLI report.
No file changes. Exits 1 if any injection goes unnoticed.
"""

from __future__ import annotations

import dataclasses
import re
import sys
import time

import run


def flip_qample(original):
    def wrong(d, q, *args, **kwargs):
        result = original(d, q, *args, **kwargs)
        return dataclasses.replace(result, verdict=not result.verdict) if q == 1 else result

    return wrong


def bump_cohomology(original):
    def wrong(d):
        table = original(d)
        dims = list(table.dims)
        dims[0] += 1
        return dataclasses.replace(table, dims=tuple(dims))

    return wrong


def flip_scan(original):
    def wrong(d, q, *args, **kwargs):
        out = dict(original(d, q, *args, **kwargs))
        out["scan"] = dataclasses.replace(out["scan"], obstructed=not out["scan"].obstructed)
        return out

    return wrong


def flip_cli_verdict(original):
    pattern = re.compile(rb'"(verdict|ample|complete|all_pass|pass|negative_restriction_big|'
                         rb'smooth|big|pseudoeffective|empty)": (true|false)')

    def wrong(argv, *args):
        code, out, err, kib = original(argv, *args)

        def swap(m):
            return m.group(0)[: -len(m.group(2))] + (b"false" if m.group(2) == b"true" else b"true")

        return code, pattern.sub(swap, out, count=1), err, kib

    return wrong


INJECTIONS = {
    "positivity-profile": ("toricpos", "decide_qample", flip_qample),
    "cohomology-multiples": ("toricpos", "cohomology_dims", bump_cohomology),
    "scan-oracle": ("toricpos", "check_mode_agreement", flip_scan),
    "cold-cli": ("workloads", "spawn", flip_cli_verdict),
}


def one_pass(workload: str) -> run.Loop:
    loop = run.Loop(workload, 0, run.load_reference())
    loop.warm_up()
    loop.run_pass(0, time.perf_counter() + run.HARD_STOP_S)
    return loop


def main() -> int:
    run.require_checkout()
    run.imported_from_checkout()
    status = 0
    for workload, (module_name, attr, make_wrong) in INJECTIONS.items():
        clean = one_pass(workload)
        module = sys.modules[module_name]
        original = getattr(module, attr)
        setattr(module, attr, make_wrong(original))
        try:
            injected = one_pass(workload)
        finally:
            setattr(module, attr, original)
        ok = clean.failed == 0 and injected.failed > 0
        status |= 0 if ok else 1
        print(f"{workload}: clean pass failed {clean.failed}/{len(clean.records)}, "
              f"injected pass failed {injected.failed}/{len(injected.records)} "
              f"-> {'gate bites' if ok else 'GATE DOES NOT BITE'}")
        if injected.failures:
            print(f"  first failure: {injected.failures[0][:160]}")
    return status


if __name__ == "__main__":
    sys.exit(main())
