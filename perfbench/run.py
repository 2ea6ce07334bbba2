"""toricpos benchmark: seeded closed-loop workloads, one client, one op at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload, both modes
    python3 perfbench/run.py --record-reference             # rewrite reference.json

Run it from anywhere inside a checkout; it imports toricpos from the
checkout's ``src`` directory and refuses to run without it. A run measures
a fixed number of whole passes over the workload's panel: as many as take
S seconds at the speed the benchmark was defined at. Timings are stated at
undisturbed machine speed, using a calibration kernel timed after every op;
the raw figures are on the ``info`` line.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics. With ``--trace 1`` the run first measures half its passes
untraced, then replays the same passes with the outside-in tracer installed
and reports the per-layer metrics and the tracing overhead. Everything the
run writes goes under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 3
HARD_STOP_S = 140  # stop mid-pass past this, to end well inside 180 s
# Interference correction: a fixed kernel timed after every op measures how
# fast the machine runs at that moment. CAL_REF_S is the kernel's
# undisturbed time on the 2-core VM the benchmark was defined on.
CAL_ITERATIONS = 70_000
CAL_REF_S = 0.0054


def require_checkout() -> None:
    """Exit 2 unless the toricpos source of this checkout is importable."""
    if not os.path.isfile(os.path.join(SRC, "toricpos", "__init__.py")):
        sys.stderr.write(f"error: no toricpos package under {SRC}; run inside a checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)


def imported_from_checkout():
    import toricpos

    where = os.path.realpath(toricpos.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        sys.stderr.write(f"error: toricpos resolved to {where}, not under {SRC}\n")
        sys.exit(2)
    return where


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Child mode: time import, workspace load and one warm-up op."""
    start = time.perf_counter()
    import workloads

    if workload in workloads.IN_PROCESS:
        workloads.IN_PROCESS[workload]().warm_up()
    else:
        workloads.ColdCli(ROOT, os.path.join(OUT, "setup"), seed).warm_up()
    elapsed = time.perf_counter() - start
    speed = CAL_REF_S / statistics.mean(calibration_sample() for _ in range(3))
    print(json.dumps({"setup_s": elapsed * speed, "raw_setup_s": elapsed}))


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median over fresh processes, so import and cache fills are cold.

    Returns the corrected and the raw median.
    """
    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                "--workload", workload, "--seed", str(seed)]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr[-500:]}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(probe["setup_s"])
        raw.append(probe["raw_setup_s"])
    return statistics.median(samples), statistics.median(raw)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs whole passes of one workload and records every op."""

    def __init__(self, workload: str, seed: int, reference: dict):
        import workloads

        self.w = workloads
        self.name = workload
        self.seed = seed
        self.reference = reference.get(workload, [])
        self.tracer = None
        # (pass serial, case, latency); a traced run replays pass indices, so
        # records and calibration are keyed by the order passes ran in
        self.records: list[tuple[int, int, float]] = []
        self.calibration: dict[int, list[float]] = {}
        self.failures: list[str] = []
        self.failed = 0
        self.peak_child_kib = 0
        self.digests: dict[int, str] = {}
        if workload in workloads.IN_PROCESS:
            self.inproc = workloads.IN_PROCESS[workload]()
            self.cold = None
        else:
            self.inproc = None
            self.cold = workloads.ColdCli(ROOT, OUT, seed)
        self.panel = (self.inproc or self.cold).panel
        self.nominal_pass_s = (self.inproc or self.cold).nominal_pass_s

    def warm_up(self) -> None:
        (self.inproc or self.cold).warm_up()

    def run_pass(self, index: int, deadline: float) -> bool:
        """One pass over the panel; False when the hard deadline cut it."""
        rng = self.w.pass_rng(self.seed, self.name, index)
        order = self.w.pass_order(rng, len(self.panel))
        if self.cold is not None:
            self.cold.write_workspaces(index)
            inputs = [(case, None) for case in order]
        else:
            inputs = [(case, self.inproc.make_input(rng, case)) for case in order]
        serial = len(self.calibration)
        self.calibration[serial] = []
        for case, inp in inputs:
            if time.perf_counter() > deadline:
                return False
            self._op(index, serial, case, inp)
        return True

    def _op(self, pass_index: int, serial: int, case: int, inp) -> None:
        op_id = len(self.records)
        self._started = time.perf_counter()
        try:
            if self.cold is not None:
                elapsed, fails, dg = self._cold_op(pass_index, case, op_id)
            else:
                elapsed, out = self._timed(op_id, self.inproc.run, inp)
                fails, dg = self.inproc.check(inp, out)
        except Exception as exc:  # any raise is a failed op; the loop goes on
            elapsed = time.perf_counter() - self._started
            fails, dg = [f"case {case}: {type(exc).__name__}: {exc}"], ""
        if not fails and case < len(self.reference) and dg != self.reference[case]:
            fails = [f"case {case}: output digest {dg} != reference {self.reference[case]}"]
        self.records.append((serial, case, elapsed))
        self.calibration[serial].append(calibration_sample())
        self.digests.setdefault(case, dg)
        if fails:
            self.failed += 1
            self.failures.extend(fails)

    def _timed(self, op_id: int, fn, *args):
        if self.tracer is not None:
            self.tracer.op_id = op_id
        self._started = time.perf_counter()
        if self.tracer is None:
            out = fn(*args)
        else:
            with self.tracer.span("op"):
                out = fn(*args)
            self.tracer.op_id = -1
        return time.perf_counter() - self._started, out

    def _cold_op(self, pass_index: int, case: int, op_id: int):
        trace_out = None
        if self.tracer is not None:
            trace_out = os.path.join(OUT, "child-spans.json")
        argv = self.cold.argv(pass_index, case, trace_out)
        self._started = time.perf_counter()
        code, out, err, kib = self.w.spawn(argv, ROOT, OUT)
        end = time.perf_counter()
        self.peak_child_kib = max(self.peak_child_kib, kib)
        if self.tracer is not None:
            import tracer as tracing

            child = tracing.load(trace_out)
            self.tracer.op_id = op_id
            parent = self.tracer.record("op", self._started, end)
            tracing.merge_child(self.tracer, child, op_id, parent)
            self.tracer.op_id = -1
        fails, dg = self.cold.check(case, code, out, err)
        return end - self._started, fails, dg


def calibration_sample() -> float:
    """Time one fixed pure-Python kernel; interference slows it like an op."""
    start = time.perf_counter()
    x = 0
    for k in range(CAL_ITERATIONS):
        x += k * k % 7
    return time.perf_counter() - start


def pass_count(loop: Loop, seconds: float) -> int:
    """Passes that take about `seconds` at the speed the benchmark was defined at.

    A fixed count, not a stop on the clock, gives every run and every commit
    the same number of samples, so the tail percentile means the same thing.
    """
    return max(1, round(seconds / loop.nominal_pass_s))


def run_loop(loop: Loop, passes: int, start: float) -> None:
    """Passes 0..passes-1, cut short only past the hard stop."""
    deadline = start + HARD_STOP_S
    for index in range(passes):
        if not loop.run_pass(index, deadline):
            break


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def corrected_latencies(loop: Loop) -> list[float]:
    """Op latencies stated at undisturbed machine speed.

    The machine's speed drifts by up to 2x within minutes from load outside
    the container. Each latency is scaled by CAL_REF_S over the mean
    calibration time of the pass it ran in.
    """
    speed = {p: CAL_REF_S / statistics.mean(v) for p, v in loop.calibration.items() if v}
    return [lat * speed[p] for p, _, lat in loop.records]


def latency_metrics(loop: Loop) -> tuple[dict, dict]:
    """Throughput, median and tail latency, corrected for interference.

    The info dict keeps the raw figures and how the tail was taken.
    """
    n = len(loop.records)
    beyond = 10 if n > 10 else n - 1

    def summary(lats):
        return (n / sum(lats), 1000 * statistics.median(lats),
                1000 * sorted(lats)[n - 1 - beyond])

    ops, p50, tail = summary(corrected_latencies(loop))
    raw_ops, raw_p50, raw_tail = summary([lat for _, _, lat in loop.records])
    metrics = {
        "ops_per_s": {"value": ops, "unit": "1/s"},
        "op_latency_p50_ms": {"value": p50, "unit": "ms"},
        "op_latency_tail_ms": {"value": tail, "unit": "ms"},
    }
    info = {"samples": n, "passes": len(loop.calibration),
            "tail_percentile": round(100 * (n - beyond) / n, 2), "samples_beyond_tail": beyond,
            "machine_speed": round(raw_ops / ops, 4),
            "raw_ops_per_s": raw_ops, "raw_p50_ms": raw_p50, "raw_tail_ms": raw_tail}
    return metrics, info


def layer_metrics(tracer, traced_s: float, traced_ops: int, untraced_s: float) -> dict:
    """Per-layer metrics from the spans and counts of the traced passes."""
    import tracer as tracing

    stats = tracing.span_stats(tracer.spans)
    counts = tracer.counts

    def get(name, key="s"):
        return stats.get(name, {}).get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    op_s = get("op")
    cli_s = get("cli.main")
    lp_calls = get("polyhedra.lattice_points", "calls")
    sq_calls = get("fan.star_quotient", "calls")
    values = {
        "polyhedra.simplex_max.calls": get("polyhedra.simplex_max", "calls"),
        "polyhedra.simplex_max.self_s": get("polyhedra.simplex_max", "self_s"),
        "polyhedra.simplex_max.tableau_cells": counts.get("polyhedra.simplex_max.tableau_cells", 0),
        "polyhedra.lp_strict_feasible.calls": get("polyhedra.lp_strict_feasible", "calls"),
        "polyhedra.lp_strict_feasible.s": get("polyhedra.lp_strict_feasible"),
        "polyhedra.lp_optimize.calls": get("polyhedra.lp_optimize", "calls"),
        "polyhedra.lp_optimize.s": get("polyhedra.lp_optimize"),
        "polyhedra.lattice_points.calls": lp_calls,
        "polyhedra.lattice_points.self_s": get("polyhedra.lattice_points", "self_s"),
        "polyhedra.lattice_points.bound_s": get("polyhedra.lattice_points", "child_s"),
        "polyhedra.lattice_points.points": counts.get("polyhedra.lattice_points.points", 0),
        "polyhedra.lattice_points.hit_frac": ratio(counts.get("polyhedra.lattice_points.hits", 0), lp_calls),
        "fan.Fan.builds": get("fan.Fan.build", "calls"),
        "fan.Fan.build_s": get("fan.Fan.build"),
        "fan.star_quotient.calls": sq_calls,
        "fan.star_quotient.s": get("fan.star_quotient"),
        "fan.star_quotient.repeat_frac": ratio(counts.get("fan.star_quotient.repeats", 0), sq_calls),
        "fan.validate.s": get("fan.validate"),
        "cohomology.bad_subsets.misses": counts.get("cohomology.bad_subsets.misses", 0),
        "cohomology.bad_subsets.build_s": get("cohomology.bad_subsets.build"),
        "cohomology.reduced_cohomology.calls": get("cohomology.reduced_cohomology", "calls"),
        "cohomology.reduced_cohomology.s": get("cohomology.reduced_cohomology"),
        "cohomology.cohomology_dims.s": get("cohomology.cohomology_dims"),
        "divisor.restrict.calls": get("divisor.restrict", "calls"),
        "divisor.restrict.self_s": get("divisor.restrict", "self_s"),
        "divisor.wall_degree.calls": get("divisor.wall_degree", "calls"),
        "divisor.wall_degree.s": get("divisor.wall_degree"),
        "linalg.rref.calls": get("linalg.rref", "calls"),
        "linalg.rref.s": get("linalg.rref"),
        "linalg.solve_linear.s": get("linalg.solve_linear"),
        "linalg.smith_normal_form.s": get("linalg.smith_normal_form"),
    }
    for fn in ("decide_qample", "is_qnef", "classify_cones", "augmented_base_locus_exact",
               "stable_base_locus_exact", "smallest_qample", "scan_qample"):
        values[f"positivity.{fn}.self_s"] = get(f"positivity.{fn}", "self_s")
    values.update({
        "workspace.load_workspace.s": get("workspace.load_workspace"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.process_overhead_s": op_s - cli_s if cli_s else 0.0,
        "share.simplex_max_self": ratio(values["polyhedra.simplex_max.self_s"], op_s),
        "share.lattice_points_self": ratio(values["polyhedra.lattice_points.self_s"], op_s),
        "share.lattice_points_bound": ratio(values["polyhedra.lattice_points.bound_s"], op_s),
        "share.star_quotient": ratio(values["fan.star_quotient.s"], op_s),
        "share.star_quotient_of_is_qnef": ratio(
            tracing.time_under(tracer.spans, "fan.star_quotient", "positivity.is_qnef"),
            get("positivity.is_qnef")),
        "trace.op_s": op_s,
        "trace.ops_per_s": traced_ops / traced_s,
        "trace.overhead_frac": traced_s / untraced_s - 1,
    })
    return {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if name.startswith("share.") or last.endswith("_frac"):
        return "frac"
    if last == "ops_per_s":
        return "1/s"
    if last == "s" or last.endswith("_s"):
        return "s"
    return "count"


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    setup_s, raw_setup_s = measure_setup(workload, seed)
    where = imported_from_checkout()
    loop = Loop(workload, seed, load_reference())
    loop.warm_up()
    passes = pass_count(loop, seconds)
    if not trace:
        run_loop(loop, passes, started)
        metrics, info = latency_metrics(loop)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb(loop), "unit": "MB"}
    else:
        import tracer as tracing

        half = max(1, round(passes / 2))
        run_loop(loop, half, started)
        untraced = corrected_latencies(loop)
        loop.tracer = tracing.Tracer()
        loop.tracer.install()
        try:
            run_loop(loop, half, started)  # the same passes, so the same inputs
        finally:
            loop.tracer.uninstall()
        traced = corrected_latencies(loop)[len(untraced):]
        # the hard stop may cut the replay short: compare the same ops only
        untraced_s = sum(untraced[:len(traced)])
        metrics = layer_metrics(loop.tracer, sum(traced), len(traced), untraced_s)
        loop.tracer.dump(os.path.join(OUT, f"spans-{workload}-{seed}.json"))
        info = {"samples": len(traced)}
    attempted = len(loop.records)
    with open(os.path.join(OUT, f"ops-{workload}-{seed}-{int(trace)}.json"), "w") as fh:
        json.dump(loop.records, fh)
    info.update({
        "workload": workload, "seed": seed, "trace": int(trace),
        "failed_frac": loop.failed / attempted, "toricpos": where, "raw_setup_s": raw_setup_s,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "wall_s": round(time.perf_counter() - started, 3),
    })
    print("info " + json.dumps(info, sort_keys=True))
    for message in loop.failures[:5]:
        print("failure " + message)
    return {"correct": loop.failed == 0, "attempted": attempted, "failed": loop.failed,
            "metrics": metrics}


def peak_rss_mb(loop: Loop) -> float:
    if loop.cold is not None:
        return loop.peak_child_kib / 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# whole-suite and reference modes
# ---------------------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced, in fresh processes; prints a table."""
    import workloads

    status = 0
    for name in workloads.NAMES:
        results = []
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(f"{name} trace={trace} exited {done.returncode}\n{done.stderr[-2000:]}")
                return 1
            results.append(json.loads(done.stdout.strip().splitlines()[-1]))
            for line in done.stdout.splitlines()[:-1]:
                print(f"{name}: {line}")
        plain, traced = results
        status |= 0 if plain["correct"] and traced["correct"] else 1
        print(f"== {name}: attempted {plain['attempted']}, failed {plain['failed']} "
              f"(failed_frac {plain['failed'] / plain['attempted']:.4f})")
        for key, m in {**plain["metrics"], **traced["metrics"]}.items():
            print(f"   {key:44s} {m['value']:14.6g} {m['unit']}")
        overhead = plain["metrics"]["ops_per_s"]["value"] / traced["metrics"]["trace.ops_per_s"]["value"] - 1
        print(f"   {'tracing overhead vs untraced run':44s} {overhead:14.6g} frac")
    return status


def record_reference(seed: int) -> int:
    """Digest of every panel case from one pass of each workload."""
    import workloads

    imported_from_checkout()
    reference = {}
    for name in workloads.NAMES:
        loop = Loop(name, seed, {})
        loop.warm_up()
        loop.run_pass(0, time.perf_counter() + HARD_STOP_S)
        if loop.failed:
            print(f"{name}: checks failed, not recording:\n" + "\n".join(loop.failures))
            return 1
        reference[name] = [loop.digests[c] for c in range(len(loop.panel))]
        print(f"{name}: {len(loop.panel)} digests")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    require_checkout()
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.record_reference:
        return record_reference(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
