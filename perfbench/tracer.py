"""Outside-in tracer: wraps toricpos functions from the benchmark's side.

Each wrapped call records a span (name, start, end, parent, op id) in
memory. A function is rebound in the module that defines it and in every
loaded ``toricpos`` module that imported it by name, so calls through
``from .polyhedra import lp_strict_feasible`` are traced too. Self time is a
span's duration minus the time its child spans cover; calls are synchronous
and nested, so the children of one span never overlap.

Nothing here changes what a wrapped function returns or raises.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# (module, attribute path) of every traced function, by layer.
TARGETS = (
    ("toricpos.polyhedra", "simplex_max"),
    ("toricpos.polyhedra", "lp_optimize"),
    ("toricpos.polyhedra", "lp_strict_feasible"),
    ("toricpos.polyhedra", "lattice_points"),
    ("toricpos.fan", "Fan.__post_init__"),
    ("toricpos.fan", "star_quotient"),
    ("toricpos.fan", "validate"),
    ("toricpos.cohomology", "bad_subsets"),
    ("toricpos.cohomology", "reduced_cohomology"),
    ("toricpos.cohomology", "cohomology_dims"),
    ("toricpos.divisor", "restrict"),
    ("toricpos.divisor", "wall_degree"),
    ("toricpos.linalg", "rref"),
    ("toricpos.linalg", "solve_linear"),
    ("toricpos.linalg", "smith_normal_form"),
    ("toricpos.positivity", "classify_cones"),
    ("toricpos.positivity", "decide_qample"),
    ("toricpos.positivity", "is_qnef"),
    ("toricpos.positivity", "augmented_base_locus_exact"),
    ("toricpos.positivity", "stable_base_locus_exact"),
    ("toricpos.positivity", "smallest_qample"),
    ("toricpos.positivity", "scan_qample"),
    ("toricpos.workspace", "load_workspace"),
)


def span_name(module: str, attr: str) -> str:
    """Module suffix plus attribute; Fan.__post_init__ becomes fan.Fan.build."""
    layer = module.rsplit(".", 1)[1]
    if attr == "Fan.__post_init__":
        return f"{layer}.Fan.build"
    return f"{layer}.{attr}"


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op_id = -1  # -1 marks set-up work outside any timed op
        self.counts: dict[str, float] = {}
        self.star_seen: set = set()
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def record(self, name: str, start: float, end: float) -> int:
        """A closed span timed by the caller, e.g. a child process's wall time."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.op_id])
        return len(self.spans) - 1

    def add(self, key: str, value: float) -> None:
        if self.op_id >= 0:
            self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, observe=None):
        """Traced stand-in for fn; observe(args, kwargs, result) adds counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever toricpos imported it."""
        import toricpos  # noqa: F401  (loads every submodule)

        for module_name, attr in TARGETS:
            module = sys.modules[module_name]
            name = span_name(module_name, attr)
            if "." in attr:  # a method: rebind on the class only
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, self._observer(name)))
                continue
            original = getattr(module, attr)
            traced = self._wrap_target(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "toricpos" and not mod_name.startswith("toricpos."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap_target(self, name: str, original):
        if name == "cohomology.bad_subsets":
            return self._wrap_cached(name, original)
        return self.wrap(name, original, self._observer(name))

    def _wrap_cached(self, name: str, original):
        """bad_subsets is lru-cached: a call is a miss when the cache grows."""

        @functools.wraps(original)
        def traced(*args, **kwargs):
            before = original.cache_info().misses
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx)
            if original.cache_info().misses > before:
                self.spans[idx][0] = name + ".build"
                self.add(name + ".misses", 1)
            return result

        traced.cache_info = original.cache_info
        traced.cache_clear = original.cache_clear
        return traced

    def _observer(self, name: str):
        if name == "polyhedra.simplex_max":

            def observe(args, kwargs, result):
                a_rows, b_vals, cost = args[:3]
                m, n = len(a_rows), len(cost)
                artificial = sum(1 for b in b_vals if b < 0)
                self.add(name + ".tableau_cells", m * (n + m + artificial))

            return observe
        if name == "polyhedra.lattice_points":

            def observe(args, kwargs, result):
                self.add(name + ".points", len(result))
                self.add(name + ".hits", 1 if result else 0)

            return observe
        if name == "fan.star_quotient":

            def observe(args, kwargs, result):
                fan, tau = args[0], tuple(sorted(args[1]))
                key = (fan.rank, fan.rays, fan.max_cones, tau)
                if key in self.star_seen:
                    self.add(name + ".repeats", 1)
                self.star_seen.add(key)

            return observe
        return None

    # -- output ----------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time (outermost spans only) and self time.

    Only spans inside timed ops (op id >= 0) are counted. Spans are
    [name, start, end, parent index, op id] with parents before children.
    """
    child_cover = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child_cover[s[3]] += s[2] - s[1]
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        if op < 0:
            continue
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "child_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_cover[i]
        entry["child_s"] += child_cover[i]
        if not _has_ancestor(spans, parent, name):
            entry["s"] += end - start
    return stats


def time_under(spans, name: str, ancestor: str) -> float:
    """Total time of the spans called name that run inside an ancestor span."""
    return sum(
        s[2] - s[1]
        for s in spans
        if s[0] == name and s[4] >= 0 and _has_ancestor(spans, s[3], ancestor)
        and not _has_ancestor(spans, s[3], name)
    )


def _has_ancestor(spans, parent: int, name: str) -> bool:
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def merge_child(tracer: Tracer, child: dict, op_id: int, parent: int) -> None:
    """Append a child process's spans and counts under one parent span.

    perf_counter reads the system-wide monotonic clock, so the child's
    timestamps are comparable with the parent's.
    """
    base = len(tracer.spans)
    for name, start, end, p, _ in child["spans"]:
        tracer.spans.append([name, start, end, parent if p < 0 else base + p, op_id])
    for key, value in child["counts"].items():
        tracer.counts[key] = tracer.counts.get(key, 0) + value
