"""Workload definitions: seeded inputs, the timed operation, output checks.

Every workload draws its operations from a fixed panel of cases. The seed
picks, for each pass over the panel, the order of the cases and the
representative the program receives: a linearly equivalent divisor
D + div(chi^m) for the in-process workloads, and a GL(n,Z) image of each
fan for ``cold-cli``. Verdicts, cohomology dimensions, base loci and
obstructing subsets do not depend on that choice, so one reference digest
per case checks every seed, while each seed still hands the program
different numbers. A run measures whole passes, so every run carries the
same mix of cheap and expensive cases.

A check returns a list of failure messages; an empty list means the output
passed. Checks use invariants that do not go through the simplex where they
can: certificates are verified with ``Polyhedron.satisfied_by`` and weights
with integer dot products.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import threading
from math import gcd

import toricpos

TOTARO = toricpos.BUILTIN_WORKSPACES["totaro-x"]
TOTARO_RAYS = tuple(tuple(r) for r in TOTARO["fan"]["rays"])
TOTARO_L = (3, 3, -1, -1, -1, -1)

# Panel sizes are odd, so the median sample falls inside one case's group of
# samples rather than between two cases.
#
# positivity-profile: the paper's classes L, F1+F2, H, -H and a fixed random
# draw of primitive integral classes with coefficients in [-4, 4].
PROFILE_PANEL = (
    TOTARO_L,
    (1, 1, 0, 0, 0, 0),
    (1, 1, 1, 1, 1, 1),
    (-1, -1, -1, -1, -1, -1),
    (-1, -1, 3, -3, 4, 4),
    (3, -4, -1, 2, 0, 0),
    (2, 4, 3, -3, -1, -3),
    (0, -2, 3, 3, -1, 0),
    (3, -2, -3, -2, 4, -2),
    (0, -1, 0, -1, 0, 0),
    (-4, -1, 1, 2, -2, 1),
    (3, 3, -2, 4, 2, 2),
    (-2, -3, -2, -2, 2, 0),
    (-1, -2, 3, -4, 2, 2),
    (3, -3, 2, 4, 3, 3),
)

# cohomology-multiples: (D, k) with k in 10..20 and 10k..60k weights in k*D.
COHOMOLOGY_PANEL = (
    ((3, 0, -2, -3, 0, 1), 12), ((3, -2, -4, 1, 0, 3), 16),
    ((1, 3, 4, 4, -3, 0), 14), ((-2, 1, 4, 3, -1, 1), 15),
    ((1, -3, -4, 0, 4, -4), 13), ((0, 4, 3, -2, 3, -1), 11),
    ((1, 3, 3, 2, 0, -1), 14), ((3, 1, -2, -1, 3, 4), 13),
    ((-1, -3, 1, 4, -1, -4), 13), ((-4, 2, -3, -4, 0, -4), 10),
    ((-3, 0, -2, -3, 2, -4), 11), ((4, 2, -2, -1, 4, 4), 11),
    ((3, -1, -2, -1, -2, 0), 15), ((3, 2, 1, -3, 0, 4), 17),
    ((3, 1, -1, -2, -3, 0), 10), ((2, 3, -2, -2, 0, -1), 11),
    ((3, -4, 0, 4, 4, 1), 14), ((1, -2, -4, -1, -2, 0), 13),
    ((2, 1, 0, -4, -3, 4), 15), ((3, 4, 4, 4, -1, -1), 10),
    ((3, -3, 4, -2, -1, 0), 20), ((-1, 0, -4, -4, -1, 1), 12),
    ((-2, 0, 2, -3, 2, 1), 18),
)

# scan-oracle: (D, q); the first five are obstructed at every scanned
# multiple (slow), the other eight have an early clean multiple (fast).
SCAN_PANEL = (
    ((3, -3, 0, 1, 3, 1), 0), ((0, 2, -4, -3, 0, -3), 1),
    ((-1, -4, -2, 4, 2, 4), 0), ((2, -4, 0, -4, 3, 4), 1),
    ((-2, 4, -1, 1, -1, -3), 1),
    ((3, -2, -3, 1, 2, -3), 2), ((2, 2, 4, 3, -2, 0), 2),
    ((4, 0, -2, 0, 3, 3), 1), ((0, -3, 2, 2, 4, 3), 2),
    ((2, 4, 2, 3, 4, 4), 0), ((1, 2, 4, 4, -2, -4), 2),
    ((2, 4, 4, 0, -1, -1), 2), ((2, 2, -3, 2, -2, 2), 1),
)

# cold-cli: (command, workspace kind, arguments). Workspace kinds are the
# generated files; "totaro-x-id" is Totaro's fan in its printed coordinates,
# which replicate-paper needs because it checks coordinate witnesses.
CLI_PANEL = (
    ("validate", "p1x4", ()),
    ("validate", "p2xp1xp1", ()),
    ("classify", "totaro-x", ("-d", "L+2F3")),
    ("cohomology", "p1x3", ("--divisor=-2H+F1",)),
    ("cohomology", "totaro-x", ("--divisor=L-2H",)),
    ("qample", "totaro-x", ("-d", "L", "--q", "1")),
    ("qample", "p1x3", ("-d", "F1+F2+F3", "--q", "1", "--mode", "both")),
    ("qnef", "totaro-x", ("-d", "L+F1", "--q", "1")),
    ("baselocus", "totaro-x", ("-d", "L+2H", "--kind", "augmented")),
    ("baselocus", "p1x3", ("-d", "F1+F3", "--kind", "stable")),
    ("restrict", "p2xp1xp1", ("-d", "H+F1", "-c", "f1")),
    ("chambers", "p1x3", ("--dir1", "H", "--dir2", "F1", "--resolution", "1")),
    ("replicate-paper", "totaro-x-id", ()),
)


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _gcd_all(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(int(v)))
    return g


def _shift(coeffs, m, rays=TOTARO_RAYS):
    """Coefficients of D + div(chi^m)."""
    return tuple(c + sum(a * b for a, b in zip(m, u)) for c, u in zip(coeffs, rays))


def seeded_representative(rng: random.Random, coeffs):
    """A linearly equivalent representative with the same coefficient gcd.

    q-ample decisions and the scan work on the primitive integral class, so
    keeping the gcd keeps every scanned multiple the same.
    """
    g = _gcd_all(coeffs)
    while True:
        m = tuple(rng.randint(-2, 2) for _ in range(3))
        shifted = _shift(coeffs, m)
        if _gcd_all(shifted) == g:
            return shifted


def pass_rng(seed: int, workload: str, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def pass_order(rng: random.Random, size: int) -> list[int]:
    order = list(range(size))
    rng.shuffle(order)
    return order


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------


def _primitive(coeffs):
    g = _gcd_all(coeffs)
    return tuple(c // g for c in coeffs) if g > 1 else tuple(coeffs)


def certificate_failures(fan, coeffs, ample, cert) -> list[str]:
    """A decide_qample failure certificate must satisfy its region rows.

    The region is Q_S(d - eps*H) in (y, eps) for the primitive integral d:
    strict rows on S, weak rows off S, and eps > 0.
    """
    d = _primitive(coeffs)
    strict, weak = [], []
    for i, u in enumerate(fan.rays):
        row = tuple(u) + (-ample[i],)
        (strict if i in cert.subset else weak).append((row, d[i]))
    strict.append(((0,) * fan.rank + (-1,), 0))
    region = toricpos.polyhedron(fan.rank + 1, strict=strict, weak=weak)
    if not region.satisfied_by(tuple(cert.direction) + (cert.epsilon,)):
        return [f"q-ample certificate {cert} violates its region rows"]
    return []


def _in_region(fan, coeffs, subset, m) -> bool:
    for i, u in enumerate(fan.rays):
        value = sum(a * b for a, b in zip(m, u)) + coeffs[i]
        if (value < 0) != (i in subset):
            return False
    return True


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


class InProcess:
    """A workload whose ops call the library in this process."""

    name = ""
    panel: tuple = ()
    nominal_pass_s: float  # one pass at undisturbed speed at the seed commit
    warm_case = 0  # a cheap case; the warm-up op is not seeded

    def __init__(self):
        self.ws = toricpos.load_workspace("totaro-x")
        self.fan = self.ws.fan
        self.ample = (1,) * self.fan.n_rays  # default_ample: -K, every coefficient 1

    def warm_up(self) -> None:
        """One fixed op that fills the per-fan caches."""
        self.run(self.make_input(random.Random(0), self.warm_case))

    def make_input(self, rng: random.Random, case: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[list[str], str]:
        raise NotImplementedError


class PositivityProfile(InProcess):
    name = "positivity-profile"
    panel = PROFILE_PANEL
    nominal_pass_s = 4.55

    def make_input(self, rng, case):
        return seeded_representative(rng, self.panel[case])

    def run(self, coeffs):
        d = toricpos.ToricDivisor(self.fan, coeffs)
        q_range = range(self.fan.rank)
        return {
            "flags": toricpos.classify_cones(d),
            "qample": [toricpos.decide_qample(d, q) for q in q_range],
            "qnef": [toricpos.is_qnef(d, q) for q in q_range],
            "augmented": toricpos.augmented_base_locus_exact(d),
            "stable": toricpos.stable_base_locus_exact(d),
        }

    def check(self, coeffs, out):
        fan, flags = self.fan, out["flags"]
        qa = [r.verdict for r in out["qample"]]
        qn = [r.verdict for r in out["qnef"]]
        fails = []
        if flags.ample and not flags.nef:
            fails.append("ample but not nef")
        if flags.big and not flags.pseudoeffective:
            fails.append("big but not pseudoeffective")
        if qa != sorted(qa):
            fails.append(f"q-ample verdicts {qa} not monotone in q")
        if qa[0] != flags.ample:
            fails.append("0-ample disagrees with ample")
        for q, (a, n) in enumerate(zip(qa, qn)):
            if a and not n:
                fails.append(f"{q}-ample but not {q}-nef")
        if not out["stable"].cone_set(fan) <= out["augmented"].cone_set(fan):
            fails.append("stable base locus not inside augmented base locus")
        for r in out["qample"]:
            if r.certificate is not None:
                fails += certificate_failures(fan, coeffs, self.ample, r.certificate)
        key = {
            "flags": [flags.nef, flags.ample, flags.effective, flags.big,
                      flags.pseudoeffective, flags.negative_wall],
            "qample": [(r.verdict, r.certificate and (r.certificate.degree, r.certificate.subset))
                       for r in out["qample"]],
            "qnef": [(r.verdict, r.witness_tau, r.restrictions) for r in out["qnef"]],
            "augmented": out["augmented"].minimal_cones,
            "stable": out["stable"].minimal_cones,
        }
        return fails, digest(key)


class CohomologyMultiples(InProcess):
    name = "cohomology-multiples"
    panel = COHOMOLOGY_PANEL
    nominal_pass_s = 5.4

    def __init__(self):
        super().__init__()
        index = toricpos.bad_subsets(self.fan)
        self.degree = {s: p for p, entries in enumerate(index) for s, _ in entries}

    def make_input(self, rng, case):
        coeffs, k = self.panel[case]
        return tuple(k * c for c in seeded_representative(rng, coeffs))

    def run(self, coeffs):
        return toricpos.cohomology_dims(toricpos.ToricDivisor(self.fan, coeffs))

    def check(self, coeffs, table):
        totals = [0] * len(table.dims)
        fails = []
        for subset, points, dim in table.witnesses:
            totals[self.degree[subset]] += dim * len(points)
            for m in {points[0], points[len(points) // 2], points[-1]}:
                if not _in_region(self.fan, coeffs, subset, m):
                    fails.append(f"weight {m} outside the region of {subset}")
        if tuple(totals) != table.dims:
            fails.append(f"witness totals {totals} != dims {table.dims}")
        key = [table.dims, [(s, len(p), d) for s, p, d in table.witnesses]]
        return fails, digest(key)


class ScanOracle(InProcess):
    name = "scan-oracle"
    panel = SCAN_PANEL
    nominal_pass_s = 4.1
    warm_case = 5

    def make_input(self, rng, case):
        coeffs, q = self.panel[case]
        return seeded_representative(rng, coeffs), q

    def run(self, inp):
        coeffs, q = inp
        d = toricpos.ToricDivisor(self.fan, coeffs)
        # ModeDisagreement propagates and is counted as a failed op
        return toricpos.check_mode_agreement(d, q)

    def check(self, inp, out):
        coeffs, q = inp
        asym, scan = out["asymptotic"], out["scan"]
        fails = []
        if scan.obstructed and asym.verdict:
            fails.append("scan obstructed but asymptotic verdict q-ample")
        if asym.certificate is not None:
            fails += certificate_failures(self.fan, coeffs, self.ample, asym.certificate)
        realized = out["realized"]
        if realized is not None and realized[2] <= q:
            fails.append(f"realized degree {realized[2]} not above q = {q}")
        cert = asym.certificate
        key = [asym.verdict, cert and (cert.degree, cert.subset), scan.obstructed,
               scan.clean_n, scan.nonvanishing, realized]
        return fails, digest(key)


# ---------------------------------------------------------------------------
# cold-cli
# ---------------------------------------------------------------------------


def _product_fan(factors):
    """Rays and maximal cones of a product of (rays, cones) factors."""
    rank = sum(len(r[0]) for r, _ in factors)
    rays, cones, offset, dim = [], [()], 0, 0
    for f_rays, f_cones in factors:
        k = len(f_rays[0])
        for r in f_rays:
            rays.append([0] * dim + list(r) + [0] * (rank - dim - k))
        cones = [c + tuple(i + offset for i in fc) for c in cones for fc in f_cones]
        offset += len(f_rays)
        dim += k
    return rank, rays, [list(c) for c in cones]


P1 = (((1,), (-1,)), ((0,), (1,)))
P2 = (((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)))

FANS = {
    "p1x3": _product_fan([P1, P1, P1]),
    "p1x4": _product_fan([P1, P1, P1, P1]),
    "p2xp1xp1": _product_fan([P2, P1, P1]),
    "totaro-x": (3, TOTARO["fan"]["rays"], TOTARO["fan"]["max_cones"]),
}


def unimodular(rng: random.Random, n: int, max_entry: int = 2):
    """A seeded matrix in GL(n, Z) with small entries."""
    while True:
        a = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            s = rng.choice((-1, 1))
            a[i] = [x + s * y for x, y in zip(a[i], a[j])]
        rng.shuffle(a)
        a = [[-x for x in row] if rng.random() < 0.5 else row for row in a]
        if max(abs(x) for row in a for x in row) <= max_entry:
            return a


def workspace_json(kind: str, matrix=None) -> dict:
    rank, rays, cones = FANS[kind]
    if matrix is not None:
        rays = [[sum(matrix[i][j] * r[j] for j in range(rank)) for i in range(rank)]
                for r in rays]
    r = len(rays)
    divisors = {f"F{i + 1}": [1 if j == i else 0 for j in range(r)] for i in range(r)}
    divisors["H"] = [1] * r
    if kind == "totaro-x":
        divisors["L"] = list(TOTARO_L)
    return {
        "schema": "toricpos-workspace/1",
        "name": kind,
        "sign_convention": "paper",
        "fan": {"lattice_rank": rank, "rays": [list(x) for x in rays],
                "max_cones": [list(c) for c in cones], "complete": True},
        "divisors": divisors,
        "queries": [],
    }


def spawn(argv: list[str], cwd: str, out_dir: str):
    """Run one child; returns (exit code, stdout, stderr, peak RSS in KiB)."""
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "child.stdout")
    err_path = os.path.join(out_dir, "child.stderr")
    with open(out_path, "wb") as out_fh, open(err_path, "wb") as err_fh:
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out_fh, stderr=err_fh)
        killer = threading.Timer(120, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)  # wait4 reports this child's RSS
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        out = fh.read()
    with open(err_path, "rb") as fh:
        err = fh.read()
    return proc.returncode, out, err, usage.ru_maxrss


class ColdCli:
    """Each op starts one fresh toricpos process through cli_entry.py."""

    name = "cold-cli"
    panel = CLI_PANEL
    nominal_pass_s = 5.2

    def __init__(self, root: str, out_dir: str, seed: int):
        self.root = root
        self.entry = os.path.join(root, "perfbench", "cli_entry.py")
        self.out_dir = out_dir
        self.ws_dir = os.path.join(out_dir, "workspaces")
        self.seed = seed
        self.files: dict[tuple, str] = {}

    def warm_up(self) -> None:
        """validate on the untransformed Totaro file: fills the file cache and
        the bytecode caches, the same for every seed."""
        self.write_workspaces(0)
        argv = [sys.executable, self.entry, "validate", "-w", self.files[(0, "totaro-x-id")]]
        code, _, err, _ = spawn(argv, self.root, self.out_dir)
        if code != 0:
            raise RuntimeError(err.decode(errors="replace"))

    def write_workspaces(self, pass_index: int) -> None:
        """One GL(n,Z) image of every fan per pass, written under out_dir."""
        os.makedirs(self.ws_dir, exist_ok=True)
        rng = pass_rng(self.seed, self.name, pass_index)
        for kind in sorted(FANS):
            matrix = unimodular(rng, FANS[kind][0])
            self._write((pass_index, kind), workspace_json(kind, matrix))
        self._write((pass_index, "totaro-x-id"), workspace_json("totaro-x"))

    def _write(self, key, data) -> None:
        path = os.path.join(self.ws_dir, f"p{key[0]}-{key[1]}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        self.files[key] = path

    def argv(self, pass_index: int, case: int, trace_out: str | None = None) -> list[str]:
        command, kind, args = self.panel[case]
        path = self.files[(pass_index, kind)]
        head = [sys.executable, self.entry]
        if trace_out:
            head += ["--trace-out", trace_out]
        return head + [command, "-w", path, *args]

    def check(self, case: int, code: int, out: bytes, err: bytes) -> tuple[list[str], str]:
        command = self.panel[case][0]
        if code != 0:
            tail = (out + err).decode(errors="replace")[-300:]
            return [f"{command} exited {code}: {tail}"], ""
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"{command} printed no JSON: {exc}"], ""
        res = report["result"]
        fails = []
        if command == "replicate-paper" and res.get("all_pass") is not True:
            fails.append("replicate-paper: all_pass is not true")
        if command == "validate" and not (res["complete"] and res["simplicial"] and res["smooth"]):
            fails.append("validate: fan not smooth, complete and simplicial")
        if command == "classify":
            if res["ample"] and not res["nef"]:
                fails.append("classify: ample but not nef")
            if res["big"] and not res["pseudoeffective"]:
                fails.append("classify: big but not pseudoeffective")
        if command == "cohomology":
            totals = [0] * len(res["dims"])
            for w in res["witnesses"]:
                totals[w["degree"]] += w["weight_count"] * w["complex_dim"]
            if totals != res["dims"]:
                fails.append(f"cohomology: witness totals {totals} != dims {res['dims']}")
        return fails, digest(_invariant_part(command, res))


def _invariant_part(command: str, res: dict):
    """The fields of a report that a GL(n,Z) change of coordinates keeps."""
    if command == "classify":
        return {k: res.get(k) for k in ("nef", "ample", "effective", "big",
                                         "pseudoeffective", "negative_wall")}
    if command == "cohomology":
        return [res["dims"], [(w["subset"], w["weight_count"]) for w in res["witnesses"]]]
    if command == "qample":
        cert = res.get("certificate")
        return [res.get("verdict"), res.get("kuronya_dim_b_plus"), res.get("scan"),
                cert and (cert["degree"], cert["subset"])]
    if command == "restrict":
        return [res["cone"], res["negative_restriction_big"], res["ray_images"]]
    if command == "replicate-paper":
        return [(c["name"], c["pass"]) for c in res["checks"]]
    return res  # validate, qnef, baselocus, chambers: coordinate-free


IN_PROCESS = {w.name: w for w in (PositivityProfile, CohomologyMultiples, ScanOracle)}
NAMES = (*IN_PROCESS, ColdCli.name)
