"""Cone membership, base loci, q-nef and q-ample decisions, chamber scans.

All decisions are exact, and each cone question has one code path. Each is
a feasibility question whose row normals depend only on the fan, the subset
S or cone tau, and H, so Fourier-Motzkin projections cached per normals
decide it (``polyhedra.closure_nonempty``, ``polyhedra.strictly_feasible``)
and no decision solves an LP:

* ``_face_nonempty(D, tau)``: is the tau-tight face of the rational polytope
  P_D nonempty? For tau = () this is pseudoeffectivity; over all cones tau
  it gives the stable base locus.
* ``is_big(D, tau)``: is the restriction D|V(tau) big? One strict-feasibility
  question on the fan's own rows: shifted to vanish on tau, D restricts to
  the polytope {m in tau^perp : <m, u_rho> + a_rho >= 0, rho in Star(tau)},
  so tau's rows are held tight, the other rays of Star(tau) give strict rows
  and rays outside Star(tau) give none. No quotient fan is built (dividing a
  row by a ray image's multiplicity is a positive scaling). For tau = ()
  this asks whether P_D has interior points.
* ``_persists(D, H, strict, tight)``: does the region of D - eps*H with the
  rows in ``strict`` strict, those in ``tight`` tight and the rest weak stay
  nonempty for arbitrarily small eps > 0? The feasible eps-set is the
  projection of a polyhedron in (y, eps), hence convex, so this holds iff
  the joint system with eps > 0 is strictly feasible and its eps = 0 closure
  is nonempty.

By the openness of the q-ample cone, D fails to be q-ample exactly when the
region persists for some degree p > q with a bad ray subset S strict, so
boundary classes are not q-ample. A cone tau escapes the augmented base
locus B+(D) exactly when the region persists with tau tight.

The simplex runs only where a report prints its witness: ``decide_qample``
solves the joint LP of its first obstruction for the (eps, y) it prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cohomology import bad_subsets, cohomology_dims, subset_region
from .divisor import (
    ToricDivisor,
    anticanonical_divisor,
    is_ample,
    require_integral,
    section_polyhedron,
    wall_degree,
)
from .errors import (
    ModeDisagreement,
    NoStabilizationDetected,
    NotComplete,
    NotEffectiveSupport,
    ToricError,
)
from .fan import Fan, subset_connected
from .linalg import clear_denominators, content_free
from .polyhedra import (
    Polyhedron,
    closure_nonempty,
    lattice_points,
    lp_strict_feasible,
    polyhedron,
    strictly_feasible,
)


def _require_complete(fan: Fan) -> None:
    if not fan.properties.complete:
        raise NotComplete("positivity decisions need a complete fan")


@lru_cache(maxsize=None)
def default_ample(fan: Fan) -> ToricDivisor:
    """The anticanonical divisor, checked ample; the examples are all Fano."""
    h = anticanonical_divisor(fan)
    if fan.rank > 0 and not is_ample(h):
        raise ToricError(
            "no default ample divisor: -K is not ample on this fan, pass one"
        )
    return h


# ---------------------------------------------------------------------------
# cone flags
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeFlags:
    nef: bool
    ample: bool
    effective: bool
    big: bool
    pseudoeffective: bool
    negative_wall: tuple[int, ...] | None = None  # witness for nef failure


def classify_cones(divisor: ToricDivisor) -> ConeFlags:
    """Nef/ample by wall degrees; effective/big/psef by the section polytope.

    For complete toric X: psef(D) iff P_D has a rational point, big(D) iff
    P_D has interior points, effective(D) iff P_D has a lattice point.
    """
    fan = divisor.fan
    _require_complete(fan)
    negative_wall = None
    nef = True
    ample = bool(fan.max_cones)
    for w in fan.walls:
        d = wall_degree(divisor, w)
        if d < 0:
            nef = False
            ample = False
            if negative_wall is None:
                negative_wall = w
        elif d == 0:
            ample = False
    pseudoeffective = _face_nonempty(divisor, ())
    big = is_big(divisor)
    effective = pseudoeffective and bool(
        lattice_points(section_polyhedron(divisor), first_only=True)
    )
    return ConeFlags(
        nef=nef,
        ample=ample,
        effective=effective,
        big=big,
        pseudoeffective=pseudoeffective,
        negative_wall=negative_wall,
    )


def is_big(divisor: ToricDivisor, tau=()) -> bool:
    """Is the restriction of D to the orbit closure V(tau) big? For tau = ()
    this is bigness of D. One strict-feasibility question on the fan's own
    rows, in ray order; the module docstring gives the rows."""
    fan = divisor.fan
    _require_complete(fan)
    star = {i for c in fan.max_cones if set(tau) <= set(c) for i in c}
    strict, weak = [], []
    for i in range(fan.n_rays):
        u, a = fan.rays[i], divisor.coeffs[i]
        flipped = (tuple(-x for x in u), -a)
        if i in tau:
            weak += [(u, a), flipped]
        elif i in star:
            strict.append(flipped)
    return strictly_feasible(polyhedron(fan.rank, strict=strict, weak=weak))


# ---------------------------------------------------------------------------
# base loci
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaseLocusReport:
    """Union of orbit closures V(tau), minimal cones listed.

    The marker cone () stands for the whole variety (no sections / not big).
    """

    minimal_cones: tuple[tuple[int, ...], ...]
    no_sections: bool = False
    multiple: int | None = None
    horizon: int | None = None

    @property
    def is_empty(self) -> bool:
        return not self.minimal_cones

    @property
    def is_everything(self) -> bool:
        return () in self.minimal_cones

    def dimension(self, fan: Fan) -> int:
        if self.is_empty:
            return -1
        if self.is_everything:
            return fan.rank
        return max(fan.rank - len(t) for t in self.minimal_cones)

    def cone_set(self, fan: Fan) -> frozenset:
        out = set()
        for t in self.minimal_cones:
            for c in fan.cones:
                if set(t) <= set(c):
                    out.add(c)
        return frozenset(out)


def _minimalize(cones) -> tuple[tuple[int, ...], ...]:
    cones = sorted(set(cones), key=lambda c: (len(c), c))
    out = []
    for c in cones:
        if not any(set(p) <= set(c) for p in out):
            out.append(c)
    return tuple(out)


def _face_region(divisor: ToricDivisor, tau, flipped=()) -> Polyhedron:
    """Section polytope cut to the face where tau's rows are tight, with the
    rows in ``flipped`` reversed (<= 0): the closure of a sign-pattern region
    whose ``flipped`` rows are strict."""
    fan = divisor.fan
    weak = []
    for i in range(fan.n_rays):
        u, a = fan.rays[i], divisor.coeffs[i]
        negated = (tuple(-x for x in u), -a)
        if i in flipped:
            weak.append(negated)
        else:
            weak.append((u, a))
            if i in tau:
                weak.append(negated)
    return polyhedron(fan.rank, weak=weak)


def _face_nonempty(divisor: ToricDivisor, tau) -> bool:
    """Is the tau-tight face of the rational polytope P_D nonempty?"""
    return closure_nonempty(_face_region(divisor, tau))


def _base_locus_cone_set(divisor: ToricDivisor) -> tuple[set, bool]:
    """All cones tau with no section weight tight on tau (Bs of |D|)."""
    fan = divisor.fan
    bad = set()
    no_sections = not lattice_points(section_polyhedron(divisor), first_only=True)
    for tau in fan.cones:
        if no_sections:
            bad.add(tau)
        elif tau and not lattice_points(_face_region(divisor, tau), first_only=True):
            bad.add(tau)
    return bad, no_sections


def base_locus(divisor: ToricDivisor) -> BaseLocusReport:
    """Bs(|D|) as a union of orbit closures; tau in Bs iff no weight of
    P_D cap M is tight on tau."""
    _require_complete(divisor.fan)
    require_integral(divisor, "base locus")
    bad, no_sections = _base_locus_cone_set(divisor)
    return BaseLocusReport(
        minimal_cones=_minimalize(bad), no_sections=no_sections
    )


def stable_base_locus_exact(divisor: ToricDivisor) -> BaseLocusReport:
    """B(D) over all multiples at once: tau escapes the stable locus iff the
    tau-tight face of the rational polytope P_D is nonempty (any rational
    point scales to a tight integral weight of some multiple)."""
    fan = divisor.fan
    _require_complete(fan)
    bad = {tau for tau in fan.cones if not _face_nonempty(divisor, tau)}
    return BaseLocusReport(minimal_cones=_minimalize(bad))


_STABLE_MILESTONES = (1, 2, 6, 12, 24)


def stable_base_locus(divisor: ToricDivisor, horizon: int = 24) -> BaseLocusReport:
    """B(D) by the finite-multiple chain with stabilization detection.

    Intersects Bs(|kD|) for k = 1..horizon; stabilization is declared when
    two consecutive milestone intersections agree and the chain has reached
    the exact rational-face answer, which certifies the multiple. Raises
    NoStabilizationDetected (with the partial chain) when the horizon is too
    small; that signals configuration, not mathematics.
    """
    _require_complete(divisor.fan)
    require_integral(divisor, "stable base locus")
    exact = stable_base_locus_exact(divisor)
    exact_set = {
        c
        for c in divisor.fan.cones
        if any(set(t) <= set(c) for t in exact.minimal_cones)
    }
    running: set | None = None
    chain = []
    milestones = [m for m in _STABLE_MILESTONES if m <= horizon]
    previous_record = None
    for k in range(1, horizon + 1):
        bs_k, _ = _base_locus_cone_set(k * divisor)
        running = bs_k if running is None else (running & bs_k)
        if k in milestones:
            record = frozenset(running)
            chain.append((k, _minimalize(record)))
            if previous_record == record and record == frozenset(exact_set):
                return BaseLocusReport(
                    minimal_cones=_minimalize(record),
                    no_sections=(() in record),
                    multiple=k,
                    horizon=horizon,
                )
            previous_record = record
    if running is not None and frozenset(running) == frozenset(exact_set):
        return BaseLocusReport(
            minimal_cones=_minimalize(running),
            no_sections=(() in running),
            multiple=horizon,
            horizon=horizon,
        )
    raise NoStabilizationDetected(horizon, chain)


def _joint_region(d: ToricDivisor, ample: ToricDivisor, strict=(), tight=()) -> Polyhedron:
    """The region of D - eps*H in (y, eps) with eps > 0, the rows in
    ``strict`` strict (< 0), those in ``tight`` tight (= 0) and the rest weak
    (>= 0)."""
    fan = d.fan
    n = fan.rank
    joint_strict, joint_weak = [], []
    for i in range(fan.n_rays):
        row, a = tuple(fan.rays[i]) + (-ample.coeffs[i],), d.coeffs[i]
        if i in strict:
            joint_strict.append((row, a))
        else:
            joint_weak.append((row, a))
            if i in tight:
                joint_weak.append((tuple(-x for x in row), -a))
    joint_strict.append(((0,) * n + (-1,), 0))  # eps > 0
    return polyhedron(n + 1, strict=joint_strict, weak=joint_weak)


def _persists(d: ToricDivisor, ample: ToricDivisor, strict=(), tight=()) -> bool:
    """Does the region of D - eps*H with the rows in ``strict`` strict (< 0),
    those in ``tight`` tight (= 0) and the rest weak (>= 0) stay nonempty for
    arbitrarily small eps > 0? By convexity of the feasible eps-set this holds
    iff the eps = 0 closure is nonempty and the joint system in (y, eps) with
    eps > 0 is strictly feasible."""
    return closure_nonempty(_face_region(d, tight, strict)) and strictly_feasible(
        _joint_region(d, ample, strict, tight)
    )


def augmented_base_locus_exact(
    divisor: ToricDivisor, ample: ToricDivisor | None = None
) -> BaseLocusReport:
    """B+(D) by the parametric eps-LP characterization, one cone at a time."""
    fan = divisor.fan
    _require_complete(fan)
    if ample is None:
        ample = default_ample(fan)
    elif not is_ample(ample):
        raise ToricError("augmented base locus needs an ample reference divisor")
    bad = {tau for tau in fan.cones if not _persists(divisor, ample, tight=tau)}
    return BaseLocusReport(minimal_cones=_minimalize(bad))


def augmented_base_locus(
    divisor: ToricDivisor,
    ample: ToricDivisor | None = None,
    max_doublings: int = 8,
) -> BaseLocusReport:
    """B+(D) = B(kD - H) for k >> 0, with k doubling until two successive
    stable loci agree; certified against the parametric characterization."""
    fan = divisor.fan
    _require_complete(fan)
    require_integral(divisor, "augmented base locus")
    exact = augmented_base_locus_exact(divisor, ample)
    ample = ample if ample is not None else default_ample(fan)
    chain = []
    previous = None
    k = 2
    for _ in range(max_doublings):
        twisted = k * divisor - ample
        locus = stable_base_locus_exact(twisted)
        chain.append((k, locus.minimal_cones))
        if previous == locus.minimal_cones and locus.minimal_cones == exact.minimal_cones:
            return BaseLocusReport(
                minimal_cones=locus.minimal_cones,
                no_sections=locus.is_everything,
                multiple=k,
                horizon=max_doublings,
            )
        previous = locus.minimal_cones
        k *= 2
    raise NoStabilizationDetected(max_doublings, chain)


# ---------------------------------------------------------------------------
# q-nef
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QnefResult:
    verdict: bool
    q: int
    witness_tau: tuple[int, ...] | None
    restrictions: tuple[tuple[tuple[int, ...], bool], ...]  # (tau, -D|V(tau) big?)
    scope: str = "torus-invariant"


def is_qnef(divisor: ToricDivisor, q: int) -> QnefResult:
    """q-nef on torus-invariant geometry: for every orbit closure V(tau) of
    dimension q+1 the restriction of -D is not big.

    The verdict is labelled torus-invariant: the general definition
    quantifies over all subvarieties, and the reduction to invariant ones is
    only established for the cases exercised here.
    """
    fan = divisor.fan
    _require_complete(fan)
    if not 0 <= q <= fan.rank - 1:
        raise ToricError(f"q = {q} is outside 0..dim X - 1 = 0..{fan.rank - 1}")
    size = fan.rank - q - 1
    negative = -divisor
    witness = None
    rows = []
    for tau in fan.cones:
        if len(tau) != size:
            continue
        negative_big = is_big(negative, tau)
        rows.append((tau, negative_big))
        if negative_big and witness is None:
            witness = tau
    return QnefResult(
        verdict=witness is None, q=q, witness_tau=witness, restrictions=tuple(rows)
    )


# ---------------------------------------------------------------------------
# q-ample
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QAmpleCertificate:
    degree: int
    subset: tuple[int, ...]
    epsilon: Fraction
    direction: tuple[Fraction, ...]


@dataclass(frozen=True)
class QAmpleResult:
    verdict: bool
    q: int
    mode: str
    certificate: QAmpleCertificate | None = None
    checked: tuple = ()


def _primitive_integral(divisor: ToricDivisor) -> ToricDivisor:
    """Scale a rational class to the primitive integral vector (q-amplitude
    is invariant under positive scaling)."""
    ints = content_free(clear_denominators(divisor.coeffs)[0])
    return ToricDivisor(divisor.fan, tuple(Fraction(x) for x in ints))


def _obstructions(d: ToricDivisor, ample: ToricDivisor, index, degrees):
    """Yield (p, S) for every bad subset S of each degree p, in the given
    order of degrees, whose region persists down to eps = 0."""
    for p in degrees:
        for subset, _ in index[p]:
            if _persists(d, ample, strict=subset):
                yield p, subset


def _setup(divisor: ToricDivisor, q: int, ample: ToricDivisor | None):
    """Checks and inputs shared by the q-ample searches: the primitive
    integral class, the ample class (-K unless given) and the subset index."""
    fan = divisor.fan
    _require_complete(fan)
    if q < 0:
        raise ToricError(f"q = {q} must be nonnegative")
    ample = ample if ample is not None else default_ample(fan)
    return _primitive_integral(divisor), ample, bad_subsets(fan)


def decide_qample(
    divisor: ToricDivisor, q: int, ample: ToricDivisor | None = None
) -> QAmpleResult:
    """Authoritative (asymptotic) q-ample decision.

    NOT q-ample iff some degree p > q has a bad subset whose perturbed region
    stays strictly feasible down to eps = 0. Certificates carry (p, S) and a
    rational (eps, y) sample on failure, the one LP solved here; on success
    every (p, S) pair ruled out is listed.
    """
    d, ample, index = _setup(divisor, q, ample)
    degrees = range(q + 1, divisor.fan.rank + 1)
    for p, subset in _obstructions(d, ample, index, degrees):
        *direction, eps = lp_strict_feasible(_joint_region(d, ample, strict=subset)).witness
        cert = QAmpleCertificate(degree=p, subset=subset, epsilon=eps, direction=tuple(direction))
        return QAmpleResult(verdict=False, q=q, mode="asymptotic", certificate=cert)
    return QAmpleResult(
        verdict=True,
        q=q,
        mode="asymptotic",
        checked=tuple((p, subset) for p in degrees for subset, _ in index[p]),
    )


def smallest_qample(divisor: ToricDivisor, ample: ToricDivisor | None = None) -> int:
    """Least q in [0, n-1] with D q-ample, else n (every class is n-ample):
    the highest obstructed degree, or 0 when no degree is obstructed."""
    d, ample, index = _setup(divisor, 0, ample)
    degrees = range(divisor.fan.rank, 0, -1)
    hit = next(_obstructions(d, ample, index, degrees), None)
    return hit[0] if hit is not None else 0


@dataclass(frozen=True)
class ScanResult:
    obstructed: bool
    q: int
    clean_n: int | None
    nonvanishing: tuple[tuple[int, int, int, int], ...]  # (N, j, p, h^p)
    note: str = "bounded search; cannot certify q-ampleness"


def _nonvanishing(
    d: ToricDivisor, ample: ToricDivisor, index, q: int, n_mult: int, twists: int
):
    """Yield (N, j, p) for each twist 1 <= j <= twists and degree p > q where
    some bad subset region of N*D - j*H holds a lattice point."""
    fan = d.fan
    for j in range(1, twists + 1):
        twisted = n_mult * d - j * ample
        for p in range(q + 1, fan.rank + 1):
            if any(
                lattice_points(subset_region(fan, twisted.coeffs, subset), first_only=True)
                for subset, _ in index[p]
            ):
                yield n_mult, j, p


def _check_window(multiples, twists: int) -> None:
    """The scan window must hold at least one multiple N and one twist j, all positive."""
    if not multiples or min(multiples) < 1:
        raise ToricError(f"scan multiples {tuple(multiples)} must be nonempty and positive")
    if twists < 1:
        raise ToricError(f"scan twists = {twists} must be positive")


def scan_qample(
    divisor: ToricDivisor,
    q: int,
    ample: ToricDivisor | None = None,
    multiples=tuple(range(1, 13)),
    twists: int = 4,
) -> ScanResult:
    """Oracle mode: nonvanishing pattern of H^{>q}(N*D - j*H).

    'Obstructed' means every scanned N shows some nonvanishing group above
    degree q for some 1 <= j <= twists; a clean N disproves the pattern.
    """
    d, ample, index = _setup(divisor, q, ample)
    _check_window(multiples, twists)
    hits = set()
    clean_n = None
    for n_mult in sorted(multiples, reverse=True):
        found = list(_nonvanishing(d, ample, index, q, n_mult, twists))
        if not found:
            clean_n = n_mult
            break  # one clean window already refutes the obstruction pattern
        hits.update((*hit, 1) for hit in found)
    return ScanResult(
        obstructed=clean_n is None,
        q=q,
        clean_n=clean_n,
        nonvanishing=tuple(sorted(hits)),
    )


def realization_search(
    divisor: ToricDivisor,
    q: int,
    ample: ToricDivisor | None = None,
    multiples=tuple(range(1, 13)),
    twists: int = 4,
):
    """First scanned (N, j, p) with H^p(N*D - j*H) nonzero above degree q."""
    d, ample, index = _setup(divisor, q, ample)
    _check_window(multiples, twists)
    for n_mult in sorted(multiples):
        for hit in _nonvanishing(d, ample, index, q, n_mult, twists):
            return hit
    return None


def check_mode_agreement(
    divisor: ToricDivisor,
    q: int,
    ample: ToricDivisor | None = None,
    multiples=tuple(range(1, 13)),
    twists: int = 4,
) -> dict:
    """Cross-check the two q-ample modes; raises ModeDisagreement when the
    bounded scan exhibits an obstruction pattern the asymptotic mode missed.
    Also reports whether an asymptotic failure certificate is realized by a
    scanned nonvanishing group."""
    _, ample, _ = _setup(divisor, q, ample)
    asymptotic = decide_qample(divisor, q, ample)
    scan = scan_qample(divisor, q, ample, multiples=multiples, twists=twists)
    if scan.obstructed and asymptotic.verdict:
        coeffs = ", ".join(map(str, divisor.coeffs))  # as the reports print them
        raise ModeDisagreement(
            f"scan found obstructions at every N <= {max(multiples)} but the "
            f"asymptotic mode declared q = {q} ample for [{coeffs}]"
        )
    realized = None
    if not asymptotic.verdict:
        realized = realization_search(
            divisor, q, ample, multiples=multiples, twists=twists
        )
    return {
        "asymptotic": asymptotic,
        "scan": scan,
        "realized": realized,
    }


# ---------------------------------------------------------------------------
# disconnected sections and chamber scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PositivityReport:
    """One-stop summary: cone flags plus per-q verdicts with certificates.

    Invariants (asserted in the test suite): ample implies nef, big implies
    pseudoeffective, q_ample is monotone nondecreasing in q, and q_ample[q]
    implies q_nef[q].
    """

    flags: ConeFlags
    q_nef: tuple[bool, ...]
    q_ample: tuple[bool, ...]
    qample_results: tuple[QAmpleResult, ...]
    qnef_results: tuple[QnefResult, ...]


def positivity_report(
    divisor: ToricDivisor, ample: ToricDivisor | None = None
) -> PositivityReport:
    fan = divisor.fan
    _require_complete(fan)
    ample = ample if ample is not None else default_ample(fan)
    qample_results = tuple(
        decide_qample(divisor, q, ample) for q in range(fan.rank)
    )
    qnef_results = tuple(is_qnef(divisor, q) for q in range(fan.rank))
    return PositivityReport(
        flags=classify_cones(divisor),
        q_nef=tuple(r.verdict for r in qnef_results),
        q_ample=tuple(r.verdict for r in qample_results),
        qample_results=qample_results,
        qnef_results=qnef_results,
    )


@dataclass(frozen=True)
class DisconnectionResult:
    applies: bool
    support: tuple[int, ...]
    conclusion: str | None
    h1_of_negatives: tuple[int, ...] = ()


def disconnected_section_criterion(divisor: ToricDivisor) -> DisconnectionResult:
    """A torus-invariant section with disconnected support rules out
    (n-2)-amplitude; cross-checked by h^1(X, O(-mD)) > 0 for m = 1..4."""
    fan = divisor.fan
    _require_complete(fan)
    if not divisor.is_integral or any(c < 0 for c in divisor.coeffs):
        raise NotEffectiveSupport(
            "criterion needs nonnegative integer coefficients"
        )
    support = tuple(i for i, c in enumerate(divisor.coeffs) if c > 0)
    if not support:
        raise NotEffectiveSupport("criterion needs a nonempty support")
    if subset_connected(fan, support):
        return DisconnectionResult(applies=False, support=support, conclusion=None)
    h1s = tuple(cohomology_dims(-m * divisor).dims[1] for m in (1, 2, 3, 4))
    if any(h == 0 for h in h1s):
        raise ToricError(
            "internal consistency failure: disconnected support without "
            f"h^1(-mD) witnesses ({h1s})"
        )
    n = fan.rank
    return DisconnectionResult(
        applies=True,
        support=support,
        conclusion=f"not {n - 2}-ample",
        h1_of_negatives=h1s,
    )


@dataclass(frozen=True)
class ChamberSample:
    coords: tuple[int, int]
    smallest_q: int
    pseudoeffective: bool
    big: bool


@dataclass(frozen=True)
class ChamberMap:
    resolution: int
    samples: tuple[ChamberSample, ...]

    def at(self, i: int, j: int) -> ChamberSample:
        for s in self.samples:
            if s.coords == (i, j):
                return s
        raise KeyError((i, j))


def chamber_scan(
    origin: ToricDivisor,
    dir1: ToricDivisor,
    dir2: ToricDivisor,
    resolution: int = 2,
    ample: ToricDivisor | None = None,
) -> ChamberMap:
    """Label a grid on the plane origin + i*dir1 + j*dir2 with the smallest q
    such that the class is q-ample (n when no q < n works), plus the
    pseudoeffective and big flags. Labels are invariant under positive
    scaling of the sampled class."""
    fan = origin.fan
    _require_complete(fan)
    if resolution < 0:
        raise ToricError(f"resolution = {resolution} must be nonnegative")
    ample = ample if ample is not None else default_ample(fan)
    samples = []
    for i in range(-resolution, resolution + 1):
        for j in range(-resolution, resolution + 1):
            d = origin + i * dir1 + j * dir2
            samples.append(
                ChamberSample(
                    coords=(i, j),
                    smallest_q=smallest_qample(d, ample),
                    pseudoeffective=_face_nonempty(d, ()),
                    big=is_big(d),
                )
            )
    return ChamberMap(resolution=resolution, samples=tuple(samples))
