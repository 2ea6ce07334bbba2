"""Cone membership, base loci, q-nef and q-ample decisions, chamber scans.

All decisions are exact, and each cone question has one code path. Each is
a feasibility question whose rows are picked per ray by the fan, the subset
S or cone tau, and H, so its plan is looked up once per fan (``Fan.regions``,
one table per kind; cohomology shares the sign-pattern one), the divisor
supplies only the constants, and Fourier-Motzkin projections decide it
(``Plan.closure_nonempty``, ``Plan.strictly_feasible``) with no LP:

* ``_face_nonempty(D, tau)``: is the tau-tight face of the rational polytope
  P_D nonempty? For tau = () this is pseudoeffectivity; over all cones tau
  it gives the stable base locus.
* ``is_big(D, tau)``: is the restriction D|V(tau) big? One strict-feasibility
  question on the fan's own rows: shifted to vanish on tau, D restricts to
  the polytope {m in tau^perp : <m, u_rho> + a_rho >= 0, rho in Star(tau)},
  so tau's rows are held tight, the other rays of Star(tau) give strict rows
  and rays outside Star(tau) give none. No quotient fan is built (dividing a
  row by a ray image's multiplicity is a positive scaling). For tau = ()
  this asks whether P_D has interior points. ``is_qnef`` asks it of -D by
  reading D's constants negated once, with no new divisor.
* ``_persists(D, joint, (strict, tight))``: does the region of D - eps*H
  with the rows in ``strict`` strict, those in ``tight`` tight and the rest
  weak stay nonempty for arbitrarily small eps > 0? The feasible eps-set, a
  projection of a polyhedron in (y, eps), is convex, so this holds iff the
  joint system with eps > 0 is strictly feasible and D's own region (eps = 0,
  the plan ``cohomology_dims`` walks for (S, ())) has a nonempty closure.

By the openness of the q-ample cone, D fails to be q-ample exactly when the
region persists for some degree p > q with a bad ray subset S strict, so
boundary classes are not q-ample. A cone tau escapes the augmented base
locus B+(D) exactly when the region persists with tau tight.

Each base locus (Bs|D|, B(D), B+(D)) is a union of orbit closures, and
V(tau') lies in V(tau) when tau is a face of tau', so its cones form an
up-closed set. The questions agree: a region tight on more rows is a
subset, so a cone that escapes (its face, lattice face or persisting region
is nonempty) has every face escape too. ``_locus`` asks in poset order: the
empty cone first (a "no" puts every cone in the locus), then each maximal
cone (a "yes" clears all its faces), then the rest by size, where a cone
with a facet in the locus joins it with no question.

The (eps, y) point a failure certificate prints is written by the joint
plan of the first obstruction (``Plan.point``), so no path here solves an LP.

The bounded scan (``scan_qample``, ``realization_search``) asks whether the
bad-subset regions of the twists N*D - j*H hold lattice points. A region's
constants there are N * b_D - j * b_H, so each search keeps one window
(``_Window``) that reads a region on its first query into a ``Twists``: a
twist is answered from level 0's per-row sums, and on a plan that is not
gapless builds its constants and dives where y_0 holds an integer. ``check_mode_agreement`` takes the
realized failure from an obstructed scan's first hit, as that scan read
every multiple, and runs ``realization_search`` only when the scan stopped
at a clean N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from typing import NamedTuple

from .cohomology import bad_subsets, cohomology_dims, sign_picks
from .divisor import (
    ToricDivisor,
    anticanonical_divisor,
    is_ample,
    require_integral,
    wall_numerator,
)
from .errors import (
    InternalInconsistency,
    ModeDisagreement,
    NoStabilizationDetected,
    NotEffectiveSupport,
    ToricError,
)
from .fan import Fan, require_complete, subset_connected
from .linalg import clear_denominators, content_free
from .polyhedra import Twists, rhs


_require_complete = partial(require_complete, message="positivity decisions need a complete fan")


@lru_cache(maxsize=None)
def _ample_anticanonical(fan: Fan) -> ToricDivisor | None:
    """-K when it is ample, else None; checked once per fan."""
    h = anticanonical_divisor(fan)
    return h if fan.rank == 0 or is_ample(h) else None


def default_ample(fan: Fan) -> ToricDivisor:
    """The anticanonical divisor, checked ample; the examples are all Fano."""
    h = _ample_anticanonical(fan)
    if h is None:
        raise ToricError(
            "no default ample divisor: -K is not ample on this fan, pass one"
        )
    return h


def _reference_ample(fan: Fan, ample: ToricDivisor | None, what: str) -> ToricDivisor:
    """The ample class a search perturbs by: -K unless one is given, which
    must live on the fan and be ample. The default object was checked once
    per fan, so passing it on costs no check."""
    if ample is None:
        return default_ample(fan)
    if ample.fan is not fan and ample.fan != fan:
        raise ValueError("divisors live on different fans")
    if ample is not _ample_anticanonical(fan) and not is_ample(ample):
        raise ToricError(f"{what} needs an ample reference divisor")
    return ample


# ---------------------------------------------------------------------------
# cone flags
# ---------------------------------------------------------------------------


class ConeFlags(NamedTuple):
    nef: bool
    ample: bool
    effective: bool
    big: bool
    pseudoeffective: bool
    negative_wall: tuple[int, ...] | None = None  # witness for nef failure


def classify_cones(divisor: ToricDivisor) -> ConeFlags:
    """Nef/ample by wall degree signs; effective/big/psef by the section polytope.

    For complete toric X: psef(D) iff P_D has a rational point, big(D) iff
    P_D has interior points, effective(D) iff P_D has a lattice point.
    """
    fan = divisor.fan
    _require_complete(fan)
    negative_wall = None
    nef = True
    ample = bool(fan.max_cones)
    a = divisor.plain_coeffs
    for w in fan.walls:
        d = wall_numerator(fan, a, w)
        if d < 0:
            nef = False
            ample = False
            if negative_wall is None:
                negative_wall = w
        elif d == 0:
            ample = False
    pseudoeffective = _face_nonempty(divisor, ())
    big = is_big(divisor)
    effective = pseudoeffective and _face_has_point(divisor, ())
    return ConeFlags(
        nef=nef,
        ample=ample,
        effective=effective,
        big=big,
        pseudoeffective=pseudoeffective,
        negative_wall=negative_wall,
    )


def _big_picks(fan: Fan, tau):
    """The rows of ``is_big``, in ray order: tau's tight, the other rays of
    Star(tau) negated and strict."""
    star = fan.stars.get(tau, ())
    strict, weak = [], []
    for i in range(fan.n_rays):
        if i in tau:
            weak += [(i, 1), (i, -1)]
        elif i in star:
            strict.append((i, -1))
    return strict, weak


def _big(fan: Fan, tau, a) -> bool:
    """``is_big`` at a sorted cone tau for plain constants a, D's or -D's."""
    plan, index = fan.regions(_big_picks)[tau]
    return plan.strictly_feasible(rhs(index, a))


def is_big(divisor: ToricDivisor, tau=()) -> bool:
    """Is the restriction of D to the orbit closure V(tau) big? For tau = ()
    this is bigness of D. One strict-feasibility question on the fan's own
    rows, in ray order; the module docstring gives the rows."""
    _require_complete(divisor.fan)
    return _big(divisor.fan, tuple(sorted(tau)), divisor.plain_coeffs)


# ---------------------------------------------------------------------------
# base loci
# ---------------------------------------------------------------------------


class BaseLocusReport(NamedTuple):
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


def _has_facet_in(tau, cones) -> bool:
    return any(tau[:i] + tau[i + 1:] in cones for i in range(len(tau)))


def _minimalize(cones) -> tuple[tuple[int, ...], ...]:
    """The minimal cones of an up-closed set of cones, by size then rays:
    those with no facet in the set, since a smaller face in the set would
    put the facets above it there too."""
    if () in cones:
        return ((),)  # the whole variety
    return tuple(sorted((c for c in cones if not _has_facet_in(c, cones)),
                        key=lambda c: (len(c), c)))


def _face_nonempty(divisor: ToricDivisor, tau) -> bool:
    """Is the tau-tight face of the rational polytope P_D nonempty?"""
    plan, index = divisor.fan.regions(sign_picks)[(), tau]
    return plan.closure_nonempty(rhs(index, divisor.plain_coeffs))


def _face_has_point(divisor: ToricDivisor, tau) -> bool:
    """Does the tau-tight face of P_D hold a lattice point?"""
    plan, index = divisor.fan.regions(sign_picks)[(), tau]
    return plan.has_point(rhs(index, divisor.plain_coeffs))


def _locus(fan: Fan, escapes) -> set:
    """The up-closed set of cones tau with ``escapes(tau)`` false, for a
    question that holds on every face of a cone it holds on; each cone is
    asked at most once, in the order the module docstring gives."""
    if not escapes(()):
        return set(fan.cones)
    top = {sigma: escapes(sigma) for sigma in fan.max_cones if sigma}
    clear = {face for sigma, free in top.items() if free
             for k in range(len(sigma)) for face in combinations(sigma, k)}
    locus = {sigma for sigma, free in top.items() if not free}
    for tau in fan.cones[1:]:  # fan.cones[0] is (), asked first
        if tau in clear or tau in top:
            continue
        if _has_facet_in(tau, locus) or not escapes(tau):
            locus.add(tau)
    return locus


def base_locus(divisor: ToricDivisor) -> BaseLocusReport:
    """Bs(|D|) as a union of orbit closures; tau in Bs iff no weight of
    P_D cap M is tight on tau."""
    _require_complete(divisor.fan)
    require_integral(divisor, "base locus")
    bad = _locus(divisor.fan, partial(_face_has_point, divisor))
    return BaseLocusReport(minimal_cones=_minimalize(bad), no_sections=() in bad)


def stable_base_locus_exact(divisor: ToricDivisor) -> BaseLocusReport:
    """B(D) over all multiples at once: tau escapes the stable locus iff the
    tau-tight face of the rational polytope P_D is nonempty (any rational
    point scales to a tight integral weight of some multiple)."""
    fan = divisor.fan
    _require_complete(fan)
    bad = _locus(fan, partial(_face_nonempty, divisor))
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
    exact_set = stable_base_locus_exact(divisor).cone_set(divisor.fan)
    running: set | None = None
    chain = []
    milestones = [m for m in _STABLE_MILESTONES if m <= horizon]
    previous_record = None
    for k in range(1, horizon + 1):
        bs_k = _locus(divisor.fan, partial(_face_has_point, k * divisor))
        running = bs_k if running is None else (running & bs_k)
        if k in milestones:
            record = frozenset(running)
            chain.append((k, _minimalize(record)))
            if previous_record == record and record == exact_set:
                return BaseLocusReport(
                    minimal_cones=_minimalize(record),
                    no_sections=(() in record),
                    multiple=k,
                    horizon=horizon,
                )
            previous_record = record
    if running is not None and running == exact_set:
        return BaseLocusReport(
            minimal_cones=_minimalize(running),
            no_sections=(() in running),
            multiple=horizon,
            horizon=horizon,
        )
    raise NoStabilizationDetected(horizon, chain)


def _joint_picks(fan: Fan, selection):
    """(strict, tight): the sign-pattern region's rows (``sign_picks``) in
    (y, eps) for D - eps*H, then eps > 0 (row n_rays of a joint table)."""
    strict, weak = sign_picks(fan, selection)
    return strict + [(fan.n_rays, 1)], weak


def _persists(d: ToricDivisor, joint, selection) -> bool:
    """Does the sign-pattern region (strict, tight) of D - eps*H stay
    nonempty for arbitrarily small eps > 0? ``joint`` is H's table of joint
    regions, looked up once per search. By convexity of the feasible eps-set
    this holds iff the eps = 0 closure, that of D's own sign-pattern region
    (``Plan.closure_nonempty`` relaxes its strict rows), is nonempty and the
    joint system in (y, eps) with eps > 0 is strictly feasible."""
    a = d.plain_coeffs
    plan, index = d.fan.regions(sign_picks)[selection]
    if not plan.closure_nonempty(rhs(index, a)):
        return False
    plan, index = joint[selection]
    return plan.strictly_feasible(rhs(index, a))


def augmented_base_locus_exact(
    divisor: ToricDivisor, ample: ToricDivisor | None = None
) -> BaseLocusReport:
    """B+(D) by the parametric eps characterization (``_persists`` with
    tau tight), asked on the cone poset (``_locus``)."""
    fan = divisor.fan
    _require_complete(fan)
    ample = _reference_ample(fan, ample, "augmented base locus")
    joint = fan.regions(_joint_picks, ample.plain_coeffs)
    bad = _locus(fan, lambda tau: _persists(divisor, joint, ((), tau)))
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
    ample = _reference_ample(fan, ample, "augmented base locus")
    exact = augmented_base_locus_exact(divisor, ample)
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


class QnefResult(NamedTuple):
    verdict: bool
    q: int
    witness_tau: tuple[int, ...] | None
    restrictions: tuple[tuple[tuple[int, ...], bool], ...]  # (tau, -D|V(tau) big?)
    scope: str = "torus-invariant"


def is_qnef(divisor: ToricDivisor, q: int) -> QnefResult:
    """q-nef on torus-invariant geometry: for every orbit closure V(tau) of
    dimension q+1 the restriction of -D is not big, asked (``_big``) of D's
    constants negated once, so no divisor -D is built.

    The verdict is labelled torus-invariant: the general definition
    quantifies over all subvarieties, and the reduction to invariant ones is
    only established for the cases exercised here.
    """
    fan = divisor.fan
    _require_complete(fan)
    if not 0 <= q <= fan.rank - 1:
        raise ToricError(f"q = {q} is outside 0..dim X - 1 = 0..{fan.rank - 1}")
    size = fan.rank - q - 1
    negative = tuple(-x for x in divisor.plain_coeffs)  # -D's constants
    rows = tuple((tau, _big(fan, tau, negative)) for tau in fan.cones if len(tau) == size)
    witness = next((tau for tau, negative_big in rows if negative_big), None)
    return QnefResult(verdict=witness is None, q=q, witness_tau=witness, restrictions=rows)


# ---------------------------------------------------------------------------
# q-ample
# ---------------------------------------------------------------------------


class QAmpleCertificate(NamedTuple):
    degree: int
    subset: tuple[int, ...]
    epsilon: Fraction
    direction: tuple[Fraction, ...]


# a dataclass, as perfbench/gate_check.py rewrites it with dataclasses.replace
@dataclass(frozen=True)
class QAmpleResult:
    verdict: bool
    q: int
    certificate: QAmpleCertificate | None = None
    checked: tuple = ()


def _primitive_integral(divisor: ToricDivisor) -> ToricDivisor:
    """Scale a rational class to the primitive integral vector (q-amplitude
    is invariant under positive scaling). A class that is one already is
    returned as it is, so the searches share its stored rows."""
    ints = content_free(clear_denominators(divisor.plain_coeffs)[0])
    if tuple(ints) == divisor.plain_coeffs:
        return divisor
    return ToricDivisor(divisor.fan, tuple(Fraction(x) for x in ints))


def _obstructions(d: ToricDivisor, joint, index, degrees):
    """Yield (p, S) for every bad subset S of each degree p, in the given
    order of degrees, whose region persists down to eps = 0; ``joint`` is
    H's joint table."""
    for p in degrees:
        for subset, _ in index[p]:
            if _persists(d, joint, (subset, ())):
                yield p, subset


def _setup(divisor: ToricDivisor, q: int, ample: ToricDivisor | None):
    """Checks and inputs shared by the q-ample searches: the primitive
    integral class, the ample class (-K unless given, else checked ample) and
    the subset index."""
    fan = divisor.fan
    _require_complete(fan)
    if q < 0:
        raise ToricError(f"q = {q} must be nonnegative")
    ample = _reference_ample(fan, ample, "a q-ample search")
    return _primitive_integral(divisor), ample, bad_subsets(fan)


def decide_qample(
    divisor: ToricDivisor, q: int, ample: ToricDivisor | None = None
) -> QAmpleResult:
    """Authoritative (asymptotic) q-ample decision.

    NOT q-ample iff some degree p > q has a bad subset whose perturbed region
    stays strictly feasible down to eps = 0. Certificates carry (p, S) and,
    on failure, the rational (eps, y) point the joint plan writes
    (``Plan.point``); on success every (p, S) pair ruled out is listed.
    """
    d, ample, index = _setup(divisor, q, ample)
    joint = divisor.fan.regions(_joint_picks, ample.plain_coeffs)
    degrees = range(q + 1, divisor.fan.rank + 1)
    for p, subset in _obstructions(d, joint, index, degrees):
        plan, signed = joint[subset, ()]
        *direction, eps = plan.point(rhs(signed, d.plain_coeffs))
        cert = QAmpleCertificate(degree=p, subset=subset, epsilon=eps, direction=tuple(direction))
        return QAmpleResult(verdict=False, q=q, certificate=cert)
    return QAmpleResult(
        verdict=True,
        q=q,
        checked=tuple((p, subset) for p in degrees for subset, _ in index[p]),
    )


def smallest_qample(divisor: ToricDivisor, ample: ToricDivisor | None = None) -> int:
    """Least q in [0, n-1] with D q-ample, else n (every class is n-ample):
    the highest obstructed degree, or 0 when no degree is obstructed."""
    d, ample, index = _setup(divisor, 0, ample)
    degrees = range(divisor.fan.rank, 0, -1)
    joint = d.fan.regions(_joint_picks, ample.plain_coeffs)
    hit = next(_obstructions(d, joint, index, degrees), None)
    return hit[0] if hit is not None else 0


# a dataclass, as perfbench/gate_check.py rewrites it with dataclasses.replace
@dataclass(frozen=True)
class ScanResult:
    obstructed: bool
    q: int
    clean_n: int | None
    nonvanishing: tuple[tuple[int, int, int, int], ...]  # (N, j, p, h^p)
    note: str = "bounded search; cannot certify q-ampleness"


class _Window(dict):
    """subset -> the ``Twists`` of the bad subset's region over the twists
    N*D - j*H, its constants N * b_D - j * b_H, read on the subset's first
    lookup. One search call makes one window and keeps it."""

    def __init__(self, d: ToricDivisor, ample: ToricDivisor):
        super().__init__()
        self.regions = d.fan.regions(sign_picks)
        self.a, self.h = d.plain_coeffs, ample.plain_coeffs

    def __missing__(self, subset):
        plan, signed = self.regions[subset, ()]
        twists = self[subset] = Twists(plan, rhs(signed, self.a), rhs(signed, self.h))
        return twists


def _nonvanishing(window: _Window, index, q: int, n_mult: int, twists: int):
    """Yield (N, j, p) for each twist 1 <= j <= twists and degree p > q where
    some bad subset region of N*D - j*H holds a lattice point."""
    degrees = [(p, [subset for subset, _ in index[p]]) for p in range(q + 1, len(index))]  # p <= n
    for j in range(1, twists + 1):
        for p, subsets in degrees:
            if any(window[subset].has_point(n_mult, j) for subset in subsets):
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
    window = _Window(d, ample)
    hits = set()
    clean_n = None
    for n_mult in sorted(multiples, reverse=True):
        found = list(_nonvanishing(window, index, q, n_mult, twists))
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
    window = _Window(d, ample)
    for n_mult in sorted(multiples):
        for hit in _nonvanishing(window, index, q, n_mult, twists):
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
    scanned nonvanishing group: the scan's first hit in (N, j, p) order when
    it was obstructed, as it read every multiple, else the first hit of
    ``realization_search``."""
    asymptotic = decide_qample(divisor, q, ample)
    scan = scan_qample(divisor, q, ample, multiples=multiples, twists=twists)
    if scan.obstructed and asymptotic.verdict:
        coeffs = ", ".join(map(str, divisor.coeffs))  # as the reports print them
        raise ModeDisagreement(
            f"scan found obstructions at every N <= {max(multiples)} but the "
            f"asymptotic mode declared q = {q} ample for [{coeffs}]"
        )
    realized = None
    if scan.obstructed:
        realized = min(scan.nonvanishing)[:3]
    elif not asymptotic.verdict:
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


class DisconnectionResult(NamedTuple):
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
        raise InternalInconsistency(
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


class ChamberSample(NamedTuple):
    coords: tuple[int, int]
    smallest_q: int
    pseudoeffective: bool
    big: bool


class ChamberMap(NamedTuple):
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
