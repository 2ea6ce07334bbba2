"""Sheaf cohomology of line bundles via the graded combinatorial formula.

For an integral divisor D on a complete simplicial fan,

    dim H^p(X, O(D)) = sum over ray subsets S of
        #(P_S(D) in M) * dim reduced H^{p-1} of the full subcomplex on S,

where P_S(D) = {m : <m,u_rho> + a_rho < 0 on S, >= 0 off S}. Only subsets
with nonvanishing reduced cohomology (the bad subset index, cached per fan)
are ever enumerated; each of their regions is bounded on a complete fan, so
the infinite weight sum collapses to finitely many lattice point counts.
The same index powers the exact asymptotic nonvanishing test.

The walk hands each region's weights over as runs of the last coordinate
(``polyhedra.lattice_runs``), and ``Weights`` keeps them that way: counts
never build a weight, and a weight tuple is built only when it is read.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations

from .divisor import ToricDivisor, require_integral
from .errors import NotComplete, ToricError, UnboundedRegion
from .fan import Fan, RaySubcomplex, full_subcomplex
from .linalg import rref
from .polyhedra import (
    Polyhedron,
    lattice_runs,
    lp_strict_feasible,
    polyhedron,
    strictly_feasible,
)

MAX_RAYS_FOR_SUBSET_INDEX = 20


def reduced_cohomology(complex_: RaySubcomplex, up_to: int) -> tuple[int, ...]:
    """Reduced rational cohomology dims (H~^-1, H~^0, ..., H~^(up_to-1)).

    Conventions: the empty complex has H~^-1 of dimension one; any nonempty
    complex has H~^-1 = 0. Computed from exact coboundary ranks.
    """
    faces_by_dim: list[list[tuple[int, ...]]] = [[()]]
    for k in range(0, up_to):
        faces_by_dim.append(sorted(f for f in complex_.faces if len(f) == k + 1))

    def rank_of_coboundary(k: int) -> int:
        # delta^k : C^k -> C^(k+1), faces indexed in sorted order
        lower, upper = faces_by_dim[k + 1], faces_by_dim[k + 2] if k + 2 < len(faces_by_dim) else []
        if not lower or not upper:
            return 0
        index = {f: i for i, f in enumerate(lower)}
        rows = []
        for g in upper:
            row = [Fraction(0)] * len(lower)
            for pos in range(len(g)):
                face = g[:pos] + g[pos + 1 :]
                row[index[face]] = Fraction(-1) ** pos
            rows.append(row)
        return len(rref(rows)[1])

    # augmentation delta^-1 : C^-1 -> C^0 is the all-ones map
    dims = []
    n_vertices = len(faces_by_dim[1])
    rank_prev = 1 if n_vertices else 0  # rank of delta^-1
    dims.append(1 - rank_prev)  # H~^-1
    for k in range(0, up_to):
        ck = len(faces_by_dim[k + 1])
        rk = rank_of_coboundary(k)
        dims.append(ck - rk - rank_prev)
        rank_prev = rk
    return tuple(dims)


@lru_cache(maxsize=None)
def bad_subsets(fan: Fan) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """For each degree p = 0..rank, the subsets S with H~^(p-1)(S) > 0.

    Entry p is a tuple of (subset, dimension) pairs in lexicographic subset
    order; p = 0 always holds the empty subset with dimension one.
    """
    if fan.rank == 0:
        raise ToricError("the subset index needs a fan of rank >= 1; this fan is a point")
    if fan.n_rays > MAX_RAYS_FOR_SUBSET_INDEX:
        raise ToricError(
            f"subset index needs 2^{fan.n_rays} complexes; "
            f"limit is {MAX_RAYS_FOR_SUBSET_INDEX} rays"
        )
    n = fan.rank
    out: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n + 1)]
    indices = range(fan.n_rays)
    for size in range(0, fan.n_rays + 1):
        for subset in combinations(indices, size):
            rc = reduced_cohomology(full_subcomplex(fan, subset), n)
            for p in range(n + 1):
                if rc[p] > 0:
                    out[p].append((subset, rc[p]))
    return tuple(tuple(entries) for entries in out)


def subset_region(fan: Fan, coeffs, subset) -> Polyhedron:
    """P_S(D): strict rows on S, weak rows off S, in M-coordinates."""
    s = set(subset)
    strict = [(fan.rays[i], coeffs[i]) for i in range(fan.n_rays) if i in s]
    weak = [(fan.rays[i], coeffs[i]) for i in range(fan.n_rays) if i not in s]
    return polyhedron(fan.rank, strict=strict, weak=weak)


def _require_complete(fan: Fan) -> None:
    if not fan.properties.complete:
        raise NotComplete("cohomology needs a complete fan")


def _require_degree(fan: Fan, p: int) -> None:
    """A complete fan and a degree p in 0..n."""
    _require_complete(fan)
    if not 0 <= p <= fan.rank:
        raise ToricError(f"degree p = {p} must lie in 0..{fan.rank}")


class Weights(Sequence):
    """Read-only weights of one region, lexicographic, kept as the walk's runs
    (prefix, lo, hi) = prefix + (v,) for lo <= v <= hi. Its length is a sum,
    an index a bisection, and equal to any sequence of the same weights."""

    def __init__(self, runs):
        self.runs = tuple(runs)
        self._starts = [0, *accumulate(hi - lo + 1 for _, lo, hi in self.runs)]

    def __len__(self):
        return self._starts[-1]

    def __getitem__(self, i):
        k = range(len(self))[i]  # negative, out-of-range and slice indices as for a tuple
        if isinstance(k, range):
            return tuple(self[j] for j in k)
        r = bisect_right(self._starts, k) - 1
        prefix, lo, _ = self.runs[r]
        return prefix + (lo + k - self._starts[r],)

    def __iter__(self):
        return (p + (v,) for p, lo, hi in self.runs for v in range(lo, hi + 1))

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, Sequence) else NotImplemented

    def __hash__(self):
        return hash(tuple(self))


@dataclass(frozen=True)
class CohomologyTable:
    dims: tuple[int, ...]  # h^0 .. h^n
    witnesses: tuple[tuple[tuple[int, ...], Weights, int], ...]
    # flat (subset, weights, complex dim) records, grouped by degree below

    def h(self, p: int) -> int:
        return self.dims[p]

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** p * d for p, d in enumerate(self.dims))


def _degree_regions(divisor: ToricDivisor, p: int, first_only=False):
    """Yield (subset, Weights, complex dim) for each bad subset of degree p
    whose weight region holds a lattice point."""
    fan = divisor.fan
    for subset, dim in bad_subsets(fan)[p]:
        region = subset_region(fan, divisor.coeffs, subset)
        try:
            runs = tuple(lattice_runs(region, first_only=first_only))
        except UnboundedRegion as exc:
            raise UnboundedRegion(
                f"region for subset {subset} unbounded on a complete fan; "
                f"internal consistency failure: {exc}"
            ) from exc
        if runs:
            yield subset, Weights(runs), dim


def cohomology_dims(divisor: ToricDivisor) -> CohomologyTable:
    """Dimensions of H^0..H^n(X, O(D)) with per-weight witnesses."""
    _require_complete(divisor.fan)
    require_integral(divisor, "cohomology")
    dims, witnesses = [], []
    for p in range(divisor.fan.rank + 1):
        found = list(_degree_regions(divisor, p))
        dims.append(sum(dim * len(weights) for _, weights, dim in found))
        witnesses.extend(found)
    return CohomologyTable(dims=tuple(dims), witnesses=tuple(witnesses))


def h_p(divisor: ToricDivisor, p: int) -> int:
    """dim H^p(X, O(D)), enumerating only the bad subsets of degree p."""
    _require_degree(divisor.fan, p)
    require_integral(divisor, "cohomology")
    return sum(dim * len(weights) for _, weights, dim in _degree_regions(divisor, p))


def degree_nonzero(divisor: ToricDivisor, p: int) -> bool:
    """Does H^p(X, O(D)) contain anything? Early-exits on the first weight."""
    _require_degree(divisor.fan, p)
    require_integral(divisor, "cohomology")
    return any(_degree_regions(divisor, p, first_only=True))


@dataclass(frozen=True)
class AsymptoticWitness:
    subset: tuple[int, ...]
    direction: tuple[Fraction, ...]


def asymptotic_nonvanishing(divisor: ToricDivisor, p: int):
    """Is H^p(X, O(mD)) nonzero for infinitely many m > 0?

    Scaling makes the weight regions homogeneous: H^p(mD) has a contributing
    weight iff the region Q_S(D) (same rows, unscaled) has a rational point
    satisfying the strict rows strictly. Returns (verdict, witness or None);
    the projections decide each subset, and one LP writes the witness.
    """
    fan = divisor.fan
    _require_degree(fan, p)
    for subset, _ in bad_subsets(fan)[p]:
        region = subset_region(fan, divisor.coeffs, subset)
        if strictly_feasible(region):
            witness = lp_strict_feasible(region).witness
            return True, AsymptoticWitness(subset=subset, direction=witness)
    return False, None
