"""Sheaf cohomology of line bundles via the graded combinatorial formula.

For an integral divisor D on a complete simplicial fan,

    dim H^p(X, O(D)) = sum over ray subsets S of
        #(P_S(D) in M) * dim reduced H^{p-1} of the full subcomplex on S,

where P_S(D) = {m : <m,u_rho> + a_rho < 0 on S, >= 0 off S}. Only subsets
with nonvanishing reduced cohomology (the bad subset index, cached per fan)
are ever enumerated; each of their regions is bounded on a complete fan, so
the infinite weight sum collapses to finitely many lattice point counts.
The same index powers the exact asymptotic nonvanishing test, with no LP.

P_S(D)'s rows are fixed by the fan and S, so each subset's region plan is
looked up once per fan (``Fan.regions``, the sign-pattern table
``positivity`` shares) and a divisor supplies only its constants. The walk
hands each region's weights over in blocks, one per parent node of the
second-to-last coordinate (``Plan.blocks``): the parent's range of that
coordinate, the terms whose mins bound each child's last coordinate, and
the parent's count, read from the terms in closed form (an arithmetic
series or a floor sum per binding row). A dimension is a sum of block
counts. A table's witnesses hold each region's blocks as
``polyhedra.Weights``, the blocks' one reader, which folds a block's
children only when a reader enters it. Whether a region holds a weight at
all is ``Plan.has_point``, which the q-ample scan asks over its twists
through ``polyhedra.Twists``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations
from typing import NamedTuple

from .divisor import ToricDivisor, require_integral
from .errors import ToricError, UnboundedRegion
from .fan import Fan, RaySubcomplex, full_subcomplex, require_complete
from .linalg import matrix_rank
from .polyhedra import Weights, rhs

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
            row = [0] * len(lower)
            for pos in range(len(g)):
                row[index[g[:pos] + g[pos + 1 :]]] = -1 if pos % 2 else 1
            rows.append(row)
        return matrix_rank(rows)

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


def sign_picks(fan: Fan, selection):
    """(strict, tight) for ``Fan.regions``: the rows in ``strict`` strict
    (< 0), those in ``tight`` tight (= 0) and the rest weak (>= 0), each in
    ray order, a row in both strict. P_S(D) is (S, ()), the tau-face of the
    section polytope P_D is ((), tau) and P_D is ((), ())."""
    strict, tight = selection
    picked, weak = [], []
    for i in range(fan.n_rays):
        if i in strict:
            picked.append((i, 1))
        else:
            weak.append((i, 1))
            if i in tight:
                weak.append((i, -1))
    return picked, weak


_require_complete = partial(require_complete, message="cohomology needs a complete fan")


# a dataclass, as perfbench/gate_check.py rewrites it with dataclasses.replace
@dataclass(frozen=True)
class CohomologyTable:
    dims: tuple[int, ...]  # h^0 .. h^n
    witnesses: tuple[tuple[tuple[int, ...], Weights, int], ...]
    # flat (subset, weights, complex dim) records, grouped by degree below

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** p * d for p, d in enumerate(self.dims))


def _degree_regions(divisor: ToricDivisor, p: int):
    """Yield (subset, Weights, complex dim) for each bad subset of degree p
    whose weight region holds a lattice point."""
    fan = divisor.fan
    regions, a = fan.regions(sign_picks), divisor.plain_coeffs
    for subset, dim in bad_subsets(fan)[p]:
        plan, index = regions[subset, ()]
        try:
            blocks = tuple(plan.blocks(rhs(index, a)))
        except UnboundedRegion as exc:
            raise UnboundedRegion(
                f"region for subset {subset} unbounded on a complete fan; "
                f"internal consistency failure: {exc}"
            ) from exc
        if blocks:
            yield subset, Weights(blocks, fan.rank), dim


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


class AsymptoticWitness(NamedTuple):
    subset: tuple[int, ...]
    direction: tuple[Fraction, ...]


def asymptotic_nonvanishing(divisor: ToricDivisor, p: int):
    """Is H^p(X, O(mD)) nonzero for infinitely many m > 0?

    Scaling makes the weight regions homogeneous: H^p(mD) has a contributing
    weight iff the region Q_S(D) (same rows, unscaled) has a rational point
    satisfying the strict rows strictly. Returns (verdict, witness or None);
    the projections decide each subset, and ``Plan.point`` the witness.
    """
    fan = divisor.fan
    _require_complete(fan)
    if not 0 <= p <= fan.rank:
        raise ToricError(f"degree p = {p} must lie in 0..{fan.rank}")
    regions, a = fan.regions(sign_picks), divisor.plain_coeffs
    for subset, _ in bad_subsets(fan)[p]:
        plan, index = regions[subset, ()]
        b = rhs(index, a)
        if plan.strictly_feasible(b):
            return True, AsymptoticWitness(subset, plan.point(b))
    return False, None
