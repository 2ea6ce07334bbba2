"""Complete simplicial fans and their combinatorics.

A fan is stored as primitive integer rays plus maximal cones given by ray
index sets; every ray lies in some maximal cone. Validation is exact and
finite: rays and simpliciality first, then completeness by wall counting
(every maximal cone full-dimensional, every codimension-1 cone bordering
exactly two maximal cones, the cones connected through their walls), then
the fan condition (maximal cones meet in common faces). Smoothness is read
from the Smith normal form.

A complete fan's condition is read from its walls, with no LP; this is the
covering argument for triangulations (De Loera-Rambau-Santos,
*Triangulations*, 2010, ch. 4). It checks (a) at every wall that the two
cones lie on opposite sides: the off-wall ray of the second has a negative
coefficient on the first's off-wall ray (``Fan.wall_forms``); and (b) that
p, the sum of the rays of ``max_cones[0]`` and so interior to it, lies in
no other closed maximal cone. Why these suffice: call a point generic when
it lies on no wall, and let N(y) count the maximal cones holding y. The
codimension-2 cones do not disconnect space, so any two generic points are
joined by a path that crosses walls only at points on one wall hyperplane.
Each wall met there borders two cones, one on either side by (a), so N is
the same on both sides: N is constant on generic points, and 1 by (b). Now
let x lie in cones s and s', and let A and B be their faces whose
relative interiors hold x. In a small ball around x, each wall of a cone of
A's star (the cones containing A) passes through x, so contains A, and its
other cone is in the star too. By the same crossing argument, N counted
over A's star alone is constant, and at least 1, on the ball's generic
points; so is B's. Were A != B, no cone would contain both (a simplicial cone's
faces have disjoint relative interiors), the stars would share no cone and
N >= 2 near x. So A = B: maximal cones meet in common faces. A fan that is
not complete has no such count, and keeps the pairwise test: per pair of
maximal cones, a separating linear functional, whose existence is a
strict-feasibility question decided by Fourier-Motzkin elimination
(``Plan.strictly_feasible``). No check solves an LP.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .errors import EmptySet, InvalidFan, NotACone, NotComplete
from .linalg import (
    clear_denominators,
    matrix_rank,
    primitive_vector,
    rref,
    smith_normal_form,
    solve_linear,
)
from .polyhedra import Plan, Selections


class FanProperties(NamedTuple):
    simplicial: bool
    complete: bool
    smooth: bool


class RaySubcomplex(NamedTuple):
    """Full subcomplex of the fan's boundary complex on a ray subset."""

    vertices: tuple[int, ...]
    faces: tuple[tuple[int, ...], ...]  # sorted tuples, all dims, no empty face


class Fan:
    """Rational simplicial fan in Z^rank given by rays and maximal cones.

    A value: equal over (rank, rays, max_cones, name), hashed over the first
    three. A plain class, not a NamedTuple, as its cached properties live in
    the instance ``__dict__``; never mutated after ``__post_init__``."""

    def __init__(self, rank: int, rays: tuple[tuple[int, ...], ...],
                 max_cones: tuple[tuple[int, ...], ...], name: str = ""):
        self.rank = rank
        self.rays = rays
        self.max_cones = max_cones
        self.name = name
        self.__post_init__()

    def __post_init__(self):
        # Fan's own method: perfbench/tracer.py rebinds it here to time each build
        self.rays = tuple(tuple(int(x) for x in r) for r in self.rays)
        self.max_cones = tuple(tuple(sorted(int(i) for i in c)) for c in self.max_cones)
        _check_structure(self)

    def __repr__(self):
        return (f"Fan(rank={self.rank!r}, rays={self.rays!r}, "
                f"max_cones={self.max_cones!r}, name={self.name!r})")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.rank, self.rays, self.max_cones, self.name)
                == (other.rank, other.rays, other.max_cones, other.name))

    def __hash__(self):
        return hash((self.rank, self.rays, self.max_cones))

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    @cached_property
    def cones(self) -> tuple[tuple[int, ...], ...]:
        """Every cone of the fan as a sorted ray-index tuple, including ()."""
        faces = {()}
        for c in self.max_cones:
            for k in range(1, len(c) + 1):
                faces.update(combinations(c, k))
        return tuple(sorted(faces, key=lambda f: (len(f), f)))

    @cached_property
    def cone_set(self) -> frozenset:
        return frozenset(self.cones)

    @cached_property
    def stars(self) -> dict:
        """Cone -> the rays of its star: every ray of a maximal cone that
        contains the cone."""
        return {
            tau: frozenset(i for c in self.max_cones if set(tau) <= set(c) for i in c)
            for tau in self.cones
        }

    @cached_property
    def walls(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.cones if len(c) == self.rank - 1)

    @cached_property
    def wall_neighbors(self) -> dict:
        """Wall -> tuple of maximal cones containing it."""
        out: dict[tuple[int, ...], list] = {w: [] for w in self.walls}
        for c in self.max_cones:
            for w in combinations(c, self.rank - 1):
                if w in out:
                    out[w].append(c)
        return {w: tuple(v) for w, v in out.items()}

    @cached_property
    def wall_forms(self) -> dict:
        """Wall -> (sigma, c, other, den) for each wall with two neighbours
        sigma and sigma2, other the ray of sigma2 off the wall: every divisor
        D = sum a_rho F_rho has D . V(wall) = (den * a_other - sum_k c[k] *
        a_sigma[k]) / den. Here c / den = A^-T u_other for A the rays of
        sigma, so c depends on the fan alone and is solved once per wall
        (Cox-Little-Schenck, Toric Varieties, Prop. 6.4.4). A complete fan's
        build checks that c is negative on sigma's off-wall ray."""
        out = {}
        for w, nbrs in self.wall_neighbors.items():
            if len(nbrs) != 2:
                continue
            sigma, sigma2 = nbrs
            other = next(i for i in sigma2 if i not in w)
            transposed = [[self.rays[i][j] for i in sigma] for j in range(self.rank)]
            c, den = clear_denominators(solve_linear(transposed, self.rays[other]))
            out[w] = (sigma, tuple(c), other, den)
        return out

    @cached_property
    def class_basis(self) -> tuple[int, ...]:
        """The rays whose classes form the basis of N^1 = Q^rays / image(M)
        that ``divisor.class_of`` writes coordinates in. The image of M is
        the column space of the ray matrix; its reduced-echelon pivots index
        the rays whose classes are eliminated, and the rest form the basis."""
        pivots = rref(list(zip(*self.rays)))[1]
        return tuple(i for i in range(self.n_rays) if i not in pivots)

    @cached_property
    def _regions(self) -> dict:
        return {}

    def regions(self, picks, ample=None) -> Selections:
        """The ``polyhedra.Selections`` of one kind of region (sign patterns,
        bigness, joint regions), kept per kind: ``picks(fan, selection)``
        picks among the ray rows (u_rho, a_rho) or, given H's coefficients h,
        the joint rows (u_rho, -h_rho; a_rho) of D - eps*H times h_rho's
        denominator (primitive, as u_rho is) and row n_rays, eps > 0."""
        key = picks, ample
        table = self._regions.get(key)
        if table is None:
            if ample is None:
                dim, normals, scales = self.rank, self.rays, (1,) * self.n_rays
            else:
                dim = self.rank + 1
                normals = tuple((*(h.denominator * x for x in u), -h.numerator)
                                for u, h in zip(self.rays, ample)) + ((0,) * self.rank + (-1,),)
                scales = (*(h.denominator for h in ample), 0)
            table = self._regions[key] = Selections(dim, normals, scales, partial(picks, self))
        return table

    @cached_property
    def incompleteness(self) -> str | None:
        """Why the fan is not complete, or None when it is: complete means
        every maximal cone full-dimensional, every wall shared by exactly two
        maximal cones and the adjacency graph connected. Known once the fan
        is built, as it picks the fan-condition check."""
        if self.rank == 0:
            return None
        if not self.max_cones or any(len(c) != self.rank for c in self.max_cones):
            return "fan is not complete"
        for w, nbrs in self.wall_neighbors.items():
            if len(nbrs) != 2:
                return (f"fan is not complete: wall {w} borders {len(nbrs)} "
                        "maximal cones, expected 2")
        if not _connected(self.max_cones, self.wall_neighbors.values()):
            return "fan is not complete"
        return None

    @cached_property
    def properties(self) -> FanProperties:
        """The simplicial/complete/smooth triple, computed once per fan.
        Simpliciality holds by construction: dependent-ray cones are
        rejected at build time."""
        smooth = all(_cone_smooth(self, c) for c in self.max_cones)
        return FanProperties(True, self.incompleteness is None, smooth)

    def ray_name(self, i: int) -> str:
        return f"f{i + 1}"


def _check_structure(fan: Fan) -> None:
    n = fan.rank
    if n < 0:
        raise InvalidFan("negative rank")
    seen = set()
    for i, r in enumerate(fan.rays):
        if len(r) != n:
            raise InvalidFan(f"ray {i} has {len(r)} coordinates, expected {n}")
        if all(x == 0 for x in r):
            raise InvalidFan(f"ray {i} is zero")
        if gcd(*(abs(x) for x in r)) != 1:
            raise InvalidFan(f"ray {i} = {r} is not primitive")
        if r in seen:
            raise InvalidFan(f"ray {i} = {r} repeated")
        seen.add(r)
    for c in fan.max_cones:
        if len(set(c)) != len(c):
            raise InvalidFan(f"cone {c} repeats a ray index")
        if any(i < 0 or i >= len(fan.rays) for i in c):
            raise InvalidFan(f"cone {c} references a missing ray")
        if len(c) > n:
            raise InvalidFan(f"cone {c} has more rays than the lattice rank")
        mat = [fan.rays[i] for i in c]
        if mat and matrix_rank(mat) != len(c):
            raise InvalidFan(f"cone {c} is not simplicial (dependent rays)")
    used = {i for c in fan.max_cones for i in c}
    for i, r in enumerate(fan.rays):
        if i not in used:
            raise InvalidFan(f"ray {i} = {r} lies in no maximal cone")
    if len(set(fan.max_cones)) != len(fan.max_cones):
        twice = next(c for k, c in enumerate(fan.max_cones) if c in fan.max_cones[:k])
        raise InvalidFan(f"cone {twice} listed twice")
    if fan.incompleteness is None:
        _check_walls(fan)
    else:
        _check_pairs(fan)


def _overlap(a, b) -> InvalidFan:
    return InvalidFan(f"cones {a} and {b} overlap beyond a common face")


def _check_walls(fan: Fan) -> None:
    """The fan condition of a complete fan, from checks (a) and (b) of the
    module docstring: one sign per wall and one solve per maximal cone."""
    if fan.rank == 0:
        return
    for w, (sigma, c, _, _) in fan.wall_forms.items():
        if next(x for i, x in zip(sigma, c) if i not in w) >= 0:
            raise _overlap(*fan.wall_neighbors[w])
    first, *rest = fan.max_cones
    p = [sum(fan.rays[i][j] for i in first) for j in range(fan.rank)]
    for cone in rest:
        transposed = [[fan.rays[i][j] for i in cone] for j in range(fan.rank)]
        if all(x >= 0 for x in solve_linear(transposed, p)):
            raise _overlap(first, cone)


def _check_pairs(fan: Fan) -> None:
    """The fan condition, pair by pair: distinct maximal cones intersect in a
    common face iff some y has <y, u> = 0 on their common rays, < 0 on the
    other rays of the first and > 0 on those of the second. That system is
    homogeneous, so its plan reads it with every constant 0."""
    for a, b in combinations(fan.max_cones, 2):
        common = [i for i in a if i in b]
        only_a = [i for i in a if i not in common]
        only_b = [i for i in b if i not in common]
        if not only_a or not only_b:
            raise InvalidFan(f"cone {tuple(a)} and {tuple(b)} are nested")
        strict = [fan.rays[i] for i in only_a] + [tuple(-x for x in fan.rays[i]) for i in only_b]
        weak = [fan.rays[i] for i in common] + [tuple(-x for x in fan.rays[i]) for i in common]
        sep = Plan(fan.rank, tuple(strict), tuple(weak))
        if not sep.strictly_feasible([0] * (len(weak) + len(strict))):
            raise _overlap(a, b)


def validate(fan: Fan, require_complete: bool = False) -> FanProperties:
    """The fan's property triple (``Fan.properties``); with
    ``require_complete``, raises ``InvalidFan`` saying why a fan is not
    complete."""
    props = fan.properties
    if require_complete and not props.complete:
        raise InvalidFan(fan.incompleteness)
    return props


def require_complete(fan: Fan, message: str) -> None:
    """Raise ``NotComplete(message)`` unless the fan is complete, read from
    ``Fan.incompleteness``: no smoothness check."""
    if fan.incompleteness is not None:
        raise NotComplete(message)


def _cone_smooth(fan: Fan, cone) -> bool:
    """A simplicial cone is smooth iff its rays extend to a Z-basis: every
    Smith normal form diagonal entry of its ray matrix is 1."""
    s, _, _ = smith_normal_form([fan.rays[i] for i in cone])
    return all(s[i][i] == 1 for i in range(len(cone)))


def _connected(nodes, edges) -> bool:
    """Is the graph on the (nonempty) nodes with these edges connected?"""
    adj = {v: [] for v in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(adj)


def quotient_projection(fan: Fan, tau: tuple[int, ...]):
    """Projection Z^n -> Z^(n-k) onto the quotient by the span of tau's rays.

    Returns a function mapping integer vectors to the quotient coordinates.
    Computed from the Smith normal form of the ray matrix of tau.
    """
    k = len(tau)
    n = fan.rank
    if k == 0:
        return lambda x: tuple(int(v) for v in x)
    t_mat = [list(fan.rays[i]) for i in tau]
    _, _, v = smith_normal_form(t_mat)

    def project(x):
        row = [sum(int(x[i]) * v[i][j] for i in range(n)) for j in range(n)]
        return tuple(row[k:])

    return project


def star_quotient(fan: Fan, tau) -> tuple[Fan, dict]:
    """Fan of the orbit closure V(tau) plus the ray-image map.

    The map sends each ray index of Star(tau) (tau's rays excluded) to
    (quotient ray index, multiplicity); images are re-primitivized and the
    multiplicity records the dropped factor (always 1 on smooth fans).
    """
    tau = tuple(sorted(tau))
    if tau not in fan.cone_set:
        names = ", ".join(fan.ray_name(i) for i in tau)
        raise NotACone(f"({names}) is not a cone of the fan")
    if not tau:
        return fan, {i: (i, 1) for i in range(fan.n_rays)}
    project = quotient_projection(fan, tau)
    star = [c for c in fan.max_cones if set(tau) <= set(c)]
    star_rays = sorted({i for c in star for i in c} - set(tau))
    quot_rays: list[tuple[int, ...]] = []
    ray_map: dict[int, tuple[int, int]] = {}
    for i in star_rays:  # original ray order is preserved in the quotient
        image, mult = primitive_vector(project(fan.rays[i]))
        if image in quot_rays:
            idx = quot_rays.index(image)
        else:
            quot_rays.append(image)
            idx = len(quot_rays) - 1
        ray_map[i] = (idx, mult)
    quot_cones = []
    for c in star:
        qc = tuple(sorted(ray_map[i][0] for i in c if i not in tau))
        if qc not in quot_cones:
            quot_cones.append(qc)
    quot = Fan(
        rank=fan.rank - len(tau),
        rays=tuple(quot_rays),
        max_cones=tuple(quot_cones),
        name=f"{fan.name}/V{tau}" if fan.name else "",
    )
    return quot, ray_map


def full_subcomplex(fan: Fan, subset) -> RaySubcomplex:
    """All cone ray-sets contained in the given ray subset."""
    s = frozenset(subset)
    faces = tuple(f for f in fan.cones if f and set(f) <= s)
    return RaySubcomplex(vertices=tuple(sorted(s)), faces=faces)


def subset_connected(fan: Fan, subset) -> bool:
    """Is the support of sum of F_rho over the subset connected?

    Decided on the graph whose edges are the 2-element cones inside the
    subset.
    """
    s = set(subset)
    if not s:
        raise EmptySet("connectivity of an empty ray set is undefined")
    return _connected(s, (c for c in fan.cones if len(c) == 2 and set(c) <= s))
