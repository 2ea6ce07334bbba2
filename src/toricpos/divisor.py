"""Torus-invariant divisors, divisor classes, and restriction to orbit closures.

Sign convention, fixed globally: D = sum a_rho F_rho has piecewise-linear
function psi_D with psi_D(u_rho) = -a_rho and section polytope
P_D = {m : <m, u_rho> + a_rho >= 0}. Rational coefficients are first-class
so that perturbations D - eps*H need no special casing; operations that
require integrality say so.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import InternalInconsistency, NotACone, NotIntegral, ToricError
from .fan import Fan, star_quotient
from .linalg import dot, solve_linear
from .polyhedra import Polyhedron, polyhedron


class ToricDivisor:
    """D = sum coeffs[rho] * F_rho on a fan. A value: equal and hashed over
    (fan, coeffs). A plain class, not a NamedTuple, as ``plain_coeffs`` is
    cached in the instance ``__dict__``; never mutated after ``__init__``."""

    def __init__(self, fan: Fan, coeffs: tuple[Fraction, ...]):
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(coeffs) != fan.n_rays:
            raise ValueError(
                f"{len(coeffs)} coefficients for a fan with {fan.n_rays} rays"
            )
        self.fan = fan
        self.coeffs = coeffs

    def __repr__(self):
        return f"ToricDivisor(fan={self.fan!r}, coeffs={self.coeffs!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.fan, self.coeffs) == (other.fan, other.coeffs)

    def __hash__(self):
        return hash((self.fan, self.coeffs))

    @cached_property
    def plain_coeffs(self) -> tuple[int | Fraction, ...]:
        """The coefficients with an ``int`` wherever the denominator is 1:
        the constants every region of D reads (``Fan.regions``), so that an
        integral divisor's queries run without ``Fraction`` arithmetic."""
        return tuple(c.numerator if c.denominator == 1 else c for c in self.coeffs)

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __add__(self, other: "ToricDivisor") -> "ToricDivisor":
        if other.fan is not self.fan and other.fan != self.fan:
            raise ValueError("divisors live on different fans")
        return ToricDivisor(self.fan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ToricDivisor") -> "ToricDivisor":
        return self + (-other)

    def __neg__(self) -> "ToricDivisor":
        return ToricDivisor(self.fan, tuple(-a for a in self.coeffs))

    def __rmul__(self, k) -> "ToricDivisor":
        k = Fraction(k)
        return ToricDivisor(self.fan, tuple(k * a for a in self.coeffs))

    __mul__ = __rmul__

    def psi_values(self, convention: str = "internal") -> tuple[Fraction, ...]:
        """PL function values at the rays under the requested convention."""
        if convention == "paper":
            return self.coeffs
        return tuple(-a for a in self.coeffs)


def zero_divisor(fan: Fan) -> ToricDivisor:
    return ToricDivisor(fan, (Fraction(0),) * fan.n_rays)


def prime_divisor(fan: Fan, i: int) -> ToricDivisor:
    coeffs = [Fraction(0)] * fan.n_rays
    coeffs[i] = Fraction(1)
    return ToricDivisor(fan, tuple(coeffs))


def divisor_of_character(fan: Fan, m) -> ToricDivisor:
    """div(chi^m) = sum <m, u_rho> F_rho."""
    return ToricDivisor(fan, tuple(dot(m, u) for u in fan.rays))


def canonical_divisor(fan: Fan) -> ToricDivisor:
    """K = -sum of all prime invariant divisors."""
    return ToricDivisor(fan, (Fraction(-1),) * fan.n_rays)


def anticanonical_divisor(fan: Fan) -> ToricDivisor:
    return -canonical_divisor(fan)


def section_polyhedron(divisor: ToricDivisor) -> Polyhedron:
    """P_D = {m : <m, u_rho> + a_rho >= 0 for all rays}."""
    return polyhedron(divisor.fan.rank, weak=zip(divisor.fan.rays, divisor.plain_coeffs))


class DivisorClass(NamedTuple):
    """Coordinates in N^1(X) x Q with respect to a fixed ray-class basis."""

    coords: tuple[Fraction, ...]
    basis_rays: tuple[int, ...]  # [F_rho] for these rays form the basis

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def picard_rank(fan: Fan) -> int:
    return len(fan.class_basis)


def class_of(divisor: ToricDivisor) -> DivisorClass:
    """Image of the divisor in N^1(X) x Q, in the basis ``Fan.class_basis``."""
    fan = divisor.fan
    basis = fan.class_basis
    # solve a = V m + sum_{i in basis} c_i e_i exactly
    n, r = fan.rank, fan.n_rays
    a_mat = [[*fan.rays[i], *(int(i == b) for b in basis)] for i in range(r)]
    sol = solve_linear(a_mat, divisor.plain_coeffs)
    if sol is None:
        raise ToricError("class computation failed; rays do not span")
    return DivisorClass(coords=tuple(sol[n:]), basis_rays=basis)


def is_linearly_equivalent(d1: ToricDivisor, d2: ToricDivisor):
    """(equivalent?, witness m with d1 - d2 = div(chi^m), witness integral?)."""
    fan = d1.fan
    diff = [a - b for a, b in zip(d1.coeffs, d2.coeffs)]
    m = solve_linear(fan.rays, diff)
    if m is None:
        return False, None, False
    integral = all(x.denominator == 1 for x in m)
    return True, tuple(m), integral


def wall_numerator(fan: Fan, a, wall):
    """den * (D . V(wall)) for a sorted wall and D's plain constants a: the
    wall's form (sigma, c, other, den) from ``Fan.wall_forms`` read as
    den * a_other - sum_k c[k] * a_sigma[k], an integer when D is integral.
    As den > 0 it has the degree's sign, so a sign question builds no Fraction."""
    form = fan.wall_forms.get(wall)
    if form is None:
        raise NotACone(f"{wall} is not a wall of a complete fan")
    sigma, c, other, den = form
    return den * a[other] - sum(x * a[i] for x, i in zip(c, sigma))


def wall_degree(divisor: ToricDivisor, wall) -> Fraction:
    """Intersection number D . V(wall) for a wall (codimension-1 cone).

    Reads the wall's form from ``Fan.wall_forms``, built once per fan: the
    degree is the coefficient at the opposite ray of the representative of D
    that vanishes on one adjacent maximal cone, a fixed linear form in the
    coefficients, so no system is solved per divisor.
    """
    fan, wall = divisor.fan, tuple(sorted(wall))
    return Fraction(wall_numerator(fan, divisor.plain_coeffs, wall), fan.wall_forms[wall][3])


def is_ample(divisor: ToricDivisor) -> bool:
    fan = divisor.fan
    if fan.rank == 0:
        return True
    a = divisor.plain_coeffs
    return all(wall_numerator(fan, a, w) > 0 for w in fan.walls)


class Restriction(NamedTuple):
    divisor: ToricDivisor  # on the quotient fan
    witness_m: tuple[Fraction, ...]
    ray_map: dict
    tau: tuple[int, ...]


def restrict(divisor: ToricDivisor, tau) -> Restriction:
    """Restriction of O(D) to the orbit closure V(tau).

    Shifts D by div(chi^m) so the coefficients vanish on tau, then pushes the
    star coefficients through the ray-image map (dividing by the multiplicity
    of each image, which is 1 on smooth fans).
    """
    fan = divisor.fan
    tau = tuple(sorted(tau))
    quot, ray_map = star_quotient(fan, tau)  # raises NotACone first
    if not tau:
        return Restriction(divisor, (Fraction(0),) * fan.rank, ray_map, tau)
    m = solve_linear([fan.rays[i] for i in tau], [divisor.plain_coeffs[i] for i in tau])
    shifted = divisor - divisor_of_character(fan, m)
    coeffs: list[Fraction | None] = [None] * quot.n_rays
    for i, (idx, mult) in ray_map.items():
        value = shifted.coeffs[i] / mult
        if coeffs[idx] is None:
            coeffs[idx] = value
        elif coeffs[idx] != value:
            raise InternalInconsistency(
                f"inconsistent push of coefficients to quotient ray {idx}"
            )
    return Restriction(
        divisor=ToricDivisor(quot, tuple(coeffs)),
        witness_m=tuple(m),
        ray_map=ray_map,
        tau=tau,
    )


def require_integral(divisor: ToricDivisor, what: str) -> None:
    if not divisor.is_integral:
        raise NotIntegral(f"{what} requires an integral divisor")
