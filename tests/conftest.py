import contextlib
import io
import random
from typing import NamedTuple

import pytest

from toricpos import Fan, ToricDivisor
from toricpos.cli import main
from toricpos.polyhedra import polyhedron


@pytest.fixture(scope="session")
def p1():
    return Fan(1, ((1,), (-1,)), ((0,), (1,)), name="p1")


@pytest.fixture(scope="session")
def p2():
    return Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2), (0, 2)), name="p2")


@pytest.fixture(scope="session")
def p1xp1():
    return Fan(
        2,
        ((1, 0), (0, 1), (-1, 0), (0, -1)),
        ((0, 1), (1, 2), (2, 3), (0, 3)),
        name="p1xp1",
    )


@pytest.fixture(scope="session")
def totaro():
    return Fan(
        3,
        ((0, 0, -1), (0, 0, 1), (1, 0, 1), (0, 1, -1), (-1, 0, 0), (0, -1, 0)),
        ((0, 2, 3), (0, 2, 5), (0, 3, 4), (0, 4, 5),
         (1, 2, 3), (1, 2, 5), (1, 3, 4), (1, 4, 5)),
        name="totaro-x",
    )


@pytest.fixture(scope="session")
def example_fans(p1, p2, p1xp1, totaro):
    return (p1, p2, p1xp1, totaro)


@pytest.fixture(scope="session")
def totaro_L(totaro):
    return ToricDivisor(totaro, (3, 3, -1, -1, -1, -1))


@pytest.fixture(scope="session")
def totaro_H(totaro):
    return ToricDivisor(totaro, (1, 1, 1, 1, 1, 1))


def random_divisors(fan, count, lo=-5, hi=5, seed=0):
    rng = random.Random(f"{fan.name}:{seed}")
    return [
        ToricDivisor(fan, tuple(rng.randint(lo, hi) for _ in range(fan.n_rays)))
        for _ in range(count)
    ]


def gap_regions():
    """(region, box) for slivers with integer gaps in dimensions 2-4:
    0 <= y_{n-2} <= w and c * y_{n-1} - y_{n-2} = r, the first n - 2
    coordinates in [0, 1], and a box holding the sliver. It holds a point
    iff some y_{n-2} in [0, w] is -r mod c: 0 <= y0 <= 2, 3 * y1 - y0 = 1
    holds (2, 1), though the middle y0 = 1 gives y1 = 2/3, and its
    0 <= y0 <= 1 twin holds none."""
    for n in (2, 3, 4):
        def e(k, s=1):
            return tuple(s * (j == k) for j in range(n))

        for c in (2, 3, 5):
            sliver = tuple(c * (j == n - 1) - (j == n - 2) for j in range(n))
            for w in range(c):
                for r in range(c):
                    weak = [(e(k), 0) for k in range(n - 1)] + [(e(k, -1), 1) for k in range(n - 2)]
                    weak += [(e(n - 2, -1), w), (sliver, -r), (tuple(-x for x in sliver), r)]
                    box = [(0, 1)] * (n - 2) + [(0, w), (0, (w + r) // c + 1)]
                    yield polyhedron(n, weak=weak), box


def unimodular(rng, n):
    """A seeded matrix in GL(n, Z): row operations on the identity, shuffled."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        a[i] = [x + s * y for x, y in zip(a[i], a[j])]
    rng.shuffle(a)
    return a


def product_fan(factors, matrix=None):
    """The product of (rays, cones) factors, its rays moved by ``matrix``
    (the identity when None)."""
    rank = sum(len(rays[0]) for rays, _ in factors)
    rays, cones, dim = [], [()], 0
    for f_rays, f_cones in factors:
        offset, k = len(rays), len(f_rays[0])
        rays += [(0,) * dim + r + (0,) * (rank - dim - k) for r in f_rays]
        cones = [c + tuple(i + offset for i in fc) for c in cones for fc in f_cones]
        dim += k
    if matrix is not None:
        rays = [tuple(sum(a * x for a, x in zip(row, r)) for row in matrix) for r in rays]
    return Fan(rank, tuple(rays), tuple(cones))


class CliResult(NamedTuple):
    exit_code: int
    output: str


def run_cli(*args) -> CliResult:
    """Run ``toricpos.cli.main`` in this process on the arguments: the exit
    code (0 when main returns, else its SystemExit code) and what it printed
    to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            main(list(args))
            code = 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return CliResult(code, out.getvalue())
