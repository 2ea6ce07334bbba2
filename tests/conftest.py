import contextlib
import io
import random
from typing import NamedTuple

import pytest

from toricpos import Fan, ToricDivisor
from toricpos.cli import main


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
