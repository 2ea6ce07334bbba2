from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from toricpos.linalg import det, rref, smith_normal_form, solve_linear

RAY_MATRIX = [
    [0, 0, -1], [0, 0, 1], [1, 0, 1], [0, 1, -1], [-1, 0, 0], [0, -1, 0],
]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def snf_invariants(a):
    s, u, v = smith_normal_form(a)
    m, n = len(a), len(a[0])
    assert mat_mul(mat_mul(u, a), v) == s
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [s[i][i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for a_, b_ in zip(diag, diag[1:]):
        if a_ == 0:
            assert b_ == 0
        else:
            assert b_ % a_ == 0
    assert all(s[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    return diag


def test_snf_identity():
    diag = snf_invariants([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert diag == [1, 1, 1]


def test_snf_zero():
    s, u, v = smith_normal_form([[0, 0], [0, 0]])
    assert s == [[0, 0], [0, 0]]
    assert u == [[1, 0], [0, 1]]
    assert v == [[1, 0], [0, 1]]


def test_snf_ray_matrix_is_unimodular_rank_three():
    # cokernel of the dual map is free of rank 6 - 3 = 3
    diag = snf_invariants(RAY_MATRIX)
    assert diag == [1, 1, 1]


matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


@settings(max_examples=120, deadline=None)
@given(matrices)
def test_snf_randomized(a):
    snf_invariants(a)


def test_solve_linear():
    sol = solve_linear([[1, 2], [3, 4]], [5, 11])
    assert sol == [Fraction(1), Fraction(2)]
    assert solve_linear([[1, 1], [1, 1]], [0, 1]) is None


def test_rref_pivots():
    reduced, pivots = rref([[Fraction(0), Fraction(1)], [Fraction(0), Fraction(2)]])
    assert pivots == [1]
    assert reduced[0] == [Fraction(0), Fraction(1)]
