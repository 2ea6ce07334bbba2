import random
from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from toricpos import Fan
from toricpos.linalg import matrix_rank, primitive_vector, rref, smith_normal_form, solve_linear

from .oracles import reference_det as det
from .oracles import reference_rref, reference_solve_linear

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


def _echelon_matches_reference(mat):
    red, pivots = rref(mat)
    ref, ref_pivots = reference_rref(mat)
    assert pivots == ref_pivots
    assert matrix_rank(mat) == len(ref_pivots)
    for row in red:
        assert all(type(x) is int for x in row)
        assert gcd(*row) in (0, 1)
    for i, c in enumerate(pivots):  # a pivot row stands for itself over its pivot
        assert red[i][c] > 0
        assert [Fraction(x, red[i][c]) for x in red[i]] == ref[i]
    assert all(not any(row) for row in red[len(pivots):])
    assert all(not any(row) for row in ref[len(pivots):])


def _solution_matches_reference(mat, rhs):
    sol = solve_linear(mat, rhs)
    assert sol == reference_solve_linear(mat, rhs)
    if sol is not None:
        assert all(type(x) is Fraction for x in sol)
        assert [sum(a * x for a, x in zip(row, sol)) for row in mat] == list(rhs)


def _with_redundancy(rng, rows, width):
    """The rows plus zero rows and integer combinations of them, shuffled."""
    rows = [list(r) for r in rows]
    for _ in range(rng.randint(0, 2)):
        rows.append([0] * width)
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(rows), rng.choice(rows)
        p, q = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append([p * x + q * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def _random_matrix(rng, rational):
    def entry():
        x = rng.randint(-6, 6)
        return Fraction(x, rng.randint(1, 5)) if rational else x

    m, n = rng.randint(1, 5), rng.randint(1, 5)
    return _with_redundancy(rng, [[entry() for _ in range(n)] for _ in range(m)], n), n


def test_rref_and_solve_match_the_fraction_reference_on_seeded_corpus():
    rng = random.Random(2468)
    inconsistent = 0
    for k in range(400):
        mat, n = _random_matrix(rng, rational=k % 2 == 1)
        _echelon_matches_reference(mat)
        x = [rng.randint(-4, 4) for _ in range(n)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in mat]
        _solution_matches_reference(mat, rhs)  # consistent by construction
        rhs[rng.randrange(len(rhs))] += Fraction(1, rng.randint(1, 3))
        if solve_linear(mat, rhs) is None:
            inconsistent += 1
        _solution_matches_reference(mat, rhs)
    assert inconsistent > 100


entries = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
)
systems = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=5),
        st.lists(entries, min_size=5, max_size=5),
        st.randoms(use_true_random=False),
    )
)


@settings(max_examples=150, deadline=None)
@given(systems)
def test_rref_and_solve_match_the_fraction_reference(system):
    rows, rhs, rng = system
    mat = _with_redundancy(rng, rows, len(rows[0]))
    _echelon_matches_reference(mat)
    _solution_matches_reference(mat, rhs[: len(mat)] + [0] * (len(mat) - len(rhs)))
    _solution_matches_reference(mat, [0] * len(mat))


def test_rref_of_empty_and_zero_matrices():
    assert rref([]) == ([], [])
    assert rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
    assert matrix_rank([]) == 0
    assert solve_linear([], []) == []
    assert solve_linear([], [1]) is None
    assert solve_linear([[0, 0]], [1]) is None


def _maximal_minor_gcd(mat):
    k, n = len(mat), len(mat[0])
    g = 0
    for cols in combinations(range(n), k):
        g = gcd(g, int(det([[row[j] for j in cols] for row in mat])))
    return g


def test_smoothness_by_smith_form_matches_reference_determinants():
    """A cone is smooth iff its rays extend to a Z-basis: |det| = 1 for a
    full cone, the gcd of the maximal minors 1 for a partial one."""
    rng = random.Random(1357)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        k = rng.randint(1, n)
        rays = set()
        while len(rays) < k:
            v = [rng.randint(-3, 3) for _ in range(n)]
            if any(v):
                rays.add(primitive_vector(v)[0])
        rays = sorted(rays)
        if len(reference_rref(rays)[1]) < k:
            continue
        smooth = Fan(n, tuple(rays), (tuple(range(k)),)).properties.smooth
        assert smooth == (_maximal_minor_gcd(rays) == 1)
        if k == n:
            assert smooth == (abs(det(rays)) == 1)
        seen[smooth] += 1
    assert seen[True] > 20 and seen[False] > 20
