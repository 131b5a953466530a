from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import echelon_eager, fraction_rref, fraction_sparse_rank
from strat import small_fractions

from superalg.linalg import (echelon, identity_matrix, invert, mat_mul, mat_vec, nullspace,
                             rank, reduced, rref, solve, sparse_rank)


@st.composite
def matrices(draw, max_n=5):
    nr = draw(st.integers(1, max_n))
    nc = draw(st.integers(1, max_n))
    return [[draw(small_fractions(6, 4)) for _ in range(nc)]
            for _ in range(nr)]


@settings(max_examples=60)
@given(matrices())
def test_rank_matches_rref_pivot_count(m):
    _, pivots = rref(m)
    assert rank(m) == len(pivots)


@settings(max_examples=60)
@given(matrices())
def test_nullspace_annihilated(m):
    basis = nullspace(m)
    assert len(basis) == len(m[0]) - rank(m)
    for v in basis:
        assert all(x == 0 for x in mat_vec(m, v))


def _sparse(m):
    return [dict(enumerate(row)) for row in m]


@settings(max_examples=60)
@given(matrices(), st.data())
def test_solve_consistent_systems(m, data):
    x = [data.draw(small_fractions(4, 3)) for _ in m[0]]
    b = mat_vec(m, x)
    got = solve(_sparse(m), b, len(m[0]))
    assert got is not None
    assert mat_vec(m, got) == b


def test_solve_inconsistent():
    assert solve([{0: 1, 1: 1}, {0: 1, 1: 1}], [1, 2], 2) is None
    assert solve([{}], [1], 2) is None
    assert solve([], [], 0) == []
    assert solve([], [], 2) == [0, 0]
    assert solve([{1: 2}, {}], [3, 0], 3) == [0, Fraction(3, 2), 0]
    with pytest.raises(ValueError, match="per row"):
        solve([{0: 1}], [], 1)


def test_rref_canonical():
    R, pivots = rref([[0, 2, 4], [1, 1, 1]])
    assert pivots == [0, 1]
    assert R[0][:2] == [1, 0] and R[1][:2] == [0, 1]


def test_mat_mul():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert mat_mul(a, b) == [[2, 1], [4, 3]]
    assert mat_vec(a, [1, 1]) == [3, 7]
    assert rank([[Fraction(1, 2), 1], [1, 2]]) == 1


# Sparse columns with gaps, entries that are negative, half-integer or
# near 10^30, and rows that are zero, repeated or proportional to others.
SPARSE_COLS = st.sampled_from((0, 1, 2, 5, 17, 100, 101, 10**6))
SPARSE_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-7, 7), st.just(2)),
    small_fractions(6, 4),
    st.builds(lambda k, s: s * (10**30 + k), st.integers(-3, 3), st.sampled_from((1, -1))),
    st.builds(lambda k, d: Fraction(10**30 + k, d), st.integers(-3, 3), st.integers(1, 3)),
)


@st.composite
def sparse_rows(draw):
    rows = draw(st.lists(st.dictionaries(SPARSE_COLS, SPARSE_ENTRIES, max_size=5),
                         max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "duplicate", "proportional")))
        if kind == "zero" or not rows:
            new = dict.fromkeys(draw(st.lists(SPARSE_COLS, max_size=2)), 0)
        else:
            f = 1 if kind == "duplicate" else draw(small_fractions(6, 4).filter(bool))
            new = {c: f * v for c, v in draw(st.sampled_from(rows)).items()}
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


def _dense(rows):
    cols = sorted({c for r in rows for c in r})
    return [[r.get(c, 0) for c in cols] for r in rows]


def _snapshot(rows):
    return [[(c, type(v), v) for c, v in r.items()] for r in rows]


@settings(max_examples=200)
@given(sparse_rows())
def test_sparse_rank_matches_dense_rank_and_fraction_oracle(rows):
    before = _snapshot(rows)
    got = sparse_rank(rows)
    assert _snapshot(rows) == before
    assert got == rank(_dense(rows)) == fraction_sparse_rank(rows)
    assert echelon(rows) == echelon_eager(rows)


@settings(max_examples=60)
@given(sparse_rows())
def test_sparse_rank_takes_a_generator(rows):
    before = _snapshot(rows)
    assert sparse_rank(r for r in rows) == fraction_sparse_rank(rows)
    assert _snapshot(rows) == before


def test_sparse_rank_examples():
    big = 10**30
    assert sparse_rank([]) == 0
    assert sparse_rank([{}, {3: 0}]) == 0
    assert sparse_rank([{0: big, 1: 1}, {0: big + 1, 1: 1}]) == 2
    assert sparse_rank([{0: big, 1: big + 1}, {0: 2 * big, 1: 2 * big + 2}]) == 1
    assert sparse_rank([{5: Fraction(1, 2), 9: -1}, {5: -1, 9: 2}, {9: Fraction(-3, 2)}]) == 2
    # sderham's rows have tuple columns
    assert sparse_rank([{(0, 1): 2, (1,): 1}, {(1,): 3}, {(0, 1): 4}]) == 2


@settings(max_examples=200)
@given(sparse_rows(), st.data())
def test_echelon_ignores_row_order(rows, data):
    shuffled = data.draw(st.permutations(rows))
    assert sorted(echelon(shuffled)) == sorted(echelon(rows))
    assert sparse_rank(shuffled) == sparse_rank(rows)
    assert reduced(shuffled) == reduced(rows)


# Int rows whose leading entries are large multiples of small ones, so that
# steps scale a row by |p| > 1 and leave a content to remove, and Fraction
# rows with zero entries, over a few columns so that rows meet.
BIG_LEADS = st.builds(lambda k, s: k * s, st.integers(-40, 40), st.sampled_from((1, 6, 35, 10**12)))


@st.composite
def scaling_rows(draw):
    cols = st.integers(0, 5)
    ints = st.dictionaries(cols, st.one_of(st.integers(-5, 5), BIG_LEADS), max_size=5)
    fracs = st.dictionaries(cols, st.one_of(st.just(0), small_fractions(6, 4)), max_size=5)
    return draw(st.lists(st.one_of(ints, ints, fracs), max_size=8))


@settings(max_examples=300)
@given(scaling_rows())
def test_echelon_matches_eager_content_removal(rows):
    before = _snapshot(rows)
    got = echelon(rows)
    assert _snapshot(rows) == before
    want = echelon_eager(rows)
    # equal dicts, with the pivots found in the same order
    assert got == want and list(got) == list(want)


def test_echelon_eager_examples():
    # 6 against the pivot 4 scales its row by p = 2, and that row is stored
    # at column 3 as -464 divided by its content
    rows = [{0: 4, 1: 1}, {0: 6, 1: 35, 2: 10}, {1: 6, 2: 1, 3: 2}, {0: Fraction(1, 2), 1: 0, 3: 1}]
    got = echelon(rows)
    assert got == echelon_eager(rows) == {0: {0: 4, 1: 1}, 1: {1: -1, 3: 8},
                                          2: {2: -1, 3: -50}, 3: {3: -1}}


def test_echelon_order_examples():
    big = 10**30
    rows = [{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 2}, {}, {1: 3, 2: 0}, {0: big, 2: big + 1},
            {1: 3}, {0: Fraction(1, 2), 2: 0}]
    for order in (rows, rows[::-1], rows[3:] + rows[:3]):
        assert sorted(echelon(order)) == [0, 1, 2]
        assert reduced(order) == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}
    # the rank-2 span of {0: 1, 1: -1} and {1: 1, 2: 1}, entered in three orders
    pair = [{0: 1, 1: -1}, {1: 1, 2: 1}, {0: 1, 2: 1}, {0: 2, 1: -2}]
    for order in (pair, pair[::-1], pair[2:] + pair[:2]):
        assert sorted(echelon(order)) == [0, 1]
        assert reduced(order) == {0: {0: 1, 2: 1}, 1: {1: 1, 2: 1}}


@settings(max_examples=200)
@given(sparse_rows())
def test_reduced_matches_fraction_oracle(rows):
    before = _snapshot(rows)
    got = reduced(rows)
    assert _snapshot(rows) == before
    cols = sorted({c for r in rows for c in r})
    R, pivots = fraction_rref(_dense(rows))
    assert sorted(got) == sorted(echelon(rows)) == [cols[p] for p in pivots]
    assert got == {cols[p]: {cols[c]: v for c, v in enumerate(R[i]) if v}
                   for i, p in enumerate(pivots)}
    assert all(type(v) is Fraction for row in got.values() for v in row.values())


# Dense matrices whose rows may be zero or proportional to an earlier row,
# with entries that are zero, small, half-integer or near 10^30.
@st.composite
def dense_matrices(draw, square=False):
    nr = draw(st.integers(1, 5))
    nc = nr if square else draw(st.integers(1, 5))
    rows = [[draw(st.one_of(st.just(0), SPARSE_ENTRIES)) for _ in range(nc)]
            for _ in range(nr)]
    for i in range(nr):
        kind = draw(st.sampled_from(("plain", "plain", "zero", "proportional")))
        if kind == "zero":
            rows[i] = [0] * nc
        elif kind == "proportional" and i:
            f = draw(small_fractions(6, 4))
            rows[i] = [f * x for x in rows[draw(st.integers(0, i - 1))]]
    return rows


def _fractions(m):
    return [[type(x) is Fraction for x in row] for row in m]


@settings(max_examples=150)
@given(dense_matrices())
def test_rref_matches_fraction_oracle(m):
    got = rref(m)
    assert got == fraction_rref(m)
    assert all(map(all, _fractions(got[0])))


@settings(max_examples=150)
@given(dense_matrices())
def test_nullspace_matches_fraction_oracle(m):
    ncols = len(m[0])
    R, pivots = fraction_rref(m)
    want = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(int(c == f)) for c in range(ncols)]
            for i, p in enumerate(pivots):
                v[p] = -R[i][f]
            want.append(v)
    got = nullspace(m)
    assert got == want and all(map(all, _fractions(got)))
    assert all(not any(mat_vec(m, v)) for v in got)


@settings(max_examples=150)
@given(dense_matrices(), st.booleans(), st.data())
def test_solve_matches_fraction_oracle(m, consistent, data):
    ncols = len(m[0])
    if consistent:
        b = mat_vec(m, [data.draw(small_fractions(4, 3)) for _ in range(ncols)])
    else:
        b = [data.draw(st.one_of(st.just(0), SPARSE_ENTRIES)) for _ in m]
    R, pivots = fraction_rref([row + [y] for row, y in zip(m, b)])
    got = solve(_sparse(m), b, ncols)
    if ncols in pivots:
        assert got is None and not consistent
        return
    want = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        want[p] = R[i][ncols]
    assert got == want and all(type(x) is Fraction for x in got)
    assert mat_vec(m, got) == b


@settings(max_examples=150)
@given(dense_matrices(square=True))
def test_invert_matches_fraction_oracle(m):
    n = len(m)
    R, pivots = fraction_rref([row + e for row, e in zip(m, identity_matrix(n))])
    got = invert(m)
    if pivots[:n] != list(range(n)):
        assert got is None and rank(m) < n
        return
    assert got == [row[n:] for row in R]
    assert mat_mul(got, m) == mat_mul(m, got) == identity_matrix(n)


def test_invert_examples():
    assert invert([[2, 1], [1, 1]]) == [[1, -1], [-1, 2]]
    assert invert([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    assert invert([[1, 2], [2, 4]]) is None
    assert invert([[0, 0], [0, 0]]) is None
    assert invert([[10**30, 1], [10**30 + 1, 1]]) == [[-1, 1], [10**30 + 1, -10**30]]
    assert invert([]) == []
    with pytest.raises(ValueError, match="square"):
        invert([[1, 2]])
