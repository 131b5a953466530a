from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    composed_d_F,
    composed_d_star_G,
    ext_transport_loop,
    shift_left_loop,
    shift_right_loop,
    sym_transport_loop,
)
from strat import small_fractions

from superalg.cartan import (
    _block_assembler,
    bigraded_basis,
    boundary_block,
    d_F,
    d_star_G,
    delta,
    delta_via_derivations,
    dstar_homology_dims,
    ext_contract,
    ext_derivation,
    ext_transport,
    ext_wedge,
    homology_dims,
    operator_columns,
    predicted_dstar_homology_dims,
    predicted_homology_dims,
    retraction_for,
    sym_contract,
    sym_derivation,
    sym_multiply,
    sym_transport,
    twisted_shift_left,
    twisted_shift_right,
)
from superalg.linalg import identity_matrix, mat_mul, mat_vec, nullspace, sparse_rank, transpose
from superalg.supermaps import PolySuperFunc


def mono(n, m, alpha, key, coeff=1):
    return PolySuperFunc.monomial(n, m, alpha, key, coeff)


@st.composite
def elems(draw, n, m, max_terms=4, max_exp=2):
    e = PolySuperFunc.zero(n, m)
    for _ in range(draw(st.integers(0, max_terms))):
        alpha = tuple(draw(st.integers(0, max_exp)) for _ in range(n))
        key = tuple(sorted(draw(st.sets(st.integers(1, m), max_size=m))))
        e = e + mono(n, m, alpha, key, draw(small_fractions()))
    return e


def int_matrix(rows, cols):
    return st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def test_d_F_examples():
    one = PolySuperFunc.unit(1, 1)
    I = [[1]]
    assert d_F(I, one).is_zero()
    assert d_F(I, mono(1, 1, (1,), ())) == mono(1, 1, (0,), (1,))
    with pytest.raises(ValueError):
        d_F([[1, 0]], one)


def test_d_star_examples():
    I = [[1]]
    assert d_star_G(I, PolySuperFunc.unit(1, 1)).is_zero()
    assert d_star_G(I, mono(1, 1, (0,), (1,))) == mono(1, 1, (1,), ())


def test_delta_is_total_degree_on_line():
    I = [[1]]
    for k in range(4):
        for l in (0, 1):
            x = mono(1, 1, (k,), (1,) if l else ())
            assert delta(I, I, x) == x.scale(k + l)


def test_delta_zero_map():
    Z = [[0, 0], [0, 0]]
    x = mono(2, 2, (1, 1), (1,)) + mono(2, 2, (0, 2), (1, 2))
    assert delta(Z, Z, x).is_zero()


@settings(max_examples=60, deadline=None)
@given(int_matrix(3, 2), int_matrix(2, 3), elems(2, 3))
def test_boundary_squares_vanish(F, G, x):
    assert d_F(F, d_F(F, x)).is_zero()
    assert d_star_G(G, d_star_G(G, x)).is_zero()


def frac_matrix(rows, cols):
    return st.lists(st.lists(small_fractions(3, 2), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _canonical(x):
    return all(x.terms.values())


def test_boundary_operators_cancel_across_terms():
    I2 = identity_matrix(2)
    x = mono(2, 2, (1, 0), (2,)) + mono(2, 2, (0, 1), (1,))
    assert composed_d_F(I2, x).is_zero() and d_F(I2, x).is_zero()
    y = mono(2, 2, (1, 0), (2,)) - mono(2, 2, (0, 1), (1,))
    assert composed_d_star_G(I2, y).is_zero() and d_star_G(I2, y).is_zero()


@settings(max_examples=80, deadline=None)
@given(frac_matrix(3, 2), frac_matrix(2, 3), elems(2, 3, max_terms=6), elems(2, 3))
def test_boundary_operators_match_composition_oracle(F, G, x, y):
    # d_F(y) and d*_G(y) are not monomials, and d_F and d*_G send them to
    # elements whose terms cancel
    for z in (x, y, composed_d_F(F, y), composed_d_star_G(G, y)):
        got_F, got_G = d_F(F, z), d_star_G(G, z)
        assert got_F == composed_d_F(F, z) and _canonical(got_F)
        assert got_G == composed_d_star_G(G, z) and _canonical(got_G)


@settings(max_examples=60, deadline=None)
@given(int_matrix(3, 2), int_matrix(2, 3), elems(2, 3))
def test_delta_equals_derivation_form(F, G, x):
    assert delta(F, G, x) == delta_via_derivations(F, G, x)


@settings(max_examples=40, deadline=None)
@given(elems(3, 3))
def test_ccr_car(x):
    for mu in range(1, 4):
        for nu in range(1, 4):
            comm = sym_contract(mu, sym_multiply(nu, x)) - sym_multiply(nu, sym_contract(mu, x))
            assert comm == (x if mu == nu else PolySuperFunc.zero(3, 3))
            anti = ext_contract(mu, ext_wedge(nu, x)) + ext_wedge(nu, ext_contract(mu, x))
            assert anti == (x if mu == nu else PolySuperFunc.zero(3, 3))


@settings(max_examples=40, deadline=None)
@given(int_matrix(2, 2), elems(2, 2, max_terms=3), elems(2, 2, max_terms=3))
def test_derivations_satisfy_leibniz(M, x, y):
    assert sym_derivation(M, x * y) == sym_derivation(M, x) * y + x * sym_derivation(M, y)
    assert ext_derivation(M, x * y) == ext_derivation(M, x) * y + x * ext_derivation(M, y)


def test_homology_invertible_and_zero():
    F = [[1, 1], [0, 1]]
    table = homology_dims(F, 3, 2)
    want = [[1 if (k, l) == (0, 0) else 0 for l in range(3)] for k in range(4)]
    assert table == want
    assert predicted_homology_dims(F, 3, 2) == want

    Z = [[0, 0], [0, 0]]
    tz = homology_dims(Z, 2, 2)
    assert tz == predicted_homology_dims(Z, 2, 2)
    assert tz[2][1] == 3 * 2  # d = 0, so homology is the whole bigraded piece


def test_homology_rank_one():
    F = [[1, 0], [1, 0]]
    table = homology_dims(F, 3, 2)
    assert table == predicted_homology_dims(F, 3, 2)
    for k in range(4):
        assert table[k][0] == 1 and table[k][1] == 1 and table[k][2] == 0


@settings(max_examples=25, deadline=None)
@given(int_matrix(3, 2))
def test_homology_matches_prediction_and_routes_agree(F):
    assert homology_dims(F, 3, 3) == predicted_homology_dims(F, 3, 3)
    # the 3x3 table reads the ranks out of (k, l) for k <= 4 and l <= 3
    for k in range(5):
        for l in range(4):
            via_op = operator_columns(lambda x: d_F(F, x), 2, 3, (k, l), (k - 1, l + 1))
            block = boundary_block(F, 2, 3, k, l, "F")
            assert sparse_rank(via_op) == sparse_rank(block)


# Fraction matrices whose rows may be zero or proportional to an earlier row,
# so that kernel and cokernel both occur.
@st.composite
def deficient_matrices(draw, rows, cols):
    mat = [[draw(small_fractions(4, 3)) for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        kind = draw(st.sampled_from(("plain", "plain", "zero", "proportional")))
        if kind == "zero":
            mat[i] = [Fraction(0)] * cols
        elif kind == "proportional" and i:
            f = draw(small_fractions(4, 3))
            mat[i] = [f * x for x in mat[draw(st.integers(0, i - 1))]]
    return mat


def _scaled_rows(cols, nrows, scale):
    """The transpose of sparse columns, scaled: one {col: value} per row."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(cols):
        for r, v in col.items():
            rows[r][j] = v * scale
    return rows


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_boundary_block_is_the_scaled_operator_matrix(data):
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    k, l = data.draw(st.integers(0, 3)), data.draw(st.integers(0, m))
    F = data.draw(deficient_matrices(m, n))
    G = data.draw(deficient_matrices(n, m))
    for mat, direction, op, (dk, dl) in ((F, "F", d_F, (-1, 1)), (G, "G", d_star_G, (1, -1))):
        scale = lcm(*(x.denominator for row in mat for x in row))
        want = operator_columns(lambda x: op(mat, x), n, m, (k, l), (k + dk, l + dl))
        got = boundary_block(mat, n, m, k, l, direction)
        assert got == _scaled_rows(want, len(bigraded_basis(n, m, k + dk, l + dl)), scale)
        assert all(type(v) is int for row in got for v in row.values())


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_block_assembler_serves_every_block_of_a_table(data):
    # one assembler per direction, asked for every block with k <= 4 in a
    # drawn order: a move table cached by k alone or by l alone, or reused
    # across (k, l) pairs, builds a wrong block
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    F = data.draw(deficient_matrices(m, n))
    G = data.draw(deficient_matrices(n, m))
    for mat, direction, op, (dk, dl) in ((F, "F", d_F, (-1, 1)), (G, "G", d_star_G, (1, -1))):
        scale = lcm(*(x.denominator for row in mat for x in row))
        block = _block_assembler(mat, n, m, direction)
        for k, l in data.draw(st.permutations(list(product(range(5), range(m + 1))))):
            want = operator_columns(lambda x: op(mat, x), n, m, (k, l), (k + dk, l + dl))
            got = block(k, l)
            assert got == _scaled_rows(want, len(bigraded_basis(n, m, k + dk, l + dl)), scale)
            assert all(type(v) is int for row in got for v in row.values())


def test_boundary_block_examples():
    # d_F(x1 * w1) = (1/2) w2 ^ w1 = -(1/2) w1 ^ w2 on n = 1, m = 2, scaled by 2;
    # the one target row w1 ^ w2 has its entry in the column of x1 * w1
    assert boundary_block([[0], [Fraction(1, 2)]], 1, 2, 1, 1, "F") == [{0: -1}]
    # d*_G(w1 ^ w2) = 3 x1 * w2 - 3 x1 * w1 with G = [[3, 3]]: rows x1 * w1, x1 * w2
    assert boundary_block([[3, 3]], 1, 2, 0, 2, "G") == [{0: -3}, {0: 3}]
    # no target monomials, so no rows
    assert boundary_block([[1, 2]], 2, 1, 0, 0, "F") == []
    assert boundary_block([[1, 2]], 1, 2, 2, 0, "G") == []
    # a target no source reaches is an empty row: d_F on A^{1,0} of n = 2,
    # m = 1 with F = [[1, 0]] reaches w1 only from x1
    assert boundary_block([[1, 0]], 2, 1, 1, 0, "F") == [{0: 1}]
    assert boundary_block([[0, 0]], 2, 1, 1, 0, "F") == [{}]
    with pytest.raises(ValueError, match="expected a 2x1 matrix"):
        boundary_block([[1, 2]], 1, 2, 1, 0, "F")
    with pytest.raises(ValueError, match="direction"):
        boundary_block([[1]], 1, 1, 1, 0, "H")


@settings(max_examples=25, deadline=None)
@given(int_matrix(2, 3))
def test_dstar_homology_matches_prediction(G):
    assert dstar_homology_dims(G, 3, 3) == predicted_dstar_homology_dims(G, 3, 3)


def test_shift_cohomology_is_point():
    for q in (2, 3, 4):
        I = identity_matrix(q)
        want = [[1 if (k, l) == (0, 0) else 0 for l in range(min(q, 4) + 1)]
                for k in range(7)]
        assert homology_dims(I, 6, min(q, 4)) == want       # right shift by id
        assert dstar_homology_dims(I, 6, min(q, 4)) == want  # left shift by id


def test_twisted_shift_examples():
    I2 = identity_matrix(2)
    x = mono(2, 2, (0, 0), (1, 2))
    assert twisted_shift_left(I2, x) == \
        mono(2, 2, (1, 0), (2,)) - mono(2, 2, (0, 1), (1,))
    assert twisted_shift_right(I2, mono(2, 2, (1, 0), ())) == mono(2, 2, (0, 0), (1,))
    assert twisted_shift_left(I2, mono(2, 2, (2, 1), ())).is_zero()
    with pytest.raises(ValueError):
        twisted_shift_left([[1]], x)
    # the transpose of a 2x3 matrix fits d*_G on a 3|2 element, but the
    # matrix is no endomorphism of S
    y = mono(3, 2, (1, 0, 0), (1, 2))
    for shift in (twisted_shift_left, twisted_shift_right):
        with pytest.raises(ValueError, match="square matrix"):
            shift([[1, 0, 0], [0, 1, 0]], y)


@settings(max_examples=50, deadline=None)
@given(int_matrix(3, 3), int_matrix(3, 3), elems(3, 3, max_terms=3))
def test_twisted_shift_identities(A, B, x):
    z = PolySuperFunc.zero(3, 3)
    assert twisted_shift_right(A, twisted_shift_right(B, x)) + \
        twisted_shift_right(B, twisted_shift_right(A, x)) == z
    assert twisted_shift_left(A, twisted_shift_left(B, x)) + \
        twisted_shift_left(B, twisted_shift_left(A, x)) == z
    mixed = twisted_shift_right(A, twisted_shift_left(B, x)) + \
        twisted_shift_left(B, twisted_shift_right(A, x))
    assert mixed == sym_transport(mat_mul(A, B), x) + ext_transport(mat_mul(B, A), x)


@settings(max_examples=40, deadline=None)
@given(int_matrix(3, 3), elems(3, 3, max_terms=3))
def test_twisted_shifts_are_boundary_maps_in_disguise(A, x):
    # the package computes all four through d_F, d*_G and the derivations of
    # the transpose; the oracles sum them from their definitions
    At = transpose(A)
    assert twisted_shift_right(A, x) == shift_right_loop(A, x) == d_F(At, x)
    assert twisted_shift_left(A, x) == shift_left_loop(A, x) == d_star_G(At, x)
    assert sym_transport(A, x) == sym_transport_loop(A, x)
    assert ext_transport(A, x) == ext_transport_loop(A, x)


@settings(max_examples=40, deadline=None)
@given(elems(2, 2, max_terms=3))
def test_identity_shift_anticommutator_counts_degree(x):
    I2 = identity_matrix(2)
    out = twisted_shift_right(I2, twisted_shift_left(I2, x)) + \
        twisted_shift_left(I2, twisted_shift_right(I2, x))
    for k in range(5):
        for l in range(3):
            assert out.bidegree_part(k, l) == x.bidegree_part(k, l).scale(k + l)
    assert out.bidegrees() == [(k, l) for k, l in x.bidegrees() if k + l]


def _dense_from_cols(cols, nrows):
    M = [[Fraction(0)] * len(cols) for _ in range(nrows)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            M[r][c] = v
    return M


def test_retraction_properties():
    F = [[1, 2, 0], [2, 4, 0]]  # rank 1, m=2, n=3
    G = retraction_for(F)
    P = mat_mul(G, F)
    assert mat_mul(P, P) == P
    # P fixes the pivot column and kills the kernel
    assert mat_vec(P, [1, 0, 0]) == [1, 0, 0]
    for v in nullspace([list(map(Fraction, r)) for r in F]):
        assert all(c == 0 for c in mat_vec(P, v))


@pytest.mark.parametrize("F, G", [
    # the image (1, 1) ends at e_2, so e_1 completes it; a completion by the
    # least-index free standard vector would take e_2 and give G = [[1, 0]]
    ([[1], [1]], [[0, 1]]),
    ([[1, 2], [2, 4], [0, 1]], [[0, Fraction(1, 2), -2], [0, 0, 1]]),
])
def test_retraction_frozen(F, G):
    got = retraction_for(F)
    assert got == tuple(tuple(map(Fraction, row)) for row in G)
    P = mat_mul(got, F)
    assert mat_mul(P, P) == P


@settings(max_examples=20, deadline=None)
@given(int_matrix(2, 3), st.integers(0, 2), st.integers(0, 2))
def test_nonzero_delta_eigenvectors_are_exact(F, k, l):
    n, m = 3, 2
    G = retraction_for(F)
    basis = bigraded_basis(n, m, k, l)
    if not basis:
        return
    cols = operator_columns(lambda x: delta(F, G, x), n, m, (k, l), (k, l))
    M = _dense_from_cols(cols, len(basis))
    for lam in range(1, k + l + 1):
        shifted = [[M[i][j] - (lam if i == j else 0) for j in range(len(basis))]
                   for i in range(len(basis))]
        for vec in nullspace(shifted, ncols=len(basis)):
            eta = PolySuperFunc.zero(n, m)
            for t, c in enumerate(vec):
                if c:
                    eta = eta + mono(n, m, *basis[t], coeff=c)
            if eta.is_zero() or not d_F(F, eta).is_zero():
                continue
            primitive = d_star_G(G, eta).scale(Fraction(1, lam))
            assert d_F(F, primitive) == eta
