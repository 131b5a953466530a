"""Superdifferential forms, the super exterior derivative, and its two routes.

The one structural check that matters most here is the cross-validation:
the operator route (super_d then evaluate) and the Koszul double-sum route
(super_d_by_fields) must agree on every generator tuple.
"""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from superalg.cartan import BigradedElem, twisted_shift_left, twisted_shift_right
from superalg.poly import Poly
from superalg.scalars import IndexSet, MultiDegree, iter_multidegrees
from superalg.sderham import (
    OddConnection,
    SuperForm,
    SuperVectorFieldGen,
    base_d,
    base_wedge,
    bracket_fields,
    cohomology_dims,
    curvature,
    curvature_apply,
    delta_kernel_check,
    delta_printed_apply,
    evaluate,
    field_apply,
    shift_left_plain,
    shift_right_plain,
    super_d,
    super_d_by_fields,
    theta_apply,
    twisted_d,
    twisted_d_end,
)
from superalg.supermaps import PolySuperFunc


def C(m, c):
    return Poly.constant(m, c)


def V(m, i):
    return Poly.variable(m, i)


def mono(m, n, dxs, sym, ext, coeff=1):
    return SuperForm.monomial(m, n, dxs, sym, ext, coeff)


def conn_from(m, n, entries):
    """entries: {(gamma, beta, i): Poly or scalar}"""
    z = Poly.zero(m)
    comps = [[[z] * m for _ in range(n)] for _ in range(n)]
    for (g, b, i), p in entries.items():
        if not isinstance(p, Poly):
            p = Poly.constant(m, p)
        comps[g - 1][b - 1] = list(comps[g - 1][b - 1])
        comps[g - 1][b - 1][i - 1] = p
    return OddConnection(m, n, comps)


# m=2, n=1 abelian connection with nonzero curvature
def abelian_conn():
    return conn_from(2, 1, {(1, 1, 1): V(2, 2)})


# m=2, n=2 with constant and linear matrix entries
def matrix_conn():
    return conn_from(2, 2, {(1, 2, 1): 1, (2, 1, 2): V(2, 1)})


def psx(i):
    return SuperVectorFieldGen("x", i)


def pss(j):
    return SuperVectorFieldGen("s", j)


# ---------------------------------------------------------------- strategies

def polys(m, max_deg=2, max_terms=2):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(m)])
    return st.dictionaries(exps, st.integers(-3, 3), max_size=max_terms).map(
        lambda d: Poly(m, {MultiDegree(e): Fraction(c) for e, c in d.items()}))


def index_subsets(top):
    return st.lists(st.integers(1, top), unique=True, max_size=top).map(
        lambda v: IndexSet(sorted(v)))


@st.composite
def connections(draw, m, n, max_deg=1, max_entries=2):
    entries = draw(st.dictionaries(
        st.tuples(st.integers(1, n), st.integers(1, n), st.integers(1, m)),
        polys(m, max_deg, 2), max_size=max_entries))
    return conn_from(m, n, entries)


@st.composite
def superforms(draw, m, n, max_sym=1, max_terms=2, max_poly_deg=1):
    sym = st.tuples(*[st.integers(0, max_sym) for _ in range(n)]).map(MultiDegree)
    keys = st.tuples(index_subsets(m), sym, index_subsets(n))
    terms = draw(st.dictionaries(keys, polys(m, max_poly_deg, 2), max_size=max_terms))
    return SuperForm(m, n, terms)


@st.composite
def form_monomials(draw, m, n, max_sym=2):
    dxs = draw(index_subsets(m))
    sym = MultiDegree(draw(st.tuples(*[st.integers(0, max_sym) for _ in range(n)])))
    ext = draw(index_subsets(n))
    coeff = draw(polys(m, 1, 1))
    return SuperForm(m, n, {(dxs, sym, ext): coeff})


@st.composite
def homog_forms(draw, m, n, deg, max_terms=2, max_poly_deg=1):
    """Degree-homogeneous forms: every term has |dxs| + sym.total == deg."""
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        a = draw(st.integers(max(0, deg - 2 * n), min(m, deg)))
        dxs = IndexSet(draw(st.sampled_from(list(combinations(range(1, m + 1), a)))))
        sym = draw(st.sampled_from(list(iter_multidegrees(n, deg - a))))
        ext = draw(index_subsets(n))
        p = draw(polys(m, max_poly_deg, 1))
        if (dxs, sym, ext) not in terms:
            terms[(dxs, sym, ext)] = p
    return SuperForm(m, n, terms)


def bare_fields(m, n, count):
    gen = st.one_of(st.tuples(st.just("x"), st.integers(1, m)),
                    st.tuples(st.just("s"), st.integers(1, n)))
    return st.lists(gen, min_size=count, max_size=count).map(
        lambda v: [SuperVectorFieldGen(k, i) for k, i in v])


@st.composite
def sections(draw, m, n, max_deg=1):
    """Bundle-valued 0-forms: one {IndexSet(): Poly} per odd generator."""
    out = []
    for _ in range(n):
        p = draw(polys(m, max_deg, 2))
        out.append({} if p.is_zero() else {IndexSet(): p})
    return out


# ---------------------------------------------------------------- curvature

def test_curvature_zero_connection():
    R = curvature(OddConnection.zero(2, 2))
    assert all(not R[g][b] for g in range(2) for b in range(2))


def test_curvature_constant_on_line_vanishes():
    # no 2-forms in one base variable
    R = curvature(conn_from(1, 2, {(1, 2, 1): 5, (2, 1, 1): V(1, 1)}))
    assert all(not R[g][b] for g in range(2) for b in range(2))


def test_curvature_abelian_frozen():
    R = curvature(abelian_conn())
    assert R[0][0] == {IndexSet((1, 2)): C(2, -1)}


def test_curvature_matrix_frozen():
    # one constant entry and one linear entry in opposite corners
    R = curvature(matrix_conn())
    x1 = V(2, 1)
    key = IndexSet((1, 2))
    assert R[0][0] == {key: x1}
    assert R[0][1] == {}
    assert R[1][0] == {key: C(2, 1)}
    assert R[1][1] == {key: -x1}


# ---------------------------------------------------------------- wedge

def test_wedge_frozen_signs():
    m, n = 2, 2
    dx1 = mono(m, n, (1,), (0, 0), ())
    dx2 = mono(m, n, (2,), (0, 0), ())
    s1 = mono(m, n, (), (1, 0), ())
    e1 = mono(m, n, (), (0, 0), (1,))
    # base one-forms anticommute
    assert dx1.wedge(dx2) == mono(m, n, (1, 2), (0, 0), ())
    assert dx2.wedge(dx1) == mono(m, n, (1, 2), (0, 0), (), -1)
    # sym factors square to the doubled power
    assert s1.wedge(s1) == mono(m, n, (), (2, 0), ())
    # ext factors square to zero
    assert e1.wedge(e1).is_zero()
    # a sym factor crossing a dx picks up a sign
    assert dx1.wedge(s1) == mono(m, n, (1,), (1, 0), ())
    assert s1.wedge(dx1) == mono(m, n, (1,), (1, 0), (), -1)
    # ext crossing a sym factor picks up a sign
    assert e1.wedge(s1) == mono(m, n, (), (1, 0), (1,), -1)
    assert s1.wedge(e1) == mono(m, n, (), (1, 0), (1,))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(form_monomials(2, 2), form_monomials(2, 2))
def test_wedge_supercommutative(w1, w2):
    if w1.is_zero() or w2.is_zero():
        return
    d1, d2 = w1.form_degree(), w2.form_degree()
    p1, p2 = w1.parities()[0], w2.parities()[0]
    sgn = -1 if (d1 * d2 + p1 * p2) % 2 else 1
    assert w1.wedge(w2) == w2.wedge(w1).scale(sgn)
    prod = w1.wedge(w2)
    if not prod.is_zero():
        assert prod.form_degree() == d1 + d2
        assert prod.parities() == [(p1 + p2) % 2]


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(form_monomials(2, 2), form_monomials(2, 2), form_monomials(2, 2))
def test_wedge_associative(w1, w2, w3):
    assert w1.wedge(w2).wedge(w3) == w1.wedge(w2.wedge(w3))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(superforms(2, 2), superforms(2, 2), superforms(2, 2))
def test_wedge_bilinear(w1, w2, w3):
    assert (w1 + w2).wedge(w3) == w1.wedge(w3) + w2.wedge(w3)
    assert w3.wedge(w1 + w2) == w3.wedge(w1) + w3.wedge(w2)


def test_wedge_with_function_is_multiplication():
    f = SuperForm.from_poly(V(2, 1), 2)
    w = mono(2, 2, (1,), (1, 0), (2,))
    assert f.wedge(w) == w.mul_poly(V(2, 1))
    assert w.wedge(f) == w.mul_poly(V(2, 1))


# ---------------------------------------------------------------- twisted d

def test_base_d_squares_to_zero():
    comp = {IndexSet((1,)): V(2, 1) * V(2, 2), IndexSet(): V(2, 2) * V(2, 2)}
    once = base_d(2, comp)
    assert base_d(2, once) == {}


def test_twisted_d_flat_is_plain_d():
    conn = OddConnection.zero(2, 2)
    omega = [{IndexSet(): V(2, 1) * V(2, 2)}, {IndexSet((2,)): V(2, 1)}]
    out = twisted_d(conn, omega)
    assert out == [base_d(2, c) for c in omega]


def test_twisted_d_needs_full_section():
    with pytest.raises(ValueError):
        twisted_d(OddConnection.zero(2, 2), [{}])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(connections(2, 2), sections(2, 2))
def test_twisted_d_square_is_curvature(conn, s):
    lhs = twisted_d(conn, twisted_d(conn, s))
    rhs = curvature_apply(curvature(conn), s)
    assert lhs == rhs


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(connections(2, 2, max_deg=1, max_entries=3))
def test_twisted_derivative_of_curvature_vanishes(conn):
    out = twisted_d_end(conn, curvature(conn))
    assert all(not out[g][b] for g in range(2) for b in range(2))


# ---------------------------------------------------------------- super_d

def test_super_d_of_function_is_differential():
    conn = OddConnection.zero(2, 1)
    f = SuperForm.from_poly(V(2, 1) * V(2, 2), 1)
    out = super_d(conn, f)
    assert out == mono(2, 1, (1,), (0,), ()).mul_poly(V(2, 2)) \
        + mono(2, 1, (2,), (0,), ()).mul_poly(V(2, 1))


def test_super_d_flat_ext_pair_frozen():
    # a two-ext superfunction splits into the two one-slot shifts
    conn = OddConnection.zero(2, 2)
    w = mono(2, 2, (), (0, 0), (1, 2))
    assert super_d(conn, w) == mono(2, 2, (), (1, 0), (2,)) \
        + mono(2, 2, (), (0, 1), (1,), -1)


def test_super_d_curved_sym_frozen():
    # with curvature the sym factor feeds both the connection term and the
    # two-form shift into ext
    conn = abelian_conn()
    w = mono(2, 1, (), (1,), ())
    expected = SuperForm(2, 1, {
        (IndexSet((1,)), MultiDegree((1,)), IndexSet()): -V(2, 2),
        (IndexSet((1, 2)), MultiDegree((0,)), IndexSet((1,))): C(2, -1),
    })
    assert super_d(conn, w) == expected


def test_super_d_dimension_mismatch():
    with pytest.raises(ValueError):
        super_d(OddConnection.zero(2, 1), SuperForm.zero(2, 2))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(superforms(2, 2, max_sym=1, max_terms=2, max_poly_deg=2))
def test_super_d_squared_flat(w):
    conn = OddConnection.zero(2, 2)
    assert super_d(conn, super_d(conn, w)).is_zero()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(connections(2, 2, max_deg=2, max_entries=2),
       superforms(2, 2, max_sym=1, max_terms=2, max_poly_deg=2))
def test_super_d_squared_curved(conn, w):
    assert super_d(conn, super_d(conn, w)).is_zero()


def test_super_d_squared_three_odd_directions():
    conn = conn_from(2, 3, {(1, 2, 1): V(2, 2), (3, 1, 2): 1, (2, 3, 1): V(2, 1)})
    w = mono(2, 3, (1,), (1, 0, 1), (2,)).mul_poly(V(2, 2)) \
        + mono(2, 3, (), (0, 2, 0), (1, 3))
    assert super_d(conn, super_d(conn, w)).is_zero()


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(connections(2, 2), form_monomials(2, 2, max_sym=1), form_monomials(2, 2, max_sym=1))
def test_super_d_graded_leibniz(conn, w1, w2):
    if w1.is_zero() or w2.is_zero():
        return
    sgn = -1 if w1.form_degree() % 2 else 1
    lhs = super_d(conn, w1.wedge(w2))
    rhs = super_d(conn, w1).wedge(w2) + w1.wedge(super_d(conn, w2)).scale(sgn)
    assert lhs == rhs


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(superforms(2, 2, max_sym=2))
def test_super_d_preserves_parity(w):
    conn = matrix_conn()
    out = super_d(conn, w)
    assert set(out.parities()) <= set(w.parities())


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(form_monomials(2, 2, max_sym=2))
def test_super_d_bidegrees_flat(w):
    # with a flat connection only the two adjacent bidegrees appear
    if w.is_zero():
        return
    (a, b), = w.bidegrees()
    out = super_d(OddConnection.zero(2, 2), w)
    assert set(out.bidegrees()) <= {(a + 1, b), (a, b + 1)}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(connections(2, 2), form_monomials(2, 2, max_sym=2))
def test_super_d_bidegrees_curved(conn, w):
    # curvature adds the third component shifting a sym slot under a 2-form
    if w.is_zero():
        return
    (a, b), = w.bidegrees()
    out = super_d(conn, w)
    assert set(out.bidegrees()) <= {(a + 1, b), (a, b + 1), (a + 2, b - 1)}


def test_super_d_curved_witness_moves_two_dx():
    # the bidegree restriction to two components genuinely needs flatness
    out = super_d(abelian_conn(), mono(2, 1, (), (1,), ()))
    assert out.bidegree_part(2, 0) == mono(2, 1, (1, 2), (0,), (1,), -1)


# ---------------------------------------------------------------- evaluate

def test_evaluate_dx_on_coordinate_fields():
    w = mono(2, 1, (1,), (0,), ())
    one = PolySuperFunc.constant(2, 1, 1)
    assert evaluate(w, [psx(1)]) == one
    assert evaluate(w, [psx(2)]) == PolySuperFunc.zero(2, 1)


def test_evaluate_two_form_determinant():
    w = mono(2, 1, (1, 2), (0,), ())
    one = PolySuperFunc.constant(2, 1, 1)
    assert evaluate(w, [psx(1), psx(2)]) == one
    assert evaluate(w, [psx(2), psx(1)]) == -one
    assert evaluate(w, [psx(1), psx(1)]).is_zero()


def test_evaluate_arity_mismatch():
    with pytest.raises(ValueError):
        evaluate(mono(2, 1, (1,), (0,), ()), [psx(1), psx(2)])


def test_evaluate_coefficient_parity_must_be_homogeneous():
    g = PolySuperFunc.constant(2, 2, 1) + PolySuperFunc.odd_generator(2, 2, 1)
    w = mono(2, 2, (1,), (0, 0), ())
    with pytest.raises(ValueError):
        evaluate(w, [SuperVectorFieldGen("x", 1, g)])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(homog_forms(2, 2, 2), bare_fields(2, 2, 2))
def test_evaluate_swap_signs(w, fields):
    """Swapping adjacent odd arguments fixes the value; even-even or
    even-odd swaps negate it."""
    f1, f2 = fields
    val = evaluate(w, [f1, f2])
    swapped = evaluate(w, [f2, f1])
    if f1.bare_parity() and f2.bare_parity():
        assert swapped == val
    else:
        assert swapped == -val


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(homog_forms(2, 2, 2), bare_fields(2, 2, 2),
       st.integers(0, 1), polys(2, 1, 2), st.sampled_from([(), (1,), (2,), (1, 2)]))
def test_evaluate_scalar_extraction(w, fields, slot, p, key):
    """A superfunction coefficient on one argument comes out to the left,
    crossing the parities of the arguments before it."""
    g = PolySuperFunc(2, 2, {(MultiDegree(e), IndexSet(key)): c
                             for e, c in p.terms.items()})
    if g.is_zero():
        return
    decorated = list(fields)
    decorated[slot] = SuperVectorFieldGen(fields[slot].kind, fields[slot].index, g)
    crossed = sum(f.bare_parity() for f in fields[:slot])
    sgn = -1 if (len(key) % 2) and (crossed % 2) else 1
    expected = (g * evaluate(w, fields)).scale(sgn)
    assert evaluate(w, decorated) == expected


def test_evaluate_sym_pairing_through_the_double_sum():
    """Freeze the symmetric-power pairing values by the Koszul route."""
    conn = OddConnection.zero(2, 2)
    # ds1 ds2 in Sym^2 against the two odd generators
    w = mono(2, 2, (), (1, 1), ())
    m1 = PolySuperFunc.constant(2, 2, -1)
    assert evaluate(w, [pss(1), pss(2)]) == m1
    # pinned by d of the mixed sym/ext generator, both routes
    w0 = mono(2, 2, (), (1, 0), (2,))
    fields = [pss(1), pss(2)]
    assert super_d_by_fields(conn, w0, fields) \
        == evaluate(super_d(conn, w0), fields) == PolySuperFunc.constant(2, 2, 1)
    # repeated odd generator against a squared sym factor
    w2 = mono(2, 2, (), (2, 0), ())
    assert evaluate(w2, [pss(1), pss(1)]) == PolySuperFunc.constant(2, 2, -2)
    w02 = mono(2, 2, (), (1, 0), (1,))
    assert super_d_by_fields(conn, w02, [pss(1), pss(1)]) \
        == evaluate(super_d(conn, w02), [pss(1), pss(1)]) \
        == PolySuperFunc.constant(2, 2, 2)


# ---------------------------------------------------------------- fields

def test_field_apply_coordinate_with_connection():
    conn = abelian_conn()
    g = PolySuperFunc.odd_generator(2, 1, 1)
    # the dual connection substitutes into the ext slot with a minus
    out = field_apply(conn, psx(1), g)
    assert out == PolySuperFunc(2, 1, {(MultiDegree((0, 1)), IndexSet((1,))): Fraction(-1)})
    assert field_apply(conn, psx(2), g).is_zero()


def test_field_apply_contraction():
    g = PolySuperFunc.monomial(2, 2, (1, 0), (1, 2))
    out = field_apply(OddConnection.zero(2, 2), pss(2), g)
    assert out == PolySuperFunc.monomial(2, 2, (1, 0), (1,), -1)


def test_field_apply_coefficient_multiplies_left():
    g = PolySuperFunc.odd_generator(2, 2, 2)
    coeff = PolySuperFunc.odd_generator(2, 2, 1)
    f = SuperVectorFieldGen("s", 2, coeff)
    assert field_apply(OddConnection.zero(2, 2), f, g) == coeff


def test_field_apply_index_errors():
    g = PolySuperFunc.constant(2, 1, 1)
    with pytest.raises(ValueError):
        field_apply(OddConnection.zero(2, 1), psx(3), g)
    with pytest.raises(ValueError):
        field_apply(OddConnection.zero(2, 1), pss(2), g)


def test_bracket_odd_odd_vanishes():
    assert bracket_fields(matrix_conn(), pss(1), pss(2)) == []


def test_bracket_coordinate_with_odd_is_covariant_derivative():
    out = bracket_fields(matrix_conn(), psx(1), pss(2))
    assert len(out) == 1 and out[0].kind == "s" and out[0].index == 1
    assert out[0].coeff == PolySuperFunc.constant(2, 2, 1)
    # flipping the order flips the sign
    rev = bracket_fields(matrix_conn(), pss(2), psx(1))
    assert len(rev) == 1 and rev[0].coeff == PolySuperFunc.constant(2, 2, -1)


def test_bracket_two_coordinates_is_curvature_derivation():
    conn = abelian_conn()
    out = bracket_fields(conn, psx(1), psx(2))
    # R = -dx1^dx2 on the single generator, derivation sends s1 to +s1 content
    assert len(out) == 1 and out[0].kind == "s" and out[0].index == 1
    assert out[0].coeff == PolySuperFunc.monomial(2, 1, (0, 0), (1,))
    rev = bracket_fields(conn, psx(2), psx(1))
    assert rev[0].coeff == PolySuperFunc.monomial(2, 1, (0, 0), (1,), -1)


def test_bracket_requires_bare_generators():
    dec = SuperVectorFieldGen("s", 1, PolySuperFunc.constant(2, 1, 2))
    with pytest.raises(ValueError):
        bracket_fields(OddConnection.zero(2, 1), dec, pss(1))


# ------------------------------------------------------- the two d routes

def test_by_fields_zero_form_odd_generator_contracts():
    conn = matrix_conn()
    g = PolySuperFunc.monomial(2, 2, (0, 1), (1, 2))
    w = SuperForm.from_superfunc(g)
    assert super_d_by_fields(conn, w, [pss(1)]) == field_apply(conn, pss(1), g)


def test_by_fields_zero_form_coordinate_is_covariant_derivative():
    conn = matrix_conn()
    g = PolySuperFunc.monomial(2, 2, (1, 0), (2,))
    w = SuperForm.from_superfunc(g)
    assert super_d_by_fields(conn, w, [psx(1)]) == field_apply(conn, psx(1), g)


def test_by_fields_arity_check():
    w = mono(2, 1, (1,), (0,), ())
    with pytest.raises(ValueError):
        super_d_by_fields(OddConnection.zero(2, 1), w, [psx(1)])


def test_by_fields_requires_bare_generators():
    w = mono(2, 1, (1,), (0,), ())
    dec = SuperVectorFieldGen("x", 1, PolySuperFunc.constant(2, 1, 2))
    with pytest.raises(ValueError):
        super_d_by_fields(OddConnection.zero(2, 1), w, [dec, psx(2)])


@settings(max_examples=70, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(st.integers(1, 2).flatmap(
    lambda d: st.tuples(homog_forms(2, 2, d), bare_fields(2, 2, d + 1))))
def test_koszul_sum_matches_operator_route_flat(case):
    w, fields = case
    conn = OddConnection.zero(2, 2)
    assert super_d_by_fields(conn, w, fields) == evaluate(super_d(conn, w), fields)


@settings(max_examples=70, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(connections(2, 2, max_deg=1, max_entries=2),
       st.integers(1, 2).flatmap(
           lambda d: st.tuples(homog_forms(2, 2, d), bare_fields(2, 2, d + 1))))
def test_koszul_sum_matches_operator_route_curved(conn, case):
    w, fields = case
    assert super_d_by_fields(conn, w, fields) == evaluate(super_d(conn, w), fields)


# ------------------------------------------------- shifts and the Delta map

def _to_bigraded(w):
    """Constant-coefficient pure-fiber form as a bigraded tensor element."""
    n = w.dim_odd
    out = BigradedElem.zero(n, n)
    for (dxs, sym, ext), p in w.terms.items():
        assert not dxs
        c = p.terms.get(MultiDegree((0,) * w.dim_base), Fraction(0))
        out = out + BigradedElem.monomial(n, n, sym, ext, c)
    return out


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(st.dictionaries(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)).map(MultiDegree),
              index_subsets(2)),
    st.integers(-3, 3).map(Fraction), max_size=3))
def test_plain_shifts_match_bigraded_identity_shifts(fiber):
    # the fiberwise shifts are the bigraded identity-matrix shifts
    n = 2
    w = SuperForm(1, n, {(IndexSet(), sym, ext): Poly.constant(1, c)
                         for (sym, ext), c in fiber.items()})
    ident = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    assert _to_bigraded(shift_left_plain(w)) == twisted_shift_left(ident, _to_bigraded(w))
    assert _to_bigraded(shift_right_plain(w)) == twisted_shift_right(ident, _to_bigraded(w))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(connections(2, 2, max_deg=1, max_entries=2), form_monomials(2, 2, max_sym=2))
def test_theta_is_the_component_scalar(conn, w):
    if w.is_zero():
        return
    ((_dxs, sym, ext),) = tuple(w.terms)
    lam = sym.total + len(ext)
    assert theta_apply(conn, w) == w.scale(lam)
    assert delta_printed_apply(conn, w).is_zero()


def test_delta_report_flat():
    rep = delta_kernel_check(OddConnection.zero(2, 2), 2, 1)
    assert rep.passed
    assert rep.printed_delta_vanishes
    # pure base forms are exactly the kernel; any sym or ext content is moved
    for comp in rep.components:
        if comp.b == 0 and comp.c == 0:
            assert comp.kernel_dim == comp.dim
        else:
            assert comp.kernel_dim == 0
            assert comp.eigenvalue == comp.b + comp.c > 0


def test_delta_report_curved():
    rep = delta_kernel_check(matrix_conn(), 2, 1)
    assert rep.passed
    assert rep.printed_delta_vanishes
    assert 0 in rep.eigenvalues
    data = json.dumps(rep.as_dict())
    assert "kernel_dim" in data


def test_delta_pure_base_form_in_kernel():
    conn = abelian_conn()
    w = mono(2, 1, (1, 2), (0,), ()).mul_poly(V(2, 1))
    assert theta_apply(conn, w).is_zero()


def test_delta_single_sym_generator_eigenvalue_one():
    conn = abelian_conn()
    w = mono(2, 1, (), (1,), ())
    assert theta_apply(conn, w) == w


# ---------------------------------------------------------------- cohomology

def test_h0_is_constants():
    assert cohomology_dims(OddConnection.zero(1, 1), 0, 3) == 1
    assert cohomology_dims(abelian_conn(), 0, 2) == 1


def test_h1_line_with_one_odd_direction():
    assert cohomology_dims(OddConnection.zero(1, 1), 1, 3) == 0


def test_h1_curved():
    assert cohomology_dims(abelian_conn(), 1, 1) == 0
    assert cohomology_dims(matrix_conn(), 1, 1) == 0


def test_h2_flat():
    assert cohomology_dims(OddConnection.zero(2, 1), 2, 1) == 0


def test_negative_degree_is_zero():
    assert cohomology_dims(OddConnection.zero(1, 1), -1, 2) == 0


# ---------------------------------------------------------------- plumbing

def test_superform_validation():
    with pytest.raises(ValueError):
        SuperForm(2, 1, {(IndexSet((3,)), MultiDegree((0,)), IndexSet()): 1})
    with pytest.raises(ValueError):
        SuperForm(2, 1, {(IndexSet(), MultiDegree((0, 0)), IndexSet()): 1})
    with pytest.raises(ValueError):
        SuperForm(2, 1, {(IndexSet(), MultiDegree((0,)), IndexSet((2,))): 1})
    with pytest.raises(ValueError):
        SuperForm(2, 1, {(IndexSet(), MultiDegree((0,)), IndexSet()): Poly.zero(3)})


def test_superform_degree_bookkeeping():
    w = mono(2, 2, (1,), (1, 0), ()) + mono(2, 2, (), (0, 0), (1,))
    assert w.form_degrees() == [0, 2]
    with pytest.raises(ValueError):
        w.form_degree()
    assert w.bidegrees() == [(0, 0), (1, 1)]
    assert w.bidegree_part(1, 1) == mono(2, 2, (1,), (1, 0), ())
    assert SuperForm.zero(2, 2).form_degree() is None


def test_superfunc_embedding_roundtrip():
    g = PolySuperFunc.monomial(2, 2, (1, 0), (1, 2), 3) + PolySuperFunc.constant(2, 2, 5)
    assert SuperForm.from_superfunc(g).superfunc_part() == g


def test_connection_shape_validation():
    with pytest.raises(ValueError):
        OddConnection(2, 2, [[[Poly.zero(2)] * 2] * 2])
    with pytest.raises(ValueError):
        OddConnection(2, 1, [[[Poly.zero(2)]]])
    with pytest.raises(ValueError):
        OddConnection(2, 1, [[[Poly.zero(1), Poly.zero(1)]]])


def test_connection_flags():
    assert OddConnection.zero(2, 2).is_flat_zero()
    conn = matrix_conn()
    assert not conn.is_flat_zero()
    assert conn.max_degree() == 1
    assert OddConnection.zero(2, 2).max_degree() == -1


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(superforms(2, 2, max_sym=2))
def test_superform_json_roundtrip(w):
    data = json.loads(json.dumps(w.to_json()))
    assert SuperForm.from_json(2, 2, data) == w


def test_superform_json_rejects_malformed():
    with pytest.raises(ValueError):
        SuperForm.from_json(2, 1, {"dxs": []})
    with pytest.raises(ValueError):
        SuperForm.from_json(2, 1, [{"dxs": [], "sym": [0], "ext": []}])
    dup = mono(2, 1, (1,), (0,), ()).to_json() * 2
    with pytest.raises(ValueError):
        SuperForm.from_json(2, 1, dup)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(connections(2, 2, max_deg=2, max_entries=3))
def test_connection_json_roundtrip(conn):
    data = json.loads(json.dumps(conn.to_json()))
    back = OddConnection.from_json(data)
    assert back.comps == conn.comps


def test_connection_json_rejects_malformed():
    with pytest.raises(ValueError):
        OddConnection.from_json([1, 2])
    with pytest.raises(ValueError):
        OddConnection.from_json({"dim_base": 1, "dim_odd": 2, "entries": [[]]})


def test_base_wedge_overlap_drops():
    c1 = {IndexSet((1,)): C(2, 1)}
    assert base_wedge(c1, c1) == {}
