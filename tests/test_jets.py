from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import factor_through_jet_by_apply, fraction_evaluate, jet_by_composition
from strat import small_fractions

from superalg.jets import (
    PolyDiffOp,
    PolySection,
    commutator,
    detect_order,
    factor_through_jet,
    iterated_commutator,
    jet,
    jet_multidegrees,
    jet_operator,
    nested_commutator,
    principal_symbol,
    symmetrized_covariant_jet,
)
from superalg.linalg import mat_vec
from superalg.poly import Poly, multi_binom
from superalg.scalars import MultiDegree


def p1(expr):
    # tiny builder for one-variable polynomials given as {exp: coeff}
    return Poly(1, {(e,): c for e, c in expr.items()})


X = Poly.variable(1, 1)
ONE1 = Poly.constant(1, 1)


@st.composite
def polys(draw, nvars, max_deg=3):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)]),
        small_fractions(), max_size=4))
    return Poly(nvars, {MultiDegree(k): v for k, v in terms.items()})


@st.composite
def diff_ops(draw, nvars, rank_in=1, rank_out=1, max_order=2, phi=None):
    # along phi the coefficients live on its source ring
    src = nvars if phi is None else phi[0].nvars
    n_terms = draw(st.integers(1, 3))
    terms = {}
    for _ in range(n_terms):
        alpha = MultiDegree(draw(st.tuples(*[st.integers(0, max_order)
                                             for _ in range(nvars)])))
        if sum(alpha) > max_order:
            continue
        terms[alpha] = [[draw(polys(src, max_deg=2)) for _ in range(rank_in)]
                        for _ in range(rank_out)]
    return PolyDiffOp(nvars, rank_in, rank_out, terms, phi=phi)


def test_poly_arithmetic():
    f = p1({2: 1})
    g = p1({1: 2, 0: -1})
    assert (f * g) == p1({3: 2, 2: -1})
    assert f.partial(1) == p1({1: 2})
    assert f.evaluate([Fraction(3)]) == 9
    assert f.compose([g]) == g * g
    assert multi_binom((3, 1), (2, 0)) == 3
    assert multi_binom((1, 0), (2, 0)) == 0
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1})


def test_evaluate_examples():
    half = Fraction(1, 2)
    f = Poly(2, {(2, 0): Fraction(1, 3), (0, 1): -2, (0, 0): Fraction(5, 4)})
    # 1/3 · 1/4 − 2 · 3/2 + 5/4
    assert f.evaluate([-half, Fraction(3, 2)]) == Fraction(-5, 3)
    assert Poly(1, {(3,): 2, (1,): -1}).evaluate([Fraction(-3, 2)]) == Fraction(-21, 4)
    assert Poly.zero(2).evaluate([half, -half]) == 0
    assert Poly.constant(0, Fraction(-7, 3)).evaluate([]) == Fraction(-7, 3)
    assert Poly.zero(0).evaluate(()) == 0
    assert type(f.evaluate([1, 2])) is type(Poly.zero(0).evaluate([])) is Fraction


coords = st.one_of(small_fractions(), st.integers(-4, 4),
                   st.integers(-9, 9).map(lambda n: Fraction(n, 2)))


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_evaluate_matches_fraction_oracle(data):
    nvars = data.draw(st.integers(0, 3), label="nvars")
    f = data.draw(polys(nvars), label="f")
    point = data.draw(st.lists(coords, min_size=nvars, max_size=nvars), label="point")
    assert f.evaluate(point) == fraction_evaluate(f, point)


def test_poly_json_roundtrip():
    f = Poly(2, {(1, 2): Fraction(1, 3), (0, 0): -2})
    blob = f.to_json()
    assert blob == [{"exps": [0, 0], "coeff": "-2"},
                    {"exps": [1, 2], "coeff": "1/3"}]
    assert Poly.from_json(2, blob) == f
    with pytest.raises(ValueError):
        Poly.from_json(1, [{"exps": [1], "coeff": "1"}, {"exps": [1], "coeff": "2"}])


def test_apply_examples():
    d = PolyDiffOp.coordinate_partial(1, 1)
    assert d.apply(PolySection([p1({2: 1})])) == PolySection([p1({1: 2})])
    mult_x = PolyDiffOp.multiplication(X)
    assert mult_x.apply(PolySection([ONE1])) == PolySection([X])
    x_d2 = PolyDiffOp(1, 1, 1, {MultiDegree((2,)): [[X]]})
    assert x_d2.apply(PolySection([p1({3: 1})])) == PolySection([p1({2: 6})])
    with pytest.raises(ValueError):
        d.apply(PolySection([Poly.zero(2)]))


def test_commutator_examples():
    d = PolyDiffOp.coordinate_partial(1, 1)
    assert commutator(d, X) == PolyDiffOp.identity(1, 1)
    d2 = PolyDiffOp(1, 1, 1, {MultiDegree((2,)): [[ONE1]]})
    f, g = p1({2: 1}), p1({3: 1})
    got = iterated_commutator(d2, [f, g])
    want = PolyDiffOp.multiplication((f.partial(1) * g.partial(1)).scale(2))
    assert got == want


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_iterated_commutator_two_routes(data):
    nvars = data.draw(st.integers(1, 2), label="nvars")
    D = data.draw(diff_ops(nvars, max_order=2), label="D")
    k = data.draw(st.integers(1, 4), label="k")
    fs = [data.draw(polys(nvars, max_deg=2), label="f%d" % i) for i in range(k)]
    assert iterated_commutator(D, fs) == nested_commutator(D, fs)


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_iterated_commutator_symmetric(data):
    D = data.draw(diff_ops(1, max_order=2), label="D")
    fs = [data.draw(polys(1), label="f%d" % i) for i in range(3)]
    perm = data.draw(st.permutations(fs), label="perm")
    assert iterated_commutator(D, fs) == iterated_commutator(D, list(perm))


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_order_k_killed_by_k_plus_one(data):
    nvars = data.draw(st.integers(1, 2), label="nvars")
    D = data.draw(diff_ops(nvars, max_order=2), label="D")
    k = max(D.order, 0)
    fs = [data.draw(polys(nvars, max_deg=2), label="f%d" % i) for i in range(k + 1)]
    assert iterated_commutator(D, fs).is_zero()


def test_detect_order_examples():
    assert detect_order(PolyDiffOp.identity(2, 1), 2) == 0
    d1_plus_x2 = PolyDiffOp.coordinate_partial(2, 1) + \
        PolyDiffOp.multiplication(Poly.variable(2, 2))
    assert detect_order(d1_plus_x2, 2) == 1
    d2 = PolyDiffOp(1, 1, 1, {MultiDegree((2,)): [[ONE1]]})
    assert detect_order(d2, 2) == 2
    assert d2.order == 2
    assert detect_order(d2, 1) is None  # cannot certify order 2 with probes of order 1


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_detect_order_matches_structural(data):
    D = data.draw(diff_ops(1, max_order=2), label="D")
    if D.is_zero():
        return
    assert detect_order(D, max(D.order, 1) + 1) == D.order


def test_principal_symbol_examples():
    d2 = PolyDiffOp(1, 1, 1, {MultiDegree((2,)): [[ONE1]]})
    assert principal_symbol(d2, [X, X]) == [[Poly.constant(1, 2)]]
    x2 = p1({2: 1})
    assert principal_symbol(d2, [X, x2]) == [[p1({1: 4})]]
    assert principal_symbol(d2, [x2, X]) == [[p1({1: 4})]]
    with pytest.raises(ValueError):
        principal_symbol(d2, [X])


def test_jet_examples():
    s = PolySection([p1({3: 1})])
    assert jet(s, 2, [0]).coefficients() == [0, 0, 0]
    s2 = PolySection([p1({2: 1})])
    # the 1-jet of x² at 1 is the tangent line 2x − 1: value 1, slope 2
    assert jet(s2, 1, [1]).coefficients() == [1, 2]
    const = PolySection([Poly.constant(1, Fraction(7, 2))])
    for k in range(3):
        assert jet(const, k, [5]).coefficients() == [Fraction(7, 2)] + [0] * k
    # a jet of order at least the degree keeps every Taylor coefficient
    assert jet(s2, 3, [1]).coefficients() == [1, 2, 1, 0]
    assert jet(s2, 3, [1]) == jet(s2, 3, [Fraction(1)])
    assert jet(s2, 3, [1]) != jet(s2, 2, [1])
    # rank 2 in two variables: the rank index runs inside each multidegree
    sec = PolySection([Poly(2, {(1, 1): 1}), Poly(2, {(0, 1): 3})])
    assert jet(sec, 1, [2, Fraction(1, 2)]).coefficients() == [
        1, Fraction(3, 2), 2, 3, Fraction(1, 2), 0]
    with pytest.raises(ValueError):
        jet(s2, 1, [1, 2])


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_jet_matches_composition_oracle(data):
    nvars = data.draw(st.integers(1, 3), label="nvars")
    rank = data.draw(st.integers(1, 2), label="rank")
    s = PolySection([data.draw(polys(nvars), label="s%d" % j) for j in range(rank)])
    k = data.draw(st.integers(0, 4), label="k")
    point = [data.draw(small_fractions(), label="p%d" % i) for i in range(nvars)]
    assert jet(s, k, point).coefficients() == jet_by_composition(s, k, point)


@given(s=polys(2, max_deg=3), k=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_jet_prolongation_realizes_jet_coefficients(s, k):
    p = [Fraction(1), Fraction(-2)]
    sec = PolySection([s])
    op = jet_operator(2, 1, k)
    assert op.order == k
    assert op.apply(sec).evaluate(p) == jet(sec, k, p).coefficients()


def test_jet_prolongation_is_differential_operator_of_its_order():
    op = jet_operator(1, 1, 2)
    fs = [p1({1: 1, 0: 3}), p1({2: 1}), p1({1: -2})]
    assert iterated_commutator(op, fs).is_zero()
    assert not iterated_commutator(op, fs[:2]).is_zero()


def test_factor_through_jet_examples():
    ident = PolyDiffOp.identity(1, 1)
    mat = factor_through_jet(ident, 2, [0])
    assert mat == [[1, 0, 0]]
    d = PolyDiffOp.coordinate_partial(1, 1)
    assert factor_through_jet(d, 2, [0]) == [[0, 1, 0]]
    with pytest.raises(ValueError):
        factor_through_jet(PolyDiffOp(1, 1, 1, {MultiDegree((2,)): [[ONE1]]}), 1, [0])


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_factor_through_jet_property(data):
    nvars = data.draw(st.integers(1, 2), label="nvars")
    D = data.draw(diff_ops(nvars, max_order=2), label="D")
    s = PolySection([data.draw(polys(nvars, max_deg=3), label="s")])
    point = [Fraction(data.draw(st.integers(-3, 3), label="p%d" % i))
             for i in range(nvars)]
    mat = factor_through_jet(D, 2, point)
    coeffs = jet(s, 2, point).coefficients()
    assert D.apply(s).evaluate(point) == mat_vec(mat, coeffs)


X1X2 = Poly(2, {(1, 1): 1})


# a point with one coordinate is refused before any work, for the zero
# operator too: the source has two, also along φ = x1·x2 into ℝ¹; at (1, 2)
# the matrix is β!·P_β(1, 2) at column β
@pytest.mark.parametrize("D, hat", [
    (PolyDiffOp.zero(2, 1, 1), [[0, 0, 0]]),
    (PolyDiffOp.coordinate_partial(2, 1), [[0, 0, 1]]),
    (PolyDiffOp(1, 1, 1, phi=[X1X2]), [[0, 0]]),
    (PolyDiffOp(1, 1, 1, {(1,): [[Poly.variable(2, 2)]]}, phi=[X1X2]), [[0, 2]]),
], ids=["zero", "partial", "zero-along-a-map", "along-a-map"])
def test_factor_through_jet_needs_a_source_point(D, hat):
    with pytest.raises(ValueError, match="point needs 2 coordinates"):
        factor_through_jet(D, 1, [1])
    assert factor_through_jet(D, 1, [1, 2]) == hat


# the zero operator, multidegrees missing from D (order 1 read at k = 3),
# rank_in != rank_out, fraction points, and a negative half-integer point
# shared by entries of degrees 0 to 3
@pytest.mark.parametrize("D, k, point", [
    (PolyDiffOp.zero(2, 2, 1), 2, [Fraction(1, 2), 3]),
    (PolyDiffOp.coordinate_partial(1, 1), 3, [Fraction(-5, 3)]),
    (PolyDiffOp(2, 1, 2, {(0, 1): [[Poly.variable(2, 1)], [Poly.constant(2, 2)]]}),
     2, [Fraction(7, 4), Fraction(-1, 2)]),
    (PolyDiffOp(1, 2, 1, {(2,): [[p1({1: 1}), p1({0: 3})]]}), 2, [Fraction(2, 3)]),
    (PolyDiffOp(2, 1, 1, {(0, 0): [[Poly(2, {(2, 1): 1, (0, 0): Fraction(-1, 3)})]],
                          (1, 0): [[Poly(2, {(0, 1): 2})]],
                          (0, 2): [[Poly.constant(2, 5)]]}),
     2, [Fraction(-3, 2), Fraction(-1, 2)]),
])
def test_factor_through_jet_matches_apply_examples(D, k, point):
    assert factor_through_jet(D, k, point) == factor_through_jet_by_apply(D, k, point)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_factor_through_jet_matches_apply_oracle(data):
    nvars = data.draw(st.integers(1, 3), label="nvars")
    rank_in = data.draw(st.integers(1, 2), label="rank_in")
    rank_out = data.draw(st.integers(1, 2), label="rank_out")
    D = data.draw(st.one_of(st.just(PolyDiffOp.zero(nvars, rank_in, rank_out)),
                            diff_ops(nvars, rank_in, rank_out, max_order=3)), label="D")
    k = max(D.order, 0) + data.draw(st.integers(0, 2), label="excess")
    point = [data.draw(small_fractions(), label="p%d" % i) for i in range(nvars)]
    hat = factor_through_jet(D, k, point)
    assert hat == factor_through_jet_by_apply(D, k, point)
    assert len(hat) == rank_out
    assert all(len(row) == len(jet_multidegrees(nvars, k)) * rank_in for row in hat)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_factor_through_jet_matches_apply_oracle_along_a_map(data):
    m = data.draw(st.integers(1, 2), label="source nvars")
    n = data.draw(st.integers(1, 2), label="target nvars")
    rank_in = data.draw(st.integers(1, 2), label="rank_in")
    rank_out = data.draw(st.integers(1, 2), label="rank_out")
    phi = [data.draw(polys(m, max_deg=2), label="phi%d" % i) for i in range(n)]
    D = data.draw(diff_ops(n, rank_in, rank_out, max_order=2, phi=phi), label="D")
    k = max(D.order, 0) + data.draw(st.integers(0, 1), label="excess")
    point = [data.draw(small_fractions(), label="p%d" % i) for i in range(m)]
    assert factor_through_jet(D, k, point) == factor_through_jet_by_apply(D, k, point)


def test_apply_oracle_along_a_map_expands_at_the_image_point():
    # D(s)(p) = s(φ(p)) = s(2) at p = (1, 2): of the 1-jet (s(2), s'(2)) at
    # φ(p) only the value counts
    D = PolyDiffOp.pullback([X1X2])
    assert factor_through_jet(D, 1, [1, 2]) == [[1, 0]]
    assert factor_through_jet_by_apply(D, 1, [1, 2]) == [[1, 0]]


def test_shared_jet_basis_gives_the_same_results():
    # jet-factor builds the basis once and passes it to every call
    D = PolyDiffOp(2, 1, 2, {(0, 1): [[Poly.variable(2, 1)], [Poly.constant(2, 2)]],
                             (2, 0): [[Poly.constant(2, -1)], [Poly.variable(2, 2)]]})
    sections = [PolySection([Poly(2, {(3, 1): 2, (0, 2): Fraction(-1, 3)})]),
                PolySection([Poly.variable(2, 2)])]
    basis = jet_multidegrees(2, 3)
    for point in ([Fraction(7, 4), Fraction(-1, 2)], [0, 2]):
        assert factor_through_jet(D, 3, point, basis) == factor_through_jet(D, 3, point)
        for s in sections:
            assert jet(s, 3, point, basis) == jet(s, 3, point)
    assert basis == jet_multidegrees(2, 3)


def test_symmetrized_jet_flat_examples():
    m = 2
    zero = Poly.zero(m)
    A = [[[zero]], [[zero]]]  # rank 1, two coordinates
    s = PolySection([Poly(m, {(1, 1): 1})])  # x1 x2
    grad = symmetrized_covariant_jet(s, 1, A)
    assert grad[(1,)] == PolySection([Poly.variable(m, 2)])
    assert grad[(2,)] == PolySection([Poly.variable(m, 1)])
    hess = symmetrized_covariant_jet(s, 2, A)
    assert hess[(1, 2)] == PolySection([Poly.constant(m, 1)])
    assert hess[(1, 1)].is_zero()


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_symmetrized_jet_symmetric_with_connection(data):
    m, r = 2, 2
    A = [[[data.draw(polys(m, max_deg=1), label="A%d%d%d" % (i, a, b))
           for b in range(r)] for a in range(r)] for i in range(m)]
    s = PolySection([data.draw(polys(m, max_deg=2), label="s%d" % j)
                     for j in range(r)])
    J = symmetrized_covariant_jet(s, 2, A)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            assert J[(i, j)] == J[(j, i)]


def test_operator_along_examples():
    # φ: ℝ¹ → ℝ¹, φ(x) = x²
    phi = [p1({2: 1})]
    pull = PolyDiffOp.pullback(phi)
    y = Poly.variable(1, 1)
    assert commutator(pull, y).is_zero()
    assert pull.apply(PolySection([p1({1: 1, 0: 1})])) == PolySection([p1({2: 1, 0: 1})])
    d_pull = PolyDiffOp(1, 1, 1, {MultiDegree((1,)): [[ONE1]]}, phi=phi)
    got = commutator(d_pull, y)
    assert got.terms == PolyDiffOp.pullback(phi).terms  # multiplication by dy/dy ∘ φ = 1
    nested = commutator(commutator(d_pull, y), y)
    assert nested.is_zero()
    # φ: ℝ² → ℝ¹, φ(x) = x1·x2; a vanishing symbol is a zero matrix on the source ring
    x1x2 = Poly(2, {(1, 1): 1})
    d_along = PolyDiffOp(1, 1, 1, {MultiDegree((1,)): [[Poly.constant(2, 1)]]}, phi=[x1x2])
    assert principal_symbol(d_along, [ONE1]) == [[Poly.zero(2)]]
    assert principal_symbol(d_along, [y]) == [[Poly.constant(2, 1)]]


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_operator_along_annihilation(data):
    m = data.draw(st.integers(1, 2), label="source nvars")
    n = data.draw(st.integers(1, 2), label="target nvars")
    phi = [data.draw(polys(m, max_deg=2), label="phi%d" % i) for i in range(n)]
    Phi = data.draw(diff_ops(n, max_order=2, phi=phi), label="Phi")
    k = max(Phi.order, 0)
    fs = [data.draw(polys(n, max_deg=2), label="f%d" % i) for i in range(k + 1)]
    assert iterated_commutator(Phi, fs[:k]) == nested_commutator(Phi, fs[:k])
    assert iterated_commutator(Phi, fs).is_zero()
    assert nested_commutator(Phi, fs).is_zero()
    # [Φ,f](η) = Φ(f·η) − (f∘φ)·Φ(η) pointwise on a section
    f = fs[0]
    eta = PolySection([data.draw(polys(n, max_deg=3), label="eta")])
    assert commutator(Phi, f).apply(eta) == Phi.apply(PolySection([f * eta.polys[0]])) - \
        PolySection([f.compose(phi) * q for q in Phi.apply(eta).polys])


def test_operator_along_is_twisted_commutator():
    # [Φ,f](η) = Φ(f·η) − (f∘φ)·Φ(η) checked pointwise on sections
    phi = [p1({2: 1, 0: 1})]
    Phi = PolyDiffOp(1, 1, 1, {MultiDegree((1,)): [[X]], MultiDegree((0,)): [[ONE1]]},
                     phi=phi)
    f = p1({1: 3})
    eta = PolySection([p1({2: 1, 1: -1})])
    direct = commutator(Phi, f).apply(eta)
    f_eta = PolySection([f * eta.polys[0]])
    f_pulled = f.compose(phi)
    assert direct == Phi.apply(f_eta) - PolySection(
        [f_pulled * q for q in Phi.apply(eta).polys])


def test_identity_map_written_out_is_no_map():
    # φ = (x_1, …, x_n) is the identity, so operators along it are the plain ones
    pull = PolyDiffOp.pullback([X])
    assert pull.phi is None
    assert pull == PolyDiffOp.identity(1, 1)
    assert pull + PolyDiffOp.identity(1, 1) == PolyDiffOp.multiplication(Poly.constant(1, 2))
    coords = [Poly.variable(2, 1), Poly.variable(2, 2)]
    d = PolyDiffOp.coordinate_partial(2, 1)
    alpha = MultiDegree((1, 0))
    assert PolyDiffOp(2, 1, 1, {alpha: d.matrix(alpha)}, phi=coords) == d
    # swapped coordinates are a map, and one on a larger source ring too
    assert PolyDiffOp(2, 1, 1, {alpha: d.matrix(alpha)}, phi=coords[::-1]).phi is not None
    assert PolyDiffOp.pullback([Poly.variable(2, 1)]).phi is not None


@pytest.mark.parametrize("build", [
    lambda: PolyDiffOp(2, 1, 1, phi=[X]),
    lambda: PolyDiffOp(0, 1, 1, phi=[]),
    lambda: PolyDiffOp(2, 1, 1, phi=[X, Poly.variable(2, 1)]),
    lambda: PolyDiffOp(1, 1, 1, {MultiDegree((1,)): [[X]]}, phi=[Poly.variable(2, 1)]),
    lambda: PolyDiffOp(1, 1, 1, {MultiDegree((0,)): [[Poly.variable(2, 2)]]}),
    lambda: PolyDiffOp.pullback([X * X]) + PolyDiffOp.identity(1, 1),
    lambda: PolyDiffOp.pullback([X * X]) + PolyDiffOp.pullback([X]),
    lambda: PolyDiffOp.pullback([X * X]) == PolyDiffOp.identity(1, 1),
    lambda: PolyDiffOp.pullback([X * X]) == PolyDiffOp.pullback([X * X * X]),
    lambda: PolyDiffOp.pullback([X * X]).to_json(),
], ids=["map-too-short", "map-empty", "map-rings-differ", "coefficient-off-source",
        "coefficient-off-base", "add-along-and-identity", "add-along-two-maps",
        "eq-along-and-identity", "eq-along-two-maps", "json-along-a-map"])
def test_operator_along_rejections(build):
    with pytest.raises(ValueError):
        build()


def test_diff_op_json_roundtrip():
    D = PolyDiffOp(2, 1, 2, {
        MultiDegree((1, 0)): [[Poly.variable(2, 2)], [Poly.zero(2)]],
        MultiDegree((0, 0)): [[Poly.constant(2, Fraction(1, 2))], [Poly.zero(2)]],
    })
    blob = D.to_json()
    assert blob == [
        {"alpha": [0, 0], "matrix": [[[{"exps": [0, 0], "coeff": "1/2"}]], [[]]]},
        {"alpha": [1, 0], "matrix": [[[{"exps": [0, 1], "coeff": "1"}]], [[]]]},
    ]
    assert PolyDiffOp.from_json(2, 1, 2, blob) == D
    with pytest.raises(ValueError):
        PolyDiffOp.from_json(2, 1, 2, [{"alpha": [0, 0]}])
    with pytest.raises(ValueError):
        PolyDiffOp.from_json(2, 1, 2, blob + blob[:1])


def test_jet_multidegree_order():
    assert jet_multidegrees(2, 2) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
