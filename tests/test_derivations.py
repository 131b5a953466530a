from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import apply_DF_sum, leibniz_by_wedges, leibniz_solution_dim
from strat import small_fractions

from superalg.derivations import (
    DerivationClassification,
    SuperDerivation,
    _leibniz,
    apply_classified,
    build_DF,
    classify,
    dimension_of_derivation_space,
    dimension_of_superderivation_space,
    insertion_derivation,
    number_operator,
    reconstruct,
    superbracket,
    ungraded_extend,
)
from superalg.exterior import ExtElem, ExtSpace
from superalg.scalars import EVEN, ODD

V2 = ExtSpace(2)
V3 = ExtSpace(3)
V4 = ExtSpace(4)


def mono(space, *indices, coeff=1):
    return ExtElem.monomial(space, indices, coeff)


@st.composite
def elems(draw, space, parity=None, max_terms=4):
    keys = [k for k in space.basis()
            if parity is None or len(k) % 2 == int(parity)]
    chosen = draw(st.lists(st.sampled_from(keys), max_size=max_terms, unique=True))
    e = ExtElem.zero(space)
    for k in chosen:
        e = e + ExtElem.monomial(space, k, draw(small_fractions()))
    return e


@st.composite
def superderivations(draw, space):
    parity = draw(st.sampled_from([EVEN, ODD]))
    images = [draw(elems(space, parity=(int(parity) + 1) % 2, max_terms=3))
              for _ in range(space.dim)]
    return SuperDerivation(space, parity, images)


def test_extend_insertion_example():
    D = SuperDerivation(V2, ODD, [ExtElem.unit(V2), ExtElem.zero(V2)])
    assert D(mono(V2, 1, 2)) == mono(V2, 2)


def test_extend_number_example():
    N = number_operator(V2)
    assert N(mono(V2, 1, 2)) == mono(V2, 1, 2, coeff=2)
    assert N(ExtElem.unit(V2)).is_zero()


def test_build_df_kills_top_example():
    # n=2, F(dv1)=dv2, F(dv2)=0: both routes give zero on dv1^dv2
    images = [mono(V2, 2), ExtElem.zero(V2)]
    D = build_DF(V2, images)
    assert D(mono(V2, 1, 2)).is_zero()
    assert apply_DF_sum(V2, images, mono(V2, 1, 2)).is_zero()


def test_insertion_derivation_matches_interior_product():
    for space in (V2, V3, V4):
        for nu in range(1, space.dim + 1):
            D = insertion_derivation(space, nu)
            v = [0] * space.dim
            v[nu - 1] = 1
            for key in space.basis():
                a = ExtElem.monomial(space, key)
                assert D(a) == a.insert(v)


def test_parity_invariant_enforced():
    with pytest.raises(ValueError):
        SuperDerivation(V2, ODD, [mono(V2, 1), ExtElem.zero(V2)])
    with pytest.raises(ValueError):
        SuperDerivation(V2, EVEN, [ExtElem.unit(V2), ExtElem.zero(V2)])


@settings(max_examples=120)
@given(superderivations(V3), st.data())
def test_graded_leibniz(D, data):
    a = data.draw(elems(V3, parity=data.draw(st.sampled_from([0, 1]))))
    b = data.draw(elems(V3))
    sign = -1 if (int(D.parity) and not a.parity_part(1).is_zero()) else 1
    assert D(a.wedge(b)) == D(a).wedge(b) + a.wedge(D(b)).scale(sign)


@settings(max_examples=80)
@given(st.data())
def test_build_df_agrees_with_sum_formula(data):
    space = data.draw(st.sampled_from([V2, V3]))
    images = [data.draw(elems(space, parity=1, max_terms=3))
              for _ in range(space.dim)]
    a = data.draw(elems(space))
    assert build_DF(space, images)(a) == apply_DF_sum(space, images, a)


@settings(max_examples=60)
@given(elems(V3))
def test_number_operator_scales_by_degree(a):
    N = number_operator(V3)
    out = N(a)
    for k in range(V3.dim + 1):
        assert out.degree_part(k) == a.degree_part(k).scale(k)


def test_superbracket_examples():
    i1 = insertion_derivation(V2, 1)
    i2 = insertion_derivation(V2, 2)
    br = superbracket(i1, i2)
    assert all(im.is_zero() for im in br.images)
    assert br.parity == EVEN

    N = number_operator(V2)
    assert superbracket(N, i1) == i1.scale(-1)

    D = build_DF(V2, [mono(V2, 2), mono(V2, 1, coeff=3)])
    assert all(im.is_zero() for im in superbracket(D, D).images)


@settings(max_examples=60)
@given(superderivations(V2), superderivations(V2), elems(V2))
def test_superbracket_is_operator_commutator(D1, D2, a):
    sign = -1 if int(D1.parity) * int(D2.parity) else 1
    br = superbracket(D1, D2)
    assert br.parity == D1.parity + D2.parity
    assert br(a) == D1(D2(a)) - D2(D1(a)).scale(sign)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_leibniz_matches_wedge_oracle(data):
    space = ExtSpace(data.draw(st.integers(1, 6), label="dim"))
    parity = data.draw(st.sampled_from([0, 1]), label="parity")
    images = [data.draw(st.one_of(st.just(ExtElem.zero(space)), elems(space, max_terms=3)))
              for _ in range(space.dim)]
    a = data.draw(elems(space), label="a")
    assert _leibniz(space, images, parity, a) == leibniz_by_wedges(space, images, parity, a)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_superbracket_matches_wedge_oracle(data):
    space = ExtSpace(data.draw(st.integers(1, 5), label="dim"))
    D1 = data.draw(superderivations(space), label="D1")
    D2 = data.draw(superderivations(space), label="D2")
    sign = -1 if int(D1.parity) * int(D2.parity) else 1

    def by_wedges(D, x):
        return leibniz_by_wedges(space, D.images, int(D.parity), x)

    want = tuple(by_wedges(D1, by_wedges(D2, g)) - by_wedges(D2, by_wedges(D1, g)).scale(sign)
                 for g in (ExtElem.generator(space, mu) for mu in range(1, space.dim + 1)))
    assert superbracket(D1, D2).images == want


def test_classify_number_operator():
    N = number_operator(V3)
    cls_ = classify(V3, N.images)
    assert list(cls_.f_minus) == [ExtElem.generator(V3, i) for i in (1, 2, 3)]
    assert cls_.eta.is_zero()
    assert reconstruct(cls_) == list(N.images)


def test_classify_multiplication_example():
    # n=3, images dv1 ^ dv_mu: pure even part, eta = 2*dv1, exact roundtrip
    images = [ExtElem.zero(V3), mono(V3, 1, 2), mono(V3, 1, 3)]
    cls_ = classify(V3, images)
    assert all(f.is_zero() for f in cls_.f_minus)
    assert cls_.eta == mono(V3, 1, coeff=2)
    assert reconstruct(cls_) == images


@st.composite
def classifications(draw, space):
    f_minus = [draw(elems(space, parity=1, max_terms=3)) for _ in range(space.dim)]
    eta = draw(elems(space, parity=1, max_terms=3))
    if space.dim % 2 == 1:
        eta = eta - eta.degree_part(space.dim)
    return DerivationClassification(space, f_minus, eta)


@settings(max_examples=100)
@given(st.data())
def test_classify_reconstruct_roundtrip(data):
    space = data.draw(st.sampled_from([V2, V3, V4]))
    cls_ = data.draw(classifications(space))
    assert classify(space, reconstruct(cls_)) == cls_


@settings(max_examples=80)
@given(st.data())
def test_reconstructed_derivation_satisfies_plain_leibniz(data):
    space = data.draw(st.sampled_from([V2, V3, V4]))
    cls_ = data.draw(classifications(space))
    images = reconstruct(cls_)
    a = data.draw(elems(space))
    b = data.draw(elems(space))
    # two application routes agree, and the result is a plain derivation
    assert ungraded_extend(space, images, a) == apply_classified(cls_, a)
    lhs = apply_classified(cls_, a.wedge(b))
    rhs = apply_classified(cls_, a).wedge(b) + a.wedge(apply_classified(cls_, b))
    assert lhs == rhs


def test_dimension_formulas_frozen():
    assert dimension_of_derivation_space(1, "all") == 1
    assert dimension_of_derivation_space(2, "Z") == 4
    assert dimension_of_derivation_space(2, "Z2") == 4
    assert dimension_of_derivation_space(2, "all") == 6
    assert dimension_of_derivation_space(3, "Z") == 9
    assert dimension_of_derivation_space(3, "Z2") == 12
    assert dimension_of_derivation_space(3, "all") == 15
    assert dimension_of_derivation_space(4, "all") == 40
    assert dimension_of_superderivation_space(3) == 24
    with pytest.raises(ValueError):
        dimension_of_derivation_space(2, "N")


def test_dimensions_match_brute_force_small():
    # the 2^n x 2^n Leibniz linear system, solved blind, n <= 3
    for n in (1, 2, 3):
        assert leibniz_solution_dim(n, "plain") == dimension_of_derivation_space(n, "all")
        assert leibniz_solution_dim(n, "Z2") == dimension_of_derivation_space(n, "Z2")
        assert leibniz_solution_dim(n, "Z") == dimension_of_derivation_space(n, "Z")
        sder = leibniz_solution_dim(n, "even") + leibniz_solution_dim(n, "odd")
        assert sder == dimension_of_superderivation_space(n)


def test_json_roundtrip():
    D = SuperDerivation(V2, ODD, [ExtElem.unit(V2) + mono(V2, 1, 2, coeff=Fraction(1, 2)),
                                  ExtElem.zero(V2)])
    blob = D.to_json()
    assert blob == {"parity": "odd",
                    "images": [[{"coeff": "1", "ext": []},
                                {"coeff": "1/2", "ext": [1, 2]}],
                               []]}
    assert SuperDerivation.from_json(V2, blob) == D
    with pytest.raises(ValueError):
        SuperDerivation.from_json(V2, {"parity": "odd"})
