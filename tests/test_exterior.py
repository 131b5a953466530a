from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from strat import small_fractions

from superalg.exterior import ExtElem, ExtSpace, NotInvertibleError
from superalg.scalars import Parity

V3 = ExtSpace(3)
V4 = ExtSpace(4)


def mono(space, idx, c=1):
    return ExtElem.monomial(space, idx, c)


@st.composite
def ext_elems(draw, space, max_terms=4):
    keys = list(space.basis())
    picked = draw(st.lists(st.sampled_from(keys), max_size=max_terms))
    coeffs = draw(st.lists(small_fractions(9, 9),
                           min_size=len(picked), max_size=len(picked)))
    e = ExtElem.zero(space)
    for k, c in zip(picked, coeffs):
        e = e + mono(space, k, c)
    return e


@st.composite
def homogeneous_elems(draw, space, max_terms=3):
    d = draw(st.integers(0, space.dim))
    keys = list(combinations(range(1, space.dim + 1), d))
    picked = draw(st.lists(st.sampled_from(keys), max_size=max_terms))
    coeffs = draw(st.lists(small_fractions(9, 9),
                           min_size=len(picked), max_size=len(picked)))
    e = ExtElem.zero(space)
    for k, c in zip(picked, coeffs):
        e = e + mono(space, k, c)
    return e, d


def test_wedge_examples():
    dv1 = ExtElem.generator(V3, 1)
    dv2 = ExtElem.generator(V3, 2)
    assert dv1.wedge(dv1).is_zero()
    assert dv2.wedge(dv1) == -(dv1.wedge(dv2))
    one = ExtElem.unit(V3)
    assert (one + dv1).wedge(dv2) == dv2 + dv1.wedge(dv2)


def test_space_validation():
    with pytest.raises(ValueError):
        ExtSpace(0)
    with pytest.raises(ValueError):
        ExtSpace(63)
    with pytest.raises(ValueError):
        ExtSpace(2, names=("a",))
    with pytest.raises(ValueError):
        ExtElem.monomial(ExtSpace(2), (3,))
    with pytest.raises(ValueError):
        ExtElem.generator(V3, 1).wedge(ExtElem.generator(V4, 1))


@settings(max_examples=60)
@given(homogeneous_elems(V4), homogeneous_elems(V4))
def test_graded_commutativity_pq(ab, cd):
    a, p = ab
    b, q = cd
    sign = -1 if (p * q) % 2 else 1
    assert a.wedge(b) == b.wedge(a).scale(sign)


@settings(max_examples=40)
@given(ext_elems(V3), ext_elems(V3), ext_elems(V3))
def test_wedge_associative_bilinear(a, b, c):
    assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)
    assert (a + b).wedge(c) == a.wedge(c) + b.wedge(c)


def pairing(alpha, X):
    # <dv_A, v_B> = delta_{A,B} extended bilinearly; X given over the dual basis
    total = Fraction(0)
    for k, v in alpha.terms.items():
        total += v * X.terms.get(k, 0)
    return total


def test_insert_examples():
    a = mono(V3, (1, 2))
    assert a.insert((1, 0, 0)) == mono(V3, (2,))
    assert a.insert((0, 1, 0)) == mono(V3, (1,), -1)
    assert ExtElem.unit(V3).insert((1, 0, 0)).is_zero()


@settings(max_examples=40)
@given(ext_elems(V3), st.lists(small_fractions(5, 5), min_size=3, max_size=3))
def test_insert_is_adjoint_to_wedge(alpha, v):
    # <v ⌟ alpha, X> = <alpha, v ∧ X> for every basis X of the dual side
    v_elem = ExtElem.zero(V3)
    for i, c in enumerate(v, start=1):
        v_elem = v_elem + mono(V3, (i,), c)
    for kX in V3.basis():
        X = mono(V3, kX)
        assert pairing(alpha.insert(v), X) == pairing(alpha, v_elem.wedge(X))


@settings(max_examples=40)
@given(homogeneous_elems(V4), ext_elems(V4),
       st.lists(small_fractions(5, 5), min_size=4, max_size=4))
def test_insert_leibniz_degree_minus_one(ab, b, v):
    a, p = ab
    lhs = a.wedge(b).insert(v)
    rhs = a.insert(v).wedge(b) + a.wedge(b.insert(v)).scale((-1) ** p)
    assert lhs == rhs


def test_augmentation():
    e = ExtElem.unit(V3) + mono(V3, (1, 2))
    assert e.augmentation() == 1
    assert ExtElem.generator(V3, 1).augmentation() == 0
    e = ExtElem.unit(V3, Fraction(3, 2)) - ExtElem.generator(V3, 1)
    assert e.augmentation() == Fraction(3, 2)


@settings(max_examples=40)
@given(ext_elems(V3), ext_elems(V3))
def test_augmentation_multiplicative(a, b):
    assert a.wedge(b).augmentation() == a.augmentation() * b.augmentation()


def test_filtration_degree():
    e = mono(V3, (1, 2)) + mono(V3, (1, 2, 3))
    assert e.filtration_degree() == 2
    assert ExtElem.unit(V3, 5).filtration_degree() == 0
    assert ExtElem.zero(V3).filtration_degree() == 4


@settings(max_examples=40)
@given(ext_elems(V3), ext_elems(V3))
def test_filtration_submultiplicative(a, b):
    assert a.wedge(b).filtration_degree() >= min(
        a.filtration_degree() + b.filtration_degree(), V3.dim + 1)


def test_invert_unit_examples():
    a = ExtElem.unit(V3) + mono(V3, (1, 2))
    assert a.invert_unit() == ExtElem.unit(V3) - mono(V3, (1, 2))
    assert ExtElem.unit(V3, 2).invert_unit() == ExtElem.unit(V3, Fraction(1, 2))
    with pytest.raises(NotInvertibleError):
        ExtElem.generator(V3, 1).invert_unit()


@settings(max_examples=40)
@given(ext_elems(V4))
def test_invert_unit_roundtrip(a):
    one = ExtElem.unit(V4)
    if a.augmentation() == 0:
        with pytest.raises(NotInvertibleError):
            a.invert_unit()
    else:
        b = a.invert_unit()
        assert a.wedge(b) == one
        assert b.wedge(a) == one


def test_basis_counts():
    for n in range(1, 7):
        sp = ExtSpace(n)
        for k in range(n + 1):
            assert len(list(sp.basis(k))) == comb(n, k)
        assert len(list(sp.basis())) == 2 ** n


def test_json_roundtrip():
    e = mono(V3, (1, 3), Fraction(-5, 3)) + ExtElem.unit(V3, 2)
    data = e.to_json()
    assert data == [{"coeff": "2", "ext": []}, {"coeff": "-5/3", "ext": [1, 3]}]
    assert ExtElem.from_json(V3, data) == e
    with pytest.raises(ValueError):
        ExtElem.from_json(V3, [{"coeff": "1"}])
    with pytest.raises(ValueError):
        ExtElem.from_json(V3, "nope")


@pytest.mark.parametrize("bad", [1.7, "1", True, False, 3, -1, None])
def test_parity_part_rejects_non_parities(bad):
    e = mono(V3, (1,), 2) + mono(V3, (1, 2), 3)
    with pytest.raises(ValueError, match="parity"):
        e.parity_part(bad)


def test_parts():
    e = mono(V3, (1,)) + mono(V3, (1, 2), 3) + ExtElem.unit(V3, 7)
    assert e.degree_part(1) == mono(V3, (1,))
    assert e.parity_part(0) == mono(V3, (1, 2), 3) + ExtElem.unit(V3, 7)
    assert e.parity_part(1) == mono(V3, (1,))
    assert e.parity_part(Parity.ODD) == mono(V3, (1,))
    assert e.parity_part(Parity.EVEN) == e.parity_part(0)
    assert e.coeff((1, 2)) == 3
