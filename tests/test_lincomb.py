"""The shared linear-combination base and the exterior-monomial sign rules."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from superalg.cartan import BigradedElem
from superalg.exterior import ExtElem, ExtSpace
from superalg.lincomb import LinComb, contract, merge_sign, replace
from superalg.poly import Poly
from superalg.scalars import IndexSet, MultiDegree, inversion_sign
from superalg.sderham import SuperForm
from superalg.straighten import CompElem, PolyCompElem
from superalg.supermaps import PolySuperFunc
from superalg.supertensor import SuperExtElem, SuperSpace, SuperSymElem

# one element in each of two ambient spaces that differ in one dimension
ELEMENTS = {
    "Poly": lambda d: Poly.variable(d, 1).scale(Fraction(3, 2)),
    "ExtElem": lambda d: ExtElem.monomial(ExtSpace(d), (1, 2), -2),
    "CompElem": lambda d: CompElem.monomial(d, (1, 2), 2, Fraction(1, 3)),
    "PolyCompElem": lambda d: PolyCompElem(d, 2, {((1,) + (0,) * (d - 1), (1,), 2): 5}),
    "PolySuperFunc": lambda d: PolySuperFunc.monomial(1, d, (2,), (1, 2), -1),
    "BigradedElem": lambda d: BigradedElem.monomial(d, 2, (1,) * d, (2,), 4),
    "SuperSymElem": lambda d: SuperSymElem(SuperSpace(d, 2), {((1,) * d, (1, 2)): 7}),
    "SuperExtElem": lambda d: SuperExtElem(SuperSpace(2, d), {((1, 2), (1,) * d): 7}),
    "SuperForm": lambda d: SuperForm.monomial(d, 1, (1,), (1,), (1,), Poly.variable(d, 1)),
}


@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_mismatched_operands_raise(name):
    make = ELEMENTS[name]
    x, y = make(2), make(3)
    assert isinstance(x, LinComb) and not hasattr(x, "__dict__")
    for op in (lambda: x + y, lambda: x - y, lambda: x == y, lambda: y + x):
        with pytest.raises(ValueError):
            op()
    # an element of another class is refused too
    other = ELEMENTS["ExtElem" if name == "Poly" else "Poly"](2)
    with pytest.raises(ValueError):
        x + other
    assert x != other


@pytest.mark.parametrize("name", sorted(ELEMENTS))
def test_linear_plumbing(name):
    x = ELEMENTS[name](2)
    assert (x - x).is_zero() and (x + (-x)).is_zero()
    assert x.scale(0).is_zero() and x.scale(0) == x - x
    assert 2 * x == x + x == x.scale(2)
    assert x == x.scale(Fraction(1, 3)).scale(3) and x != x.scale(-1)
    assert x.__hash__ is None


key_sets = st.sets(st.integers(1, 8), max_size=6).map(lambda s: tuple(sorted(s)))


@given(key_sets, key_sets)
def test_merge_sign_matches_inversion_count(a, b):
    key, sign = merge_sign(a, b)
    if set(a) & set(b):
        assert (key, sign) == (None, 0)
    else:
        assert type(key) is IndexSet and key == tuple(sorted(a + b))
        assert sign == inversion_sign(a + b)


@given(key_sets, st.integers(1, 8), st.integers(1, 8))
def test_contract_and_replace_undo_a_front_wedge(key, i, j):
    rest, sign = contract(key, i)
    if i not in key:
        assert (rest, sign) == (None, 0)
        assert replace(key, i, j) == (None, 0)
        return
    # key = sign * (i ∧ rest), read off the reordering of (i,) + rest
    assert rest == tuple(x for x in key if x != i)
    assert sign == inversion_sign((i,) + rest)
    new, s = replace(key, i, j)
    if j in rest:
        assert (new, s) == (None, 0)
    else:
        assert new == tuple(sorted(rest + (j,)))
        assert s == sign * inversion_sign((j,) + rest)


@pytest.mark.parametrize("make", [
    lambda: IndexSet((True, 2)),
    lambda: IndexSet((1, 2.0)),
    lambda: IndexSet(("1",)),
    lambda: MultiDegree((1.5,)),
    lambda: MultiDegree((False, 1)),
    lambda: PolySuperFunc.monomial(1, 0, (1.5,), ()),
    lambda: Poly.monomial(1, (True,)),
], ids=["bool-index", "float-index", "string-index", "float-exponent",
        "bool-exponent", "superfunc-float-exponent", "poly-bool-exponent"])
def test_keys_reject_non_integers(make):
    with pytest.raises(ValueError, match="integers"):
        make()
