from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from superalg.scalars import EVEN, ODD, Permutation, sym_dim
from superalg.supermaps import PolySuperFunc
from superalg.supertensor import (
    SuperSpace,
    TensorWord,
    act_alt,
    act_sym,
    normalize_superext,
    normalize_supersym,
    odd_signature,
    super_insert,
    superext_basis,
    supersym_basis,
    tensor_from_json,
    tensor_to_json,
)

SP = SuperSpace(2, 2)


def sym_elem(terms):
    # Sym(V0|V1): Sym factor on the evens, Λ factor on the odds
    return PolySuperFunc(SP.even_dim, SP.odd_dim, terms)


def ext_elem(terms, space=SP):
    # Λ(V0|V1): Sym factor on the odds, Λ factor on the evens
    return PolySuperFunc(space.odd_dim, space.even_dim, terms)


def parity_part(x, p):
    # the terms whose Λ degree has parity p
    return sum((x.degree_part(r) for r in range(p, x.odd_dim + 1, 2)), x.scale(0))


def word(*factors, coeff=1, space=SP):
    return TensorWord(space, factors, coeff)


@st.composite
def words(draw, space=SP, max_rank=5):
    k = draw(st.integers(0, max_rank))
    factors = []
    for _ in range(k):
        p = draw(st.sampled_from([EVEN, ODD]))
        dim = space.odd_dim if p else space.even_dim
        factors.append((p, draw(st.integers(1, dim))))
    c = draw(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
    return TensorWord(space, factors, c)


@st.composite
def word_with_two_perms(draw):
    w = draw(words())
    images = list(range(1, w.rank + 1))
    sigma = Permutation(draw(st.permutations(images)))
    tau = Permutation(draw(st.permutations(images)))
    return w, sigma, tau


def test_odd_signature_examples():
    swap = Permutation((2, 1))
    assert odd_signature(swap, word((EVEN, 1), (EVEN, 2))) == 1
    assert odd_signature(swap, word((ODD, 1), (ODD, 2))) == -1
    assert odd_signature(swap, word((EVEN, 1), (ODD, 1))) == 1
    with pytest.raises(ValueError):
        odd_signature(Permutation((1, 2, 3)), word((EVEN, 1)))


def test_act_examples():
    swap = Permutation((2, 1))
    w = word((ODD, 1), (ODD, 2))
    assert act_sym(swap, w) == word((ODD, 2), (ODD, 1), coeff=-1)
    assert act_alt(swap, w) == word((ODD, 2), (ODD, 1), coeff=1)
    we = word((EVEN, 1), (EVEN, 2))
    assert act_sym(swap, we) == word((EVEN, 2), (EVEN, 1))
    assert act_alt(swap, we) == word((EVEN, 2), (EVEN, 1), coeff=-1)
    ident = Permutation.identity(2)
    assert act_sym(ident, w) == w and act_alt(ident, w) == w


@settings(max_examples=80)
@given(word_with_two_perms())
def test_twisted_actions_are_group_actions(wst):
    w, sigma, tau = wst
    assert act_sym(sigma.compose(tau), w) == act_sym(sigma, act_sym(tau, w))
    assert act_alt(sigma.compose(tau), w) == act_alt(sigma, act_alt(tau, w))


@settings(max_examples=60)
@given(word_with_two_perms())
def test_actions_descend_to_quotients(wst):
    w, sigma, _ = wst
    assert normalize_supersym(act_sym(sigma, w)) == normalize_supersym(w)
    assert normalize_superext(act_alt(sigma, w)) == normalize_superext(w)


def test_normalize_supersym_examples():
    got = normalize_supersym(word((ODD, 1), (EVEN, 1)))
    assert got == sym_elem({((1, 0), (1,)): 1})
    got = normalize_supersym(word((ODD, 2), (ODD, 1)))
    assert got == sym_elem({((0, 0), (1, 2)): -1})
    assert normalize_supersym(word((ODD, 1), (ODD, 1))).is_zero()


def test_normalize_superext_examples():
    assert normalize_superext(word((EVEN, 1), (EVEN, 1))).is_zero()
    got = normalize_superext(word((ODD, 2), (ODD, 1)))
    assert got == ext_elem({((1, 1), ()): 1})
    got = normalize_superext(word((EVEN, 2), (EVEN, 1)))
    assert got == ext_elem({((0, 0), (1, 2)): -1})
    # an odd factor crossing an even one carries the alternating sign
    got = normalize_superext(word((ODD, 1), (EVEN, 1)))
    assert got == ext_elem({((1, 0), (1,)): -1})


def enumerate_normal_span(space, k, normalize):
    keys = set()
    gens = [(EVEN, i) for i in range(1, space.even_dim + 1)]
    gens += [(ODD, i) for i in range(1, space.odd_dim + 1)]
    for combo in product(gens, repeat=k):
        e = normalize(TensorWord(space, combo))
        keys.update(e.terms)
    return keys


def test_dimension_formulas_by_enumeration():
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        space = SuperSpace(p, q)
        for k in range(5):
            sym_keys = enumerate_normal_span(space, k, normalize_supersym)
            want = sum(sym_dim(p, a) * comb(q, k - a) for a in range(k + 1))
            assert len(sym_keys) == want
            assert sym_keys == set(supersym_basis(space, k))
            ext_keys = enumerate_normal_span(space, k, normalize_superext)
            want = sum(comb(p, a) * sym_dim(q, k - a) for a in range(k + 1))
            assert len(ext_keys) == want
            assert ext_keys == set(superext_basis(space, k))


def test_super_wedge_examples():
    xi1 = ext_elem({((0, 0), (1,)): 1})
    xi2 = ext_elem({((0, 0), (2,)): 1})
    s1 = ext_elem({((1, 0), ()): 1})
    assert xi1 * xi2 == ext_elem({((0, 0), (1, 2)): 1})
    assert xi1 * s1 * s1 == ext_elem({((2, 0), (1,)): 1})
    assert (xi1 * xi1).is_zero()


@st.composite
def superext_elems(draw, space=SP, max_terms=3, max_sym=2):
    keys = []
    for k in range(4):
        keys.extend(superext_basis(space, k))
    keys = [key for key in keys if sum(key[0]) <= max_sym]
    picked = draw(st.lists(st.sampled_from(keys), max_size=max_terms))
    terms = {}
    for key in picked:
        terms[key] = terms.get(key, 0) + draw(
            st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3)))
    return ext_elem(terms, space)


def term_of(elem):
    # single-term elements only, for homogeneous tests
    [(key, c)] = elem.terms.items()
    return key, c


@settings(max_examples=60)
@given(superext_elems(), superext_elems(), superext_elems())
def test_super_wedge_associative(a, b, c):
    assert a * (b * c) == (a * b) * c


@settings(max_examples=60)
@given(superext_elems(), superext_elems())
def test_super_wedge_graded_commutative_in_lambda_parity(a, b):
    for pa in (0, 1):
        for pb in (0, 1):
            x, y = parity_part(a, pa), parity_part(b, pb)
            sign = -1 if pa * pb else 1
            assert x * y == (y * x).scale(sign)


def test_super_insert_examples():
    xi12 = ext_elem({((0, 0), (1, 2)): 1})
    assert super_insert(EVEN, (1, 0), xi12) == ext_elem({((0, 0), (2,)): 1})
    assert super_insert(EVEN, (0, 1), xi12) == ext_elem({((0, 0), (1,)): -1})
    sq = ext_elem({((2, 0), ()): 1})
    assert super_insert(ODD, (1, 0), sq) == ext_elem({((1, 0), ()): 2})
    assert super_insert(ODD, (1, 0), PolySuperFunc.unit(2, 2)).is_zero()
    with pytest.raises(ValueError):
        super_insert(EVEN, (1,), xi12)


@settings(max_examples=60)
@given(superext_elems(), superext_elems(), st.data())
def test_super_insert_rule_of_signs(a, b, data):
    # graded Leibniz with the operator parity: an even vector contracts the
    # Λ factor (odd operator), an odd vector differentiates Sym (even operator)
    parity = data.draw(st.sampled_from([EVEN, ODD]))
    dim = SP.odd_dim if parity else SP.even_dim
    v = [data.draw(st.integers(-3, 3)) for _ in range(dim)]
    op_parity = 1 - int(parity)
    for pa in (0, 1):
        x = parity_part(a, pa)
        lhs = super_insert(parity, v, x * b)
        sign = -1 if op_parity * pa else 1
        rhs = super_insert(parity, v, x) * b + (x * super_insert(parity, v, b)).scale(sign)
        assert lhs == rhs


def test_json_roundtrips():
    e = sym_elem({((2, 0), (1,)): Fraction(3, 2)})
    data = tensor_to_json("sym", e)
    assert data == [{"coeff": "3/2", "even": [1, 1], "odd": [1]}]
    assert tensor_from_json("sym", SP, data) == e

    f = ext_elem({((0, 2), (1,)): Fraction(-1, 3)})
    data = tensor_to_json("ext", f)
    assert data == [{"coeff": "-1/3", "even": [1], "odd": [2, 2]}]
    assert tensor_from_json("ext", SP, data) == f
    # terms of one degree sort by the even half of the key, then the odd half
    g = sym_elem({((0, 1), (2,)): 1, ((1, 0), (1,)): 2})
    assert [t["coeff"] for t in tensor_to_json("sym", g)] == ["1", "2"]
    h = ext_elem({((1, 0), (1,)): 1, ((0, 1), (2,)): 2})
    assert [t["coeff"] for t in tensor_to_json("ext", h)] == ["1", "2"]
    with pytest.raises(ValueError):
        tensor_from_json("ext", SP, [{"coeff": "1", "even": [1]}])
    with pytest.raises(ValueError):
        tensor_from_json("sym", SP, [{"coeff": "1", "even": [9], "odd": []}])


def test_space_validation():
    with pytest.raises(ValueError):
        SuperSpace(-1, 0)
    with pytest.raises(ValueError):
        TensorWord(SP, [(EVEN, 3)])
    with pytest.raises(ValueError):
        TensorWord(SP, [(ODD, 0)])


def test_word_basics():
    w = word((EVEN, 1), (ODD, 2), coeff=Fraction(1, 2))
    assert w.rank == 2
    assert w.parity == ODD
    assert w.odd_positions() == [2]
    assert "⊗" in repr(w)
