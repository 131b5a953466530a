from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    commutator_defect_direct,
    filtration_failures_direct,
    iterated_twisted_commutator_direct,
    naive_apply_map,
    order_bound_check_direct,
    pull_function_direct,
)
from strat import small_fractions
from superalg.poly import Poly
from superalg.scalars import IndexSet, MultiDegree
from superalg.supermaps import (
    PolySuperFunc,
    SuperMapData,
    apply_map,
    aux_codifferential,
    commutator_defect,
    filtration_check,
    induced_grade_map,
    iterated_twisted_commutator,
    order_bound_check,
    order_zero_criterion,
    pull_function,
    twisted_commutator,
)


def sf(nvars, odd_dim, entries):
    """entries: {(exps, key): coeff}"""
    return PolySuperFunc(nvars, odd_dim, {(MultiDegree(e), IndexSet(k)): c
                                          for (e, k), c in entries.items()})


X = Poly.variable(1, 1)


def nilpotent_shift_map():
    # target 1|0, source 1|2, coordinate goes to x + ds1 ds2
    img = PolySuperFunc.coordinate(1, 2, 1) + PolySuperFunc.monomial(1, 2, (0,), (1, 2))
    return SuperMapData([img], [])


def nilpotent_junk_map():
    # 1|3 -> 2|2: both coordinates carry a nilpotent correction, the first
    # generator image a degree-3 term
    x, one = PolySuperFunc.coordinate(1, 3, 1), PolySuperFunc.unit(1, 3)
    coords = [x + PolySuperFunc.monomial(1, 3, (0,), (1, 2)),
              one.scale(2) - x.scale(Fraction(1, 3)) + PolySuperFunc.monomial(1, 3, (1,), (2, 3))]
    odds = [PolySuperFunc.odd_generator(1, 3, 1) + PolySuperFunc.monomial(1, 3, (0,), (1, 2, 3)),
            x * PolySuperFunc.odd_generator(1, 3, 2) + PolySuperFunc.odd_generator(1, 3, 3)]
    return SuperMapData(coords, odds)


def odd_junk_map():
    # source = target = 1|3, identity except s1 picks up a degree-3 term
    coords = [PolySuperFunc.coordinate(1, 3, 1)]
    odds = [PolySuperFunc.odd_generator(1, 3, 1) + PolySuperFunc.monomial(1, 3, (0,), (1, 2, 3)),
            PolySuperFunc.odd_generator(1, 3, 2),
            PolySuperFunc.odd_generator(1, 3, 3)]
    return SuperMapData(coords, odds)


# ---------------------------------------------------------------- strategies

def polys(nvars, max_deg=2, max_terms=3):
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    return st.dictionaries(exps, small_fractions(4, 3), max_size=max_terms).map(
        lambda d: Poly(nvars, {MultiDegree(e): c for e, c in d.items()}))


def superfuncs(nvars, odd_dim, parity=None, max_deg=2, max_terms=4):
    keys = [k for r in range(odd_dim + 1) for k in combinations(range(1, odd_dim + 1), r)
            if parity is None or r % 2 == parity]
    exps = st.tuples(*[st.integers(0, max_deg) for _ in range(nvars)])
    term = st.tuples(exps, st.sampled_from(keys), small_fractions(3, 4))
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((sf(nvars, odd_dim, {(e, k): c}) for e, k, c in ts),
                       PolySuperFunc.zero(nvars, odd_dim)))


@st.composite
def supermapdatas(draw, m=1, p=3, n=2, q=2, defects=True):
    """Morphism data with optional even/odd correction terms."""
    coords = []
    for _ in range(n):
        img = PolySuperFunc.from_poly(draw(polys(m, max_deg=1)), p)
        if defects and draw(st.booleans()):
            deg2 = [k for k in combinations(range(1, p + 1), 2)]
            key = draw(st.sampled_from(deg2))
            img = img + PolySuperFunc.from_poly(draw(polys(m, max_deg=1)), p) * \
                PolySuperFunc.monomial(m, p, (0,) * m, key)
        coords.append(img)
    odds = []
    for _ in range(q):
        img = PolySuperFunc.zero(m, p)
        for b in range(1, p + 1):
            img = img + PolySuperFunc.from_poly(draw(polys(m, max_deg=1)), p) * \
                PolySuperFunc.monomial(m, p, (0,) * m, (b,))
        if defects and p >= 3 and draw(st.booleans()):
            deg3 = [k for k in combinations(range(1, p + 1), 3)]
            key = draw(st.sampled_from(deg3))
            img = img + PolySuperFunc.monomial(m, p, (0,) * m, key, draw(small_fractions(2, 3)))
        odds.append(img)
    return SuperMapData(coords, odds)


def junk_maps():
    """Maps 1|p -> 2|2, p <= 4, with nilpotent coordinate corrections from
    p = 2 and degree-3 odd junk from p = 3."""
    return st.integers(1, 4).flatmap(lambda p: supermapdatas(p=p, defects=p >= 2))


def deep_superfuncs(max_deg=7, max_terms=4):
    """Superfunctions on 2|2 of total degree up to max_deg."""
    exps = st.integers(0, max_deg).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(0, max_deg - a)))
    keys = st.sampled_from([(), (1,), (2,), (1, 2)])
    coeffs = small_fractions(3, 4).filter(bool)
    return st.dictionaries(st.tuples(exps, keys), coeffs, max_size=max_terms).map(
        lambda d: sf(2, 2, d))


def oracle_image(phi, f):
    return naive_apply_map([dict(g.terms) for g in phi.coord_images],
                           [dict(g.terms) for g in phi.odd_images],
                           phi.source_nvars, dict(f.terms))


# ------------------------------------------------------------------- algebra

def test_superfunc_product_signs():
    d1 = PolySuperFunc.odd_generator(1, 3, 1)
    d2 = PolySuperFunc.odd_generator(1, 3, 2)
    assert d1 * d2 == sf(1, 3, {((0,), (1, 2)): 1})
    assert d2 * d1 == sf(1, 3, {((0,), (1, 2)): -1})
    assert (d1 * d1).is_zero()
    u = sf(1, 3, {((0,), (1, 2)): 1})
    assert (u * u).is_zero()
    x = PolySuperFunc.coordinate(1, 3, 1)
    assert x * d1 == d1 * x == sf(1, 3, {((1,), (1,)): 1})


def test_superfunc_filtration_and_parts():
    f = sf(1, 3, {((2,), ()): 3, ((0,), (1, 3)): Fraction(-1, 2)})
    assert f.epsilon() == Poly.monomial(1, (2,), 3)
    assert f.lambda_degrees() == [0, 2]
    assert f.degree_part(2) == sf(1, 3, {((0,), (1, 3)): Fraction(-1, 2)})
    assert f.filtration_degree() == 0
    assert f.degree_part(2).filtration_degree() == 2
    assert PolySuperFunc.zero(1, 3).filtration_degree() == 4
    assert f.is_even() and not f.is_odd()


def test_parity_violations_rejected():
    bad_coord = sf(1, 2, {((0,), (1,)): 1})
    with pytest.raises(ValueError, match="coordinate image"):
        SuperMapData([bad_coord], [])
    bad_odd = PolySuperFunc.unit(1, 2) + PolySuperFunc.odd_generator(1, 2, 1)
    with pytest.raises(ValueError, match="generator image"):
        SuperMapData([PolySuperFunc.coordinate(1, 2, 1)], [bad_odd])
    with pytest.raises(ValueError, match="different source"):
        SuperMapData([PolySuperFunc.coordinate(1, 2, 1),
                      PolySuperFunc.coordinate(1, 3, 1)], [])


# --------------------------------------------------------------------- apply

def test_apply_nilpotent_shift():
    phi = nilpotent_shift_map()
    y_sq = PolySuperFunc.from_poly(X * X, 0)
    want = (PolySuperFunc.from_poly(X * X, 2)
            + PolySuperFunc.monomial(1, 2, (1,), (1, 2), 2))
    assert apply_map(phi, y_sq) == want


@given(supermapdatas())
def test_apply_is_unital(phi):
    one = PolySuperFunc.unit(phi.target_nvars, phi.target_odd)
    assert apply_map(phi, one) == PolySuperFunc.unit(phi.source_nvars, phi.source_odd)


@given(superfuncs(2, 3))
def test_identity_data_acts_as_identity(f):
    assert apply_map(SuperMapData.identity(2, 3), f) == f


@given(supermapdatas(), superfuncs(2, 2))
def test_apply_multiplicative(phi, f):
    g = PolySuperFunc.monomial(2, 2, (1, 0), (1,)) + PolySuperFunc.unit(2, 2)
    assert apply_map(phi, f * g) == apply_map(phi, f) * apply_map(phi, g)


@given(supermapdatas(), superfuncs(2, 2))
def test_body_map_commutes_with_apply(phi, f):
    # the degree-0 part of the image is the pullback of the degree-0 part
    assert apply_map(phi, f).epsilon() == f.epsilon().compose(list(phi.base_map()))


def test_apply_matches_oracle_at_depth_seven():
    # criterion-9 shaped: both coordinates carry nilpotent corrections and
    # both generator images carry degree-3 junk, so the odd order shows
    x = PolySuperFunc.coordinate(1, 4, 1)
    one = PolySuperFunc.unit(1, 4)

    def mono(key, c=1):
        return PolySuperFunc.monomial(1, 4, (0,), key, c)

    coords = [one.scale(2) - x + mono((2, 4), -3), x.scale(3) + x * mono((1, 2), -3)]
    odds = [x * mono((1,)) - mono((2,)) + mono((2, 3, 4), -2) + mono((4,), 3),
            mono((1,), -1) + x * mono((2,)).scale(3) + mono((1, 3, 4), -2)]
    phi = SuperMapData(coords, odds)
    f = sf(2, 2, {((4, 3), (1, 2)): 1, ((7, 0), (2,)): -2, ((0, 7), ()): 3,
                  ((2, 5), (1,)): 1})
    got = apply_map(phi, f)
    assert got.terms == oracle_image(phi, f)
    assert got.lambda_degrees() == [0, 1, 2, 3, 4]


@given(junk_maps(), deep_superfuncs())
@settings(max_examples=60, deadline=None)
def test_apply_matches_oracle(phi, f):
    assert apply_map(phi, f).terms == oracle_image(phi, f)


def test_fractional_images_stay_exact():
    # coordinate image x/2 and odd image 2 ds1: the memo keeps each image over
    # one denominator in lowest terms, and x^60 ds1 goes to 2^-59 x^60 ds1
    half_x = PolySuperFunc.coordinate(1, 1, 1).scale(Fraction(1, 2))
    phi = SuperMapData([half_x], [PolySuperFunc.odd_generator(1, 1, 1).scale(2)])
    x60 = PolySuperFunc.monomial(1, 1, (60,), ())
    assert apply_map(phi, x60) == x60.scale(Fraction(1, 2 ** 60))
    x60_ds1 = PolySuperFunc.monomial(1, 1, (60,), (1,))
    assert apply_map(phi, x60_ds1) == x60_ds1.scale(Fraction(1, 2 ** 59))
    assert apply_map(phi, x60.scale(Fraction(3, 7)) + x60_ds1.scale(-5)) == \
        x60.scale(Fraction(3, 7 * 2 ** 60)) + x60_ds1.scale(Fraction(-5, 2 ** 59))
    assert all(gcd(d, *img.values()) == 1 for d, img in phi._mono_images.values())
    assert all(type(k) is int for d, img in phi._mono_images.values() for k in img)


def _widths(phi):
    return tuple(lay.w for lay in phi._layouts)


def test_fields_widen_mid_life():
    # x -> x^3 keys x^2 in 2-bit target and 3-bit source fields; x^600 needs
    # 10 and 11 bits, so the memo is re-keyed, and x^2 and x^5 still image
    # right from the re-keyed entries
    phi = SuperMapData([PolySuperFunc.monomial(1, 0, (3,), ())], [])
    for e in (2, 600, 5, 2):
        f = PolySuperFunc.monomial(1, 0, (e,), ())
        assert apply_map(phi, f).terms == oracle_image(phi, f) == {((3 * e,), ()): 1}
    assert _widths(phi) == (10, 11)
    assert all(type(k) is int for k in phi._mono_images)


def test_fields_widen_with_odd_images():
    # criterion-9 shaped 1|4 -> 2|2 map imaging degrees 1, 7, 30 and 3 in turn
    x = PolySuperFunc.coordinate(1, 4, 1)
    one = PolySuperFunc.unit(1, 4)

    def mono(key, c=1):
        return PolySuperFunc.monomial(1, 4, (0,), key, c)

    coords = [one.scale(2) - x + mono((2, 4), -3), x.scale(3) + x * mono((1, 2), Fraction(1, 2))]
    odds = [x * mono((1,)) - mono((2,)) + mono((2, 3, 4), -2), mono((1,), -1) + mono((1, 3, 4))]
    phi = SuperMapData(coords, odds)
    fs = [sf(2, 2, {((1, 0), (1,)): 1}),
          sf(2, 2, {((4, 3), (1, 2)): 1, ((0, 7), (2,)): Fraction(-2, 3)}),
          sf(2, 2, {((11, 19), (1, 2)): 1, ((30, 0), ()): 5}),
          sf(2, 2, {((1, 2), (2,)): 1})]
    widths = []
    for f in fs:
        assert apply_map(phi, f).terms == oracle_image(phi, f)
        widths.append(_widths(phi))
    assert widths[0] < widths[1] < widths[2] == widths[3]


def _square(g):
    return g * g


# maps into and out of algebras with no even or no odd generators:
# name -> (source nvars, source odd, coord images, odd images, target elements)
EDGE_MAPS = {
    # 0|3 -> 1|2: the coordinate goes to a nilpotent shift of a constant
    "source-0|q": lambda: (
        [PolySuperFunc.constant(0, 3, 2) + PolySuperFunc.monomial(0, 3, (), (1, 2))],
        [PolySuperFunc.odd_generator(0, 3, 3),
         PolySuperFunc.odd_generator(0, 3, 1) + PolySuperFunc.monomial(0, 3, (), (1, 2, 3), -1)],
        [sf(1, 2, {((5,), (1, 2)): 1, ((9,), ()): -3}), sf(1, 2, {((2,), (2,)): 1})]),
    # 2|0 -> 2|1: no odd source generators, so the odd image is zero
    "source-n|0": lambda: (
        [_square(PolySuperFunc.coordinate(2, 0, 1)) + PolySuperFunc.coordinate(2, 0, 2),
         PolySuperFunc.coordinate(2, 0, 1).scale(Fraction(1, 3))],
        [PolySuperFunc.zero(2, 0)],
        [sf(2, 1, {((3, 4), ()): 1, ((0, 1), (1,)): 2}), sf(2, 1, {((6, 1), ()): 1})]),
    # 1|2 -> 0|2: constant base functions only
    "target-0|q": lambda: (
        [],
        [PolySuperFunc.coordinate(1, 2, 1) * PolySuperFunc.odd_generator(1, 2, 1),
         PolySuperFunc.odd_generator(1, 2, 2) + PolySuperFunc.odd_generator(1, 2, 1)],
        [sf(0, 2, {((), (1, 2)): 1, ((), ()): 4}), sf(0, 2, {((), (2,)): -1})]),
    # 1|2 -> 2|0: two even coordinates with nilpotent corrections
    "target-n|0": lambda: (
        [PolySuperFunc.coordinate(1, 2, 1) + PolySuperFunc.monomial(1, 2, (0,), (1, 2)),
         _square(PolySuperFunc.coordinate(1, 2, 1))
         + PolySuperFunc.monomial(1, 2, (1,), (1, 2), Fraction(-1, 2))],
        [],
        [sf(2, 0, {((2, 1), ()): 1}), sf(2, 0, {((7, 3), ()): 1, ((0, 1), ()): 2})]),
}


@pytest.mark.parametrize("name", sorted(EDGE_MAPS))
def test_maps_without_even_or_odd_generators(name):
    coords, odds, fs = EDGE_MAPS[name]()
    phi = SuperMapData(coords, odds)
    n = phi.target_nvars
    for f in fs:
        assert apply_map(phi, f).terms == oracle_image(phi, f)
    bases = [Poly.constant(n, 3)] + [Poly.variable(n, j) * Poly.variable(n, 1)
                                     for j in range(1, n + 1)]
    for eta in fs:
        assert iterated_twisted_commutator(phi, bases, eta) == \
            iterated_twisted_commutator_direct(phi, bases, eta)
    for seed in (0, 7):
        assert report_fields(order_bound_check(phi, trials=3, seed=seed)) == \
            report_fields(order_bound_check_direct(phi, trials=3, seed=seed))


@given(st.one_of(junk_maps(), supermapdatas(n=3, q=1), supermapdatas(n=0, q=2)).flatmap(
    lambda phi: st.tuples(st.just(phi), st.lists(polys(phi.target_nvars, max_deg=4),
                                                 min_size=1, max_size=3))))
@settings(max_examples=60, deadline=None)
def test_pull_function_matches_fraction_substitution(case):
    # junk maps have rational bodies; 0|q targets have no coordinates, so
    # f is a constant; later fs of higher degree widen the map mid-life
    phi, fs = case
    for f in fs:
        assert pull_function(phi, f) == pull_function_direct(phi, f)


def _memo_keys_pure(phi):
    # every memo key is x^e or ds_K, and the body memo holds x^e only
    low = phi._layouts[0].lows[0]
    return (all(k & low == 0 or k & low == k for k in phi._mono_images)
            and not any(k & low for k in phi._pulled))


@given(junk_maps(), deep_superfuncs(max_deg=4))
@settings(max_examples=30, deadline=None)
def test_memo_holds_pure_keys_only(phi, f):
    apply_map(phi, f)
    assert _memo_keys_pure(phi)
    filtration_check(phi)
    assert _memo_keys_pure(phi)
    order_bound_check(phi, trials=2)
    assert _memo_keys_pure(phi)


def test_high_degree_does_not_recurse():
    phi = SuperMapData.identity(1, 0)
    f = PolySuperFunc.monomial(1, 0, (2000,), ())
    assert apply_map(phi, f) == f


# ------------------------------------------------------------ cache safety

@given(junk_maps(), st.lists(deep_superfuncs(max_deg=4), min_size=2, max_size=6))
@settings(max_examples=30, deadline=None)
def test_reused_map_agrees_with_fresh_map(phi, fs):
    first = [apply_map(phi, f) for f in fs]
    again = [apply_map(phi, f) for f in reversed(fs)][::-1]
    fresh = [apply_map(SuperMapData.from_json(phi.source_nvars, phi.source_odd,
                                              phi.to_json()), f) for f in fs]
    assert first == again == fresh


def test_mutating_a_result_leaves_later_results_alone():
    psi = odd_junk_map()
    for f in (PolySuperFunc.unit(1, 3), PolySuperFunc.odd_generator(1, 3, 1),
              PolySuperFunc.monomial(1, 3, (2,), (1, 2))):
        want = apply_map(psi, f)
        got = apply_map(psi, f)
        assert got is not want and got.terms is not want.terms
        got.terms.clear()
        spoiled = apply_map(psi, f)
        for k in spoiled.terms:
            spoiled.terms[k] = Fraction(99)
        assert apply_map(psi, f) == want


def test_maps_never_share_images():
    shifted = nilpotent_shift_map()
    plain = SuperMapData([PolySuperFunc.coordinate(1, 2, 1)], [])
    twin = nilpotent_shift_map()
    y_sq = PolySuperFunc.from_poly(X * X, 0)
    want = (PolySuperFunc.from_poly(X * X, 2)
            + PolySuperFunc.monomial(1, 2, (1,), (1, 2), 2))
    assert apply_map(shifted, y_sq) == want
    assert apply_map(plain, y_sq) == PolySuperFunc.from_poly(X * X, 2)
    assert apply_map(twin, y_sq) == want
    assert apply_map(shifted, y_sq) == want
    tables = [phi._mono_images for phi in (shifted, plain, twin)]
    assert len({id(t) for t in tables}) == 3
    # the packed x^2 entry of each map holds its own image
    x_sq = shifted._layouts[0].pack((2,), ())
    assert shifted._mono_images[x_sq] == twin._mono_images[x_sq] != plain._mono_images[x_sq]


# --------------------------------------------------------------- commutators

@given(supermapdatas(), polys(2), superfuncs(2, 2, max_terms=2))
def test_commutator_closed_form(phi, f, eta):
    lhs = twisted_commutator(phi, f, eta)
    rhs = commutator_defect(phi, f) * apply_map(phi, eta)
    assert lhs == rhs


@given(supermapdatas(p=2), st.lists(polys(2, max_deg=1, max_terms=2), min_size=2, max_size=2),
       superfuncs(2, 2, max_terms=2))
@settings(max_examples=40)
def test_iterated_commutator_is_defect_product(phi, fs, eta):
    prod = PolySuperFunc.unit(phi.source_nvars, phi.source_odd)
    for f in fs:
        prod = prod * commutator_defect(phi, f)
    assert iterated_twisted_commutator(phi, fs, eta) == prod * apply_map(phi, eta)


def _spoil(phi, exps, key):
    # phi with the memo entry of x^exps ds_key off by the constant 1
    phi._widen(2)
    mono = phi._layouts[0].pack(exps, key)
    d, img = phi._monomial_image(mono)
    img = dict(img)
    img[0] = img.get(0, 0) + d      # key 0 is the source unit
    phi._mono_images[mono] = d, {k: v for k, v in img.items() if v}
    return phi


def spoiled(phi):
    """phi with the memoized image of x1^2 off by the constant 1, cached
    before any monomial above it, so every later image built on it carries
    the error and the map stops being multiplicative.  The memo is keyed at
    the narrowest width that holds x1^2, so the first call on a larger
    element re-keys the spoiled entry."""
    return _spoil(phi, (2,) + (0,) * (phi.target_nvars - 1), ())


def spoiled_odd_pair(phi):
    """phi with the memoized image of ds1 ds2 off by the constant 1: every
    target monomial x^e ds1 ds2 is imaged as phi(x^e) times that entry."""
    return _spoil(phi, (0,) * phi.target_nvars, (1, 2))


def odd_memo_mismatches(phi):
    """The number of theta^K entries in the memo of phi, and the index sets
    K whose entry is not the ordered product phi(ds_k1) ... phi(ds_kr) of
    the generator images, multiplied out by the Fraction oracle."""
    target, source = phi._layouts
    low, n, q = target.lows[0], phi.target_nvars, phi.target_odd
    odd = {target.unpack(k)[1]: pair for k, pair in phi._mono_images.items()
           if k and k & low == k}
    wrong = [K for K, pair in odd.items() if source.rationals(*pair)
             != oracle_image(phi, PolySuperFunc.monomial(n, q, (0,) * n, K))]
    return len(odd), wrong


@given(st.one_of(junk_maps(), supermapdatas(m=2)), deep_superfuncs(max_deg=4), st.booleans())
@settings(max_examples=30, deadline=None)
def test_odd_memo_entries_are_ordered_generator_products(phi, f, spoil):
    # both routes of order_bound_check multiply by the same entry phi(ds_K),
    # so it cannot see a wrong one; this reads every entry it reaches, before
    # and after _widen re-keys the memo (which moves the source fields only
    # when the source has two even generators)
    if spoil:
        spoiled_odd_pair(phi)
    want = [IndexSet((1, 2))] if spoil else []
    apply_map(phi, f)
    order_bound_check(phi, trials=2)
    checked, wrong = odd_memo_mismatches(phi)
    assert checked >= 2 and wrong == want
    widths = _widths(phi)
    phi._widen(2 ** (widths[0] + 1))
    assert _widths(phi)[0] > widths[0]
    assert odd_memo_mismatches(phi) == (checked, want)
    # the entry of ds1 ds2, built after the re-key when not spoiled
    apply_map(phi, sf(2, 2, {((0, 0), (1, 2)): 1}))
    assert odd_memo_mismatches(phi)[1] == want


@given(supermapdatas(), st.lists(polys(2, max_deg=2, max_terms=2), max_size=3),
       superfuncs(2, 2, max_terms=3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_commutators_match_fraction_recursion(phi, fs, eta, spoil):
    if spoil:
        spoiled(phi)
    assert iterated_twisted_commutator(phi, fs, eta) == \
        iterated_twisted_commutator_direct(phi, fs, eta)
    for f in fs:
        assert commutator_defect(phi, f) == commutator_defect_direct(phi, f)


def six_odd_map():
    # 1|6 -> 2|2: the defects of x1 and x2 are ds1 ds2 + x ds3 ds4 and
    # ds5 ds6 + ds1 ds2 ds3 ds4, whose product nu1^2 nu2 = 2x ds1 ... ds6 is
    # not zero, so three commutators need not vanish and the bound is four
    def mono(exps, key, c=1):
        return PolySuperFunc.monomial(1, 6, exps, key, c)
    x = PolySuperFunc.coordinate(1, 6, 1)
    coords = [x + mono((0,), (1, 2)) + mono((1,), (3, 4)),
              PolySuperFunc.constant(1, 6, 2) - x + mono((0,), (5, 6)) + mono((0,), (1, 2, 3, 4))]
    odds = [mono((0,), (1,)) + mono((1,), (2,)) + mono((0,), (3, 4, 5)),
            mono((0,), (3,), -1) + mono((1,), (6,), Fraction(1, 2))]
    return SuperMapData(coords, odds)


def p2(entries):
    return Poly(2, {MultiDegree(e): Fraction(c) for e, c in entries.items()})


# an argument with every odd mask and several even keys per mask
LEVEL_ETA = sf(2, 2, {((0, 0), ()): 1, ((1, 0), ()): -2, ((0, 1), (1,)): 3,
                      ((2, 1), (2,)): Fraction(1, 2), ((1, 1), (1, 2)): 1, ((0, 0), (1, 2)): -1})
# name -> (map, base functions fs[0] innermost, whether the commutator vanishes)
LEVEL_CASES = {
    "zero-f-inner": (nilpotent_junk_map, [p2({}), p2({(1, 0): 1, (0, 1): 1})], True),
    "zero-f-outer": (nilpotent_junk_map, [p2({(1, 1): 1}), p2({})], True),
    # a constant lifts to key 0, so both branches of its level read one entry
    "constant-f": (nilpotent_junk_map, [p2({(0, 0): 3}), p2({(1, 0): 1})], True),
    "constant-terms": (six_odd_map, [p2({(0, 0): 2, (1, 0): 1}),
                                     p2({(0, 0): -1, (0, 2): 1})], False),
    "repeated-f": (six_odd_map, [p2({(0, 0): 1, (1, 0): 1, (0, 2): -1})] * 3, False),
    "depth-3-on-1|6": (six_odd_map, [p2({(1, 0): 1}), p2({(0, 1): 2, (1, 1): 1}),
                                     p2({(1, 0): 1, (0, 0): 5})], False),
    "depth-4-on-1|6": (six_odd_map, [p2({(1, 0): 1}), p2({(0, 1): 2, (1, 1): 1}),
                                     p2({(1, 0): 1, (0, 0): 5}),
                                     p2({(2, 0): Fraction(1, 3), (0, 1): -1})], True),
}


def memo_mismatches(phi):
    """The target monomials whose memo entry is not their image by the
    Fraction oracle."""
    target, source = phi._layouts
    n, q = phi.target_nvars, phi.target_odd
    return [target.unpack(k) for k, pair in phi._mono_images.items()
            if source.rationals(*pair)
            != oracle_image(phi, PolySuperFunc.monomial(n, q, *target.unpack(k)))]


@pytest.mark.parametrize("name", sorted(LEVEL_CASES))
def test_commutator_levels_match_fraction_recursion(name):
    build, fs, vanishes = LEVEL_CASES[name]
    want = iterated_twisted_commutator_direct(build(), fs, LEVEL_ETA)
    assert want.is_zero() == vanishes
    phi = build()
    assert iterated_twisted_commutator(phi, fs, LEVEL_ETA) == want
    # the base functions commute, and each call builds its own level memos
    assert iterated_twisted_commutator(phi, fs[::-1], LEVEL_ETA) == want
    for k in range(len(fs)):
        assert iterated_twisted_commutator(phi, fs[:k], LEVEL_ETA) == \
            iterated_twisted_commutator_direct(build(), fs[:k], LEVEL_ETA)
    # no level's column lands in the map's image memo
    assert memo_mismatches(phi) == []


def report_fields(rep):
    return rep.depth, rep.trials, rep.failures, rep.passed


@given(junk_maps(), st.booleans(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_order_bound_check_matches_fraction_routes(phi, spoil, seed):
    if spoil:
        spoiled(phi)
    assert report_fields(order_bound_check(phi, trials=2, seed=seed)) == \
        report_fields(order_bound_check_direct(phi, trials=2, seed=seed))


@given(junk_maps(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_order_bound_check_matches_fraction_routes_spoiled_odd_pair(phi, seed):
    # both routes multiply each mask's commutators by the same entry on the
    # right, so they agree; the filtration check is the one that sees it
    spoiled_odd_pair(phi)
    assert report_fields(order_bound_check(phi, trials=2, seed=seed)) == \
        report_fields(order_bound_check_direct(phi, trials=2, seed=seed))


def test_spoiled_odd_pair_reaches_every_monomial_of_its_mask():
    # phi(x^e ds1 ds2) = phi(x^e) phi(ds1 ds2), so adding 1 to the entry of
    # ds1 ds2 adds phi(x^e) to the image of x^e ds1 ds2
    for e in ((0, 0), (1, 0), (2, 3)):
        f = PolySuperFunc.monomial(2, 2, e, (1, 2))
        phi = nilpotent_junk_map()
        want = apply_map(phi, f) + apply_map(phi, PolySuperFunc.monomial(2, 2, e, ()))
        assert apply_map(spoiled_odd_pair(phi), f) == want


def test_spoiled_memo_fails_the_order_bound_like_the_fraction_routes():
    chi = spoiled(odd_junk_map())
    widths = _widths(chi)
    got = order_bound_check(chi, trials=3, seed=5)
    # the trials image elements of degree 5, so the spoiled entry was re-keyed
    assert _widths(chi)[0] > widths[0] and _widths(chi)[1] > widths[1]
    assert report_fields(got) == report_fields(order_bound_check_direct(chi, trials=3, seed=5))
    assert {kind for kind, _ in got.failures} == {"route-mismatch", "nonvanishing"}
    assert order_bound_check(odd_junk_map(), trials=3, seed=5).passed


def test_order_bound_two_odd_directions():
    phi = nilpotent_shift_map()
    f = Poly.variable(1, 1)
    g = Poly.monomial(1, (2,), 3)
    c = commutator_defect(phi, f)
    assert c == sf(1, 2, {((0,), (1, 2)): 1})
    assert (c * commutator_defect(phi, g)).is_zero()
    rep = order_bound_check(phi)
    assert rep.depth == 2 and rep.passed


def test_order_bound_tight_at_four_odd_directions():
    # two coordinates picking up disjoint degree-2 corrections: one
    # commutator does not kill the map, two do not either, three do
    im1 = PolySuperFunc.coordinate(1, 4, 1) + PolySuperFunc.monomial(1, 4, (0,), (1, 2))
    im2 = PolySuperFunc.coordinate(1, 4, 1) + PolySuperFunc.monomial(1, 4, (0,), (3, 4))
    chi = SuperMapData([im1, im2], [])
    c1 = commutator_defect(chi, Poly.variable(2, 1))
    c2 = commutator_defect(chi, Poly.variable(2, 2))
    assert not (c1 * c2).is_zero()
    rep = order_bound_check(chi)
    assert rep.depth == 3 and rep.passed


def test_order_zero_map_has_zero_defect():
    phi = SuperMapData.identity(2, 3)
    for j in (1, 2):
        assert commutator_defect(phi, Poly.variable(2, j)).is_zero()
    assert order_bound_check(phi).passed


@given(supermapdatas())
@settings(max_examples=30, deadline=None)
def test_order_bound_random(phi):
    assert order_bound_check(phi, trials=3).passed


# ---------------------------------------------------------------- filtration

def test_filtration_frozen():
    psi = odd_junk_map()
    rep = filtration_check(psi)
    assert rep.passed
    img = apply_map(psi, PolySuperFunc.odd_generator(1, 3, 1))
    assert img.filtration_degree() == 1


@given(junk_maps(), st.sampled_from([None, spoiled, spoiled_odd_pair]))
@settings(max_examples=30, deadline=None)
def test_filtration_check_matches_fraction_images(phi, spoil):
    if spoil:
        spoil(phi)
    assert filtration_check(phi).failures == tuple(filtration_failures_direct(phi))


def test_filtration_fails_on_a_spoiled_odd_pair():
    # the entry of ds1 ds2 gains a constant, so ds1 ds2 and x_j ds1 ds2 image
    # into filtration degree 0
    phi = spoiled_odd_pair(nilpotent_junk_map())
    want = [(MultiDegree(e), IndexSet((1, 2))) for e in ((0, 0), (1, 0), (0, 1))]
    assert filtration_check(phi).failures == tuple(want) == tuple(filtration_failures_direct(phi))


def test_filtration_passes_zero_images():
    # 1|1 -> 1|3, x -> x and ds1, ds2, ds3 -> ds1: ds1ds2ds3 and x1 ds1ds2ds3
    # map to zero, which lies in every filtration degree
    s1 = PolySuperFunc.odd_generator(1, 1, 1)
    phi = SuperMapData([PolySuperFunc.coordinate(1, 1, 1)], [s1, s1, s1])
    assert apply_map(phi, PolySuperFunc.monomial(1, 3, (0,), (1, 2, 3))) == \
        PolySuperFunc.zero(1, 1)
    rep = filtration_check(phi)
    assert rep.passed and rep.failures == ()


@given(supermapdatas())
@settings(max_examples=30, deadline=None)
def test_filtration_random(phi):
    assert filtration_check(phi).passed


# ------------------------------------------------------------------- grading

def test_induced_grade_map_frozen():
    psi = odd_junk_map()
    g1 = induced_grade_map(psi, 1)
    assert g1[IndexSet((1,))] == PolySuperFunc.odd_generator(1, 3, 1)
    assert g1[IndexSet((2,))] == PolySuperFunc.odd_generator(1, 3, 2)
    ident = SuperMapData.identity(1, 3)
    for k in range(4):
        gm = induced_grade_map(ident, k)
        for key, val in gm.items():
            assert val == PolySuperFunc.monomial(1, 3, (0,), key)


@given(supermapdatas(q=3))
@settings(max_examples=30, deadline=None)
def test_grade_two_is_wedge_square_of_grade_one(phi):
    g1 = induced_grade_map(phi, 1)
    g2 = induced_grade_map(phi, 2)
    for a, b in combinations(range(1, phi.target_odd + 1), 2):
        assert g2[IndexSet((a, b))] == g1[IndexSet((a,))] * g1[IndexSet((b,))]


# ------------------------------------------------------- auxiliary defect map

def test_aux_codifferential_frozen():
    phi = nilpotent_shift_map()
    val = aux_codifferential(phi, Poly.variable(1, 1), [7])
    space = val.space
    from superalg.exterior import ExtElem
    assert val == ExtElem.monomial(space, (1, 2))
    assert aux_codifferential(phi, Poly.constant(1, 5), [7]).is_zero()


@given(polys(2), st.integers(-3, 3))
def test_aux_vanishes_for_order_zero_maps(f, pt):
    phi = SuperMapData.identity(2, 3)
    assert aux_codifferential(phi, f, [pt, -pt]).is_zero()


@given(supermapdatas(), polys(2, max_deg=1), polys(2, max_deg=1),
       st.tuples(st.integers(-2, 2)))
@settings(max_examples=40)
def test_aux_is_derivation_along_base(phi, f, g, point):
    base = [w.evaluate(point) for w in phi.base_map()]
    lhs = aux_codifferential(phi, f * g, point)
    rhs = (aux_codifferential(phi, f, point).scale(g.evaluate(base))
           + aux_codifferential(phi, g, point).scale(f.evaluate(base)))
    assert lhs == rhs


# -------------------------------------------------------- order-zero criterion

def test_criterion_frozen_cases():
    assert order_zero_criterion(SuperMapData.identity(2, 3))
    assert not order_zero_criterion(odd_junk_map())        # degree-3 odd junk
    assert not order_zero_criterion(nilpotent_shift_map()) # degree-2 coordinate junk
    # degree-4 coordinate junk with clean degree-2 part still fails
    img = PolySuperFunc.coordinate(1, 4, 1) + PolySuperFunc.monomial(1, 4, (0,), (1, 2, 3, 4))
    assert not order_zero_criterion(SuperMapData([img], []))


def graded_module_morphism_probe(phi, fs, etas):
    """Behavioral route: linear over base functions and grade preserving."""
    m, p = phi.source_nvars, phi.source_odd
    n, q = phi.target_nvars, phi.target_odd
    probes = [Poly.variable(n, j) for j in range(1, n + 1)] + list(fs)
    for f in probes:
        pulled = PolySuperFunc.from_poly(pull_function(phi, f), p)
        for eta in [PolySuperFunc.unit(n, q)] + list(etas):
            if apply_map(phi, PolySuperFunc.from_poly(f, q) * eta) != pulled * apply_map(phi, eta):
                return False
    for r in range(q + 1):
        for key in combinations(range(1, q + 1), r):
            img = apply_map(phi, PolySuperFunc.monomial(n, q, (0,) * n, key))
            if img != img.degree_part(r):
                return False
    return True


@given(supermapdatas(), st.lists(polys(2, max_deg=1, max_terms=2), max_size=2),
       st.lists(superfuncs(2, 2, max_terms=2), max_size=2))
@settings(max_examples=50, deadline=None)
def test_criterion_matches_graded_module_morphism(phi, fs, etas):
    assert order_zero_criterion(phi) == graded_module_morphism_probe(phi, fs, etas)


@given(supermapdatas(defects=False), polys(2), superfuncs(2, 2, max_terms=3))
@settings(max_examples=40)
def test_criterion_implies_function_linearity(phi, f, eta):
    assert order_zero_criterion(phi)
    pulled = PolySuperFunc.from_poly(pull_function(phi, f), phi.source_odd)
    assert apply_map(phi, PolySuperFunc.from_poly(f, 2) * eta) == pulled * apply_map(phi, eta)


def test_criterion_strictly_stronger_than_function_linearity():
    # degree-3 junk in a generator image is invisible to commutators with
    # base functions: the map is still linear over them, yet not a lift
    psi = odd_junk_map()
    f = Poly.monomial(1, (2,), 3)
    eta = (PolySuperFunc.monomial(1, 3, (0,), (1,))
           + PolySuperFunc.monomial(1, 3, (2,), (2, 3)))
    pulled = PolySuperFunc.from_poly(pull_function(psi, f), 3)
    assert apply_map(psi, PolySuperFunc.from_poly(f, 3) * eta) == pulled * apply_map(psi, eta)
    assert commutator_defect(psi, f).is_zero()
    assert not order_zero_criterion(psi)


# ---------------------------------------------------------------------- JSON

def test_json_roundtrip_frozen():
    phi = nilpotent_shift_map()
    blob = phi.to_json()
    assert blob == {
        "coord_images": [[
            {"exps": [1], "ext": [], "coeff": "1"},
            {"exps": [0], "ext": [1, 2], "coeff": "1"},
        ]],
        "odd_images": [],
    }
    back = SuperMapData.from_json(1, 2, blob)
    assert back.coord_images == phi.coord_images
    assert back.odd_images == phi.odd_images


@given(supermapdatas(m=2, p=2, n=1, q=2))
def test_json_roundtrip_random(phi):
    back = SuperMapData.from_json(phi.source_nvars, phi.source_odd, phi.to_json())
    assert back.coord_images == phi.coord_images and back.odd_images == phi.odd_images


def test_json_errors():
    with pytest.raises(ValueError, match="coord_images"):
        SuperMapData.from_json(1, 2, {"coord_images": []})
    with pytest.raises(ValueError, match="exps, ext and coeff"):
        PolySuperFunc.from_json(1, 2, [{"exps": [0], "coeff": "1"}])
    with pytest.raises(ValueError, match="duplicate"):
        PolySuperFunc.from_json(1, 2, [{"exps": [0], "ext": [1], "coeff": "1"},
                                       {"exps": [0], "ext": [1], "coeff": "2"}])
    with pytest.raises(ValueError, match="list"):
        PolySuperFunc.from_json(1, 2, {"exps": [0], "ext": [], "coeff": "1"})
