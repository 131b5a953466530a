"""The shared linear-combination base and the exterior-monomial sign rules."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import superalg
from oracles import fraction_sym_ext_terms, replace
from strat import small_fractions
from superalg.derivations import SuperDerivation
from superalg.exterior import ExtElem, ExtSpace
from superalg.jets import PolyDiffOp, PolySection
from superalg.lincomb import KeyLayout, LinComb, contract, mask_sign, merge_sign, sym_ext_terms
from superalg.poly import Poly
from superalg.scalars import IndexSet, MultiDegree, inversion_sign
from superalg.sderham import SuperForm
from superalg.supermaps import PolySuperFunc


def _diff_op(d):
    # x1 into the first component plus 5·∂_2 into the second, with zero entries
    x1, zero = Poly.variable(d, 1), Poly.zero(d)
    d2 = (0, 1) + (0,) * (d - 2)
    return PolyDiffOp(d, 1, 2, {(0,) * d: [[x1], [zero]], d2: [[zero], [Poly.constant(d, 5)]]})


# one element in each of two ambient spaces that differ in one dimension
ELEMENTS = {
    "Poly": lambda d: Poly.variable(d, 1).scale(Fraction(3, 2)),
    "ExtElem": lambda d: ExtElem.monomial(ExtSpace(d), (1, 2), -2),
    "SuperDerivation": lambda d: SuperDerivation.from_terms(ExtSpace(d),
                                                            {((1, 2), 2): Fraction(1, 3)}),
    "PolySuperFunc": lambda d: PolySuperFunc.monomial(1, d, (2,), (1, 2), -1),
    "SuperForm": lambda d: SuperForm.monomial(d, 1, (1,), (1,), (1,), Poly.variable(d, 1)),
    "PolySection": lambda d: PolySection([Poly.zero(d), Poly.variable(d, 2).scale(-3)]),
    "PolyDiffOp": _diff_op,
    # along φ(x) = x1·x2 from ℝ^d to ℝ: the source ring differs
    "PolyDiffOp-along": lambda d: PolyDiffOp(1, 1, 1, {(1,): [[Poly.variable(d, d)]]},
                                             phi=[Poly.monomial(d, (1, 1) + (0,) * (d - 2))]),
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


# the methods every element class takes from LinComb; Parity adds in Z/2
PLUMBING = {"__add__", "__sub__", "scale", "is_zero"}
OWN_PLUMBING = {("lincomb", "LinComb"), ("scalars", "Parity")}


def test_only_lincomb_defines_linear_plumbing():
    defines = set()
    for path in Path(superalg.__file__).parent.glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = {node.name}
                else:
                    targets = node.targets if isinstance(node, ast.Assign) else []
                    names = {t.id for t in targets if isinstance(t, ast.Name)}
                if names & PLUMBING:
                    defines.add((path.stem, cls.name))
    assert ("lincomb", "LinComb") in defines
    assert defines <= OWN_PLUMBING, sorted(defines - OWN_PLUMBING)


def test_merge_sign_has_at_most_seven_call_sites():
    # one sign/merge helper, called from few places: the wedge, the Leibniz
    # core, cartan's wedge move and the super de Rham products
    sites = []
    for path in Path(superalg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "merge_sign"):
                sites.append("%s:%d" % (path.stem, node.lineno))
    assert 0 < len(sites) <= 7, sorted(sites)


# elements with several terms, for the scale paths
SCALED = {
    "Poly": lambda: Poly(2, {(1, 0): Fraction(3, 2), (0, 2): -4, (0, 0): 1}),
    "ExtElem": lambda: ExtElem(ExtSpace(3), {(1, 2): -2, (3,): Fraction(1, 5), (): 7}),
    "SuperForm": lambda: SuperForm(2, 1, {
        ((1,), (1,), (1,)): Poly(2, {(1, 0): Fraction(1, 2), (0, 0): -3}),
        ((), (0,), ()): Poly(2, {(0, 1): 5}),
    }),
}


def fraction_scale(x, c):
    # scale as it reads with every factor made a Fraction
    c = Fraction(c)
    return x._like({k: c * v for k, v in x.terms.items()} if c else {})


def assert_exact_coefficients(x):
    for v in x.terms.values():
        assert v
        if isinstance(v, Poly):
            assert_exact_coefficients(v)
        else:
            assert type(v) is Fraction


@pytest.mark.parametrize("name", sorted(SCALED))
def test_scale_by_one_is_a_copy(name):
    x = SCALED[name]()
    y = x.scale(1)
    assert y == x and y.terms is not x.terms
    y.terms.clear()
    assert x == SCALED[name]() and not x.is_zero()


@pytest.mark.parametrize("name", sorted(SCALED))
@pytest.mark.parametrize("c", [1, -1, 2, -3, 0, True, False, Fraction(1, 2), Fraction(-1),
                               Fraction(4)],
                         ids=["1", "-1", "2", "-3", "0", "True", "False", "1/2", "F-1", "F4"])
def test_scale_matches_fraction_scale(name, c):
    x = SCALED[name]()
    got = x.scale(c)
    assert got == fraction_scale(x, c)
    assert_exact_coefficients(got)
    if c == -1:
        assert got == -x
    if type(c) is int:
        assert got == x.scale(Fraction(c))
    assert x == SCALED[name]()


key_sets = st.sets(st.integers(1, 8), max_size=6).map(lambda s: tuple(sorted(s)))


@given(key_sets, key_sets)
def test_merge_sign_matches_inversion_count(a, b):
    key, sign = merge_sign(a, b)
    if set(a) & set(b):
        assert (key, sign) == (None, 0)
    else:
        assert type(key) is IndexSet and key == tuple(sorted(a + b))
        assert sign == inversion_sign(a + b)


def _mask(key):
    return sum(1 << (a - 1) for a in key)


# two disjoint subsets of 1..10
disjoint_key_sets = st.sets(st.integers(1, 10)).flatmap(
    lambda a: st.tuples(st.just(a), st.sets(st.integers(1, 10)).map(lambda b: b - a))).map(
    lambda ab: tuple(tuple(sorted(s)) for s in ab))


@given(disjoint_key_sets)
def test_mask_sign_matches_merge_sign(ab):
    a, b = ab
    assert mask_sign(_mask(a), _mask(b)) == merge_sign(a, b)[1]


def _subset(data, size):
    return frozenset(data.draw(st.sets(st.integers(1, size)))) if size else frozenset()


# the two shapes in use: (blocks, nfields) of x^e ds_A in Sym(n) ⊗ Λ(q), and
# of x^e dx_A ds^b ds_C on an m|n patch
LAYOUT_SHAPES = {
    "sym-ext": lambda q, n: ((q,), n),
    "form": lambda n, m: ((n, m), n + m),
}


@pytest.mark.parametrize("shape", sorted(LAYOUT_SHAPES))
@given(st.data(), st.integers(0, 10), st.integers(0, 4), st.integers(0, 4))
def test_key_layout_packs_unpacks_and_adds(shape, data, w, d1, d2):
    # two monomials x and y with disjoint masks whose summed fields reach any
    # value up to top, for a top of bit length w
    blocks, nfields = LAYOUT_SHAPES[shape](d1, d2)
    top = data.draw(st.integers(1 << w >> 1, (1 << w) - 1))
    lay = KeyLayout.fitting(blocks, nfields, top)
    assert lay.w == w
    sums = [data.draw(st.integers(0, top)) for _ in range(nfields)]
    xf = [data.draw(st.integers(0, s)) for s in sums]
    xs = [_subset(data, b) for b in blocks]
    ys = [_subset(data, b) - a for b, a in zip(blocks, xs)]
    x = (MultiDegree(xf), *[IndexSet(sorted(a)) for a in xs])
    y = (MultiDegree(s - e for s, e in zip(sums, xf)), *[IndexSet(sorted(b)) for b in ys])
    xy = (MultiDegree(sums), *[IndexSet(sorted(a | b)) for a, b in zip(xs, ys)])
    for z in (x, y, xy):
        got = lay.unpack(lay.pack(*z))
        assert got == z
        assert type(got[0]) is MultiDegree and all(type(k) is IndexSet for k in got[1:])
    key = lay.pack(*x) + lay.pack(*y)
    assert key == lay.pack(*xy)
    if key:
        # the last factor is the highest generator of the highest nonempty
        # block, or with none, one unit of the last nonzero field
        fields, sets = list(sums), list(xy[1:])
        full = [j for j, k in enumerate(sets) if k]
        if full:
            sets[full[-1]] = IndexSet(sets[full[-1]][:-1])
        else:
            fields[max(i for i, e in enumerate(fields) if e)] -= 1
        assert lay.unpack(key - lay.last_factor(key)) == (MultiDegree(fields), *sets)


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


# ------------------------------------------------------------- Sym ⊗ Λ product

SYM_EXT_KEYS = st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         st.sampled_from([(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]))
# three exterior keys, the empty one among them, so one key carries many terms
FEW_EXT_KEYS = st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         st.sampled_from([(), (2,), (1, 3)]))
SYM_EXT_COEFFS = st.one_of(
    small_fractions(),
    st.builds(lambda n, d: Fraction(10 ** 30 + n, d), st.integers(-50, 50), st.integers(1, 7)),
    st.builds(lambda n, d: Fraction(n, 10 ** 30 + d), st.integers(-9, 9), st.integers(0, 50)),
    st.integers(-5, 5),
).filter(bool)


def sym_ext_term_maps(max_size=6, keys=SYM_EXT_KEYS):
    return st.dictionaries(keys, SYM_EXT_COEFFS, max_size=max_size).map(
        lambda d: {(MultiDegree(e), IndexSet(k)): c for (e, k), c in d.items()})


OPERANDS = st.one_of(sym_ext_term_maps(), sym_ext_term_maps(14, FEW_EXT_KEYS))


def _odd_part_negated(t):
    # for t = E + O split by exterior parity, t * (E - O) = E^2: the cross terms cancel
    return {key: -c if len(key[1]) % 2 else c for key, c in t.items()}


def _x1_negated(t):
    # x1 -> -x1 is an automorphism; on an even t, t * t(-x1) is invariant under
    # it, so the terms odd in x1 cancel within each exterior key
    return {(e, k): -c if e[0] % 2 else c for (e, k), c in t.items()}


@given(OPERANDS, OPERANDS, st.sampled_from(["none", "odd-part", "x1"]))
def test_sym_ext_product_matches_fraction_loop(ta, tb, cancel):
    if cancel == "odd-part":
        tb = _odd_part_negated(ta)
    elif cancel == "x1":
        ta = {(e, k): c for (e, k), c in ta.items() if len(k) % 2 == 0}
        tb = _x1_negated(ta)
    got = sym_ext_terms(ta, tb)
    assert got == fraction_sym_ext_terms(ta, tb)
    assert all(type(c) is Fraction and c for c in got.values())
    if cancel == "odd-part":
        assert all(len(k) % 2 == 0 for _, k in got)
    elif cancel == "x1":
        assert all(e[0] % 2 == 0 for e, _ in got)


def test_sym_ext_product_cancels_within_one_key():
    # (x1 + x2) ds1 times (x1 - x2) ds2: the two x1 x2 terms meet and cancel
    x1, x2 = MultiDegree((1, 0)), MultiDegree((0, 1))
    a = {(x1, IndexSet((1,))): 1, (x2, IndexSet((1,))): 1}
    b = {(x1, IndexSet((2,))): 1, (x2, IndexSet((2,))): -1}
    s12 = IndexSet((1, 2))
    want = {(MultiDegree((2, 0)), s12): 1, (MultiDegree((0, 2)), s12): -1}
    assert sym_ext_terms(a, b) == fraction_sym_ext_terms(a, b) == want
    assert sym_ext_terms(b, a) == {k: -v for k, v in want.items()}
    assert sym_ext_terms(a, {}) == sym_ext_terms({}, b) == {}


def test_sym_ext_product_of_high_degrees():
    # exponents of 40 and more need wider fields than the operands' own
    a = {(MultiDegree((17, 0)), IndexSet((2,))): 3, (MultiDegree((0, 1)), IndexSet()): -1}
    b = {(MultiDegree((23, 40)), IndexSet((1, 3))): Fraction(1, 2),
         (MultiDegree((15, 2)), IndexSet((2,))): 7}
    got = sym_ext_terms(a, b)
    assert got == fraction_sym_ext_terms(a, b)
    assert got == {(MultiDegree((40, 40)), IndexSet((1, 2, 3))): Fraction(-3, 2),
                   (MultiDegree((23, 41)), IndexSet((1, 3))): Fraction(-1, 2),
                   (MultiDegree((15, 3)), IndexSet((2,))): -7}


def test_sym_ext_product_drops_cancelled_terms():
    x, s1 = (MultiDegree((1, 0)), IndexSet()), (MultiDegree((0, 0)), IndexSet((1,)))
    a = {x: Fraction(1, 2), s1: 10 ** 30}
    b = {x: Fraction(1, 2), s1: -10 ** 30}
    assert sym_ext_terms(a, b) == {(MultiDegree((2, 0)), IndexSet()): Fraction(1, 4)}
    assert sym_ext_terms({s1: Fraction(1, 3)}, {s1: 3}) == {}
