"""Every element with a JSON form survives encode -> decode, and its encoding
is a fixed point of decode -> encode, also through JSON text."""

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from strat import small_fractions
from superalg.derivations import SuperDerivation
from superalg.exterior import ExtElem, ExtSpace, ds_space
from superalg.jets import PolyDiffOp, PolySection
from superalg.poly import Poly
from superalg.sderham import OddConnection, SuperForm
from superalg.scalars import EVEN, ODD
from superalg.straighten import (
    OddFamily,
    Straightening,
    conjugated_family,
    identity_straightening,
    straighten,
    verify_straightening,
)
from superalg.supermaps import PolySuperFunc, SuperMapData
from superalg.supertensor import SuperSpace, tensor_from_json, tensor_to_json

dims = st.integers(0, 3)


def index_sets(dim, parity=None):
    return st.sampled_from([k for r in range(dim + 1) for k in combinations(range(1, dim + 1), r)
                            if parity is None or r % 2 == parity])


def exponents(nvars, max_deg=2):
    return st.tuples(*[st.integers(0, max_deg)] * nvars)


def polys(nvars):
    return st.dictionaries(exponents(nvars), small_fractions(), max_size=3).map(
        lambda d: Poly(nvars, d))


def superfuncs(nvars, odd_dim, parity=None):
    return st.dictionaries(st.tuples(exponents(nvars), index_sets(odd_dim, parity)),
                           small_fractions(), max_size=4).map(
        lambda d: PolySuperFunc(nvars, odd_dim, d))


# each strategy draws (context, element): the context is all that the
# decoder is told, the ambient dimensions of the element

@st.composite
def ext_elems(draw):
    space = ExtSpace(draw(st.integers(1, 4)))
    return space, ExtElem(space, draw(st.dictionaries(index_sets(space.dim),
                                                      small_fractions(), max_size=4)))


@st.composite
def poly_elems(draw):
    n = draw(dims)
    return n, draw(polys(n))


@st.composite
def sections(draw):
    n = draw(dims)
    return n, PolySection(draw(st.lists(polys(n), min_size=1, max_size=3)))


@st.composite
def diff_ops(draw):
    # polys draws zero entries too, and now and then a whole zero matrix
    n, rank_in, rank_out = draw(dims), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    matrices = st.lists(st.lists(polys(n), min_size=rank_in, max_size=rank_in),
                        min_size=rank_out, max_size=rank_out)
    return (n, rank_in, rank_out), PolyDiffOp(n, rank_in, rank_out, draw(
        st.dictionaries(exponents(n), matrices, max_size=3)))


@st.composite
def superfunc_elems(draw):
    n, m = draw(dims), draw(dims)
    return (n, m), draw(superfuncs(n, m))


@st.composite
def tensors(draw, kind):
    space = SuperSpace(draw(dims), draw(dims))
    sym_dim, ext_dim = ((space.even_dim, space.odd_dim) if kind == "sym"
                        else (space.odd_dim, space.even_dim))
    return space, draw(superfuncs(sym_dim, ext_dim))


@st.composite
def odd_families(draw):
    # components of even Λ-degrees, zero ones too, so every one is odd
    n, q = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    terms = st.dictionaries(st.tuples(index_sets(q, 0), st.integers(1, q)),
                            small_fractions(), max_size=4)
    comps = [SuperDerivation.from_terms(ds_space(q), draw(terms), ODD) for _ in range(n)]
    return None, OddFamily(n, q, comps)


@st.composite
def straightenings(draw):
    q = draw(st.integers(1, 4))
    space = identity_straightening(q).space
    higher = [k for r in range(3, q + 1, 2) for k in combinations(range(1, q + 1), r)]
    images = []
    for nu in range(1, q + 1):
        terms = {(nu,): 1}
        if higher:
            terms.update(draw(st.dictionaries(st.sampled_from(higher), small_fractions(),
                                              max_size=2)))
        images.append(ExtElem(space, terms))
    return None, Straightening(q, images)


@st.composite
def superderivations(draw):
    space = ExtSpace(draw(st.integers(1, 3)))
    parity = draw(st.sampled_from([EVEN, ODD]))
    image_keys = index_sets(space.dim, (int(parity) + 1) % 2)
    images = [ExtElem(space, draw(st.dictionaries(image_keys, small_fractions(), max_size=3)))
              for _ in range(space.dim)]
    return space, SuperDerivation(space, parity, images)


@st.composite
def superforms(draw):
    m, n = draw(dims), draw(dims)
    keys = st.tuples(index_sets(m), exponents(n), index_sets(n))
    return (m, n), SuperForm(m, n, draw(st.dictionaries(keys, polys(m), max_size=3)))


@st.composite
def connections(draw):
    m, n = draw(dims), draw(st.integers(1, 2))
    return None, OddConnection(m, n, [[[draw(polys(m)) for _ in range(m)] for _ in range(n)]
                                      for _ in range(n)])


@st.composite
def supermaps(draw):
    m, p = draw(dims), draw(st.integers(1, 3))
    n, q = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    if n + q == 0:
        n = 1
    coords = [draw(superfuncs(m, p, parity=0)) for _ in range(n)]
    odds = [draw(superfuncs(m, p, parity=1)) for _ in range(q)]
    return (m, p), SuperMapData(coords, odds)


def _same(x):
    return x


# name -> (strategy, encode, decode from (context, data), what a round trip keeps)
CASES = {
    "ExtElem": (ext_elems(), ExtElem.to_json, ExtElem.from_json, _same),
    "Poly": (poly_elems(), Poly.to_json, Poly.from_json, _same),
    "PolySuperFunc": (superfunc_elems(), PolySuperFunc.to_json,
                      lambda dims, d: PolySuperFunc.from_json(*dims, d), _same),
    "tensor-sym": (tensors("sym"), lambda x: tensor_to_json("sym", x),
                   lambda space, d: tensor_from_json("sym", space, d), _same),
    "tensor-ext": (tensors("ext"), lambda x: tensor_to_json("ext", x),
                   lambda space, d: tensor_from_json("ext", space, d), _same),
    "OddFamily": (odd_families(), OddFamily.to_json, lambda _, d: OddFamily.from_json(d), _same),
    "Straightening": (straightenings(), Straightening.to_json,
                      lambda _, d: Straightening.from_json(d),
                      lambda g: (g.dim_s, g.images)),
    "SuperDerivation": (superderivations(), SuperDerivation.to_json,
                        SuperDerivation.from_json, _same),
    "SuperForm": (superforms(), SuperForm.to_json,
                  lambda dims, d: SuperForm.from_json(*dims, d), _same),
    "OddConnection": (connections(), OddConnection.to_json,
                      lambda _, d: OddConnection.from_json(d),
                      lambda c: (c.dim_base, c.dim_odd, c.comps)),
    "SuperMapData": (supermaps(), SuperMapData.to_json,
                     lambda dims, d: SuperMapData.from_json(*dims, d),
                     lambda phi: (phi.coord_images, phi.odd_images)),
    "PolySection": (sections(), PolySection.to_json, PolySection.from_json, _same),
    "PolyDiffOp": (diff_ops(), PolyDiffOp.to_json,
                   lambda dims, d: PolyDiffOp.from_json(*dims, d), _same),
}


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_json_roundtrip(name, data):
    strategy, encode, decode, kept = CASES[name]
    ctx, x = data.draw(strategy)
    enc = encode(x)
    assert kept(decode(ctx, enc)) == kept(x)
    for d in (enc, json.loads(json.dumps(enc))):
        assert encode(decode(ctx, d)) == enc


def test_filled_memo_changes_neither_equality_nor_encoding():
    g0 = identity_straightening(4)
    images = list(g0.images)
    images[0] = images[0] + ExtElem.monomial(g0.space, (1, 2, 3), Fraction(1, 2))
    images[3] = images[3] - ExtElem.monomial(g0.space, (2, 3, 4))
    fam = conjugated_family([[Fraction(c)] for c in (1, 0, 2, 0)], Straightening(4, images))
    g = straighten(fam)
    enc = g.to_json()
    fresh = Straightening.from_json(enc)
    assert verify_straightening(fam, g).passed
    assert len(g._memo) == 2 ** 4 and len(fresh._memo) == 1
    assert g == fresh and fresh == g
    assert g.to_json() == enc == fresh.to_json()


def test_explicit_zero_entries_change_neither_equality_nor_encoding():
    # jet-factor reads operators in this form: a zero entry, or a whole zero
    # matrix, is no term
    x, zero = Poly.variable(2, 1), Poly.zero(2)
    dense = PolyDiffOp(2, 2, 1, {(1, 0): [[x, zero]], (0, 2): [[zero, zero]]})
    sparse = PolyDiffOp(2, 2, 1, {(1, 0): [[x, zero]]})
    assert dense == sparse and dense.terms == sparse.terms == {((1, 0), 0, 0): x}
    assert dense.to_json() == sparse.to_json() == [
        {"alpha": [1, 0], "matrix": [[[{"exps": [1, 0], "coeff": "1"}], []]]}]
    assert PolyDiffOp.from_json(2, 2, 1, dense.to_json()) == sparse
    section = PolySection([zero, x, zero])
    assert section.terms == {1: x} and section.polys == (zero, x, zero)
    assert section.to_json() == [[], x.to_json(), []]
    assert PolySection.from_json(2, section.to_json()) == section
