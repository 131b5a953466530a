"""Input families shared by the test modules: relabel a commuting odd family,
and its straightening, by a permutation of the odd generators
(straighten.conjugated_family builds the families), and the dense odd
connections on which the super de Rham ranks fill in most."""

from superalg.derivations import SuperDerivation
from superalg.exterior import ExtElem
from superalg.poly import Poly
from superalg.scalars import ODD, IndexSet, inversion_sign
from superalg.sderham import OddConnection
from superalg.straighten import OddFamily, Straightening


def relabel_family(fam, perm):
    """Conjugate by the algebra automorphism ds_k ↦ ds_perm(k)."""
    comps = []
    for comp in fam.comps:
        terms = {}
        for (key, s), c in comp.terms.items():
            seq = [perm[k - 1] for k in key]
            key2 = (IndexSet(sorted(seq)), perm[s - 1])
            terms[key2] = terms.get(key2, 0) + inversion_sign(seq) * c
        comps.append(SuperDerivation.from_terms(comp.space, terms, ODD))
    return OddFamily(fam.dim_v, fam.dim_s, comps)


def pull_back_straightening(g, perm):
    """R⁻¹ ∘ G ∘ R for the relabeling R: ds_k ↦ ds_perm(k)."""
    q = g.dim_s
    inv = [0] * q
    for k in range(1, q + 1):
        inv[perm[k - 1] - 1] = k
    images = []
    for nu in range(1, q + 1):
        src = g.images[perm[nu - 1] - 1]
        out = ExtElem.zero(g.space)
        for key, c in src.terms.items():
            seq = [inv[k - 1] for k in key]
            out = out + ExtElem.monomial(g.space, sorted(seq), inversion_sign(seq) * c)
        images.append(out)
    return Straightening(q, images)


def dense_conn(m, n):
    """Every entry of A a degree-1 Poly in all m coordinates with no zero
    coefficient, the case whose image block fills in most."""
    def entry(g, b, i):
        cs = [(g + 2 * b + 3 * i + t) % 5 - 2 or 1 for t in range(m + 1)]
        terms = {(0,) * m: cs[0]}
        for t in range(m):
            terms[tuple(int(s == t) for s in range(m))] = cs[t + 1]
        return Poly(m, terms)
    return OddConnection(m, n, [[[entry(g, b, i) for i in range(m)] for b in range(n)]
                                for g in range(n)])
