"""Seeded input corpus for the superalg benchmark.

Only the standard library is used and nothing here imports superalg: every
input is plain JSON built from the seed, so a change to the package's element
classes or encoders cannot change what the benchmark feeds it.  Each job also
carries the expectation its report is checked against, computed here without
the package.

A corpus is a list of rounds; a round is a list of jobs; a job is a dict:

    {"id": "homology-r0-03",
     "argv": ["cp-homology", "@F", "--kmax", "3", "--lmax", "3"],
     "files": {"F": <JSON document>},
     "expect": {...}}

An argv entry "@name" stands for the path of the job's input file "name".
Every round holds the workload's whole job mix, which is fixed; the seed only
draws the entries, so two seeds give work of the same shape and size.
"""

import hashlib
import json
import random
from fractions import Fraction
from math import comb

WORKLOADS = ("homology", "supermaps", "sderham", "breadth")

# Each job mix is three blocks: light jobs, a block of like jobs that holds
# the median job time, and a heavy block that holds the tail percentile.  A
# percentile inside a block of like jobs moves little from seed to seed; one
# that falls between two kinds of job jumps.

# (rows m, columns n, rank r, kmax, lmax) of the cp-homology jobs of a round.
# Rank deficient maps have kernel and cokernel, so more bidegrees survive.
HOMOLOGY_SHAPES = (
    # light
    (2, 2, 2, 3, 3), (2, 3, 1, 3, 3), (3, 2, 2, 3, 3), (3, 3, 3, 3, 3),
    (3, 3, 2, 3, 3), (3, 3, 1, 3, 3), (2, 4, 2, 3, 3), (4, 2, 2, 3, 3),
    # median
    (3, 4, 3, 3, 3), (3, 4, 3, 3, 3), (3, 4, 3, 3, 3), (3, 4, 3, 3, 3), (3, 4, 3, 3, 3),
    (4, 3, 2, 3, 3), (4, 3, 2, 3, 3), (4, 3, 2, 3, 3), (4, 3, 2, 3, 3), (4, 3, 2, 3, 3),
    # heavy, with the tail inside the 4 x 4 block
    (4, 4, 4, 3, 3), (4, 4, 4, 3, 3), (4, 4, 3, 3, 3), (4, 4, 3, 3, 3),
    (4, 4, 2, 3, 3), (4, 4, 2, 3, 3), (5, 5, 5, 2, 2), (5, 5, 3, 2, 2),
)

# (odd source dimension p, coordinate images carry nilpotent corrections,
#  generator images carry degree-3 terms) of the supermap-check jobs of a
# round.  The order bound nests p // 2 + 1 commutators, so a p = 4 job costs
# about four times a p = 3 job, and the p = 4 jobs set the tail.
SUPERMAP_SHAPES = (
    # light
    (1, False, False), (1, False, False), (2, False, False),
    # median, all of one kind
    (3, True, True), (3, True, True), (3, True, True),
    # heavy, all of one kind, with the tail inside the block
    (4, False, False), (4, False, False), (4, False, False), (4, False, False),
)

# (m base, n odd, curved connection, op, k, cutoff) of the sderham jobs of a round.
SDERHAM_SHAPES = (
    (1, 2, True, "cohomology", 2, 2), (2, 2, True, "cohomology", 0, 3),
    (2, 1, True, "cohomology", 1, 3), (1, 2, True, "delta", 3, 2),
    (2, 1, True, "delta", 3, 2), (1, 1, True, "delta", 3, 2),
    (2, 2, True, "cohomology", 1, 2), (2, 2, False, "cohomology", 2, 2),
    (2, 1, True, "cohomology", 2, 2), (2, 2, False, "delta", 2, 3),
    (2, 2, True, "delta", 3, 2), (2, 2, True, "delta", 3, 2),
    (2, 2, True, "cohomology", 2, 1),
)

# (subcommand, jobs per round) of the breadth workload; fuzz-all runs in
# every FUZZ_EVERY-th round only.
BREADTH_MIX = (
    ("derivation-classify", 6), ("lie-check", 4), ("tensor-normalize", 6),
    ("straighten", 4), ("jet-factor", 6), ("sder-dims", 2),
)
FUZZ_EVERY = 8

# Rounds per corpus.  Every round is a fresh draw of the workload's whole job
# mix; the corpus holds about one run's worth of distinct jobs.
ROUNDS = {"homology": 5, "supermaps": 4, "sderham": 6, "breadth": 48}


def fmt(q):
    return str(Fraction(q))


def half_int(rng):
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))


def nonzero(rng, lo=-3, hi=3):
    c = 0
    while not c:
        c = rng.randint(lo, hi)
    return c


# ------------------------------------------------------------------ homology

def exact_rank(rows):
    """Rank by plain Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def sym_dim(n, k):
    return comb(n + k - 1, k) if n else int(k == 0)


def homology_table(F, kmax, lmax):
    """dim Sym^k(ker F) (x) Lambda^l(coker F) for an m x n matrix F."""
    r = exact_rank(F)
    ker, coker = len(F[0]) - r, len(F) - r
    return [[sym_dim(ker, k) * comb(coker, l) for l in range(lmax + 1)]
            for k in range(kmax + 1)]


def rank_r_matrix(rng, m, n, r):
    """m x n half-integer matrix of rank exactly r: r independent rows and
    m - r integer combinations of them, in shuffled order."""
    while True:
        basis = [[half_int(rng) for _ in range(n)] for _ in range(r)]
        if exact_rank(basis) == r:
            break
    rows = [list(b) for b in basis]
    for _ in range(m - r):
        coeffs = [rng.randint(-1, 1) for _ in range(r)]
        coeffs[rng.randrange(r)] = nonzero(rng, -1, 1)
        rows.append([sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0))
                     for j in range(n)])
    rng.shuffle(rows)
    return rows


def homology_round(rng, i):
    jobs = []
    for m, n, r, kmax, lmax in HOMOLOGY_SHAPES:
        F = rank_r_matrix(rng, m, n, r)
        jobs.append({"argv": ["cp-homology", "@F", "--kmax", str(kmax), "--lmax", str(lmax)],
                     "files": {"F": [[fmt(x) for x in row] for row in F]},
                     "expect": {"computed": homology_table(F, kmax, lmax)}})
    return jobs


# ----------------------------------------------------------------- supermaps
# A superfunction is a dict {(exponent tuple, odd index tuple): Fraction}.

def sf_add(acc, key, c):
    c = acc.get(key, 0) + c
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


def sf_json(f):
    keys = sorted(f, key=lambda k: (len(k[1]), k[1], k[0]))
    return [{"exps": list(e), "ext": list(k), "coeff": fmt(f[(e, k)])} for e, k in keys]


def poly_terms(rng, nvars, max_deg, terms):
    out = {}
    for _ in range(terms):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(nvars)] += 1
        sf_add(out, tuple(exps), Fraction(nonzero(rng)))
    return out


def supermap_doc(rng, p, coord_junk, odd_junk):
    """Criterion-9 shaped morphism from 1|p to 2|2.  The term pattern is fixed
    by the shape and only coefficients and odd index sets are drawn, which
    keeps jobs of one shape close in cost."""
    coords = []
    for j in range(2):
        f = {((0,), ()): Fraction(nonzero(rng)), ((1,), ()): Fraction(nonzero(rng))}
        if coord_junk:
            f[((j,), tuple(sorted(rng.sample(range(1, p + 1), 2))))] = Fraction(nonzero(rng))
        coords.append(f)
    odds = []
    for a in range(2):
        f = {(((a + b) % 2,), (b,)): Fraction(nonzero(rng)) for b in range(1, p + 1)}
        if odd_junk:
            f[((0,), tuple(sorted(rng.sample(range(1, p + 1), 3))))] = Fraction(nonzero(rng, -2, 2))
        odds.append(f)
    doc = {"source_nvars": 1, "source_odd": p,
           "map": {"coord_images": [sf_json(f) for f in coords],
                   "odd_images": [sf_json(f) for f in odds]}}
    return doc, not (coord_junk or odd_junk)


def supermap_round(rng, i):
    jobs = []
    for p, coord_junk, odd_junk in SUPERMAP_SHAPES:
        doc, order_zero = supermap_doc(rng, p, coord_junk, odd_junk)
        jobs.append({"argv": ["supermap-check", "@map", "--seed", str(rng.randrange(2 ** 32))],
                     "files": {"map": doc},
                     "expect": {"order_zero_criterion": order_zero,
                                "source": [1, p], "target": [2, 2]}})
    return jobs


# ------------------------------------------------------------------- sderham

def poly_json(p):
    return [{"exps": list(e), "coeff": fmt(c)} for e, c in sorted(p.items())]


def connection_doc(rng, m, n, curved):
    """Zero connection, or A with c x_(m) dx_1 in entry (1, 1) and a constant
    times dx_m in entry (n, 1): degree 1, and with m = 2, dA is not zero.
    Only the coefficients are drawn, so jobs of one shape cost about the
    same; where the terms sit changes the cost of cohomology several-fold."""
    entries = [[[{} for _ in range(m)] for _ in range(n)] for _ in range(n)]
    if curved:
        entries[0][0][0][tuple(int(t == m - 1) for t in range(m))] = Fraction(nonzero(rng))
        entries[n - 1][0][m - 1][(0,) * m] = Fraction(nonzero(rng))
    return {"dim_base": m, "dim_odd": n,
            "entries": [[[poly_json(p) for p in cell] for cell in row] for row in entries]}


def delta_components(m, n, k, cutoff):
    """(a, b, c, dim, kernel dim) of every component the Delta check assembles:
    Delta acts as b + c, so only pure base forms (b = c = 0) are killed."""
    monomials = comb(m + cutoff, cutoff)
    out = []
    for a in range(min(m, k) + 1):
        for b in range(k - a + 1):
            for c in range(n + 1):
                dim = comb(m, a) * sym_dim(n, b) * comb(n, c) * monomials
                if dim:
                    out.append([a, b, c, dim, dim if b == c == 0 else 0])
    return out


def sderham_round(rng, i):
    jobs = []
    for m, n, curved, op, k, cutoff in SDERHAM_SHAPES:
        if op == "cohomology":
            expect = {"dim": int(k == 0)}
        else:
            expect = {"components": delta_components(m, n, k, cutoff)}
        jobs.append({"argv": ["sderham", "--conn", "@conn", "--op", op,
                              "--k", str(k), "--cutoff", str(cutoff)],
                     "files": {"conn": connection_doc(rng, m, n, curved)},
                     "expect": expect})
    return jobs


# ------------------------------------------------------------------- breadth

def ext_json(f):
    return [{"coeff": fmt(f[k]), "ext": list(k)} for k in sorted(f, key=lambda k: (len(k), k))]


def derivation_job(rng, n):
    """Odd generator images always extend to an ungraded derivation."""
    images = []
    for _ in range(n):
        f = {}
        for _ in range(3):
            size = rng.choice([d for d in range(1, n + 1, 2)])
            sf_add(f, tuple(sorted(rng.sample(range(1, n + 1), size))), half_int(rng))
        images.append(f)
    return {"argv": ["derivation-classify", "@images"],
            "files": {"images": {"images": [ext_json(f) for f in images]}},
            "expect": {"reconstructed_images": [sorted([list(k), fmt(c)] for k, c in f.items())
                                                for f in images]}}


def lie_job(rng, nh, nz, pairs):
    """Even h_1..h_nh acting diagonally on odd pairs with opposite weights,
    central even z_1..z_nz, and [theta, theta'] = B(theta, theta') z only
    between partners, so every Jacobi triple vanishes."""
    even = nh + nz
    dim = even + 2 * pairs
    rows = {}

    def put(i, j, vec):
        if any(vec):
            rows[(i, j)] = vec

    for t in range(pairs):
        a, b = even + 2 * t + 1, even + 2 * t + 2
        for h in range(1, nh + 1):
            w = half_int(rng)
            for x, wx in ((a, w), (b, -w)):
                vec = [Fraction(0)] * dim
                vec[x - 1] = wx
                put(h, x, vec)
                put(x, h, [-v for v in vec])
        vec = [Fraction(0)] * dim
        for z in range(nh + 1, even + 1):
            vec[z - 1] = half_int(rng)
        put(a, b, vec)
        put(b, a, list(vec))
    doc = {"even_dim": even, "odd_dim": 2 * pairs,
           "brackets": [{"i": i, "j": j, "coeffs": [fmt(c) for c in rows[(i, j)]]}
                        for (i, j) in sorted(rows)]}
    return {"argv": ["lie-check", "@lie"], "files": {"lie": doc},
            "expect": {"dim": dim, "even_dim": even, "odd_dim": 2 * pairs, "failures": []}}


def tensor_job(rng, p, q, kind):
    terms = []
    for _ in range(3):
        k = rng.randint(1, 4)
        if kind == "sym":
            even = sorted(rng.randint(1, p) for _ in range(rng.randint(0, k)))
            odd = sorted(rng.sample(range(1, q + 1), min(q, k - len(even))))
        else:
            odd = sorted(rng.randint(1, q) for _ in range(rng.randint(0, k)))
            even = sorted(rng.sample(range(1, p + 1), min(p, k - len(odd))))
        terms.append({"coeff": fmt(half_int(rng) or 1), "even": even, "odd": odd})
    return {"argv": ["tensor-normalize", "@tensor"],
            "files": {"tensor": {"even_dim": p, "odd_dim": q, "kind": kind, "terms": terms}},
            "expect": {"kind": kind}}


def straighten_job(rng, n):
    """Constant insertions into targets T plus quadratic terms ds_K i_t with K
    disjoint from T: no contraction ever meets a ds_K factor, so the family
    commutes."""
    q = 4
    targets = rng.sample(range(1, q + 1), 2)
    rest = [s for s in range(1, q + 1) if s not in targets]
    comps = []
    for i in range(n):
        comp = [{"coeff": fmt(nonzero(rng, -2, 2)), "ext": [], "s": targets[i]}]
        comp.append({"coeff": fmt(half_int(rng) or 1), "ext": sorted(rest),
                     "s": rng.choice(targets)})
        comps.append(comp)
    return {"argv": ["straighten", "--family", "@family"],
            "files": {"family": {"dim_v": n, "dim_s": q, "components": comps}},
            "expect": {}}


def jet_job(rng, m, rank, order):
    terms = {}
    for _ in range(2):
        alpha = [0] * m
        for _ in range(rng.randint(0, order)):
            alpha[rng.randrange(m)] += 1
        terms[tuple(alpha)] = [[poly_terms(rng, m, 1, 1) for _ in range(rank)]
                               for _ in range(rank)]
    op = [{"alpha": list(a), "matrix": [[poly_json(p) for p in row] for row in terms[a]]}
          for a in sorted(terms)]
    d = max(sum(a) for a in terms)
    k = d + rng.randint(0, 1)
    return {"argv": ["jet-factor", "@op", "--order", str(k), "--seed", str(rng.randrange(2 ** 32))],
            "files": {"op": {"nvars": m, "rank_in": rank, "rank_out": rank, "op": op}},
            "expect": {"order": d, "jet_order": k}}


def sder_dims_table(nmax):
    return [{"n": n, "z_graded": n * n, "z2_graded": n * 2 ** (n - 1),
             "ungraded": n * 2 ** (n - 1) + 2 ** (n - 1) - n % 2, "super": n * 2 ** n}
            for n in range(1, nmax + 1)]


def breadth_round(rng, i):
    makers = {
        "derivation-classify": lambda i: derivation_job(rng, 1 + i % 4),
        "lie-check": lambda i: lie_job(rng, 1 + i % 2, 1 + (i // 2) % 2, 1 + i % 2),
        "tensor-normalize": lambda i: tensor_job(rng, 1 + i % 3, 1 + (i + 1) % 3,
                                                 ("sym", "ext")[i % 2]),
        "straighten": lambda i: straighten_job(rng, 1 + i % 2),
        "jet-factor": lambda i: jet_job(rng, 1 + i % 2, 1 + (i // 2) % 2, 2),
        "sder-dims": lambda i: {"argv": ["sder-dims", "--nmax", str(4 + i % 2)], "files": {},
                                "expect": {"dimensions": sder_dims_table(4 + i % 2)}},
    }
    jobs = [makers[name](j) for name, count in BREADTH_MIX for j in range(count)]
    if i % FUZZ_EVERY == 0:
        jobs.append({"argv": ["fuzz-all", "--budget", "medium", "--seed", str(rng.randrange(2 ** 32))],
                     "files": {}, "expect": {"checks": 12}})
    return jobs


# --------------------------------------------------------------------- corpus

ROUND_MAKERS = {"homology": homology_round, "supermaps": supermap_round,
                "sderham": sderham_round, "breadth": breadth_round}


def generate(workload, seed):
    """The corpus of one workload, a list of rounds of jobs.  The same
    (workload, seed) always gives the same corpus."""
    rng = random.Random("%s:%d" % (workload, seed))
    rounds = []
    for i in range(ROUNDS[workload]):
        jobs = ROUND_MAKERS[workload](rng, i)
        for j, job in enumerate(jobs):
            job["id"] = "%s-r%d-%02d" % (workload, i, j)
        rounds.append(jobs)
    return rounds


def dump(rounds):
    """Canonical bytes of a corpus."""
    return json.dumps(rounds, sort_keys=True, separators=(",", ":")).encode()


def digest(rounds):
    return hashlib.sha256(dump(rounds)).hexdigest()
