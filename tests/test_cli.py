"""Command line front end: exit codes, determinism, report formats."""

import copy
import io
import json
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from famgen import dense_conn

from superalg import cartan
from superalg.cartan import homology_table_size
from superalg.cli import (
    FUZZ_CHECKS,
    HOMOLOGY_MAX_DIM,
    JET_MAX_DIM,
    LIE_MAX_COEFFS,
    LIE_MAX_DIM,
    ROUNDS,
    SDER_DIMS_MAX_N,
    SDERHAM_MAX_DIM,
    SUPERMAP_MAX_EVEN,
    SUPERMAP_MAX_ODD,
    build_parser,
    fnv1a64,
    main,
    sub_seed,
)
from superalg.liesuper import endo_superalgebra


def run_cli(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# matches the published FNV-1a 64 vectors
def test_seed_splitting_frozen():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert sub_seed(0, "") == 14695981039346656037
    assert sub_seed(7, "lie-structure-biconditional") == 2337921112301522100
    assert sub_seed(2 ** 64 - 1, "x") < 2 ** 64


def test_cp_homology_passes(capsys, tmp_path):
    p = write(tmp_path, "m.json", [["1", "0"], ["0", "0"]])
    code, out, err = run_cli(capsys, ["cp-homology", p, "--kmax", "2", "--lmax", "2"])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["computed"] == rep["predicted"] == [[1, 1, 0], [1, 1, 0], [1, 1, 0]]


def test_cp_homology_flag_and_positional_agree(capsys, tmp_path):
    p = write(tmp_path, "m.json", [["2"]])
    code1, out1, _ = run_cli(capsys, ["cp-homology", p])
    code2, out2, _ = run_cli(capsys, ["cp-homology", "--F", p])
    assert (code1, out1) == (code2, out2)
    # exactly one of the two spellings
    code, _, err = run_cli(capsys, ["cp-homology", p, "--F", p])
    assert code == 2 and "malformed" in err
    code, _, err = run_cli(capsys, ["cp-homology"])
    assert code == 2
    code, _, err = run_cli(capsys, ["cp-homology", ""])
    assert code == 2 and "malformed" in err


HALF_5X5 = [["1/2", "-1", "0", "3/2", "1"], ["2", "1/2", "-1/2", "0", "1"],
            ["0", "1", "1/2", "-1", "2"], ["-3/2", "0", "1", "1/2", "0"],
            ["1", "-1/2", "0", "2", "1/2"]]
HALF_9X9 = [[str((3 * i + 5 * j) % 7 - 3) + "/2" for j in range(9)] for i in range(9)]


# cartan.homology_table_size counts the table, the sources (kmax + 1, l) of
# the maps out of degree kmax + 1 and the targets (k, lmax + 1) of the maps
# into it: for a 4x1 F with lmax 4 that is (kmax + 1) * 16 + 15, for a 5x1 F
# (kmax + 1) * 31 + kmax + 26, for a 1x2 F with lmax 0 (kmax + 1)**2, so kmax
# 120 sits at the limit; a 2x2 identity with kmax 400 spans 322,404
@pytest.mark.parametrize("F, kmax, lmax, code", [
    ([["1"], ["0"], ["1"], ["2"]], 623, 4, 0),
    ([["1"], ["0"], ["1"], ["2"]], 624, 4, 0),
    ([["1"], ["0"], ["1"], ["2"], ["1"]], 625, 4, 3),
    ([["1", "0"], ["0", "1"]], 400, 2, 3),
    ([["1", "2"]], 119, 0, 0),
    ([["1", "2"]], 120, 0, 0),
    ([["1", "2"]], 121, 0, 3),
    (HALF_5X5, 5, 5, 0),
    (HALF_9X9, 2, 3, 3),
])
def test_cp_homology_size_limit(capsys, tmp_path, F, kmax, lmax, code):
    # the 5x5 table with k, l <= 5 runs; the 9x9 one with k <= 2, l <= 3,
    # which takes 7.6-9.8 s of CPU time on random half-integer F, is refused
    assert homology_table_size(5, 5, 5, 5) == 14574 < HOMOLOGY_MAX_DIM == 14641
    assert homology_table_size(9, 9, 2, 3) == 16000
    p = write(tmp_path, "m.json", F)
    start = time.perf_counter()
    got, _, err = run_cli(capsys, ["cp-homology", p, "--kmax", str(kmax),
                                   "--lmax", str(lmax), "--quiet"])
    assert got == code and ("limit of 14641" in err) == (code == 3)
    assert code == 0 or time.perf_counter() - start < 0.5


def test_homology_table_size_counts_every_block_read(monkeypatch):
    # the union of the bidegrees of the table and of every block it ranks
    # through the per-table block function of _homology_table
    real = cartan._block_assembler
    for m, n, kmax, lmax in product(range(1, 4), range(1, 4), range(4), range(5)):
        seen = set(product(range(kmax + 1), range(lmax + 1)))

        def assembler(F, n_, m_, direction):
            block = real(F, n_, m_, direction)

            def record(k, l):
                seen.update({(k, l), (k - 1, l + 1)})
                return block(k, l)
            return record

        monkeypatch.setattr(cartan, "_block_assembler", assembler)
        cartan.homology_dims([[1] * n for _ in range(m)], kmax, lmax)
        want = sum(cartan._dim_A(n, m, k, l) for k, l in seen)
        assert homology_table_size(m, n, kmax, lmax) == want, (m, n, kmax, lmax)


def test_cp_homology_rejects_ragged_matrix(capsys, tmp_path):
    p = write(tmp_path, "m.json", [["1", "0"], ["0"]])
    code, out, err = run_cli(capsys, ["cp-homology", p])
    assert code == 2 and "row 1" in err


def test_cp_homology_rejects_bad_scalar(capsys, tmp_path):
    p = write(tmp_path, "m.json", [[True]])
    code, _, err = run_cli(capsys, ["cp-homology", p])
    assert code == 2 and "row 0 column 0" in err


def test_malformed_json_reports_location(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"even_dim": 1,')
    code, out, err = run_cli(capsys, ["lie-check", str(p)])
    assert code == 2 and out == ""
    assert "line 1 column 16" in err


def test_missing_file_is_exit_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["lie-check", str(tmp_path / "nope.json")])
    assert code == 2 and "malformed" in err


def test_derivation_classify_accepts_derivation(capsys, tmp_path):
    # ds1 -> ds2, ds2 -> ds1 extends to a plain derivation
    p = write(tmp_path, "d.json", {"images": [
        [{"coeff": "1", "ext": [2]}],
        [{"coeff": "1", "ext": [1]}]]})
    code, out, _ = run_cli(capsys, ["derivation-classify", p])
    assert code == 0
    rep = json.loads(out)
    names = [c["name"] for c in rep["checks"]]
    assert names == sorted(names)
    assert rep["passed"] is True


def test_derivation_classify_flags_non_derivation(capsys, tmp_path):
    # a unit image contradicts 0 = D(ds2^2) = 2 ds2
    p = write(tmp_path, "d.json", {"images": [
        [{"coeff": "1", "ext": [2]}],
        [{"coeff": "1", "ext": []}]]})
    code, out, _ = run_cli(capsys, ["derivation-classify", p])
    assert code == 1
    rep = json.loads(out)
    by_name = {c["name"]: c["passed"] for c in rep["checks"]}
    assert by_name["images-define-ungraded-derivation"] is False
    assert by_name["reconstruction-gives-same-class"] is True


def test_sder_dims_table_frozen(capsys):
    code, out, _ = run_cli(capsys, ["sder-dims", "--nmax", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["dimensions"] == [
        {"n": 1, "z_graded": 1, "z2_graded": 1, "ungraded": 1, "super": 2},
        {"n": 2, "z_graded": 4, "z2_graded": 4, "ungraded": 6, "super": 8},
        {"n": 3, "z_graded": 9, "z2_graded": 12, "ungraded": 15, "super": 24},
        {"n": 4, "z_graded": 16, "z2_graded": 32, "ungraded": 40, "super": 64},
    ]


def test_sder_dims_bad_nmax(capsys):
    code, _, err = run_cli(capsys, ["sder-dims", "--nmax", "0"])
    assert code == 3 and "precondition" in err


# the dimensions grow like n·2^n, so sder-dims caps nmax at 100; 15,000 once
# ended in a traceback, its dimensions too long to print
@pytest.mark.parametrize("nmax, code", [(99, 0), (100, 0), (101, 3), (15000, 3)])
def test_sder_dims_nmax_limit(capsys, nmax, code):
    assert SDER_DIMS_MAX_N == 100
    got, out, err = run_cli(capsys, ["sder-dims", "--nmax", str(nmax)])
    assert got == code and ("1..100" in err) == (code == 3)
    if code == 0:
        rows = json.loads(out)["dimensions"]
        assert len(rows) == nmax and rows[-1]["super"] == nmax * 2 ** nmax
    else:
        assert out == ""


def test_lie_check_good_and_bad(capsys, tmp_path):
    good = write(tmp_path, "good.json", {"even_dim": 1, "odd_dim": 1,
        "brackets": [{"i": 2, "j": 2, "coeffs": [1, 0]}]})
    code, out, _ = run_cli(capsys, ["lie-check", good])
    assert code == 0 and json.loads(out)["passed"] is True
    # one-sided table breaks superalternating
    bad = write(tmp_path, "bad.json", {"even_dim": 2, "odd_dim": 1,
        "brackets": [{"i": 1, "j": 3, "coeffs": [0, 0, 1]}]})
    code, out, _ = run_cli(capsys, ["lie-check", bad])
    assert code == 1
    rep = json.loads(out)
    assert any(not c["passed"] for c in rep["checks"])
    assert rep["failures"]


# check_lie_superalgebra's time grows as dim**3 on sparse tables and about as
# dim**5 on dense ones, so the total dimension is capped
@pytest.mark.parametrize("even, odd, code",
                         [(3, 2, 0), (16, 16, 0), (18, 17, 0), (18, 18, 0), (19, 18, 3),
                          (36, 0, 0), (37, 0, 3)])
def test_lie_check_dimension_limit(capsys, tmp_path, even, odd, code):
    assert LIE_MAX_DIM == 36
    p = write(tmp_path, "l.json", {"even_dim": even, "odd_dim": odd, "brackets": []})
    got, _, err = run_cli(capsys, ["lie-check", p, "--quiet"])
    assert got == code and ("limit of 36" in err) == (code == 3)


def test_lie_check_passes_gl_3_3(capsys, tmp_path):
    # gl(3|3) has dimension 36, the limit, and 420 nonzero coefficients
    p = write(tmp_path, "gl.json", endo_superalgebra(3, 3).to_json())
    code, out, _ = run_cli(capsys, ["lie-check", p])
    rep = json.loads(out)
    assert code == 0 and rep["passed"] is True and rep["dim"] == 36


# the Jacobi check's time tracks the nonzero bracket coefficients, so they are
# capped too: a 32|0 table whose halves bracket into each other holds 8,192,
# the limit, and one coefficient less or more is below or above it
@pytest.mark.parametrize("extra, code", [(-1, 1), (0, 1), (1, 3)])
def test_lie_check_coefficient_limit(capsys, tmp_path, extra, code):
    halves = (range(1, 17), range(17, 33))
    rows = [{"i": i, "j": j, "coeffs": [int(k in hi) for k in range(1, 33)]}
            for lo, hi in (halves, halves[::-1]) for i in lo for j in lo]
    if extra < 0:
        rows[0]["coeffs"][16] = 0
    if extra > 0:
        rows.append({"i": 1, "j": 17, "coeffs": [1] + [0] * 31})
    assert sum(c != 0 for r in rows for c in r["coeffs"]) == LIE_MAX_COEFFS + extra
    p = write(tmp_path, "l.json", {"even_dim": 32, "odd_dim": 0, "brackets": rows})
    got, _, err = run_cli(capsys, ["lie-check", p, "--quiet"])
    # below and at the limit the table is checked, and fails superalternating
    assert got == code and ("limit of %d" % LIE_MAX_COEFFS in err) == (code == 3)


# tensor-normalize enumerates about dim**4 basis words and derivation-classify
# acts on 2**n basis monomials, so both cap their input size; at the limit
# the basis count check walks about 52,000 words of rank 4
@pytest.mark.parametrize("even, odd, code",
                         [(3, 2, 0), (20, 12, 0), (20, 13, 3), (0, 32, 0), (32, 0, 0)])
def test_tensor_normalize_dimension_limit(capsys, tmp_path, even, odd, code):
    p = write(tmp_path, "t.json", {"even_dim": even, "odd_dim": odd, "kind": "ext", "terms": []})
    t0 = time.perf_counter()
    got, _, err = run_cli(capsys, ["tensor-normalize", p, "--quiet"])
    assert got == code and ("limit of 32" in err) == (code == 3)
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("n, code", [(11, 0), (12, 0), (13, 3), (63, 3)])
def test_derivation_classify_image_limit(capsys, tmp_path, n, code):
    p = write(tmp_path, "d.json", {"images": [[] for _ in range(n)]})
    got, _, err = run_cli(capsys, ["derivation-classify", p, "--quiet"])
    assert got == code and ("limit of 12" in err) == (code == 3)


def test_tensor_normalize_both_kinds(capsys, tmp_path):
    for kind in ("sym", "ext"):
        p = write(tmp_path, kind + ".json",
                  {"even_dim": 2, "odd_dim": 2, "kind": kind,
                   "terms": [{"coeff": "1/2", "even": [1, 2], "odd": [1]}]})
        code, out, _ = run_cli(capsys, ["tensor-normalize", p])
        assert code == 0
        rep = json.loads(out)
        assert rep["kind"] == kind and rep["normal_form"]


def test_tensor_normalize_bad_kind(capsys, tmp_path):
    p = write(tmp_path, "t.json", {"even_dim": 1, "odd_dim": 1,
                                   "kind": "weird", "terms": []})
    code, _, err = run_cli(capsys, ["tensor-normalize", p])
    assert code == 2 and "kind" in err


def test_straighten_identity_family(capsys, tmp_path):
    p = write(tmp_path, "f.json", {"dim_v": 1, "dim_s": 2, "components": [
        [{"coeff": "1", "ext": [], "s": 1}]]})
    code, out, _ = run_cli(capsys, ["straighten", "--family", p])
    assert code == 0
    g = json.loads(out)["straightening"]
    assert g["dim_s"] == 2


def test_straighten_preconditions(capsys, tmp_path):
    noncomm = write(tmp_path, "nc.json", {"dim_v": 2, "dim_s": 2, "components": [
        [{"coeff": "1", "ext": [], "s": 1}],
        [{"coeff": "1", "ext": [1, 2], "s": 1}]]})
    code, _, err = run_cli(capsys, ["straighten", "--family", noncomm])
    assert code == 3 and "commute" in err
    # zero constant part cannot be straightened
    noninj = write(tmp_path, "ni.json", {"dim_v": 1, "dim_s": 2, "components": [
        [{"coeff": "1", "ext": [1, 2], "s": 1}]]})
    code, _, err = run_cli(capsys, ["straighten", "--family", noninj])
    assert code == 3


# the level solves still grow three- to fourfold per odd generator (a one-vector
# family takes about 0.02 s at dim_s 7, 0.07 s at 8 and 0.3 s at 9 on a 2-CPU
# host), so straighten caps dim_s at 7; a family with no vector of V is
# malformed input
@pytest.mark.parametrize("dim_v, dim_s, code", [(1, 7, 0), (1, 8, 3), (0, 6, 2)])
def test_straighten_size_limits(capsys, tmp_path, dim_v, dim_s, code):
    comps = [[{"coeff": "1", "ext": [], "s": 1}]] * dim_v
    p = write(tmp_path, "f.json", {"dim_v": dim_v, "dim_s": dim_s, "components": comps})
    got, _, err = run_cli(capsys, ["straighten", "--family", p, "--quiet"])
    assert got == code and ("limit of 7" in err) == (code == 3)
    assert ("dim_v" in err) == (code == 2)


def test_jet_factor_first_order_op(capsys, tmp_path):
    p = write(tmp_path, "op.json", {"nvars": 2, "rank_in": 1, "rank_out": 1,
        "op": [{"alpha": [1, 0], "matrix": [[[{"exps": [0, 0], "coeff": "1"}]]]}]})
    code, out, _ = run_cli(capsys, ["jet-factor", p, "--order", "2", "--seed", "11"])
    assert code == 0
    rep = json.loads(out)
    assert rep["order"] == 1 and rep["jet_order"] == 2


def test_jet_factor_order_precondition(capsys, tmp_path):
    p = write(tmp_path, "op.json", {"nvars": 1, "rank_in": 1, "rank_out": 1,
        "op": [{"alpha": [2], "matrix": [[[{"exps": [0], "coeff": "1"}]]]}]})
    code, _, err = run_cli(capsys, ["jet-factor", p, "--order", "1"])
    assert code == 3 and "order" in err


# jet-factor caps the factoring matrix at 2000 entries, rank_out rows of
# C(m + k, k)·rank_in, and m and k below 2000; the zero operator keeps the
# runs at the limit short, and the corpus's largest shape (m = 2, k = 3,
# rank 2 to 2) has 40
@pytest.mark.parametrize("nvars, order, rank_in, rank_out, code", [
    (1, 1, 999, 1, 0), (1, 1, 1000, 1, 0), (1, 1, 1001, 1, 3), (1, 0, 1, 2000, 0),
    (1, 0, 1, 2001, 3), (1, 0, 1, 10 ** 9, 3), (2, 3, 2, 2, 0), (8, 8, 1, 1, 3),
    (1999, 0, 1, 1, 0), (2000, 0, 1, 1, 3), (0, 1999, 1, 1, 0), (0, 2000, 1, 1, 3),
    (10 ** 6, 10 ** 9, 1, 1, 3)])
def test_jet_factor_size_limit(capsys, tmp_path, nvars, order, rank_in, rank_out, code):
    assert JET_MAX_DIM == 2000
    p = write(tmp_path, "op.json", {"nvars": nvars, "rank_in": rank_in,
                                    "rank_out": rank_out, "op": []})
    t0 = time.perf_counter()
    got, out, err = run_cli(capsys, ["jet-factor", p, "--order", str(order)])
    assert got == code and ("more than 2000" in err) == (code == 3)
    if code == 3:
        assert out == "" and time.perf_counter() - t0 < 0.5
    else:
        assert json.loads(out)["jet_order"] == order


def test_supermap_check_passes(capsys, tmp_path):
    p = write(tmp_path, "phi.json", {"source_nvars": 1, "source_odd": 2,
        "map": {"coord_images": [[{"exps": [1], "ext": [], "coeff": "1"},
                                  {"exps": [0], "ext": [1, 2], "coeff": "1"}]],
                "odd_images": [[{"exps": [0], "ext": [1], "coeff": "1"}]]}})
    code, out, _ = run_cli(capsys, ["supermap-check", p, "--seed", "5"])
    assert code == 0
    rep = json.loads(out)
    assert rep["source"] == [1, 2] and rep["target"] == [1, 1]
    assert {c["name"] for c in rep["checks"]} == {
        "base-projection-intertwines", "filtration-preserved",
        "order-bound-vanishing"}


def _odd_shift_map(p, q):
    # 1|p -> 1|q, x1 -> x1 and odd generator a -> ds_a (ds_p past p)
    return {"source_nvars": 1, "source_odd": p, "map": {
        "coord_images": [[{"exps": [1], "ext": [], "coeff": "1"}]],
        "odd_images": [[{"exps": [0], "ext": [min(a, p)], "coeff": "1"}]
                       for a in range(1, q + 1)]}}


# the order bound's work grows steeply with both the source odd rank p and the
# target odd rank q, so supermap-check caps p + q at 10; 1|11 -> 1|0 and
# 1|0 -> 1|11 (zero generator images) are refused like 1|6 -> 1|5
@pytest.mark.parametrize("p, q, code", [
    (4, 4, 0), (5, 5, 0), (10, 0, 0), (6, 5, 3), (11, 0, 3), (0, 11, 3)])
def test_supermap_check_odd_rank_limit(capsys, tmp_path, p, q, code):
    assert SUPERMAP_MAX_ODD == 10
    doc = _odd_shift_map(p, q)
    if not p:
        doc["map"]["odd_images"] = [[] for _ in range(q)]
    path = write(tmp_path, "phi.json", doc)
    t0 = time.perf_counter()
    got, out, err = run_cli(capsys, ["supermap-check", path])
    assert got == code and ("limit of 10" in err) == (code == 3)
    if code == 3:
        assert out == "" and time.perf_counter() - t0 < 0.5


# the order bound's random arguments are degree-2 polynomials in the target
# coordinates, so supermap-check caps the target even rank at 3 as well
@pytest.mark.parametrize("n, code", [(2, 0), (3, 0), (4, 3), (20, 3)])
def test_supermap_check_even_rank_limit(capsys, tmp_path, n, code):
    assert SUPERMAP_MAX_EVEN == 3
    doc = {"source_nvars": 1, "source_odd": 1, "map": {
        "coord_images": [[{"exps": [1], "ext": [], "coeff": str(j)}] for j in range(1, n + 1)],
        "odd_images": [[{"exps": [0], "ext": [1], "coeff": "1"}]]}}
    path = write(tmp_path, "phi.json", doc)
    t0 = time.perf_counter()
    got, out, err = run_cli(capsys, ["supermap-check", path])
    assert got == code and ("limit of 3" in err) == (code == 3)
    if code == 3:
        assert out == "" and time.perf_counter() - t0 < 0.5


def test_supermap_check_passes_zero_images(capsys, tmp_path):
    # criterion-9 shaped 1|2 -> 2|6: every target monomial of exterior degree
    # above 2 maps to zero, which the filtration check must accept
    coords = [[{"exps": [0], "ext": [], "coeff": "2"}, {"exps": [1], "ext": [], "coeff": "-1"},
               {"exps": [j], "ext": [1, 2], "coeff": "3"}] for j in range(2)]
    odds = [[{"exps": [(a + b) % 2], "ext": [b], "coeff": str(a + b)} for b in (1, 2)]
            for a in range(6)]
    p = write(tmp_path, "phi.json", {"source_nvars": 1, "source_odd": 2,
                                     "map": {"coord_images": coords, "odd_images": odds}})
    code, out, err = run_cli(capsys, ["supermap-check", p, "--seed", "1"])
    rep = json.loads(out)
    assert (code, err) == (0, "") and rep["target"] == [2, 6]
    assert {c["name"]: c["detail"] for c in rep["checks"]}["filtration-preserved"] == "0 failures"


# A criterion-9 shaped morphism 1|4 -> 2|2: both coordinate images carry a
# nilpotent correction and both generator images a degree-3 term.
JUNK_MAP = {"source_nvars": 1, "source_odd": 4, "map": {
    "coord_images": [
        [{"exps": [0], "ext": [], "coeff": "-2"}, {"exps": [1], "ext": [], "coeff": "-1"},
         {"exps": [0], "ext": [2, 4], "coeff": "-3"}],
        [{"exps": [0], "ext": [], "coeff": "-2"}, {"exps": [1], "ext": [], "coeff": "-3"},
         {"exps": [1], "ext": [1, 2], "coeff": "-3"}]],
    "odd_images": [
        [{"exps": [1], "ext": [1], "coeff": "1"}, {"exps": [0], "ext": [2], "coeff": "-1"},
         {"exps": [1], "ext": [3], "coeff": "3"}, {"exps": [0], "ext": [4], "coeff": "3"},
         {"exps": [0], "ext": [2, 3, 4], "coeff": "-2"}],
        [{"exps": [0], "ext": [1], "coeff": "-1"}, {"exps": [1], "ext": [2], "coeff": "3"},
         {"exps": [0], "ext": [3], "coeff": "-2"}, {"exps": [1], "ext": [4], "coeff": "3"},
         {"exps": [0], "ext": [1, 3, 4], "coeff": "-2"}]]}}

JUNK_MAP_REPORT = (
    '{"checks":[{"detail":"sub-seed 9301755849945824352, 4 polynomials",'
    '"name":"base-projection-intertwines","passed":true},'
    '{"detail":"0 failures","name":"filtration-preserved","passed":true},'
    '{"detail":"sub-seed 4090342519634239721, defect depth 3",'
    '"name":"order-bound-vanishing","passed":true}],'
    '"command":"supermap-check","order_zero_criterion":false,"passed":true,'
    '"seed":1,"source":[1,4],"target":[2,2]}\n')


def test_supermap_check_junk_map_report_frozen(capsys, tmp_path):
    p = write(tmp_path, "phi.json", JUNK_MAP)
    code, out, err = run_cli(capsys, ["supermap-check", p, "--seed", "1"])
    assert (code, out, err) == (0, JUNK_MAP_REPORT, "")


def _spoil(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


@pytest.mark.parametrize("edit, field", [
    (lambda d: d["map"]["coord_images"][0][0].update(exps=[1.5]), "exps"),
    (lambda d: d["map"]["coord_images"][0][0].update(exps=["1"]), "exps"),
    (lambda d: d["map"]["odd_images"][0][0].update(ext=[True]), "ext"),
    (lambda d: d.update(source_nvars=-1), "source_nvars"),
    (lambda d: d.update(source_odd=-1), "source_odd"),
], ids=["float-exponent", "string-exponent", "bool-odd-index",
        "negative-source-nvars", "negative-source-odd"])
def test_supermap_check_rejects_loose_fields(capsys, tmp_path, edit, field):
    p = write(tmp_path, "phi.json", _spoil(JUNK_MAP, edit))
    code, out, err = run_cli(capsys, ["supermap-check", p])
    assert code == 2 and out == ""
    assert " %s " % field in err


def test_sderham_d_and_d_squared(capsys, tmp_path):
    conn = write(tmp_path, "c.json", {"dim_base": 2, "dim_odd": 1,
        "entries": [[[[{"exps": [0, 1], "coeff": "1"}], []]]]})
    form = write(tmp_path, "w.json", [{"dxs": [], "sym": [0], "ext": [1],
        "coeff": [{"exps": [0, 0], "coeff": "1"}]}])
    code, out, _ = run_cli(capsys, ["sderham", "--conn", conn, "--op", "d",
                                    "--form", form])
    assert code == 0
    rep = json.loads(out)
    assert rep["checks"][0]["name"] == "d-squared-vanishes"
    # ds1^ext picks up the curved substitution term next to d s1^sym
    assert len(rep["result"]) == 2


def test_sderham_d_requires_form(capsys, tmp_path):
    conn = write(tmp_path, "c.json", {"dim_base": 1, "dim_odd": 1,
        "entries": [[[[]]]]})
    code, _, err = run_cli(capsys, ["sderham", "--conn", conn, "--op", "d"])
    assert code == 2 and "--form" in err


def test_sderham_delta_and_cohomology(capsys, tmp_path):
    conn = write(tmp_path, "c.json", {"dim_base": 2, "dim_odd": 1,
        "entries": [[[[{"exps": [0, 1], "coeff": "1"}], []]]]})
    code, out, _ = run_cli(capsys, ["sderham", "--conn", conn, "--op", "delta",
                                    "--k", "2", "--cutoff", "2"])
    assert code == 0
    rep = json.loads(out)
    assert rep["printed_delta_vanishes"] is True
    assert 0 in rep["eigenvalues"]
    code, out, _ = run_cli(capsys, ["sderham", "--conn", conn,
                                    "--op", "cohomology", "--k", "0"])
    assert code == 0 and json.loads(out)["dim"] == 1
    code, out, _ = run_cli(capsys, ["sderham", "--conn", conn,
                                    "--op", "cohomology", "--k", "1",
                                    "--cutoff", "1"])
    assert code == 0 and json.loads(out)["dim"] == 0


FLAT_1_1 = {"dim_base": 1, "dim_odd": 1, "entries": [[[[]]]]}
FLAT_3_2 = {"dim_base": 3, "dim_odd": 2, "entries": [[[[]] * 3] * 2] * 2}
FLAT_3_3 = {"dim_base": 3, "dim_odd": 3, "entries": [[[[]] * 3] * 3] * 3}
DENSE_2_4, DENSE_3_3, DENSE_4_4 = (dense_conn(m, n).to_json() for m, n in ((2, 4), (3, 3), (4, 4)))


# on a 1|1 connection --op delta assembles 2 (2k + 1)(cutoff + 1) monomials
# and --op cohomology at k = 0 2 (cutoff + 1), so delta at k = 12, cutoff 99
# and cohomology at cutoff 2499 sit at the limit; cohomology assembles 2,656
# on flat 3|3 at k = 3, cutoff 1 and 5,040 on flat 3|2 at k = 4, cutoff 3.
# A dense connection weighs each image monomial once per term of A plus
# once: 2|4 at k = 1, cutoff 0 weighs 96 + 97 * 48 = 4,752, while 4|4 at
# k = 2 and 3, cutoff 0, and 3|3 at k = 6, cutoff 0, which ran 12 s, 216 s
# and 70 s, weigh over 100,000
@pytest.mark.parametrize("conn, op, k, cutoff, code", [
    (FLAT_1_1, "delta", 12, 98, 0),
    (FLAT_1_1, "delta", 12, 99, 0),
    (FLAT_1_1, "delta", 12, 100, 3),
    (FLAT_1_1, "cohomology", 0, 2499, 0),
    (FLAT_1_1, "cohomology", 0, 2500, 3),
    (FLAT_3_3, "cohomology", 3, 1, 0),
    (FLAT_3_3, "delta", 10 ** 9, 10 ** 9, 3),
    (FLAT_3_2, "cohomology", 4, 3, 3),
    (DENSE_2_4, "cohomology", 1, 0, 0),
    (DENSE_4_4, "cohomology", 2, 0, 3),
    (DENSE_4_4, "cohomology", 3, 0, 3),
    (DENSE_3_3, "cohomology", 6, 0, 3),
])
def test_sderham_size_limit(capsys, tmp_path, conn, op, k, cutoff, code):
    assert SDERHAM_MAX_DIM == 5000
    p = write(tmp_path, "c.json", conn)
    start = time.perf_counter()
    got, _, err = run_cli(capsys, ["sderham", "--conn", p, "--op", op, "--k", str(k),
                                   "--cutoff", str(cutoff), "--quiet"])
    assert got == code and ("limit of 5000" in err) == (code == 3)
    assert code == 0 or time.perf_counter() - start < 0.5


def test_fuzz_all_small_passes(capsys):
    code, out, _ = run_cli(capsys, ["fuzz-all", "--seed", "7", "--budget", "small"])
    assert code == 0
    rep = json.loads(out)
    assert len(rep["checks"]) == 12
    names = [c["name"] for c in rep["checks"]]
    assert names == sorted(names)
    assert all(c["passed"] for c in rep["checks"])
    # every detail carries its own reproduction seed
    assert all("sub-seed" in c["detail"] for c in rep["checks"])


def test_fuzz_all_deterministic(capsys):
    runs = [run_cli(capsys, ["fuzz-all", "--seed", "42"]) for _ in range(2)]
    assert runs[0] == runs[1]
    other = run_cli(capsys, ["fuzz-all", "--seed", "43"])
    assert other[1] != runs[0][1]


def test_quiet_suppresses_report_not_code(capsys, tmp_path):
    p = write(tmp_path, "m.json", [["1"]])
    code, out, _ = run_cli(capsys, ["cp-homology", p, "--quiet"])
    assert code == 0 and out == ""
    bad = write(tmp_path, "d.json", {"images": [[{"coeff": "1", "ext": []}]]})
    code, out, _ = run_cli(capsys, ["derivation-classify", bad, "--quiet"])
    assert code == 1 and out == ""


def test_tsv_mode_layout(capsys):
    code, out, _ = run_cli(capsys, ["sder-dims", "--nmax", "2", "--out", "tsv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check\tstatus\tdetail"
    assert any(line.split("\t")[1] == "PASS" for line in lines[1:3])
    assert lines[-1] == "passed\ttrue"


def test_json_report_is_canonical(capsys):
    code, out, _ = run_cli(capsys, ["sder-dims", "--nmax", "1"])
    rep = json.loads(out)
    assert out == json.dumps(rep, sort_keys=True, separators=(",", ":")) + "\n"


def test_module_entry_point(tmp_path):
    p = write(tmp_path, "m.json", [["1"]])
    proc = subprocess.run([sys.executable, "-m", "superalg.cli",
                           "cp-homology", str(p), "--quiet"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == ""
    proc = subprocess.run([sys.executable, "-m", "superalg.cli",
                           "lie-check", str(tmp_path / "missing.json")],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and "malformed" in proc.stderr


def test_cached_parser_leaks_no_option_between_calls(capsys, tmp_path):
    # main parses with one parser per process; each call in a sequence must
    # print what the same argv prints in a fresh interpreter
    good = write(tmp_path, "good.json", {"even_dim": 1, "odd_dim": 1,
                                         "brackets": [{"i": 2, "j": 2, "coeffs": [1, 0]}]})
    argvs = [["lie-check", good, "--seed", "5", "--out", "tsv"],
             ["lie-check", good],
             ["lie-check", good, "--quiet", "--seed", "7"],
             ["lie-check", good, "--budget", "huge"],
             ["lie-check", str(tmp_path / "missing.json")],
             ["lie-check", good, "--out", "tsv"],
             ["lie-check", good]]
    alone = [subprocess.run([sys.executable, "-m", "superalg.cli", *argv],
                            capture_output=True, text=True) for argv in argvs]
    assert [proc.returncode for proc in alone] == [0, 0, 0, 2, 2, 0, 0]
    for argv, proc in zip(argvs, alone):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        cap = capsys.readouterr()
        assert (code, cap.out, cap.err) == (proc.returncode, proc.stdout, proc.stderr)
    assert json.loads(alone[1].stdout)["seed"] == 0 and alone[2].stdout == ""
    assert build_parser() is build_parser()


TENSOR_DOC = {"even_dim": 2, "odd_dim": 2, "kind": "sym",
              "terms": [{"coeff": "1/2", "even": [2, 1], "odd": [1, 2]}]}


@pytest.mark.parametrize("kind, field, bad", [
    ("sym", "odd", [True]),
    ("sym", "odd", [1.5]),
    ("sym", "even", [1.5]),
    ("sym", "even", [True]),
    ("ext", "even", [True]),
    ("ext", "even", ["1"]),
    ("ext", "odd", [1.5]),
    ("ext", "odd", [False]),
], ids=["sym-bool-odd", "sym-float-odd", "sym-float-even", "sym-bool-even",
        "ext-bool-even", "ext-string-even", "ext-float-odd", "ext-bool-odd"])
def test_tensor_normalize_rejects_non_integer_indices(capsys, tmp_path, kind, field, bad):
    doc = _spoil(TENSOR_DOC, lambda d: d.update(kind=kind))
    doc["terms"][0][field] = bad
    p = write(tmp_path, "t.json", doc)
    code, out, err = run_cli(capsys, ["tensor-normalize", p])
    assert code == 2 and out == ""
    assert err.startswith("error: malformed input: %s " % field)


FAMILY_DOC = {"dim_v": 1, "dim_s": 2, "components": [
    [{"coeff": "1", "ext": [], "s": 1}]]}


@pytest.mark.parametrize("bad", [True, 1.0, "1"], ids=["bool", "float", "string"])
def test_straighten_rejects_non_integer_target(capsys, tmp_path, bad):
    doc = _spoil(FAMILY_DOC, lambda d: d["components"][0][0].update(s=bad))
    p = write(tmp_path, "f.json", doc)
    code, out, err = run_cli(capsys, ["straighten", "--family", p])
    assert code == 2 and out == ""
    assert " s must be an integer" in err


GOLDEN = Path(__file__).parent / "golden"


# Reports of the value-printing subcommands, frozen byte for byte.  The
# tensor inputs list Sym indices out of order and carry signed fractions
# that collect on one key; the connection is curved and the form has Sym
# content, so every piece of super_d contributes.  The fuzz-all reports pin
# the random draws of every check, and seed -1 its reduction mod 2**64.
@pytest.mark.parametrize("report, argv, code", [
    ("tensor-normalize-sym", ["tensor-normalize", "tensor-sym.json"], 0),
    ("tensor-normalize-ext", ["tensor-normalize", "tensor-ext.json"], 0),
    ("straighten", ["straighten", "--family", "family.json"], 0),
    ("sderham-d", ["sderham", "--conn", "conn.json", "--op", "d", "--form", "form.json"], 0),
    ("derivation-classify", ["derivation-classify", "derivation.json"], 1),
    ("lie-check", ["lie-check", "lie-fail.json"], 1),
    ("jet-factor", ["jet-factor", "jet-op.json", "--order", "3", "--seed", "5"], 0),
    ("sderham-delta", ["sderham", "--conn", "conn.json", "--op", "delta",
                       "--k", "2", "--cutoff", "1"], 0),
    ("cp-homology", ["cp-homology", "--F", "F-frac.json", "--kmax", "3", "--lmax", "3"], 0),
    ("sderham-cohomology", ["sderham", "--op", "cohomology", "--conn", "conn.json"], 0),
    ("sder-dims-tsv", ["sder-dims", "--nmax", "4", "--out", "tsv"], 0),
    ("fuzz-all", ["fuzz-all", "--budget", "small", "--seed", "1"], 0),
    ("fuzz-all-tsv", ["fuzz-all", "--budget", "small", "--seed", "1", "--out", "tsv"], 0),
    ("fuzz-all-negative-seed", ["fuzz-all", "--seed", "-1"], 0),
])
def test_report_frozen(capsys, report, argv, code):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    want = (GOLDEN / (report + ".out")).read_text()
    assert run_cli(capsys, argv) == (code, want, "")


# Each fuzz-all check re-runs alone from the sub-seed on its report line.
@pytest.mark.parametrize("name", sorted(FUZZ_CHECKS))
def test_fuzz_check_reruns_alone(name):
    report = json.loads((GOLDEN / "fuzz-all.out").read_text())
    (line,) = [c for c in report["checks"] if c["name"] == name]
    seed = int(line["detail"].split(":")[0].split()[1])
    ok, detail = FUZZ_CHECKS[name](random.Random(seed), ROUNDS[report["budget"]])
    assert (ok, "sub-seed %d: %s" % (seed, detail)) == (line["passed"], line["detail"])


LIE_DOC = {"even_dim": 1, "odd_dim": 1,
           "brackets": [{"i": 2, "j": 2, "coeffs": [1, 0]}]}
CONN_DOC = {"dim_base": 2, "dim_odd": 1,
            "entries": [[[[{"exps": [0, 1], "coeff": "1"}], []]]]}
DERIVATION_DOC = {"images": [[{"coeff": "1", "ext": [2]}], [{"coeff": "1", "ext": [1]}]]}
JET_DOC = {"nvars": 1, "rank_in": 1, "rank_out": 1,
           "op": [{"alpha": [1], "matrix": [[[{"exps": [0], "coeff": "1"}]]]}]}
COHOMOLOGY = ["sderham", "--op", "cohomology", "--k", "1", "--cutoff", "1", "--conn"]


# Each document is valid but for one field, which the error must name.
@pytest.mark.parametrize("argv, doc, edit, want", [
    (["straighten", "--family"], FAMILY_DOC, lambda d: d.update(dim_v=True),
     "input: dim_v must be an integer"),
    (["straighten", "--family"], FAMILY_DOC, lambda d: d.update(dim_s=2.9),
     "input: dim_s must be an integer"),
    (COHOMOLOGY, CONN_DOC, lambda d: d.update(dim_base=2.5),
     "input: dim_base must be an integer"),
    (COHOMOLOGY, CONN_DOC, lambda d: d.update(dim_odd=True),
     "input: dim_odd must be an integer"),
    (COHOMOLOGY, CONN_DOC, lambda d: d.update(entries=5), "input: entries must be a list"),
    (["lie-check"], LIE_DOC, lambda d: d.update(even_dim=1.7),
     "input: even_dim must be an integer"),
    (["lie-check"], LIE_DOC, lambda d: d["brackets"][0].update(i=2.9),
     "input: i must be an integer"),
    (["lie-check"], LIE_DOC, lambda d: d["brackets"][0].update(j=True),
     "input: j must be an integer"),
    (["lie-check"], LIE_DOC, lambda d: d.update(extra=0), "'extra'"),
    (["lie-check"], LIE_DOC, lambda d: d["brackets"][0].update(extra=0), "'extra'"),
    (["derivation-classify"], DERIVATION_DOC, lambda d: d.update(extra=0), "'extra'"),
    (["derivation-classify"], DERIVATION_DOC,
     lambda d: d["images"][0][0].update(extra=0), "'extra'"),
    (["derivation-classify"], DERIVATION_DOC,
     lambda d: d["images"][0].append({"coeff": "1", "ext": [2]}), "duplicate term"),
    (["jet-factor", "--order", "1"], JET_DOC, lambda d: d["op"][0].update(matrix=5),
     "input: matrix must be a list"),
    (["jet-factor", "--order", "1"], JET_DOC, lambda d: d.update(rank_out=-1),
     "input: rank_out must be an integer"),
    (["cp-homology"], [["1"]], lambda d: d[0].__setitem__(0, "1e5"),
     "input: row 0 column 0 must be"),
    (["cp-homology"], [["1"]], lambda d: d[0].__setitem__(0, "1" * 5000),
     "input: row 0 column 0 must be"),
], ids=["straighten-bool-dim_v", "straighten-float-dim_s", "sderham-float-dim_base",
        "sderham-bool-dim_odd", "sderham-int-entries", "lie-float-even_dim",
        "lie-float-i", "lie-bool-j", "lie-unknown-key", "lie-unknown-term-key",
        "derivation-unknown-key", "derivation-unknown-term-key",
        "derivation-repeated-term", "jet-int-matrix", "jet-negative-rank_out",
        "cp-exponent-scalar", "cp-5000-digit-scalar"])
def test_malformed_field_is_exit_two(capsys, tmp_path, argv, doc, edit, want):
    p = write(tmp_path, "in.json", _spoil(doc, edit))
    code, out, err = run_cli(capsys, argv + [p])
    assert code == 2 and out == ""
    assert want in err


def test_supermap_check_into_purely_odd_target(capsys, tmp_path):
    # a map into 0|1 has no base map, so base functions pull back to constants
    p = write(tmp_path, "phi.json", {"source_nvars": 1, "source_odd": 2, "map": {
        "coord_images": [],
        "odd_images": [[{"exps": [0], "ext": [1], "coeff": "1"},
                        {"exps": [1], "ext": [2], "coeff": "2"}]]}})
    code, out, err = run_cli(capsys, ["supermap-check", p])
    assert code in (0, 1) and err == ""
    assert json.loads(out)["target"] == [0, 1]


def _golden(name):
    return json.loads((GOLDEN / name).read_text())


# One valid document per file-reading subcommand; "@" marks its path.
FUZZ_CASES = [
    (["cp-homology", "@"], [["1/2", "-1"], ["1", "0"]]),
    (["derivation-classify", "@"], DERIVATION_DOC),
    (["lie-check", "@"], LIE_DOC),
    (["tensor-normalize", "@"], _golden("tensor-sym.json")),
    (["tensor-normalize", "@"], _golden("tensor-ext.json")),
    (["straighten", "--family", "@"], FAMILY_DOC),
    (["jet-factor", "@", "--order", "1"], JET_DOC),
    (["supermap-check", "@"], {"source_nvars": 1, "source_odd": 2, "map": {
        "coord_images": [[{"exps": [1], "ext": [], "coeff": "1"},
                          {"exps": [0], "ext": [1, 2], "coeff": "1"}]],
        "odd_images": [[{"exps": [0], "ext": [1], "coeff": "1"}]]}}),
    (COHOMOLOGY + ["@"], CONN_DOC),
    (["sderham", "--op", "delta", "--k", "1", "--cutoff", "1", "--conn", "@"], CONN_DOC),
    (["sderham", "--op", "d", "--conn", str(GOLDEN / "conn.json"), "--form", "@"],
     _golden("form.json")),
]
JUNK = [None, True, 1.5, -1, "x", "1/0", [], {}]


def _nodes(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# Malformed documents give an exit code, never a traceback.
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_mutated_documents_never_raise(data):
    argv, doc = data.draw(st.sampled_from(FUZZ_CASES))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_nodes(doc))))
        doc = _replace(doc, path, data.draw(st.sampled_from(JUNK)))
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "in.json"
        p.write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([str(p) if a == "@" else a for a in argv])
    assert code in (0, 1, 2, 3)
