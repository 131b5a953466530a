"""Command line front end: exit codes, determinism, report formats."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from superalg.cli import fnv1a64, main, sub_seed


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
# content, so every piece of super_d contributes.
@pytest.mark.parametrize("report, argv, code", [
    ("tensor-normalize-sym", ["tensor-normalize", "tensor-sym.json"], 0),
    ("tensor-normalize-ext", ["tensor-normalize", "tensor-ext.json"], 0),
    ("straighten", ["straighten", "--family", "family.json"], 0),
    ("sderham-d", ["sderham", "--conn", "conn.json", "--op", "d", "--form", "form.json"], 0),
    ("derivation-classify", ["derivation-classify", "derivation.json"], 1),
])
def test_report_frozen(capsys, report, argv, code):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    want = (GOLDEN / (report + ".out")).read_text()
    assert run_cli(capsys, argv) == (code, want, "")
