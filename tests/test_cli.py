import json

import pytest

from twistriple.cli import main
from twistriple.documents import load


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------- check

def test_check_passes_on_catalog_file(tmp_path, capsys):
    path = str(tmp_path / "t.json")
    assert main(["catalog", "c4", "--d1", "1,0", "--d2", "0,1", "-o", path]) == 0
    code, out, _ = run(capsys, "check", path)
    assert code == 0
    assert "overall: PASS" in out
    assert "ko_dimension: 0" in out


def test_check_perm_bad_fails_exactly_regularity(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    assert main(["catalog", "c4", "--twist", "perm_bad", "--d1", "1,0",
                 "--d2", "1,0", "-o", path]) == 0
    code, out, _ = run(capsys, "check", path, "--json")
    assert code == 1
    payload = json.loads(out)
    failing = [e["condition"] for e in payload["entries"] if not e["pass"]]
    assert failing == ["twisted_regularity"]


def test_check_unreadable_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/triple.json")
    assert code == 2 and "error" in err


def test_check_truncated_file(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"dim": 3, "points": 2')
    code, _, err = run(capsys, "check", str(path))
    assert code == 2


# --------------------------------------------------------------------- catalog

def test_catalog_constraint_violation_names_relation(tmp_path, capsys):
    code, _, err = run(capsys, "catalog", "c3", "--d1", "1,0", "--d2", "2,0",
                       "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "d3 = eps'*conj(d1)" in err


def test_catalog_perm_bad_needs_eps_prime_plus_one(tmp_path, capsys):
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "catalog", "c4", "--twist", "perm_bad", "--eps-prime=-1",
                         "-o", str(path))
    assert code == 2 and out == "" and not path.exists()
    assert "the perm_bad fixture exists only for eps' = +1" in err


def test_catalog_perm_bad_defaults_d2_to_the_derived_value(tmp_path, capsys):
    from twistriple.catalog import build_c4
    from twistriple.documents import dumps

    path = tmp_path / "bad.json"
    code, _, err = run(capsys, "catalog", "c4", "--twist", "perm_bad", "--d1", "1,0.5",
                       "-o", str(path))
    assert code == 0 and err == ""
    assert path.read_text(encoding="ascii") == dumps(build_c4(1, 1 + 0.5j, twist="perm_bad"))


def test_catalog_writes_to_stdout_by_default(capsys):
    code, out, _ = run(capsys, "catalog", "c3", "--d1", "1,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3


def test_catalog_conformal_requires_rho(tmp_path, capsys):
    code, _, err = run(capsys, "catalog", "c3", "--twist", "conformal", "--d1", "1,0")
    assert code == 2 and "--rho" in err


# ------------------------------------------------------------------- fluctuate

def test_fluctuate_halves_d1_doubles_distance(tmp_path, capsys):
    base = str(tmp_path / "c3.json")
    out_path = str(tmp_path / "c3f.json")
    main(["catalog", "c3", "--d1", "1,0", "-o", base])
    code, out, _ = run(capsys, "fluctuate", base, "--phi", "0.5,0", "-o", out_path)
    assert code == 0
    assert "family: c3_untwisted" in out
    assert load(out_path).dirac[0, 2] == 0.5
    code, out, _ = run(capsys, "distance", out_path)
    assert "distance: 2" in out


def test_fluctuate_phi_zero_is_byte_identical(tmp_path):
    base = tmp_path / "c3.json"
    out_path = tmp_path / "same.json"
    main(["catalog", "c3", "--d1", "1,0", "-o", str(base)])
    assert main(["fluctuate", str(base), "--phi", "0,0", "-o", str(out_path)]) == 0
    assert base.read_bytes() == out_path.read_bytes()


def test_fluctuate_imaginary_phi_fixes_perm_family(tmp_path):
    base = tmp_path / "perm.json"
    out_path = tmp_path / "perm_i.json"
    main(["catalog", "c3", "--twist", "perm", "--d1", "1,0", "--d2", "2,0",
          "-o", str(base)])
    assert main(["fluctuate", str(base), "--phi", "0,1", "-o", str(out_path)]) == 0
    # 1 - phi - conj(phi) = 1 for imaginary phi, so the Dirac is unchanged
    assert base.read_bytes() == out_path.read_bytes()


def test_fluctuate_chiral_needs_grading(tmp_path, capsys):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "dim": 2, "points": 2, "rep": [0, 1],
        "dirac": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        "grading": None,
        "real": {"unitary": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                 "eps": 1, "eps_prime": 1, "eps_dprime": None},
        "twist": None,
    }))
    code, _, err = run(capsys, "fluctuate", str(path), "--phi", "0.5,0", "--chiral")
    assert code == 2 and "graded" in err


def test_fluctuate_bad_phi_literal(tmp_path, capsys):
    base = tmp_path / "c3.json"
    main(["catalog", "c3", "--d1", "1,0", "-o", str(base)])
    code, _, err = run(capsys, "fluctuate", str(base), "--phi", "half")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("catalog", "c3", "--d1", "nan"),
    ("catalog", "c4", "--d1", "1,0", "--d2", "0,inf"),
    ("catalog", "c3", "--twist", "conformal", "--d1", "1,0", "--rho", "0.5", "--zeta", "inf"),
    ("fluctuate", "{base}", "--phi", "nan"),
    ("fluctuate", "{base}", "--phi", "0,-inf", "--chiral"),
    ("check", "{base}", "--tol", "nan"),
    ("check", "{base}", "--tol", "inf"),
    ("distance", "{base}", "--tol", "nan"),
    ("rescale", "{base}", "--rho", "0.25", "--zeta", "inf"),
    ("rescale", "{base}", "--rho", "nan"),
])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, argv):
    base = str(tmp_path / "c3.json")
    main(["catalog", "c3", "--d1", "1,0", "-o", base])
    code, out, err = run(capsys, *(a.format(base=base) for a in argv))
    assert code == 2 and "error" in err and out == ""


# --------------------------------------------------------------------- rescale

def test_rescale_command_produces_twisted_triple(tmp_path, capsys):
    base = str(tmp_path / "c3.json")
    out_path = str(tmp_path / "c3r.json")
    main(["catalog", "c3", "--d1", "1,0", "-o", base])
    assert main(["rescale", base, "--rho", "0.25", "--zeta", "2.0", "-o", out_path]) == 0
    t = load(out_path)
    assert t.twist is not None
    code, out, _ = run(capsys, "check", out_path)
    assert code == 0


def test_rescale_perm_twisted_input_rejected(tmp_path, capsys):
    base = str(tmp_path / "perm.json")
    main(["catalog", "c4", "--twist", "perm", "--d1", "1,0", "--d2", "2,0", "-o", base])
    code, _, err = run(capsys, "rescale", base, "--rho", "0.25")
    assert code == 2 and "twist-invariant" in err


# -------------------------------------------------------------------- distance

def test_distance_c4(tmp_path, capsys):
    path = str(tmp_path / "c4.json")
    main(["catalog", "c4", "--d1", "3,0", "--d2", "4,0", "-o", path])
    code, out, _ = run(capsys, "distance", path)
    assert code == 0
    assert "distance: 0.25" in out
    assert "norm [D,e]: 4" in out


def test_distance_unbounded(tmp_path, capsys):
    path = str(tmp_path / "zero.json")
    main(["catalog", "c4", "--d1", "0,0", "--d2", "0,0", "-o", path])
    code, out, _ = run(capsys, "distance", path)
    assert "distance: unbounded" in out


def test_distance_conformal_example(tmp_path, capsys):
    path = str(tmp_path / "conf.json")
    main(["catalog", "c3", "--twist", "conformal", "--rho", "0.5", "--zeta", "1",
          "--d1", "1,0", "-o", path])
    code, out, _ = run(capsys, "distance", path)
    assert "distance: 4" in out


def test_distance_json_output(tmp_path, capsys):
    path = str(tmp_path / "c4.json")
    main(["catalog", "c4", "--d1", "3,0", "--d2", "4,0", "-o", path])
    code, out, _ = run(capsys, "distance", path, "--json")
    payload = json.loads(out)
    assert payload["value"] == 0.25 and payload["norm_de"] == 4.0


# ------------------------------------------------------------------ scan, kodim

def test_scan_c2_exit_and_determinism(capsys):
    code1, out1, _ = run(capsys, "scan-c2", "--trials", "25", "--seed", "9")
    code2, out2, _ = run(capsys, "scan-c2", "--trials", "25", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "conclusion: nonexistence confirmed" in out1


def test_kodim_values(capsys):
    assert run(capsys, "kodim", "--eps", "1", "--eps-prime", "1", "--eps-dprime", "1")[1].strip() == "0"
    assert run(capsys, "kodim", "--eps", "-1", "--eps-prime", "1", "--eps-dprime", "-1")[1].strip() == "2"
    assert run(capsys, "kodim", "--eps", "1", "--eps-prime", "-1")[1].strip() == "1"


def test_kodim_absent_combination(capsys):
    code, _, err = run(capsys, "kodim", "--eps", "1", "--eps-prime", "-1",
                       "--eps-dprime", "1")
    assert code == 2 and "KO-dimension table" in err


# ------------------------------------------------------------------- round trip

def test_full_pipeline_round_trip(tmp_path, capsys):
    base = str(tmp_path / "c4.json")
    fl = str(tmp_path / "c4f.json")
    assert main(["catalog", "c4", "--d1", "3,0", "--d2", "4,0", "-o", base]) == 0
    assert main(["check", base]) == 0
    capsys.readouterr()
    assert main(["fluctuate", base, "--phi", "0.5,0", "-o", fl]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "distance", fl)
    assert "distance: 0.5" in out
    # save -> load -> save reproduces bytes through the CLI path as well
    resaved = str(tmp_path / "resave.json")
    t = load(fl)
    from twistriple.documents import save

    save(t, resaved)
    with open(fl, "rb") as f1, open(resaved, "rb") as f2:
        assert f1.read() == f2.read()
