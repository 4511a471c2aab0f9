import json

import pytest

from twistriple.cli import build_parser, main
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


def test_check_tol_zero_passes_exact_residuals(tmp_path, capsys):
    # every residual of this catalog triple is exactly 0.0, and 0 <= 0 passes
    path = str(tmp_path / "c4.json")
    assert main(["catalog", "c4", "--d1", "3,0", "--d2", "4,0", "-o", path]) == 0
    code, out, _ = run(capsys, "check", path, "--tol", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(e["residual"] == 0.0 and e["pass"] for e in payload["entries"])
    assert payload["entries"][0] == {"condition": "dirac_selfadjoint", "residual": 0.0,
                                     "tol": 0.0, "pass": True}
    code, out, _ = run(capsys, "check", path, "--tol", "0")
    assert code == 0 and "overall: PASS" in out and "FAIL" not in out


def test_check_unreadable_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/triple.json")
    assert code == 2 and "error" in err


def test_check_truncated_file(tmp_path, capsys):
    path = tmp_path / "trunc.json"
    path.write_text('{"dim": 3, "points": 2')
    code, _, err = run(capsys, "check", str(path))
    assert code == 2


def test_check_integer_beyond_float_range_exits_2(tmp_path, capsys):
    base = tmp_path / "c3.json"
    assert main(["catalog", "c3", "--d1", "1,0", "-o", str(base)]) == 0
    doc = json.loads(base.read_text())
    doc["dirac"][0][0][0] = 10 ** 400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err == "error: dirac: entry (0,0) is not finite\n"


@pytest.mark.parametrize("entry", [[True, False], [1.0, True]], ids=["all-boolean", "mixed"])
def test_check_boolean_entry_exits_2(tmp_path, capsys, entry):
    base = tmp_path / "c3.json"
    assert main(["catalog", "c3", "--d1", "1,0", "-o", str(base)]) == 0
    doc = json.loads(base.read_text())
    doc["dirac"][1][2] = entry
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err == "error: dirac: entry (1,2) must be a [re, im] pair\n"


@pytest.mark.parametrize("command", ["check", "distance"])
def test_json_reports_carry_versions_and_tolerances(tmp_path, capsys, command):
    import sys

    import numpy

    import twistriple

    path = str(tmp_path / "c4.json")
    main(["catalog", "c4", "--d1", "3,0", "--d2", "4,0", "-o", path])
    plain = json.loads(run(capsys, command, path, "--json")[1])
    code, out, _ = run(capsys, command, path, "--json", "--tol", "1e-7")
    payload = json.loads(out)
    assert code == 0
    assert payload["versions"] == {"twistriple": twistriple.__version__,
                                   "numpy": numpy.__version__,
                                   "python": ".".join(map(str, sys.version_info[:3]))}
    assert payload["tol"] == {"abs_tol": 1e-7, "rank_tol": 1e-9}
    assert plain["tol"]["abs_tol"] == 1e-9
    old_keys = ({"entries", "overall_pass", "ko_dimension", "irreducible"} if command == "check"
                else {"value", "unbounded", "norm_de", "norm_twisted"})
    assert set(payload) == old_keys | {"versions", "tol"}


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


@pytest.mark.parametrize("twist", ["none", "perm", "perm_bad"])
@pytest.mark.parametrize("factor", [("--rho", "0.3", "--zeta", "9"), ("--rho", "0.3"),
                                    ("--zeta", "9"), ("--zeta", "1")])
def test_catalog_rejects_a_factor_without_twist_conformal(tmp_path, capsys, twist, factor):
    path = tmp_path / "x.json"
    code, out, err = run(capsys, "catalog", "c4", "--twist", twist, "--d1", "1,0", *factor,
                         "-o", str(path))
    assert code == 2 and out == "" and not path.exists()
    assert "rho and zeta apply only to the conformal families" in err


def test_catalog_c3_conformal_checks_d2(tmp_path, capsys):
    code, out, err = run(capsys, "catalog", "c3", "--twist", "conformal", "--rho", "0.5",
                         "--d1", "1,0", "--d2", "7,0")
    assert code == 2 and out == "" and "d3 = eps'*conj(d1)" in err
    # the forced value eps'*conj(d1) is accepted and gives the d2-less triple
    code, forced, _ = run(capsys, "catalog", "c3", "--twist", "conformal", "--rho", "0.5",
                          "--eps-prime=-1", "--d1", "1,2", "--d2=-1,2")
    assert code == 0
    code, omitted, _ = run(capsys, "catalog", "c3", "--twist", "conformal", "--rho", "0.5",
                           "--eps-prime=-1", "--d1", "1,2")
    assert code == 0 and forced == omitted


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


def test_fluctuate_tol_zero_accepts_an_exactly_selfadjoint_form(tmp_path, capsys):
    base = str(tmp_path / "c4.json")
    out_path = str(tmp_path / "c4f.json")
    assert main(["catalog", "c4", "--d1", "3,0", "--d2", "4,0", "-o", base]) == 0
    code, out, err = run(capsys, "fluctuate", base, "--phi", "0.5,0", "--tol", "0", "-o", out_path)
    assert (code, err) == (0, "")
    assert "family: c4_untwisted" in out
    assert load(out_path).dirac[0, 2] == 1.5


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


def test_rescale_and_distance_of_a_singular_twist_exit_2(tmp_path, capsys):
    from dataclasses import replace

    import numpy as np

    from twistriple.axioms import Twist
    from twistriple.catalog import build_c4
    from twistriple.documents import save

    path = str(tmp_path / "singular.json")
    save(replace(build_c4(1, 3.0, 4.0), twist=Twist(np.diag([1.0, 1.0, 0.0, 0.0]))), path)
    for argv in (["distance", path], ["rescale", path, "--rho", "0.3", "--zeta", "1.2"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: the twist nu is singular, so nu^-1 does not exist\n")


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


def test_scan_c2_json_carries_versions_and_tolerances(capsys):
    import sys

    import numpy

    import twistriple

    code, out, _ = run(capsys, "scan-c2", "--json", "--trials", "50", "--seed", "7")
    payload = json.loads(out)
    assert code == 0
    assert payload["versions"] == {"twistriple": twistriple.__version__,
                                   "numpy": numpy.__version__,
                                   "python": ".".join(map(str, sys.version_info[:3]))}
    assert payload["tol"] == {"abs_tol": 1e-9, "rank_tol": 1e-9}
    assert payload["conclusion"] is True and payload["failures_of_order_one"] == 250
    assert set(payload) == {"trials", "failures_of_order_one", "j_shapes_tested", "conclusion",
                            "versions", "tol"}
    code, out, _ = run(capsys, "scan-c2", "--json", "--trials", "50", "--seed", "7", "--tol", "1.5")
    payload = json.loads(out)
    assert code == 1 and payload["tol"]["abs_tol"] == 1.5 and not payload["conclusion"]


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


@pytest.mark.parametrize("field,value", [("dim", 3.9), ("points", "2"), ("rep", [0, 0, 1.7]), ("dim", True)])
def test_check_non_integer_header_exits_2(tmp_path, capsys, field, value):
    base = tmp_path / "c3.json"
    assert main(["catalog", "c3", "--d1", "1,0", "-o", str(base)]) == 0
    doc = json.loads(base.read_text())
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("real", [{"eps": True}, {"eps_prime": 1.0}, {"eps_dprime": "1"}],
                         ids=["eps=true", "eps_prime=1.0", "eps_dprime='1'"])
def test_check_non_integer_sign_exits_2(tmp_path, capsys, real):
    base = tmp_path / "c3.json"
    assert main(["catalog", "c3", "--d1", "1,0", "-o", str(base)]) == 0
    doc = json.loads(base.read_text())
    doc["real"].update(real)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err == f"error: real.{next(iter(real))} must be 1 or -1\n"


@pytest.mark.parametrize("field,name", [("real", "unitary"), ("twist", "nu")])
def test_check_a_structure_of_another_dimension_exits_2(tmp_path, capsys, field, name):
    base = tmp_path / "c4.json"
    assert main(["catalog", "c4", "--twist", "perm", "--d1", "1,0", "--d2", "2,0", "-o", str(base)]) == 0
    doc = json.loads(base.read_text())
    doc[field][name] = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {field}.{name}: expected 4 rows\n"


# ------------------------------------------------------------------ flag table

# subcommand -> (argv that parses without --tol and --json, the ones of them it reads)
FLAG_TABLE = {
    "check": (["check", "t.json"], {"--tol", "--json"}),
    "catalog": (["catalog", "c3"], set()),
    "fluctuate": (["fluctuate", "t.json", "--phi", "0.5,0"], {"--tol"}),
    "rescale": (["rescale", "t.json", "--rho", "0.25"], {"--tol"}),
    "distance": (["distance", "t.json"], {"--tol", "--json"}),
    "scan-c2": (["scan-c2"], {"--tol", "--json"}),
    "kodim": (["kodim", "--eps", "1", "--eps-prime", "1"], {"--json"}),
}
FLAG_ARGV = {"--tol": ["--tol", "1e-7"], "--json": ["--json"]}
FLAG_CASES = [(command, flag) for command in FLAG_TABLE for flag in FLAG_ARGV]


@pytest.mark.parametrize("command,flag", FLAG_CASES, ids=[f"{c} {f}" for c, f in FLAG_CASES])
def test_each_subcommand_accepts_only_the_flags_it_reads(capsys, command, flag):
    argv, accepted = FLAG_TABLE[command]
    argv = argv + FLAG_ARGV[flag]
    if flag in accepted:
        args = build_parser().parse_args(argv)
        assert (args.tol == 1e-7) if flag == "--tol" else args.json
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(FLAG_ARGV[flag])}" in capsys.readouterr().err
