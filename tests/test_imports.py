"""Start-up discipline of the package and of the `twistriple` command.

Every check runs a fresh interpreter, so that the modules it sees are the
ones the import or the command loaded, not those earlier tests imported.
Commands run through the real `python -m twistriple.cli` entry point, with
`-X importtime` listing every module the process imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twistriple.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

# The package namespace as the eager imports built it: module -> names.
PUBLIC_NAMES = {
    "algebra": ["REP_C2", "REP_C3", "REP_C4", "Representation", "embed", "projection_e"],
    "axioms": ["CheckEntry", "CheckReport", "RealStructure", "SignTriple", "SpectralTriple",
               "Twist", "check_all", "check_epsilon_prime", "check_grading", "check_order_zero",
               "check_twisted_order_one", "check_twisted_regularity", "is_irreducible",
               "ko_dimension"],
    "catalog": ["C3_CONFORMAL", "C3_PERM", "C3_UNTWISTED", "C4_CONFORMAL", "C4_PERM",
                "C4_UNTWISTED", "CatalogConstraintError", "DiracFamily", "ScanReport", "build_c3",
                "build_c4", "build_c4_perm_conformal_composite", "build_conformal", "build_family",
                "catalog_family", "derive_family", "fluctuated_distance_formula",
                "fluctuation_orbit_params", "identify_family", "scan_c2_nonexistence"],
    "conformal": ["ConformalFactor", "TwistCompositionError", "check_gauge_conformal_compat",
                  "equivalent_commutant_factor", "rescale"],
    "distance": ["DistanceResult", "distance_bruteforce", "fluctuated_distance_check",
                 "spectral_distance"],
    "documents": ["DocumentError", "from_document", "load", "loads", "save", "to_document"],
    "forms": ["OneForm", "antihermitian_one_form", "fluctuate", "fluctuate_chiral",
              "is_fluctuation_of", "is_selfadjoint_form", "omega1_equal", "one_form",
              "selfadjoint_one_form"],
    "linalg": ["DEFAULT_TOL", "Antiunitary", "ToleranceConfig", "commutant_dimension",
               "commutator", "operator_norm", "solve_linear_family"],
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_env(), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=120)


def run_entry_point(*argv: str):
    """Exit code, stdout, other stderr and imported modules of `python -m twistriple.cli argv`."""
    proc = _python("-X", "importtime", "-m", "twistriple.cli", *argv)
    modules, err = set(), []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            modules.add(line.rsplit("|", 1)[1].strip())
        else:
            err.append(line)
    return proc.returncode, proc.stdout, "\n".join(err), modules


_NAMESPACE_PROBE = """
import importlib, json, sys
import twistriple
loaded_by_import = sorted(m for m in sys.modules if m.startswith("twistriple."))
numpy_by_import = "numpy" in sys.modules
table = json.loads(sys.argv[1])
mismatched = [f"{mod}.{name}" for mod, names in table.items() for name in names
              if getattr(twistriple, name) is not getattr(importlib.import_module("twistriple." + mod), name)]
print(json.dumps({
    "loaded_by_import": loaded_by_import,
    "numpy_by_import": numpy_by_import,
    "mismatched": mismatched,
    "all": twistriple.__all__,
    "dir": dir(twistriple),
    "cached": sorted(n for names in table.values() for n in names if n in vars(twistriple)),
    "submodule": twistriple.linalg is sys.modules["twistriple.linalg"],
    "signs_reexported": (twistriple.axioms.SignTriple is twistriple.signs.SignTriple
                         and twistriple.axioms.ko_dimension is twistriple.signs.ko_dimension),
    "missing_name": hasattr(twistriple, "no_such_name"),
}))
"""


def test_package_namespace_is_lazy_and_complete():
    proc = _python("-c", _NAMESPACE_PROBE, json.dumps(PUBLIC_NAMES))
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["loaded_by_import"] == [] and not probe["numpy_by_import"]
    assert probe["mismatched"] == []
    names = sorted(n for group in PUBLIC_NAMES.values() for n in group)
    assert probe["all"] == names
    assert set(names) <= set(probe["dir"]) and "linalg" in probe["dir"]
    assert probe["cached"] == names
    assert probe["submodule"] and probe["signs_reexported"]
    assert not probe["missing_name"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry")
    paths = {k: str(root / f"{k}.json") for k in ("c4", "bad", "broken", "out", "fl", "resc")}
    assert main(["catalog", "c4", "--d1", "3,0", "--d2", "4,0", "-o", paths["c4"]]) == 0
    assert main(["catalog", "c4", "--twist", "perm_bad", "--d1", "1,0", "--d2", "1,0",
                 "-o", paths["bad"]]) == 0
    with open(paths["c4"], encoding="ascii") as fh:
        Path(paths["broken"]).write_text(fh.read().replace('"dim": 4', '"dim": 3'))
    return paths


# (argv with {file} placeholders, expected exit, a module that must be loaded,
#  a module that must not be); the loaded one shows the import listing works.
ENTRY_CASES = {
    "catalog": (["catalog", "c4", "--d1", "3,0", "--d2", "4,0", "-o", "{out}"], 0,
                "twistriple.catalog", None),
    "check": (["check", "{c4}"], 0, "numpy", "twistriple.catalog"),
    "check_perm_bad": (["check", "{bad}", "--json"], 1, "twistriple.axioms", "twistriple.catalog"),
    "check_malformed": (["check", "{broken}"], 2, "twistriple.documents", "twistriple.catalog"),
    "fluctuate": (["fluctuate", "{c4}", "--phi", "0.5,0", "-o", "{fl}"], 0, "twistriple.forms",
                  None),
    "rescale": (["rescale", "{c4}", "--rho", "0.25", "--zeta", "2", "-o", "{resc}"], 0,
                "twistriple.conformal", "twistriple.catalog"),
    "distance": (["distance", "{c4}", "--json"], 0, "twistriple.distance", "twistriple.catalog"),
    "scan-c2": (["scan-c2", "--trials", "20", "--seed", "3"], 0, "twistriple.catalog", None),
    "kodim": (["kodim", "--eps", "1", "--eps-prime", "1", "--eps-dprime", "1"], 0,
              "twistriple.signs", "numpy"),
}


def test_kodim_loads_no_dataclasses():
    code, out, _, modules = run_entry_point("kodim", "--eps", "1", "--eps-prime", "1", "--eps-dprime", "1")
    assert (code, out.strip()) == (0, "0")
    assert "twistriple.signs" in modules
    assert "dataclasses" not in modules and "numpy" not in modules


@pytest.mark.parametrize("case", sorted(ENTRY_CASES))
def test_entry_point_exit_codes_output_and_imports(case, files, capsys):
    argv, code, loaded, not_loaded = ENTRY_CASES[case]
    argv = [a.format(**files) for a in argv]
    got_code, out, err, modules = run_entry_point(*argv)
    assert got_code == code, err
    assert (err != "") == (code == 2)
    assert loaded in modules
    assert not_loaded is None or not_loaded not in modules
    # the entry point prints what main() prints in-process
    assert main(argv) == code
    assert out == capsys.readouterr().out
