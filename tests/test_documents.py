import json

import numpy as np
import pytest

from twistriple.catalog import build_c3, build_c4, build_conformal
from twistriple.documents import DocumentError, dumps, load, loads, save, to_document


def all_fixtures():
    return [
        build_c3(1, 1.0 / 3.0 - 0.123456789012345j),
        build_c3(-1, 2.0j, 0.7j, twist="perm"),
        build_c4(1, np.pi, np.e),
        build_c4(-1, 1.0 - 1.0j, 0.5, twist="perm"),
        build_c4(1, 1.0, 1.0, twist="perm_bad"),
        build_conformal("c3", 1, 1.0, rho=0.1234567890123456, zeta=1.75),
        build_conformal("c4", -1, 0.25 - 0.125j, 2.0, rho=0.7, zeta=0.3),
    ]


def triples_entrywise_equal(a, b):
    if not np.array_equal(a.dirac, b.dirac):
        return False
    if (a.grading is None) != (b.grading is None):
        return False
    if a.grading is not None and not np.array_equal(a.grading, b.grading):
        return False
    if (a.real is None) != (b.real is None):
        return False
    if a.real is not None:
        if not np.array_equal(a.real.j.u, b.real.j.u) or a.real.signs != b.real.signs:
            return False
    if (a.twist is None) != (b.twist is None):
        return False
    if a.twist is not None:
        if not np.array_equal(a.twist.nu, b.twist.nu):
            return False
        if a.twist.implements_algebra_automorphism != b.twist.implements_algebra_automorphism:
            return False
    return a.rep == b.rep


@pytest.mark.parametrize("idx", range(7))
def test_round_trip_is_entrywise_exact(idx):
    t = all_fixtures()[idx]
    assert triples_entrywise_equal(loads(dumps(t)), t)


@pytest.mark.parametrize("idx", range(7))
def test_resave_is_byte_identical(idx):
    t = all_fixtures()[idx]
    text = dumps(t)
    assert dumps(loads(text)) == text


def test_file_round_trip(tmp_path):
    t = build_c4(1, 1.0 - 0.5j, 2.0, twist="perm")
    path = tmp_path / "triple.json"
    save(t, path)
    assert triples_entrywise_equal(load(path), t)
    again = tmp_path / "again.json"
    save(load(path), again)
    assert path.read_bytes() == again.read_bytes()


def test_document_layout():
    doc = to_document(build_c3(1, 1.0))
    assert doc["dim"] == 3 and doc["points"] == 2
    assert doc["rep"] == [0, 0, 1]
    assert doc["dirac"][0][2] == [1.0, 0.0]
    assert doc["real"]["eps"] == 1 and doc["real"]["eps_dprime"] == 1
    assert doc["twist"] is None


def test_untwisted_ungraded_round_trip():
    from twistriple.algebra import REP_C2
    from twistriple.axioms import SpectralTriple

    t = SpectralTriple(rep=REP_C2, dirac=np.array([[0.5, 1.0j], [-1.0j, 0.25]]))
    back = loads(dumps(t))
    assert back.grading is None and back.real is None and back.twist is None
    assert np.array_equal(back.dirac, t.dirac)


def test_truncated_document_rejected():
    text = dumps(build_c3(1, 1.0))
    with pytest.raises(DocumentError):
        loads(text[: len(text) // 2])


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("dirac"),
    lambda d: d.__setitem__("rep", [0, 0]),
    lambda d: d.__setitem__("points", 3),
    lambda d: d["dirac"][0].__setitem__(0, [1.0]),
    lambda d: d["dirac"][0].__setitem__(0, [float("nan"), 0.0]),
    lambda d: d["real"].__setitem__("eps", 2),
    lambda d: d["real"].pop("unitary"),
])
def test_malformed_documents_rejected(mutate):
    doc = json.loads(dumps(build_c3(1, 1.0)))
    mutate(doc)
    with pytest.raises(DocumentError):
        loads(json.dumps(doc))


def test_non_selfadjoint_dirac_still_loads():
    # structural validity only; selfadjointness is reported by check_all
    doc = json.loads(dumps(build_c3(1, 1.0)))
    doc["dirac"][0][1] = [5.0, 5.0]
    t = loads(json.dumps(doc))
    from twistriple.axioms import check_all

    assert "dirac_selfadjoint" in check_all(t).failing()


# ------------------------------------------ dumps against the json.dumps encoder

def _reference_document(t):
    """The document dict as it was built before the direct emitter."""
    def matrix(m):
        return [[[float(v.real) + 0.0, float(v.imag) + 0.0] for v in row]
                for row in np.asarray(m, dtype=complex)]

    doc = {
        "dim": t.dim,
        "points": t.rep.n_points,
        "rep": list(t.rep.point_of),
        "dirac": matrix(t.dirac),
        "grading": None if t.grading is None else matrix(t.grading),
        "real": None,
        "twist": None,
    }
    if t.real is not None:
        doc["real"] = {
            "unitary": matrix(t.real.j.u),
            "eps": t.real.signs.eps,
            "eps_prime": t.real.signs.eps_prime,
            "eps_dprime": t.real.signs.eps_dprime,
        }
    if t.twist is not None:
        doc["twist"] = {
            "nu": matrix(t.twist.nu),
            "implements_automorphism": bool(t.twist.implements_algebra_automorphism),
        }
    return doc


def _reference_dumps(t):
    return json.dumps(_reference_document(t), sort_keys=True, indent=2) + "\n"


def _emitter_cases():
    from twistriple.algebra import REP_C2, REP_C4
    from twistriple.axioms import RealStructure, SignTriple, SpectralTriple, Twist
    from twistriple.catalog import build_c4_perm_conformal_composite
    from twistriple.linalg import Antiunitary

    rng = np.random.default_rng(51)
    cases = list(all_fixtures())
    for eps in (1, -1):
        r = 1.0 if eps == 1 else 1j
        cases += [build_c3(eps, 0.3 - 1.7j),
                  build_c3(eps, r * 0.6, r * 2.5, twist="perm"),
                  build_c4(eps, 1e-7 + 3e5j, -2.0),
                  build_c4(eps, 1.0 / 7.0, 1e12j, twist="perm"),
                  build_conformal("c3", eps, 1e-300 + 1j, rho=0.25, zeta=0.5),
                  build_conformal("c4", eps, 1e8, 1e-8j, rho=0.9, zeta=3.0),
                  build_c4_perm_conformal_composite(eps, 0.5 + 0.5j, 1.5, rho=0.2, zeta=1.1)]
    # ungraded, no real structure; and a real triple without eps''
    cases.append(SpectralTriple(rep=REP_C2, dirac=np.array([[0.5, 1.0j], [-1.0j, 0.25]])))
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    cases.append(SpectralTriple(rep=REP_C2, dirac=np.array([[1.0, 2.0], [2.0, -1.0]]),
                                real=RealStructure(Antiunitary(u),
                                                   SignTriple(eps=1, eps_prime=-1))))
    # a twist that does not implement an automorphism, a Fortran-ordered Dirac
    # operator, and the float extremes, with -0.0 in every matrix
    t = build_c4(1, 1.0, 2.0, twist="perm")
    extremes = np.array([[-0.0, 5e-324, 1e-300, 1.7976931348623157e308],
                         [complex(-0.0, -0.0), -5e-324j, -1e-300, -1.7976931348623157e308j],
                         [1e16, 1.0 / 3.0, complex(0.1, -0.0), 123456789.125],
                         [2.0 ** -1074, -2.5e-310, 1e-5, 1e21]], dtype=complex)
    cases.append(SpectralTriple(
        rep=REP_C4, dirac=(rng.standard_normal((4, 4)) + 0j).T,
        grading=extremes, real=RealStructure(Antiunitary(extremes.T), t.real.signs),
        twist=Twist(-extremes, implements_algebra_automorphism=False)))
    return cases


def test_dumps_is_byte_identical_to_json_encoder():
    cases = _emitter_cases()
    assert len(cases) == 24
    assert not cases[-1].dirac.flags.c_contiguous
    for t in cases:
        text = dumps(t)
        assert text == _reference_dumps(t)
        assert to_document(t) == json.loads(text) == _reference_document(t)
        assert dumps(loads(text)) == text
