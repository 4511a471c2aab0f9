"""The structure of a triple: a frame and a twist, shared by identity, keeping
what they derive without D.

A triple is a structure (axioms._Structure) and a Dirac operator. The frame
(axioms._Frame: the representation, the grading, J with its signs) keeps
check_all's nu-free "entries" at the last tol a call used, the map L of its
D-linear terms with the plain J-images ("dirac_map"), is_irreducible's
"commutant" map and the document's "template"; the structure keeps the nu
"entries", the "dirac_operands" (that same L unless nu^2 moves the point
projections, and epsilon''s two factors), identify_family's "shape" match at
the last tol and the document's "twist_text". Every member of a catalog
family and sign shares one structure; a rescaling or a conformal member
shares its base's frame; the derived triples keep their structure; dumps
registers the structure by its texts, and loads returns a triple on it.
Their matrices are read-only copies with -0.0 folded into +0.0.

Sharing is by identity, so a shared structure, a fresh one from the public
constructor and the references without kept data must agree bitwise:
test_axioms' reference with the exact twist rule, and within test_oracle's
band on the one dense grading below.
"""

import copy
import gc
import json
import pickle
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from test_axioms import _assert_within_the_band, _reference_check_all
from test_documents import _reference_dumps, _reference_loads, _triple_bits
from twistriple import axioms, catalog, documents
from twistriple.axioms import RealStructure, SpectralTriple, Twist, check_all
from twistriple.catalog import (
    C3_CONFORMAL,
    C3_PERM,
    C3_UNTWISTED,
    C4_CONFORMAL,
    C4_PERM,
    C4_UNTWISTED,
    build_c4,
    build_c4_perm_conformal_composite,
    build_family,
    identify_family,
)
from twistriple.conformal import ConformalFactor, rescale
from twistriple.distance import distance_bruteforce, spectral_distance
from twistriple.documents import dumps, from_document, loads
from twistriple.linalg import DEFAULT_TOL, Antiunitary, ToleranceConfig

TOL12 = ToleranceConfig(abs_tol=1e-12)
TOL0 = ToleranceConfig(abs_tol=0.0)


def _fresh(t, dirac=None):
    """t from the public constructor on copies of its matrices: a structure of its own."""
    real, twist = t.real, t.twist
    return SpectralTriple(
        t.rep, (t.dirac if dirac is None else dirac).copy(), None if t.grading is None else t.grading.copy(),
        None if real is None else RealStructure(Antiunitary(real.j.u.copy()), real.signs),
        None if twist is None else Twist(twist.nu.copy(), twist.implements_algebra_automorphism))


def _member(kind, eps, rng):
    """A random member of a family or fixture; members of one kind and eps share their frame."""
    d1, d2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    if kind == C3_PERM:  # conj(d) = eps' d
        unit = 1.0 if eps == 1 else 1j
        return build_family(kind, eps, unit * d1.real, unit * d2.real)
    if kind in (C3_CONFORMAL, C4_CONFORMAL):
        return build_family(kind, eps, d1, None if kind == C3_CONFORMAL else d2, rho=0.3, zeta=1.4)
    if kind == "perm_bad":
        return build_c4(1, d1, twist="perm_bad")
    if kind == "perm_conformal":
        return build_c4_perm_conformal_composite(eps, d1, d2, rho=0.2, zeta=1.1)
    return build_family(kind, eps, d1, None if kind == C3_UNTWISTED else d2)


KINDS = [(k, e) for k in (C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM, C3_CONFORMAL, C4_CONFORMAL,
                          "perm_conformal") for e in (1, -1)] + [("perm_bad", 1)]
FIXED = (C3_UNTWISTED, C3_PERM, C4_UNTWISTED, C4_PERM, "perm_bad")  # one structure per kind and eps


def _bits(report):
    return [(e.condition, e.residual.hex(), e.tol_used) for e in report.entries]


def _hex_bits(report):
    return [(e.condition, e.residual.hex(), e.tol_used.hex()) for e in report.entries]


def _reference_bits(t, tol):
    return [(c, float(r).hex(), used) for c, r, used in _reference_check_all(t, tol, exact_twists=True)]


def _outputs(t):
    """What check_all at 1e-9, 0.0 and -0.0, identify_family, spectral_distance, dumps and
    loads give for t, bitwise."""
    text = dumps(t)
    distance = spectral_distance(t)
    return ([_hex_bits(check_all(t, tol)) for tol in (DEFAULT_TOL, TOL0, ToleranceConfig(-0.0))],
            repr(identify_family(t)), (distance.value.hex(), distance.norm_de.hex(), repr(distance.norm_twisted)),
            text, _triple_bits(loads(text)))


@pytest.mark.parametrize("case", range(len(KINDS)))
def test_sharing_by_identity_gives_the_results_of_a_fresh_structure(case):
    kind, eps = KINDS[case]
    rng = np.random.default_rng(200 + case)
    for t in (_member(kind, eps, rng), _member(kind, eps, rng)):  # the second on warm shared data
        fresh = _fresh(t)
        assert fresh._structure is not t._structure and fresh._structure.frame is not t._structure.frame
        assert _outputs(t) == _outputs(fresh) == _outputs(t)


@pytest.mark.parametrize("case", range(len(KINDS)))
def test_cold_and_warm_structures_match_the_references(case):
    kind, eps = KINDS[case]
    rng = np.random.default_rng(case)
    first, second = _member(kind, eps, rng), _member(kind, eps, rng)
    assert first._structure.frame is second._structure.frame
    assert (first._structure is second._structure) == (kind in FIXED)
    results = []
    for t in (first, second, second):  # then with another D, then with the same D
        for tol in (DEFAULT_TOL, TOL12):
            assert _bits(check_all(t, tol)) == _reference_bits(t, tol)
        text = dumps(t)
        assert text == _reference_dumps(t)
        assert _triple_bits(loads(text)) == _triple_bits(from_document(json.loads(text)))
        results.append((identify_family(t), text))
    assert results[1] == results[2]
    # the kept identify_family result equals that of a fresh structure
    assert identify_family(_fresh(second)) == results[1][0]
    want = None if kind in ("perm_bad", "perm_conformal") else kind
    assert (results[0][0] or (None,))[0] == want


def test_kept_entries_apply_each_calls_tol():
    base = build_family(C4_PERM, 1, 1.0 - 0.5j, 0.25 + 1.0j)
    t = SpectralTriple(base.rep, base.dirac, base.grading + 1e-10 * np.eye(4)[::-1], base.real, base.twist)
    for tol in (DEFAULT_TOL, TOL12, DEFAULT_TOL):
        report = check_all(t, tol)
        got = [(e.condition, e.residual, e.tol_used) for e in report.entries]
        want = _reference_check_all(t, tol, exact_twists=True)
        # the grading has off-diagonal entries, whose products the D map sums in
        # another order than gamma D + D gamma: that residual lies within the band
        assert got[:4] + got[5:] == want[:4] + want[5:] and got[4][0] == "grading_anticommutes_dirac"
        _assert_within_the_band(t, got, want)
        assert report.entry("grading_squares_to_identity").passed == (tol is DEFAULT_TOL)
        for part in (t._structure.frame, t._structure):
            assert part.__dict__["entries"][0] == tol.abs_tol.hex()
    # identify_family's match depends on tol; the structure keeps that of the last call
    for tol in (DEFAULT_TOL, TOL12, DEFAULT_TOL):
        assert (identify_family(t, tol) is None) == (tol is TOL12)
        assert t._structure.__dict__["shape"][0] is tol


def test_one_shape_match_per_structure():
    t = build_family(C4_PERM, 1, 1.0 - 0.5j, 0.25 + 1.0j)
    t = t.with_dirac(t.dirac)
    kept = t._structure.__dict__
    before = set(kept)
    # perturbed twists whose verdicts change across the tolerances swept
    probes = [t] + [SpectralTriple(t.rep, t.dirac, t.grading, t.real, Twist(t.nu + scale * np.eye(4)))
                    for scale in (1e-11, 1e-9)]
    for k, tol in enumerate(ToleranceConfig(x) for x in np.geomspace(1e-13, 1e-7, 1000)):
        for probe in probes:
            got = identify_family(probe, tol)
            want = catalog._shape_match(probe, tol)
            assert (got[0] if got else ()) == (want[0] if want else ()), k
            assert probe._structure.__dict__["shape"] == (tol, want)
    assert set(kept) == before | {"shape"}


def test_a_new_twist_computes_only_the_terms_that_read_nu(monkeypatch):
    calls = []
    for name in ("_nu_free_terms", "_twist_terms"):
        def counted(t, basis, _name=name, _terms=getattr(axioms, name)):
            calls.append(_name)
            return _terms(t, basis)
        monkeypatch.setattr(axioms, name, counted)
    base = _fresh(build_family(C4_UNTWISTED, 1, 1.0, 2.0))
    for rho in (0.2, 0.3, 0.3):  # each rescaling is a new structure on base's frame
        t = rescale(base, ConformalFactor(zeta=1.0, rho=rho))
        assert t._structure.frame is base._structure.frame
        for _ in range(2):
            assert _bits(check_all(t)) == _reference_bits(t, DEFAULT_TOL)
    assert calls == ["_nu_free_terms", "_twist_terms", "_twist_terms", "_twist_terms"]


def test_structure_matrices_are_read_only_copies():
    for m in (catalog.GAMMA4, catalog.U4, catalog.NU4_PERM):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 5.0
    member = build_family(C4_PERM, 1, 1.0, 2.0)
    grading, u, nu = member.grading.copy(), member.real.j.u.copy(), member.nu.copy()
    t = SpectralTriple(member.rep, member.dirac, grading,
                       RealStructure(Antiunitary(u), member.real.signs), Twist(nu))
    want = _outputs(t)
    # copies and pickles rebuild through the constructor, so theirs are read-only too
    copies = [loads(dumps(t)), pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)]
    for triple in [member, t, t.with_dirac(2.0 * t.dirac)] + copies:
        for m in (triple.grading, triple.real.j.u, triple.twist.nu):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 5.0
    assert all(_outputs(c) == want for c in copies)
    # the caller's arrays were copied: editing them leaves the triple as it was
    for m in (grading, u, nu):
        m[0, 0] = 7.0
    assert _outputs(t) == want


@pytest.mark.parametrize("which", ["u", "nu"])
def test_a_unitary_or_twist_edited_after_its_check_is_refused_by_the_triple(which):
    # the structure copies U and nu, so the triple's constructor checks them as it copies them
    base = build_family(C4_PERM, 1, 1.0, 2.0)
    real, twist = RealStructure(Antiunitary(base.real.j.u.copy()), base.real.signs), Twist(base.nu.copy())
    (real.j.u if which == "u" else twist.nu)[1, 1] = np.nan
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        SpectralTriple(base.rep, base.dirac, base.grading, real, twist)


def test_member_structures_hold_the_catalog_constants_bitwise():
    # folding -0.0 is the identity on the constants, so derive_family's solver input,
    # whose zero signs LAPACK reads, is the one of the constants themselves
    for family_id, fam in catalog._BUILDABLE.items():
        if fam.base is not None:
            continue
        for eps in (1, -1) if fam.plus_only is None else (1,):
            t = build_family(family_id, eps, 0)
            assert t.grading.tobytes() == fam.gamma.tobytes() and t.real.j.u.tobytes() == fam.u.tobytes()
            assert t.twist is None if fam.twist is None else t.twist.nu.tobytes() == fam.twist.nu.tobytes()


@pytest.mark.parametrize("kind", [C4_UNTWISTED, C4_CONFORMAL])
def test_kept_maps_and_columns_are_read_only(kind):
    t = build_family(kind, 1, 1.0, 2.0, **({"rho": 0.3} if kind == C4_CONFORMAL else {}))
    check_all(t)
    axioms.is_irreducible(t)
    frame = t._structure.frame
    operands = axioms._dirac_operands(t._structure)
    assert operands[0] is frame.__dict__["dirac_map"] and len(operands) == 3  # nu^2 fixes the points
    columns, gamma_rows, commutant_map = frame.__dict__["commutant"]
    assert gamma_rows is None
    for m in (*operands, columns, commutant_map):
        with pytest.raises(ValueError, match="read-only"):
            m.flat[0] = 1
    # a twist whose nu^2 moves the point projections keeps its own map, read-only too
    moved = SpectralTriple(t.rep, t.dirac, t.grading, t.real, Twist(t.nu + 0.1 * np.eye(4)[::-1]))
    check_all(moved)
    own = axioms._dirac_operands(moved._structure)
    assert own[0] is not moved._structure.frame.__dict__["dirac_map"] and own[0].shape == operands[0].shape
    for m in own:
        with pytest.raises(ValueError, match="read-only"):
            m.flat[0] = 1
    # a grading with an off-diagonal entry keeps its own rows, read-only too
    v = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    gamma = np.kron(np.eye(2), v) @ t.grading @ np.kron(np.eye(2), v)
    assert (gamma != np.diag(np.diagonal(gamma))).any()
    rotated = SpectralTriple(t.rep, t.dirac, gamma, t.real)
    axioms.is_irreducible(rotated)
    _, gamma_rows, commutant_map = rotated._structure.frame.__dict__["commutant"]
    for m in (gamma_rows, commutant_map):
        with pytest.raises(ValueError, match="read-only"):
            m.flat[0] = 1


def _key(text):
    head, _, middle, twist = documents._split(text)
    return head, middle, twist


def test_loads_returns_a_triple_on_the_structure_dumps_rendered():
    for t in (build_family(C4_CONFORMAL, 1, 1.0, 2.0, rho=0.3), build_family(C3_PERM, -1, 1j, 2j),
              build_c4_perm_conformal_composite(1, 1.0, 2.0, rho=0.2)):
        text = dumps(t)
        assert loads(text)._structure is t._structure
        # another structure that renders the same texts takes the entry over
        other = _fresh(t)
        assert dumps(other) == text
        got = loads(text)
        assert got._structure is other._structure
        assert _triple_bits(got) == _triple_bits(from_document(json.loads(text)))
    # the other eps' has the same twist text on another frame: each text keeps its own
    plus, minus = build_family(C4_PERM, 1, 1.0, 2.0), build_family(C4_PERM, -1, 1.0, 2.0)
    texts = dumps(plus), dumps(minus)
    assert _key(texts[0])[2] == _key(texts[1])[2] and texts[0] != texts[1]
    assert [loads(text)._structure for text in texts] == [plus._structure, minus._structure]


def test_a_dropped_structure_leaves_the_documents_map():
    t = _fresh(build_family(C4_CONFORMAL, 1, 1.0 - 0.5j, 0.25 + 1.0j, rho=0.35))
    text = dumps(t)
    assert documents._STRUCTURES[_key(text)] is t._structure
    del t
    gc.collect()
    assert _key(text) not in documents._STRUCTURES
    assert _triple_bits(loads(text)) == _triple_bits(_reference_loads(text))


def test_loads_of_a_text_that_dumps_did_not_render_registers_nothing():
    # re-indented copies of a document parse in full and leave the map as it was,
    # so the canonical text keeps its structure
    t = build_family(C4_PERM, 1, 1.0 - 0.5j, 0.25 + 1.0j)
    text = dumps(t)
    structures = dict(documents._STRUCTURES)
    doc = json.loads(text)
    for k in range(300):
        copy = json.dumps(doc, indent=k % 7 + 3, sort_keys=bool(k % 2)) + "\n"
        assert copy != text and _triple_bits(loads(copy)) == _triple_bits(loads(text))
    assert dict(documents._STRUCTURES) == structures
    assert loads(text)._structure is t._structure


def test_concurrent_calls_match_the_single_threaded_references():
    rng = np.random.default_rng(7)
    shared = [_member(kind, eps, rng) for kind, eps in KINDS]
    fresh = [build_family(C4_CONFORMAL, 1, 1.0 + k, 2.0, rho=float(rho)) if k % 2
             else build_family(C3_CONFORMAL, -1, 1.0 + k, None, rho=float(rho))
             for k, rho in enumerate(rng.uniform(0.1, 0.9, 12))]
    matches = [repr(identify_family(t)) for t in shared + fresh]
    want = []
    for t, match in zip(shared + fresh, matches):
        text = _reference_dumps(t)
        want.append((_reference_bits(t, DEFAULT_TOL), _reference_bits(t, TOL12), _reference_bits(t, TOL0),
                     match, text, _triple_bits(_reference_loads(text))))

    def outputs(t):
        text = dumps(t)
        return (_bits(check_all(t)), _bits(check_all(t, TOL12)), _bits(check_all(t, TOL0)),
                repr(identify_family(t)), text, _triple_bits(loads(text)))

    def run(triples, order, start):
        start.wait(timeout=60)
        return [outputs(triples[i]) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that they meet inside the kept data
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(5):  # on new structures, the four threads take the same items at once
                triples = [_fresh(t) for t in shared + fresh]
                order = rng.permutation(len(triples))
                start = threading.Barrier(4)
                for got in pool.map(run, [triples] * 4, [order] * 4, [start] * 4):
                    assert got == [want[i] for i in order]
    finally:
        sys.setswitchinterval(interval)


# ------------------------------------------------------------ kept check entries

def _fresh_rho(kind, eps, rng):
    """A member of a conformal kind at a rho no other call has used: a new structure."""
    d1, d2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    rho, zeta = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.5, 2.0))
    if kind == "perm_conformal":
        return build_c4_perm_conformal_composite(eps, d1, d2, rho=rho, zeta=zeta)
    return build_family(kind, eps, d1, None if kind == C3_CONFORMAL else d2, rho=rho, zeta=zeta)


@pytest.mark.parametrize("case", range(len(KINDS)))
def test_kept_entries_give_the_cold_report_bitwise(case):
    kind, eps = KINDS[case]
    rng = np.random.default_rng(100 + case)
    triples = []
    for hop in (1.0, 1e-6, 1e6, 1.0, 1e12, 1e-12):  # one frame, several D
        t = _member(kind, eps, rng)
        triples.append(t.with_dirac(hop * t.dirac))
    if kind in (C3_CONFORMAL, C4_CONFORMAL, "perm_conformal"):
        triples += [_fresh_rho(kind, eps, rng) for _ in range(4)]
    # 0.0, -0.0 and an int 0 in a row: the kept entries are keyed by the float bits of
    # abs_tol, and tol_used is a float, so each report is the cold one bitwise
    tols = (DEFAULT_TOL, TOL12, TOL0, ToleranceConfig(-0.0), ToleranceConfig(0), TOL0)
    warm = []
    for k, t in enumerate(triples * 2):
        tol = tols[k % len(tols)]
        report = check_all(t, tol)
        (nu_free_tol, nu_free), (twisted_tol, twisted) = (
            t._structure.frame.__dict__["entries"], t._structure.__dict__["entries"])
        assert nu_free_tol == twisted_tol == float(tol.abs_tol).hex()
        kept = nu_free + twisted
        # reports share the kept entries: only the four that read D are new objects
        new = [e for e in report.entries if not any(e is x for x in kept)]
        assert len(report.entries) == len(kept) + len(new)
        assert {e.condition for e in new} <= {"dirac_selfadjoint", "grading_anticommutes_dirac",
                                              "twisted_order_one", "epsilon_prime"}
        warm.append((t, tol, _hex_bits(report)))
    for t, tol, got in warm:
        assert got == _hex_bits(check_all(_fresh(t), tol))


def test_an_all_zero_residual_stack_reads_zero_and_a_non_finite_one_nan(monkeypatch):
    zero = np.full((3, 3), -0.0, dtype=complex)
    terms = [("dirac_selfadjoint", zero, None), ("twisted_order_one", np.stack([zero, zero]), None),
             ("j_sign_matches", 1.0, 0.5), ("epsilon_prime", -zero, None)]

    def no_norm(stack):
        raise AssertionError("an all-zero stack took a norm")

    with monkeypatch.context() as m:
        m.setattr(axioms, "operator_norms", no_norm)
        entries = axioms._entries(terms, DEFAULT_TOL)
    assert [(e.condition, e.residual.hex(), e.tol_used) for e in entries] == [
        ("dirac_selfadjoint", "0x0.0p+0", 1e-9), ("twisted_order_one", "0x0.0p+0", 1e-9),
        ("j_sign_matches", "0x1.0000000000000p+0", 0.5), ("epsilon_prime", "0x0.0p+0", 1e-9)]
    # a residual with a NaN or inf entry reads NaN and fails: only the finite ones go to LAPACK
    norms, seen = axioms.operator_norms, []

    def finite_only(stack):
        assert np.isfinite(stack).all()
        seen.append(len(stack))
        return norms(stack)

    one = np.eye(3, dtype=complex)
    for bad in (np.nan, np.inf):
        broken = one.copy()
        broken[0, 1] = bad
        with monkeypatch.context() as m:
            m.setattr(axioms, "operator_norms", finite_only)
            entries = axioms._entries([("grading_anticommutes_dirac", np.stack([one, broken]), None),
                                       ("order_zero", one, None)], DEFAULT_TOL)
        assert np.isnan(entries[0].residual) and not entries[0].passed
        assert entries[1].residual == 1.0
    assert seen == [2, 2]


@pytest.mark.parametrize("kind", [C4_UNTWISTED, C4_PERM, C4_CONFORMAL])
def test_overflowing_dirac_residuals_fail_without_lapack(kind, capfd):
    member = build_family(kind, 1, 1.0, 2.0, **({"rho": 0.3} if kind == C4_CONFORMAL else {}))
    huge = 1.7e308 * np.ones((4, 4))
    reports = []
    for t in (_fresh(member, huge), member.with_dirac(huge)):  # a new structure, then a warm one
        for _ in range(2):
            reports.append(check_all(t))  # RuntimeWarnings are errors in this suite
    assert capfd.readouterr().err == ""
    for report in reports:
        assert _hex_bits(report) == _hex_bits(reports[0])
        for condition in ("grading_anticommutes_dirac", "twisted_order_one", "epsilon_prime"):
            entry = report.entry(condition)
            if not np.isfinite(entry.residual) or condition == "grading_anticommutes_dirac":
                assert not entry.passed, condition
        assert np.isnan(report.entry("grading_anticommutes_dirac").residual)
        assert report.entry("twisted_order_one").residual > 1e308
        assert np.isnan(report.entry("epsilon_prime").residual) == (kind == C4_CONFORMAL)
        assert report.entry("dirac_selfadjoint").passed


# ------------------------------------------------------------ singular twist

def test_a_singular_twist_raises_one_message_cold_and_warm():
    t = build_family(C4_PERM, 1, 1.0 - 0.5j, 0.25 + 1.0j)
    nu = t.nu.copy()
    nu[0, 3] = 0.0  # a permutation twist with one entry gone: singular, and it moves the points
    singular = SpectralTriple(t.rep, t.dirac, t.grading, t.real, Twist(nu))
    message = "^the twist nu is singular, so nu\\^-1 does not exist$"
    for _ in range(2):  # a new structure, then with its kept data
        for call in (lambda: spectral_distance(singular), lambda: distance_bruteforce(singular, 20, 3),
                     lambda: rescale(singular, ConformalFactor(1.2, 0.3)), singular.twist.inverse):
            with pytest.raises(np.linalg.LinAlgError, match=message):
                call()
        # check_all inverts no twist that its SVD finds singular: it reports it
        report = check_all(singular)
        assert report.entry("twist_invertible").residual == 1.0
        assert "twist_preserves_algebra" in report.failing()
