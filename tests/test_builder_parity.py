"""Parity of the record-driven builders with the per-family builders they replaced.

The reference below is the earlier hand-written layout: one if-chain per
space, with each family's Dirac entries, defaults and messages spelled out.
Every (space, twist), both eps', d2 given and omitted, hops from 1e-12 to
1e9 plus non-finite ones, unknown twists and spaces, perm_bad with eps' =
-1 and a (rho, zeta) grid must give the same document bytes. An input with
at most one fault must give the same (type, message); an input with two
faults at once must give the same type (which fault is reported first may
differ). The one intended difference: build_conformal on C^3 now rejects a
non-finite d2 that it used to ignore.
"""

import math
from itertools import product

import numpy as np
import pytest

from twistriple.algebra import REP_C3, REP_C4, embed
from twistriple.axioms import RealStructure, SignTriple, SpectralTriple, Twist, epsilon_prime_residual
from twistriple.catalog import (
    GAMMA3,
    GAMMA4,
    NU3_PERM,
    NU4_PERM,
    NU4_PERM_BAD,
    U3,
    U4,
    CatalogConstraintError,
    build_c3,
    build_c4,
    build_c4_perm_conformal_composite,
    build_conformal,
)
from twistriple.conformal import ConformalFactor, rescale
from twistriple.documents import dumps
from twistriple.linalg import Antiunitary, operator_norm

# ------------------------------------------------------------------ reference


def _ref_hermitian(dim, slots):
    d = np.zeros((dim, dim), dtype=complex)
    for (i, j), v in slots.items():
        d[i, j] = v
        d[j, i] = np.conj(v)
    return d


def _ref_build(rep, gamma, u, dirac, eps_prime, twist, relation):
    real = RealStructure(j=Antiunitary(u.copy()),
                         signs=SignTriple(eps=1, eps_prime=eps_prime, eps_dprime=1))
    triple = SpectralTriple(rep=rep, dirac=dirac, grading=gamma, real=real, twist=twist)
    residual = operator_norm(epsilon_prime_residual(triple.dirac, u, triple.nu, eps_prime))
    if residual > 1e-12 * (1.0 + operator_norm(triple.dirac)):
        raise CatalogConstraintError(f"parameters violate {relation} (residual {residual:.3e})")
    return triple


def _ref_finite_hops(d1, d2):
    hops = (complex(d1), None if d2 is None else complex(d2))
    if not all(math.isfinite(x) for h in hops if h is not None for x in (h.real, h.imag)):
        raise ValueError("the hops d1 and d2 must be finite")
    return hops


def ref_build_c3(eps_prime, d1, d2=None, twist="none"):
    eps_prime = int(eps_prime)
    d1, d2 = _ref_finite_hops(d1, d2)
    if twist == "none":
        tw, relation = None, "d3 = eps'*conj(d1)"
        slot = eps_prime * np.conj(d1) if d2 is None else d2
    elif twist == "perm":
        tw = Twist(NU3_PERM, implements_algebra_automorphism=False)
        relation = "conj(d1) = eps'*d1 and conj(d2) = eps'*d2"
        slot = 0j if d2 is None else d2
    else:
        raise ValueError(f"unknown C^3 twist {twist!r}")
    dirac = _ref_hermitian(3, {(0, 1): slot, (0, 2): d1})
    return _ref_build(REP_C3, GAMMA3, U3, dirac, eps_prime, tw, relation)


def ref_build_c4(eps_prime, d1, d2=None, twist="none"):
    eps_prime = int(eps_prime)
    if twist == "perm_bad" and eps_prime != 1:
        raise CatalogConstraintError(
            "the perm_bad fixture exists only for eps' = +1: with the block-swap twist, "
            "eps' = -1 and the grading admit only D = 0")
    d1, d2 = _ref_finite_hops(d1, d2)
    if d2 is None:
        d2 = complex(eps_prime * np.conj(d1)) if twist == "perm_bad" else 0j
    if twist == "none":
        tw, relation = None, "d3 = eps'*conj(d1), d4 = eps'*conj(d2)"
        upper = {(0, 1): eps_prime * np.conj(d1), (2, 3): eps_prime * np.conj(d2)}
    elif twist in ("perm", "perm_bad"):
        tw = Twist(NU4_PERM, implements_algebra_automorphism=True)
        relation = "d3 = eps'*d2, d4 = eps'*d1"
        upper = {(0, 1): eps_prime * d2, (2, 3): eps_prime * d1}
    else:
        raise ValueError(f"unknown C^4 twist {twist!r}")
    dirac = _ref_hermitian(4, {(0, 2): d1, (1, 3): d2, **upper})
    if twist == "perm_bad":
        return _ref_build(REP_C4, GAMMA4, U4, dirac, eps_prime,
                          Twist(NU4_PERM_BAD, implements_algebra_automorphism=True),
                          "d1 = eps'*conj(d2) (block-swap reality condition)")
    return _ref_build(REP_C4, GAMMA4, U4, dirac, eps_prime, tw, relation)


def ref_build_conformal(space, eps_prime, d1, d2=0j, rho=0.5, zeta=1.0):
    if space == "c3":
        base = ref_build_c3(eps_prime, d1)
    elif space == "c4":
        base = ref_build_c4(eps_prime, d1, d2)
    else:
        raise ValueError(f"unknown space {space!r}")
    return rescale(base, ConformalFactor(zeta=zeta, rho=rho))


def ref_composite(eps_prime, d1, d2, rho, zeta=1.0):
    base = ref_build_c4(eps_prime, d1, d2, twist="perm")
    k = ConformalFactor(zeta=zeta, rho=rho)
    k_alg = embed(REP_C4, k.values())
    k_j = base.real.j.conjugate(k_alg)
    nu_conf = np.linalg.inv(k_alg) @ k_j
    dirac = k_j @ base.dirac @ k_j
    return SpectralTriple(rep=REP_C4, dirac=dirac, grading=base.grading, real=base.real,
                          twist=Twist(nu_conf @ base.nu, implements_algebra_automorphism=True))


# ---------------------------------------------------------------------- inputs

SCALES = (1e-12, 1e-3, 1.0, 1e9)
DIRECTIONS = (1.0, 1.0j, 1.0 - 0.5j)  # real and imaginary hops are c3_perm members
FINITE = tuple(s * d for s in SCALES for d in DIRECTIONS)
NON_FINITE = (complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0))
DERIVED = "derived"  # d2 = eps'*conj(d1), the value the untwisted C^3 and perm_bad layouts force
OMITTED = "omitted"
RHO_ZETA = ((0.1, 0.5), (0.5, 1.0), (0.9, 2.0), (0.3, 1.0), (0.0, 1.0), (0.5, 0.0), (0.5, math.inf))


def _finite(z):
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _d2_values(eps, d1, d2):
    if d2 is OMITTED:
        return ()
    return (complex(eps * np.conj(d1)) if d2 is DERIVED else d2,)


def _outcome(call):
    try:
        return ("ok", dumps(call()))
    except Exception as exc:  # the parity is over every exception, whatever its type
        return (type(exc), str(exc))


def _assert_same(got, want, faults, label):
    if faults >= 2:
        assert got[0] == want[0], label
    else:
        assert got == want, label


def _hop_faults(*hops):
    return sum(not _finite(h) for h in hops)


def _c_cases():
    for space, build, ref, known in (("c3", build_c3, ref_build_c3, ("none", "perm")),
                                     ("c4", build_c4, ref_build_c4, ("none", "perm", "perm_bad"))):
        for twist in ("none", "perm", "perm_bad", "conformal", "spiral"):
            for eps in (1, -1):
                for d1 in FINITE + NON_FINITE:
                    d2_choices = (OMITTED, DERIVED, 0j, 2.0 - 1.0j) + NON_FINITE[:1]
                    for d2 in d2_choices:
                        if d2 is DERIVED and not _finite(d1):
                            continue
                        args = (eps, d1) + _d2_values(eps, d1, d2)
                        faults = (_hop_faults(*args[1:]) + (twist not in known)
                                  + (twist == "perm_bad" and space == "c4" and eps != 1))
                        yield (f"build_{space}{args} twist={twist}", faults,
                               lambda b=build, a=args, t=twist: b(*a, twist=t),
                               lambda r=ref, a=args, t=twist: r(*a, twist=t))


def _conformal_cases():
    d1s = (1e-12 * (1 - 0.5j), 1.0 - 0.5j, 3.0, 1e9j) + NON_FINITE[:2]
    for space in ("c3", "c4", "c5"):
        for eps in (1, -1):
            for d1 in d1s:
                for d2 in (OMITTED, DERIVED, 0j, 7.0, NON_FINITE[0]):
                    if d2 is DERIVED and not _finite(d1):
                        continue
                    args = (space, eps, d1) + _d2_values(eps, d1, d2)
                    if space == "c3" and _hop_faults(*args[3:]):
                        continue  # the intended difference, pinned in its own test
                    for rho, zeta in RHO_ZETA:
                        faults = (_hop_faults(*args[2:]) + (space == "c5")
                                  + (not 0 < rho < 1) + (not 0 < zeta < math.inf))
                        yield (f"build_conformal{args} rho={rho} zeta={zeta}", faults,
                               lambda a=args, r=rho, z=zeta: build_conformal(*a, rho=r, zeta=z),
                               lambda a=args, r=rho, z=zeta: ref_build_conformal(*a, rho=r, zeta=z))


def _composite_cases():
    hops = (1.0 - 0.5j, 3e-7 + 1e-7j, 2e8)
    for eps, d1, d2, rho, zeta in product((1, -1), hops, hops[:2] + NON_FINITE[:1],
                                          (0.1, 0.3, 0.5, 0.7, 0.9), (0.5, 1.0, 2.0)):
        yield (f"composite({eps}, {d1}, {d2}, {rho}, {zeta})", _hop_faults(d2),
               lambda a=(eps, d1, d2, rho, zeta): build_c4_perm_conformal_composite(*a),
               lambda a=(eps, d1, d2, rho, zeta): ref_composite(*a))


@pytest.mark.parametrize("cases,outcomes", [
    (_c_cases, {"ok", ValueError, CatalogConstraintError}),
    (_conformal_cases, {"ok", ValueError}),
    (_composite_cases, {"ok", ValueError}),
], ids=["build_c3_c4", "build_conformal", "composite"])
def test_builders_match_the_per_family_reference(cases, outcomes):
    seen = set()
    for label, faults, call, ref in cases():
        want = _outcome(ref)
        _assert_same(_outcome(call), want, faults, label)
        seen.add(want[0])
    assert seen == outcomes  # the grid both builds triples and reaches its faults


@pytest.mark.parametrize("bad", NON_FINITE)
def test_build_conformal_c3_rejects_a_non_finite_d2_it_would_ignore(bad):
    with pytest.raises(ValueError, match="must be finite"):
        build_conformal("c3", 1, 1.0, bad, rho=0.3)
    # a finite d2 is still ignored on C^3, as before
    ignored = build_conformal("c3", 1, 1.0, 7.0, rho=0.3)
    assert dumps(ignored) == dumps(ref_build_conformal("c3", 1, 1.0, rho=0.3))
