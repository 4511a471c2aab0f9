"""Seeded inputs and the benchmark's own reference answers.

Everything the benchmark compares the package against is worked out here
from the drawn parameters, not read back from the package: the expected
check verdicts, the closed-form distance 1/max|hop|, the gauge-orbit map of
a fluctuation, the twist of a conformal rescaling and the KO-dimension
table. The package only ever receives the generated inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

FAMILIES = ("c3_untwisted", "c3_perm", "c4_untwisted", "c4_perm", "c3_conformal", "c4_conformal")
FIXTURES = ("perm_bad", "perm_conformal")
UNTWISTED = ("c3_untwisted", "c4_untwisted")
CONFORMAL = ("c3_conformal", "c4_conformal")
CORE_FAMILIES = ("c3_untwisted", "c3_perm", "c4_untwisted", "c4_perm")

# Hop magnitudes 10**x with x spread evenly over this range. The range is
# wide on purpose: a verdict that depends on the units of D shows up as a
# mismatch at one end of it (the absolute tolerances of ROADMAP item 4).
WIDE_DECADES = (-12.0, 12.0)
# The shell sessions measure process and file costs, which do not depend on
# the hop scale; they draw within two decades of 1.
CLI_DECADES = (-1.0, 1.0)

# kind -> (conditions check_all must report failing, whether no other may fail)
EXPECTED_FAILING = {
    **{family: ((), True) for family in FAMILIES},
    "perm_bad": (("twisted_regularity",), True),
    # the composite fails twisted regularity for every rho != 1/2; its twist
    # is not selfadjoint either, so other conditions may fail alongside
    "perm_conformal": (("twisted_regularity",), False),
}

# Every catalog triple has a hop between basis vectors 0 and 2 (and 1 and 3
# on C^4) and none between the point blocks otherwise; with the grading and
# the algebra separating all basis vectors, the commutant consists of the
# diagonal matrices constant on {0,2}, {1} (, {3}): dimension 2 or 3, never 1.
EXPECTED_IRREDUCIBLE = False

# Real dimension of the Dirac family solved by derive_family: C^3 has two
# complex grading-odd slots (4 real) halved by the reality condition, C^4
# has four (8 real) halved likewise.
EXPECTED_FAMILY_DIMENSION = {"c3_untwisted": 2, "c3_perm": 2, "c4_untwisted": 4, "c4_perm": 4}

# KO-dimension mod 8 from the signs (eps, eps', eps'') for even n and
# (eps, eps') for odd n. Sign triples outside the table have no KO-dimension.
KO_EVEN = {(1, 1, 1): 0, (-1, 1, -1): 2, (-1, 1, 1): 4, (1, 1, -1): 6}
KO_ODD = {(1, -1): 1, (-1, 1): 3, (-1, -1): 5, (1, 1): 7}

REL_TOL = 1e-9     # relative agreement required of distances and matrix entries
ORACLE_TOL = 1e-6  # relative agreement of the sampling oracle with the closed form

# The package decides with absolute thresholds, abs_tol = rank_tol = 1e-9
# (ROADMAP item 4). At the two ends of the drawn scales those thresholds
# decide a verdict instead of the mathematics. A mismatch inside one of the
# two windows below counts as `unit_dependent`; every other one as `wrong`.
ABS_TOL = RANK_TOL = 1e-9
# check_all compares products of D with J and the twist. Their rounding error
# is a few ulps of the largest Dirac entry, which reaches abs_tol from about
# here on (2.8e6 was the smallest failing entry over seeds 101-106).
ROUNDING_FLOOR = ABS_TOL / (8 * float(np.finfo(float).eps))  # about 5.6e5
ROUNDING_CONDITIONS = frozenset({"dirac_selfadjoint", "epsilon_prime", "twisted_order_one"})


def close(got: complex, want: complex, rel: float = REL_TOL) -> bool:
    return abs(got - want) <= rel * abs(want)


@dataclass(frozen=True)
class Triple:
    """Parameters of one catalog triple or negative fixture."""

    kind: str
    eps_prime: int
    d1: complex
    d2: complex = 0j
    rho: float = 0.5
    zeta: float = 1.0

    def builder(self, api):
        """(function, args, kwargs) that builds this triple with the package."""
        k, e = self.kind, self.eps_prime
        if k == "c3_untwisted":
            return api.build_c3, (e, self.d1), {}
        if k == "c3_perm":
            return api.build_c3, (e, self.d1, self.d2), {"twist": "perm"}
        if k == "c4_untwisted":
            return api.build_c4, (e, self.d1, self.d2), {}
        if k == "c4_perm":
            return api.build_c4, (e, self.d1, self.d2), {"twist": "perm"}
        if k == "perm_bad":
            return api.build_c4, (e, self.d1, self.d2), {"twist": "perm_bad"}
        if k == "perm_conformal":
            return api.build_c4_perm_conformal_composite, (e, self.d1, self.d2, self.rho, self.zeta), {}
        space = "c3" if k == "c3_conformal" else "c4"
        return api.build_conformal, (space, e, self.d1, self.d2), {"rho": self.rho, "zeta": self.zeta}

    def entry02(self) -> complex:
        """The Dirac entry (0, 2): the hop d1, weighted by k_J on both sides when conformal."""
        if self.kind in CONFORMAL:
            return self.zeta ** 2 * self.rho ** 2 * self.d1
        return self.d1

    def max_hop(self) -> float:
        """max |hop| over the entries the (twisted) derivative of e sees."""
        z2 = self.zeta ** 2
        if self.kind == "c3_untwisted":
            return abs(self.d1)
        if self.kind == "c3_conformal":
            return z2 * self.rho ** 2 * abs(self.d1)
        if self.kind == "c4_conformal":
            return max(z2 * self.rho ** 2 * abs(self.d1), z2 * (1.0 - self.rho) ** 2 * abs(self.d2))
        if self.kind == "perm_conformal":
            raise ValueError("the composite fixture has no closed-form distance")
        return max(abs(self.d1), abs(self.d2))

    def fluctuated(self, phi: complex) -> "Triple":
        """Parameters after the gauge fluctuation with selfadjoint coefficient phi."""
        if self.kind == "c3_perm":
            return replace(self, d1=(1.0 - phi - phi.conjugate()) * self.d1)
        return replace(self, d1=(1.0 - phi) * self.d1, d2=(1.0 - phi) * self.d2)

    def rescaled(self, rho: float, zeta: float) -> "Triple":
        """An untwisted member rescaled by (zeta, rho) is the conformal family member."""
        kind = {"c3_untwisted": "c3_conformal", "c4_untwisted": "c4_conformal"}[self.kind]
        return replace(self, kind=kind, rho=rho, zeta=zeta)

    def conformal_twist_diagonal(self) -> np.ndarray:
        r = self.rho
        diag = [1.0, (1.0 - r) / r, r / (1.0 - r)]
        return np.array(diag + [1.0] if self.kind == "c4_conformal" else diag)


def below_rank_tol(got: float, want: float) -> bool:
    """An infinite distance where the derivative's norm, 1/want, is under rank_tol."""
    return math.isinf(got) and 1.0 / want < RANK_TOL * (1.0 + 1e-9)


def rounding_failures(tri: Triple, failing) -> bool:
    """check_all on a conformal member failing only conditions that compare
    products of D, with its largest entry past ROUNDING_FLOOR."""
    return tri.kind in CONFORMAL and tri.max_hop() >= ROUNDING_FLOOR and set(failing) <= ROUNDING_CONDITIONS


def lapack_distance(dirac: np.ndarray, nu: np.ndarray | None) -> float:
    """Two-point distance 1/max(||[D,e]||, ||De - nu e nu^-1 D||) with LAPACK norms.

    Used only for the composite fixture, which has no closed form. It needs
    no rank threshold, so it stays finite at every scale.
    """
    # e = (1, 0) on the representations (0,0,1) and (0,0,1,1)
    e = np.diag([1.0, 1.0] + [0.0] * (dirac.shape[0] - 2)).astype(complex)
    norm = np.linalg.norm(dirac @ e - e @ dirac, 2)
    if nu is not None:
        norm = max(norm, np.linalg.norm(dirac @ e - nu @ e @ np.linalg.inv(nu) @ dirac, 2))
    return 1.0 / norm


def _phase(rng: np.random.Generator) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def stratified_magnitudes(rng: np.random.Generator, n: int, decades: tuple[float, float]) -> np.ndarray:
    """n magnitudes 10**x, one x in each of n equal slices of the range, shuffled.

    Log-uniform draws, but the share that lands past any scale threshold is
    fixed to within 1/n, so the count of unit-dependent verdicts is nearly
    the same for every seed.
    """
    lo, hi = decades
    x = lo + (hi - lo) * (rng.permutation(n) + rng.random(n)) / n
    return 10.0 ** x


def nondegenerate_phi(rng: np.random.Generator) -> complex:
    """A fluctuation coefficient that keeps every hop away from zero."""
    while True:
        phi = complex(rng.standard_normal(), rng.standard_normal())
        if abs(1.0 - phi) > 0.05 and abs(1.0 - 2.0 * phi.real) > 0.05:
            return phi


def draw_triple(rng: np.random.Generator, kind: str, eps_prime: int, magnitude: float) -> Triple:
    """One triple of the kind whose larger free hop has about this magnitude."""
    ratio = 10.0 ** rng.uniform(-1.0, 0.0)
    rho = rng.uniform(0.1, 0.9)
    zeta = rng.uniform(0.5, 2.0)
    if kind == "c3_perm":
        # the reality condition forces conj(d) = eps' d: real or imaginary hops
        axis = 1.0 if eps_prime == 1 else 1j
        return Triple(kind, eps_prime, complex(axis * magnitude * rng.choice((-1.0, 1.0))),
                      complex(axis * magnitude * ratio * rng.choice((-1.0, 1.0))))
    d1 = complex(magnitude * _phase(rng))
    if kind == "perm_bad":
        # the block-swap reality condition forces d2 = conj(d1) (eps' = +1)
        return Triple(kind, 1, d1, d1.conjugate())
    if kind == "perm_conformal":
        # keep rho away from 1/2, where the composite is a genuine twisted triple
        rho = rng.choice((rng.uniform(0.1, 0.4), rng.uniform(0.6, 0.9)))
    d2 = 0j if kind in ("c3_untwisted", "c3_conformal") else complex(magnitude * ratio * _phase(rng))
    return Triple(kind, eps_prime, d1, d2, float(rho), float(zeta))


def ko_reference(signs: tuple[int, ...]) -> int | None:
    table = KO_EVEN if len(signs) == 3 else KO_ODD
    return table.get(tuple(signs))
