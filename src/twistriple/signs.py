"""Reality signs and the KO-dimension table.

The signs (eps, eps', eps'') of J^2 = eps, D J = eps' J D and
gamma J = eps'' J gamma fix the KO-dimension mod 8. This module needs no
numpy, so that `twistriple kodim` starts without it; `twistriple.axioms`
re-exports its names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["SignTriple", "ko_dimension"]


def _sign(value: int) -> int:
    v = int(value)
    if v not in (1, -1):
        raise ValueError("signs must be +1 or -1")
    return v


@dataclass(frozen=True)
class SignTriple:
    eps: int
    eps_prime: int
    eps_dprime: Optional[int] = None  # present exactly for graded triples

    def __post_init__(self):
        object.__setattr__(self, "eps", _sign(self.eps))
        object.__setattr__(self, "eps_prime", _sign(self.eps_prime))
        if self.eps_dprime is not None:
            object.__setattr__(self, "eps_dprime", _sign(self.eps_dprime))


# KO-dimension table: signs (eps, eps') for odd n, (eps, eps', eps'') for even n.
_KO_EVEN = {
    (1, 1, 1): 0,
    (-1, 1, -1): 2,
    (-1, 1, 1): 4,
    (1, 1, -1): 6,
}
_KO_ODD = {
    (1, -1): 1,
    (-1, 1): 3,
    (-1, -1): 5,
    (1, 1): 7,
}


def ko_dimension(signs: SignTriple) -> int:
    """KO-dimension mod 8; graded sign triples map to even n, pairs to odd n."""
    if signs.eps_dprime is None:
        return _KO_ODD[(signs.eps, signs.eps_prime)]
    key = (signs.eps, signs.eps_prime, signs.eps_dprime)
    if key not in _KO_EVEN:
        raise ValueError(f"sign combination {key} is not in the KO-dimension table")
    return _KO_EVEN[key]
