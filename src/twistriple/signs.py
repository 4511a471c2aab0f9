"""Reality signs and the KO-dimension table.

The signs (eps, eps', eps'') of J^2 = eps, D J = eps' J D and
gamma J = eps'' J gamma fix the KO-dimension mod 8. This module needs no
numpy, so that `twistriple kodim` starts without it; `twistriple.axioms`
re-exports its names.
"""

from __future__ import annotations

__all__ = ["SignTriple", "ko_dimension"]


def _sign(value: int, message: str = "signs must be +1 or -1") -> int:
    """+1 or -1 as an int, for any value equal to one of them (1.0 too) but a bool; ValueError otherwise.

    True equals 1, but documents and the CLI refuse it as a sign, and
    algebra._index refuses it as an integer, so it is refused here too.
    """
    if isinstance(value, bool):
        raise ValueError(message)
    if value == 1:
        return 1
    if value == -1:
        return -1
    raise ValueError(message)


class SignTriple:
    """The signs (eps, eps', eps''); eps'' is present exactly for graded triples.

    An immutable value: equal and equally hashed when the three signs agree.
    A plain slotted class rather than a frozen dataclass, so that importing
    it does not import `dataclasses` (and `inspect`).
    """

    __slots__ = ("eps", "eps_prime", "eps_dprime")

    def __init__(self, eps: int, eps_prime: int, eps_dprime: int | None = None):
        object.__setattr__(self, "eps", _sign(eps))
        object.__setattr__(self, "eps_prime", _sign(eps_prime))
        object.__setattr__(self, "eps_dprime", None if eps_dprime is None else _sign(eps_dprime))

    def _key(self) -> tuple:
        return (self.eps, self.eps_prime, self.eps_dprime)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"SignTriple(eps={self.eps!r}, eps_prime={self.eps_prime!r}, eps_dprime={self.eps_dprime!r})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return (SignTriple, self._key())


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
