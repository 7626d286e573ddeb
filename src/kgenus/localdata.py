"""Ramification shapes of cyclic prime-degree extensions of Q.

A CyclicExtensionOfQ records only where the extension ramifies; by
Kronecker-Weber this is enough to evaluate every local invariant used by
the genus formulas with plain congruences.  Base fields other than Q are
rejected at the type level.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .exactnum import is_prime, prime_factorization
from .quadforms import RAMIFIED, _field


@dataclass(frozen=True)
class CyclicExtensionOfQ:
    """Ramification shape of a degree-p cyclic extension of Q.

    For odd p a tame prime ell must satisfy ell = 1 mod p (otherwise no
    cyclic degree-p extension of Q is tamely ramified at ell), and the
    infinite place cannot ramify.
    """

    p: int
    tame_ramified: frozenset[int]
    wild_ramified: bool = False
    infinity_ramified: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tame_ramified", frozenset(self.tame_ramified))
        if not is_prime(self.p):
            raise ValueError(f"degree {self.p} is not prime")
        _check_tame(self.p, self.tame_ramified)
        if self.p != 2 and self.infinity_ramified:
            raise ValueError("the infinite place cannot ramify in odd degree")
        if not (self.tame_ramified or self.wild_ramified or self.infinity_ramified):
            raise ValueError("a nontrivial extension ramifies somewhere")

    @property
    def ramified_finite(self) -> tuple[int, ...]:
        primes = sorted(self.tame_ramified)
        if self.wild_ramified:
            primes = sorted(primes + [self.p])
        return tuple(primes)

    @property
    def r(self) -> int:
        """Number of ramified real places (0 or 1 over Q)."""
        return 1 if self.infinity_ramified else 0


def _check_tame(p: int, tame) -> None:
    """Every tame prime of a degree-p shape is prime, is not p and, for
    odd p, is 1 mod p; shared by CyclicExtensionOfQ and
    classify.ExtensionShape."""
    for ell in tame:
        if not is_prime(ell):
            raise ValueError(f"tame prime {ell} is not prime")
        if ell == p:
            raise ValueError(f"{ell} would be wildly ramified, not tame")
        if p != 2 and ell % p != 1:
            raise ValueError(f"tame prime {ell} is not 1 mod {p}; no such cyclic extension")


@dataclass(frozen=True)
class LocalData:
    """Local invariants at a ramified prime ell of a degree-p extension.

    q is the residue cardinality, e/f ramification index and residue
    degree, e_prime the tame part of inertia and e_i = gcd(e, q**i - 1).
    """

    ell: int
    q: int
    e: int
    f: int
    e_prime: int
    e_i: int

    def __post_init__(self):
        if self.e % self.e_prime != 0 or self.e % self.e_i != 0:
            raise ValueError("e_prime and e_i must divide e")


def local_invariants(ext: CyclicExtensionOfQ, ell: int, i: int) -> LocalData:
    """Local data of ext at the ramified prime ell for the twist i >= 1."""
    if i < 1:
        raise ValueError("twist i must be >= 1")
    if ell in ext.tame_ramified:
        e_prime = ext.p
    elif ell == ext.p and ext.wild_ramified:
        # wild inertia is the whole p-group; its tame part is trivial
        e_prime = 1
    else:
        raise ValueError(f"{ell} is unramified in this extension")
    return LocalData(ell=ell, q=ell, e=ext.p, f=1, e_prime=e_prime,
                     e_i=gcd(ext.p, pow(ell, i, ext.p) - 1))


def quadratic_extension(d: int) -> CyclicExtensionOfQ:
    """Ramification shape of Q(sqrt(d)) for squarefree d != 0, 1.

    d is validated by quadforms, with its checks and messages.  The tame
    primes are the odd primes of the complete factorization of d.
    """
    _, kind = _field(d)
    return CyclicExtensionOfQ(
        p=2,
        tame_ramified=frozenset(q for q, _ in prime_factorization(abs(d)) if q != 2),
        wild_ramified=kind == RAMIFIED,
        infinity_ramified=d < 0,
    )
