"""Exact integer and rational arithmetic kernel.

Primality, factoring, primitive roots, p-th power residue characters
and Bernoulli numbers, all deterministic and in exact arithmetic.  The
primality test runs Miller-Rabin on the first k of twelve prime bases,
with k the least count known to be exact for n (one base below 2047,
two below 1373653, all twelve up to 2**64); larger inputs are rejected
rather than accepted probabilistically, so nothing in this package ever
depends on a probable prime.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from math import comb, gcd, isqrt

TWO64 = 1 << 64

# Witnesses proving primality for every n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# _MR_LIMITS[k - 1] is the least odd composite that is a strong probable
# prime to the first k bases (Jaeschke, Math. Comp. 61 (1993); OEIS
# A014233), so those k bases decide every n below it.
_MR_LIMITS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 341550071728321, 3825123056546413051,
              3825123056546413051, 3825123056546413051)

DEFAULT_TRIAL_BOUND = 10**6


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n < 0:
        raise ValueError("is_prime expects a non-negative integer")
    if n >= TWO64:
        raise ValueError("primality is only decided deterministically below 2**64")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:bisect_right(_MR_LIMITS, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def trial_factor(n: int, bound: int) -> tuple[list[tuple[int, int]], int]:
    """Factor n >= 1 by trial division up to `bound`.

    Returns (factors, cofactor): the sorted (prime, exponent) pairs of the
    primes up to `bound`, each divided out completely, and the part of n
    left after dividing them out.  The cofactor may be prime.
    """
    if n < 1:
        raise ValueError("trial_factor expects n >= 1")
    factors, m = [], n
    for d in chain(range(2, min(3, bound + 1)), range(3, bound + 1, 2)):
        if d * d > m:
            break
        if m % d == 0:
            e = 0
            while m % d == 0:
                e += 1
                m //= d
            factors.append((d, e))
    return factors, m


# Pollard-Brent iterations allowed for one split before factoring gives
# up.  A composite n < 2**64 is split after about n**(1/4) <= 2**16 of them.
RHO_BUDGET = 1 << 20

# Primes below this are divided out before rho; rho finds any larger
# factor of a cofactor below 2**64 in about sqrt(factor) iterations.
_SMALL_PRIME_BOUND = 1 << 10


def _stages(n: int):
    """Factor n >= 1 in stages, yielding each stage's (factors, cofactor):
    trial division by the primes below 2**10; on to DEFAULT_TRIAL_BOUND
    only for a cofactor of 2**64 or more; Pollard-Brent rho for a
    cofactor below 2**64, leaving 1.  Each stage divides its primes out
    completely and finds larger primes than the stages before it."""
    factors, cofactor = trial_factor(n, _SMALL_PRIME_BOUND)
    yield factors, cofactor
    if cofactor >= TWO64:
        factors, cofactor = trial_factor(cofactor, DEFAULT_TRIAL_BOUND)
        yield factors, cofactor
    if 1 < cofactor < TWO64:
        yield _rho_factors(cofactor), 1


def _factor(n: int) -> tuple[list[tuple[int, int]], int]:
    factors = []
    for found, cofactor in _stages(n):
        factors += found
    return factors, cofactor


def _refusal(cofactor: int) -> ValueError:
    return ValueError(f"cannot factor {cofactor}: cofactors of 2**64 or more are refused")


def is_squarefree(n: int) -> bool:
    """True iff the nonzero integer n has no repeated prime factor.

    Answers False at the first stage of prime_factorization that shows a
    repeated prime or leaves a perfect-square cofactor, however large:
    after the primes below 2**10 if they show it.  Otherwise raises
    ValueError where prime_factorization does.
    """
    if n == 0:
        raise ValueError("0 is not squarefree or squareful")
    for factors, cofactor in _stages(abs(n)):
        if any(e > 1 for _, e in factors) or isqrt(cofactor) ** 2 == cofactor != 1:
            return False
    if cofactor > 1:
        raise _refusal(cofactor)
    return True


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """Complete factorization of n >= 1 as a sorted list of (prime, exponent).

    Runs the stages of _stages.  Every factor found is checked by
    division, and every prime by is_prime or, below 2**20, by the trial
    division before it, so the result is exact.  Raises ValueError for a
    cofactor left of 2**64 or more, or one not split within RHO_BUDGET
    rho iterations.
    """
    factors, cofactor = _factor(n)
    if cofactor > 1:
        raise _refusal(cofactor)
    return factors


def _rho_factors(m: int) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) pairs of a cofactor 1 < m < 2**64 left by
    trial division: m is prime or has no prime factor below
    _SMALL_PRIME_BOUND, so its divisors below that bound squared are prime."""
    pending, primes = [m], []
    while pending:
        k = pending.pop()
        if k < _SMALL_PRIME_BOUND**2 or is_prime(k):
            primes.append(k)
            continue
        g = _brent_divisor(k)
        q, r = divmod(k, g)
        if r or not 1 < g < k:
            raise AssertionError(f"rho returned {g}, not a proper divisor of {k}")
        pending += [g, q]
    return [(p, primes.count(p)) for p in sorted(set(primes))]


def _brent_divisor(n: int) -> int:
    """A proper divisor of the composite n with no small prime factor, by
    Brent's cycle finding on x -> x**2 + c mod n for c = 1, 2, ..."""
    r = isqrt(n)
    if r * r == n:
        return r
    batch = 128  # differences multiplied together per gcd
    steps = 0
    for c in count(1):
        y, q, g, power = 2, 1, 1, 1
        while g == 1:
            if steps >= RHO_BUDGET:
                raise ValueError(f"no factor of {n} within {RHO_BUDGET} rho iterations")
            steps += 2 * power
            x = y
            for _ in range(power):
                y = (y * y + c) % n
            done = 0
            while done < power and g == 1:
                saved = y
                for _ in range(min(batch, power - done)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                done += batch
            power *= 2
        if g == n:
            # the batch overshot: redo it one difference at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(abs(x - saved), n)
        if g != n:
            return g


@dataclass(frozen=True)
class FactoredInteger:
    """An integer in (partially) factored form: sign * prod(p**e) * cofactor.

    Listed primes are verified and strictly increasing.  A cofactor other
    than 1 is a part from_int leaves unfactored where prime_factorization
    refuses: 2**64 or more, with no prime factor below DEFAULT_TRIAL_BOUND.
    """

    factors: tuple[tuple[int, int], ...]
    sign: int = 1
    cofactor: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.cofactor < 1:
            raise ValueError("cofactor must be >= 1")
        primes = [p for p, _ in self.factors]
        if primes != sorted(set(primes)):
            raise ValueError("primes must be strictly increasing")
        for p, e in self.factors:
            if e < 1:
                raise ValueError("exponents must be >= 1")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    @classmethod
    def from_int(cls, n: int) -> "FactoredInteger":
        if n == 0:
            raise ValueError("cannot factor 0")
        factors, cofactor = _factor(abs(n))
        return cls(tuple(factors), 1 if n > 0 else -1, cofactor)

    @property
    def value(self) -> int:
        v = self.sign * self.cofactor
        for p, e in self.factors:
            v *= p**e
        return v

    def valuation(self, p: int) -> int:
        """Exact p-adic valuation of the represented integer."""
        v, n = 0, abs(self.value)
        while n % p == 0:
            v += 1
            n //= p
        return v

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        if not self.factors and self.cofactor == 1:
            return str(self.sign)
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        if self.cofactor > 1:
            parts.append(f"{self.cofactor}?")  # explicitly unfactored
        body = "*".join(parts)
        return "-" + body if self.sign < 0 else body


def primitive_root(ell: int) -> int:
    """Smallest positive primitive root modulo the odd prime ell."""
    if ell == 2 or not is_prime(ell):
        raise ValueError(f"{ell} is not an odd prime")
    phi = ell - 1
    prime_divs = [p for p, _ in prime_factorization(phi)]
    for g in range(2, ell):
        if all(pow(g, phi // q, ell) != 1 for q in prime_divs):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")


def power_residue_character(g: int, ell: int, p: int, root: int | None = None) -> int:
    """Discrete index c in {0, ..., p-1} with g^((ell-1)/p) = zeta^c mod ell.

    Here zeta = root^((ell-1)/p) for the smallest primitive root of ell
    (a different primitive root may be supplied to check scaling
    behaviour).  c == 0 exactly when g is a p-th power modulo ell.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not is_prime(ell) or (ell - 1) % p != 0:
        raise ValueError(f"{ell} is not a prime congruent to 1 mod {p}")
    if g % ell == 0:
        raise ValueError(f"{g} is not a unit modulo {ell}")
    r = primitive_root(ell) if root is None else root
    zeta = pow(r, (ell - 1) // p, ell)
    target = pow(g % ell, (ell - 1) // p, ell)
    value = 1
    for c in range(p):
        if value == target:
            return c
        value = value * zeta % ell
    raise ValueError(f"{r} is not a primitive root modulo {ell}")


# Bernoulli numbers B_0, B_2, B_4, ... grown on demand (B_2 = 1/6).
_B_EVEN: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m for even m >= 2, exact (B_2 = 1/6, B_4 = -1/30).

    Convention: zeta(1 - m) = -B_m / m.
    """
    if m < 2 or m % 2:
        raise ValueError("Bernoulli index must be even and >= 2")
    k = m // 2
    # binomial recurrence over even indices; odd B vanish except B_1 = -1/2
    while len(_B_EVEN) <= k:
        t = len(_B_EVEN)
        n = 2 * t
        s = Fraction(0)
        for j in range(t):
            s += comb(n + 1, 2 * j) * _B_EVEN[j]
        s += Fraction(-(n + 1), 2)  # B_1 term
        _B_EVEN.append(-s / (n + 1))
    return _B_EVEN[k]
