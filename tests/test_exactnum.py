from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgenus import exactnum as xn
from kgenus.ktable import MAX_I_CAP
from oracles import (bernoulli_akiyama_tanigawa, multiplicative_order, prime_at_most,
                     primes_up_to, pth_powers, squarefree_flags)


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_examples():
    assert xn.is_prime(2) is True
    assert xn.is_prime(1) is False
    assert xn.is_prime(691) is True


def test_is_prime_matches_trial_division():
    for n in range(2000):
        assert xn.is_prime(n) == trial_division_prime(n), n


# For k = 1..11, the least odd composite that is a strong probable prime
# to the first k prime bases 2, 3, 5, ... (Jaeschke 1993; OEIS A014233),
# with its factorization and the number of leading bases it passes.
# is_prime divides by the bases first, which rejects 2047 = 23 * 89, so
# 8321 stands in for it: the least strong pseudoprime to base 2 with no
# factor among the bases.
LEAST_STRONG_PSEUDOPRIMES = (
    (2047, (23, 89), 1),
    (8321, (53, 157), 1),
    (1373653, (829, 1657), 2),
    (25326001, (2251, 11251), 3),
    (3215031751, (151, 751, 28351), 4),
    (2152302898747, (6763, 10627, 29947), 5),
    (3474749660383, (1303, 16927, 157543), 6),
    (341550071728321, (10670053, 32010157), 8),
    (3825123056546413051, (149491, 747451, 34233211), 11),
)
BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_probable_prime(n, a):
    """Whether the odd n > a passes the strong Fermat test to base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2**s exactly divides n - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def test_least_strong_pseudoprimes_are_rejected():
    # each of these fools the bases before it, so is_prime must run at
    # least one base more on it than on the numbers below it
    for n, factors, fooled in LEAST_STRONG_PSEUDOPRIMES:
        assert prod(factors) == n
        assert all(trial_division_prime(q) for q in factors)
        passed = [strong_probable_prime(n, a) for a in BASES]
        assert passed == [True] * fooled + [False] + passed[fooled + 1:], n
        assert xn.is_prime(n) is False, n


def test_is_prime_accepts_large_primes():
    assert xn.is_prime(2**61 - 1) is True
    assert xn.is_prime(2**64 - 59) is True  # the largest prime below 2**64


def test_is_prime_matches_sieve_below_300000():
    primes = set(primes_up_to(3 * 10**5))
    for n in range(3 * 10**5 + 1):
        assert xn.is_prime(n) == (n in primes), n


@st.composite
def semiprimes(draw):
    """p * q below 2**64 for primes p, q of random sizes (sympy's
    primality), so every product size up to 64 bits occurs."""
    from sympy import nextprime, prevprime

    bits = draw(st.integers(min_value=2, max_value=62))
    p = nextprime(draw(st.integers(min_value=2**(bits - 1), max_value=2**bits - 1)))
    limit = (2**64 - 1) // p
    bits = draw(st.integers(min_value=2, max_value=65 - p.bit_length()))
    q = prevprime(draw(st.integers(min_value=2**(bits - 1),
                                   max_value=min(2**bits - 1, limit))) + 1)
    return p * q


@settings(max_examples=300, deadline=None)
@given(semiprimes())
def test_is_prime_rejects_products_of_two_primes(n):
    assert n < 2**64
    assert xn.is_prime(n) is False


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        xn.is_prime(1 << 64)
    with pytest.raises(ValueError):
        xn.is_prime(-3)


def test_primitive_root_examples():
    assert xn.primitive_root(3) == 2
    # oracle: exhaustive order check of every candidate
    assert multiplicative_order(3, 7) == 6
    assert all(multiplicative_order(g, 7) < 6 for g in (2, 4))
    assert xn.primitive_root(7) == 3
    assert multiplicative_order(6, 41) == 40
    assert all(multiplicative_order(g, 41) < 40 for g in (2, 3, 4, 5))
    assert xn.primitive_root(41) == 6


def test_primitive_root_rejects_bad_input():
    for bad in (2, 4, 9, 15):
        with pytest.raises(ValueError):
            xn.primitive_root(bad)


def test_primitive_root_when_phi_has_two_factors_above_the_trial_bound():
    ell = 24000864002377
    phi_primes = (2, 3, 1000003, 1000033)
    assert ell - 1 == 2**3 * 3 * 1000003 * 1000033
    assert all(trial_division_prime(q) for q in phi_primes)
    g = xn.primitive_root(ell)
    # order ell - 1 (which also proves ell prime, by Lucas's test) ...
    assert pow(g, ell - 1, ell) == 1
    assert all(pow(g, (ell - 1) // q, ell) != 1 for q in phi_primes)
    # ... and every smaller candidate has a smaller order
    for h in range(2, g):
        assert any(pow(h, (ell - 1) // q, ell) == 1 for q in phi_primes), h
    assert g == 7


def test_primitive_root_has_full_order_up_to_10000():
    ell = 3
    while ell <= 10**4:
        if xn.is_prime(ell):
            assert multiplicative_order(xn.primitive_root(ell), ell) == ell - 1
        ell += 2


def test_power_residue_character_examples():
    assert xn.power_residue_character(2, 7, 2) == 0  # 3**2 = 2 mod 7
    assert xn.power_residue_character(2, 3, 2) == 1  # 2 = -1 is the nonsquare
    # 3 is not a cube mod 7 (brute force), and its index against zeta = 2 is 1
    assert 3 not in pth_powers(7, 3)
    assert pow(xn.primitive_root(7), 2, 7) == 2
    assert xn.power_residue_character(3, 7, 3) == 1


def test_power_residue_character_zero_iff_pth_power():
    for p in (2, 3, 5):
        for ell in range(3, 400):
            if not xn.is_prime(ell) or (ell - 1) % p or ell == p:
                continue
            powers = pth_powers(ell, p)
            for g in range(1, ell):
                assert (xn.power_residue_character(g, ell, p) == 0) == (g in powers)


def test_power_residue_character_is_additive():
    for p in (2, 3, 5):
        for ell in (31, 61, 151):
            if (ell - 1) % p:
                continue
            for g in range(1, 25):
                for h in range(1, 25):
                    total = xn.power_residue_character(g * h, ell, p)
                    parts = (xn.power_residue_character(g, ell, p)
                             + xn.power_residue_character(h, ell, p)) % p
                    assert total == parts


def test_power_residue_character_rejects():
    with pytest.raises(ValueError):
        xn.power_residue_character(2, 7, 5)  # 7 != 1 mod 5
    with pytest.raises(ValueError):
        xn.power_residue_character(7, 7, 2)  # not a unit
    with pytest.raises(ValueError):
        xn.power_residue_character(2, 9, 2)  # 9 not prime


def test_bernoulli_examples():
    assert xn.bernoulli(2) == Fraction(1, 6)
    assert xn.bernoulli(4) == Fraction(-1, 30)
    assert xn.bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_rejects_odd_or_small():
    for bad in (1, 3, 7, 0, -2):
        with pytest.raises(ValueError):
            xn.bernoulli(bad)


def test_bernoulli_matches_akiyama_tanigawa():
    # every index the base orders read, up to ktable.MAX_I_CAP
    for m in range(2, MAX_I_CAP + 1, 2):
        assert xn.bernoulli(m) == bernoulli_akiyama_tanigawa(m)


def test_von_staudt_clausen_denominators():
    for m in range(2, 62, 2):
        expected = 1
        for q in range(2, m + 2):
            if xn.is_prime(q) and m % (q - 1) == 0:
                expected *= q
        assert xn.bernoulli(m).denominator == expected


def test_factored_integer_roundtrip():
    # 5*13367*1873211*13869389: trial division to 10**6 alone leaves the
    # composite 1873211*13869389 < 2**64 unsplit
    for n in (1, 2, 12, 124, 1382, -97020, 691, 1736392818365009965):
        f = xn.FactoredInteger.from_int(n)
        assert f.value == n
        assert f.cofactor == 1
        primes = [p for p, _ in f.factors]
        assert primes == sorted(set(primes))


def test_factored_integer_prime_cofactor_is_promoted():
    big = 10**9 + 7  # prime above the trial bound
    f = xn.FactoredInteger.from_int(2 * big)
    assert f.factors == ((2, 1), (big, 1))
    assert f.cofactor == 1


def test_factored_integer_composite_cofactor_reported():
    p1, p2 = 10**9 + 7, 10**9 + 9
    f = xn.FactoredInteger.from_int(p1 * p2 * p2)
    assert f.cofactor > 1
    assert f.value == p1 * p2 * p2
    assert "?" in str(f)


def test_factored_integer_validates():
    with pytest.raises(ValueError):
        xn.FactoredInteger(((4, 1),))  # not prime
    with pytest.raises(ValueError):
        xn.FactoredInteger(((3, 1), (2, 1)))  # not increasing
    with pytest.raises(ValueError):
        xn.FactoredInteger(((2, 0),))  # exponent < 1
    with pytest.raises(ValueError):
        xn.FactoredInteger((), sign=2)


def test_valuation_refuses_p_below_two():
    twelve = xn.FactoredInteger.from_int(12)
    assert (twelve.valuation(2), twelve.valuation(3), twelve.valuation(5)) == (2, 1, 0)
    # dividing out 1 or -1 never ends, and dividing by 0 is undefined
    for p in (1, -1, 0):
        with pytest.raises(ValueError, match="p >= 2"):
            twelve.valuation(p)


def test_is_squarefree():
    assert xn.is_squarefree(-15)
    assert xn.is_squarefree(30)
    assert not xn.is_squarefree(12)
    assert not xn.is_squarefree(-18)
    big = 10**9 + 7
    assert not xn.is_squarefree(big * big)
    with pytest.raises(ValueError):
        xn.is_squarefree(0)


def test_is_squarefree_cofactor_of_three_large_primes():
    # trial division to 10**6 leaves the whole number as cofactor, above 10**18
    assert not xn.is_squarefree(1000003**2 * 1000033)
    assert not xn.is_squarefree(-(1000033**2 * 1000037))
    assert xn.is_squarefree(1000003 * 1000033 * 1000037)
    assert not xn.is_squarefree(1000003**3)
    assert xn.is_squarefree(999983 * 1000003)  # two primes, below 10**18


def test_prime_factorization_splits_large_cofactors():
    cases = {
        1000003**2 * 1000033: [(1000003, 2), (1000033, 1)],
        2 * 3**2 * 1000003 * 1000033 * 1000037: [(2, 1), (3, 2), (1000003, 1),
                                                 (1000033, 1), (1000037, 1)],
        4294967279 * 4294967291: [(4294967279, 1), (4294967291, 1)],
        (10**9 + 7) ** 2: [(10**9 + 7, 2)],
        18446744073709551557: [(18446744073709551557, 1)],  # largest prime < 2**64
        # a balanced 63-bit semiprime, the slowest kind for rho
        3037000453 * 3037000493: [(3037000453, 1), (3037000493, 1)],
        1: [],
    }
    assert xn.RHO_BUDGET == 1 << 20  # the 32-bit semiprime is split within it
    for n, expected in cases.items():
        assert xn.prime_factorization(n) == expected, n


def test_rho_splits_every_product_of_two_primes_above_the_trial_bound():
    # the 1770 products of two of the first 60 primes above 2**10 reach
    # rho whole; for 28 of them the walk with c = 1 closes on n without a
    # factor, so the retry with the next c is exercised too
    primes = [q for q in primes_up_to(1460) if q > 1 << 10]
    assert len(primes) == 60
    for a, b in combinations(primes, 2):
        assert xn.prime_factorization(a * b) == [(a, 1), (b, 1)], (a, b)


def test_prime_factorization_refuses_what_it_cannot_split(monkeypatch):
    with pytest.raises(ValueError):
        xn.prime_factorization(18446744073709551557 * 1000003)  # cofactor >= 2**64
    with pytest.raises(ValueError):
        xn.is_squarefree(18446744073709551557 * 1000003)
    monkeypatch.setattr(xn, "RHO_BUDGET", 4)
    with pytest.raises(ValueError):
        xn.prime_factorization(4294967279 * 4294967291)


def test_is_squarefree_keeps_answers_beyond_rho_range():
    # each input has a cofactor of 2**64 or more after the small primes
    assert not xn.is_squarefree(4 * (2**89 - 1))  # 2 repeats; 2**89 - 1 is prime
    assert not xn.is_squarefree((10**10 + 19) ** 2)  # a square cofactor
    assert xn.is_squarefree(999983 * 999979 * 999961 * 999959)
    assert xn.is_squarefree(999983 * 999979 * 999961 * (2**61 - 1))
    with pytest.raises(ValueError):
        xn.is_squarefree(3 * 5 * (2**89 - 1))


def test_is_squarefree_answers_before_the_long_trial_division(monkeypatch):
    # the repeat and the square cofactor are visible after the primes
    # below 2**10, so no trial division on to 10**6 is needed
    bounds = []
    trial_factor = xn.trial_factor

    def counted(n, bound=xn.DEFAULT_TRIAL_BOUND):
        bounds.append(bound)
        return trial_factor(n, bound)

    monkeypatch.setattr(xn, "trial_factor", counted)
    assert not xn.is_squarefree(4 * (2**89 - 1))
    assert not xn.is_squarefree((10**10 + 19) ** 2)
    assert bounds == [xn._SMALL_PRIME_BOUND] * 2


PRIMES_BELOW_2_32 = st.integers(min_value=2, max_value=2**32).map(prime_at_most)


@st.composite
def prime_multisets(draw):
    """A nonempty list of primes below 2**32, with repeats, whose product
    stays below 2**64."""
    primes = [draw(PRIMES_BELOW_2_32)]
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        q = (draw(st.sampled_from(primes)) if draw(st.booleans())
             else draw(PRIMES_BELOW_2_32))
        if prod(primes) * q >= 2**64:
            break
        primes.append(q)
    return primes


@settings(max_examples=60, deadline=None)
@given(prime_multisets())
def test_prime_factorization_returns_the_primes_it_was_built_from(primes):
    assert xn.prime_factorization(prod(primes)) == sorted(Counter(primes).items())


SIEVE_LIMIT = 10**6


@pytest.fixture(scope="module")
def squarefree_sieve():
    return squarefree_flags(SIEVE_LIMIT)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=SIEVE_LIMIT))
def test_is_squarefree_matches_sieve(squarefree_sieve, n):
    assert xn.is_squarefree(n) == squarefree_sieve[n]
    assert xn.is_squarefree(-n) == squarefree_sieve[n]
