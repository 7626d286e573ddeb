from math import gcd, lcm

import pytest

from kgenus import localdata as ld
from kgenus import tatecoh as tc


def ext(p, tame, wild=False, infinity=False):
    return ld.CyclicExtensionOfQ(p, frozenset(tame), wild, infinity)


def test_local_invariants_examples():
    assert ld.local_invariants(ext(3, {7, 13}), 7, 2).e_i == 3  # gcd(3, 48)
    assert ld.local_invariants(ext(2, {3}, wild=True), 3, 2).e_i == 2  # gcd(2, 8)
    wild = ld.local_invariants(ext(3, {7}, wild=True), 3, 2)
    assert wild.e_prime == 1 and wild.e == 3


def test_local_invariants_tame_fields():
    data = ld.local_invariants(ext(5, {11}), 11, 4)
    assert (data.q, data.e, data.f, data.e_prime) == (11, 5, 1, 5)
    assert data.e_i == gcd(5, 11**4 - 1)


def test_local_factor_matches_tate_oracle():
    # e_i is the order of H^0 on the residual module, read by enumeration,
    # at every admissible tame prime below 100 and the wild prime
    checked = 0
    for p in (2, 3, 5, 7):
        tame = [ell for ell in range(3, 100)
                if all(ell % d for d in range(2, ell)) and ell != p
                and (p == 2 or ell % p == 1)]
        extension = ext(p, tame, wild=True)
        for ell in extension.ramified_finite:
            i = 1
            while ell**i - 1 <= tc.MODULE_CAP:
                h0, _ = tc.tate_orders(tc.residual_module(p, ell, 1, i))
                assert ld.local_invariants(extension, ell, i).e_i == h0, (p, ell, i)
                checked += 1
                i += 1
    assert checked == 214


def test_local_invariants_rejects_unramified():
    with pytest.raises(ValueError):
        ld.local_invariants(ext(3, {7}), 13, 2)
    with pytest.raises(ValueError):
        ld.local_invariants(ext(3, {7}), 3, 2)  # p unramified when wild=False


def test_tame_prime_one_mod_p_gives_full_e_i():
    # p | ell - 1 | ell**i - 1, so e_i = p at every twist
    for p, ell in ((3, 7), (3, 13), (5, 11), (7, 29)):
        extension = ext(p, {ell})
        for i in range(1, 12):
            assert ld.local_invariants(extension, ell, i).e_i == p


def test_e_i_periodicity_in_twist():
    # gcd(e, q**i - 1) depends on i only through i mod the multiplicative
    # order of q modulo each prime power dividing e
    for e in range(1, 13):
        for q in range(2, 51):
            period = 1
            m = 1
            for pk in _prime_powers(e):
                if gcd(q, pk) == 1:
                    period = lcm(period, _order(q, pk))
            for i in range(1, 31):
                assert gcd(e, q**i - 1) == gcd(e, q ** (i + period) - 1)


def _prime_powers(e):
    out = []
    d = 2
    while d <= e:
        if e % d == 0:
            pk = 1
            while e % d == 0:
                pk *= d
                e //= d
            out.append(pk)
        d += 1
    return out


def _order(q, m):
    k, x = 1, q % m
    while x != 1:
        x = x * q % m
        k += 1
    return k


def test_quadratic_extension_examples():
    e = ld.quadratic_extension(-5)
    assert (sorted(e.tame_ramified), e.wild_ramified, e.infinity_ramified) == \
        ([5], True, True)
    e = ld.quadratic_extension(-15)
    assert (sorted(e.tame_ramified), e.wild_ramified, e.infinity_ramified) == \
        ([3, 5], False, True)
    e = ld.quadratic_extension(3)
    assert (sorted(e.tame_ramified), e.wild_ramified, e.infinity_ramified) == \
        ([3], True, False)


def test_quadratic_extension_rejects():
    for bad in (0, 1, 12, -18, 50):
        with pytest.raises(ValueError):
            ld.quadratic_extension(bad)


def test_extension_shape_invariants():
    with pytest.raises(ValueError):
        ext(3, {5})  # 5 != 1 mod 3
    with pytest.raises(ValueError):
        ext(3, {7}, infinity=True)  # odd degree cannot ramify at infinity
    with pytest.raises(ValueError):
        ext(3, set())  # nothing ramifies
    with pytest.raises(ValueError):
        ext(3, {3})  # p itself is wild, not tame
    with pytest.raises(ValueError):
        ext(4, {5})  # degree not prime
    # valid shapes
    ext(2, set(), wild=True)
    ext(2, set(), infinity=True)
    ext(691, set(), wild=True)


def test_quadratic_extension_large_tame_primes():
    # the odd part has three prime factors above 10**6: split, not trial-divided
    shape = ld.quadratic_extension(-2 * 1000003 * 1000033 * 1000037)
    assert shape.tame_ramified == {1000003, 1000033, 1000037}
    assert shape.wild_ramified and shape.infinity_ramified
    assert ld.quadratic_extension(1000003 * 1000033).tame_ramified == {1000003, 1000033}
    with pytest.raises(ValueError):
        ld.quadratic_extension(1000003**2 * 1000033)
