import time
from fractions import Fraction

import pytest

from kgenus import exactnum as xn
from kgenus import ktable as kt
from oracles import primes_up_to


def test_bernoulli_numerator_against_direct_fraction():
    for k in range(1, 16):
        expected = abs(Fraction(xn.bernoulli(2 * k), 4 * k).numerator)
        assert kt.bernoulli_numerator(k) == expected
    assert kt.bernoulli_numerator(6) == 691


def test_h2_order_examples():
    assert kt.h2_order_Z(2).h2_order.value == 2  # c_1 = numerator(1/24) = 1
    row12 = kt.h2_order_Z(12)
    assert row12.h2_order.value == 1382
    assert (691, 1) in row12.h2_order.factors
    assert kt.h2_order_Z(4).h2_order.value == 2


def test_odd_part_trivial_for_small_even_twists():
    for i in (2, 4, 6, 8, 10):
        value = kt.h2_order_Z(i).h2_order.value
        assert value // 2**kt.h2_order_Z(i).h2_order.valuation(2) == 1


def test_k_order_classical_ladder():
    ladder = {2: 2, 4: 1, 6: 2, 8: 1, 10: 2, 12: 691}
    for i, expected in ladder.items():
        assert kt.h2_order_Z(i).k_order.value == expected


def test_k4_is_trivial_conditionally():
    row = kt.h2_order_Z(3)
    assert row.k_order.value == 1
    assert row.conditional_on_vandiver
    assert not kt.h2_order_Z(3, assume_vandiver=True).conditional_on_vandiver
    assert not kt.h2_order_Z(12).conditional_on_vandiver  # even twist is exact


def test_two_adic_valuation_exactly_one_for_even_twists():
    # c_k odd for these k; a counterexample would contradict the 2*c_k order
    for i in range(2, 26, 2):
        assert kt.h2_order_Z(i).h2_order.valuation(2) == 1, f"c_{i//2} is even"


def test_rw_case_restatement():
    for i in range(2, 41):
        row = kt.h2_order_Z(i)
        bump = 1 if (2 * i - 2) % 8 == 6 else 0
        assert row.k_order.value * 2**bump == row.h2_order.value


def test_base_table_shape():
    rows = kt.base_table(12)
    assert [row.i for row in rows] == list(range(2, 13))
    assert rows[-1].h2_order.value == 1382
    with pytest.raises(ValueError):
        kt.base_table(1)
    with pytest.raises(ValueError):
        kt.base_table(kt.MAX_I_CAP + 1)
    with pytest.raises(ValueError):
        kt.h2_order_Z(1)


def test_base_order_refuses_even_twists_past_the_cap():
    # the Bernoulli recurrence grows like k**2.5: about 3 s at i = 1000
    start = time.perf_counter()
    for i in (kt.MAX_I_CAP + 2, 1000, 100000):
        with pytest.raises(ValueError, match="exceeds the base-order cap"):
            kt.h2_order_Z(i)
    assert time.perf_counter() - start < 0.1
    assert kt.h2_order_Z(kt.MAX_I_CAP).i == kt.MAX_I_CAP
    assert kt.h2_order_Z(100001).h2_order.value == 1  # odd twists cost nothing


def test_k_order_read_off_the_factored_h2_order(monkeypatch):
    for i in range(2, 41):
        row = kt.h2_order_Z(i)
        assert row.k_order == xn.FactoredInteger.from_int(row.k_order.value), i
    calls = []
    original = xn.trial_factor
    monkeypatch.setattr(xn, "trial_factor", lambda *a: calls.append(a) or original(*a))
    # 2i - 2 = 6, 2 and 2 mod 8; rho finishes after the primes below 2**10
    for i, bump in ((32, 2), (34, 1), (38, 1)):
        calls.clear()
        row = kt.h2_order_Z(i)
        assert [bound for _, bound in calls] == [xn._SMALL_PRIME_BOUND], i
        assert row.k_order.value * bump == row.h2_order.value


def test_base_orders_factor_fully_or_leave_a_cofactor_past_rho():
    # a cofactor is left only where prime_factorization refuses: it is of
    # 2**64 or more and has no prime factor below DEFAULT_TRIAL_BOUND
    cofactors = 1
    for k in range(1, kt.MAX_I_CAP // 2 + 1):
        n = 2 * kt.bernoulli_numerator(k)
        f = xn.FactoredInteger.from_int(n)
        assert f.value == n
        assert f.cofactor == 1 or f.cofactor >= 2**64, 2 * k
        cofactors *= f.cofactor
    assert all(cofactors % q for q in primes_up_to(xn.DEFAULT_TRIAL_BOUND))
