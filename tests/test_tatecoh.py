import random
import subprocess
import sys
import time
import tracemalloc
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgenus
from kgenus import cli
from kgenus import tatecoh as tc
from oracles import multiplicative_order, tate_orders_sets


def test_tate_orders_examples():
    assert tc.tate_orders(tc.TateModule(2, 4, 1)) == (2, 2)
    assert tc.tate_orders(tc.TateModule(8, 4, 3)) == (2, 2)
    assert tc.tate_orders(tc.TateModule(1, 5, 1)) == (1, 1)


def test_examples_match_closed_form():
    # (m=2, n=4, u=1) is the residual module for q=3, i=1, e=4, f=1
    assert tc.residual_module(4, 3, 1, 1) == tc.TateModule(2, 4, 1)
    assert tc.residual_h0_closed_form(4, 3, 1, 1) == 2
    # (m=8, n=4, u=3) is the residual module for q=3, i=1, e=2, f=2
    assert tc.residual_module(2, 3, 2, 1) == tc.TateModule(8, 4, 3)
    assert tc.residual_h0_closed_form(2, 3, 2, 1) == 2
    assert tc.tate_orders(tc.residual_module(2, 3, 2, 1))[0] == 2
    assert tc.residual_h0_closed_form(1, 3, 2, 1) == 1  # unramified


def test_closed_form_is_gcd():
    for e in range(1, 8):
        for q in (2, 3, 5):
            for i in range(1, 5):
                assert tc.residual_h0_closed_form(e, q, 3, i) == gcd(e, q**i - 1)


def test_closed_form_at_a_huge_twist():
    # 3**i mod 4 alternates 1, 3, so gcd(4, 3**i - 1) is 4 at even i, 2 at odd
    start = time.perf_counter()
    assert tc.residual_h0_closed_form(4, 3, 1, 10**8) == 4
    assert tc.residual_h0_closed_form(4, 3, 1, 10**8 + 1) == 2
    assert time.perf_counter() - start < 1.0


def test_matches_pure_python_enumeration():
    cases = [(2, 4, 1), (8, 4, 3), (7, 3, 2), (12, 4, 5), (9, 6, 2),
             (16, 4, 7), (31, 5, 2), (20, 4, 3)]
    for m, n, u in cases:
        module = tc.TateModule(m, n, u)
        assert tc.tate_orders(module) == tate_orders_sets(m, n, u)


def test_norm_map_definition_at_lower_twist():
    # h0 of the twist (i-1) module via the library equals the hand-rolled
    # norm-quotient |M^G / N.M| from literal subsets
    for e, q, f, i in [(4, 3, 1, 2), (2, 3, 2, 2), (6, 5, 1, 3), (3, 7, 2, 2)]:
        module = tc.residual_module(e, q, f, i - 1)
        h0 = tc.tate_orders(module)[0]
        m, n, u = module.m, module.n, module.u
        norm = sum(pow(u, j, m) for j in range(n)) % m
        fixed = [x for x in range(m) if (u - 1) * x % m == 0]
        norm_image = {norm * x % m for x in range(m)}
        assert h0 == len(fixed) // len(norm_image)


def test_herbrand_quotient_is_one():
    rng = random.Random(1789)
    for _ in range(300):
        m = rng.randrange(2, 3000)
        units = [u for u in range(1, m) if gcd(u, m) == 1]
        u = rng.choice(units)
        n = multiplicative_order(u, m) * rng.randrange(1, 4)
        h0, hm1 = tc.tate_orders(tc.TateModule(m, n, u))
        assert h0 == hm1


@pytest.mark.parametrize("m", [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_block_edges_match_set_oracle(m):
    # sizes at and either side of 2**16, and an odd size past three times it
    for u in (1, 2, m - 1):
        if gcd(u, m) != 1:
            continue
        order = multiplicative_order(u, m)
        for n in (order, 2 * order):
            assert tc.tate_orders(tc.TateModule(m, n, u)) == tate_orders_sets(m, n, u), (n, u)
    # h0 and h-1 are ratios, so an element lost from both counts of a
    # quotient can cancel out; the counts themselves must be exact
    for mult in (0, 1, 2, 6, m - 1, 2**16 % m):
        values = [mult * x % m for x in range(m)]
        assert tc._kernel_and_image(mult, m) == (values.count(0), len(set(values))), mult


def test_run_cases_match_set_oracle():
    # an even size with many divisors and the prime above it, whose
    # multipliers between them reach every run case of the enumeration
    reached = set()
    for m in (4620, 4621):
        for u in (1, 2, m - 1):
            if gcd(u, m) != 1:
                continue
            order = multiplicative_order(u, m)
            for n in (order, 2 * order):
                expected = tate_orders_sets(m, n, u)
                assert tc.tate_orders(tc.TateModule(m, n, u)) == expected, (m, n, u)
        # h0 and h-1 are ratios, so an element lost from both counts of a
        # quotient can cancel out; the counts themselves must be exact
        golden = (isqrt(5 * m * m) - m) // 2  # its strides are Fibonacci numbers
        for k in (0, 1, 2, m // 3, m // 2 - 1, m // 2, m // 2 + 1, golden, m - 1):
            values = [k * x % m for x in range(m)]
            assert tc._kernel_and_image(k, m) == (values.count(0), len(set(values))), (m, k)
            s, delta = tc._stride(k, m)
            direction = "constant" if delta == 0 else "rising" if 2 * delta <= m else "from last"
            reached.add((s > 1, direction, m % s != 0))
    # (stride above 1, how each class is read, classes of two lengths):
    # s = 1 divides m, and so does the s of a constant class, k*s = 0 mod m
    assert reached == {(False, "constant", False), (False, "rising", False),
                       (False, "from last", False), (True, "constant", False),
                       (True, "rising", False), (True, "rising", True),
                       (True, "from last", False), (True, "from last", True)}


def test_kernel_and_image_match_the_literal_list_up_to_200():
    for m in range(1, 201):
        for k in range(m):
            values = [k * x % m for x in range(m)]
            assert tc._kernel_and_image(k, m) == (values.count(0), len(set(values))), (k, m)


@pytest.mark.parametrize("m", [954528, tc.MODULE_CAP])
def test_kernel_and_image_match_the_literal_list_near_the_cap(m):
    # every case: constant classes (k = 0, m//2, and m//3 at m = 954528),
    # classes read from their first element (1, 2, m//2 + 1) and from
    # their last (m - 1, and m//3 at m = 10**6)
    for k in (0, 1, 2, m // 3, m // 2, m // 2 + 1, m - 1):
        values = [k * x % m for x in range(m)]
        assert tc._kernel_and_image(k, m) == (values.count(0), len(set(values))), k


def test_stride_bounds_the_runs_whatever_the_multiplier():
    # Dirichlet: some convergent denominator s <= isqrt(m) leaves
    # min(delta, m - delta) <= isqrt(m), so there are O(sqrt(m)) runs
    m = tc.MODULE_CAP
    bound = 2 * isqrt(m) + 1
    rng = random.Random(25)
    for k in [rng.randrange(m) for _ in range(200)]:
        s, delta = tc._stride(k, m)
        assert delta == k * s % m
        assert 1 <= s <= bound and s + min(delta, m - delta) <= bound, k


def test_near_cap_module_matches_set_oracle():
    # m = 977**2 - 1: the residual module at q = 977, f = 2, i = 1 for e = 3
    assert tc.tate_orders(tc.TateModule(954528, 6, 977)) == tate_orders_sets(954528, 6, 977)


@st.composite
def small_modules(draw):
    m = draw(st.integers(min_value=2, max_value=3000))
    u = draw(st.integers(min_value=1, max_value=m - 1).filter(lambda u: gcd(u, m) == 1))
    n = multiplicative_order(u, m) * draw(st.integers(min_value=1, max_value=4))
    return m, n, u


@settings(max_examples=200, deadline=None)
@given(small_modules())
def test_small_modules_match_set_oracle(module):
    m, n, u = module
    assert tc.tate_orders(tc.TateModule(m, n, u)) == tate_orders_sets(m, n, u)


@pytest.mark.parametrize("module", [tc.TateModule(954528, 6, 977),
                                    tc.TateModule(tc.MODULE_CAP, 2, tc.MODULE_CAP - 1)])
def test_enumeration_memory_is_bounded(module):
    # the image marks take at most 1 MB and the run of ones at most 1 MB;
    # one pass over all of Z/m as an int64 array would hold about 22 MB
    tracemalloc.start()
    try:
        tc.tate_orders(module)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_trivial_action_orders():
    # u = 1: H^0 = Z/m / n.Z/m and H^-1 = kernel of n, both of order gcd(n, m)
    for m in (2, 6, 35, 99):
        for n in (1, 2, 12):
            assert tc.tate_orders(tc.TateModule(m, n, 1)) == (gcd(n, m), gcd(n, m))


def test_module_validation():
    with pytest.raises(ValueError):
        tc.TateModule(8, 2, 2)  # not a unit
    with pytest.raises(ValueError):
        tc.TateModule(8, 3, 3)  # 3**3 = 3 mod 8
    with pytest.raises(ValueError):
        tc.TateModule(0, 1, 1)


def test_residue_cardinality_one_is_refused_by_oracle_and_closed_form():
    # q = 1 is no residue field: it would give the zero module and gcd(e, 0) = e
    with pytest.raises(ValueError, match="residue cardinality q = 1 must be >= 2"):
        tc.residual_module(1, 1, 1, 1)
    with pytest.raises(ValueError, match="residue cardinality q = 1 must be >= 2"):
        tc.residual_h0_closed_form(2, 1, 1, 1)


def test_cap_refuses_instead_of_degrading():
    big = tc.TateModule(tc.MODULE_CAP + 1, 1, 1)
    with pytest.raises(ValueError):
        tc.tate_orders(big)


def test_residual_module_refuses_past_the_cap_before_building_it():
    # 7**(10**7) - 1 has about 2.8 * 10**7 bits; building it took 17.8 s
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the enumeration cap"):
        tc.residual_module(2, 7, 1, 10**7)
    assert time.perf_counter() - start < 0.1
    # sizes on either side of the cap; a size equal to it is enumerable
    assert tc.residual_module(1, tc.MODULE_CAP + 1, 1, 1).m == tc.MODULE_CAP
    with pytest.raises(ValueError):
        tc.residual_module(1, tc.MODULE_CAP + 2, 1, 1)
    assert tc.residual_module(1, 2, 19, 1).m == 2**19 - 1
    for f in (20, 21):  # 2**20 - 1 > 10**6, and past the cap's bit length
        with pytest.raises(ValueError):
            tc.residual_module(1, 2, f, 1)


def test_norm_multiplier_matches_literal_sum():
    # every unit u mod m <= 60 and every n <= 120 with u**n = 1 mod m
    for m in range(1, 61):
        for u in range(m):
            if gcd(u, m) != 1:
                continue
            for n in range(1, 121):
                if pow(u, n, m) != 1 % m:
                    continue
                total, power = 0, 1
                for _ in range(n):
                    total += power
                    power = power * u % m
                assert tc.TateModule(m, n, u).norm_multiplier == total % m, (m, n, u)


def test_norm_multiplier_far_past_the_literal_sum():
    # u of small order o mod m divides u**n - 1 for n = k * o, and the
    # norm is then k copies of the literal sum over one period
    rng = random.Random(20261020)
    checked = 0
    while checked < 300:
        a, o = rng.randrange(2, 1000), rng.randrange(1, 21)
        m = rng.choice((a**o - 1, (a**o - 1) // (a - 1)))
        u = pow(a, rng.randrange(1, 50), m) if 2 <= m <= 10**6 else 0
        if u < 2:
            continue
        order = multiplicative_order(u, m)
        k = rng.randrange(1, 2**80)
        period = sum(pow(u, j, m) for j in range(order))
        assert tc.TateModule(m, k * order, u).norm_multiplier == k * period % m, (m, u, k)
        checked += 1


def test_tate_oracle_large_group_order(capsys):
    start = time.perf_counter()
    code = cli.main(["tate-oracle", "--m", "7", "--n", "100000000", "--u", "1"])
    elapsed = time.perf_counter() - start
    assert code == 0 and '"h0": 1' in capsys.readouterr().out
    assert elapsed < 1.0


def test_import_does_not_load_numpy():
    src = str(Path(kgenus.__file__).resolve().parents[1])
    probe = "import sys, kgenus, kgenus.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True, timeout=60).stdout
    assert out.strip() == "False"


def test_tate_oracle_at_the_cap_does_not_load_numpy():
    src = str(Path(kgenus.__file__).resolve().parents[1])
    probe = ("import sys, kgenus.cli; "
             "code = kgenus.cli.main(['tate-oracle', '--m', '954528', '--n', '6', '--u', '977']); "
             "print(code, 'numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True, timeout=60).stdout
    assert out.strip().splitlines()[-1] == "0 False"
