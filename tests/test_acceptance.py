"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Tolerances are exact equality throughout; the two timed sweeps
carry their stated wall-clock budgets."""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

from kgenus import classify as cl
from kgenus import exactnum as xn
from kgenus import genus as gn
from kgenus import ktable as kt
from kgenus import kummer as km
from kgenus import quadforms as qf
from kgenus import tatecoh as tc
from kgenus.localdata import CyclicExtensionOfQ, quadratic_extension
from oracles import (form_class_count_bfs, multiplicative_order, pth_powers,
                     squarefree_numbers)


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {number}] {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {name} {suffix}"


def test_criterion_1_local_h0_oracle_sweep():
    start = time.monotonic()
    mismatches = []
    checked = 0
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for f in range(1, 5):
            for i in range(1, 7):
                if q ** (i * f) - 1 > tc.MODULE_CAP:
                    continue
                for e in range(1, 13):
                    h0, _ = tc.tate_orders(tc.residual_module(e, q, f, i))
                    if h0 != gcd(e, q**i - 1):
                        mismatches.append((q, e, f, i))
                    checked += 1
    elapsed = time.monotonic() - start
    _report(1, "local closed form vs Tate oracle sweep", not mismatches and elapsed < 30,
            f"{checked} modules, {elapsed:.1f}s")


def test_criterion_2_herbrand_property():
    rng = random.Random(20260809)
    failures = 0
    for _ in range(1000):
        m = rng.randrange(2, 10**4 + 1)
        while True:
            u = rng.randrange(1, m)
            if gcd(u, m) == 1:
                break
        n = multiplicative_order(u, m) * rng.randrange(1, 4)
        h0, hm1 = tc.tate_orders(tc.TateModule(m, n, u))
        if h0 != hm1:
            failures += 1
    _report(2, "Herbrand quotient h0 = hm1 on 1000 random modules",
            failures == 0)


def test_criterion_3_bernoulli_and_base_orders():
    ok = xn.bernoulli(12) == Fraction(-691, 2730)
    row12 = kt.h2_order_Z(12)
    ok &= row12.h2_order.value == 1382
    ok &= row12.h2_order.valuation(691) == 1  # 691-part is cyclic of order 691
    for i in (2, 4, 6, 8, 10):
        value = kt.h2_order_Z(i).h2_order.value
        ok &= value == 2  # odd part 1
    ladder = {2: 2, 4: 1, 6: 2, 8: 1, 10: 2, 12: 691}
    for i, expected in ladder.items():
        row = kt.h2_order_Z(i)
        ok &= row.k_order.value == expected
        ok &= not row.conditional_on_vandiver
    ok &= kt.h2_order_Z(3).conditional_on_vandiver  # odd twists stay flagged
    _report(3, "Bernoulli numbers and base order ladder", ok)


def test_criterion_4_enumeration():
    template = cl.ExtensionShape(p=2, ramified_tame=frozenset(), wild=True,
                                 real_type=cl.TOTALLY_IMAGINARY)
    sets = {tame for tame, _ in cl.enumerate_vanishing(template, 4, 50)}
    singletons = {tame[0] for tame in sets if len(tame) == 1}
    ok = singletons == {3, 5, 11, 13, 19, 29, 37, 43}
    ok &= sets == {()} | {(ell,) for ell in singletons}

    template = cl.ExtensionShape(p=3, ramified_tame=frozenset(), wild=True)
    sets = {tame for tame, _ in cl.enumerate_vanishing(template, 2, 20)}
    ok &= sets == {(), (7,), (13,)}
    _report(4, "vanishing-set enumeration matches the exact catalogs", ok)


def test_criterion_5_classifier_genus_consistency():
    mismatches = []
    for d in squarefree_numbers(200):
        ext = quadratic_extension(-d)
        shape = cl.ExtensionShape(p=2, ramified_tame=ext.tame_ramified,
                                  wild=ext.wild_ramified,
                                  real_type=cl.TOTALLY_IMAGINARY)
        for i in (2, 6):
            vanishes = cl.vanishing_decision(shape, i).verdict == cl.VANISHES
            if vanishes != (gn.genus_exponent(ext, i).exponent == -1):
                mismatches.append((-d, i))
    _report(5, "classifier vs genus exponent on imaginary quadratic fields",
            not mismatches, f"{len(mismatches)} mismatches")


def test_criterion_6_frobenius_dual_path():
    start = time.monotonic()
    mismatches = []
    for p, i in ((3, 3), (5, 5)):  # twists with the prime-class radical
        rad = km.radical(p, i)
        assert [g.kind for g in rad.generators] == [km.PRIME_P]
        for ell in range(2, 1001):
            if not xn.is_prime(ell) or ell == p or ell % p != 1:
                continue
            component, = km.frobenius_vector(rad, ell)
            if (component == 0) != (p in pth_powers(ell, p)):
                mismatches.append((p, ell))
    elapsed = time.monotonic() - start
    _report(6, "power residue character vs brute-force p-th powers",
            not mismatches and elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_7_quadratic_forms():
    ok = True
    spot = {12: 2, 5: 1, -20: 2, 40: 2}
    for disc, expected in spot.items():
        if disc < 0:
            ok &= len(qf.reduced_definite_forms(disc)) == expected
        else:
            ok &= len(qf.indefinite_cycles(disc)) == expected
    discs = set()
    for d in squarefree_numbers(500):
        for s in (d, -d):
            disc = s if s % 4 == 1 else 4 * s
            if abs(disc) <= 500:
                discs.add(disc)
    for disc in sorted(discs, key=abs):
        if disc < 0:
            reduced = qf.reduced_definite_forms(disc)
            expected = len(reduced)
        else:
            reduced = qf.reduced_indefinite_forms(disc)
            expected = len(qf.indefinite_cycles(disc))
        if form_class_count_bfs(disc, reduced) != expected:
            ok = False
            break
    for d in squarefree_numbers(500):
        data = qf.quad_field_data(d)
        h_plus, h = data.h_plus, data.h
        if h_plus not in (h, 2 * h) or (h_plus == h) != (data.unit_norm == -1):
            ok = False
            break
    _report(7, "form class numbers vs orbit oracle and unit-norm relation", ok)


def _is_square_in_field(a, b, d):
    # a + b*sqrt(d) = (u + v*sqrt(d))**2 with integer u, v?
    if b == 0:
        if a < 0:
            return False
        if isqrt(a) ** 2 == a:
            return True
        return a % d == 0 and isqrt(a // d) ** 2 == a // d
    norm = a * a - d * b * b
    if norm < 0 or isqrt(norm) ** 2 != norm:
        return False
    root = isqrt(norm)
    for trace_sq2 in (a + root, a - root):
        if trace_sq2 < 0 or trace_sq2 % 2:
            continue
        u = isqrt(trace_sq2 // 2)
        if u == 0 or u * u != trace_sq2 // 2:
            continue
        v, rem = divmod(b, 2 * u)
        if rem == 0 and a == u * u + d * v * v:
            return True
    return False


def _mul(e1, e2, d):
    return (e1[0] * e2[0] + d * e1[1] * e2[1], e1[0] * e2[1] + e1[1] * e2[0])


def _same_span_mod_squares(gens_a, gens_b, d):
    # each element of one set is a subset product of the other, up to a square
    def in_span(x, gens):
        for r in range(len(gens) + 1):
            for subset in combinations(gens, r):
                prod = x
                for g in subset:
                    prod = _mul(prod, g, d)
                if _is_square_in_field(prod[0], prod[1], d):
                    return True
        return False
    return (all(in_span(x, gens_b) for x in gens_a)
            and all(in_span(x, gens_a) for x in gens_b))


def test_criterion_8_two_regularity_and_signatures():
    ok = qf.quad_field_data(5).two_regular and qf.quad_field_data(2).two_regular
    ok &= qf.quad_field_data(5).delta == 0
    ok &= qf.quad_field_data(7).delta == 1
    data = qf.quad_field_data(3)
    named = [qf.FieldElement(-1, 0), qf.FieldElement(2, -1), qf.FieldElement(-1, 1)]
    named_rows = sorted(tuple(0 if s > 0 else 1 for s in e.signs(3)) for e in named)
    ok &= sorted(data.signature_matrix) == named_rows
    # emitted generators and the named set (-1, 2 - sqrt 3, sqrt 3 - 1) span
    # the same classes modulo squares (x and 1/x agree mod squares, so
    # checking subset products against exact squares suffices)
    ok &= _same_span_mod_squares(
        [(g.a, g.b) for g in data.two_unit_generators], [(e.a, e.b) for e in named], 3)
    ok &= data.delta == 0
    ok &= data.signature_note is not None
    _report(8, "2-regularity and 2-unit signature matrices", ok)


def test_criterion_9_exact_descent_structure():
    one = gn.exact_descent_structure(
        CyclicExtensionOfQ(3, frozenset({7}), True, False), 2)
    two = gn.exact_descent_structure(
        CyclicExtensionOfQ(3, frozenset({7, 13}), True, False), 2)
    ok = one == gn.AbelianGroupStructure((3,))
    ok &= isinstance(two, gn.NotApplicable)
    _report(9, "exact descent structure", ok)
