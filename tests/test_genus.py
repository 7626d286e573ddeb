import random
import time
from dataclasses import replace

import pytest

from kgenus import classify as cl
from kgenus import exactnum as xn
from kgenus import genus as gn
from kgenus import kummer as km
from kgenus import localdata as ld
from kgenus.localdata import (CyclicExtensionOfQ, local_invariants,
                              quadratic_extension)
from kgenus.quadforms import quad_field_data
from oracles import (indefinite_form_classes, primes_up_to, squarefree_numbers,
                     tate_two_rank_imaginary, tate_two_rank_real)


def ext(p, tame, wild=False, infinity=False):
    return CyclicExtensionOfQ(p, frozenset(tame), wild, infinity)


def test_genus_exponent_examples():
    report = gn.genus_exponent(ext(3, {7, 13}, wild=True), 2)
    assert report.exponent == 1 and report.t == 1
    assert report.norm_index == 3

    report = gn.genus_exponent(quadratic_extension(-5), 2)
    assert report.exponent == -1
    assert (report.t, report.r) == (1, 1)

    report = gn.genus_exponent(quadratic_extension(2), 3)
    assert report.exponent == 0


def test_genus_exponent_case_flags():
    # odd twist with a ramified real place uses the totally positive rank
    # under the recorded hypothesis
    report = gn.genus_exponent(quadratic_extension(-5), 3)
    assert report.delta_variant_used
    assert gn.H_I in report.assumptions
    assert report.s_i == 0
    # even twist: no hypothesis, s_i = r
    report = gn.genus_exponent(quadratic_extension(-5), 2)
    assert not report.delta_variant_used
    assert report.assumptions == frozenset()
    assert report.s_i == report.r == 1
    # odd p with a cyclotomic-element radical is Vandiver-conditional
    report = gn.genus_exponent(ext(5, {11}, wild=True), 3)
    assert gn.VANDIVER in report.assumptions


def test_genus_exponent_per_prime_data():
    report = gn.genus_exponent(ext(3, {7}, wild=True), 2)
    table = dict(report.per_prime)
    assert table[7] == (3, 3)
    assert table[3] == (1, 1)  # wild prime: tame inertia part is trivial


def test_k_genus_examples():
    # 2i-2 = 6 mod 8 converts the motivic exponent by +r
    report = gn.k_genus_ratio(quadratic_extension(-5), 4)
    assert report.exponent == 0
    assert gn.genus_exponent(quadratic_extension(-5), 4).exponent == -1

    report = gn.k_genus_ratio(ext(3, {7}, wild=True), 2)
    assert report.exponent == 0 and report.t == 1

    report = gn.k_genus_ratio(quadratic_extension(2), 3)  # 2i-2 = 4 mod 8
    assert report.exponent == 0


def test_k_genus_matches_genus_for_odd_p():
    for i in (2, 3, 4, 5):
        shape = ext(3, {7, 13}, wild=True)
        assert gn.k_genus_ratio(shape, i) == gn.genus_exponent(shape, i)


def test_k_genus_case_table_p2():
    shape = quadratic_extension(-5)
    for i in (2, 6):   # 2i-2 = 2 mod 8: same as motivic
        assert gn.k_genus_ratio(shape, i).exponent == \
            gn.genus_exponent(shape, i).exponent
    for i in (4, 8):   # 2i-2 = 6 mod 8: shifted by r
        assert gn.k_genus_ratio(shape, i).exponent == \
            gn.genus_exponent(shape, i).exponent + 1
    for i in (3, 5):   # odd twists: plus rank under (H_i)
        report = gn.k_genus_ratio(shape, i)
        assert gn.H_I in report.assumptions and report.delta_variant_used
    # real quadratic at 2i-2 = 0 mod 8 stays unconditional
    report = gn.k_genus_ratio(quadratic_extension(2), 5)
    assert gn.H_I not in report.assumptions


@pytest.mark.parametrize("shape, i", [
    (ext(2, {5, 13}, wild=True, infinity=True), 5),  # infinity ramified
    (ext(2, {3, 7}), 7),  # i = 3 mod 4, infinity unramified
])
def test_k_genus_ratio_ranks_once(monkeypatch, shape, i):
    # the plus-radical K-theory rows rank the tame set once and read the
    # local data once per ramified prime
    calls = {"rank": 0, "local": 0}
    rank, local = gn._rank, gn.local_invariants

    def counted_rank(*args):
        calls["rank"] += 1
        return rank(*args)

    def counted_local(*args):
        calls["local"] += 1
        return local(*args)

    monkeypatch.setattr(gn, "_rank", counted_rank)
    monkeypatch.setattr(gn, "local_invariants", counted_local)
    report = gn.k_genus_ratio(shape, i)
    assert report.delta_variant_used and gn.H_I in report.assumptions
    assert calls == {"rank": 1, "local": len(shape.ramified_finite)}


@pytest.mark.parametrize("p, tame, infinity, twists", [
    (2, {10007, 10009}, False, (2, 3, 4, 5, 7)),
    (2, {10007, 10009}, True, (2, 3, 4, 5, 7)),
    (3, {10009, 10039}, False, (2, 3, 4)),
    (5, {10111, 10141}, False, (3, 4, 5, 6)),
])
def test_reports_test_no_tame_prime_again(monkeypatch, p, tame, infinity, twists):
    # the shape validated its tame primes; the reports rank them, read
    # their local data and decide descent without testing them again
    shape = ext(p, tame, wild=True, infinity=infinity)
    calls = []
    for module in (xn, km, ld, cl):
        original = module.is_prime
        monkeypatch.setattr(module, "is_prime", lambda n, f=original: calls.append(n) or f(n))
    for i in twists:
        gn.genus_exponent(shape, i)
        gn.k_genus_ratio(shape, i)
        gn.descent_bounds(shape, i)
        if not infinity:
            gn.exact_descent_structure(shape, i, assume_vandiver=True)
    assert calls and not tame & set(calls)


def test_descent_bounds_examples():
    bounds = gn.descent_bounds(ext(3, {7, 13}, wild=True), 2)
    assert bounds.coker_lower.value == 3
    assert bounds.T_used == frozenset({7})
    assert bounds.ker_lower.value == 3

    bounds = gn.descent_bounds(ext(3, {7}, wild=True), 2)
    assert bounds.coker_lower.value == 3 and bounds.T_used == frozenset({7})

    bounds = gn.descent_bounds(quadratic_extension(2), 3)
    assert bounds.coker_lower.value == 1 and bounds.ker_lower.value == 1


def test_huge_twists_reduce_their_powers_mod_p():
    # gcd(p, ell**i - 1) is read from ell**i mod p; at i = 10**8 the full
    # power 7**i would have about 85 million digits
    extension = ext(3, {7}, wild=True)
    start = time.perf_counter()
    report = gn.genus_exponent(extension, 10**8)
    bounds = gn.descent_bounds(extension, 10**8)
    tame, wild = (local_invariants(extension, ell, 10**8) for ell in (7, 3))
    assert time.perf_counter() - start < 1.0
    assert replace(report, i=2) == gn.genus_exponent(extension, 2)
    assert bounds == gn.descent_bounds(extension, 2)
    assert (tame, wild) == tuple(local_invariants(extension, ell, 2) for ell in (7, 3))


def test_descent_bounds_two_exponents_never_dropped():
    bounds = gn.descent_bounds(quadratic_extension(-5), 3)  # i odd, r = 1
    assert bounds.coker_two_exponent == -1  # s_i - r
    assert bounds.ker_two_exponent == -1
    assert bounds.coker_lower.value >= 1
    bounds = gn.descent_bounds(quadratic_extension(-5), 2)  # i even
    assert bounds.coker_two_exponent == 0
    assert bounds.ker_two_exponent == 1
    assert bounds.ker_lower.value == 2 * 2  # 2**r times e' = 2 at the tame prime


def test_exact_descent_structure_examples():
    assert gn.exact_descent_structure(ext(3, {7}, wild=True), 2) == \
        gn.AbelianGroupStructure((3,))
    result = gn.exact_descent_structure(ext(3, {7, 13}, wild=True), 2)
    assert isinstance(result, gn.NotApplicable)
    assert "not primitive" in result.reason
    result = gn.exact_descent_structure(ext(691, set(), wild=True), 12)
    assert isinstance(result, gn.NotApplicable)
    assert "691" in result.reason


def test_exact_descent_structure_gates():
    with pytest.raises(ValueError):
        gn.exact_descent_structure(quadratic_extension(-5), 2)
    # odd twist, odd p: needs the Vandiver grant for the base order
    shape = ext(3, {7}, wild=True)
    result = gn.exact_descent_structure(shape, 3)
    assert isinstance(result, gn.NotApplicable)
    granted = gn.exact_descent_structure(shape, 3, assume_vandiver=True)
    assert granted == gn.AbelianGroupStructure((3,))
    # p = 2 at an odd twist is unconditional (2-part of the base is known)
    assert gn.exact_descent_structure(quadratic_extension(3), 3) == \
        gn.AbelianGroupStructure((2,))
    # p = 2 at an even twist always fails on the base order
    result = gn.exact_descent_structure(quadratic_extension(3), 2)
    assert isinstance(result, gn.NotApplicable)


def test_abelian_group_structure_validation():
    gn.AbelianGroupStructure(())
    gn.AbelianGroupStructure((2, 4, 8))
    with pytest.raises(ValueError):
        gn.AbelianGroupStructure((4, 2))
    with pytest.raises(ValueError):
        gn.AbelianGroupStructure((1, 2))


def _random_shapes(rng, count):
    pool = {
        2: [3, 5, 7, 11, 13, 17, 19, 23, 29],
        3: [7, 13, 19, 31, 37, 43],
        5: [11, 31, 41, 61, 71],
    }
    shapes = []
    while len(shapes) < count:
        p = rng.choice([2, 3, 5])
        tame = frozenset(rng.sample(pool[p], rng.randrange(0, 4)))
        wild = rng.random() < 0.7
        infinity = p == 2 and rng.random() < 0.5
        if not (tame or wild or infinity):
            continue
        shapes.append(ext(p, tame, wild, infinity))
    return shapes


def test_rank_and_exponent_ranges_on_random_shapes():
    rng = random.Random(97)
    for shape in _random_shapes(rng, 120):
        for i in (2, 3, 4, 5):
            report = gn.genus_exponent(shape, i)
            dim = km.radical(shape.p, i, plus_variant=report.delta_variant_used).dim
            n_tame = len(shape.tame_ramified)
            assert 0 <= report.t <= min(dim, n_tame)
            if shape.p != 2:
                assert n_tame - dim <= report.exponent <= n_tame
                assert report.exponent >= 0  # rank never exceeds the set size


def test_adding_a_tame_prime_moves_exponent_by_zero_or_one():
    rng = random.Random(1031)
    extra = {2: [31, 37, 41, 43], 3: [61, 67, 73], 5: [101, 131, 151]}
    for shape in _random_shapes(rng, 80):
        candidates = [q for q in extra[shape.p] if q not in shape.tame_ramified]
        bigger = ext(shape.p, shape.tame_ramified | {rng.choice(candidates)},
                     shape.wild_ramified, shape.infinity_ramified)
        for i in (2, 3, 5):
            before = gn.genus_exponent(shape, i).exponent
            after = gn.genus_exponent(bigger, i).exponent
            assert after - before in (0, 1)


def test_consistency_with_classifier_small_range():
    # imaginary quadratic, twist 2 mod 4: vanishing of the 2-part is
    # exactly genus exponent -1 (the base group has order 2)
    for d in squarefree_numbers(60):
        shape = quadratic_extension(-d)
        decision_shape = cl.ExtensionShape(
            p=2, ramified_tame=shape.tame_ramified, wild=shape.wild_ramified,
            real_type=cl.TOTALLY_IMAGINARY)
        for i in (2, 6):
            vanishes = cl.vanishing_decision(decision_shape, i).verdict == cl.VANISHES
            assert vanishes == (gn.genus_exponent(shape, i).exponent == -1), (-d, i)


def test_k_genus_exponent_against_tates_two_rank_imaginary():
    # F = Q(sqrt(-d)), G = Gal(F/Q), A the 2-part of K_2(o_F): at i = 2,
    # K_2(Z) = Z/2 gives |A_G| = 2**(exponent + 1), and the oracle's r2
    # is the 2-rank of A from Tate's formula
    vanishing = set()
    for d in [1] + squarefree_numbers(2000):
        r2 = tate_two_rank_imaginary(d)
        exponent = gn.k_genus_ratio(quadratic_extension(-d), 2).exponent
        # proved: (A/2A)_G has dimension at least r2/2
        assert exponent + 1 >= -(-r2 // 2), d
        # proved (Nakayama): A_G is trivial exactly when A is
        assert (exponent == -1) == (r2 == 0), d
        # observed here on every field, not proved
        assert exponent + 1 == r2, (d, r2, exponent)
        if r2 == 0:
            vanishing.add(d)
    # Browkin-Schinzel: K_2(o_F) has odd order exactly for d = 1, 2 and
    # d = p, 2p with p = +/-3 mod 8
    listed = {1, 2} | {m * q for q in primes_up_to(2000) if q % 8 in (3, 5)
                       for m in (1, 2) if m * q <= 2000}
    assert vanishing == listed
    assert len(vanishing) == 245


def test_k_genus_exponent_against_tates_two_rank_real():
    # F = Q(sqrt(d)) real: the oracle's r2 is the 2-rank of K_2(o_F) from
    # Tate's formula with r1 = 2, its classes the oracle's form cycles
    fields = [d for d in squarefree_numbers(1000) if d >= 2]
    with_delta = with_norm_minus_one = 0
    for d in fields:
        data = quad_field_data(d)
        disc = d if d % 4 == 1 else 4 * d
        assert len(set(indefinite_form_classes(disc).values())) == data.h_plus, d
        r2 = tate_two_rank_real(d)
        e1 = gn.k_genus_ratio(quadratic_extension(d), 2).exponent + 1
        # proved: the bound of the imaginary case, and r2 >= r1 = 2
        assert e1 >= -(-r2 // 2) and r2 >= 2, (d, r2, e1)
        # observed here on every field, not proved
        assert e1 in (r2 - 1, r2), (d, r2, e1)
        if data.delta is not None:
            assert e1 == r2 - 1 + data.delta, (d, r2, e1, data.delta)
            with_delta += 1
        if data.unit_norm == -1:
            assert e1 == r2 - 1, (d, r2, e1)
            with_norm_minus_one += 1
    assert (len(fields), with_delta, with_norm_minus_one) == (607, 259, 144)
