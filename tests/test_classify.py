import time
from collections.abc import Iterator
from itertools import combinations, product

import pytest

from kgenus import classify as cl
from kgenus import exactnum as xn
from kgenus import genus as gn
from kgenus import kummer as km
from kgenus import ktable as kt
from kgenus import localdata as ld
from oracles import vanishing_catalog_all_subsets, vanishing_verdict_by_congruences


def shape(p, tame, real_type=cl.NOT_APPLICABLE, cyclic=True, wild=True):
    return cl.ExtensionShape(p=p, ramified_tame=frozenset(tame), wild=wild,
                             real_type=real_type, cyclic=cyclic)


def test_vanishing_decision_examples():
    assert cl.vanishing_decision(shape(3, {7}), 2).verdict == cl.VANISHES
    decision = cl.vanishing_decision(
        shape(2, {5}, cl.TOTALLY_IMAGINARY), 4)
    assert decision.verdict == cl.VANISHES
    decision = cl.vanishing_decision(
        shape(2, {3, 5}, cl.TOTALLY_REAL, cyclic=True), 3)
    assert decision.verdict == cl.VANISHES


def test_p_rationality_case():
    # i = 0 mod (p-1): at most one tame prime, not 1 mod p**2
    assert cl.vanishing_decision(shape(3, {19}), 2).verdict == cl.NONZERO  # 19 = 1 mod 9
    assert cl.vanishing_decision(shape(3, {7, 13}), 2).verdict == cl.NONZERO
    assert cl.vanishing_decision(shape(3, set()), 2).verdict == cl.VANISHES
    assert cl.vanishing_decision(shape(5, {11}), 4).verdict == cl.VANISHES
    assert cl.vanishing_decision(shape(5, {101}), 4).verdict == cl.NONZERO  # 101 = 1 mod 25


def test_even_twist_away_from_zero_needs_wild_only():
    # p = 5, i = 2: trivial radical, so any tame ramification obstructs
    assert cl.vanishing_decision(shape(5, set()), 2).verdict == cl.VANISHES
    assert cl.vanishing_decision(shape(5, {11}), 2).verdict == cl.NONZERO
    # p = 691, i = 12: the base order is divisible by 691
    assert cl.vanishing_decision(shape(691, set()), 12).verdict == cl.NONZERO


def test_odd_twist_odd_p_cases():
    # p = 3, i = 3: radical is the class of 3, unconditional
    decision = cl.vanishing_decision(shape(3, {7}), 3)
    assert decision.verdict == cl.VANISHES and decision.condition is None
    # 3 is a cube mod 61 (4**3 = 64 = 3), so 61 gives a zero coordinate
    assert pow(4, 3, 61) == 3
    assert cl.vanishing_decision(shape(3, {61}), 3).verdict == cl.NONZERO
    # p = 5, i = 3: cyclotomic-element radical is Vandiver-conditional
    decision = cl.vanishing_decision(shape(5, {11}), 3)
    assert decision.verdict in (cl.CONDITIONAL, cl.NONZERO)
    if decision.verdict == cl.CONDITIONAL:
        assert decision.condition == cl.VANDIVER
    granted = cl.vanishing_decision(shape(5, {11}), 3, assume_vandiver=True)
    assert granted.verdict in (cl.VANISHES, cl.NONZERO)


def test_p2_real_even_twist_is_nonzero():
    assert cl.vanishing_decision(
        shape(2, {5}, cl.TOTALLY_REAL), 4).verdict == cl.NONZERO
    assert cl.vanishing_decision(
        shape(2, set(), cl.TOTALLY_REAL), 2).verdict == cl.NONZERO


def test_p2_real_odd_twist_criterion():
    real = lambda tame, cyclic=True: shape(2, tame, cl.TOTALLY_REAL, cyclic)
    assert cl.vanishing_decision(real(set()), 3).verdict == cl.VANISHES
    assert cl.vanishing_decision(real({7}), 3).verdict == cl.VANISHES  # 7 = 7 mod 8
    assert cl.vanishing_decision(real({17}), 3).verdict == cl.NONZERO  # 1 mod 8
    assert cl.vanishing_decision(real({3, 11}), 3).verdict == cl.NONZERO  # 3 = 11 mod 8
    assert cl.vanishing_decision(real({3, 5, 7}), 3).verdict == cl.NONZERO
    conditional = cl.vanishing_decision(real({3, 5}, cyclic=False), 3)
    assert conditional.verdict == cl.CONDITIONAL
    assert conditional.condition == cl.H_I


def test_imaginary_independent_of_twist():
    for i in (2, 3, 4, 5, 6, 7):
        decision = cl.vanishing_decision(shape(2, {5}, cl.TOTALLY_IMAGINARY), i)
        assert decision.verdict == cl.VANISHES
        decision = cl.vanishing_decision(shape(2, {7}, cl.TOTALLY_IMAGINARY), i)
        assert decision.verdict == cl.NONZERO


def test_unsupported_trivial_shape():
    trivial = shape(3, set(), wild=False)
    assert cl.vanishing_decision(trivial, 2).verdict == cl.UNSUPPORTED
    trivial = shape(2, set(), cl.TOTALLY_REAL, wild=False)
    assert cl.vanishing_decision(trivial, 2).verdict == cl.UNSUPPORTED


_POSITIVE_CONSEQUENCE = (
    "the 2-part of K_{2i-2}(o_L) is (Z/2)^{r_1(L)} exactly when the "
    "positive-cohomology criterion holds (one tame prime +/-3 mod 8)")
_POSITIVE_REASON = ("at most one tame prime, +/-3 mod 8, independent of twist and "
                    "signature; tame set ")


# decisions no CLI call reaches, so tests/golden/cli.json cannot pin their
# text: the positive decider has no subcommand, and the CLI always builds
# wild shapes
@pytest.mark.parametrize("decide, want", [
    (lambda: cl.positive_vanishing_decision(shape(2, {11}, cl.TOTALLY_REAL), 2),
     cl.Decision(cl.VANISHES, None, _POSITIVE_REASON + "[11]", _POSITIVE_CONSEQUENCE)),
    (lambda: cl.positive_vanishing_decision(shape(2, {3, 5}, cl.TOTALLY_REAL), 2),
     cl.Decision(cl.NONZERO, None, _POSITIVE_REASON + "[3, 5]", _POSITIVE_CONSEQUENCE)),
    (lambda: cl.vanishing_decision(cl.ExtensionShape(3, frozenset(), wild=False), 2),
     cl.Decision(cl.UNSUPPORTED, None,
                 "no finite ramification at all denotes the trivial extension", None)),
])
def test_decisions_outside_the_cli_keep_their_text(decide, want):
    assert decide() == want


def test_both_deciders_refuse_the_trivial_extension():
    # the positive decider used to answer 'vanishes' here
    trivial = cl.ExtensionShape(2, frozenset(), False, cl.TOTALLY_IMAGINARY)
    general = cl.vanishing_decision(trivial, 2)
    positive = cl.positive_vanishing_decision(trivial, 2)
    assert general.verdict == positive.verdict == cl.UNSUPPORTED
    assert general == positive
    for real_type in (cl.TOTALLY_REAL, cl.TOTALLY_IMAGINARY):
        for i in (2, 3, 4, 9):
            assert cl.positive_vanishing_decision(
                shape(2, set(), real_type, wild=False), i).verdict == cl.UNSUPPORTED
    # refused before the base order is read: a twist past its cap answers
    assert cl.vanishing_decision(shape(7, set(), wild=False), 100000).verdict \
        == cl.UNSUPPORTED


def test_shape_refuses_tame_primes_as_cyclic_extension_does():
    for p, ell, message in (
        (3, 5, "tame prime 5 is not 1 mod 3; no such cyclic extension"),
        (3, 9, "tame prime 9 is not prime"),
        (3, 3, "3 would be wildly ramified, not tame"),
        (2, 2, "2 would be wildly ramified, not tame"),
    ):
        real_type = cl.TOTALLY_REAL if p == 2 else cl.NOT_APPLICABLE
        for make in (lambda: shape(p, {ell}, real_type),
                     lambda: ld.CyclicExtensionOfQ(p, frozenset({ell}), True)):
            with pytest.raises(ValueError) as error:
                make()
            assert str(error.value) == message, (p, ell)


def test_shape_validation():
    with pytest.raises(ValueError):
        shape(3, {5})  # 5 != 1 mod 3
    with pytest.raises(ValueError):
        shape(3, {7}, cl.TOTALLY_REAL)  # signature type only for p = 2
    with pytest.raises(ValueError):
        shape(2, {7})  # p = 2 needs a signature type
    with pytest.raises(ValueError):
        cl.vanishing_decision(shape(3, {7}), 1)


def test_positive_vanishing_examples():
    real = lambda tame: shape(2, tame, cl.TOTALLY_REAL)
    assert cl.positive_vanishing_decision(real({11}), 2).verdict == cl.VANISHES
    assert cl.positive_vanishing_decision(real({17}), 2).verdict == cl.NONZERO
    assert cl.positive_vanishing_decision(real({3, 5}), 2).verdict == cl.NONZERO
    # independent of twist and signature
    imag = shape(2, {11}, cl.TOTALLY_IMAGINARY)
    for i in (2, 3, 4, 9):
        assert cl.positive_vanishing_decision(imag, i).verdict == cl.VANISHES
    with pytest.raises(ValueError):
        cl.positive_vanishing_decision(shape(3, {7}), 2)


def test_enumerate_examples():
    template = shape(2, set(), cl.TOTALLY_IMAGINARY)
    sets = [tame for tame, _ in cl.enumerate_vanishing(template, 4, 50)]
    assert sets == [(), (3,), (5,), (11,), (13,), (19,), (29,), (37,), (43,)]

    sets = [tame for tame, _ in cl.enumerate_vanishing(shape(3, set()), 2, 20)]
    assert sets == [(), (7,), (13,)]

    template = shape(2, set(), cl.TOTALLY_REAL, cyclic=True)
    sets = [tame for tame, _ in cl.enumerate_vanishing(template, 3, 8)]
    assert (3, 5) in sets


def test_enumerate_tags_conditional_entries():
    pairs = list(cl.enumerate_vanishing(shape(5, set()), 3, 40))
    assert pairs, "the empty set is always admissible here"
    assert all(d.verdict in (cl.VANISHES, cl.CONDITIONAL) for _, d in pairs)
    assert any(d.verdict == cl.CONDITIONAL for _, d in pairs)
    granted = list(cl.enumerate_vanishing(shape(5, set()), 3, 40,
                                          assume_vandiver=True))
    assert all(d.verdict == cl.VANISHES for _, d in granted)
    assert [t for t, _ in pairs] == [t for t, _ in granted]


def test_enumerate_yields_its_pairs_lazily():
    pairs = cl.enumerate_vanishing(shape(3, set()), 2, 20)
    assert isinstance(pairs, Iterator)
    assert [t for t, _ in pairs] == [(), (7,), (13,)]
    assert list(pairs) == []


def test_enumerate_validation():
    # each refusal comes from the call itself, before any pair is asked for
    with pytest.raises(ValueError):
        cl.enumerate_vanishing(shape(3, set()), 2, 1)
    with pytest.raises(ValueError):
        cl.enumerate_vanishing(shape(3, set()), 2, cl.BOUND_CAP + 1)


# Bounds at which the all-subsets oracle (every set of up to three
# candidates) still finishes in about a second per template.
_ORACLE_TWISTS = tuple(range(2, 14))


@pytest.mark.parametrize("p, real_type, cyclic, bound, twists", [
    (2, cl.TOTALLY_IMAGINARY, True, 100, _ORACLE_TWISTS),
    (2, cl.TOTALLY_REAL, True, 100, _ORACLE_TWISTS),
    (2, cl.TOTALLY_REAL, False, 100, _ORACLE_TWISTS),
    (3, cl.NOT_APPLICABLE, True, 300, _ORACLE_TWISTS),
    (5, cl.NOT_APPLICABLE, True, 500, _ORACLE_TWISTS),
    (7, cl.NOT_APPLICABLE, True, 700, _ORACLE_TWISTS),
    (7, cl.NOT_APPLICABLE, True, 200, (34,)),
    (13, cl.NOT_APPLICABLE, True, 700, _ORACLE_TWISTS),
])
def test_enumerate_matches_all_subsets_oracle(p, real_type, cyclic, bound, twists):
    # every subset's decision is also checked against the congruence
    # oracle, which shares no code with kummer
    template = shape(p, set(), real_type, cyclic=cyclic)
    for i in twists:
        for assume_vandiver in (False, True):
            def check(s, decision):
                assert (decision.verdict, decision.condition) == \
                    vanishing_verdict_by_congruences(s, i, assume_vandiver), \
                    (p, i, sorted(s.ramified_tame), assume_vandiver)

            got = cl.enumerate_vanishing(template, i, bound, assume_vandiver)
            want = vanishing_catalog_all_subsets(p, i, template, bound,
                                                 assume_vandiver, on_decision=check)
            assert [(t, repr(d)) for t, d in got] == \
                [(t, repr(d)) for t, d in want], (p, i, assume_vandiver)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_enumerate_reads_the_base_order_once(monkeypatch):
    calls = _count_calls(monkeypatch, kt, "h2_order_Z")
    pairs = list(cl.enumerate_vanishing(shape(7, set()), 34, 300))
    assert [t for t, _ in pairs] == [()]
    assert len(calls) == 1


def test_enumerate_decides_each_candidate_once(monkeypatch):
    # 70 odd primes up to 358: one Frobenius vector each, and a Decision
    # only for the empty set and each admissible singleton
    vectors = _count_calls(monkeypatch, cl, "_vector")
    built = _count_calls(monkeypatch, cl, "Decision")
    template = shape(2, set(), cl.TOTALLY_IMAGINARY)
    pairs = list(cl.enumerate_vanishing(template, 4, 358))
    assert len(vectors) == 70
    assert len(built) == len(pairs)
    assert len(pairs) == 1 + sum(1 for ell in range(3, 359)
                                 if xn.is_prime(ell) and ell % 8 in (3, 5))


def test_enumerate_validates_each_candidate_once_and_builds_only_returned_decisions(
        monkeypatch):
    # real cyclic p = 2, i = 3: 302 odd primes up to 2000, of which the
    # ones not 1 mod 8 pair across distinct classes mod 8
    candidates = sum(1 for ell in range(3, 2001) if xn.is_prime(ell))
    template = shape(2, set(), cl.TOTALLY_REAL)
    primality = [_count_calls(monkeypatch, module, "is_prime")
                 for module in (xn, km, cl, ld)]
    built = _count_calls(monkeypatch, cl, "Decision")
    pairs = list(cl.enumerate_vanishing(template, 3, 2000))
    assert sum(map(len, primality)) <= candidates + 2
    assert len(built) == len(pairs)
    assert len(pairs) == 18486


def test_trivial_radical_refuses_a_base_order_past_the_cap():
    # p = 7, i = 100000 = 4 mod 6: the radical is trivial, so the base
    # order decides; its Bernoulli number alone, some 10**9 big-integer
    # steps at k = 50000, would not finish
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the base-order cap"):
        cl.vanishing_decision(cl.ExtensionShape(7, frozenset()), 100000)
    with pytest.raises(ValueError, match="exceeds the base-order cap"):
        cl.enumerate_vanishing(shape(7, set()), 100000, 100)  # not iterated
    with pytest.raises(ValueError, match="exceeds the base-order cap"):
        gn.exact_descent_structure(ld.CyclicExtensionOfQ(7, frozenset({29}), True),
                                   100000)
    assert time.perf_counter() - start < 0.1
    # a twist whose radical is not trivial still answers
    assert cl.vanishing_decision(shape(7, {29}), 100001).verdict in (
        cl.CONDITIONAL, cl.NONZERO)


def test_decision_periodicity_in_twist():
    shapes_odd = [shape(3, {7}), shape(3, {19}), shape(5, {11}), shape(5, {31, 41})]
    for s in shapes_odd:
        for i in (2, 3, 4, 5):
            base = cl.vanishing_decision(s, i).verdict
            for k in (1, 2, 3):
                again = cl.vanishing_decision(s, i + 2 * (s.p - 1) * k).verdict
                assert again == base
    shapes_two = [shape(2, {5}, cl.TOTALLY_IMAGINARY),
                  shape(2, {3, 5}, cl.TOTALLY_REAL),
                  shape(2, {17}, cl.TOTALLY_REAL)]
    for s in shapes_two:
        for i in (2, 3, 4, 5):
            base = cl.vanishing_decision(s, i).verdict
            for k in (1, 2, 3):
                assert cl.vanishing_decision(s, i + 4 * k).verdict == base


def test_monotone_exclusion():
    cases = [
        (shape(2, {7}, cl.TOTALLY_IMAGINARY), shape(2, {7, 5}, cl.TOTALLY_IMAGINARY), 4),
        (shape(3, {19}), shape(3, {19, 7}), 2),
        (shape(2, {17}, cl.TOTALLY_REAL), shape(2, {17, 3}, cl.TOTALLY_REAL), 3),
    ]
    for small, big, i in cases:
        assert not cl.vanishing_decision(small, i).admissible
        assert not cl.vanishing_decision(big, i).admissible


def test_single_prime_case_matches_frobenius():
    for p in (3, 5):
        for i in (2, 3, 4, 5):
            rad = km.radical(p, i)
            for ell in range(2, 100):
                if not xn.is_prime(ell) or ell == p or ell % p != 1:
                    continue
                decision = cl.vanishing_decision(shape(p, {ell}), i)
                nonzero_vector = bool(rad.generators) and \
                    any(km.frobenius_vector(rad, ell))
                assert decision.admissible == nonzero_vector, (p, i, ell)


def test_k_theory_consequence_strings():
    d = cl.vanishing_decision(shape(2, {5}, cl.TOTALLY_IMAGINARY), 2)
    assert "(Z/2)^{r_1(L)}" in d.k_theory_consequence  # 2i-2 = 2 mod 8
    d = cl.vanishing_decision(shape(2, {5}, cl.TOTALLY_IMAGINARY), 4)
    assert "vanishes exactly when" in d.k_theory_consequence
    d = cl.vanishing_decision(shape(2, {3, 5}, cl.TOTALLY_REAL), 5)
    assert "real cyclic" in d.k_theory_consequence


def _v(p, n):
    # exponent of p in the nonzero integer n
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def test_decider_agrees_with_the_genus_exponent():
    # Over Q, |H^2(o_L)_G| = p**exponent * |H^2(Z, Z(i))| at p, and by
    # Nakayama its p-part vanishes exactly when exponent + v_p(|H^2(Z)|)
    # is 0: the paper's two outputs must agree on every shape.
    cases = 0
    for p in (2, 3, 5, 7, 13):
        first = [q for q in range(3, 1000) if xn.is_prime(q) and q % p == 1][:5]
        tame_sets = [set(c) for k in range(4) for c in combinations(first, k)]
        infinities = (False, True) if p == 2 else (False,)
        for i, av, tame, wild, infinity in product(range(2, 14), (False, True), tame_sets,
                                                   (False, True), infinities):
            if not (tame or wild):
                continue
            real_type = (cl.NOT_APPLICABLE if p != 2 else
                         cl.TOTALLY_IMAGINARY if infinity else cl.TOTALLY_REAL)
            decision = cl.vanishing_decision(
                cl.ExtensionShape(p, tame, wild, real_type, True), i, av)
            exponent = gn.genus_exponent(
                ld.CyclicExtensionOfQ(p, tame, wild, infinity), i).exponent
            base = _v(p, kt.h2_order_Z(i, av).h2_order.value)
            assert decision.admissible == (exponent + base == 0), \
                (p, tame, wild, infinity, i, av)
            cases += 1
    assert cases == 7344
