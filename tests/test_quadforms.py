import time
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgenus import quadforms as qf
from oracles import (class_group_invariant_factors, convergents_of_sqrt,
                     dyadic_generator_search, f2_span, form_class_count_bfs,
                     fp_rank, reduced_indefinite_forms_oracle, squarefree_numbers)


def fundamental_discs(limit):
    out = []
    for d in squarefree_numbers(limit):
        for s in (d, -d):
            if s % 4 == 1 and abs(s) <= limit:
                out.append(s)
            elif s % 4 != 1 and 4 * abs(s) <= limit:
                out.append(4 * s)
    return sorted(set(out), key=abs)


def test_narrow_class_number_examples():
    assert qf.quad_field_data(3).h_plus == 2    # disc 12
    assert qf.quad_field_data(5).h_plus == 1    # disc 5
    assert qf.quad_field_data(-5).h_plus == 2   # disc -20
    assert qf.quad_field_data(10).h_plus == 2   # disc 40
    assert sorted(qf.reduced_definite_forms(-20)) == [(1, 0, 5), (2, 2, 3)]


def test_narrow_class_number_rejects():
    for bad in (0, 1, 12, -8):
        with pytest.raises(ValueError):
            qf.quad_field_data(bad)


def test_cycles_partition_reduced_forms():
    # the last two: d = 9699690 (h+ = 128, 5012 forms), d = 37182145 (h+ = 192)
    for disc in (12, 5, 40, 60, 229, 4 * 9699690, 37182145):
        forms = qf.reduced_indefinite_forms(disc)
        cycles = qf.indefinite_cycles(disc)
        seen = [f for cycle in cycles for f in cycle]
        assert sorted(seen) == sorted(forms)
        # each cycle starts at its least form, and the cycles are sorted
        assert all(cycle[0] == min(cycle) for cycle in cycles)
        assert cycles == sorted(cycles)
        for cycle in cycles:
            for f in cycle:
                assert qf._rho(f, disc, isqrt(disc)) in cycle


def test_reduced_indefinite_forms_match_box_scan():
    for disc in fundamental_discs(5000):
        if disc > 0:
            assert qf.reduced_indefinite_forms(disc) == \
                reduced_indefinite_forms_oracle(disc), disc


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=5, max_value=30000))
def test_reduced_indefinite_forms_property(n):
    # every nonsquare discriminant, fundamental or not
    disc = n - n % 4 + (1 if n % 2 else 0)
    if isqrt(disc) ** 2 == disc:
        disc += 4
    assert qf.reduced_indefinite_forms(disc) == reduced_indefinite_forms_oracle(disc)


def test_rho_preserves_discriminant_and_reduction():
    for disc in (12, 40, 145, 316):
        for f in qf.reduced_indefinite_forms(disc):
            a, b, c = qf._rho(f, disc, isqrt(disc))
            assert b * b - 4 * a * c == disc
            assert (a, b, c) in qf.reduced_indefinite_forms(disc)


def test_reduced_indefinite_forms_have_outer_coefficients_at_most_isqrt():
    # the invariant _rho's one formula rests on: a reduced form has
    # |a|, |c| < sqrt(disc), so both are at most isqrt(disc)
    for disc in range(5, 3001):
        s = isqrt(disc)
        if disc % 4 not in (0, 1) or s * s == disc:
            continue
        for a, _, c in qf.reduced_indefinite_forms(disc):
            assert abs(a) <= s and abs(c) <= s, (disc, a, c)


def test_form_enumerators_return_primitive_forms_only():
    definite = qf.reduced_definite_forms(-16)
    assert (1, 0, 4) in definite
    assert (2, 0, 2) not in definite  # reduced, but 2 divides it
    indefinite = qf.reduced_indefinite_forms(20)
    assert (2, 2, -2) not in indefinite and (-2, 2, 2) not in indefinite
    assert all(gcd(gcd(a, b), c) == 1 for a, b, c in indefinite)
    for disc in range(-400, 401):
        if disc % 4 not in (0, 1) or (disc >= 0 and isqrt(disc) ** 2 == disc):
            continue
        forms = (qf.reduced_definite_forms(disc) if disc < 0
                 else qf.reduced_indefinite_forms(disc))
        assert all(gcd(gcd(a, b), c) == 1 for a, b, c in forms), disc


def test_class_count_matches_bfs_oracle():
    for disc in fundamental_discs(300):
        if disc < 0:
            reduced = qf.reduced_definite_forms(disc)
            expected = len(reduced)
        else:
            reduced = qf.reduced_indefinite_forms(disc)
            expected = len(qf.indefinite_cycles(disc))
        assert form_class_count_bfs(disc, reduced) == expected, disc


# Fields for the class-number property test: every squarefree d whose
# discriminant has |disc| <= 4000, where one orbit search takes at most
# about 0.1 s.
PROPERTY_DISC_BOUND = 4000
PROPERTY_FIELDS = [
    d for d in [-1] + [s for n in squarefree_numbers(PROPERTY_DISC_BOUND) for s in (n, -n)]
    if abs(d if d % 4 == 1 else 4 * d) <= PROPERTY_DISC_BOUND
]


def _definite_seeds(disc):
    # every primitive form with |b| <= a <= c; each class has one
    seeds = []
    for a in range(1, isqrt(-disc // 3) + 1):
        for b in range(-a, a + 1):
            c, rem = divmod(b * b - disc, 4 * a)
            if rem == 0 and c >= a and gcd(gcd(a, b), c) == 1:
                seeds.append((a, b, c))
    return seeds


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PROPERTY_FIELDS))
def test_class_numbers_match_orbit_count_property(d):
    data = qf.quad_field_data(d)
    disc = data.disc
    seeds = (_definite_seeds(disc) if disc < 0
             else reduced_indefinite_forms_oracle(disc))
    assert data.h_plus == form_class_count_bfs(disc, seeds), d
    assert (data.h == data.h_plus) == (d < 0 or data.unit_norm == -1), d


def test_fundamental_unit_examples():
    u = qf.fundamental_unit(2)
    assert (u.a, u.b, u.halved, u.norm(2)) == (1, 1, False, -1)
    u = qf.fundamental_unit(3)
    assert (u.a, u.b, u.halved, u.norm(3)) == (2, 1, False, 1)
    u = qf.fundamental_unit(5)
    assert (u.a, u.b, u.halved, u.norm(5)) == (1, 1, True, -1)
    u = qf.fundamental_unit(13)
    assert (u.a, u.b, u.halved, u.norm(13)) == (3, 1, True, -1)


def test_fundamental_unit_solves_pell():
    for d in squarefree_numbers(300):
        u = qf.fundamental_unit(d)
        target = 4 if u.halved else 1
        assert abs(u.a * u.a - d * u.b * u.b) == target
        if u.halved:
            assert d % 8 == 5 and u.a % 2 == 1 and u.b % 2 == 1


def test_fundamental_unit_minimal_among_convergents():
    # no earlier continued-fraction convergent is a unit, and for
    # d = 5 mod 8 no half-integral unit smaller than the returned one exists
    for d in squarefree_numbers(200):
        u = qf.fundamental_unit(d)
        for p, q in convergents_of_sqrt(d):
            if u.halved:
                if (p, q) == (_cube(u, d)):
                    break
            elif (p, q) == (u.a, u.b):
                break
            assert p * p - d * q * q not in (1, -1), (d, p, q)
        if u.halved:
            # exhaustive: no odd (a, b) below the returned one solves a^2-db^2=+/-4
            for b in range(1, u.b + 1):
                for a in range(1, (u.a if b == u.b else isqrt(d * b * b + 4) + 1)):
                    assert abs(a * a - d * b * b) != 4 or a % 2 == 0


def _cube(u, d):
    a, b = u.a, u.b
    return a * (a * a + 3 * d * b * b) // 8, b * (3 * a * a + d * b * b) // 8


def test_unit_norm_sign_matches_pairing_oracle():
    # the flip (a,b,c) -> (-a,b,-c) acts on cycles as multiplication by
    # the class of the negative-norm principal ideal; it is the identity
    # exactly when the fundamental unit has norm -1
    for d in squarefree_numbers(300):
        disc = qf.discriminant(d)
        cycles = qf.indefinite_cycles(disc)
        membership = {}
        for k, cycle in enumerate(cycles):
            for f in cycle:
                membership[f] = k
        orbits = set()
        for k, cycle in enumerate(cycles):
            a, b, c = cycle[0]
            partner = membership[(-a, b, -c)]
            orbits.add(frozenset({k, partner}))
        fixes_all = all(len(orbit) == 1 for orbit in orbits)
        assert fixes_all == (qf.fundamental_unit(d).norm(d) == -1), d
        # the orbit count is the ordinary class number
        assert len(orbits) == qf.quad_field_data(d).h, d


def test_narrow_ordinary_unit_relation():
    for d in squarefree_numbers(300):
        data = qf.quad_field_data(d)
        assert data.h_plus in (data.h, 2 * data.h)
        assert (data.h_plus == data.h) == (data.unit_norm == -1)
        assert data.unit_norm == data.fundamental_unit.norm(d)


def test_genus_theory_two_rank():
    # 2-rank of the definite form class group is one less than the number
    # of prime discriminant factors; oracle: SNF of the composition table
    for disc in fundamental_discs(200):
        if disc >= 0:
            continue
        invariants = class_group_invariant_factors(qf.reduced_definite_forms(disc))
        two_rank = sum(1 for k in invariants if k % 2 == 0)
        omega = len(_prime_divisors(-disc))
        assert two_rank == omega - 1, disc
        product = 1
        for k in invariants:
            product *= k
        assert product == len(qf.reduced_definite_forms(disc))


def _prime_divisors(n):
    out = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def test_two_unit_signatures_examples():
    data = qf.quad_field_data(5)
    assert [(g.a, g.b, g.halved) for g in data.two_unit_generators] == \
        [(-1, 0, False), (1, 1, True), (2, 0, False)]
    assert data.signature_matrix == ((1, 1), (0, 1), (0, 0))
    assert (fp_rank(data.signature_matrix, 2), data.delta) == (2, 0)

    data = qf.quad_field_data(7)
    assert [(g.a, g.b, g.halved) for g in data.two_unit_generators] == \
        [(-1, 0, False), (8, 3, False), (3, 1, False)]
    assert data.signature_matrix == ((1, 1), (0, 0), (0, 0))
    assert (fp_rank(data.signature_matrix, 2), data.delta) == (1, 1)


def test_two_unit_signatures_d3_discrepancy():
    data = qf.quad_field_data(3)
    assert data.delta == 0
    assert data.signature_note is not None
    # the emitted generators span the same classes as the set quoted for
    # this field: -1, 2 - sqrt(3) and sqrt(3) - 1
    named = [qf.FieldElement(-1, 0), qf.FieldElement(2, -1), qf.FieldElement(-1, 1)]
    named_rows = [tuple(0 if s > 0 else 1 for s in e.signs(3)) for e in named]
    assert sorted(named_rows) == sorted(data.signature_matrix)
    assert f2_span(named_rows) == f2_span(list(data.signature_matrix))
    assert data.signature_matrix == ((1, 1), (0, 0), (0, 1))


def test_signature_rows_match_direct_sign_evaluation():
    for d in (2, 3, 5, 7, 13, 17, 29):
        data = qf.quad_field_data(d)
        if data.delta is None:
            continue
        root = isqrt(d)
        for g, row in zip(data.two_unit_generators, data.signature_matrix):
            for column, b_sign in ((0, 1), (1, -1)):
                # exact: a + b*sqrt(d) > 0 iff a > -b*sqrt(d), decided on squares
                a, b = g.a, g.b * b_sign
                if a >= 0 and b >= 0:
                    positive = True
                elif a < 0 and b < 0:
                    positive = False
                elif a >= 0:
                    positive = a * a > d * b * b
                else:
                    positive = a * a < d * b * b
                assert row[column] == (0 if positive else 1), (d, g)


def test_two_unit_signatures_split_case():
    gens = qf.quad_field_data(17).two_unit_generators
    assert len(gens) == 4  # -1, unit, pi, conjugate of pi
    pi = gens[2]
    assert pi.norm(17) in (2, -2)
    conj = gens[3]
    assert (conj.a, conj.b) == (pi.a, -pi.b)


def test_two_unit_signatures_unsupported():
    data = qf.quad_field_data(10)  # class number 2
    assert (data.two_unit_generators, data.signature_matrix, data.delta) == \
        (None, None, None)
    assert data.signature_note == "class number 2 > 1"


def test_dyadic_generators_have_norm_two_and_match_the_search():
    # every real field with d <= 3000 and class number one gets its
    # signature matrix; where 2 is not inert, the generator of the prime
    # above 2 has norm +/-2 and is the search's least one wherever the
    # coefficient box holds one (163 of the 454 such fields)
    found = 0
    for d in squarefree_numbers(3000):
        data = qf.quad_field_data(d)
        if data.h != 1:
            continue
        assert data.delta is not None, (d, data.signature_note)
        if data.dyadic_type == qf.INERT:
            continue
        pi = data.two_unit_generators[2]
        assert pi.norm(d) in (2, -2), d
        expected = dyadic_generator_search(d)
        if expected is not None:
            found += 1
            assert (pi.a, pi.b, pi.halved) == expected, d
    assert found == 163


def test_fields_past_the_old_search_box_get_signatures():
    # a search over coefficients up to 10**4 found no generator for these
    for d in (151, 166, 199, 211, 214):
        assert dyadic_generator_search(d) is None
        data = qf.quad_field_data(d)
        assert data.delta is not None, (d, data.signature_note)
        assert data.two_unit_generators[2].norm(d) in (2, -2)


def test_is_2_regular_examples():
    assert qf.quad_field_data(5).two_regular is True
    assert qf.quad_field_data(2).two_regular is True
    assert qf.quad_field_data(7).two_regular is False
    assert qf.quad_field_data(17).two_regular is False  # split dyadic prime
    assert qf.quad_field_data(-1).two_regular is True
    assert qf.quad_field_data(-5).two_regular is False  # h = 2


def test_form_enumeration_refuses_discriminants_above_the_cap():
    with pytest.raises(ValueError, match="cap"):
        qf.reduced_definite_forms(-(qf.DISC_CAP + 4))
    with pytest.raises(ValueError, match="cap"):
        qf.reduced_indefinite_forms(qf.DISC_CAP + 1)
    with pytest.raises(ValueError, match="cap"):
        qf.quad_field_data(10000000019)
    # the invariants read off d alone stay uncapped
    assert qf.discriminant(10000000019) == 40000000076
    assert qf.dyadic_type(10000000019) == qf.RAMIFIED


def test_units_refuse_discriminants_above_the_cap():
    for d in (10**12 + 39, 10000000019):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cap"):
            qf.fundamental_unit(d)
        assert time.perf_counter() - start < 1.0, d


def test_units_just_under_the_cap_are_computed():
    d = qf.DISC_CAP - 3  # 5 mod 8, squarefree: disc = d
    assert qf.discriminant(d) == d
    u = qf.fundamental_unit(d)
    # the first convergent of sqrt(d) solving Pell is the smallest unit
    # of Z[sqrt(d)]: u itself, or u**3 when u is half-integral
    first = next((p, q) for p, q in convergents_of_sqrt(d)
                 if abs(p * p - d * q * q) == 1)
    assert first == (_cube(u, d) if u.halved else (u.a, u.b))
    assert u.norm(d) == first[0] ** 2 - d * first[1] ** 2


def test_dyadic_type():
    assert qf.dyadic_type(17) == qf.SPLIT
    assert qf.dyadic_type(5) == qf.INERT
    assert qf.dyadic_type(3) == qf.RAMIFIED
    assert qf.dyadic_type(-7) == qf.SPLIT  # -7 = 1 mod 8
    assert qf.dyadic_type(2) == qf.RAMIFIED


def test_quad_field_data_assembly():
    data = qf.quad_field_data(3)
    assert (data.disc, data.h_plus, data.h) == (12, 2, 1)
    assert data.unit_norm == 1
    assert data.delta == 0
    assert data.signature_note is not None
    assert data.two_regular is False

    data = qf.quad_field_data(-5)
    assert (data.disc, data.h_plus, data.h) == (-20, 2, 2)
    assert data.fundamental_unit is None
    assert data.delta is None

    data = qf.quad_field_data(10)
    assert data.two_unit_generators is None
    assert data.signature_note is not None


def test_quad_field_data_enumerates_forms_once(monkeypatch):
    calls, results = {}, {}

    def counted(name):
        original = getattr(qf, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            results[name] = original(*args)
            return results[name]
        monkeypatch.setattr(qf, name, wrapper)

    for name in ("reduced_definite_forms", "reduced_indefinite_forms",
                 "fundamental_unit", "_pell_unit", "is_squarefree"):
        counted(name)
    for d in (-5, 3, 10, 17, 151, 1000003):
        calls.clear()
        data = qf.quad_field_data(d)
        enumerations = (calls.get("reduced_definite_forms", 0)
                        + calls.get("reduced_indefinite_forms", 0))
        assert enumerations == 1, (d, calls)
        assert calls.get("fundamental_unit", 0) + calls.get("_pell_unit", 0) <= 1, (d, calls)
        assert calls["is_squarefree"] == 1, (d, calls)
        assert data.h in (data.h_plus, data.h_plus // 2)
        if d in (17, 151):
            # the dyadic generator is the one the unit's walk returned
            assert calls["_pell_unit"] == 1, (d, calls)
            assert data.two_unit_generators[2] is results["_pell_unit"][2], d
