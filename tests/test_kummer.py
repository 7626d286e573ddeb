import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgenus import exactnum as xn
from kgenus import kummer as km
from oracles import (fp_rank, greedy_primitive_subset, prime_at_most, primes_up_to,
                     pth_powers, second_primitive_root)


def kinds(rad):
    return [g.kind for g in rad.generators]


def test_radical_case_table():
    assert kinds(km.radical(2, 3)) == [km.MINUS_ONE, km.TWO]
    assert kinds(km.radical(2, 3, plus_variant=True)) == [km.TWO]
    assert kinds(km.radical(2, 4)) == [km.TWO]
    assert kinds(km.radical(2, 4, plus_variant=True)) == [km.TWO]
    assert kinds(km.radical(3, 3)) == [km.PRIME_P]
    assert kinds(km.radical(5, 3)) == [km.CYCLOTOMIC_XI]
    assert km.radical(5, 3).generators[0].j == -2
    assert km.radical(5, 3).conditional_on_vandiver
    assert kinds(km.radical(3, 2)) == [km.ZETA_P]
    assert kinds(km.radical(5, 4)) == [km.ZETA_P]
    assert kinds(km.radical(5, 5)) == [km.PRIME_P]
    assert km.radical(5, 6).dim == 0
    assert km.radical(5, 6).conditional_on_vandiver
    assert km.radical(7, 7).generators[0].kind == km.PRIME_P  # 7 = 1 mod 6


def test_radical_dimensions_match_examples():
    assert km.radical(2, 3).dim == 2
    assert km.radical(3, 3).dim == 1
    assert km.radical(5, 3).dim == 1


def test_generator_validation():
    with pytest.raises(ValueError):
        km.RadicalGenerator("nonsense")
    with pytest.raises(ValueError):
        km.RadicalGenerator(km.CYCLOTOMIC_XI, j=1)  # odd index
    with pytest.raises(ValueError):
        km.RadicalGenerator(km.TWO, j=2)


def test_frobenius_vector_examples():
    rad = km.radical(2, 3)
    assert km.frobenius_vector(rad, 5) == (0, 1)
    assert km.frobenius_vector(rad, 7) == (1, 0)
    assert km.frobenius_vector(km.radical(3, 2), 19) == (0,)  # 19 = 1 mod 9


def test_frobenius_vector_rejects():
    rad3 = km.radical(3, 2)
    with pytest.raises(ValueError):
        km.frobenius_vector(rad3, 5)  # 5 != 1 mod 3
    with pytest.raises(ValueError):
        km.frobenius_vector(rad3, 3)  # ell = p
    with pytest.raises(ValueError):
        km.frobenius_vector(km.radical(2, 3), 2)
    with pytest.raises(ValueError):
        km.frobenius_vector(rad3, 91)  # not prime


def test_primitivity_rank_examples():
    rad = km.radical(2, 3)
    report = km.primitivity_rank(rad, {3, 5})
    assert (report.t, report.independent) == (2, True)
    report = km.primitivity_rank(rad, {7, 23})
    assert (report.t, report.independent) == (1, False)
    assert report.maximal_subset == frozenset({7})
    report = km.primitivity_rank(rad, set())
    assert (report.t, report.independent, report.maximal_subset) == \
        (0, True, frozenset())


def test_primitivity_rank_matches_external_rank():
    for p, i in ((2, 3), (2, 4), (3, 3), (5, 3)):
        rad = km.radical(p, i)
        primes = [ell for ell in range(3, 120)
                  if xn.is_prime(ell) and ell != p and (p == 2 or ell % p == 1)]
        rows = [km.frobenius_vector(rad, ell) for ell in primes]
        assert km.primitivity_rank(rad, primes).t == fp_rank(rows, p)


def test_primitivity_rank_matches_full_elimination():
    # primitivity_rank stops computing vectors at full rank; the
    # reference eliminates every vector of the set
    rng = random.Random(9)
    for p in (2, 3, 5, 7, 11, 13):
        tame = [ell for ell in range(3, 60 * p) if xn.is_prime(ell)
                and ell != p and (p == 2 or ell % p == 1)][:30]
        for i in range(2, 14):
            for plus in (False, True) if p == 2 else (False,):
                rad = km.radical(p, i, plus_variant=plus)
                for size in (0, 1, 2, 3, 4, 5, 6) * 5:
                    primes = rng.sample(tame, size)
                    vectors = {ell: km.frobenius_vector(rad, ell)
                               for ell in primes}
                    t, subset = greedy_primitive_subset(vectors, p)
                    report = km.primitivity_rank(rad, primes)
                    assert report == km.PrimitivityReport(
                        t, t == size, frozenset(subset)), (p, i, plus, primes)


PRIMES_BELOW_5000 = primes_up_to(4999)


@st.composite
def catalog_radicals_and_tame_sets(draw):
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 13)))
    i = draw(st.integers(min_value=2, max_value=30))
    plus = p == 2 and draw(st.booleans())
    tame = [ell for ell in PRIMES_BELOW_5000 if ell != p and (p == 2 or ell % p == 1)]
    primes = draw(st.lists(st.sampled_from(tame), max_size=6))
    return km.radical(p, i, plus_variant=plus), primes


@given(catalog_radicals_and_tame_sets())
def test_rank_report_matches_oracle_on_index_vectors(case):
    # ranks read zero patterns at p = 2 and on radicals of dimension at
    # most 1; the oracle ranks the index vectors frobenius_vector prints
    rad, primes = case
    vectors = {ell: km.frobenius_vector(rad, ell) for ell in primes}
    t, subset = greedy_primitive_subset(vectors, rad.p)
    assert km.primitivity_rank(rad, primes) == km.PrimitivityReport(
        t, t == len(vectors), frozenset(subset))


def test_odd_p_radical_of_dimension_two_ranks_its_indices():
    # (1, 2) and (1, 1) are independent over F_3, but their zero
    # patterns agree: a hand-built <p, zeta_p> must rank the indices
    rad = km.KummerRadical(3, (km.RadicalGenerator(km.PRIME_P),
                               km.RadicalGenerator(km.ZETA_P)))
    assert km.frobenius_vector(rad, 7) == (1, 2)
    assert km.frobenius_vector(rad, 13) == (1, 1)
    assert km.primitivity_rank(rad, [7, 13]) == km.PrimitivityReport(
        2, True, frozenset({7, 13}))


def test_primitivity_rank_tests_each_distinct_prime_once(monkeypatch):
    # the validated primes are not tested again for a vector, in either
    # reading; frobenius_vector tests its prime once
    calls = []
    for module in (xn, km):
        original = module.is_prime
        monkeypatch.setattr(module, "is_prime", lambda n, f=original: calls.append(n) or f(n))
    dim_two = km.KummerRadical(3, (km.RadicalGenerator(km.PRIME_P),
                                   km.RadicalGenerator(km.ZETA_P)))
    primes = [61, 31, 151, 31, 181, 61]  # each 1 mod 15
    for rad in (km.radical(3, 3), km.radical(3, 2), km.radical(5, 3), km.radical(2, 3),
                dim_two):
        calls.clear()
        km.primitivity_rank(rad, primes)
        assert sorted(n for n in calls if n in primes) == [31, 61, 151, 181], rad
    calls.clear()
    km.frobenius_vector(km.radical(5, 3), 61)
    assert [n for n in calls if n == 61] == [61]


def test_radical_tests_its_prime_once(monkeypatch):
    calls = []
    for module in (xn, km):
        original = module.is_prime
        monkeypatch.setattr(module, "is_prime", lambda n, f=original: calls.append(n) or f(n))
    for p, i, plus in [(2, 3, False), (2, 3, True), (2, 4, False), (3, 3, False),
                       (5, 5, False), (7, 3, False), (7, 4, False), (13, 12, False)]:
        calls.clear()
        rad = km.radical(p, i, plus)
        assert calls == [p], (p, i, plus)
        # the same radical, field for field and by hash, as __init__ builds
        built = km.KummerRadical(rad.p, rad.generators, rad.conditional_on_vandiver)
        assert rad == built and hash(rad) == hash(built) and repr(rad) == repr(built)
    for p, i, plus in [(4, 3, False), (3, 1, False), (3, 3, True)]:
        calls.clear()
        with pytest.raises(ValueError):
            km.radical(p, i, plus)
        assert calls == [p], (p, i, plus)


def test_primitivity_rank_validates_primes_past_full_rank():
    rad = km.radical(3, 3)
    assert km.primitivity_rank(rad, [7]).t == rad.dim
    with pytest.raises(ValueError, match="^91 is not prime$"):
        km.primitivity_rank(rad, [7, 91])
    with pytest.raises(ValueError, match="^23 is not 1 mod 3: Frobenius is undefined"):
        km.primitivity_rank(rad, [7, 23])
    with pytest.raises(ValueError, match="^3 is not a tame odd prime for p = 3$"):
        km.primitivity_rank(rad, [7, 3])


def test_primitivity_rank_stops_computing_vectors_at_full_rank(monkeypatch):
    calls = []
    original = km._vector

    def counted(rad, ell, index):
        calls.append(ell)
        return original(rad, ell, index)

    monkeypatch.setattr(km, "_vector", counted)
    report = km.primitivity_rank(km.radical(3, 3), [43, 37, 31, 19, 13, 7])
    assert calls == [7]  # 3 is not a cube mod 7, so t = 1 = dim at once
    assert report == km.PrimitivityReport(1, False, frozenset({7}))


@st.composite
def fp_matrices(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    width = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(st.integers(min_value=0, max_value=p - 1),
                                  min_size=width, max_size=width), max_size=5))
    return rows, p


@given(fp_matrices())
def test_elimination_rank_matches_oracle(matrix):
    # the one F_p elimination behind primitivity_rank and the 2-unit
    # signature rank, against the oracle's independent elimination
    rows, p = matrix
    kept = km._independent_rows(rows, p)
    assert len(kept) == fp_rank(rows, p)
    assert fp_rank([rows[k] for k in kept], p) == len(kept)


def coordinate_at_root(rad, ell, r):
    """The one character coordinate of an odd-p radical <p> or <xi_j>,
    read against the primitive root r in place of the smallest one."""
    (gen,) = rad.generators
    zeta = pow(r, (ell - 1) // rad.p, ell)
    x = rad.p if gen.kind == km.PRIME_P else km._xi_element(rad.p, gen.j, ell, zeta)
    return (xn.power_residue_character(x, ell, rad.p, root=r),)


def test_frobenius_vector_takes_no_root():
    # a caller-chosen root 0, a p-th power, read this coordinate as 0
    assert km.frobenius_vector(km.radical(5, 3), 11) == (4,)
    with pytest.raises(TypeError):
        km.frobenius_vector(km.radical(5, 3), 11, root=0)


def test_scaling_by_primitive_root_choice():
    # replacing the canonical primitive root multiplies each row by a
    # nonzero scalar of F_p, so zero patterns and ranks are unchanged
    for p, i in ((3, 3), (5, 3), (7, 3)):
        rad = km.radical(p, i)
        for ell in range(5, 501):  # 3 has a single primitive root
            if not xn.is_prime(ell) or ell == p or ell % p != 1:
                continue
            base = km.frobenius_vector(rad, ell)
            other = coordinate_at_root(rad, ell, second_primitive_root(ell))
            scalars = {
                c_other * pow(c_base, -1, p) % p
                for c_base, c_other in zip(base, other) if c_base
            }
            assert all((a == 0) == (b == 0) for a, b in zip(base, other))
            assert len(scalars) <= 1


def test_xi_coordinate_is_an_eigencharacter_of_the_root_choice():
    # the root r**e evaluates xi_j at zeta**e, which acts on the
    # omega**j-eigenspace by e**j, and reads the character against
    # zeta**e: the coordinate becomes c * e**(j - 1) = c * e**(-i) mod p
    for p in (3, 5, 7):
        for i in range(3, 30, 2):
            rad = km.radical(p, i)
            if rad.generators[0].kind != km.CYCLOTOMIC_XI:
                continue
            for ell in range(2 * p + 1, 700, 2 * p):
                if not xn.is_prime(ell):
                    continue
                r = xn.primitive_root(ell)
                (c,) = coordinate_at_root(rad, ell, r)
                for e in range(1, ell - 1):
                    if gcd(e, ell - 1) == 1:
                        (c_e,) = coordinate_at_root(rad, ell, pow(r, e, ell))
                        assert c_e == c * pow(e, -i, p) % p, (p, i, ell, e)


def test_p2_fast_path_agrees_with_characters():
    rad = km.radical(2, 3)
    ell = 3
    while ell <= 10**4:
        if xn.is_prime(ell):
            minus_one, two = km.frobenius_vector(rad, ell)
            assert minus_one == xn.power_residue_character(-1, ell, 2)
            assert two == xn.power_residue_character(2, ell, 2)
        ell += 2
    # mod-8 rule for the even-twist radical
    rad_even = km.radical(2, 4)
    for ell in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        expect = 1 if ell % 8 in (3, 5) else 0
        assert km.frobenius_vector(rad_even, ell) == (expect,)


def test_zeta_path_agrees_with_character_path():
    for p in (3, 5, 7):
        rad = km.radical(p, p - 1)  # zeta_p radical
        ell = 2 * p + 1
        while ell <= 10**4:
            if xn.is_prime(ell) and ell % p == 1:
                component, = km.frobenius_vector(rad, ell)
                root = xn.primitive_root(ell)
                zeta_image = pow(root, (ell - 1) // p, ell)
                assert component == xn.power_residue_character(zeta_image, ell, p)
                assert (component == 0) == (ell % p**2 == 1)
            ell += 2


def test_zeta_coordinate_matches_brute_force_pth_powers():
    # the zeta_p coordinate vanishes exactly when an element of order p
    # in F_ell is a p-th power (all of them are then, being its powers)
    for p in (3, 5, 7):
        rad = km.radical(p, p - 1)
        for ell in range(p + 1, 2000, p):
            if prime_at_most(ell) != ell:
                continue
            zeta = next(x for x in range(2, ell) if pow(x, p, ell) == 1)
            component, = km.frobenius_vector(rad, ell)
            assert (component == 0) == (zeta in pth_powers(ell, p)), (p, ell)


def test_minus_one_and_two_at_odd_p_read_the_pth_power_character():
    # at odd p the mod 4 and mod 8 congruences are the quadratic
    # character, not the p-th power one: -1 = (-1)**p is always a p-th
    # power, and 2 is one exactly where brute force finds it among them
    minus_one = km.RadicalGenerator(km.MINUS_ONE)
    two = km.RadicalGenerator(km.TWO)
    for p in (3, 5, 7):
        rad_minus_one = km.KummerRadical(p, (minus_one,))
        rad_two = km.KummerRadical(p, (two,))
        for ell in range(p + 1, 2000, p):
            if prime_at_most(ell) != ell:
                continue
            assert km.frobenius_vector(rad_minus_one, ell) == (0,), (p, ell)
            (c,) = km.frobenius_vector(rad_two, ell)
            assert (c == 0) == (2 in pth_powers(ell, p)), (p, ell)
    # 7 = 3 mod 4, where the quadratic character of -1 is 1
    assert km.primitivity_rank(km.KummerRadical(3, (minus_one,)), [7]).t == 0


def test_two_character_generators_read_each_coordinate_alone():
    # each character coordinate is read alone against the smallest
    # primitive root: the vector of <p, xi_-2> is that of radical(5, 5)
    # followed by that of radical(5, 3)
    rad = km.KummerRadical(5, (km.RadicalGenerator(km.PRIME_P),
                               km.RadicalGenerator(km.CYCLOTOMIC_XI, j=-2)))
    checked = 0
    for ell in range(11, 1000, 10):
        if prime_at_most(ell) != ell:
            continue
        assert km.frobenius_vector(rad, ell) == (
            km.frobenius_vector(km.radical(5, 5), ell)
            + km.frobenius_vector(km.radical(5, 3), ell)), ell
        checked += 1
    assert checked == 40
