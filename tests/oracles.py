"""Independent brute-force oracles used only by the test suite.

Nothing here shares code with the library paths it checks: class
numbers come from orbit exploration under the SL2(Z) generators,
reduced indefinite forms from a scan of the whole reduced box,
Bernoulli numbers from the Akiyama-Tanigawa triangle, Tate cohomology
from literal subset enumeration, class group structure from a
composition table put through Smith normal form, the 2-rank of K_2 of
imaginary and real quadratic fields from Tate's formula on that
composition (real classes being cycles of reduced forms under a
reduction step of this file's own),
generators of the primes above 2 from a bounded coefficient search,
the vanishing catalog from every subset of a sieved candidate list
(only the per-set decider is the library's), and each vanishing
verdict from the classical congruences on the tame primes (mod 8,
mod p**2, p-th power residues found by exponentiation in F_ell) with
the base order from the Akiyama-Tanigawa Bernoulli numbers, none of it
from kummer.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

from kgenus.classify import TOTALLY_IMAGINARY, ExtensionShape, vanishing_decision


# ---------------------------------------------------------------------------
# form equivalence by orbit exploration


def _neighbors(form):
    a, b, c = form
    yield (a, b + 2 * a, a + b + c)      # T
    yield (a, b - 2 * a, a - b + c)      # T^-1
    yield (c, -b, a)                     # S


def form_class_count_bfs(disc: int, reduced_forms, box: int | None = None) -> int:
    """Number of SL2(Z)-classes of primitive forms of discriminant disc,
    by exhaustive orbit exploration within a coefficient box seeded at
    the given reduced forms.

    Raises if the box leaves an orbit piece without a reduced member
    (box too small), so an overcount cannot pass silently.
    """
    if box is None:
        box = max(64, abs(disc))
    seeds = sorted(set(reduced_forms))
    parent = {f: f for f in seeds}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    owner = {}
    for seed in seeds:
        if seed in owner:
            union(seed, owner[seed])
            continue
        owner[seed] = seed
        queue = deque([seed])
        while queue:
            form = queue.popleft()
            for nxt in _neighbors(form):
                a, _, c = nxt
                if abs(a) > box or abs(c) > box:
                    continue
                if nxt in owner:
                    union(seed, owner[nxt])
                    continue
                owner[nxt] = seed
                queue.append(nxt)
    return len({find(s) for s in seeds})


def reduced_indefinite_forms_oracle(disc: int) -> list[tuple[int, int, int]]:
    """Reduced primitive forms (a, b, c) of the nonsquare discriminant
    disc > 0, by scanning every (a, b) with 1 <= b, |a| <= isqrt(disc).

    With s = isqrt(disc) < sqrt(disc) and integers on both sides, the
    reduction condition 0 < b < sqrt(disc), sqrt(disc) - b < 2|a| <
    sqrt(disc) + b is exactly b <= s and s - b < 2|a| <= s + b.
    """
    s = isqrt(disc)
    forms = []
    for b in range(1, s + 1):
        for size in range(1, s + 1):
            if not s - b < 2 * size <= s + b:
                continue
            for a in (size, -size):
                c, rem = divmod(b * b - disc, 4 * a)
                if rem == 0 and gcd(gcd(a, b), c) == 1:
                    forms.append((a, b, c))
    return sorted(forms)


# ---------------------------------------------------------------------------
# Gauss composition of forms (test-only, for the 2-rank checks)


def reduce_definite(form):
    a, b, c = form
    while True:
        if not (-a < b <= a):
            r = (a - b) // (2 * a)
            b_new = b + 2 * r * a
            c = a * r * r + b * r + c
            b = b_new
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        if -a < b <= a <= c:
            return (a, b, c)


def _represent_coprime_to(form, n):
    # primitive value m = form(x, y) with gcd(x, y) = 1 and gcd(m, n) = 1
    a, b, c = form
    for total in range(1, 80):
        for x in range(-total, total + 1):
            y = total - abs(x)
            for yy in (y, -y) if y else (0,):
                if gcd(x, yy) != 1:
                    continue
                m = a * x * x + b * x * yy + c * yy * yy
                if m and gcd(m, n) == 1:
                    return m, x, yy
    raise AssertionError("primitive forms represent values coprime to anything")


def _crt(r1, m1, r2, m2):
    g = gcd(m1, m2)
    assert (r2 - r1) % g == 0
    lcm = m1 // g * m2
    step = m1 * (((r2 - r1) // g) * pow(m1 // g, -1, m2 // g)) if m2 // g > 1 else 0
    return (r1 + step) % lcm


def compose_forms(f1, f2):
    """Composition of primitive forms of one discriminant, definite or
    indefinite, via concordant representatives; result is not reduced.
    The CRT moduli are 2|a1| and 2|m|: an indefinite form may have a
    negative leading coefficient or represent a negative m."""
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    disc = b1 * b1 - 4 * a1 * c1
    assert disc == b2 * b2 - 4 * a2 * c2
    m, x, y = _represent_coprime_to(f2, 2 * a1)
    g, u, v = _extended_gcd(x, y)
    assert g == 1
    r, s = -v, u  # x*s - y*r = 1
    b2p = 2 * (a2 * x * r + c2 * y * s) + b2 * (x * s + y * r)
    big_b = _crt(b1, 2 * abs(a1), b2p, 2 * abs(m))
    c, rem = divmod(big_b * big_b - disc, 4 * a1 * m)
    assert rem == 0, (f1, f2)
    return (a1 * m, big_b, c)


def _extended_gcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def tate_two_rank_imaginary(d: int) -> int:
    """2-rank of K_2 of the ring of integers of Q(sqrt(-d)), d >= 1
    squarefree, by Tate's formula r1 + g2 - 1 + r2(Cl(O[1/2])) with
    r1 = 0 and g2 the number of primes above 2 (Tate, Invent. Math. 36,
    1976).

    Classes are the reduced forms found by scanning the whole box
    |b| <= a <= sqrt(|D|/3); the squares in the class group are the
    reduced self-compositions, and |Cl / Cl^2| = 2**r2(Cl).  Inverting
    2 divides out the class of a prime above 2, the form
    (2, b, (b*b - D)/8), which lowers the 2-rank by one exactly when
    that class is not a square.  An inert 2 is principal.
    """
    disc = -d if -d % 4 == 1 else -4 * d
    forms = []
    for a in range(1, isqrt(-disc // 3) + 1):
        for b in range(-a + 1, a + 1):
            c, rem = divmod(b * b - disc, 4 * a)
            if rem == 0 and c >= a and not (a == c and b < 0) \
                    and gcd(gcd(a, b), c) == 1:
                forms.append((a, b, c))
    squares = {reduce_definite(compose_forms(f, f)) for f in forms}
    rank = (len(forms) // len(squares)).bit_length() - 1
    if disc % 8 == 5:
        return rank  # g2 = 1, and the prime above 2 is (2)
    b = next(b for b in range(4) if (b * b - disc) % 8 == 0)
    if reduce_definite((2, b, (b * b - disc) // 8)) not in squares:
        rank -= 1
    return (2 if disc % 8 == 1 else 1) - 1 + rank


def _rho_oracle(form, disc: int):
    # (a, b, c) -> (c, r, (r*r - disc) / 4c), r = -b mod 2|c|: proper
    # equivalence by [[0, -1], [1, k]].  r is taken in (-|c|, |c|] while
    # |c| > sqrt(disc), else as the largest such r below sqrt(disc)
    _, b, c = form
    s, width = isqrt(disc), 2 * abs(c)
    if abs(c) > s:
        r = (-b) % width
        r -= width if r > abs(c) else 0
    else:
        r = -b + width * ((s + b) // width)
    return (c, r, (r * r - disc) // (4 * c))


def indefinite_form_classes(disc: int) -> dict:
    """Class index of every reduced form of the nonsquare discriminant
    disc > 0: the classes are the cycles of
    reduced_indefinite_forms_oracle under the reduction step."""
    reduced = reduced_indefinite_forms_oracle(disc)
    members = set(reduced)
    index, cycles = {}, 0
    for start in reduced:
        if start in index:
            continue
        form = start
        while form not in index:
            assert form in members, (disc, form)
            index[form] = cycles
            form = _rho_oracle(form, disc)
        assert form == start, (disc, form)  # a cycle, not a tail
        cycles += 1
    return index


def _indefinite_class(form, disc: int, index: dict) -> int:
    # step any form of discriminant disc until it is reduced
    while form not in index:
        form = _rho_oracle(form, disc)
    return index[form]


def tate_two_rank_real(d: int) -> int:
    """2-rank of K_2 of the ring of integers of Q(sqrt(d)), d >= 2
    squarefree, by Tate's formula r1 + g2 - 1 + r2(Cl(O[1/2])) with
    r1 = 2 and g2 the number of primes above 2 (Tate, Invent. Math. 36,
    1976).

    Cl(O[1/2]) is the narrow class group (the cycles of reduced forms)
    modulo the class of (-1, b0, -c0), which gives the wide group, and
    the class of a prime above 2, the form (2, b, (b*b - D)/8), when 2
    is not inert.  Its 2-rank is log2 of h+ over the order of the
    subgroup H*G^2 that those classes generate with the squares G^2.
    """
    disc = d if d % 4 == 1 else 4 * d
    index = indefinite_form_classes(disc)
    reps = {k: f for f, k in index.items()}
    b0 = disc % 2
    gens = [(-1, b0, (disc - b0 * b0) // 4)]
    if disc % 8 != 5:
        b = next(b for b in range(4) if (b * b - disc) % 8 == 0)
        gens.append((2, b, (b * b - disc) // 8))
    subgroup = {_indefinite_class(compose_forms(f, f), disc, index)
                for f in reps.values()}
    for g in gens:
        subgroup |= {_indefinite_class(compose_forms(reps[k], g), disc, index)
                     for k in subgroup}
    quotient, rest = divmod(len(reps), len(subgroup))
    assert rest == 0 and quotient & (quotient - 1) == 0, (d, quotient)
    rank = quotient.bit_length() - 1
    return 2 + (2 if disc % 8 == 1 else 1) - 1 + rank


def class_group_invariant_factors(reduced_forms) -> list[int]:
    """Invariant factors (> 1) of the definite form class group, from
    the Smith normal form of the full composition table."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    forms = sorted(reduced_forms)
    index = {f: k for k, f in enumerate(forms)}
    n = len(forms)
    rows = []
    for i1 in range(n):
        for i2 in range(i1, n):
            product = reduce_definite(compose_forms(forms[i1], forms[i2]))
            row = [0] * n
            row[i1] += 1
            row[i2] += 1
            row[index[product]] -= 1
            rows.append(row)
    snf = smith_normal_form(Matrix(rows))
    diag = [abs(snf[k, k]) for k in range(min(snf.shape))]
    return sorted(d for d in diag if d > 1)


# ---------------------------------------------------------------------------
# assorted small oracles


def multiplicative_order(g: int, modulus: int) -> int:
    if modulus < 2 or gcd(g, modulus) != 1:
        raise ValueError(f"{g} is not a unit modulo {modulus}")
    x = g % modulus
    k = 1
    while x != 1:
        x = x * g % modulus
        k += 1
    return k


def primitive_root_bruteforce(ell: int) -> int:
    return next(g for g in range(2, ell)
                if multiplicative_order(g, ell) == ell - 1)


def second_primitive_root(ell: int) -> int:
    first = primitive_root_bruteforce(ell)
    return next(g for g in range(first + 1, ell)
                if multiplicative_order(g, ell) == ell - 1)


def pth_powers(ell: int, p: int) -> set[int]:
    return {pow(x, p, ell) for x in range(1, ell)}


def tate_orders_sets(m: int, n: int, u: int) -> tuple[int, int]:
    """Set-based Tate cohomology orders, independent of the library's
    strided enumeration."""
    if m == 1:
        return 1, 1
    norm = sum(pow(u, j, m) for j in range(n)) % m
    fixed = [x for x in range(m) if (u - 1) * x % m == 0]
    norm_image = {norm * x % m for x in range(m)}
    norm_kernel = [x for x in range(m) if norm * x % m == 0]
    shift_image = {(u - 1) * x % m for x in range(m)}
    assert len(fixed) % len(norm_image) == 0
    assert len(norm_kernel) % len(shift_image) == 0
    return len(fixed) // len(norm_image), len(norm_kernel) // len(shift_image)


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """B_n by the Akiyama-Tanigawa triangle (B_1 = +1/2 convention;
    even indices agree with every convention)."""
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def f2_span(rows) -> set[tuple[int, ...]]:
    """All F_2 linear combinations of the given rows."""
    span = {tuple(0 for _ in rows[0])} if rows else set()
    for row in rows:
        new = {tuple((a + b) % 2 for a, b in zip(row, v)) for v in span}
        span |= new
    return span


def fp_rank(rows, p: int) -> int:
    basis = []
    for row in rows:
        v = list(row)
        for b in basis:
            pivot = next(k for k, x in enumerate(b) if x)
            if v[pivot]:
                coeff = v[pivot] * pow(b[pivot], -1, p) % p
                v = [(x - coeff * y) % p for x, y in zip(v, b)]
        if any(v):
            basis.append(v)
    return len(basis)


def greedy_primitive_subset(vectors: dict, p: int) -> tuple[int, list[int]]:
    """Full F_p rank of the vectors (one per prime) and the greedy maximal
    independent subset in ascending prime order, by fp_rank on every
    prefix: a prime is kept when it raises the rank of the kept ones."""
    kept = []
    for ell in sorted(vectors):
        if fp_rank([vectors[q] for q in kept + [ell]], p) > len(kept):
            kept.append(ell)
    return fp_rank(list(vectors.values()), p), kept


def squarefree_flags(limit: int) -> list[bool]:
    """flags[n] is True iff n is squarefree, for 0 <= n <= limit, by
    striking out the multiples of every square q**2 <= limit."""
    flags = [True] * (limit + 1)
    flags[0] = False
    for q in range(2, isqrt(limit) + 1):
        for multiple in range(q * q, limit + 1, q * q):
            flags[multiple] = False
    return flags


def squarefree_numbers(limit: int):
    """All squarefree n with 2 <= n <= limit."""
    flags = squarefree_flags(limit)
    return [n for n in range(2, limit + 1) if flags[n]]


def prime_at_most(n: int) -> int:
    """Largest prime <= n for n >= 2, each candidate tested by trial
    division by every integer up to its square root."""
    while any(n % d == 0 for d in range(2, isqrt(n) + 1)):
        n -= 1
    return n


def convergents_of_sqrt(d: int):
    """Yield continued-fraction convergents (p, q) of sqrt(d)."""
    s = isqrt(d)
    P, Q, a = 0, 1, s
    p_prev, q_prev = 1, 0
    p_cur, q_cur = s, 1
    while True:
        yield p_cur, q_cur
        P = a * Q - P
        Q = (d - P * P) // Q
        a = (P + s) // Q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev


def dyadic_generator_search(d: int, bound: int = 10**4):
    """Least element of norm +/-2 of Q(sqrt(d)), d > 1 squarefree and
    d != 5 mod 8, by search over its coefficients up to bound, as
    (a, b, halved) for (a + b*sqrt(d)) / (2 if halved else 1); None when
    the box holds none.

    b runs upward and +2 is tried before -2 at each b.  For d = 1 mod 8
    the search is over a**2 - d*b**2 = +/-8 with a <= 2*bound, halved
    when a and b are odd."""
    split = d % 8 == 1
    targets, scale = ((8, -8), 2) if split else ((2, -2), 1)
    for b in range(1, bound + 1):
        for t in targets:
            aa = d * b * b + t
            if aa <= 0:
                continue
            a = isqrt(aa)
            if a * a != aa or a > bound * scale:
                continue
            if not split:
                return a, b, False
            return (a, b, True) if a % 2 else (a // 2, b // 2, False)
    return None


# ---------------------------------------------------------------------------
# vanishing catalog by all subsets


def primes_up_to(limit: int) -> list[int]:
    """Primes <= limit, for limit >= 1, by the sieve of Eratosthenes."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for q in range(2, isqrt(limit) + 1):
        if flags[q]:
            for multiple in range(q * q, limit + 1, q):
                flags[multiple] = False
    return [n for n in range(limit + 1) if flags[n]]


def vanishing_catalog_all_subsets(p: int, i: int, template, bound: int,
                                  assume_vandiver: bool = False, on_decision=None):
    """Every tame set of at most three candidate primes <= bound that
    classify.vanishing_decision accepts for the template, as
    (tame tuple, Decision) pairs sorted by size then entries.

    Decides every subset, so no size limit or downward closure of the
    catalog is assumed; candidates are the odd primes for p = 2 and the
    primes 1 mod p otherwise.  on_decision, when given, is called with
    every subset's shape and Decision, accepted or not.
    """
    candidates = [ell for ell in primes_up_to(bound)
                  if ell != p and ell % p == 1]
    results = []
    for size in range(4):
        for tame in combinations(candidates, size):
            shape = ExtensionShape(
                p=p, ramified_tame=frozenset(tame), wild=True,
                real_type=template.real_type, cyclic=template.cyclic,
            )
            decision = vanishing_decision(shape, i, assume_vandiver)
            if on_decision is not None:
                on_decision(shape, decision)
            if decision.admissible:
                results.append((tame, decision))
    return results


def _is_pth_power(x: int, ell: int, p: int) -> bool:
    # Euler's criterion in F_ell for ell = 1 mod p
    return pow(x, (ell - 1) // p, ell) == 1


def _xi_is_pth_power(p: int, j: int, ell: int) -> bool:
    # xi_j = prod over a of (zeta**a - 1)**(a**-j mod p) at any element
    # zeta of order p: another choice raises xi_j to a power prime to p
    zeta = next(z for z in (pow(g, (ell - 1) // p, ell) for g in range(2, ell)) if z != 1)
    x = 1
    for a in range(1, p):
        x = x * pow(pow(zeta, a, ell) - 1, pow(a, (-j) % (p - 1), p), ell) % ell
    return _is_pth_power(x, ell, p)


def vanishing_verdict_by_congruences(shape, i: int, assume_vandiver: bool = False):
    """(verdict, condition) of the vanishing criterion for the shape at
    twist i, restated as congruences on the tame primes.

    p = 2: imaginary shapes (any twist) need at most one tame prime,
    +/-3 mod 8; real shapes need an odd twist and at most two tame
    primes, none 1 mod 8 and distinct mod 8, conditional on H_i when not
    cyclic.  Odd p: at i = 0 mod (p-1) at most one tame prime, not 1 mod
    p**2; at other even twists no tame prime and a base order
    2 * numerator(|B_i| / 2i) prime to p; at odd twists at most one tame
    prime at which p (i = 1 mod (p-1)) or else the cyclotomic element
    xi_(1-i), which rests on Vandiver's conjecture, is not a p-th power.
    """
    p, tame = shape.p, sorted(shape.ramified_tame)
    if not tame and not shape.wild:
        return "unsupported", None
    if p == 2:
        if shape.real_type == TOTALLY_IMAGINARY:
            ok = len(tame) <= 1 and all(ell % 8 in (3, 5) for ell in tame)
            return ("vanishes" if ok else "nonzero"), None
        if i % 2 == 0:
            return "nonzero", None
        ok = (len(tame) <= 2 and all(ell % 8 != 1 for ell in tame)
              and len({ell % 8 for ell in tame}) == len(tame))
        if shape.cyclic:
            return ("vanishes" if ok else "nonzero"), None
        return ("conditional" if ok else "nonzero"), "H_i"
    if i % (p - 1) == 0:
        ok = len(tame) <= 1 and all(ell % p**2 != 1 for ell in tame)
        return ("vanishes" if ok else "nonzero"), None
    if i % 2 == 0:
        ok = not tame and 2 * abs(
            (bernoulli_akiyama_tanigawa(i) / (2 * i)).numerator) % p != 0
        return ("vanishes" if ok else "nonzero"), None
    if i % (p - 1) == 1 % (p - 1):
        ok = len(tame) <= 1 and not any(_is_pth_power(p, ell, p) for ell in tame)
        return ("vanishes" if ok else "nonzero"), None
    ok = len(tame) <= 1 and not any(_xi_is_pth_power(p, 1 - i, ell) for ell in tame)
    if assume_vandiver:
        return ("vanishes" if ok else "nonzero"), "vandiver"
    return ("conditional" if ok else "nonzero"), "vandiver"
