"""Binary quadratic forms, fundamental units and 2-unit signatures of
quadratic fields, in exact integer arithmetic throughout.

Narrow class numbers are form class numbers: reduced positive definite
forms for negative discriminants, cycles of reduced indefinite forms
under the reduction step for positive ones.  Fundamental units come
from the continued fraction of sqrt(d), with the half-integral cube
root recovered exactly when d = 5 mod 8.  Signature bits are decided by
comparing a**2 against d*b**2; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .exactnum import is_squarefree
from .kummer import _independent_rows

DYADIC_SEARCH_BOUND = 10**4

# Form enumeration takes about |disc| steps, about 0.5 s at |disc| = 10**8
# (2-core x86-64 host); discriminants beyond the cap are refused.
DISC_CAP = 10**8

RAMIFIED = "ramified"
INERT = "inert"
SPLIT = "split"

# Cokernel ranks for specific fields quoted in published discussions of
# 2-unit signatures.  Kept only to flag disagreements with the exact
# computation; never returned as the computed value.
_QUOTED_DELTA = {3: 1}


def discriminant(d: int) -> int:
    """Field discriminant of Q(sqrt(d)) for squarefree d."""
    _require_squarefree(d)
    return _discriminant(d)


def dyadic_type(d: int) -> str:
    """Splitting of 2 in Q(sqrt(d)): split iff d = 1 mod 8, inert iff
    d = 5 mod 8, ramified otherwise."""
    _require_squarefree(d)
    return _dyadic_type(d)


def _require_squarefree(d: int):
    if d in (0, 1):
        raise ValueError("d must define a nontrivial quadratic field")
    if not is_squarefree(d):
        raise ValueError(f"{d} is not squarefree")


def _require_real(d: int):
    _require_squarefree(d)
    if d < 2:
        raise ValueError("d must be > 1")


# The private helpers below take a d already checked by _require_squarefree.


def _discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def _dyadic_type(d: int) -> str:
    if d % 8 == 1:
        return SPLIT
    if d % 8 == 5:
        return INERT
    return RAMIFIED


# ---------------------------------------------------------------------------
# form enumeration and reduction


def reduced_definite_forms(disc: int) -> list[tuple[int, int, int]]:
    """All reduced primitive positive definite forms of discriminant
    disc < 0: |b| <= a <= c with b >= 0 when |b| = a or a = c."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("negative discriminant = 0, 1 mod 4 required")
    _require_enumerable(disc)
    forms = []
    for b in range(disc % 2, isqrt(-disc // 3) + 1, 2):
        m = (b * b - disc) // 4
        for a in range(max(b, 1), isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if gcd(gcd(a, b), c) != 1:
                continue
            forms.append((a, b, c))
            if 0 < b < a < c:
                forms.append((a, -b, c))
    return sorted(forms)


def reduced_indefinite_forms(disc: int) -> list[tuple[int, int, int]]:
    """All reduced primitive indefinite forms of nonsquare discriminant
    disc > 0: 0 < b < sqrt(disc) and sqrt(disc) - b < 2|a| < sqrt(disc) + b."""
    s = _root_check(disc)
    _require_enumerable(disc)
    forms = []
    for b in range(2 - (disc % 2), s + 1, 2):
        n = (disc - b * b) // 4
        # |a| * |c| = n, and (a, b, c) is reduced iff (c, b, a) is: from
        # 4n = (sqrt(disc) - b)(sqrt(disc) + b), 2|a| lies strictly between
        # the two factors iff 2|c| = 4n / 2|a| does.  So both divisors a and
        # n // a exceed (sqrt(disc) - b) / 2 > (s - b) / 2.  The smaller one,
        # a, is therefore at least (s - b) // 2 + 1; the loop starts two
        # below that.
        for a in range(max(1, (s - b) // 2 - 1), isqrt(n) + 1):
            if n % a:
                continue
            for aa in (a, n // a) if a != n // a else (a,):
                # reduced: sqrt(disc) - b < 2*aa < sqrt(disc) + b
                if (2 * aa - b) ** 2 < disc < (2 * aa + b) ** 2:
                    c = -(n // aa)
                    if gcd(gcd(aa, b), c) == 1:
                        forms.append((aa, b, c))
                        forms.append((-aa, b, -c))
    return sorted(forms)


def _require_enumerable(disc: int):
    if abs(disc) > DISC_CAP:
        raise ValueError(f"|disc| = {abs(disc)} exceeds the form enumeration cap {DISC_CAP}")


def _root_check(disc: int) -> int:
    if disc <= 0 or disc % 4 not in (0, 1):
        raise ValueError("positive discriminant = 0, 1 mod 4 required")
    s = isqrt(disc)
    if s * s == disc:
        raise ValueError("square discriminants do not define a field")
    return s


def rho(form: tuple[int, int, int], disc: int) -> tuple[int, int, int]:
    """Reduction step on indefinite forms; permutes each cycle of
    reduced forms cyclically."""
    return _rho(form, disc, _root_check(disc))


def _rho(form: tuple[int, int, int], disc: int, s: int) -> tuple[int, int, int]:
    # s = isqrt(disc) of a discriminant checked by _root_check
    _, b, c = form
    ac = abs(c)
    if ac > s:
        # unique r = -b mod 2|c| in (-|c|, |c|]
        r = -b % (2 * ac)
        if r > ac:
            r -= 2 * ac
    else:
        # unique r = -b mod 2|c| in (s - 2|c|, s]
        r = s - (s + b) % (2 * ac)
    return (c, r, (r * r - disc) // (4 * c))


def indefinite_cycles(disc: int) -> list[tuple[tuple[int, int, int], ...]]:
    """Cycles of reduced indefinite forms under rho, each listed from
    its smallest member; the number of cycles is the narrow class
    number of the corresponding real quadratic field."""
    s = _root_check(disc)
    remaining = set(reduced_indefinite_forms(disc))
    cycles = []
    while remaining:
        start = min(remaining)
        cycle = [start]
        current = _rho(start, disc, s)
        while current != start:
            cycle.append(current)
            current = _rho(current, disc, s)
        cycles.append(tuple(cycle))
        remaining -= set(cycle)
    return sorted(cycles)


def narrow_class_number(d: int) -> int:
    """Form class number of the discriminant of Q(sqrt(d)): reduced
    definite forms for d < 0, rho-cycles of reduced indefinite forms
    for d > 0."""
    _require_squarefree(d)
    return _narrow_class_number(d, _discriminant(d))


def _narrow_class_number(d: int, disc: int) -> int:
    # the one enumeration of reduced forms for the field
    if d < 0:
        return len(reduced_definite_forms(disc))
    return len(indefinite_cycles(disc))


# ---------------------------------------------------------------------------
# fundamental units


@dataclass(frozen=True)
class FieldElement:
    """(a + b*sqrt(d)) / (2 if halved else 1); d is carried alongside."""

    a: int
    b: int
    halved: bool = False

    def norm(self, d: int) -> int:
        n = self.a * self.a - d * self.b * self.b
        if self.halved:
            if n % 4:
                raise ValueError("not an algebraic integer")
            n //= 4
        return n

    def signs(self, d: int) -> tuple[int, int]:
        """Exact signs at the embeddings sqrt(d) -> +|sqrt(d)| then
        -|sqrt(d)|, for d > 0 (the denominator never matters)."""
        return (_sign_at(self.a, self.b, d), _sign_at(self.a, -self.b, d))

    def __str__(self):
        if self.b == 0:
            body = str(self.a)
        else:
            sign = "+" if self.b > 0 else "-"
            mag = abs(self.b)
            term = "sqrt(d)" if mag == 1 else f"{mag}*sqrt(d)"
            body = f"{self.a}{sign}{term}" if self.a else f"{'-' if self.b < 0 else ''}{term}"
        return f"({body})/2" if self.halved else body


def _sign_at(a: int, b: int, d: int) -> int:
    # sign of a + b*sqrt(d) by comparing a**2 with d*b**2
    if b == 0:
        if a == 0:
            raise ValueError("zero element has no sign")
        return 1 if a > 0 else -1
    if a == 0:
        return 1 if b > 0 else -1
    if (a > 0) == (b > 0):
        return 1 if a > 0 else -1
    big = a * a - d * b * b
    if big == 0:
        raise ValueError("element is zero or d is a square")
    positive = (a > 0) == (big > 0)
    return 1 if positive else -1


def _pell_unit(d: int) -> tuple[int, int, int]:
    """Smallest x + y*sqrt(d) > 1 with x**2 - d*y**2 = +/-1, by the
    continued fraction of sqrt(d); returns (x, y, norm)."""
    s = isqrt(d)
    if s * s == d:
        raise ValueError("d must not be a square")
    P, Q, a = 0, 1, s
    p_prev, q_prev = 1, 0
    p_cur, q_cur = s, 1
    k = 0
    while True:
        P = a * Q - P
        Q = (d - P * P) // Q
        k += 1
        if Q == 1:
            return p_cur, q_cur, (-1) ** k
        a = (P + s) // Q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev


def _icbrt(n: int) -> int:
    """Integer cube root of n >= 0 (floor)."""
    if n < 0:
        raise ValueError
    if n < 8:
        return int(n >= 1)
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    return x


def fundamental_unit(d: int) -> FieldElement:
    """Smallest unit > 1 of the ring of integers of Q(sqrt(d)), d > 1
    squarefree, from the continued fraction of sqrt(d).

    For d = 5 mod 8 the fundamental unit may be (a + b*sqrt(d))/2 with
    a, b odd; it is recovered as the exact cube root of the sqrt(d)-order
    unit.  For d = 1 mod 8 no half-integral unit exists.
    """
    _require_real(d)
    return _fundamental_unit(d)


def _fundamental_unit(d: int) -> FieldElement:
    x, y, n = _pell_unit(d)
    if d % 8 == 5:
        # trace of the cube root: a**3 - 3*n*a = 2*x, with the same norm n
        guess = _icbrt(2 * x)
        for a in range(max(1, guess - 2), guess + 3):
            if a % 2 == 0:
                continue
            if a * a * a - 3 * n * a != 2 * x:
                continue
            bb, rem = divmod(a * a - 4 * n, d)
            if rem:
                continue
            b = isqrt(bb)
            if b * b == bb and b % 2 == 1:
                half = FieldElement(a, b, halved=True)
                assert _cube_halved(a, b, d) == (x, y)
                return half
    return FieldElement(x, y)


def _cube_halved(a: int, b: int, d: int) -> tuple[int, int]:
    # ((a + b sqrt d)/2)**3 in the basis (1, sqrt d)
    num_a = a * (a * a + 3 * d * b * b)
    num_b = b * (3 * a * a + d * b * b)
    assert num_a % 8 == 0 and num_b % 8 == 0
    return num_a // 8, num_b // 8


def unit_norm(d: int) -> int:
    """Norm of the fundamental unit of Q(sqrt(d))."""
    e = fundamental_unit(d)
    return e.norm(d)


def class_number(d: int) -> int:
    """Ordinary class number: equals the narrow one for d < 0 and when
    the fundamental unit has norm -1, half of it otherwise."""
    _require_squarefree(d)
    h_plus = _narrow_class_number(d, _discriminant(d))
    if d < 0:
        return h_plus
    return _class_number(h_plus, _fundamental_unit(d).norm(d))


def _class_number(h_plus: int, norm: int) -> int:
    # real fields: h = h_plus exactly when the fundamental unit has norm -1
    return h_plus if norm == -1 else h_plus // 2


# ---------------------------------------------------------------------------
# 2-unit signatures


@dataclass(frozen=True)
class Unsupported:
    reason: str


@dataclass(frozen=True)
class SignatureData:
    """Generators of the 2-units modulo squares, their sign matrix over
    the two real embeddings (bit 1 = negative), and the corank delta of
    the matrix.  quoted_conflict flags a disagreement with an externally
    quoted value; the computed matrix is authoritative."""

    d: int
    generators: tuple[FieldElement, ...]
    matrix: tuple[tuple[int, int], ...]
    rank: int
    delta: int
    quoted_conflict: str | None = None


def _dyadic_generator(d: int, kind: str):
    """Element of norm +/-2 generating a prime above 2, by bounded
    search, for the ramified and split cases."""
    if kind == SPLIT:
        # (a + b sqrt d)/2 with a**2 - d b**2 = +/-8
        targets = (8, -8)
        scale = 2
    else:
        targets = (2, -2)
        scale = 1
    for b in range(1, DYADIC_SEARCH_BOUND + 1):
        for t in targets:
            aa = d * b * b + t
            if aa <= 0:
                continue
            a = isqrt(aa)
            if a * a != aa or a > DYADIC_SEARCH_BOUND * scale:
                continue
            if scale == 2:
                # a and b share parity automatically (d is odd here)
                if a % 2 == 0:
                    return FieldElement(a // 2, b // 2)
                return FieldElement(a, b, halved=True)
            return FieldElement(a, b)
    return None


def two_unit_signatures(d: int):
    """Generators of the 2-units of Q(sqrt(d)) modulo squares with their
    exact signature matrix, for real fields with class number one.

    Generators are -1, the fundamental unit, and a generator of each
    prime above 2 (the rational 2 itself when 2 is inert).  delta is the
    corank of the matrix; with a single dyadic prime it is the common
    signature corank of the twisted cohomology at every odd twist.
    Returns Unsupported when the class number exceeds one or no dyadic
    generator is found within the search bound.
    """
    _require_real(d)
    unit = _fundamental_unit(d)
    h = _class_number(_narrow_class_number(d, _discriminant(d)), unit.norm(d))
    return _signatures(d, _dyadic_type(d), h, unit)


def _signatures(d: int, kind: str, h: int, unit: FieldElement):
    """two_unit_signatures of the real field Q(sqrt(d)) from its dyadic
    type, class number and fundamental unit."""
    if h != 1:
        return Unsupported(f"class number {h} > 1")
    gens = [FieldElement(-1, 0), unit]
    if kind == INERT:
        gens.append(FieldElement(2, 0))
    else:
        pi = _dyadic_generator(d, kind)
        if pi is None:
            return Unsupported(
                f"no dyadic generator with coefficients <= {DYADIC_SEARCH_BOUND}"
            )
        gens.append(pi)
        if kind == SPLIT:
            gens.append(FieldElement(pi.a, -pi.b, pi.halved))
    matrix = tuple(
        tuple(0 if s > 0 else 1 for s in g.signs(d)) for g in gens
    )
    rank = len(_independent_rows(matrix, 2))
    delta = 2 - rank
    conflict = None
    if d in _QUOTED_DELTA and _QUOTED_DELTA[d] != delta:
        conflict = (
            f"exact sign evaluation gives delta = {delta}; a quoted value "
            f"of {_QUOTED_DELTA[d]} for d = {d} disagrees"
        )
    return SignatureData(d=d, generators=tuple(gens), matrix=matrix,
                         rank=rank, delta=delta, quoted_conflict=conflict)


def is_2_regular(d: int) -> bool:
    """One dyadic prime (d != 1 mod 8) and odd narrow class number."""
    _require_squarefree(d)
    return _is_2_regular(d, _narrow_class_number(d, _discriminant(d)))


def _is_2_regular(d: int, h_plus: int) -> bool:
    return d % 8 != 1 and h_plus % 2 == 1


# ---------------------------------------------------------------------------
# assembled per-field report


@dataclass(frozen=True)
class QuadFieldData:
    d: int
    disc: int
    dyadic_type: str
    h_plus: int
    h: int
    fundamental_unit: FieldElement | None
    unit_norm: int | None
    two_unit_generators: tuple[FieldElement, ...] | None
    signature_matrix: tuple[tuple[int, int], ...] | None
    delta: int | None
    two_regular: bool
    signature_note: str | None = None


def quad_field_data(d: int) -> QuadFieldData:
    """Everything this module computes for one quadratic field, from one
    enumeration of its reduced forms and at most one unit computation.
    Raises ValueError when |disc| exceeds DISC_CAP."""
    _require_squarefree(d)
    disc = _discriminant(d)
    kind = _dyadic_type(d)
    h_plus = _narrow_class_number(d, disc)
    two_regular = _is_2_regular(d, h_plus)
    if d < 0:
        return QuadFieldData(
            d=d, disc=disc, dyadic_type=kind,
            h_plus=h_plus, h=h_plus, fundamental_unit=None, unit_norm=None,
            two_unit_generators=None, signature_matrix=None, delta=None,
            two_regular=two_regular,
        )
    unit = _fundamental_unit(d)
    norm = unit.norm(d)
    h = _class_number(h_plus, norm)
    sig = _signatures(d, kind, h, unit)
    if isinstance(sig, Unsupported):
        gens = matrix = delta = None
        note = sig.reason
    else:
        gens, matrix, delta, note = (sig.generators, sig.matrix, sig.delta,
                                     sig.quoted_conflict)
    return QuadFieldData(
        d=d, disc=disc, dyadic_type=kind,
        h_plus=h_plus, h=h, fundamental_unit=unit, unit_norm=norm,
        two_unit_generators=gens, signature_matrix=matrix, delta=delta,
        two_regular=two_regular, signature_note=note,
    )
