"""Binary quadratic forms, fundamental units and 2-unit signatures of
quadratic fields, in exact integer arithmetic throughout.

Narrow class numbers are form class numbers: reduced positive definite
forms for negative discriminants, cycles of reduced indefinite forms
under the reduction step for positive ones.  One walk of the period of
the continued fraction of the ring generator, (1 + sqrt(d))/2 or
sqrt(d), gives both the fundamental unit and the generator of a prime
above 2 that the 2-unit signatures need.  Signature bits are decided by
comparing a**2 against d*b**2; no floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .exactnum import is_squarefree
from .kummer import _independent_rows

# Form enumeration takes about |disc| steps, about 0.5 s at |disc| = 10**8
# (2-core x86-64 host); discriminants beyond the cap are refused.  The
# unit's continued fraction is cheaper but unbounded in |disc| too
# (fundamental_unit(10**12 + 39) ran for 46 s), so units share the cap.
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
    return _field(d)[0]


def dyadic_type(d: int) -> str:
    """Splitting of 2 in Q(sqrt(d)): split iff d = 1 mod 8, inert iff
    d = 5 mod 8, ramified otherwise."""
    return _field(d)[1]


def _field(d: int) -> tuple[int, str]:
    """The one validation of d: the discriminant and dyadic type of
    Q(sqrt(d)), for squarefree d != 0, 1."""
    if d in (0, 1):
        raise ValueError("d must define a nontrivial quadratic field")
    if not is_squarefree(d):
        raise ValueError(f"{d} is not squarefree")
    disc = d if d % 4 == 1 else 4 * d
    kind = SPLIT if d % 8 == 1 else INERT if d % 8 == 5 else RAMIFIED
    return disc, kind


# ---------------------------------------------------------------------------
# form enumeration and reduction


def reduced_definite_forms(disc: int) -> list[tuple[int, int, int]]:
    """All reduced primitive positive definite forms of discriminant
    disc < 0: |b| <= a <= c with b >= 0 when |b| = a or a = c."""
    if disc >= 0 or disc % 4 not in (0, 1):
        raise ValueError("negative discriminant = 0, 1 mod 4 required")
    _require_under_cap(disc)
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
    if disc <= 0 or disc % 4 not in (0, 1):
        raise ValueError("positive discriminant = 0, 1 mod 4 required")
    s = isqrt(disc)
    if s * s == disc:
        raise ValueError("square discriminants do not define a field")
    _require_under_cap(disc)
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


def _require_under_cap(disc: int, work: str = "form enumeration"):
    if abs(disc) > DISC_CAP:
        raise ValueError(f"|disc| = {abs(disc)} exceeds the {work} cap {DISC_CAP}")


def _rho(form: tuple[int, int, int], disc: int, s: int) -> tuple[int, int, int]:
    """Reduction step on reduced indefinite forms of discriminant disc,
    with s = isqrt(disc); permutes each cycle of reduced forms
    cyclically.  A reduced form has |c| < sqrt(disc), so r is the unique
    r = -b mod 2|c| in (s - 2|c|, s]."""
    _, b, c = form
    r = s - (s + b) % (2 * abs(c))
    return (c, r, (r * r - disc) // (4 * c))


def indefinite_cycles(disc: int) -> list[tuple[tuple[int, int, int], ...]]:
    """Cycles of reduced indefinite forms under rho, each listed from
    its smallest member, in ascending order; the number of cycles is the
    narrow class number of the corresponding real quadratic field."""
    s = isqrt(disc)
    seen, cycles = set(), []
    # forms come in ascending order: the first unseen one is its cycle's least
    for start in reduced_indefinite_forms(disc):
        if start in seen:
            continue
        cycle = [start]
        current = _rho(start, disc, s)
        while current != start:
            cycle.append(current)
            current = _rho(current, disc, s)
        seen.update(cycle)
        cycles.append(tuple(cycle))
    return cycles


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
        -|sqrt(d)| (the denominator never matters).  For d < 0 neither
        embedding is real, and it raises ValueError."""
        if d < 0:
            raise ValueError(f"d = {d} < 0: Q(sqrt(d)) has no real embedding")
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
    # sign of a + b*sqrt(d): that of a when b is 0 or has a's sign, else
    # that of a or of b, whichever of a**2 and d*b**2 is larger
    sign_a, sign_b = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sign_a and sign_a * sign_b >= 0:
        return sign_a
    if not sign_b:
        raise ValueError("zero element has no sign")
    big = a * a - d * b * b
    if big == 0:
        raise ValueError("element is zero or d is a square")
    return sign_a if big > 0 else sign_b


def _pell_unit(d: int) -> tuple[FieldElement, int, FieldElement | None]:
    """Fundamental unit of Q(sqrt(d)), d > 1 squarefree, its norm, and a
    generator of a prime above 2 (None when 2 is inert or no prime above
    2 is principal).

    Expands the ring generator w = (q0 - 1 + sqrt(d))/q0, q0 = 2 when
    d = 1 mod 4 and 1 otherwise, in complete quotients (P + sqrt(d))/Q
    up to the first Q equal to q0 again, after k steps.  At step j the
    convergent A/B gives A - B*conj(w) of norm (-1)**j * Q/q0: the unit
    at the last step, and an element of norm +/-2 at every step with
    Q = 2*q0.  Of those the one with the least B is kept, the even step
    (norm +2) first at equal B.  By Legendre's criterion (|N| < sqrt(D)/2)
    every least generator of norm +/-2 is such a convergent when D > 16."""
    q0 = 2 if d % 4 == 1 else 1
    s = isqrt(d)
    P, Q = q0 - 1, q0
    A, A_prev, B, B_prev = 1, 0, 0, 1
    k = 0
    least = None  # (B, step parity, A) of the least step with Q = 2*q0
    while True:
        a = (P + s) // Q
        A, A_prev = a * A + A_prev, A
        B, B_prev = a * B + B_prev, B
        P = a * Q - P
        Q = (d - P * P) // Q
        k += 1
        if Q == 2 * q0 and (least is None or (B, k % 2) < least[:2]):
            least = (B, k % 2, A)
        if Q == q0:
            break
    unit = _convergent_element(A, B, q0)
    norm = (-1) ** k
    assert unit.norm(d) == norm
    if d == 2:
        # D = 8 is the one non-inert field outside Legendre's bound: the
        # walk meets no Q = 2.  2 + sqrt(2) = sqrt(2)*(1 + sqrt(2))
        # generates the ramified prime.
        pi = FieldElement(2, 1)
    else:
        pi = None if least is None else _convergent_element(least[2], least[0], q0)
    assert pi is None or abs(pi.norm(d)) == 2
    return unit, norm, pi


def _convergent_element(A: int, B: int, q0: int) -> FieldElement:
    # A - B*conj(w) for the ring generator w of _pell_unit
    if q0 == 1:
        return FieldElement(A, B)
    if B % 2:
        return FieldElement(2 * A - B, B, halved=True)
    return FieldElement(A - B // 2, B // 2)


def fundamental_unit(d: int) -> FieldElement:
    """Smallest unit > 1 of the ring of integers of Q(sqrt(d)), d > 1
    squarefree.  It is (a + b*sqrt(d))/2 with a, b odd for some
    d = 5 mod 8, and a + b*sqrt(d) otherwise.  Raises ValueError when
    |disc| exceeds DISC_CAP."""
    disc, _ = _field(d)
    if d < 2:
        raise ValueError("d must be > 1")
    _require_under_cap(disc, "unit computation")
    return _pell_unit(d)[0]


# ---------------------------------------------------------------------------
# 2-unit signatures


def _signatures(d: int, kind: str, h: int, unit: FieldElement,
                pi: FieldElement | None):
    """Generators of the 2-units of the real field Q(sqrt(d)) modulo
    squares, their sign matrix, its corank delta and a note, for class
    number one; otherwise the first three are None and the note gives
    the reason.

    Generators are -1, the fundamental unit, and a generator of each
    prime above 2 (the rational 2 itself when 2 is inert).  With a
    single dyadic prime, delta is the common signature corank of the
    twisted cohomology at every odd twist."""
    if h != 1:
        return None, None, None, f"class number {h} > 1"
    gens = [FieldElement(-1, 0), unit]
    if kind == INERT:
        gens.append(FieldElement(2, 0))
    else:
        # class number one makes the prime above 2 principal
        assert pi is not None
        gens.append(pi)
        if kind == SPLIT:
            gens.append(FieldElement(pi.a, -pi.b, pi.halved))
    matrix = tuple(
        tuple(0 if s > 0 else 1 for s in g.signs(d)) for g in gens
    )
    delta = 2 - len(_independent_rows(matrix, 2))
    conflict = None
    if d in _QUOTED_DELTA and _QUOTED_DELTA[d] != delta:
        conflict = (
            f"exact sign evaluation gives delta = {delta}; a quoted value "
            f"of {_QUOTED_DELTA[d]} for d = {d} disagrees"
        )
    return tuple(gens), matrix, delta, conflict


# ---------------------------------------------------------------------------
# assembled per-field report


@dataclass(frozen=True)
class QuadFieldData:
    """The invariants of one quadratic field: h_plus the narrow and h
    the ordinary class number; two_regular means one dyadic prime
    (d != 1 mod 8) and odd h_plus.  A real field of class number one
    carries its 2-unit generators modulo squares, their sign matrix over
    the two real embeddings (bit 1 = negative) and its corank delta,
    and signature_note flags a disagreement with an externally quoted
    delta (the computed matrix is authoritative).  Past class number one
    those three are None and signature_note gives the class number;
    imaginary fields carry none of the four."""

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
    validation of d, one enumeration of its reduced forms and at most one
    unit computation.  Raises ValueError when |disc| exceeds DISC_CAP."""
    disc, kind = _field(d)
    if d < 0:
        h_plus = h = len(reduced_definite_forms(disc))
        unit = norm = gens = matrix = delta = note = None
    else:
        h_plus = len(indefinite_cycles(disc))
        unit, norm, pi = _pell_unit(d)
        # real fields: h = h_plus exactly when the fundamental unit has norm -1
        h = h_plus if norm == -1 else h_plus // 2
        gens, matrix, delta, note = _signatures(d, kind, h, unit, pi)
    return QuadFieldData(
        d=d, disc=disc, dyadic_type=kind,
        h_plus=h_plus, h=h, fundamental_unit=unit, unit_norm=norm,
        two_unit_generators=gens, signature_matrix=matrix, delta=delta,
        two_regular=kind != SPLIT and h_plus % 2 == 1, signature_note=note,
    )
