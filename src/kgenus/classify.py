"""Vanishing deciders for the p-part of the tame kernel along
p-extensions of Q, and enumeration of the admissible ramified sets.

Every decider applies one criterion (kgenus, arXiv 2019): the p-part
vanishes exactly when the tame ramified set is primitive on the Kummer
radical of the case, that is, when it has at most dim(radical) primes
and their Frobenius vectors are linearly independent over F_p
(kummer.primitivity_rank).  The radical is radical(p, i) for odd p and
for real 2-extensions at odd twists (<-1, 2>), and its totally positive
part <2> for imaginary 2-extensions and for positive cohomology.  Real
2-extensions at even twists accept no set, and where the odd-p radical
is trivial the base order must also be prime to p.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import isqrt
from typing import Iterator

from . import ktable
from .exactnum import is_prime
from .genus import H_I
from .kummer import VANDIVER, KummerRadical, _rank, _vector, radical
from .localdata import _check_tame

TOTALLY_REAL = "totally_real"
TOTALLY_IMAGINARY = "totally_imaginary"
NOT_APPLICABLE = "not_applicable"

VANISHES = "vanishes"
NONZERO = "nonzero"
CONDITIONAL = "conditional"
UNSUPPORTED = "unsupported"

# enumerate_vanishing computes one Frobenius vector per candidate prime
# and builds a Decision only for the sets it yields.  At the cap every
# catalog but one takes milliseconds; the real p = 2 catalog at odd
# twists lists about 970k pairs, about 5 s in the library (2-core x86-64
# host).  Larger bounds are refused.
BOUND_CAP = 20000


@dataclass(frozen=True)
class ExtensionShape:
    """Shape of a p-extension of Q for the vanishing catalog: which tame
    primes ramify, whether p does, and (for p = 2) the signature."""

    p: int
    ramified_tame: frozenset[int]
    wild: bool = True
    real_type: str = NOT_APPLICABLE
    cyclic: bool = True

    def __post_init__(self):
        object.__setattr__(self, "ramified_tame", frozenset(self.ramified_tame))
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.real_type not in (TOTALLY_REAL, TOTALLY_IMAGINARY, NOT_APPLICABLE):
            raise ValueError(f"unknown real type {self.real_type!r}")
        if (self.real_type == NOT_APPLICABLE) != (self.p != 2):
            raise ValueError("signature type applies exactly when p = 2")
        _check_tame(self.p, self.ramified_tame)


@dataclass(frozen=True)
class Decision:
    """verdict 'vanishes'/'nonzero' when unconditional, 'conditional'
    when vanishing holds under the named assumption, 'unsupported' for
    shapes outside the catalog."""

    verdict: str
    condition: str | None = None
    reason: str = ""
    k_theory_consequence: str | None = None

    def __post_init__(self):
        if self.verdict == CONDITIONAL and self.condition is None:
            raise ValueError("conditional verdicts must name their condition")

    @property
    def admissible(self) -> bool:
        return self.verdict in (VANISHES, CONDITIONAL)


def _k_consequence_p2(i: int) -> str:
    m8 = (2 * i - 2) % 8
    if m8 == 2:
        return ("the 2-part of K_{2i-2}(o_L) is (Z/2)^{r_1(L)} exactly when the "
                "positive-cohomology criterion holds (one tame prime +/-3 mod 8)")
    if m8 in (4, 6):
        return ("the 2-part of K_{2i-2}(o_L) vanishes exactly when the "
                "positive-cohomology criterion holds (one tame prime +/-3 mod 8)")
    return ("the 2-part of K_{2i-2}(o_L) vanishes exactly when the etale 2-part "
            "does (imaginary: one tame prime +/-3 mod 8; real cyclic: two tame "
            "primes with distinct nontrivial classes mod 8)")


@dataclass(frozen=True)
class _Case:
    """One decider at fixed (p, i, signature, assumptions): the radical
    on which a primitive tame set is accepted (None: no set is), the
    verdict and condition an accepted set gets, and the Decision text.
    reason is a template whose {tame} field takes the sorted tame set."""

    rad: KummerRadical | None
    consequence: str
    reason: str
    accepted: str = VANISHES
    condition: str | None = None

    def decision(self, tame: list[int], ok: bool) -> Decision:
        return Decision(verdict=self.accepted if ok else NONZERO,
                        condition=self.condition, reason=self.reason.format(tame=tame),
                        k_theory_consequence=self.consequence)


def _case(shape: ExtensionShape, i: int, assume_vandiver: bool = False,
          positive: bool = False) -> _Case:
    p = shape.p
    if p == 2:
        consequence = _k_consequence_p2(i)
        if positive:
            return _Case(radical(2, i, plus_variant=True), consequence,
                         "at most one tame prime, +/-3 mod 8, independent of twist "
                         "and signature; tame set {tame}")
        if shape.real_type == TOTALLY_IMAGINARY:
            return _Case(radical(2, i, plus_variant=True), consequence,
                         "imaginary: at most one tame prime, +/-3 mod 8, any twist; "
                         "tame set {tame}")
        if i % 2 == 0:
            return _Case(None, consequence,
                         "even twist needs a totally imaginary field (real place "
                         "forces a (Z/2)^r quotient)")
        reason = ("real, odd twist: at most two tame primes, none 1 mod 8, "
                  "distinct mod 8; tame set {tame}")
        if shape.cyclic:
            return _Case(radical(2, i), consequence, reason)
        # non-cyclic real 2-extensions carry the same criterion under (H_i)
        return _Case(radical(2, i), consequence,
                     f"{reason}; non-cyclic real shape needs {H_I}", CONDITIONAL, H_I)
    consequence = f"K_{{2i-2}}(o_L) tensor Z_{p} vanishes iff the etale {p}-part does"
    rad = radical(p, i)
    if i % (p - 1) == 0:
        # p-rational case: the radical is zeta_p
        return _Case(rad, consequence,
                     f"at most one tame prime with ell != 1 mod {p}**2 allowed; "
                     "tame set {tame}")
    if not rad.generators:
        # only the wild-only shapes (inside the cyclotomic Z_p-tower)
        # survive, and the base p-part must vanish
        base = ktable.h2_order_Z(i, assume_vandiver).h2_order.value
        return _Case(rad if base % p else None, consequence,
                     f"only ramification above {p} allowed and base order {base} "
                     f"must be prime to {p}; tame set {{tame}}")
    # odd twist: the cyclotomic-element radical (i != 1 mod p-1) rests
    # on Vandiver
    reason = ("at most one tame prime with nonzero Frobenius on the radical "
              "allowed; tame set {tame}")
    if not rad.conditional_on_vandiver:
        return _Case(rad, consequence, reason)
    if assume_vandiver:
        return _Case(rad, consequence, f"{reason} (granted: {VANDIVER})",
                     VANISHES, VANDIVER)
    return _Case(rad, consequence, f"{reason}; holds under {VANDIVER}",
                 CONDITIONAL, VANDIVER)


def vanishing_decision(shape: ExtensionShape, i: int,
                       assume_vandiver: bool = False) -> Decision:
    """Does the p-part of the tame kernel of o_L vanish for every
    p-extension L of Q with this ramification shape?"""
    return _decide(shape, i, assume_vandiver=assume_vandiver)


def positive_vanishing_decision(shape: ExtensionShape, i: int) -> Decision:
    """Vanishing of the positive (signature-refined) cohomology for a
    2-extension: independent of the twist and of the signature, it holds
    exactly for at most one tame prime +/-3 mod 8, that is, a primitive
    set on the totally positive radical <2>."""
    if shape.p != 2:
        raise ValueError("positive cohomology is a p = 2 notion")
    return _decide(shape, i, positive=True)


def _decide(shape: ExtensionShape, i: int, **options) -> Decision:
    # the one path of both deciders: the shape with no finite
    # ramification is refused before any radical or base order is read
    if i < 2:
        raise ValueError("twist i must be >= 2")
    tame = sorted(shape.ramified_tame)
    if not tame and not shape.wild:
        return Decision(
            verdict=UNSUPPORTED,
            reason="no finite ramification at all denotes the trivial extension",
        )
    case = _case(shape, i, **options)
    rad = case.rad
    ok = (rad is not None and len(tame) <= rad.dim
          and _rank(rad, tame).independent)
    return case.decision(tame, ok)


def enumerate_vanishing(shape_template: ExtensionShape, i: int, bound: int,
                        assume_vandiver: bool = False
                        ) -> Iterator[tuple[tuple[int, ...], Decision]]:
    """All tame sets of primes <= bound that the decider accepts
    (vanishes, or conditional which is tagged as such) for the
    template's p, signature and cyclicity.

    Yields (tame set, Decision) pairs sorted by set size then entries:
    the empty set, each candidate prime with a nonzero Frobenius vector
    on the case's radical and, where the radical has dimension 2 (the
    real p = 2 catalog at odd twists), each pair of such candidates with
    non-proportional vectors.  Each candidate's vector is computed once
    and a Decision is built only for a yielded set, so the cost is
    linear in the candidates plus the output (see BOUND_CAP), and the
    memory is that of the candidates alone.  Every check runs at the
    call, before the iterator is returned: raises ValueError when bound
    exceeds BOUND_CAP or when the case's base order is past ktable's cap.
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    if bound > BOUND_CAP:
        raise ValueError(f"bound = {bound} exceeds the enumeration cap {BOUND_CAP}")
    return _catalog(_case(shape_template, i, assume_vandiver), bound)


def _catalog(case: _Case, bound: int):
    rad = case.rad
    if rad is None:
        return
    p = rad.p
    yield (), case.decision([], True)
    if not rad.dim:
        return
    # one sieve of Eratosthenes; the candidates are the primes 1 mod p,
    # which for p = 2 are the odd primes
    flags = bytearray([1]) * (bound + 1)
    flags[:2] = b"\0\0"
    for q in range(2, isqrt(bound) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, bound + 1, q)))
    singles = []  # (ell, the zero pattern of its nonzero Frobenius vector)
    for ell in range(1, bound + 1, p):
        if flags[ell]:
            vector = _vector(rad, ell, index=False)
            if any(vector):
                singles.append((ell, vector))
                yield (ell,), case.decision([ell], True)
    # the catalog's radicals have dimension at most 2, so no larger set
    # is primitive, and dimension 2 occurs only at p = 2, where a zero
    # pattern is the vector and two nonzero vectors are independent
    # exactly when they differ
    if rad.dim == 2:
        for (a, vector_a), (b, vector_b) in combinations(singles, 2):
            if vector_a != vector_b:
                yield (a, b), case.decision([a, b], True)
