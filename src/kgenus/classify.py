"""Vanishing deciders for the p-part of the tame kernel along
p-extensions of Q, and enumeration of the admissible ramified sets.

Every decision is a pure congruence or character condition on the tame
ramified primes: at most one tame prime with a nonzero Frobenius
coordinate for odd p, at most one prime +/-3 mod 8 for imaginary
2-extensions, and at most two primes with distinct nontrivial classes
mod 8 for real cyclic 2-extensions at odd twists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import ktable
from .exactnum import is_prime
from .genus import H_I
from .kummer import VANDIVER, frobenius_vector, radical
from .localdata import _check_tame

TOTALLY_REAL = "totally_real"
TOTALLY_IMAGINARY = "totally_imaginary"
NOT_APPLICABLE = "not_applicable"

VANISHES = "vanishes"
NONZERO = "nonzero"
CONDITIONAL = "conditional"
UNSUPPORTED = "unsupported"

# enumerate_vanishing decides the empty set, each candidate prime and,
# for the real p = 2 catalog at odd twists only, each pair of admissible
# candidates.  At the cap every other catalog takes milliseconds; the
# real p = 2 odd-twist catalog is quadratic in its output, about 30 s
# for about 970k sets (2-core x86-64 host).  Larger bounds are refused.
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


def _max_tame(p: int, i: int, real_type: str) -> int:
    """The largest tame set any decider accepts at (p, i, real_type).

    Odd p: 1 when i = 0 mod (p-1) (the p-rational case) and at odd
    twists (one prime with nonzero Frobenius coordinate); 0 at the
    remaining even twists, whose radical is trivial.  p = 2: 1 for
    imaginary shapes, 2 for real shapes at odd twists, and 0 for real
    shapes at even twists, where not even the empty set is accepted.
    """
    if p != 2:
        return 1 if i % (p - 1) == 0 or i % 2 else 0
    if real_type == TOTALLY_IMAGINARY:
        return 1
    return 2 if i % 2 else 0


def _decide_odd_p(shape: ExtensionShape, i: int, assume_vandiver: bool) -> Decision:
    p = shape.p
    tame = sorted(shape.ramified_tame)
    small = len(tame) <= _max_tame(p, i, shape.real_type)
    consequence = f"K_{{2i-2}}(o_L) tensor Z_{p} vanishes iff the etale {p}-part does"
    if i % (p - 1) == 0:
        # p-rational case: one tame prime, not 1 mod p**2
        ok = small and all(ell % p**2 != 1 for ell in tame)
        return Decision(
            verdict=VANISHES if ok else NONZERO,
            reason=(f"at most one tame prime with ell != 1 mod {p}**2 allowed; "
                    f"tame set {tame}"),
            k_theory_consequence=consequence,
        )
    if i % 2 == 0:
        # trivial radical: only the wild-only shapes (inside the
        # cyclotomic Z_p-tower) survive, and the base p-part must vanish
        base = ktable.h2_order_Z(i, assume_vandiver)
        ok = small and base.h2_order.value % p != 0
        return Decision(
            verdict=VANISHES if ok else NONZERO,
            reason=(f"only ramification above {p} allowed and base order "
                    f"{base.h2_order.value} must be prime to {p}; tame set {tame}"),
            k_theory_consequence=consequence,
        )
    # odd twist: one tame prime with nonzero Frobenius coordinate; the
    # cyclotomic-element radical (i != 1 mod p-1) rests on Vandiver
    rad = radical(p, i)
    ok = small and all(
        any(frobenius_vector(rad, ell).components) for ell in tame
    )
    reason = (f"at most one tame prime with nonzero Frobenius on the radical "
              f"allowed; tame set {tame}")
    if not rad.conditional_on_vandiver:
        return Decision(verdict=VANISHES if ok else NONZERO, reason=reason,
                        k_theory_consequence=consequence)
    if assume_vandiver:
        return Decision(
            verdict=VANISHES if ok else NONZERO,
            condition=VANDIVER,
            reason=reason + f" (granted: {VANDIVER})",
            k_theory_consequence=consequence,
        )
    return Decision(
        verdict=CONDITIONAL if ok else NONZERO,
        condition=VANDIVER,
        reason=reason + f"; holds under {VANDIVER}",
        k_theory_consequence=consequence,
    )


def _decide_p2(shape: ExtensionShape, i: int) -> Decision:
    tame = sorted(shape.ramified_tame)
    small = len(tame) <= _max_tame(2, i, shape.real_type)
    consequence = _k_consequence_p2(i)
    if shape.real_type == TOTALLY_IMAGINARY:
        ok = small and all(ell % 8 in (3, 5) for ell in tame)
        return Decision(
            verdict=VANISHES if ok else NONZERO,
            reason=(f"imaginary: at most one tame prime, +/-3 mod 8, any twist; "
                    f"tame set {tame}"),
            k_theory_consequence=consequence,
        )
    if i % 2 == 0:
        return Decision(
            verdict=NONZERO,
            reason="even twist needs a totally imaginary field (real place "
                   "forces a (Z/2)^r quotient)",
            k_theory_consequence=consequence,
        )
    ok = (
        small
        and all(ell % 8 != 1 for ell in tame)
        and all(a % 8 != b % 8 for a, b in combinations(tame, 2))
    )
    reason = (f"real, odd twist: at most two tame primes, none 1 mod 8, "
              f"distinct mod 8; tame set {tame}")
    if shape.cyclic:
        return Decision(verdict=VANISHES if ok else NONZERO, reason=reason,
                        k_theory_consequence=consequence)
    # non-cyclic real 2-extensions carry the same criterion under (H_i)
    return Decision(
        verdict=CONDITIONAL if ok else NONZERO,
        condition=H_I,
        reason=reason + f"; non-cyclic real shape needs {H_I}",
        k_theory_consequence=consequence,
    )


def vanishing_decision(shape: ExtensionShape, i: int,
                       assume_vandiver: bool = False) -> Decision:
    """Does the p-part of the tame kernel of o_L vanish for every
    p-extension L of Q with this ramification shape?"""
    if i < 2:
        raise ValueError("twist i must be >= 2")
    if not shape.ramified_tame and not shape.wild:
        return Decision(
            verdict=UNSUPPORTED,
            reason="no finite ramification at all denotes the trivial extension",
        )
    if shape.p == 2:
        return _decide_p2(shape, i)
    return _decide_odd_p(shape, i, assume_vandiver)


def positive_vanishing_decision(shape: ExtensionShape, i: int) -> Decision:
    """Vanishing of the positive (signature-refined) cohomology for a
    2-extension: independent of the twist and of the signature, it holds
    exactly for at most one tame prime +/-3 mod 8."""
    if shape.p != 2:
        raise ValueError("positive cohomology is a p = 2 notion")
    if i < 2:
        raise ValueError("twist i must be >= 2")
    tame = sorted(shape.ramified_tame)
    ok = len(tame) <= 1 and all(ell % 8 in (3, 5) for ell in tame)
    return Decision(
        verdict=VANISHES if ok else NONZERO,
        reason=(f"at most one tame prime, +/-3 mod 8, independent of twist and "
                f"signature; tame set {tame}"),
        k_theory_consequence=_k_consequence_p2(i),
    )


def enumerate_vanishing(p: int, i: int, shape_template: ExtensionShape,
                        bound: int, assume_vandiver: bool = False):
    """All tame sets of primes <= bound that the decider accepts for the
    template shape (vanishes, or conditional which is tagged as such).

    Returns (tame set, Decision) pairs sorted by set size then entries.
    Subsets of admissible sets are admissible, so the sets are grown:
    the empty set first, then each candidate prime, then (only where
    _max_tame allows two primes, the real p = 2 catalog at odd twists)
    each pair of admissible candidates.  The cost is linear in the
    candidates except for that catalog, which is quadratic in its
    output: about 30 s for about 970k sets at BOUND_CAP (2-core x86-64
    host).  Raises ValueError when bound exceeds BOUND_CAP.
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    if bound > BOUND_CAP:
        raise ValueError(f"bound = {bound} exceeds the enumeration cap {BOUND_CAP}")
    if shape_template.p != p:
        raise ValueError("template degree differs from p")

    def decide(tame):
        shape = ExtensionShape(
            p=p, ramified_tame=frozenset(tame), wild=True,
            real_type=shape_template.real_type, cyclic=shape_template.cyclic,
        )
        return vanishing_decision(shape, i, assume_vandiver)

    empty = decide(())
    if not empty.admissible:
        return []
    results = [((), empty)]
    max_tame = _max_tame(p, i, shape_template.real_type)
    if max_tame < 1:
        return results
    if p == 2:
        candidates = [ell for ell in range(3, bound + 1, 2) if is_prime(ell)]
    else:
        candidates = [ell for ell in range(2, bound + 1)
                      if ell != p and ell % p == 1 and is_prime(ell)]
    singles = []
    for ell in candidates:
        decision = decide((ell,))
        if decision.admissible:
            singles.append(ell)
            results.append(((ell,), decision))
    if max_tame >= 2:
        for pair in combinations(singles, 2):
            decision = decide(pair)
            if decision.admissible:
                results.append((pair, decision))
    return results
