"""Genus exponents, descent bounds and exact descent structure for
cyclic prime-degree extensions of Q.

The genus exponent is the exponent of p in the ratio of the order of
the coinvariant tame kernel of the top field to the order of the base
tame kernel.  Over Q it collapses to counting tame ramified primes
minus the rank of their Frobenius vectors on the appropriate radical,
with mod-8 corrections at p = 2 coming from the real place and the
comparison between K-theory and motivic cohomology.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ktable
from .exactnum import FactoredInteger
from .kummer import VANDIVER, _rank, radical
from .localdata import CyclicExtensionOfQ, local_invariants

# assumptions recorded by the p = 2 odd-twist reports (and, for H_I, by
# the vanishing decisions of non-cyclic real shapes)
H_I = "H_i"
UNRAMIFIED_AT_INFINITY = "unramified_at_infinity"


@dataclass(frozen=True)
class GenusReport:
    """Outcome of a genus computation for one extension shape and twist.

    The exponent is exact: every case the library evaluates either needs
    no hypothesis or is pinned by the recorded ones (listed under
    assumptions, never silently used).  t is the rank of the tame
    Frobenius vectors; r, s_i and norm_index follow from ext, i and t.
    """

    ext: CyclicExtensionOfQ
    i: int
    per_prime: tuple[tuple[int, tuple[int, int]], ...]  # ell -> (e_i, e_prime)
    t: int
    delta_variant_used: bool
    exponent: int
    assumptions: frozenset[str]

    @property
    def r(self) -> int:
        return self.ext.r

    @property
    def s_i(self) -> int:
        # signature corank over Q: -1 is a 2-unit with negative sign, so
        # s_i = 0 at odd twists; at even twists the map is trivial
        return 0 if self.i % 2 else self.ext.r

    @property
    def norm_index(self) -> int:
        return self.ext.p ** self.t


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Finite abelian group as an ascending divisibility chain of cyclic
    orders; the empty chain is the trivial group."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.cyclic_orders, self.cyclic_orders[1:]):
            if b % a != 0:
                raise ValueError("orders must form a divisibility chain")
        if any(n < 2 for n in self.cyclic_orders):
            raise ValueError("cyclic orders must be >= 2")


@dataclass(frozen=True)
class NotApplicable:
    reason: str


@dataclass(frozen=True)
class DescentBounds:
    """Lower bounds for the kernel and cokernel of the restriction map
    on tame kernels.  Each bound is a prime-power product over the
    maximal primitive tame set T, times a signed 2-power kept in its own
    exponent field; the *_lower values are clamped at 1 but the 2-power
    is never silently dropped."""

    coker_lower: FactoredInteger
    ker_lower: FactoredInteger
    T_used: frozenset[int]
    coker_two_exponent: int
    ker_two_exponent: int
    assumptions: frozenset[str]


def genus_exponent(ext: CyclicExtensionOfQ, i: int) -> GenusReport:
    """Exponent of p in |H2_M(o_L, Z(i))_G| / |H2_M(Z, Z(i))|.

    Odd p: #tame - t.  p = 2, even i: #tame - t - r.  p = 2, odd i:
    #tame - t unconditionally when infinity is unramified, and
    #tame + s_i - t_plus under hypothesis (H_i) otherwise, with t_plus
    the rank on the totally positive radical.  Over Q the signature
    corank s_i is 0 at odd twists (-1 is a 2-unit with negative sign),
    so that case is #tame - t_plus.  (H_i) is recorded as an assumption,
    never verified.
    """
    return _report(ext, i, k_theory=False)


def k_genus_ratio(ext: CyclicExtensionOfQ, i: int) -> GenusReport:
    """Exponent of p in |K_{2i-2}(o_L)_G| / |K_{2i-2}(Z)|.

    For odd p this is the genus exponent.  For p = 2 the motivic value
    is corrected by the comparison table on 2i-2 mod 8: untouched at
    2 mod 8, shifted by r at 6 mod 8, and expressed through the totally
    positive rank (under (H_i)) at odd twists, except that an odd twist
    with 2i-2 = 0 mod 8 and no real ramification stays unconditional.
    """
    return _report(ext, i, k_theory=True)


def _report(ext: CyclicExtensionOfQ, i: int, k_theory: bool) -> GenusReport:
    # The case table behind both public formulas: the exponent is
    # #tame - t - two_shift for the rank t on the chosen radical, and the
    # K-theory rows follow the mod-8 comparison with motivic cohomology
    # (Rognes-Weibel, JAMS 2000).
    p, r = ext.p, ext.r
    plus = False
    two_shift = 0
    if p != 2:
        rad = radical(p, i)
        assumptions = {VANDIVER} if rad.conditional_on_vandiver else set()
    elif i % 2 == 0:
        # motivic exponent #tame - t - r; K-theory agrees with it at
        # 2i-2 = 2 mod 8 and is shifted by +r at 6 mod 8 (i = 0 mod 4)
        rad = radical(2, i)
        two_shift = 0 if k_theory and i % 4 == 0 else r
        assumptions = set()
    else:
        # odd twist: the norm index has the 2-part of the totally positive
        # one under (H_i) when infinity ramifies, and the K norm index has
        # it at 2i-2 = 4 mod 8 (i = 3 mod 4) whatever r is
        plus = ext.infinity_ramified or (k_theory and i % 4 == 3)
        rad = radical(2, i, plus_variant=plus)
        assumptions = {H_I if plus else UNRAMIFIED_AT_INFINITY}
    t = _rank(rad, sorted(ext.tame_ramified)).t
    local = [local_invariants(ext, ell, i) for ell in ext.ramified_finite]
    return GenusReport(
        ext=ext, i=i, per_prime=tuple([(d.ell, (d.e_i, d.e_prime)) for d in local]),
        t=t, delta_variant_used=plus, exponent=len(ext.tame_ramified) - t - two_shift,
        assumptions=frozenset(assumptions),
    )


def descent_bounds(ext: CyclicExtensionOfQ, i: int) -> DescentBounds:
    """Lower bounds |coker f_i| >= prod_T e_v^(i-1) (times 2^(s_i - r)
    at odd twists) and |ker f_i| >= 2^(+/-r) prod_T e_v', where T is the
    maximal primitive subset of the tame ramified primes.  Over Q the
    signature corank s_i is 0 at odd twists, so the cokernel's 2-power
    there is 2^(-r)."""
    p = ext.p
    rad = radical(p, i)
    T = _rank(rad, sorted(ext.tame_ramified)).maximal_subset
    r = ext.r
    coker_two = -r if i % 2 else 0
    ker_two = -r if i % 2 else r
    # every tame factor, e_v' or gcd(p, ell**(i-1) - 1), is p, since ell = 1
    # mod p (ell is odd when p = 2); a 2-exponent is nonzero only when
    # infinity ramifies, forcing p = 2: each bound is p**e, clamped at e = 0
    coker_e, ker_e = len(T) + coker_two, len(T) + ker_two
    assumptions = frozenset({VANDIVER} if rad.conditional_on_vandiver else ())
    return DescentBounds(
        coker_lower=FactoredInteger(((p, coker_e),) if coker_e > 0 else ()),
        ker_lower=FactoredInteger(((p, ker_e),) if ker_e > 0 else ()),
        T_used=T,
        coker_two_exponent=coker_two,
        ker_two_exponent=ker_two,
        assumptions=assumptions,
    )


def exact_descent_structure(ext: CyclicExtensionOfQ, i: int,
                            assume_vandiver: bool = False):
    """Exact kernel/cokernel structure of the restriction map f_i when
    descent is fully controlled: both are the direct sum of Z/e_v' over
    the ramified finite primes.

    Applicable only when p does not divide the base order and the whole
    tame set is primitive; otherwise a NotApplicable naming the violated
    condition is returned.  Requires no real ramification.
    """
    if i < 2:
        raise ValueError("twist i must be >= 2")
    if ext.infinity_ramified:
        raise ValueError("exact descent structure needs infinity unramified")
    p = ext.p
    base = ktable.h2_order_Z(i, assume_vandiver)
    if base.conditional_on_vandiver and p != 2:
        return NotApplicable(
            "odd part of the base order is conjectural at odd twists; "
            "pass assume_vandiver to proceed"
        )
    if base.h2_order.value % p == 0:
        return NotApplicable(f"{p} divides the base order {base.h2_order.value}")
    report = _rank(radical(p, i), sorted(ext.tame_ramified))
    if not report.independent:
        return NotApplicable(
            f"tame set is not primitive (rank {report.t} of {len(ext.tame_ramified)})"
        )
    # e_v' is p at each tame prime and 1 at the wild one
    return AbelianGroupStructure(cyclic_orders=(p,) * len(ext.tame_ramified))
