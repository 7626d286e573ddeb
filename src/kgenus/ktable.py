"""Orders of the base cohomology over Z and of the even K-groups of Z.

At an even twist i = 2k the order of the degree-two motivic cohomology
of Z is 2*c_k where c_k is the numerator of |B_{2k}|/4k (the Bernoulli
index 2k, not k: the i = 12 group of order 2*691 pins the convention).
At odd twists the order is 1, unconditionally in its 2-part and
conditionally on Vandiver's conjecture in its odd part.  K-group orders
follow by the mod-8 comparison table with one real place.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import FactoredInteger, bernoulli

# base_table(100) takes about 2 s (2-core x86-64 host), nearly all in
# the trial division to 10**6 of the 32 numerators left with a cofactor
# of 2**64 or more by the primes below 2**10; larger tables are refused.
# h2_order_Z refuses even twists above the same cap, which bounds the
# factoring: the Bernoulli number itself takes about 75 ms at i = 1000.
MAX_I_CAP = 100


@dataclass(frozen=True)
class BaseOrder:
    i: int
    h2_order: FactoredInteger
    k_order: FactoredInteger
    conditional_on_vandiver: bool


def bernoulli_numerator(k: int) -> int:
    """c_k = numerator of |B_{2k}| / (4k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return abs(Fraction(bernoulli(2 * k), 4 * k).numerator)


def h2_order_Z(i: int, assume_vandiver: bool = False) -> BaseOrder:
    """Orders of the degree-two motivic cohomology of Z and of
    K_{2i-2}(Z) at twist i >= 2, the latter read off the former.

    Even i = 2k: |H^2| is exactly 2*c_k.  Odd i: 1, with the odd part
    resting on Vandiver's conjecture; the result is returned with its
    conditional marking rather than as a bare value unless the caller
    assumes the conjecture.  Raises ValueError for an even i above
    MAX_I_CAP.
    """
    if i < 2:
        raise ValueError("twist i must be >= 2")
    if i % 2 == 0 and i > MAX_I_CAP:
        raise ValueError(f"even twist i = {i} exceeds the base-order cap {MAX_I_CAP}")
    if i % 2 == 0:
        h2 = FactoredInteger.from_int(2 * bernoulli_numerator(i // 2))
        conditional = False
    else:
        h2 = FactoredInteger(())
        conditional = not assume_vandiver
    return BaseOrder(i=i, h2_order=h2, k_order=_k_from_h2(i, h2),
                     conditional_on_vandiver=conditional)


def _k_from_h2(i: int, h2: FactoredInteger) -> FactoredInteger:
    if (2 * i - 2) % 8 != 6:
        # m8 == 2 or 0: isomorphism; m8 == 4: the signature-corank power
        # 2**delta_i is trivial over Q
        return h2
    # the comparison map is injective with cokernel Z/2 over Z: one factor
    # 2 fewer (h2 = 2*c_k is even here), read off the factored form
    factors = tuple((p, e - 1) if p == 2 else (p, e) for p, e in h2.factors)
    return FactoredInteger(tuple(f for f in factors if f[1]), h2.sign, h2.cofactor)


def base_table(max_i: int, assume_vandiver: bool = False) -> list[BaseOrder]:
    """Rows (i, |H^2|, |K_{2i-2}|, conditional flag) for 2 <= i <= max_i.
    Raises ValueError when max_i exceeds MAX_I_CAP."""
    if max_i < 2:
        raise ValueError("max_i must be >= 2")
    if max_i > MAX_I_CAP:
        raise ValueError(f"max_i = {max_i} exceeds the table cap {MAX_I_CAP}")
    return [h2_order_Z(i, assume_vandiver) for i in range(2, max_i + 1)]
