"""Brute-force Tate cohomology of cyclic groups on finite cyclic modules.

A TateModule is Z/m with a chosen generator of a cyclic group of order n
acting as multiplication by a unit u.  Modules are small enough to
enumerate outright (m <= 10**6), so the orders of H^0 and H^-1 are read
off four explicitly enumerated subgroups.  This is the oracle against
which the closed form gcd(e, q**i - 1) for the local genus contribution
is validated; above the cap the oracle refuses instead of falling back
to the formula it is meant to check.

The maps are multiplication by u - 1 and by the norm N, whose closed
form (u**n - 1)/(u - 1) costs one modular power whatever n is.  Each
is applied to all of Z/m in blocks of 2**16: a block gives its share
of the kernel count and marks its values in one boolean array of
length m, whose marks are the image.  Memory stays bounded: that array
(at most 1 MB) and block buffers, a 1.9 MB tracemalloc peak at the cap."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

MODULE_CAP = 10**6
_BLOCK = 2**16  # elements of Z/m mapped per numpy pass


@dataclass(frozen=True)
class TateModule:
    """Z/m with a cyclic group of order n acting through u (mod m)."""

    m: int
    n: int
    u: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("module and group orders must be >= 1")
        object.__setattr__(self, "u", self.u % self.m)
        if gcd(self.u, self.m) != 1:
            raise ValueError(f"u = {self.u} is not a unit mod {self.m}")
        if pow(self.u, self.n, self.m) != 1 % self.m:
            raise ValueError(f"u**n != 1 mod {self.m}: not a group action")

    @property
    def norm_multiplier(self) -> int:
        """N = 1 + u + ... + u**(n-1) mod m.  As (u - 1) * N = u**n - 1 over
        the integers, u**n - 1 mod m*(u - 1) is (u - 1) * (N mod m) for u >= 2,
        divided exactly; N = n * u mod m for u <= 1 (u = 0 only when m = 1)."""
        m, u = self.m, self.u
        if u <= 1:
            return self.n * u % m
        return (pow(u, self.n, m * (u - 1)) - 1) % (m * (u - 1)) // (u - 1)


def _kernel_and_image(mult: int, m: int) -> tuple[int, int]:
    # enumerate the multiplication-by-mult map on all of Z/m, _BLOCK
    # elements at a time; numpy is imported here so that importing kgenus
    # does not pay for it
    import numpy as np

    hit = np.zeros(m, dtype=bool)
    kernel = 0
    for start in range(0, m, _BLOCK):
        vals = np.arange(start, min(start + _BLOCK, m), dtype=np.int64)
        vals *= mult  # below m**2 <= 10**12, far inside int64
        # x mod m as x - (x // m) * m: numpy's floor division by a scalar
        # is several times faster than its remainder
        vals -= vals // m * m
        kernel += int(np.count_nonzero(vals == 0))
        hit[vals] = True
    return kernel, int(np.count_nonzero(hit))


def tate_orders(mod: TateModule) -> tuple[int, int]:
    """Orders (h0, hm1) of the Tate cohomology in degrees 0 and -1.

    h0 = |M^G / N.M| and hm1 = |ker N / (sigma - 1)M|, each quotient
    measured from explicit enumeration of the four subgroups.
    """
    m = mod.m
    if m > MODULE_CAP:
        raise ValueError(f"module of size {m} exceeds the enumeration cap {MODULE_CAP}")
    fixed, image_shift = _kernel_and_image((mod.u - 1) % m, m)
    kernel_norm, image_norm = _kernel_and_image(mod.norm_multiplier, m)
    # N.M lies in M^G and (sigma-1)M lies in ker N, so both ratios divide
    assert fixed % image_norm == 0 and kernel_norm % image_shift == 0
    return fixed // image_norm, kernel_norm // image_shift


def _check_residual_parameters(e: int, q: int, f: int, i: int) -> None:
    # a residue field has at least two elements; q = 1 would give the
    # zero module and gcd(e, 0) = e
    if q < 2:
        raise ValueError(f"residue cardinality q = {q} must be >= 2")
    if min(e, f, i) < 1:
        raise ValueError("e, f and i must be >= 1")


def residual_module(e: int, q: int, f: int, i: int) -> TateModule:
    """The residual module at a prime of ramification index e, residue
    cardinality q, residue degree f, at twist i: Z/(q**(i*f) - 1) with a
    cyclic group of order e*f whose generator acts by q**i.

    Inertia acts trivially; only the Frobenius image matters.  Raises
    ValueError when the module size exceeds MODULE_CAP, which tate_orders
    could not enumerate, before the size is computed.
    """
    _check_residual_parameters(e, q, f, i)
    # for q >= 2 an exponent past the cap's bit length exceeds the cap
    if i * f > MODULE_CAP.bit_length() or q ** (i * f) - 1 > MODULE_CAP:
        raise ValueError(f"module of size {q}**{i * f} - 1 exceeds the enumeration "
                         f"cap {MODULE_CAP}")
    m = q ** (i * f) - 1
    return TateModule(m=m, n=e * f, u=q**i % m)


def residual_h0_closed_form(e: int, q: int, f: int, i: int) -> int:
    """Closed-form order gcd(e, q**i - 1) of H^0 on the residual module."""
    _check_residual_parameters(e, q, f, i)
    return gcd(e, pow(q, i, e) - 1)
