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
map x -> k*x is enumerated over all of Z/m in strided runs.  For a
stride s with delta = k*s mod m, the class x = r + s*t (t = 0, 1, ...)
maps to k*r + delta*t, an arithmetic progression mod m.  Every run
rises: a class with 2*delta > m is read from its last element, where it
rises by m - delta.  Cut where it wraps past m, each run is written as
one ascending extended-slice store into a bytearray of length m whose
marks are the image.  A run meets 0 only at its first element, which is
how the kernel is counted, and a class with delta = 0 is constant.  The
stride is the continued-fraction denominator of k/m up to
2*isqrt(m) + 1 with the fewest runs, s + min(delta, m - delta), which
is at most 2*isqrt(m) by Dirichlet's approximation theorem whatever k
is.

This is still a literal enumeration: every x in Z/m lies in exactly one
run and has its image written and checked for 0.  No gcd, order or
isomorphism theorem is used to read a kernel or image size, and h0 and
hm1 still come from the four subgroups so enumerated.  Memory stays
bounded: the image marks and one run of ones, at most 1 MB each, a
tracemalloc peak of at most 2.4 MB at the cap."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

MODULE_CAP = 10**6


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


def _stride(k: int, m: int) -> tuple[int, int]:
    """The denominator s <= 2*isqrt(m) + 1 of a continued-fraction
    convergent of k/m (0 <= k < m) with the fewest runs s + min(delta,
    m - delta), and its delta = k*s mod m.  The last convergent c/q with
    q <= isqrt(m) has m*|q*k/m - c| < m/(isqrt(m) + 1), so the fewest is
    at most 2*isqrt(m)."""
    limit = 2 * isqrt(m) + 1
    best = (m + 1, 1, 0)  # (runs, s, delta)
    q_prev, q, num, den = 0, 1, m, k  # k/m = 0 + 1/(m/k)
    while q <= limit:
        delta = k * q % m
        best = min(best, (q + min(delta, m - delta), q, delta))
        if den == 0:
            break
        a, (num, den) = num // den, (den, num % den)
        q_prev, q = q, a * q + q_prev
    return best[1:]


def _kernel_and_image(k: int, m: int) -> tuple[int, int]:
    # enumerate x -> k*x on all of Z/m, one class x = r + s*t at a time;
    # the values rise by delta per element until they wrap past m, or by
    # m - delta from the class's last element down when 2*delta > m
    s, delta = _stride(k, m)
    hit = bytearray(m)
    kernel = 0
    if delta == 0:  # each class is constant
        for r in range(s):
            y = k * r % m
            hit[y] = 1
            if y == 0:
                kernel += (m - 1 - r) // s + 1
        return kernel, m - hit.count(0)
    backward = 2 * delta > m
    step = m - delta if backward else delta
    ones = bytearray(b"\x01") * ((m - 1) // s + 1)  # the longest class
    for r in range(s):
        left = (m - 1 - r) // s + 1
        y = k * (r + s * (left - 1) if backward else r) % m
        while left:
            n = min(left, (m - 1 - y) // step + 1)
            hit[y:y + step * n:step] = ones[:n]
            kernel += y == 0
            y += step * n - m
            left -= n
    return kernel, m - hit.count(0)


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
