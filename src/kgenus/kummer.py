"""Kummer radicals over Q, Frobenius vectors and primitivity ranks.

The radical catalog lists generators of the mod-p Kummer dual of the
first etale cohomology of Z[1/p] twisted by i, as a subgroup of
E = Q(mu_p) modulo p-th powers.  Each tame prime ell (split in E once
ell = 1 mod p) gets a Frobenius vector over F_p, one coordinate per
generator, evaluated by congruences and power residue characters in
F_ell.  A set of tame primes is primitive when its vectors are linearly
independent; the rank is the quantity entering every genus exponent,
and primitivity is the criterion of every vanishing verdict (classify).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .exactnum import _least_primitive_root, _residue_index, is_prime

MINUS_ONE = "minus_one"
TWO = "two"
PRIME_P = "prime_p"
ZETA_P = "zeta_p"
CYCLOTOMIC_XI = "cyclotomic_xi"

# the assumption behind radicals flagged conditional_on_vandiver
VANDIVER = "vandiver"


@dataclass(frozen=True)
class RadicalGenerator:
    """One generator of a radical: -1, 2, p, zeta_p, or a cyclotomic
    element xi_j built from p-th roots of unity (kind 'cyclotomic_xi'
    with its exponent index j)."""

    kind: str
    j: int | None = None

    def __post_init__(self):
        if self.kind not in (MINUS_ONE, TWO, PRIME_P, ZETA_P, CYCLOTOMIC_XI):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if (self.kind == CYCLOTOMIC_XI) != (self.j is not None):
            raise ValueError("exactly the cyclotomic generators carry an index")
        if self.kind == CYCLOTOMIC_XI and self.j % 2 != 0:
            raise ValueError("cyclotomic index j = 1 - i must be even")

    def __str__(self):
        if self.kind == CYCLOTOMIC_XI:
            return f"xi_{self.j}"
        return {MINUS_ONE: "-1", TWO: "2", PRIME_P: "p", ZETA_P: "zeta_p"}[self.kind]


@dataclass(frozen=True)
class KummerRadical:
    p: int
    generators: tuple[RadicalGenerator, ...]
    conditional_on_vandiver: bool = False

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @classmethod
    def _at_tested_prime(cls, p: int, generators: tuple[RadicalGenerator, ...],
                         conditional_on_vandiver: bool = False) -> KummerRadical:
        # the radical that __init__ builds, for a p its caller has already
        # tested, without __post_init__ testing it again
        rad = object.__new__(cls)
        rad.__dict__.update(p=p, generators=generators,
                            conditional_on_vandiver=conditional_on_vandiver)
        return rad

    @property
    def dim(self) -> int:
        return len(self.generators)


def radical(p: int, i: int, plus_variant: bool = False) -> KummerRadical:
    """Radical generators over Q for the prime p at twist i >= 2.

    For p = 2 the catalog is <-1, 2> at odd twists (its totally positive
    part is <2>) and <2> at even twists.  For odd p the radical is
    one-dimensional, generated by p, by zeta_p or by a cyclotomic
    element depending on i mod (p - 1); at even twists away from
    0 mod (p - 1) it is trivial.  Entries whose derivation needs the
    vanishing of the p-part of the base cohomology are flagged
    conditional on Vandiver's conjecture.  plus_variant asks for the
    totally positive part, which only p = 2 has: at odd p it raises
    ValueError.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if i < 2:
        raise ValueError("twist i must be >= 2")
    if p == 2:
        if i % 2 == 1 and not plus_variant:
            gens = (RadicalGenerator(MINUS_ONE), RadicalGenerator(TWO))
        else:
            # -1 has a negative sign at the real place, so the totally
            # positive part drops it; at even twists the signature map is
            # trivial and the plus variant changes nothing
            gens = (RadicalGenerator(TWO),)
        return KummerRadical._at_tested_prime(2, gens)
    if plus_variant:
        raise ValueError("the totally positive radical is a p = 2 notion")
    if i % (p - 1) == 1:
        gens = (RadicalGenerator(PRIME_P),)
        conditional = False
    elif i % 2 == 1:
        gens = (RadicalGenerator(CYCLOTOMIC_XI, j=1 - i),)
        conditional = True
    elif i % (p - 1) == 0:
        gens = (RadicalGenerator(ZETA_P),)
        conditional = False
    else:
        gens = ()
        conditional = True
    return KummerRadical._at_tested_prime(p, gens, conditional)


def _xi_element(p: int, j: int, ell: int, zeta: int) -> int:
    # xi_j = prod over a in (Z/p)* of (zeta^a - 1)^(a^-j), evaluated in
    # F_ell at the element zeta of order p; lifting the exponent a^-j
    # mod p changes xi_j by p-th powers only
    x = 1
    for a in range(1, p):
        exponent = pow(a, (-j) % (p - 1), p)
        x = x * pow((pow(zeta, a, ell) - 1) % ell, exponent, ell) % ell
    return x


def _check_tame_prime(p: int, ell: int) -> None:
    if ell == 2 or ell == p:
        raise ValueError(f"{ell} is not a tame odd prime for p = {p}")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if p != 2 and ell % p != 1:
        raise ValueError(f"{ell} is not 1 mod {p}: Frobenius is undefined on the radical")


def frobenius_vector(rad: KummerRadical, ell: int) -> tuple[int, ...]:
    """Frobenius coordinates of the tame prime ell, one per generator.

    The coordinate of a generator a is the index c with
    sigma_ell(a^(1/p)) = zeta_p^c a^(1/p), zeta_p read off the smallest
    primitive root of ell: its p-th power residue character in F_ell.
    Exact congruences stand in for it for zeta_p (ell mod p**2) at every
    p, and for -1 and 2 (ell mod 4 and mod 8) only at p = 2.
    """
    _check_tame_prime(rad.p, ell)
    return _vector(rad, ell, index=True)


def _vector(rad: KummerRadical, ell: int, index: bool) -> tuple[int, ...]:
    """The coordinates of frobenius_vector at the validated tame prime
    ell (index=True), or only their zero pattern (index=False): 1 where
    the index is nonzero, 0 where it is 0.  The pattern reads a
    character coordinate by Euler's criterion, with xi_j evaluated at
    any zeta of order p: zeta^k turns xi_j into xi_j^(k^j), a p-th power
    exactly when xi_j is one."""
    p = rad.p
    e = (ell - 1) // p
    zeta = None
    components = []
    for gen in rad.generators:
        if gen.kind == ZETA_P:
            components.append(e % p)
        elif p == 2 and gen.kind == MINUS_ONE:
            components.append(1 if ell % 4 == 3 else 0)
        elif p == 2 and gen.kind == TWO:
            components.append(1 if ell % 8 in (3, 5) else 0)
        else:
            if zeta is None and (index or gen.kind == CYCLOTOMIC_XI):
                zeta = (pow(_least_primitive_root(ell), e, ell) if index
                        else next(z for g in count(2) if (z := pow(g, e, ell)) != 1))
            x = (_xi_element(p, gen.j, ell, zeta) if gen.kind == CYCLOTOMIC_XI
                 else {MINUS_ONE: -1, TWO: 2, PRIME_P: p}[gen.kind])
            components.append(_residue_index(x, ell, p, zeta) if index
                              else pow(x % ell, e, ell) != 1)
    return tuple(components) if index else tuple(1 if c else 0 for c in components)


@dataclass(frozen=True)
class PrimitivityReport:
    t: int
    independent: bool
    maximal_subset: frozenset[int]


def _independent_rows(rows, p: int) -> list[int]:
    """Indices, in order, of the rows independent over F_p of the rows
    before them, by Gaussian elimination; their number is the rank.  No
    row is read once as many rows are kept as a row has entries."""
    basis: list[tuple[int, list[int]]] = []  # (pivot, echelon row with 1 there)
    kept = []
    for k, row in enumerate(rows):
        vec = [x % p for x in row]
        for pivot, b in basis:
            c = vec[pivot]
            if c:
                vec = [(v - c * r) % p for v, r in zip(vec, b)]
        pivot = next((j for j, x in enumerate(vec) if x), None)
        if pivot is not None:
            inv = pow(vec[pivot], -1, p)
            basis.append((pivot, [v * inv % p for v in vec]))
            kept.append(k)
            if len(kept) == len(vec):
                break
    return kept


def primitivity_rank(rad: KummerRadical, primes) -> PrimitivityReport:
    """F_p-rank of the Frobenius vectors of the given tame primes.

    Returns the rank t, whether the whole set is primitive (t equals the
    number of primes), and the greedy maximal primitive subset taken in
    ascending prime order.  Every prime is validated, in ascending
    order, before any vector is read.
    """
    ells = sorted(set(primes))
    for ell in ells:
        _check_tame_prime(rad.p, ell)
    return _rank(rad, ells)


def _rank(rad: KummerRadical, ells: list[int]) -> PrimitivityReport:
    """primitivity_rank on the validated, distinct, ascending tame primes
    ells.  Vectors are read only until t reaches rad.dim, which fixes the
    greedy subset, and as zero patterns at p = 2 or dim <= 1, where they
    have the rank and greedy subset of the index vectors."""
    index = rad.p != 2 and rad.dim > 1
    return _rank_report(rad, ells, (_vector(rad, ell, index) for ell in ells))


def _rank_report(rad: KummerRadical, ells: list[int], vectors) -> PrimitivityReport:
    """The report on the distinct ascending primes ells, from their vectors."""
    kept = _independent_rows(vectors, rad.p)
    t = len(kept)
    return PrimitivityReport(t=t, independent=t == len(ells),
                             maximal_subset=frozenset(ells[k] for k in kept))
