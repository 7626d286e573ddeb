"""Kummer radicals over Q, Frobenius vectors and primitivity ranks.

The radical catalog lists generators of the mod-p Kummer dual of the
first etale cohomology of Z[1/p] twisted by i, as a subgroup of
E = Q(mu_p) modulo p-th powers.  Each tame prime ell (split in E once
ell = 1 mod p) gets a Frobenius vector over F_p, one coordinate per
generator, evaluated by congruences and power residue characters in
F_ell.  A set of tame primes is primitive when its vectors are linearly
independent; the rank is the quantity entering every genus exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import is_prime, power_residue_character, primitive_root

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
    i: int
    generators: tuple[RadicalGenerator, ...]
    plus_variant: bool = False
    conditional_on_vandiver: bool = False

    @property
    def dim(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class FrobeniusVector:
    ell: int
    components: tuple[int, ...]


def radical(p: int, i: int, plus_variant: bool = False) -> KummerRadical:
    """Radical generators over Q for the prime p at twist i >= 2.

    For p = 2 the catalog is <-1, 2> at odd twists (its totally positive
    part is <2>) and <2> at even twists.  For odd p the radical is
    one-dimensional, generated by p, by zeta_p or by a cyclotomic
    element depending on i mod (p - 1); at even twists away from
    0 mod (p - 1) it is trivial.  Entries whose derivation needs the
    vanishing of the p-part of the base cohomology are flagged
    conditional on Vandiver's conjecture.
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
        return KummerRadical(p=2, i=i, generators=gens, plus_variant=plus_variant)
    if i % (p - 1) == 1 % (p - 1):
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
    return KummerRadical(p=p, i=i, generators=gens, plus_variant=plus_variant,
                         conditional_on_vandiver=conditional)


def _xi_component(p: int, j: int, ell: int, root: int) -> int:
    # xi_j = prod over a in (Z/p)* of (zeta^a - 1)^(a^-j), evaluated in
    # F_ell at zeta = root^((ell-1)/p); lifting the exponent a^-j mod p
    # changes xi_j by p-th powers only
    zeta = pow(root, (ell - 1) // p, ell)
    x = 1
    for a in range(1, p):
        exponent = pow(a, (-j) % (p - 1), p)
        x = x * pow((pow(zeta, a, ell) - 1) % ell, exponent, ell) % ell
    return power_residue_character(x, ell, p, root=root)


def _check_tame_prime(p: int, ell: int) -> None:
    if ell == 2 or ell == p:
        raise ValueError(f"{ell} is not a tame odd prime for p = {p}")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if p != 2 and ell % p != 1:
        raise ValueError(f"{ell} is not 1 mod {p}: Frobenius is undefined on the radical")


def frobenius_vector(rad: KummerRadical, ell: int, root: int | None = None) -> FrobeniusVector:
    """Frobenius coordinates of the tame prime ell, one per generator.

    The coordinate of a generator a is the index c with
    sigma_ell(a^(1/p)) = zeta_p^c a^(1/p); for -1 and 2 this reduces to
    the classical mod 4 / mod 8 congruences, for zeta_p to ell mod p**2.
    """
    p = rad.p
    _check_tame_prime(p, ell)
    components = []
    r = None
    for gen in rad.generators:
        if gen.kind == MINUS_ONE:
            components.append(1 if ell % 4 == 3 else 0)
        elif gen.kind == TWO:
            components.append(1 if ell % 8 in (3, 5) else 0)
        elif gen.kind == ZETA_P:
            # nontrivial exactly when ell != 1 mod p**2
            components.append(((ell - 1) // p) % p)
        else:
            if r is None:
                r = primitive_root(ell) if root is None else root
            if gen.kind == PRIME_P:
                components.append(power_residue_character(p, ell, p, root=r))
            else:
                components.append(_xi_component(p, gen.j, ell, r))
    return FrobeniusVector(ell=ell, components=tuple(components))


@dataclass(frozen=True)
class PrimitivityReport:
    t: int
    independent: bool
    maximal_subset: frozenset[int]


def _independent_rows(rows, p: int, stop: int | None = None) -> list[int]:
    """Indices, in order, of the rows independent over F_p of the rows
    before them, by Gaussian elimination; their number is the rank.
    With `stop`, no row is read after the stop-th independent one."""
    basis: list[list[int]] = []  # echelon rows, leading coefficient 1
    kept = []
    for k, row in enumerate(rows):
        vec = [x % p for x in row]
        for b in basis:
            pivot = next(j for j, x in enumerate(b) if x)
            if vec[pivot]:
                c = vec[pivot]
                vec = [(v - c * r) % p for v, r in zip(vec, b)]
        if any(vec):
            inv = pow(next(x for x in vec if x), -1, p)
            basis.append([v * inv % p for v in vec])
            kept.append(k)
            if len(kept) == stop:
                break
    return kept


def primitivity_rank(rad: KummerRadical, primes) -> PrimitivityReport:
    """F_p-rank of the Frobenius vectors of the given tame primes.

    Returns the rank t, whether the whole set is primitive (t equals the
    number of primes), and the greedy maximal primitive subset taken in
    ascending prime order.  Vectors are computed only until t reaches
    rad.dim, which fixes that subset; every prime is validated.
    """
    ells = sorted(set(primes))
    unread = iter(ells)
    kept = _independent_rows(
        (frobenius_vector(rad, ell).components for ell in unread), rad.p, stop=rad.dim)
    for ell in unread:  # past full rank: validated, no vector needed
        _check_tame_prime(rad.p, ell)
    t = len(kept)
    return PrimitivityReport(t=t, independent=t == len(ells),
                             maximal_subset=frozenset(ells[k] for k in kept))
