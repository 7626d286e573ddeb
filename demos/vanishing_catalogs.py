"""Catalogs of ramification shapes with vanishing tame kernel p-parts.

Three sweeps: imaginary 2-extensions (one tame prime +/-3 mod 8, any
twist), degree-3 shapes at an even twist (one tame prime not 1 mod 9),
and totally real cyclic 2-extensions at odd twists (up to two tame
primes, distinct nontrivial classes mod 8).
"""

from kgenus import classify as cl
from kgenus import enumerate_vanishing


def show(title, i, template, bound):
    pairs = enumerate_vanishing(template, i, bound)
    print(f"{title} (primes up to {bound})")
    for tame, decision in pairs:
        label = ",".join(str(x) for x in tame) or "(only p and infinity)"
        tag = f"  [{decision.condition}]" if decision.verdict == cl.CONDITIONAL else ""
        print(f"  {{{label}}}{tag}")
    print()


show("imaginary 2-extensions, i = 4", 4,
     cl.ExtensionShape(2, frozenset(), True, cl.TOTALLY_IMAGINARY), 50)

show("3-extensions, i = 2", 2,
     cl.ExtensionShape(3, frozenset(), True), 20)

show("totally real cyclic 2-extensions, i = 3", 3,
     cl.ExtensionShape(2, frozenset(), True, cl.TOTALLY_REAL), 24)

show("5-extensions, i = 3 (conditional entries tagged)", 3,
     cl.ExtensionShape(5, frozenset(), True), 60)
