"""Fundamental units, 2-unit signatures and 2-regularity.

One walk of the continued fraction of the ring generator produces the
fundamental unit and a generator of the prime above 2; the 2-units
modulo squares are generated by -1, that unit and a generator of each
prime above 2.  The sign matrix of those generators at the two
real embeddings decides the signature corank delta, and d is 2-regular
when 2 does not split and the narrow class number is odd.

Q(sqrt(151)) has a 10-digit unit and 41571+3383*sqrt(151) above 2,
so its signature matrix needs generators far past any small box.
Every column is a field of quad_field_data's one report per field.
Q(sqrt(3)) is printed last from the same report, row by row: the
exact matrix has full rank (delta 0), and its signature_note flags
that a quoted value of delta = 1 for this field disagrees with the
computation.
"""

from kgenus import quadforms as qf

print(f"{'d':>4} {'h+':>4} {'h':>3} {'unit':>30} {'N':>3} "
      f"{'dyadic':>9} {'delta':>5} {'2-regular':>9}")
for d in (2, 3, 5, 6, 7, 10, 11, 13, 14, 17, 19, 21, 29, 33, 151):
    data = qf.quad_field_data(d)
    unit = str(data.fundamental_unit).replace("sqrt(d)", f"sqrt({d})")
    delta = "-" if data.delta is None else data.delta
    print(f"{d:>4} {data.h_plus:>4} {data.h:>3} {unit:>30} {data.unit_norm:>3} "
          f"{data.dyadic_type:>9} {delta:>5} {str(data.two_regular):>9}")

print()
data = qf.quad_field_data(3)
print("Q(sqrt(3)) in detail:")
for gen, row in zip(data.two_unit_generators, data.signature_matrix):
    print(f"  generator {str(gen).replace('sqrt(d)', 'sqrt(3)'):>14} "
          f"-> signs {row}")
# two columns, one per real embedding: the rank is 2 - delta
print(f"  rank {2 - data.delta}, delta {data.delta}")
print(f"  note: {data.signature_note}")
