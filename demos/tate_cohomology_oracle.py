"""Brute-force Tate cohomology against the local closed form.

A residual module at a tame prime is Z/(q**(i*f) - 1) with a cyclic
group of order e*f acting through multiplication by q**i.  The order of
H^0 predicted by the closed form is gcd(e, q**i - 1); here we enumerate
the module outright and compare, then watch the Herbrand quotient
h0/hm1 stay equal to 1 on assorted actions.
"""

from math import gcd

from kgenus import TateModule, residual_h0_closed_form, residual_module, tate_orders

print("closed form vs enumeration on residual modules")
print(f"{'q':>3} {'e':>3} {'f':>3} {'i':>3} {'|module|':>9} {'h0':>4} {'gcd':>4}")
for q in (3, 5, 7):
    for e in (2, 3, 4, 6):
        for f in (1, 2):
            for i in (1, 2, 3):
                module = residual_module(e, q, f, i)
                h0, hm1 = tate_orders(module)
                closed = residual_h0_closed_form(e, q, f, i)
                flag = "" if h0 == closed else "  <-- MISMATCH"
                print(f"{q:>3} {e:>3} {f:>3} {i:>3} {module.m:>9} "
                      f"{h0:>4} {closed:>4}{flag}")
                assert h0 == closed and h0 == hm1

print()
print("Herbrand quotient on a few hand-picked actions (always 1):")
for m, n, u in ((100, 20, 3), (81, 18, 8), (128, 4, 63), (625, 100, 7)):
    h0, hm1 = tate_orders(TateModule(m, n, u))
    print(f"  Z/{m}, C_{n} acting by {u}: h0 = {h0}, hm1 = {hm1}")
    assert h0 == hm1
