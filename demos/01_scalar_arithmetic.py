"""Tour of the truncated Witt ring, the coefficient ring of the oracle.

Every group is a module over the Galois ring (Z/2^K)[w]/(w^2+w+1), a
truncation of the Witt vectors of F4.  The pipeline itself computes with
2-exponents only; Smith normal form, the test oracle, computes with these
elements.  This script walks through the basic structure.
"""

from hfpss.scalars import Witt

print("== W/8 = (Z/8)[w]/(w^2+w+1), the default K = 3 truncation ==")
a = Witt(2, 1, 3)
b = Witt(1, 1, 3)
print(f"(2+w) * 2     = {(a * Witt(2, 0, 3)).render()}")
print(f"(1+w)^2       = {(b * b).render()}   (w^2 = -1-w over Z/8)")
print(f"val(4+4w)     = {Witt(4, 4, 3).val()}  (2-adic valuation)")
print(f"unit part     = {Witt(4, 4, 3).unit_part().render()}")

u = Witt(3, 2, 3)
print(f"(3+2w)^-1     = {u.inv().render()},  check: {(u * u.inv()).render()}")
