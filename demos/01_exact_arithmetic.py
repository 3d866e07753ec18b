"""Tour of the exact quadratic number type.

Every quantity in this library lives in a single field Q(sqrt(d)); this
script shows construction, the normal form, comparisons, and the text
round trip used by the CSV outputs.
"""

from fractions import Fraction

from ietlab import format_quad, parse_quad, quad, quad_approx, quad_floor, quad_sign, radical

r2 = radical(2)
x = r2 - 1
print("x = sqrt(2) - 1 =", x, "~", quad_approx(x, 15))

print("\nField arithmetic stays exact:")
print("  x * (1/x)     =", x * (1 / x))
print("  x + (2 - r2)  =", x + (2 - r2))
print("  x * x         =", x * x, "(= 3 - 2 sqrt(2))")

print("\nRadicands are normalized square-free:")
y = quad(Fraction(1, 2), Fraction(1, 3), 8)
print("  1/2 + 1/3 sqrt(8) ->", repr(y))

print("\nDecisions are exact (sign, floor, order):")
close_call = r2 - Fraction(141421356237309505, 10**17)
print("  sign(r2 - 1.41421356237309505) =", quad_sign(close_call))
print("  floor(100 r2) =", quad_floor(100 * r2))
print("  r2 - 1 < 1/2:", x < Fraction(1, 2))

print("\nText forms round-trip losslessly:")
text = format_quad(x)
print("  format:", text, "-> parse:", parse_quad(text, 2) == x)
print("  decimal rendering rounds correctly:", quad_approx(quad(Fraction(3, 8)), 2))
