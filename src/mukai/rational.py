"""Exact rational scalars, vectors and matrices, and their integer forms.

Everything in the package computes over ``fractions.Fraction``; floats are
never accepted, so a binary-float rounding artifact can never masquerade as
an intersection number.  `as_fraction`, `as_vector` and `as_matrix` are the
one coercion of user input; `parse_rational` reads the strings documents
hold.

The arithmetic runs on integers.  `over_common_denominator` and
`rows_over_common_denominator` write exact values as integer numerators
over one least common denominator, and `integer_product` multiplies
integer matrices.  `dot` is the one exact sum of products: every Poincare
pairing of H^2 coordinates against H^4 functionals goes through it.  It
sums in `int` and makes one `Fraction`, numerator over the product of the
denominators.  `Fraction(n, d)` reduces that to lowest terms, so the
result equals the `Fraction` sum exactly.

The library prints its `Fraction`s with `str`; `format_fraction` is the
same for any value `as_fraction` accepts.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import mul

Rational = int | Fraction | str

# Longest numerator or denominator a string may spell out, and longest
# integer a document may hold: a bound on the work one input can ask for,
# far above any intersection number.
MAX_DIGITS = 1000
INT_BOUND = 10**MAX_DIGITS
_RATIONAL = re.compile(rf"[+-]?[0-9]{{1,{MAX_DIGITS}}}(?:/[0-9]{{1,{MAX_DIGITS}}})?")

__all__ = [
    "Rational",
    "as_fraction",
    "parse_rational",
    "as_vector",
    "as_matrix",
    "format_fraction",
    "identity_matrix",
]


def parse_rational(text: str) -> Fraction:
    """Read an integer or ``"p/q"`` string exactly, and nothing else.

    Decimals, exponents, spaces and more than `MAX_DIGITS` digits in the
    numerator or denominator raise ValueError; a zero denominator raises
    ZeroDivisionError.
    """
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"expected an integer or 'p/q' string, got {text!r}")
    return Fraction(text)


def as_fraction(value: Rational) -> Fraction:
    """Coerce an int, Fraction or ``"p/q"`` string to an exact Fraction.

    Floats are rejected on purpose: intersection numbers must stay exact.
    """
    if isinstance(value, bool):
        raise TypeError(f"expected a rational number, got bool {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected int, Fraction or 'p/q' string, got {type(value).__name__}")


def as_vector(values) -> tuple[Fraction, ...]:
    """Coerce a sequence of values `as_fraction` accepts to a tuple of Fractions.

    A bare string or bytes value is refused, not read as a sequence of digits.
    """
    if isinstance(values, (str, bytes, bytearray)):
        raise TypeError(f"expected a sequence of rationals, got {type(values).__name__} {values!r}")
    # A Fraction is kept as it is, without the call that would return it unchanged.
    return tuple(v if type(v) is Fraction else as_fraction(v) for v in values)


def as_matrix(rows) -> tuple[tuple[Fraction, ...], ...]:
    matrix = tuple(as_vector(row) for row in rows)
    if matrix and any(len(row) != len(matrix[0]) for row in matrix):
        raise ValueError("ragged matrix")
    return matrix


def format_fraction(value: Fraction) -> str:
    """Render ``p/q`` with the slash omitted for integers, as `Fraction.__str__` does."""
    return str(as_fraction(value))


def identity_matrix(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def over_common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of exact values over their least common denominator."""
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def rows_over_common_denominator(matrix) -> tuple[list[list[int]], int]:
    """Integer rows of an exact matrix over the least common denominator of all its entries."""
    flat, den = over_common_denominator([x for row in matrix for x in row])
    n = len(matrix[0]) if matrix else 0
    return [flat[i * n:(i + 1) * n] for i in range(len(matrix))], den


def integer_product(a, b) -> list[list[int]]:
    """The product of two integer matrices."""
    columns = list(zip(*b))
    return [[sum(map(mul, row, column)) for column in columns] for row in a]


def dot(u, v) -> Fraction:
    """Exact sum of u[i] * v[i], summed in integers over common denominators."""
    (u_nums, u_den), (v_nums, v_den) = over_common_denominator(u), over_common_denominator(v)
    return Fraction(sum(map(mul, u_nums, v_nums)), u_den * v_den)
