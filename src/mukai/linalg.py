"""Exact linear algebra on integer rows: one Bareiss elimination core.

A `K3Restriction` keeps its Gram matrix G as integer rows R over one
denominator (G = R/g), and the rank of G and the kernels of G and of
[G | G A] are read off such rows, since scaling a matrix by a nonzero
number changes neither its rank nor its kernel.

`echelon` is Bareiss's integer-preserving elimination, run Gauss-Jordan
style.  At each pivot, every other row becomes (pivot * row - entry *
pivot row) divided by the previous pivot.  Each entry is then a minor of
the input (Sylvester's identity), so every division is exact and is done
with ``//`` on `int`.  At the end the pivot rows carry the last pivot d in
their pivot columns, so the matrix is d times the reduced row echelon
form, the way FLINT's ``fmpz_mat_rref`` returns it over one denominator.
Reference: E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22 (1968).

`kernel` reads the usual free-variable basis off those rows and makes
each vector primitive with a positive leading entry, so results are
canonical and directly comparable across runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["echelon", "kernel"]


def echelon(rows) -> tuple[list[list[int]], list[int], int]:
    """Bareiss elimination of integer rows: (d times the reduced form, pivot columns, d).

    `rows` is left unchanged; d is 1 when there is no pivot.
    """
    rows = [list(row) for row in rows]
    pivots: list[int] = []
    previous = 1
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        top = rows[r]
        pivot = top[c]
        for i, row in enumerate(rows):
            if i != r:
                factor = row[c]
                rows[i] = [(pivot * a - factor * b) // previous for a, b in zip(row, top)]
        previous = pivot
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots, previous


def kernel(rows) -> list[tuple[Fraction, ...]]:
    """Primitive basis of the right kernel of integer rows, one vector per free column.

    Each vector is d times its reduced-form value, divided by its gcd and
    signed so that its leading entry is positive.
    """
    reduced, pivots, d = echelon(rows)
    if not reduced:
        return []
    ncols = len(reduced[0])
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = d
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        common = gcd(*vec)  # > 0, since vec[f] = d != 0
        if next(v for v in vec if v) < 0:
            common = -common
        basis.append(tuple(Fraction(v // common) for v in vec))
    return basis
