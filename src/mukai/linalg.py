"""Exact linear algebra over the rationals.

Just enough Gaussian elimination to compute reduced row echelon forms,
ranks and nullspace bases of the small Gram matrices that appear as
obstruction maps.  Kernel basis vectors are normalized to primitive
integer vectors with positive leading entry, so results are canonical
and directly comparable across runs.

`rref` eliminates without fractions: Bareiss's integer-preserving
elimination, run Gauss-Jordan style.  Each row is first scaled to
integers over its own denominator.  At each pivot, every other row
becomes (pivot * row - entry * pivot row) divided by the previous pivot.
Each entry is then a minor of the scaled matrix (Sylvester's identity),
so every division is exact and is done with ``//`` on `int`.  At the end
the pivot rows carry the last pivot d in their pivot columns, so the
matrix is d times the reduced form, the way FLINT's ``fmpz_mat_rref``
returns it over one denominator; one division by d per entry gives the
reduced form itself, which is unique.  Reference: E. H. Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22 (1968).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .rational import as_matrix, over_common_denominator

__all__ = ["rref", "rank", "nullspace", "primitive"]


def rref(matrix) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot column indices."""
    rows = [over_common_denominator(row)[0] for row in as_matrix(matrix)]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots: list[int] = []
    previous = 1
    r = 0
    for c in range(ncols):
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
    return tuple(tuple(Fraction(x, previous) for x in row) for row in rows), tuple(pivots)


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def primitive(vector) -> tuple[Fraction, ...]:
    """Scale a rational vector to a primitive integer vector, leading entry > 0."""
    vec = [Fraction(v) for v in vector]
    if not any(vec):
        return tuple(vec)
    ints = over_common_denominator(vec)[0]
    common = gcd(*ints)
    if next(v for v in ints if v) < 0:
        common = -common
    return tuple(Fraction(v // common) for v in ints)


def nullspace(matrix) -> list[tuple[Fraction, ...]]:
    """Primitive basis of the right kernel, one vector per free column.

    The basis follows the usual free-variable parametrization of the
    reduced row echelon form, so it is deterministic.
    """
    reduced, pivots = rref(matrix)
    if not reduced:
        return []
    ncols = len(reduced[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        basis.append(primitive(vec))
    return basis
