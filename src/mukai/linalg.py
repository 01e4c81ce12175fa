"""Exact linear algebra over the rationals.

Just enough Gaussian elimination to compute reduced row echelon forms,
ranks and nullspace bases of the small Gram matrices that appear as
obstruction maps.  Kernel basis vectors are normalized to primitive
integer vectors with positive leading entry, so results are canonical
and directly comparable across runs.

One integer core, `_echelon`, does every elimination: Bareiss's
integer-preserving elimination, run Gauss-Jordan style on integer rows.
At each pivot, every other row becomes (pivot * row - entry * pivot row)
divided by the previous pivot.  Each entry is then a minor of the input
(Sylvester's identity), so every division is exact and is done with
``//`` on `int`.  At the end the pivot rows carry the last pivot d in
their pivot columns, so the matrix is d times the reduced form, the way
FLINT's ``fmpz_mat_rref`` returns it over one denominator.  Reference:
E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22 (1968).

The public functions scale each row of a rational matrix to integers over
its own denominator, which changes neither the rank nor the kernel.  `rref`
then divides by d once per entry, which gives the reduced form itself
(it is unique); `rank` reads the pivots and `nullspace` the integer rows,
so neither makes a `Fraction` before its result.  A `K3Restriction` calls
the core directly on the integer Gram rows it already holds, for the rank
and kernels that `flags` reads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .rational import as_matrix, as_vector, over_common_denominator

__all__ = ["rref", "rank", "nullspace", "primitive"]


def _integer_rows(matrix) -> list[list[int]]:
    """The rows of a rational matrix, each scaled to integers over its own denominator."""
    return [over_common_denominator(row)[0] for row in as_matrix(matrix)]


def _echelon(rows) -> tuple[list[list[int]], list[int], int]:
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


def _kernel(rows) -> list[tuple[Fraction, ...]]:
    """`nullspace` of integer rows; each vector is d times its reduced-form value until made primitive."""
    reduced, pivots, d = _echelon(rows)
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
        basis.append(_primitive(vec))
    return basis


def _primitive(ints: list[int]) -> tuple[Fraction, ...]:
    """An integer vector divided by its gcd, with the sign that makes the leading entry > 0."""
    common = gcd(*ints)
    if not common:
        return tuple(Fraction(v) for v in ints)
    if next(v for v in ints if v) < 0:
        common = -common
    return tuple(Fraction(v // common) for v in ints)


def rref(matrix) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot column indices."""
    rows, pivots, d = _echelon(_integer_rows(matrix))
    return tuple(tuple(Fraction(x, d) for x in row) for row in rows), tuple(pivots)


def rank(matrix) -> int:
    return len(_echelon(_integer_rows(matrix))[1])


def primitive(vector) -> tuple[Fraction, ...]:
    """Scale a rational vector to a primitive integer vector, leading entry > 0."""
    return _primitive(over_common_denominator(as_vector(vector))[0])


def nullspace(matrix) -> list[tuple[Fraction, ...]]:
    """Primitive basis of the right kernel, one vector per free column.

    The basis follows the usual free-variable parametrization of the
    reduced row echelon form, so it is deterministic.
    """
    return _kernel(_integer_rows(matrix))
