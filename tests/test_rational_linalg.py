"""Exact scalar helpers and the integer Bareiss elimination core."""

import random
import re
from fractions import Fraction

import pytest
import sympy

from mukai.linalg import echelon, kernel
from mukai.rational import (
    as_fraction,
    as_matrix,
    as_vector,
    dot,
    format_fraction,
    identity_matrix,
    integer_product,
    mat_vec,
    over_common_denominator,
    parse_rational,
)

from conftest import random_matrix, reference_primitive, reference_rref


def test_as_fraction_accepts_exact_inputs():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(2, 4)) == Fraction(1, 2)
    assert as_fraction("-7/3") == Fraction(-7, 3)
    assert as_fraction("5") == Fraction(5)


@pytest.mark.parametrize(
    "text",
    ["1e2", "0.5", " 3 ", "3/ 2", "1_000", "\u0663", "+", "1/2/3", "1" * 1001, "1/" + "1" * 1001],
    ids=["exponent", "decimal", "padded", "inner-space", "underscore", "non-ascii-digit",
         "sign-only", "two-slashes", "long-numerator", "long-denominator"],
)
def test_only_integer_and_p_over_q_strings_parse(text):
    with pytest.raises(ValueError):
        parse_rational(text)
    with pytest.raises(ValueError):
        as_fraction(text)


def test_strict_parser_reads_signed_integers_and_ratios():
    assert parse_rational("+4") == 4
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("1" * 1000) == int("1" * 1000)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_as_fraction_rejects_lossy_inputs():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(True)
    with pytest.raises(ValueError):
        as_fraction("not-a-number")
    with pytest.raises(TypeError):
        as_fraction(None)


def test_format_fraction():
    assert format_fraction(Fraction(4)) == "4"
    assert format_fraction(Fraction(-3, 7)) == "-3/7"


def test_format_fraction_is_str_of_the_fraction():
    rng = random.Random(17)
    big = 10**299
    values = [Fraction(0), Fraction(-1), Fraction(big), Fraction(-big, 3), Fraction(1, big)]
    while len(values) < 1000:
        bound = rng.choice([1, 9, 10**6, 10**300 - 1])
        values.append(Fraction(rng.randint(-bound, bound), rng.randint(1, bound)))
    for x in values:
        p, q = x.numerator, x.denominator
        assert format_fraction(x) == str(x) == (f"{p}" if q == 1 else f"{p}/{q}"), x


def test_as_vector_refuses_a_bare_string_or_bytes():
    # Iterated, "12" would read as the digits (1, 2) and b"12" as (49, 50).
    for value in ("12", "1/2", "", b"12"):
        with pytest.raises(TypeError, match=f"got {type(value).__name__} {re.escape(repr(value))}$"):
            as_vector(value)
    with pytest.raises(TypeError, match="got str '12'"):
        as_matrix(["12", "34"])
    assert as_vector(["1", "2/3", 4, Fraction(5)]) == (1, Fraction(2, 3), 4, 5)


def test_as_matrix_rejects_ragged_input():
    with pytest.raises(ValueError):
        as_matrix([[1, 2], [3]])


def test_matrix_helpers_against_hand_values():
    m = as_matrix([[1, 2], [3, 4]])
    assert mat_vec(m, (1, 1)) == (3, 7)
    assert identity_matrix(2) == ((1, 0), (0, 1))


def _integer_rows(matrix):
    """The rows of a rational matrix, each scaled to integers over its own denominator."""
    return [over_common_denominator(row)[0] for row in as_matrix(matrix)]


def _reduced(matrix):
    """`echelon`'s d times the reduced form, divided by d: the reduced form and its pivots."""
    rows, pivots, d = echelon(_integer_rows(matrix))
    return tuple(tuple(Fraction(x, d) for x in row) for row in rows), tuple(pivots)


def test_rref_hand_example():
    rows, pivots, d = echelon([[2, 4], [1, 2]])
    assert (rows, pivots, d) == ([[2, 4], [0, 0]], [0], 2)
    assert _reduced([[2, 4], [1, 2]]) == (((1, 2), (0, 0)), (0,))


def test_nullspace_hand_examples():
    assert kernel([[4, 2], [2, 1]]) == [(1, -2)]
    assert kernel([[4, 4]]) == [(1, -1)]
    assert kernel([[-2, 4]]) == [(2, 1)]
    assert kernel([[0, 0]]) == [(1, 0), (0, 1)]
    assert kernel([[1, 0], [0, 1]]) == []
    assert kernel(()) == []


def test_rank_and_nullspace_against_sympy():
    """Independent oracle: sympy must agree with the integer core."""
    rng = random.Random(20260825)
    for _ in range(300):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols)
        sym = sympy.Matrix([[sympy.Rational(int(x)) for x in row] for row in m])
        assert len(echelon(_integer_rows(m))[1]) == sym.rank()
        ours = kernel(_integer_rows(m))
        theirs = [
            reference_primitive(tuple(Fraction(int(x.p), int(x.q)) for x in v)) for v in sym.nullspace()
        ]
        assert sorted(ours) == sorted(theirs)
        assert all(type(x) is Fraction for vec in ours for x in vec)


def test_nullspace_vectors_are_in_the_kernel():
    rng = random.Random(7)
    for _ in range(300):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        for vec in kernel(_integer_rows(m)):
            assert all(x == 0 for x in mat_vec(m, vec))


# --------------------------------------------------------------------------
# the integer kernels against plain Fraction loops


def _entry(rng):
    """Zero a third of the time, else a small integer or a fraction with denominator <= 6."""
    if rng.random() < 1 / 3:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6)))


def _random_shapes(rng):
    """Rectangular, low-rank, zero-row, zero-column and [G | GA] matrices."""
    while True:
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        m = [[_entry(rng) for _ in range(cols)] for _ in range(rows)]
        yield m
        inner = rng.randint(1, min(rows, cols))
        left = [[_entry(rng) for _ in range(inner)] for _ in range(rows)]
        right = [[_entry(rng) for _ in range(cols)] for _ in range(inner)]
        yield [[sum(map(lambda a, b: a * b, row, col), Fraction(0)) for col in zip(*right)]
               for row in left]
        zeroed = [list(row) for row in m]
        zeroed[rng.randrange(rows)] = [Fraction(0)] * cols
        c = rng.randrange(cols)
        for row in zeroed:
            row[c] = Fraction(0)
        yield zeroed
        g = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                g[i][j] = g[j][i] = _entry(rng)
        a = [[_entry(rng) for _ in range(3)] for _ in range(3)]
        yield [row_g + list(row_ga) for row_g, row_ga in zip(g, _fraction_mat_mul(g, a))]


def test_rref_matches_the_fraction_reference():
    rng = random.Random(20261018)
    shapes = _random_shapes(rng)
    for _ in range(3000):
        m = next(shapes)
        assert _reduced(m) == reference_rref(m), m
        for vec in kernel(_integer_rows(m)):
            assert all(x == 0 for x in mat_vec(m, vec)), (m, vec)
    assert echelon([]) == ([], [], 1) and kernel([]) == []
    assert echelon([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [], 1)
    assert kernel([[0, 0], [0, 0]]) == [(1, 0), (0, 1)]
    assert _reduced([["1/2", "-3/4"]]) == (((1, Fraction(-3, 2)),), (0,))


def _fraction_mat_vec(matrix, vector):
    return tuple(sum((a * x for a, x in zip(row, vector)), Fraction(0)) for row in matrix)


def _fraction_mat_mul(a, b):
    return tuple(
        tuple(sum((row[k] * col[k] for k in range(len(row))), Fraction(0)) for col in zip(*b))
        for row in a
    )


def test_integer_products_match_fraction_loops():
    rng = random.Random(11)
    for _ in range(500):
        rows, inner, cols = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = tuple(tuple(_entry(rng) for _ in range(inner)) for _ in range(rows))
        b = tuple(tuple(_entry(rng) for _ in range(cols)) for _ in range(inner))
        v = tuple(_entry(rng) for _ in range(inner))
        product = mat_vec(a, v)
        assert product == _fraction_mat_vec(a, v)
        assert all(type(x) is Fraction for x in product)
        ints_a = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(rows)]
        ints_b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(inner)]
        assert integer_product(ints_a, ints_b) == [list(row) for row in _fraction_mat_mul(ints_a, ints_b)]
    # Empty and 1 x n shapes, and integer (not Fraction) entries.
    assert mat_vec((), ()) == ()
    assert mat_vec(((),), ()) == (Fraction(0),)
    assert mat_vec(((1, 2, 3),), (Fraction(1, 2), 0, 1)) == (Fraction(7, 2),)
    with pytest.raises(ValueError):
        mat_vec(((1, 2),), (1,))


def _dot_entry(rng):
    """An int, a small fraction, or a fraction with up to 40-digit parts; either sign."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-50, 50)
    if kind == 1:
        return Fraction(rng.randint(-10**40, 10**40), rng.randint(1, 10**40))
    return _entry(rng)


def test_dot_matches_the_fraction_sum():
    rng = random.Random(20261020)
    lengths = set()
    for _ in range(1000):
        n = rng.randint(0, 8)
        lengths.add(n)
        u = tuple(_dot_entry(rng) for _ in range(n))
        v = tuple(_dot_entry(rng) for _ in range(n))
        got = dot(u, v)
        assert type(got) is Fraction
        assert got == sum((a * b for a, b in zip(u, v)), Fraction(0)), (u, v)
    assert lengths == set(range(9))
    assert dot((), ()) == 0 and type(dot((), ())) is Fraction
    assert dot((1, 2), (3, -4)) == -5
    assert dot((Fraction(1, 2), Fraction(1, 3)), (Fraction(2, 3), 3)) == Fraction(4, 3)
