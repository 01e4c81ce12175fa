"""Exact scalar helpers and the small Gaussian-elimination kernel."""

import random
from fractions import Fraction

import pytest
import sympy

from mukai.linalg import nullspace, primitive, rank, rref
from mukai.rational import (
    as_fraction,
    as_matrix,
    as_vector,
    format_fraction,
    identity_matrix,
    is_integral,
    mat_mul,
    mat_vec,
    parse_rational,
    transpose,
)

from conftest import random_matrix


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


def test_is_integral_recurses():
    assert is_integral(Fraction(2), (Fraction(1), Fraction(0)))
    assert not is_integral(Fraction(2), (Fraction(1, 2),))


def test_as_matrix_rejects_ragged_input():
    with pytest.raises(ValueError):
        as_matrix([[1, 2], [3]])


def test_matrix_helpers_against_hand_values():
    m = as_matrix([[1, 2], [3, 4]])
    assert transpose(m) == ((1, 3), (2, 4))
    assert mat_vec(m, (1, 1)) == (3, 7)
    assert mat_mul(m, identity_matrix(2)) == m


def test_rref_hand_example():
    reduced, pivots = rref([[2, 4], [1, 2]])
    assert pivots == (0,)
    assert reduced[0] == (1, 2)
    assert all(x == 0 for x in reduced[1])


def test_primitive_normalization():
    assert primitive((Fraction(1, 2), Fraction(-3, 2))) == (1, -3)
    assert primitive((Fraction(-2), Fraction(4))) == (1, -2)
    assert primitive((Fraction(0), Fraction(0))) == (0, 0)


def test_nullspace_hand_examples():
    assert nullspace([[4, 2], [2, 1]]) == [(1, -2)]
    assert nullspace([[4, 4]]) == [(1, -1)]
    assert nullspace([[1, 0], [0, 1]]) == []


def test_rank_and_nullspace_against_sympy():
    """Independent oracle: sympy must agree with the hand-rolled kernel."""
    rng = random.Random(20260825)
    for _ in range(300):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = random_matrix(rng, rows, cols)
        sym = sympy.Matrix([[sympy.Rational(int(x)) for x in row] for row in m])
        assert rank(m) == sym.rank()
        ours = nullspace(m)
        theirs = [
            primitive(tuple(Fraction(int(x.p), int(x.q)) for x in v)) for v in sym.nullspace()
        ]
        assert sorted(ours) == sorted(theirs)


def test_nullspace_vectors_are_in_the_kernel():
    rng = random.Random(7)
    for _ in range(300):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        for vec in nullspace(m):
            assert all(x == 0 for x in mat_vec(m, vec))
