"""Schubert calculus on G(2,n): products, duality and line counts."""

import doctest
import random
from math import comb

import pytest

import mukai.schubert
from mukai import (
    LatticeValidationError,
    SchubertElement,
    euler_char_g2n,
    four_lines_count,
    integrate,
    lines_on_octic_double,
    multiply,
    pieri_mult,
    sigma,
    top_chern_sym_dual_tautological,
)
from mukai.cli import MAX_N


def test_bool_is_not_an_integer():
    x = sigma(4, 1)
    for call in (
        lambda: x.scale(True),
        lambda: x ** True,
        lambda: SchubertElement(4, {(1, 0): True}),
        lambda: SchubertElement(True, {}),
        lambda: sigma(4, True),
        lambda: sigma(4, 1, False),
        lambda: pieri_mult(x, True),
        lambda: euler_char_g2n(True),
        lambda: top_chern_sym_dual_tautological(3, True),
        lambda: top_chern_sym_dual_tautological(True, 1),
    ):
        with pytest.raises(LatticeValidationError):
            call()


def strip_oracle(n, terms, k):
    """Independent Pieri rule straight from the horizontal-strip definition."""
    out = {}
    for (l1, l2), coeff in terms.items():
        for m1 in range(n - 1):
            for m2 in range(n - 1):
                is_partition = m1 >= m2 >= 0 and m1 <= n - 2
                contains = m1 >= l1 and m2 >= l2
                one_per_column = m2 <= l1
                right_size = m1 + m2 == l1 + l2 + k
                if is_partition and contains and one_per_column and right_size:
                    out[(m1, m2)] = out.get((m1, m2), 0) + coeff
    return {key: v for key, v in out.items() if v}


def random_element(rng, n):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(0, n - 2)
        b = rng.randint(0, a)
        terms[(a, b)] = terms.get((a, b), 0) + rng.randint(-3, 3)
    return SchubertElement(n, terms)


# --------------------------------------------------------------------------
# element algebra


def test_element_validation():
    with pytest.raises(LatticeValidationError):
        SchubertElement(4, {(3, 0): 1})  # outside the 2x2 box
    with pytest.raises(LatticeValidationError):
        SchubertElement(4, {(2, 3): 1})  # not a partition
    with pytest.raises(LatticeValidationError):
        SchubertElement(4, {(1, 0): "x"})
    with pytest.raises(LatticeValidationError):
        SchubertElement(1, {})
    with pytest.raises(LatticeValidationError):
        sigma(4, 1) + sigma(5, 1)
    with pytest.raises(LatticeValidationError):
        sigma(4, 1).scale("2")
    with pytest.raises(LatticeValidationError):
        sigma(4, 1) ** -1


@pytest.mark.parametrize("key", [(1,), 5, (1, 2, 3)], ids=["short", "int", "long"])
def test_keys_that_are_not_pairs_are_refused(key):
    with pytest.raises(LatticeValidationError) as error:
        SchubertElement(4, {key: 1})
    assert str(error.value) == f"partition {key} does not fit the 2x2 box of G(2,4)"


def test_powers_above_the_dimension_vanish_without_looping():
    zero = SchubertElement(5, {})
    x = sigma(5, 1) + sigma(5, 2, 1).scale(3)
    looped = sigma(5, 0)
    for _ in range(7):  # dim G(2,5) = 6
        looped = looped * x
    assert looped == zero and x ** 7 == zero
    assert sigma(5, 1) ** 10**9 == zero  # a billion Pieri steps if it looped
    assert zero ** 10**9 == zero
    assert integrate(sigma(5, 1) ** 6) == 5
    unit_part = sigma(5, 0) + sigma(5, 1)
    assert integrate(unit_part ** 7) == 7 * integrate(sigma(5, 1) ** 6)
    # A unit term keeps these powers nonzero; the exponent must not set the number of products.
    assert sigma(5, 0) ** 10**9 == sigma(5, 0)
    assert integrate(unit_part ** 10**9) == comb(10**9, 6) * integrate(sigma(5, 1) ** 6)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_powers_with_a_unit_term_match_repeated_products(n):
    for x in (
        sigma(n, 0) + sigma(n, n - 2),
        sigma(n, 0).scale(3) + sigma(n, n - 2, n - 2),
        sigma(n, 0).scale(-2) + sigma(n, n - 2).scale(5) + sigma(n, n - 2, n - 2).scale(-1),
    ):
        looped = sigma(n, 0)
        for exponent in range(2 * (n - 2) + 4):
            assert x ** exponent == looped, (x, exponent)
            looped = looped * x


def test_zero_coefficients_are_pruned():
    x = sigma(4, 1) + sigma(4, 1).scale(-1)
    assert x.terms == {}
    assert x == SchubertElement(4, {})


def test_elements_are_not_hashable():
    # Equality compares the public, mutable `terms` dict, so no hash can stay sound.
    with pytest.raises(TypeError):
        hash(sigma(4, 1))


def test_hand_products_on_g24():
    s1 = sigma(4, 1)
    assert (s1 * s1).terms == {(2, 0): 1, (1, 1): 1}
    assert (sigma(4, 2) * sigma(4, 2)).terms == {(2, 2): 1}
    assert (sigma(4, 1, 1) * sigma(4, 1, 1)).terms == {(2, 2): 1}
    assert (sigma(4, 2) * sigma(4, 1, 1)).terms == {}
    assert integrate(s1 ** 4) == 2


def test_pieri_against_strip_oracle():
    rng = random.Random(88)
    for _ in range(1000):
        n = rng.randint(3, 7)
        x = random_element(rng, n)
        k = rng.randint(0, n - 2)
        assert pieri_mult(x, k).terms == strip_oracle(n, x.terms, k)


def test_pieri_bounds_checked():
    with pytest.raises(LatticeValidationError):
        pieri_mult(sigma(4, 1), 3)
    with pytest.raises(LatticeValidationError):
        pieri_mult(sigma(4, 1), -1)


def test_multiply_commutes_and_associates():
    rng = random.Random(89)
    for _ in range(500):
        n = rng.randint(3, 7)
        x, y, z = (random_element(rng, n) for _ in range(3))
        assert multiply(x, y) == multiply(y, x)
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
        assert multiply(x, y + z) == multiply(x, y) + multiply(x, z)


def _column_mult(x):
    """Multiply by sigma_(1,1): shift both rows up by one, clip at the box."""
    out = {}
    for (a, b), coeff in x.terms.items():
        if a + 1 <= x.n - 2:
            out[(a + 1, b + 1)] = out.get((a + 1, b + 1), 0) + coeff
    return SchubertElement(x.n, out)


def reference_multiply(x, y):
    """The column-loop product: sigma_(1,1) applied b times, then Pieri by sigma_(a-b)."""
    total = SchubertElement(x.n, {})
    for (a, b), coeff in sorted(y.terms.items()):
        partial = x
        for _ in range(b):
            partial = _column_mult(partial)
        total = total + pieri_mult(partial, a - b).scale(coeff)
    return total


def dense_element(rng, n):
    """Every partition of the 2 x (n-2) box, each with a nonzero coefficient."""
    terms = {(a, b): rng.choice([-1, 1]) * rng.randint(1, 50) for a in range(n - 1) for b in range(a + 1)}
    return SchubertElement(n, terms)


def test_multiply_matches_the_column_loop_on_dense_elements():
    rng = random.Random(90)
    for _ in range(300):
        n = rng.randint(2, 10)
        x, y = dense_element(rng, n), dense_element(rng, n)
        assert multiply(x, y) == reference_multiply(x, y), (n, x, y)


def test_poincare_duality():
    for n in range(3, 8):
        box = n - 2
        classes = [(a, b) for a in range(box + 1) for b in range(a + 1)]
        for a, b in classes:
            for c, d in classes:
                value = integrate(sigma(n, a, b) * sigma(n, c, d))
                dual = (c, d) == (box - b, box - a)
                assert value == (1 if dual else 0)


def test_degree_of_grassmannian_is_catalan():
    def catalan(m):
        return comb(2 * m, m) // (m + 1)

    for n in range(3, 8):
        assert integrate(sigma(n, 1) ** (2 * (n - 2))) == catalan(n - 2)


def test_euler_characteristics():
    assert [euler_char_g2n(n) for n in range(2, 8)] == [1, 3, 6, 10, 15, 21]
    with pytest.raises(LatticeValidationError):
        euler_char_g2n(1)


# --------------------------------------------------------------------------
# line counts


def test_lines_on_quintic():
    assert top_chern_sym_dual_tautological(5, 5) == 2875


def test_lines_on_cubic_surface():
    assert top_chern_sym_dual_tautological(4, 3) == 27


def _catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def reference_ctop(n: int) -> int:
    """ctop(n, 2n-5) as a product in the Schubert ring: the reference for the Catalan sum.

    The weights i x1 + (k-i) x2 of Sym^k S* pair up to i(k-i) e1^2 + (k-2i)^2 e2
    (k = 2n-5 is odd); their product is taken with Pieri products and integrated.
    """
    k = 2 * n - 5
    e1_squared = sigma(n, 1) * sigma(n, 1)
    e2 = sigma(n, 1, 1)
    top = sigma(n, 0)
    for i in range((k + 1) // 2):
        top = top * (e1_squared.scale(i * (k - i)) + e2.scale((k - 2 * i) ** 2))
    return integrate(top)


def test_top_chern_matches_the_ring_product_at_every_supported_n():
    # Lines on a general hypersurface of degree 2n-5 in P^(n-1), n = 3..8.
    classical = [1, 27, 2875, 698005, 305093061, 210480374951]
    assert [top_chern_sym_dual_tautological(n, 2 * n - 5) for n in range(3, 9)] == classical
    assert [reference_ctop(n) for n in range(3, 9)] == classical
    for n in range(3, MAX_N + 1):
        assert top_chern_sym_dual_tautological(n, 2 * n - 5) == reference_ctop(n), n


def test_top_chern_degree_mismatch_is_zero():
    assert top_chern_sym_dual_tautological(4, 0) == 0
    assert top_chern_sym_dual_tautological(4, 2) == 0
    assert top_chern_sym_dual_tautological(5, 3) == 0


def test_top_chern_on_the_point_grassmannian_is_zero():
    # G(2,2) is a point: no rank k+1 >= 1 matches its dimension 0.
    for k in range(6):
        assert top_chern_sym_dual_tautological(2, k) == 0


def test_top_chern_rank_mismatch_returns_without_expanding():
    # Without the early return the top Chern class of Sym^k would be a
    # product of 500,000 paired weights in the ring, over ten seconds on
    # G(2,5) for a class of the wrong degree.
    assert top_chern_sym_dual_tautological(5, 10**6) == 0


def test_top_chern_input_validation():
    with pytest.raises(LatticeValidationError):
        top_chern_sym_dual_tautological(1, 5)
    with pytest.raises(LatticeValidationError):
        top_chern_sym_dual_tautological(5, -1)


def test_top_chern_of_tangent_bundle_equals_euler_number():
    """c_top(T G(2,4)) via T = S* x Q, assembled from the engine's classes.

    For rank-2 bundles with Chern classes (a1, a2) and (b1, b2) the top
    Chern class of the tensor product is

        a2^2 + a1 a2 b1 + (a1^2 - 2 a2) b2 + a2 b1^2 + a1 b1 b2 + b2^2,

    and on G(2,4) the factors have (a1, a2) = (sigma_1, sigma_11) and
    (b1, b2) = (sigma_1, sigma_2).  The integral must be chi(G(2,4)).
    """
    a1, a2 = sigma(4, 1), sigma(4, 1, 1)
    b1, b2 = sigma(4, 1), sigma(4, 2)
    top = (
        a2 * a2
        + a1 * a2 * b1
        + (a1 * a1 + a2.scale(-2)) * b2
        + a2 * b1 * b1
        + a1 * b1 * b2
        + b2 * b2
    )
    assert integrate(top) == euler_char_g2n(4) == 6


def test_lines_on_octic_double():
    assert lines_on_octic_double() == 12


def test_four_lines_count_two_ways():
    note = four_lines_count()
    assert note.parts == (1, 1)
    assert note.total == 2
    assert note.schubert_total == 2
    assert note.consistent
    assert len(note.part_descriptions) == 2


def test_module_doctests():
    result = doctest.testmod(mukai.schubert)
    assert result.attempted >= 4
    assert result.failed == 0
