"""Graded ring arithmetic, the star involution and K3 restriction."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest

from mukai import (
    ChernData,
    FlagDescriptor,
    GradedClass,
    K3Restriction,
    K3Vector,
    LatticeValidationError,
    ThreefoldRing,
    chern_character,
    chern_from_character,
    euler_chi,
    mukai_restrict,
    restrict_to_k3,
    ring_multiply,
    star,
    top_degree,
    twist_chern,
)

from mukai.rings import _bilinear, _fixed_factor, _times_fixed, _top_linear

from test_chern import reference_twist

from conftest import (
    LETTERS,
    quintic_ring,
    random_cy_ring,
    random_fano_ring,
    random_graded,
    synthetic_ring,
    with_denominators,
)


def test_ring_rejects_asymmetric_triple():
    with pytest.raises(LatticeValidationError):
        ThreefoldRing(
            name="bad",
            basis_labels=("A", "B"),
            triple=(((0, 1), (0, 0)), ((0, 0), (0, 0))),
            c1_coords=(0, 0),
            c2_values=(0, 0),
            chi_top=4,
            h12=0,
        )


@pytest.mark.parametrize(
    "labels, triple, message",
    [
        ((), (), "rank of H^2 must be at least 1"),
        (("H",), (((1, 0),),), "triple intersection tensor must be 1x1x1"),
    ],
)
def test_ring_rejects_a_tensor_of_the_wrong_shape(labels, triple, message):
    with pytest.raises(LatticeValidationError) as error:
        ThreefoldRing(name="bad", basis_labels=labels, triple=triple, c1_coords=(0,),
                      c2_values=(0,), chi_top=0, h12=1)
    assert str(error.value) == message


def _first_asymmetry(triple):
    """The first (i,j,k) a Fraction loop finds where d[i][j][k] != d[j][i][k] or d[i][k][j]."""
    rho = len(triple)
    for i in range(rho):
        for j in range(rho):
            for k in range(rho):
                if triple[i][j][k] != triple[j][i][k] or triple[i][j][k] != triple[i][k][j]:
                    return i, j, k
    return None


def test_asymmetric_fractional_tensor_is_reported_at_the_first_index():
    rng = random.Random(5)
    values = (0, 1, -2, Fraction(3, 2), Fraction(-1, 6), Fraction(2, 9), Fraction(4, 6))
    for _ in range(400):
        rho = rng.randint(2, 4)
        triple = [[[None] * rho for _ in range(rho)] for _ in range(rho)]
        for i in range(rho):
            for j in range(i, rho):
                for k in range(j, rho):
                    x = rng.choice(values)
                    for a, b, c in set(permutations((i, j, k))):
                        triple[a][b][c] = x
        for _ in range(rng.randint(1, 2)):
            i, j, k = (rng.randrange(rho) for _ in range(3))
            triple[i][j][k] += rng.choice((1, Fraction(1, 3), Fraction(-5, 2)))
        expected = _first_asymmetry(triple)
        kwargs = dict(name="t", basis_labels=LETTERS[:rho], triple=triple, c1_coords=(1,) * rho,
                      c2_values=(0,) * rho, chi_top=0, h12=0)
        if expected is None:
            ThreefoldRing(**kwargs)
            continue
        with pytest.raises(LatticeValidationError) as info:
            ThreefoldRing(**kwargs)
        assert str(info.value) == "triple tensor not symmetric at ({},{},{})".format(*expected)


def test_ring_rejects_duplicate_labels():
    with pytest.raises(LatticeValidationError):
        ThreefoldRing(
            name="bad",
            basis_labels=("H", "H"),
            triple=(((0, 0), (0, 0)), ((0, 0), (0, 0))),
            c1_coords=(0, 0),
            c2_values=(0, 0),
            chi_top=4,
            h12=0,
        )


def test_calabi_yau_euler_number_consistency_enforced():
    with pytest.raises(LatticeValidationError):
        ThreefoldRing(
            name="bad-quintic",
            basis_labels=("H",),
            triple=(((5,),),),
            c1_coords=(0,),
            c2_values=(50,),
            chi_top=-42,
            h12=101,
        )
    ring = quintic_ring()
    assert ring.is_calabi_yau
    assert ring.chi_top == 2 * (ring.rho - ring.h12)


def test_calabi_yau_flag_is_decided_at_construction():
    rng = random.Random(2212)
    kinds = set()
    for case in range(40):
        rho = case % 8 + 1
        ring = with_denominators(rng, (random_cy_ring if case % 2 else random_fano_ring)(rng, rho))
        assert "is_calabi_yau" in vars(ring)
        assert ring.is_calabi_yau == all(c == 0 for c in ring.c1_coords)
        kinds.add(ring.is_calabi_yau)
    assert kinds == {True, False}


def test_fano_ring_has_no_euler_constraint():
    ring = synthetic_ring()
    assert not ring.is_calabi_yau
    assert ring.chi_top == 0


def test_cubic_and_square_on_quintic():
    ring = quintic_ring()
    assert ring.cubic((1,), (1,), (1,)) == 5
    assert ring.square_to_h4((1,), (2,)) == (10,)


def test_unit_point_and_zero_constructors():
    ring = quintic_ring()
    u = ring.graded(a0=1)
    p = ring.graded(a6=1)
    assert u * p == p
    assert u * u == u
    assert ring.graded() + p == p
    assert p.a6 == 1


def test_product_matches_hand_computation():
    ring = quintic_ring()
    h = ring.graded(a2=(1,))
    hh = h * h
    assert hh.a4 == (5,)
    assert (hh * h).a6 == 5
    assert (h * hh).a6 == 5


def test_exp_h2_on_quintic():
    ring = quintic_ring()
    e = ring.exp_h2((1,))
    assert e.components() == (1, (1,), (Fraction(5, 2),), Fraction(5, 6))


def test_mixed_ring_operations_rejected():
    a = quintic_ring().graded(a0=1)
    b = synthetic_ring().graded(a0=1)
    with pytest.raises(LatticeValidationError):
        a * b  # noqa: B018 - the product itself is the assertion
    with pytest.raises(LatticeValidationError):
        a + b  # noqa: B018


def test_scalar_multiplication_and_subtraction():
    ring = synthetic_ring()
    x = ring.graded(a0=2, a2=(1, 0), a4=(0, 3), a6="1/2")
    y = 2 * x
    assert y.a0 == 4 and y.a6 == 1
    assert x * 2 == y
    assert (y - x) == x
    assert (-x) + x == ring.graded()
    assert x.scale(Fraction(1, 2)).a0 == 1


def test_ring_laws_on_random_classes():
    """Commutativity, associativity, distributivity, unit: 1000 cases."""
    rng = random.Random(101)
    for _ in range(1000):
        ring = random_cy_ring(rng) if rng.random() < 0.5 else random_fano_ring(rng)
        x, y, z = (random_graded(rng, ring) for _ in range(3))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert ring.graded(a0=1) * x == x


def test_star_is_a_ring_involution():
    rng = random.Random(202)
    for _ in range(1000):
        ring = random_fano_ring(rng)
        x, y = random_graded(rng, ring), random_graded(rng, ring)
        assert star(star(x)) == x
        assert star(x * y) == star(x) * star(y)
        assert star(x + y) == star(x) + star(y)


def test_graded_class_str_layout():
    ring = quintic_ring()
    x = ring.graded(a0=1, a2=(Fraction(1, 2),), a4=(3,), a6=0)
    assert str(x) == "[1 | (1/2) | (3) | 0]"


def test_restriction_gram_from_ring():
    k3 = K3Restriction.from_ring(synthetic_ring(), (1, 0))
    assert k3.gram == ((4, 2), (2, 1))
    assert k3.rank == 2
    assert k3.dot((1, 0), (0, 1)) == 2


def test_restriction_dot_refuses_vectors_of_the_wrong_length():
    k3 = K3Restriction.from_ring(synthetic_ring(), (1, 1))
    assert k3.dot((1, 0), (1, 1)) == 9
    for u, v, size in (((1,), (1, 1), 1), ((1, 0, 9), (1, 1), 3), ((1, 0), (1,), 1)):
        with pytest.raises(LatticeValidationError) as error:
            k3.dot(u, v)
        assert str(error.value) == f"vector has {size} coordinates, lattice has rank 2"


def test_restriction_rejects_asymmetric_gram():
    with pytest.raises(LatticeValidationError):
        K3Restriction(gram=((0, 1), (0, 0)), s_coords=(1, 0))


def test_restriction_rejects_a_gram_matrix_that_is_not_square():
    with pytest.raises(LatticeValidationError) as error:
        K3Restriction(gram=((1, 0),), s_coords=(1,))
    assert str(error.value) == "gram matrix must be square"


def test_restriction_section_length_has_one_wording():
    with pytest.raises(LatticeValidationError) as error:
        K3Restriction(((1, 0), (0, 1)), (1,))
    assert str(error.value) == "section class length must match rho"


def test_restrict_to_k3_drops_degree_six():
    ring = synthetic_ring()
    k3 = K3Restriction.from_ring(ring, (1, 0))
    x = ring.graded(a0=3, a2=(1, 2), a4=(5, 7), a6=11)
    v = restrict_to_k3(x, k3)
    assert v == K3Vector(3, (1, 2), 5)


def test_restrict_to_k3_needs_a_restriction_of_the_ring_rank():
    x = synthetic_ring().graded(a0=3, a2=(1, 2), a4=(5, 7), a6=11)
    with pytest.raises(LatticeValidationError) as error:
        restrict_to_k3(x, K3Restriction.from_ring(quintic_ring(), (1,)))
    assert str(error.value) == "restriction rank does not match the ring"


def test_coefficients_are_made_once_per_class():
    x = random_graded(random.Random(81), synthetic_ring())
    den, n0, n2, n4, n6 = x._ints
    assert not vars(x).keys() & {"a0", "a2", "a4", "a6"}
    assert x.a2 is x.a2 and x.a4 is x.a4 and x.a0 is x.a0 and x.a6 is x.a6
    assert vars(x).keys() == {"ring", "_ints", "a0", "a2", "a4", "a6"}
    # The kept values are the ones the integers give.
    assert x.a0 == Fraction(n0, den) and x.a6 == Fraction(n6, den)
    assert x.a2 == tuple(Fraction(n, den) for n in n2) and x.a4 == tuple(Fraction(n, den) for n in n4)
    # A second class with the same integers makes its own.
    twin = GradedClass._exact(ring=x.ring, _ints=x._ints)
    assert twin.a2 is not x.a2 and twin.a2 == x.a2
    assert GradedClass.a2.name == "a2" and GradedClass._fields == ("ring", "a0", "a2", "a4", "a6")


def test_kept_coefficients_leave_equality_hash_repr_and_fields_alone():
    ring = with_denominators(random.Random(82), random_fano_ring(random.Random(83), rho=3))
    x = random_graded(random.Random(84), ring)
    den, n0, n2, n4, n6 = x._ints
    fields = {
        "ring": ring, "a0": Fraction(n0, den), "a2": tuple(Fraction(n, den) for n in n2),
        "a4": tuple(Fraction(n, den) for n in n4), "a6": Fraction(n6, den),
    }
    text = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    expected = (hash(tuple(fields.values())), f"GradedClass({text})")
    x.components()  # fills every coefficient
    for _ in range(2):
        assert (hash(x), repr(x), x.as_dict()) == (*expected, fields)
    twin = GradedClass._exact(ring=ring, _ints=x._ints)
    assert x == twin and twin == x and hash(twin) == hash(x)


def test_k3_vector_arithmetic_and_str():
    u = K3Vector(1, (2,), 3)
    v = K3Vector(1, (0,), -1)
    assert u + v == K3Vector(2, (2,), 2)
    assert str(K3Vector(2, (0,), -2)) == "(2, (0), -2)"


def test_k3_vector_rank_mismatch():
    with pytest.raises(LatticeValidationError):
        K3Vector(1, (1,), 0) + K3Vector(1, (1, 0), 0)


def test_graded_class_wrong_length_rejected():
    ring = synthetic_ring()
    with pytest.raises(LatticeValidationError) as error:
        GradedClass(ring, Fraction(1), (Fraction(1),), (Fraction(0), Fraction(0)), Fraction(0))
    assert str(error.value) == "class has 1/2 coordinates, ring has rho=2"
    for a2, a4, message in (
        ((1,), None, "class has 1/2 coordinates, ring has rho=2"),
        (None, (1, 2, 3), "class has 2/3 coordinates, ring has rho=2"),
        ((), (), "class has 0/0 coordinates, ring has rho=2"),
    ):
        with pytest.raises(LatticeValidationError) as error:
            ring.graded(a0=1, a2=a2, a4=a4)
        assert str(error.value) == message


SYNTHETIC_TRIPLE = (((4, 2), (2, 1)), ((2, 1), (1, 0)))
HALVES_TRIPLE = (((Fraction(1, 2), 2), (2, Fraction(-3, 2))), ((2, Fraction(-3, 2)), (Fraction(-3, 2), 7)))


def _tensor(triple, entry, kind=tuple):
    return kind(kind(kind(entry(x) for x in row) for row in plane) for plane in triple)


def _fraction_tuples(value, depth):
    """Whether `value` is tuples nested `depth` deep, of `Fraction`s."""
    if depth == 0:
        return type(value) is Fraction
    return type(value) is tuple and all(_fraction_tuples(x, depth - 1) for x in value)


def _ratio(x):
    x = Fraction(x)
    return f"{3 * x.numerator}/{3 * x.denominator}"


@pytest.mark.parametrize("triple", [SYNTHETIC_TRIPLE, HALVES_TRIPLE], ids=["integral", "halves"])
def test_a_ring_from_ints_fractions_or_strings_is_one_ring(triple):
    forms = [_tensor(triple, Fraction), _tensor(triple, _ratio), _tensor(triple, _ratio, list)]
    if all(Fraction(x).denominator == 1 for plane in triple for row in plane for x in row):
        forms += [_tensor(triple, int), _tensor(triple, int, list)]
    rings = [ThreefoldRing("t", ("A", "B"), form, (1, 0), (24, 10), 0, 0) for form in forms]
    reference = _tensor(triple, Fraction)
    for ring in rings:
        assert ring == rings[0] and hash(ring) == hash(rings[0]) and repr(ring) == repr(rings[0])
        assert _fraction_tuples(ring.triple, 3) and ring.triple == reference
        assert ring.as_dict()["triple"] == reference
        k3 = K3Restriction.from_ring(ring, (1, "1/2"))
        assert k3 == K3Restriction.from_ring(rings[0], (1, Fraction(1, 2)))
        assert _fraction_tuples(k3.gram, 2)
        public = K3Restriction(gram=k3.gram, s_coords=k3.s_coords)
        assert k3 == public and hash(k3) == hash(public) and repr(k3) == repr(public)
        assert k3.rank == public.rank == 2


def test_the_integral_ring_prints_its_tensor_as_fractions():
    ring = synthetic_ring()
    assert repr(ring) == (
        "ThreefoldRing(name='synthetic-rho2', basis_labels=('A', 'B'), triple=((("
        "Fraction(4, 1), Fraction(2, 1)), (Fraction(2, 1), Fraction(1, 1))), "
        "((Fraction(2, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1)))), "
        "c1_coords=(Fraction(1, 1), Fraction(0, 1)), c2_values=(Fraction(24, 1), Fraction(10, 1)), "
        "chi_top=0, h12=0)"
    )
    assert hash(ring) == hash(("synthetic-rho2", ("A", "B"), _tensor(SYNTHETIC_TRIPLE, Fraction),
                               (Fraction(1), Fraction(0)), (Fraction(24), Fraction(10)), 0, 0))
    gram = K3Restriction.from_ring(ring, (1, 0)).gram
    assert repr(gram) == "((Fraction(4, 1), Fraction(2, 1)), (Fraction(2, 1), Fraction(1, 1)))"


def test_a_missing_tensor_or_gram_matrix_is_a_missing_argument():
    with pytest.raises(TypeError) as error:
        ThreefoldRing(name="t", basis_labels=("A",), c1_coords=(1,), c2_values=(24,), chi_top=0, h12=0)
    assert str(error.value) == "ThreefoldRing() missing required argument 'triple'"
    with pytest.raises(TypeError) as error:
        K3Restriction(s_coords=(1,))
    assert str(error.value) == "K3Restriction() missing required argument 'gram'"


def test_ring_refuses_a_bare_string_of_labels():
    base = dict(triple=(((0, 0), (0, 0)), ((0, 0), (0, 0))), c1_coords=(1, 0), c2_values=(0, 0))
    with pytest.raises(LatticeValidationError) as error:
        ThreefoldRing(name="ab", basis_labels="ab", **base, chi_top=0, h12=0)
    assert str(error.value) == "basis labels must be a sequence of strings, got 'ab'"
    assert ThreefoldRing(name="ab", basis_labels=["a", "b"], **base, chi_top=0, h12=0).rho == 2


def test_ring_and_k3_vector_refuse_a_bare_string_of_coordinates():
    # Read as a sequence, "12" would be the coordinates (1, 2).
    base = dict(
        name="ab", basis_labels=("a", "b"), triple=(((0, 0), (0, 0)), ((0, 0), (0, 0))), chi_top=0, h12=0
    )
    for c1, c2 in (("12", (0, 0)), ((1, 2), "00")):
        with pytest.raises(TypeError, match="expected a sequence of rationals, got str"):
            ThreefoldRing(**base, c1_coords=c1, c2_values=c2)
    assert ThreefoldRing(**base, c1_coords=("1", "2"), c2_values=(0, 0)).c1_coords == (1, 2)
    with pytest.raises(TypeError, match="got str '12'"):
        K3Vector(1, "12", 0)
    with pytest.raises(TypeError, match="got bytes b'12'"):
        K3Vector(1, b"12", 0)


def test_ring_rejects_bool_chi_top_and_h12():
    base = dict(
        name="bool", basis_labels=("H",), triple=(((1,),),), c1_coords=(1,), c2_values=(0,)
    )
    with pytest.raises(LatticeValidationError):
        ThreefoldRing(**base, chi_top=True, h12=0)
    with pytest.raises(LatticeValidationError):
        ThreefoldRing(**base, chi_top=0, h12=False)


# --------------------------------------------------------------------------
# The integer kernel against a dense Fraction reference: rings whose tensor
# has fractional entries, so the common-denominator path is exercised.

ENTRIES = (0, 0, 1, -2, 5, Fraction(3, 2), Fraction(-1, 6), Fraction(7, 4), Fraction(2, 9))


def fractional_ring(rng, rho):
    values = {}
    triple = [[[None] * rho for _ in range(rho)] for _ in range(rho)]
    for i in range(rho):
        for j in range(rho):
            for k in range(rho):
                key = tuple(sorted((i, j, k)))
                triple[i][j][k] = values.setdefault(key, rng.choice(ENTRIES))
    calabi_yau = rng.random() < 0.5
    h12 = rng.randint(0, 20)
    return ThreefoldRing(
        name=f"fractional-{rho}",
        basis_labels=tuple(f"e{i}" for i in range(rho)),
        triple=triple,
        c1_coords=(0,) * rho if calabi_yau else tuple(rng.choice(ENTRIES[2:]) for _ in range(rho)),
        c2_values=tuple(rng.choice(ENTRIES) for _ in range(rho)),
        chi_top=2 * (rho - h12) if calabi_yau else rng.randint(-10, 10),
        h12=h12,
    )


def fractional_vector(rng, rho):
    return tuple(rng.choice(ENTRIES) for _ in range(rho))


def random_fractional_class(rng, ring):
    rho = ring.rho
    return ring.graded(
        a0=rng.choice(ENTRIES),
        a2=fractional_vector(rng, rho),
        a4=fractional_vector(rng, rho),
        a6=rng.choice(ENTRIES),
    )


def dense_square(ring, u, v):
    rho = ring.rho
    return tuple(
        sum(
            (u[j] * v[k] * ring.triple[j][k][i] for j in range(rho) for k in range(rho)),
            Fraction(0),
        )
        for i in range(rho)
    )


def dense_cubic(ring, u, v, w):
    return sum((a * b for a, b in zip(w, dense_square(ring, u, v))), Fraction(0))


def dense_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def dense_multiply(ring, x, y):
    """Cup product of (a0, a2, a4, a6) tuples, term by term over Fraction."""
    x0, x2, x4, x6 = x
    y0, y2, y4, y6 = y
    cross = dense_square(ring, x2, y2)
    return (
        x0 * y0,
        tuple(x0 * b + y0 * a for a, b in zip(x2, y2)),
        tuple(x0 * b + y0 * a + c for a, b, c in zip(x4, y4, cross)),
        x0 * y6 + y0 * x6 + dense_dot(x2, y4) + dense_dot(y2, x4),
    )


def dense_character(ring, rank, c1, c2, c3):
    return (
        Fraction(rank),
        tuple(c1),
        tuple((a - 2 * b) / 2 for a, b in zip(dense_square(ring, c1, c1), c2)),
        (dense_cubic(ring, c1, c1, c1) - 3 * dense_dot(c1, c2) + 3 * c3) / 6,
    )


def dense_todd(ring):
    c1, c2 = ring.c1_coords, ring.c2_values
    return (
        Fraction(1),
        tuple(a / 2 for a in c1),
        tuple((a + b) / 12 for a, b in zip(dense_square(ring, c1, c1), c2)),
        dense_dot(c1, c2) / 24,
    )


def dense_euler_chi(e1, e2):
    ring = e1.ring
    dual = dense_character(ring, e1.rank, tuple(-a for a in e1.c1), e1.c2, -e1.c3)
    ch2 = dense_character(ring, e2.rank, e2.c1, e2.c2, e2.c3)
    return dense_multiply(ring, dense_multiply(ring, ch2, dual), dense_todd(ring))[3]


@pytest.mark.parametrize("rho", [*range(1, 9), 16])
def test_integer_kernel_matches_dense_fraction_reference(rho):
    # The packed `_square` through square_to_h4, cubic, the cup product and
    # the Euler form; the packed `_rows` through the Gram matrix of a
    # section and through the twist.
    rng = random.Random(700 + rho)
    for _ in range(3 if rho <= 8 else 1):
        ring = fractional_ring(rng, rho)
        zero = (Fraction(0),) * rho
        vectors = [zero] + [fractional_vector(rng, rho) for _ in range(3)]
        for u in vectors:
            assert K3Restriction.from_ring(ring, u).gram == dense_gram(ring, u)
            for v in vectors[1:]:
                assert ring.square_to_h4(u, v) == dense_square(ring, u, v)
                assert ring.cubic(u, v, vectors[-1]) == dense_cubic(ring, u, v, vectors[-1])
        for _ in range(4):
            x, y = random_fractional_class(rng, ring), random_fractional_class(rng, ring)
            product = ring_multiply(x, y)
            assert product.components() == dense_multiply(ring, x.components(), y.components())
            assert top_degree(x, y) == product.a6
        e1, e2 = (
            ChernData(
                ring=ring,
                rank=rng.randint(1, 3),
                c1=fractional_vector(rng, rho),
                c2=fractional_vector(rng, rho),
                c3=rng.choice(ENTRIES),
            )
            for _ in range(2)
        )
        assert euler_chi(e1, e2) == dense_euler_chi(e1, e2)
        for e in (e1, e2):
            character = chern_character(e)
            assert character.components() == dense_character(ring, e.rank, e.c1, e.c2, e.c3)
            assert chern_from_character(ring, character) == e
            L, k = fractional_vector(rng, rho), rng.randint(-2, 2)
            assert twist_chern(e, L, k) == reference_twist(e, L, k)


@pytest.mark.parametrize("rho", range(1, 9))
def test_character_makes_no_checked_class(rho, monkeypatch):
    # ch(E) comes from the record's integer numerators: a fresh bundle's
    # character runs no `GradedClass.__post_init__`, and equals the dense
    # Fraction reference on fractional rings and data.
    rng = random.Random(770 + rho)
    checked = []
    original = GradedClass.__post_init__
    monkeypatch.setattr(GradedClass, "__post_init__", lambda *a: checked.append(a) or original(*a))
    for _ in range(6):
        ring = fractional_ring(rng, rho)
        c1, c2, c3 = fractional_vector(rng, rho), fractional_vector(rng, rho), rng.choice(ENTRIES)
        rank = rng.randint(1, 4)
        character = chern_character(ChernData(ring, rank, c1, c2, c3))
        assert checked == []
        assert character.components() == dense_character(ring, rank, c1, c2, c3)


@pytest.mark.parametrize("rho", range(1, 9))
def test_fixed_factor_kernels_match_the_cup_product(rho):
    rng = random.Random(750 + rho)
    for _ in range(3):
        ring = fractional_ring(rng, rho)
        for _ in range(4):
            x, y, t = (random_fractional_class(rng, ring) for _ in range(3))
            fixed = _fixed_factor(t)
            assert all(type(n) is int for row in fixed[1] for n in row)
            assert _times_fixed(x, fixed) == ring_multiply(x, t)
            # The Euler form's integer core: (_top_linear D + _bilinear) over dx dy dt D.
            (ts, rows), d, xs, ys = fixed, ring._den, x._ints, y._ints
            core = Fraction(_top_linear(xs, ys, ts) * d + _bilinear(xs[2], rows, ys[2]), xs[0] * ys[0] * ts[0] * d)
            assert core == top_degree(ring_multiply(x, y), t)


# --------------------------------------------------------------------------
# Integer classes over one denominator, against the dense Fraction
# reference: every operation, and the lowest-terms form after each.


def dense_add(x, y, sign=1):
    return (
        x[0] + sign * y[0],
        tuple(a + sign * b for a, b in zip(x[1], y[1])),
        tuple(a + sign * b for a, b in zip(x[2], y[2])),
        x[3] + sign * y[3],
    )


def dense_scale(x, factor):
    return (factor * x[0], tuple(factor * a for a in x[1]), tuple(factor * a for a in x[2]), factor * x[3])


def dense_exp(ring, v):
    square = dense_square(ring, v, v)
    return (Fraction(1), tuple(v), tuple(a / 2 for a in square), dense_dot(v, square) / 6)


def assert_lowest_terms(x):
    """den > 0 and coprime to every numerator, i.e. den is the lcm of the Fractions' denominators."""
    den, n0, n2, n4, n6 = x._ints
    assert all(type(n) is int for n in (den, n0, n6, *n2, *n4))
    assert len(n2) == len(n4) == x.ring.rho
    assert den > 0 and gcd(den, n0, n6, *n2, *n4) == 1
    a0, a2, a4, a6 = x.components()
    assert den == lcm(*(f.denominator for f in (a0, *a2, *a4, a6)))


FACTORS = (0, -1, -3, 2, Fraction(-5, 6), Fraction(7, 4), Fraction(1, 9))


@pytest.mark.parametrize("rho", range(1, 9))
def test_integer_class_operations_match_dense_fraction_reference(rho):
    rng = random.Random(800 + rho)
    for _ in range(2):
        ring = fractional_ring(rng, rho)
        x = random_fractional_class(rng, ring)
        reference = x.components()
        for _ in range(40):
            y = random_fractional_class(rng, ring)
            op = rng.choice(("add", "sub", "scale", "star", "exp", "product"))
            if op == "add":
                x, reference = x + y, dense_add(reference, y.components())
            elif op == "sub":
                x, reference = x - y, dense_add(reference, y.components(), -1)
            elif op == "scale":
                factor = rng.choice(FACTORS)
                x, reference = factor * x, dense_scale(reference, factor)
            elif op == "star":
                r0, r2, r4, r6 = reference
                x, reference = star(x), (r0, tuple(-a for a in r2), r4, -r6)
            elif op == "exp":
                v = fractional_vector(rng, rho)
                e = ring.exp_h2(v)
                assert e.components() == dense_exp(ring, v)
                assert_lowest_terms(e)
                x, reference = x * e, dense_multiply(ring, reference, dense_exp(ring, v))
            else:
                factors = [random_fractional_class(rng, ring) for _ in range(5)]
                product, dense = factors[0], factors[0].components()
                for f in factors[1:]:
                    product, dense = product * f, dense_multiply(ring, dense, f.components())
                    assert product.components() == dense
                    assert_lowest_terms(product)
                x, reference = x - product, dense_add(reference, dense, -1)
            assert x.components() == reference
            assert_lowest_terms(x)
            assert top_degree(x, y) == dense_multiply(ring, reference, y.components())[3]


@pytest.mark.parametrize("rho", range(1, 9))
def test_one_value_reached_three_ways_prints_and_hashes_alike(rho):
    rng = random.Random(850 + rho)
    ring = fractional_ring(rng, rho)
    x, y, z = (random_fractional_class(rng, ring) for _ in range(3))
    product = x * y
    built = ring.graded(*product.components())
    summed = (product - z) + z
    rebuilt = GradedClass(ring, *product.components())
    for other in (built, summed, rebuilt):
        assert other == product and product == other
        assert other._ints == product._ints
        assert hash(other) == hash(product) == hash((ring, *product.components()))
        assert repr(other) == repr(product)
        assert str(other) == str(product)
    assert repr(product).startswith(f"GradedClass(ring={ring!r}, a0={product.a0!r}, a2=")
    assert product != product + ring.graded(a6=Fraction(1, 7))


def dense_gram(ring, s):
    rho = ring.rho
    return tuple(
        tuple(sum((ring.triple[i][j][k] * s[k] for k in range(rho)), Fraction(0)) for j in range(rho))
        for i in range(rho)
    )


def dense_mat_vec(matrix, v):
    return tuple(dense_dot(row, v) for row in matrix)


def dense_mukai(ring, e):
    """ch(E) sqrt(td): y2 = x2/2, y4 = (x4 - y2^2)/2, y6 = (x6 - 2 y2.y4)/2 for td = 1 + x2 + x4 + x6."""
    _, x2, x4, x6 = dense_todd(ring)
    y2 = tuple(a / 2 for a in x2)
    y4 = tuple((a - b) / 2 for a, b in zip(x4, dense_square(ring, y2, y2)))
    sqrt_todd = (Fraction(1), y2, y4, (x6 - 2 * dense_dot(y2, y4)) / 2)
    return dense_multiply(ring, dense_character(ring, e.rank, e.c1, e.c2, e.c3), sqrt_todd)


@pytest.mark.parametrize("rho", range(1, 9))
def test_integer_restriction_matches_dense_fraction_reference(rho):
    rng = random.Random(900 + rho)
    matches = set()
    for _ in range(3):
        ring = fractional_ring(rng, rho)
        for s in ((Fraction(0),) * rho, fractional_vector(rng, rho), fractional_vector(rng, rho)):
            gram = dense_gram(ring, s)
            k3 = K3Restriction.from_ring(ring, s)
            public = K3Restriction(gram=gram, s_coords=s)
            assert k3 == public and k3.gram == gram
            u, v = fractional_vector(rng, rho), fractional_vector(rng, rho)
            assert k3.dot(u, v) == public.dot(u, v) == dense_dot(u, dense_mat_vec(gram, v))
            x = random_fractional_class(rng, ring)
            expected = K3Vector(x.a0, x.a2, dense_dot(s, x.a4))
            assert restrict_to_k3(x, k3) == restrict_to_k3(x, public) == expected
            e = ChernData(ring, rng.randint(1, 3), fractional_vector(rng, rho),
                          fractional_vector(rng, rho), rng.choice(ENTRIES))
            result = mukai_restrict(FlagDescriptor(ring=ring, s_coords=s), e)
            m = dense_mukai(ring, e)
            delta = dense_add(m, dense_multiply(ring, m, dense_exp(ring, tuple(-a for a in s))), -1)
            assert result.delta.components() == delta
            assert result.degree2_matches == (delta[1] == tuple(e.rank * a for a in s))
            assert result.degree4_matches == (delta[2] == dense_mat_vec(gram, result.vector.v2))
            matches.add(result.degree4_matches)
    assert matches == {True, False}


def test_public_restriction_still_checks_fractional_symmetry():
    gram = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(2, 6), 0))
    assert K3Restriction(gram=gram, s_coords=(1, 0)).gram[0][1] == Fraction(1, 3)
    with pytest.raises(LatticeValidationError) as error:
        K3Restriction(gram=((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), 0)), s_coords=(1, 0))
    assert str(error.value) == "gram matrix not symmetric at (0,1)"
