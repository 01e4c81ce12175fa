"""Chern characters, Todd classes, square roots and Mukai vectors."""

import gc
import random
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mukai import (
    ChernData,
    FlagDescriptor,
    GradedClass,
    K3Vector,
    LatticeValidationError,
    ThreefoldRing,
    chern_character,
    chern_from_character,
    chern_sum,
    dual_chern,
    euler_chi,
    k3_mukai_vector,
    mukai_restrict,
    mukai_vector,
    sqrt_series,
    structure_sheaf_chi,
    todd_class,
    twist_chern,
)
from mukai.rational import dot

from conftest import (
    cp3_quartic_flag,
    cp3_ring,
    instanton_type,
    quintic_ring,
    random_chern,
    random_cy_ring,
    random_fano_ring,
    random_fraction,
    random_fractional_chern,
    random_graded,
    synthetic_flag,
    with_denominators,
)


def line_bundle(ring, coords):
    rho = ring.rho
    c2 = tuple(Fraction(0) for _ in range(rho))
    return ChernData(ring=ring, rank=1, c1=coords, c2=c2, c3=Fraction(0))


def test_chern_data_validation():
    ring = quintic_ring()
    with pytest.raises(LatticeValidationError):
        ChernData(ring=ring, rank=0, c1=(0,), c2=(0,), c3=0)
    with pytest.raises(LatticeValidationError):
        ChernData(ring=ring, rank=2, c1=(0, 0), c2=(0,), c3=0)
    e = ChernData(ring=ring, rank=2, c1=(1,), c2=("1/2",), c3=0)
    assert not e.is_integral
    assert instanton_type().is_integral


def test_chern_data_rejects_bool_rank():
    with pytest.raises(LatticeValidationError):
        ChernData(ring=quintic_ring(), rank=True, c1=(0,), c2=(0,), c3=0)


def test_chern_data_refuses_a_bare_string_of_labels():
    with pytest.raises(LatticeValidationError) as error:
        ChernData(ring=quintic_ring(), rank=1, c1=(0,), c2=(0,), c3=0, labels="E1")
    assert str(error.value) == "labels must be a sequence of strings, got 'E1'"
    assert ChernData(ring=quintic_ring(), rank=1, c1=(0,), c2=(0,), c3=0, labels=["E1"]).labels == ("E1",)


def test_chern_character_of_hyperplane_bundle():
    ring = quintic_ring()
    ch = chern_character(line_bundle(ring, (1,)))
    assert ch.components() == (1, (1,), (Fraction(5, 2),), Fraction(5, 6))


def test_chern_character_of_instanton_type():
    ch = chern_character(instanton_type())
    assert ch.components() == (2, (0,), (-1,), 0)


def test_character_inversion_round_trip():
    rng = random.Random(11)
    for _ in range(500):
        ring = random_cy_ring(rng) if rng.random() < 0.5 else random_fano_ring(rng)
        e = random_chern(rng, ring)
        back = chern_from_character(ring, chern_character(e))
        assert back.rank == e.rank
        assert back.c1 == e.c1
        assert back.c2 == e.c2
        assert back.c3 == e.c3


def test_character_inversion_needs_positive_rank():
    ring = quintic_ring()
    for bad, a0 in (("1/2", "1/2"), (0, "0"), (-1, "-1"), ("3/2", "3/2"), ("4/3", "4/3")):
        with pytest.raises(LatticeValidationError) as error:
            chern_from_character(ring, ring.graded(a0=bad, a4=("1/2",), a6="1/3"))
        assert str(error.value) == f"character degree-0 part {a0} is not a positive rank"
    # Over the class's denominator 6 the rank is 12/6: integral all the same.
    e = chern_from_character(ring, ring.graded(a0=2, a2=("1/2",), a6="1/3"))
    assert e.rank == 2 and type(e.rank) is int


def test_integrality_matches_the_coefficients():
    rng = random.Random(71)
    values = (0, 1, -2, Fraction(1, 2), Fraction(-4, 3))
    for _ in range(200):
        ring = random_cy_ring(rng) if rng.random() < 0.5 else random_fano_ring(rng)
        rho = ring.rho
        e = ChernData(ring, rng.randint(1, 3), [rng.choice(values) for _ in range(rho)],
                      [rng.choice(values) for _ in range(rho)], rng.choice(values))
        before = (hash(e), repr(e))
        integral = all(x.denominator == 1 for x in (*e.c1, *e.c2, e.c3))
        assert e.is_integral == integral == e.is_integral
        assert "is_integral" in vars(e) and (hash(e), repr(e)) == before
        m = mukai_vector(e)
        g = m.graded
        assert m.is_integral == all(x.denominator == 1 for x in (g.a0, *g.a2, *g.a4, g.a6))


def test_dual_chern_flips_odd_classes():
    e = ChernData(ring=quintic_ring(), rank=2, c1=(3,), c2=(7,), c3=Fraction(5))
    d = dual_chern(e)
    assert (d.rank, d.c1, d.c2, d.c3) == (2, (-3,), (7,), -5)
    assert chern_character(d).a2 == (-3,)


def test_twist_chern_instanton_by_hyperplane():
    twisted = twist_chern(instanton_type(), (1,), 1)
    assert (twisted.rank, twisted.c1, twisted.c2, twisted.c3) == (2, (2,), (2,), 0)


def reference_twist(e, L, k=1):
    """The character route: ch(E x L^k) = ch(E) e^{kL}, inverted back to Chern data."""
    exp_kL = e.ring.exp_h2(tuple(k * Fraction(a) for a in L))
    return chern_from_character(e.ring, chern_character(e) * exp_kL, e.labels)


def test_whitney_twist_matches_the_character_route():
    # Ranks 1 and 2 make (r-2) negative and zero, and C(r-1,2), C(r,3) zero.
    rng = random.Random(71)
    ranks, ks = set(), set()
    for case in range(240):
        rho = case % 8 + 1
        ring = with_denominators(rng, (random_cy_ring if rng.random() < 0.3 else random_fano_ring)(rng, rho))
        e = random_fractional_chern(rng, ring, max_rank=7, labels=("E",))
        L = [random_fraction(rng) for _ in range(rho)]
        k = rng.randint(-3, 3)
        twisted = twist_chern(e, L, k)
        assert twisted == reference_twist(e, L, k), (e, L, k)
        assert twisted.labels == ("E",)
        ranks.add(e.rank)
        ks.add(k)
    assert ranks == set(range(1, 8)) and ks == set(range(-3, 4))


def test_twist_checks_the_length_of_the_line_bundle():
    with pytest.raises(LatticeValidationError) as error:
        twist_chern(instanton_type(), (1, 0))
    assert str(error.value) == "vector has 2 coordinates, ring has rho=1"


def test_twist_reads_the_line_bundle_as_integers_fractions_or_strings_alike():
    # L goes through the ring's one checked route to integer numerators: an
    # int makes no Fraction, and every refusal of `as_vector` stays as it was.
    rng = random.Random(73)
    ring = with_denominators(rng, random_fano_ring(rng, 3))
    e = random_fractional_chern(rng, ring, labels=("E",))
    for numbers, fractions, strings in (
        ((2, -1, 0), (Fraction(4, 2), Fraction(-1), Fraction(0)), ("2", "-1", "0/5")),
        ((Fraction(1, 2), 0, -3), (Fraction(1, 2), Fraction(0), Fraction(-3)), ("1/2", "0", "-6/2")),
    ):
        for k in (-2, 1, 3):
            twisted = twist_chern(e, numbers, k)
            assert twisted == twist_chern(e, fractions, k) == twist_chern(e, strings, k)
            assert twisted == reference_twist(e, fractions, k)
    for L, error, message in (
        ((True, 0, 0), TypeError, "expected a rational number, got bool True"),
        ((1.0, 0, 0), TypeError, "expected int, Fraction or 'p/q' string, got float"),
        (("1.5", 0, 0), ValueError, "expected an integer or 'p/q' string, got '1.5'"),
        ((1, 0), LatticeValidationError, "vector has 2 coordinates, ring has rho=3"),
        ("120", TypeError, "expected a sequence of rationals, got str '120'"),
        (b"120", TypeError, "expected a sequence of rationals, got bytes b'120'"),
    ):
        with pytest.raises(error) as info:
            twist_chern(e, L)
        assert str(info.value) == message


def test_twist_chern_group_action():
    rng = random.Random(31)
    for _ in range(300):
        ring = random_fano_ring(rng)
        e = random_chern(rng, ring)
        coords = tuple(rng.randint(-2, 2) for _ in range(ring.rho))
        k = rng.randint(-3, 3)
        once = twist_chern(twist_chern(e, coords, k), coords, -k)
        assert (once.rank, once.c1, once.c2, once.c3) == (e.rank, e.c1, e.c2, e.c3)


def test_chern_sum_is_whitney_additive_on_characters():
    rng = random.Random(41)
    for _ in range(300):
        ring = random_cy_ring(rng)
        e1, e2 = random_chern(rng, ring), random_chern(rng, ring)
        total = chern_sum(e1, e2)
        assert chern_character(total) == chern_character(e1) + chern_character(e2)
        assert total.rank == e1.rank + e2.rank


def test_chern_sum_needs_one_ring():
    with pytest.raises(LatticeValidationError) as error:
        chern_sum(instanton_type(), line_bundle(quintic_ring(), (1,)))
    assert str(error.value) == "summands live on different rings"


def test_todd_class_on_quintic_and_cp3():
    assert todd_class(quintic_ring()).components() == (1, (0,), (Fraction(25, 6),), 0)
    assert todd_class(cp3_ring()).components() == (1, (2,), (Fraction(11, 6),), 1)


def test_sqrt_series_oracle_values():
    assert sqrt_series(todd_class(quintic_ring())).components() == (
        1,
        (0,),
        (Fraction(25, 12),),
        0,
    )
    assert sqrt_series(todd_class(cp3_ring())).components() == (
        1,
        (1,),
        (Fraction(5, 12),),
        Fraction(1, 12),
    )


def test_sqrt_series_round_trip():
    rng = random.Random(51)
    for _ in range(1000):
        ring = random_cy_ring(rng) if rng.random() < 0.5 else random_fano_ring(rng)
        x = random_graded(rng, ring)
        x = ring.graded(1, x.a2, x.a4, x.a6)
        y = sqrt_series(x)
        assert y * y == x


def reference_todd(ring):
    """td = 1 + c1/2 + (c1^2 + c2)/12 + c1.c2/24 in `Fraction`s: the reference for `todd_class`."""
    c1_sq = ring.square_to_h4(ring.c1_coords, ring.c1_coords)
    td2 = tuple(a / 2 for a in ring.c1_coords)
    td4 = tuple((a + b) / 12 for a, b in zip(c1_sq, ring.c2_values))
    return ring.graded(a0=1, a2=td2, a4=td4, a6=dot(ring.c1_coords, ring.c2_values) / 24)


def reference_sqrt_series(x):
    """y2 = x2/2, y4 = (x4 - y2^2)/2, y6 = (x6 - 2 y2.y4)/2 in `Fraction`s: the reference for `sqrt_series`."""
    ring = x.ring
    y2 = tuple(a / 2 for a in x.a2)
    y2_sq = ring.square_to_h4(y2, y2)
    y4 = tuple((a - b) / 2 for a, b in zip(x.a4, y2_sq))
    return ring.graded(a0=1, a2=y2, a4=y4, a6=(x.a6 - 2 * dot(y2, y4)) / 2)


def test_integer_todd_and_square_root_match_the_fraction_formulas():
    rng = random.Random(20261019)
    for i in range(300):
        ring = (random_cy_ring if i % 2 else random_fano_ring)(rng, 1 + i % 8)
        if i % 3:
            ring = with_denominators(rng, ring)
        td = todd_class(ring)
        assert td == reference_todd(ring), ring
        assert sqrt_series(td) == reference_sqrt_series(td), ring
        x = random_graded(rng, ring)
        x = ring.graded(1, x.a2, x.a4, x.a6)
        assert sqrt_series(x) == reference_sqrt_series(x), x


def test_sqrt_series_requires_unit_part():
    ring = quintic_ring()
    with pytest.raises(LatticeValidationError):
        sqrt_series(ring.graded(a0=4))


def test_mukai_vector_of_structure_sheaf_on_quintic():
    ring = quintic_ring()
    m = mukai_vector(line_bundle(ring, (0,)))
    assert m.graded.components() == (1, (0,), (Fraction(25, 12),), 0)
    assert m.normalization == "cy3-full-todd"
    assert not m.is_integral


def test_mukai_vector_of_hyperplane_on_quintic():
    ring = quintic_ring()
    m = mukai_vector(line_bundle(ring, (1,)))
    assert m.graded.components() == (1, (1,), (Fraction(55, 12),), Fraction(35, 12))


def test_mukai_vector_normalization_tag_on_fano():
    m = mukai_vector(instanton_type())
    assert m.normalization == "fano-full-todd"
    assert m.graded.ring.name == "cp3-quartic"
    assert str(m) == f"{m.graded} [fano-full-todd]"


def test_k3_mukai_vector_of_instanton():
    flag = cp3_quartic_flag()
    assert k3_mukai_vector(flag, instanton_type(flag.ring)) == K3Vector(2, (0,), -2)


def test_k3_mukai_vector_of_line_bundles_on_quartic():
    flag = cp3_quartic_flag()
    o_y = line_bundle(flag.ring, (0,))
    o_h = line_bundle(flag.ring, (1,))
    assert k3_mukai_vector(flag, o_y) == K3Vector(1, (0,), 1)
    assert k3_mukai_vector(flag, o_h) == K3Vector(1, (1,), 3)


def test_k3_mukai_vector_rejects_unrelated_objects():
    flag = cp3_quartic_flag()
    for other in (object(), flag.k3):  # a bare restriction carries no ring to check
        with pytest.raises(TypeError):
            k3_mukai_vector(other, instanton_type(flag.ring))


def test_k3_mukai_vector_checks_the_restriction_rank():
    # An object that carries the bundle's ring but a K3 restriction of another rank.
    flag = cp3_quartic_flag()
    other = SimpleNamespace(ring=flag.ring, k3=synthetic_flag().k3)
    with pytest.raises(LatticeValidationError, match="restriction rank"):
        k3_mukai_vector(other, instanton_type(flag.ring))


def test_structure_sheaf_chi():
    assert structure_sheaf_chi(cp3_ring()) == 1
    assert structure_sheaf_chi(quintic_ring()) == 0


# --------------------------------------------------------------------------
# The per-ring Todd cache


def rebuilt(ring):
    """A second ring built from the same data, with an empty cache."""
    return ThreefoldRing(
        ring.name, ring.basis_labels, ring.triple, ring.c1_coords, ring.c2_values,
        ring.chi_top, ring.h12,
    )


def test_cached_todd_and_mukai_values_equal_a_fresh_computation():
    rng = random.Random(41)
    for _ in range(50):
        ring = random_cy_ring(rng) if rng.random() < 0.5 else random_fano_ring(rng)
        e = random_chern(rng, ring)
        for _ in range(2):  # the second round reads the cache
            fresh = rebuilt(ring)
            assert todd_class(ring) == todd_class(fresh)
            assert mukai_vector(e) == mukai_vector(ChernData(fresh, e.rank, e.c1, e.c2, e.c3))


def test_filled_cache_leaves_ring_equality_hash_and_repr_alone():
    ring = random_fano_ring(random.Random(42), rho=3)
    before = (hash(ring), repr(ring))
    mukai_vector(random_chern(random.Random(43), ring))
    todd_class(ring)
    assert (hash(ring), repr(ring)) == before
    assert ring == rebuilt(ring) and hash(ring) == hash(rebuilt(ring))


def test_filled_factor_leaves_flag_and_restriction_equality_hash_and_repr_alone():
    ring = random_fano_ring(random.Random(44), rho=3)
    flag = FlagDescriptor(ring=ring, s_coords=ring.c1_coords)
    before = (hash(flag), repr(flag), hash(flag.k3), repr(flag.k3))
    mukai_restrict(flag, random_chern(random.Random(45), ring))
    assert "_one_minus_exp_minus_s" in vars(flag)
    assert (hash(flag), repr(flag), hash(flag.k3), repr(flag.k3)) == before
    fresh = FlagDescriptor(ring=rebuilt(ring), s_coords=ring.c1_coords)
    assert flag == fresh and fresh == flag and hash(flag) == hash(fresh)
    assert flag.k3 == fresh.k3 and hash(flag.k3) == hash(fresh.k3)


def test_ring_is_freed_with_its_last_reference():
    # A cache that kept classes (which point back at their ring) would
    # form a cycle, and the ring would outlive its last reference until a
    # full GC pass.  A flag, its K3 restriction and the restriction
    # diagnostic must not keep one either.
    enabled = gc.isenabled()
    gc.disable()
    try:
        ring = quintic_ring()
        flag = FlagDescriptor(ring=ring, s_coords=(1,))
        o = ChernData(ring=ring, rank=1, c1=(0,), c2=(0,), c3=0)
        o1 = ChernData(ring=ring, rank=1, c1=(1,), c2=(0,), c3=0)
        todd, m = todd_class(ring), mukai_vector(o)
        restricted = mukai_restrict(flag, o1)
        twisted = twist_chern(o1, (1,), 2)
        k3 = flag.k3
        alive = [weakref.ref(x) for x in (ring, flag, k3, todd, m, m.graded, restricted.delta, o1, twisted)]
        assert m.graded.components() == (1, (0,), (Fraction(25, 12),), 0)
        assert euler_chi(o, o1) == 5
        # Each kept factor is integers only, never a class: the `_ints`
        # tuple (den, n0, n2, n4, n6) and the rho x rho rows of its H^2 part,
        # which for td are also the matrix of the Euler form's square term.
        # The flag keeps 1 - e^{-S} the same way.
        assert {"_td", "_sqrt_td"} <= vars(ring).keys()
        kept = [vars(ring)["_td"], vars(ring)["_sqrt_td"], vars(flag)["_one_minus_exp_minus_s"]]
        for (den, n0, n2, n4, n6), rows in kept:
            assert all(type(n) is int for n in (den, n0, *n2, *n4, n6))
            assert type(rows) is tuple and len(rows) == ring.rho
            assert all(type(row) is tuple and len(row) == ring.rho for row in rows)
            assert all(type(n) is int for row in rows for n in row)
        # A twisted bundle keeps c1 and c2 of its source as integer numerators
        # over their denominators: (n, a), (m, b), with n and m tuples.
        for nums, den in vars(o1)["_nums"]:
            assert type(nums) is tuple and len(nums) == ring.rho
            assert all(type(n) is int for n in (*nums, den))
        del ring, flag, k3, o, o1, todd, m, restricted, twisted
        assert [ref() for ref in alive] == [None] * 9
    finally:
        if enabled:
            gc.enable()


# --------------------------------------------------------------------------
# The per-record character memo


# On random rings chi may be fractional, which warns.
@pytest.mark.filterwarnings("ignore::mukai.IntegralityWarning")
def test_memoized_character_values_equal_a_fresh_computation():
    rng = random.Random(61)
    for _ in range(50):
        ring = random_cy_ring(rng) if rng.random() < 0.5 else random_fano_ring(rng)
        e, other = random_chern(rng, ring), random_chern(rng, ring)
        L = tuple(rng.randint(-2, 2) for _ in range(ring.rho))
        for _ in range(2):  # the second round reads the memo
            fresh = ChernData(ring, e.rank, e.c1, e.c2, e.c3)
            assert chern_character(e) == chern_character(fresh)
            assert mukai_vector(e) == mukai_vector(fresh)
            assert euler_chi(e, other) == euler_chi(fresh, other)
            assert euler_chi(other, e) == euler_chi(other, fresh)
            assert twist_chern(e, L, 2) == twist_chern(fresh, L, 2)
            assert dual_chern(e) == dual_chern(fresh)
            assert chern_sum(e, other) == chern_sum(fresh, other)


def test_character_is_computed_once_per_record():
    e = instanton_type(cp3_ring())
    assert chern_character(e) is chern_character(e)
    assert chern_character(ChernData(e.ring, e.rank, e.c1, e.c2, e.c3)) is not chern_character(e)


def test_filled_memo_leaves_chern_data_equality_hash_and_repr_alone():
    ring = random_fano_ring(random.Random(62), rho=3)
    e = random_chern(random.Random(63), ring)
    before = (hash(e), repr(e))
    mukai_vector(e)
    twist_chern(e, (1, 0, -1))
    assert "_ch" in vars(e) and "_nums" in vars(e)
    assert (hash(e), repr(e)) == before
    fresh = ChernData(ring, e.rank, e.c1, e.c2, e.c3)
    assert e == fresh and fresh == e and hash(e) == hash(fresh)


def test_mukai_vector_is_computed_once_per_record():
    e = instanton_type(cp3_ring())
    assert mukai_vector(e) is mukai_vector(e)
    assert mukai_vector(ChernData(e.ring, e.rank, e.c1, e.c2, e.c3)) is not mukai_vector(e)
    # The restriction diagnostic reads the kept vector, and keeps it for later reads.
    flag = cp3_quartic_flag()
    e = instanton_type(flag.ring)
    mukai_restrict(flag, e)
    m = vars(e)["_mukai"]
    assert mukai_vector(e) is m
    mukai_restrict(flag, e)
    assert vars(e)["_mukai"] is m


def test_filled_caches_leave_bundle_vector_and_class_equality_hash_repr_and_fields_alone():
    ring = with_denominators(random.Random(64), random_fano_ring(random.Random(65), rho=3))
    e = random_fractional_chern(random.Random(66), ring)
    # A twin whose caches stay empty until the comparisons below read them.
    twin = ChernData(ring, e.rank, e.c1, e.c2, e.c3, e.labels)
    before = (hash(e), repr(e), e.as_dict())
    m = mukai_vector(e)
    mukai_restrict(FlagDescriptor(ring=ring, s_coords=ring.c1_coords), e)
    for x in (m.graded, chern_character(e)):
        x.components()
    assert {"_ch", "_mukai"} <= vars(e).keys()
    assert {"a0", "a2", "a4", "a6"} <= vars(m.graded).keys()
    assert (hash(e), repr(e), e.as_dict()) == before
    assert e == twin and twin == e and hash(e) == hash(twin) and repr(e) == repr(twin)
    fresh = mukai_vector(twin)
    assert fresh is not m and not vars(fresh.graded).keys() & {"a0", "a2", "a4", "a6"}
    for kept, made in ((m, fresh), (m.graded, GradedClass._exact(ring=ring, _ints=m.graded._ints))):
        assert (hash(kept), repr(kept), kept.as_dict()) == (hash(made), repr(made), made.as_dict())
        assert kept == made and made == kept


def test_bundle_with_a_read_vector_and_coefficients_is_freed_with_its_ring():
    # m(E) and the coefficients kept on it point at the ring, never back, so
    # plain reference counting frees all of them.
    enabled = gc.isenabled()
    gc.disable()
    try:
        ring = quintic_ring()
        flag = FlagDescriptor(ring=ring, s_coords=(1,))
        e = ChernData(ring=ring, rank=2, c1=(Fraction(1, 3),), c2=(Fraction(5, 2),), c3=Fraction(1, 5))
        m, restricted = mukai_vector(e), mukai_restrict(flag, e)
        for x in (m.graded, chern_character(e), restricted.delta):
            x.components()
        assert vars(e)["_mukai"] is m and "a4" in vars(m.graded)
        alive = [weakref.ref(x) for x in (ring, flag, e, m, m.graded, chern_character(e), restricted.delta)]
        del ring, flag, e, m, restricted, x
        assert [ref() for ref in alive] == [None] * 7
    finally:
        if enabled:
            gc.enable()


def test_bundle_data_and_twist_refuse_a_bare_string():
    quintic = quintic_ring()
    for c1, c2 in (("1", "0"), ((1,), "0")):
        with pytest.raises(TypeError, match="expected a sequence of rationals, got str"):
            ChernData(quintic, 1, c1, c2, 0)
    e = ChernData(quintic, 1, ("1",), ("0",), 0)
    assert e == ChernData(quintic, 1, (1,), (0,), 0)
    with pytest.raises(TypeError, match="got str '2'"):
        twist_chern(e, "2")
    assert twist_chern(e, ("2",)) == twist_chern(e, (2,))


def test_ring_and_bundle_are_freed_with_their_last_reference():
    # The memo points at a class, which points at the ring; neither points
    # back, so plain reference counting frees both.
    enabled = gc.isenabled()
    gc.disable()
    try:
        ring = quintic_ring()
        o1 = ChernData(ring=ring, rank=1, c1=(1,), c2=(0,), c3=0)
        alive = (weakref.ref(ring), weakref.ref(o1), weakref.ref(chern_character(o1)))
        assert euler_chi(o1, o1) == 0 and mukai_vector(o1) == mukai_vector(o1)
        assert twist_chern(o1, (1,), -1).c1 == (0,)
        del ring, o1
        assert [ref() for ref in alive] == [None, None, None]
    finally:
        if enabled:
            gc.enable()
