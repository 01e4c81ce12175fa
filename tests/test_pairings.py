"""Pairings, Euler forms, twists, reflections and restriction checks."""

import random
import warnings
from fractions import Fraction

import pytest

from mukai import (
    ChernData,
    FlagDescriptor,
    HDeclaration,
    IntegralityWarning,
    K3Vector,
    LatticeValidationError,
    ThreefoldRing,
    chern_character,
    chern_sum,
    chi_split,
    euler_chi,
    euler_chi_result,
    gluing_match,
    mukai_pairing_3fold,
    mukai_pairing_k3,
    mukai_restrict,
    mukai_vector,
    ring_multiply,
    spherical_reflect,
    sqrt_series,
    star,
    todd_class,
    top_degree,
    twist_chern,
    twist_class,
)
from mukai.rational import dot, mat_vec

from conftest import (
    cp3_quartic_flag,
    cp3_ring,
    instanton_type,
    quintic_ring,
    random_chern,
    random_cy_ring,
    random_fano_ring,
    random_fractional_chern,
    random_graded,
    synthetic_flag,
    with_denominators,
)


def line_bundle(ring, coords):
    zero = tuple(Fraction(0) for _ in range(ring.rho))
    return ChernData(ring=ring, rank=1, c1=coords, c2=zero, c3=Fraction(0))


def quiet_chi(e1, e2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegralityWarning)
        return euler_chi(e1, e2)


# --------------------------------------------------------------------------
# threefold and K3 pairings


def test_threefold_pairing_quintic_oracle():
    ring = quintic_ring()
    m_o = mukai_vector(line_bundle(ring, (0,)))
    m_h = mukai_vector(line_bundle(ring, (1,)))
    assert mukai_pairing_3fold(m_o, m_h) == 5
    assert mukai_pairing_3fold(m_h, m_o) == -5
    assert mukai_pairing_3fold(m_o, m_o) == 0


def test_threefold_pairing_is_antisymmetric():
    rng = random.Random(612)
    for _ in range(1000):
        ring = random_cy_ring(rng)
        u, v = random_graded(rng, ring), random_graded(rng, ring)
        assert mukai_pairing_3fold(u, v) == -mukai_pairing_3fold(v, u)


def test_threefold_pairing_mixes_vector_types():
    ring = quintic_ring()
    m = mukai_vector(line_bundle(ring, (1,)))
    assert mukai_pairing_3fold(m, m.graded) == 0
    with pytest.raises(TypeError):
        mukai_pairing_3fold(m, (1, 2, 3))


def test_k3_pairing_oracle_values():
    k3 = cp3_quartic_flag().k3
    v = K3Vector(2, (0,), -2)
    assert mukai_pairing_k3(k3, v, v) == 8
    assert mukai_pairing_k3(k3, K3Vector(1, (0,), 1), K3Vector(1, (0,), 1)) == -2
    assert mukai_pairing_k3(k3, K3Vector(1, (1,), 3), K3Vector(1, (1,), 3)) == -2


def test_k3_pairing_is_symmetric():
    rng = random.Random(613)
    flag = synthetic_flag()
    for _ in range(500):
        u = K3Vector(rng.randint(-3, 3), (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-3, 3))
        v = K3Vector(rng.randint(-3, 3), (rng.randint(-3, 3), rng.randint(-3, 3)), rng.randint(-3, 3))
        assert mukai_pairing_k3(flag.k3, u, v) == mukai_pairing_k3(flag.k3, v, u)


def test_k3_pairing_rank_mismatch():
    k3 = cp3_quartic_flag().k3
    for u, v, size in (((0, 0), (0,), 2), ((0,), (), 0)):
        with pytest.raises(LatticeValidationError) as error:
            mukai_pairing_k3(k3, K3Vector(1, u, 0), K3Vector(1, v, 0))
        assert str(error.value) == f"vector has {size} coordinates, lattice has rank 1"


# --------------------------------------------------------------------------
# Euler forms


def test_euler_chi_quintic_hyperplane():
    ring = quintic_ring()
    assert euler_chi(line_bundle(ring, (0,)), line_bundle(ring, (1,))) == 5


def test_euler_chi_cp3_structure_sheaf():
    ring = cp3_ring()
    o = line_bundle(ring, (0,))
    assert euler_chi(o, o) == 1


def test_euler_chi_vanishes_on_cy_diagonal():
    rng = random.Random(614)
    for _ in range(1000):
        ring = random_cy_ring(rng)
        e = random_chern(rng, ring)
        assert quiet_chi(e, e) == 0


def test_euler_chi_equals_threefold_pairing_on_cy():
    rng = random.Random(615)
    for _ in range(1000):
        ring = random_cy_ring(rng)
        e1, e2 = random_chern(rng, ring), random_chern(rng, ring)
        assert quiet_chi(e1, e2) == mukai_pairing_3fold(mukai_vector(e1), mukai_vector(e2))


def test_euler_chi_requires_common_ring():
    with pytest.raises(LatticeValidationError):
        euler_chi(line_bundle(quintic_ring(), (0,)), line_bundle(cp3_ring(), (0,)))


def fractional_chi_ring():
    return ThreefoldRing(
        name="odd-cubic",
        basis_labels=("H",),
        triple=(((1,),),),
        c1_coords=(0,),
        c2_values=(1,),
        chi_top=0,
        h12=1,
    )


def test_euler_chi_warns_on_fractional_value():
    ring = fractional_chi_ring()
    o = line_bundle(ring, (0,))
    h = line_bundle(ring, (1,))
    with pytest.warns(IntegralityWarning, match="fractional"):
        value = euler_chi(o, h)
    assert value == Fraction(1, 4)


def test_euler_chi_result_carries_the_note():
    ring = fractional_chi_ring()
    noisy = euler_chi_result(line_bundle(ring, (0,)), line_bundle(ring, (1,)))
    assert noisy.value == Fraction(1, 4)
    assert "fractional" in noisy.integrality_note
    quiet = euler_chi_result(line_bundle(quintic_ring(), (0,)), line_bundle(quintic_ring(), (1,)))
    assert quiet.value == 5
    assert quiet.integrality_note is None


def test_chi_split_on_cp3():
    ring = cp3_ring()
    plus, minus = chi_split(line_bundle(ring, (0,)), line_bundle(ring, (1,)))
    assert (plus, minus) == (2, 2)


def test_chi_split_reassembles_chi():
    rng = random.Random(616)
    for _ in range(500):
        ring = random_fano_ring(rng)
        e1, e2 = random_chern(rng, ring), random_chern(rng, ring)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegralityWarning)
            plus, minus = chi_split(e1, e2)
            assert plus + minus == euler_chi(e1, e2)
            assert plus - minus == euler_chi(e2, e1)


@pytest.mark.filterwarnings("ignore::mukai.IntegralityWarning")
def test_chi_split_is_the_half_sum_and_half_difference_of_chi():
    # One integer pass shares the denominator and the square term of both
    # orders; here each order is its own `euler_chi`, on fractional data.
    rng = random.Random(2210)
    for case in range(200):
        rho = case % 8 + 1
        ring = with_denominators(rng, (random_cy_ring if case % 3 == 0 else random_fano_ring)(rng, rho))
        e1, e2 = random_fractional_chern(rng, ring), random_fractional_chern(rng, ring)
        forward, backward = euler_chi(e1, e2), euler_chi(e2, e1)
        plus, minus = chi_split(e1, e2)
        assert (plus, minus) == ((forward + backward) / 2, (forward - backward) / 2)
        assert type(plus) is type(minus) is Fraction


def test_euler_form_and_its_split_need_one_ring():
    e1, e2 = line_bundle(cp3_ring(), (1,)), line_bundle(quintic_ring(), (1,))
    for form in (euler_chi_result, chi_split):
        with pytest.raises(LatticeValidationError) as error:
            form(e1, e2)
        assert str(error.value) == "Euler form needs both types on the same ring"


def test_chi_split_skew_on_cy():
    rng = random.Random(617)
    for _ in range(500):
        ring = random_cy_ring(rng)
        e1, e2 = random_chern(rng, ring), random_chern(rng, ring)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegralityWarning)
            plus, _ = chi_split(e1, e2)
        assert plus == 0


# --------------------------------------------------------------------------
# twists and reflections


def test_twist_class_is_a_group_action():
    rng = random.Random(618)
    for _ in range(500):
        ring = random_fano_ring(rng)
        m = random_graded(rng, ring)
        coords = tuple(rng.randint(-2, 2) for _ in range(ring.rho))
        k = rng.randint(-3, 3)
        assert twist_class(m, coords, 0) == m
        assert twist_class(twist_class(m, coords, k), coords, -k) == m
        assert twist_class(twist_class(m, coords, 1), coords, 1) == twist_class(m, coords, 2)


@pytest.mark.parametrize("k", ["2", 1.5, True, Fraction(1, 2)], ids=repr)
def test_twists_refuse_a_power_that_is_not_an_int(k):
    e = instanton_type()
    for twist, x in ((twist_chern, e), (twist_class, chern_character(e))):
        with pytest.raises(LatticeValidationError) as error:
            twist(x, (1,), k)
        assert str(error.value) == f"twist power k must be an integer, got {k!r}"


def test_simultaneous_twist_preserves_chi():
    rng = random.Random(619)

    for _ in range(1000):
        ring = random_cy_ring(rng) if rng.random() < 0.5 else random_fano_ring(rng)
        e1, e2 = random_chern(rng, ring), random_chern(rng, ring)
        coords = tuple(rng.randint(-2, 2) for _ in range(ring.rho))
        k = rng.randint(-3, 3)
        t1 = twist_chern(e1, coords, k)
        t2 = twist_chern(e2, coords, k)
        assert quiet_chi(t1, t2) == quiet_chi(e1, e2)


def test_reflection_quintic_oracle():
    ring = quintic_ring()
    m = mukai_vector(line_bundle(ring, (0,))).graded
    mp = mukai_vector(line_bundle(ring, (1,))).graded
    value = euler_chi(line_bundle(ring, (0,)), line_bundle(ring, (1,)))
    reflected = spherical_reflect(m, mp, value)
    assert reflected.components() == (-6, (-1,), (-15,), Fraction(-35, 12))


def test_double_reflection_identity_on_cy():
    """alpha^2(m') - m' = 2 (m, m') m when the coupling is the pairing."""
    rng = random.Random(620)
    for _ in range(1000):
        ring = random_cy_ring(rng)
        m, mp = random_graded(rng, ring), random_graded(rng, ring)
        p = mukai_pairing_3fold(m, mp)
        once = spherical_reflect(m, mp, p)
        twice = spherical_reflect(m, once, mukai_pairing_3fold(m, once))
        assert twice - mp == (2 * p) * m


def flat_coords(x):
    return (x.a0, *x.a2, *x.a4, x.a6)


def test_reflection_kills_the_root_pairing():
    """With h(m,m) = -1 the reflected class is h-orthogonal to m."""
    rng = random.Random(621)
    cases = 0
    while cases < 1000:
        ring = random_fano_ring(rng)
        m, mp = random_graded(rng, ring), random_graded(rng, ring)
        size = 2 * ring.rho + 2
        sym = [[Fraction(rng.randint(-2, 2)) for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for j in range(i):
                sym[i][j] = sym[j][i]

        def h(x, y):
            xs, ys = flat_coords(x), flat_coords(y)
            return sum(xs[i] * sym[i][j] * ys[j] for i in range(size) for j in range(size))

        norm = h(m, m)
        if norm == 0:
            continue
        scale = Fraction(-1) / norm
        reflected = spherical_reflect(m, mp, scale * h(m, mp))
        assert scale * h(m, reflected) == 0
        cases += 1


def test_h_declaration_validates_integer():
    e = instanton_type()
    assert HDeclaration(e1=e, e2=e, value=-1).value == -1
    with pytest.raises(LatticeValidationError):
        HDeclaration(e1=e, e2=e, value=Fraction(1, 2))


def test_h_declaration_rejects_bool():
    e = instanton_type()
    with pytest.raises(LatticeValidationError):
        HDeclaration(e1=e, e2=e, value=True)


# --------------------------------------------------------------------------
# restriction and gluing


def test_mukai_restrict_instanton_oracle():
    flag = cp3_quartic_flag()
    result = mukai_restrict(flag, instanton_type(flag.ring))
    assert result.vector == K3Vector(2, (0,), -2)
    assert result.delta.a0 == 0
    assert result.degree2_matches
    assert not result.degree4_matches
    assert "degree-0 is structurally 0" in result.note


def test_mukai_restrict_degree2_always_matches():
    rng = random.Random(622)
    flag = cp3_quartic_flag()
    other = synthetic_flag()
    for _ in range(500):
        choice = flag if rng.random() < 0.5 else other
        e = random_chern(rng, choice.ring)
        result = mukai_restrict(choice, e)
        assert result.degree2_matches
        assert result.delta.a0 == 0
        assert result.delta.a2 == tuple(e.rank * s for s in choice.s_coords)


def test_mukai_restrict_is_additive():
    rng = random.Random(623)
    flag = cp3_quartic_flag()
    for _ in range(300):
        e1 = random_chern(rng, flag.ring)
        e2 = random_chern(rng, flag.ring)
        total = mukai_restrict(flag, chern_sum(e1, e2)).vector
        assert total == mukai_restrict(flag, e1).vector + mukai_restrict(flag, e2).vector


def test_mukai_restrict_ring_mismatch():
    with pytest.raises(LatticeValidationError):
        mukai_restrict(cp3_quartic_flag(), line_bundle(quintic_ring(), (0,)))


def test_gluing_match_identity_and_sign_flip():
    k3 = cp3_quartic_flag().k3
    v = K3Vector(2, (0,), -2)
    assert gluing_match(k3, ((1,),), v, v)
    assert gluing_match(k3, ((-1,),), K3Vector(2, (-1,), 0), K3Vector(2, (1,), 0))
    assert not gluing_match(k3, ((1,),), v, K3Vector(2, (1,), -2))


def test_gluing_match_rejects_non_isometry():
    k3 = cp3_quartic_flag().k3
    v = K3Vector(1, (0,), 0)
    with pytest.raises(LatticeValidationError, match="isometry"):
        gluing_match(k3, ((2,),), v, v)
    with pytest.raises(LatticeValidationError, match="size"):
        gluing_match(k3, ((1, 0), (0, 1)), v, v)


# --------------------------------------------------------------------------
# The Euler form, m(E) and the restriction diagnostic against full cup
# products: the library multiplies by td and sqrt(td) through their kept
# rows instead.


def reference_chi(e1, e2):
    """chi(E1, E2) = [ch(E2) . star(ch(E1)) . td]_6 through a full `ring_multiply`."""
    return top_degree(chern_character(e2) * star(chern_character(e1)), todd_class(e1.ring))


def reference_mukai(e):
    return ring_multiply(chern_character(e), sqrt_series(todd_class(e.ring)))


def reference_restrict(flag, e):
    """(vector, delta, degree2_matches, degree4_matches) of `mukai_restrict`, in Fractions."""
    ch, s = chern_character(e), flag.s_coords
    vector = K3Vector(ch.a0, ch.a2, dot(ch.a4, s) + e.rank)
    m = reference_mukai(e)
    delta = m - ring_multiply(m, flag.ring.exp_h2(tuple(-a for a in s)))
    return (
        vector,
        delta,
        delta.a2 == tuple(e.rank * a for a in s),
        delta.a4 == mat_vec(flag.k3.gram, vector.v2),
    )


def test_fixed_factor_paths_match_the_full_products():
    rng = random.Random(20261019)
    kinds, matches = set(), set()
    for _ in range(500):
        rho = rng.randint(1, 8)
        ring = random_cy_ring(rng, rho) if rng.random() < 0.5 else random_fano_ring(rng, rho)
        ring = with_denominators(rng, ring)
        s = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(rho))
        flag = FlagDescriptor(ring=ring, s_coords=s)
        e1, e2 = random_chern(rng, ring, ("E1",)), random_chern(rng, ring, ("E2",))
        forward, backward = reference_chi(e1, e2), reference_chi(e2, e1)
        assert euler_chi_result(e1, e2).value == forward
        assert chi_split(e1, e2) == ((forward + backward) / 2, (forward - backward) / 2)
        for e in (e1, e2):
            assert mukai_vector(e).graded == reference_mukai(e)
            result = mukai_restrict(flag, e)
            expected = reference_restrict(flag, e)
            assert (result.vector, result.delta, result.degree2_matches, result.degree4_matches) == expected
            matches.add(expected[3])
        kinds.add(ring.is_calabi_yau)
    assert kinds == matches == {True, False}
