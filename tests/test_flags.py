"""Flag validation, doubles, joint kernels and deformation counts."""

import random
from fractions import Fraction

import pytest

from mukai import (
    FlagDescriptor,
    LatticeValidationError,
    build_double,
    deformation_dims,
    joint_obstruction_kernel,
    make_gluing,
    obstruction_kernel,
    smooth_total_space,
    twisted_double_smoothable,
    validate_flag,
)
from mukai.flags import GluingDescriptor

from conftest import (
    cp3_quartic_flag,
    quintic_ring,
    random_chern,
    swap_symmetric_flag,
    synthetic_flag,
)


def test_validate_flag_accepts_quartic():
    report = validate_flag(cp3_quartic_flag())
    assert report.valid
    names = [c.name for c in report.checks]
    assert names == ["section-is-anticanonical", "chi-structure-sheaf", "restricted-lattice-rank"]
    assert report.failures() == ()


def test_validate_flag_accepts_synthetic_and_reports_degeneracy():
    report = validate_flag(synthetic_flag())
    assert report.valid
    rank_check = report.checks[-1]
    assert "degenerate restriction" in rank_check.detail


def test_validate_flag_names_the_failures():
    broken = FlagDescriptor(ring=quintic_ring(), s_coords=(1,))
    report = validate_flag(broken)
    assert not report.valid
    failing = {c.name for c in report.failures()}
    assert failing == {"section-is-anticanonical", "chi-structure-sheaf"}
    chi_check = next(c for c in report.checks if c.name == "chi-structure-sheaf")
    assert "chi(O_Y) = 0 != 1" in chi_check.detail
    assert "c1.c2 = 0, need 24" in chi_check.detail


def test_validate_flag_echo_of_obstruction_assertion():
    flag = FlagDescriptor(
        ring=cp3_quartic_flag().ring, s_coords=(4,), first_obstruction_vanishes=True
    )
    report = validate_flag(flag)
    echo = next(c for c in report.checks if c.name == "first-obstruction-asserted")
    assert echo.passed
    assert "not verified here" in echo.detail


def test_flag_section_length_checked():
    for s_coords in ((1, 0), ()):
        with pytest.raises(LatticeValidationError) as error:
            FlagDescriptor(ring=quintic_ring(), s_coords=s_coords)
        assert str(error.value) == "section class length must match rho"


def test_obstruction_kernel_trivial_for_quartic():
    kernel = obstruction_kernel(cp3_quartic_flag())
    assert kernel.dimension == 0
    assert kernel.basis == ()
    assert str(kernel) == "dim 0: trivial"


def test_obstruction_kernel_of_singular_gram():
    kernel = obstruction_kernel(synthetic_flag())
    assert kernel.dimension == 1
    assert kernel.basis == ((1, -2),)
    assert str(kernel) == "dim 1: (1, -2)"


def test_build_double_of_quartic():
    double = build_double(cp3_quartic_flag())
    assert double.section_class_d == (8,)
    assert double.d_square() == 256
    assert not smooth_total_space(double)
    assert double.matrix == ((1,),)


def test_build_double_rejects_invalid_flag():
    broken = FlagDescriptor(ring=quintic_ring(), s_coords=(1,))
    with pytest.raises(LatticeValidationError, match="section-is-anticanonical"):
        build_double(broken)


def test_joint_kernel_of_plain_double():
    double = build_double(cp3_quartic_flag())
    kernel = joint_obstruction_kernel(double)
    assert kernel.dimension == 1
    assert kernel.basis == ((1, -1),)


def test_joint_kernel_with_sign_flip_gluing():
    flag = cp3_quartic_flag()
    gluing = make_gluing(flag, flag, matrix=((-1,),))
    kernel = joint_obstruction_kernel(gluing)
    assert kernel.dimension == 1
    assert kernel.basis == ((1, 1),)


def test_make_gluing_defaults():
    flag = cp3_quartic_flag()
    gluing = make_gluing(flag, flag)
    assert gluing.matrix == ((1,),)
    assert gluing.section_class_d == (8,)
    assert gluing.gram == ((4,),)


def test_explicit_zero_section_class_is_smooth():
    flag = cp3_quartic_flag()
    gluing = make_gluing(flag, flag, section_class=(0,))
    assert smooth_total_space(gluing)
    assert gluing.d_square() == 0


def test_gluing_requires_matching_grams():
    with pytest.raises(LatticeValidationError, match="same gram"):
        make_gluing(cp3_quartic_flag(), swap_symmetric_flag(), matrix=((1, 0), (0, 1)))
    with pytest.raises(LatticeValidationError, match="same gram"):
        make_gluing(cp3_quartic_flag(), swap_symmetric_flag())


def test_gluing_requires_isometry():
    flag = cp3_quartic_flag()
    with pytest.raises(LatticeValidationError, match="isometry"):
        make_gluing(flag, flag, matrix=((2,),))


def test_gluing_matrix_size_checked():
    flag = cp3_quartic_flag()
    with pytest.raises(LatticeValidationError, match="size"):
        GluingDescriptor(
            flag_plus=flag,
            flag_minus=flag,
            matrix=((1, 0), (0, 1)),
            section_class_d=(8,),
        )


def test_deformation_dims_smooth_case():
    flag = cp3_quartic_flag()
    gluing = make_gluing(flag, flag, section_class=(0,))
    result = deformation_dims(gluing, 3, 4)
    assert result.value == 8
    assert result.case == "unobstructed-smooth-body"
    assert result.h0_sections is None


def test_deformation_dims_riemann_roch_default():
    double = build_double(cp3_quartic_flag())
    result = deformation_dims(double, 0, 0)
    assert result.value == 129
    assert result.h0_sections == 130
    assert result.case == "generated-by-sections-assumed"
    assert "2 + D^2/2" in result.note


def test_deformation_dims_with_supplied_sections():
    double = build_double(cp3_quartic_flag())
    result = deformation_dims(double, 2, 3, h0_sections=5)
    assert result.value == 9
    assert result.h0_sections == 5
    assert "supplied by caller" in result.note


def test_deformation_dims_rejects_negative_section_count():
    double = build_double(cp3_quartic_flag())
    with pytest.raises(LatticeValidationError, match="negative"):
        deformation_dims(double, 0, 0, h0_sections=-1)
    flag = swap_symmetric_flag()
    steep = make_gluing(flag, flag, section_class=(1, -1))
    assert steep.d_square() == -12
    with pytest.raises(LatticeValidationError, match="negative"):
        deformation_dims(steep, 0, 0)


def test_twisted_double_swap_involution():
    flag = swap_symmetric_flag()
    swap = ((0, 1), (1, 0))
    assert twisted_double_smoothable(flag, swap)
    minus = ((-1, 0), (0, -1))
    assert not twisted_double_smoothable(flag, minus)


def test_twisted_double_rejects_bad_matrices():
    flag = swap_symmetric_flag()
    with pytest.raises(LatticeValidationError, match="involution"):
        twisted_double_smoothable(flag, ((1, 1), (0, 1)))
    with pytest.raises(LatticeValidationError, match="isometry"):
        twisted_double_smoothable(flag, ((1, 0), (0, -1)))
    with pytest.raises(LatticeValidationError, match="size"):
        twisted_double_smoothable(flag, ((1,),))


def test_joint_kernel_vectors_restrict_to_zero():
    """Joint-kernel vectors satisfy G x+ + G A x- = 0 on every test flag."""
    from mukai.rational import mat_mul, mat_vec

    for flag in (cp3_quartic_flag(), synthetic_flag(), swap_symmetric_flag()):
        double = build_double(flag)
        kernel = joint_obstruction_kernel(double)
        rho = flag.ring.rho
        ga = mat_mul(double.gram, double.matrix)
        assert kernel.dimension >= rho  # rho rows cannot cut 2 rho columns to zero
        for vec in kernel.basis:
            x_plus, x_minus = vec[:rho], vec[rho:]
            lhs = mat_vec(double.gram, x_plus)
            rhs = mat_vec(ga, x_minus)
            assert all(a + b == 0 for a, b in zip(lhs, rhs))


def test_flag_k3_field_is_derived():
    flag = cp3_quartic_flag()
    assert flag.k3.gram == ((4,),)
    assert flag.k3.s_coords == (4,)
    assert flag.name == "cp3-quartic"


def test_random_chern_restricts_consistently_on_swap_flag():
    from mukai import K3Vector, gluing_match, mukai_restrict

    rng = random.Random(72)
    flag = swap_symmetric_flag()
    swap = ((0, 1), (1, 0))
    for _ in range(200):
        e = random_chern(rng, flag.ring)
        v = mukai_restrict(flag, e).vector
        swapped = K3Vector(v.v0, (v.v2[1], v.v2[0]), v.v4)
        assert gluing_match(flag.k3, swap, swapped, v)
