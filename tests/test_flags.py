"""Flag validation, doubles, joint kernels and deformation counts."""

import random
from fractions import Fraction

import pytest

from mukai import (
    FlagDescriptor,
    K3Restriction,
    K3Vector,
    LatticeValidationError,
    ThreefoldRing,
    build_double,
    deformation_dims,
    gluing_match,
    joint_obstruction_kernel,
    make_gluing,
    obstruction_kernel,
    smooth_total_space,
    twisted_double_smoothable,
    validate_flag,
)
from mukai.documents import builtin_path, load_manifold
from mukai.flags import GluingDescriptor, require_isometry
from mukai.rational import as_matrix, identity_matrix

from conftest import (
    cp3_quartic_flag,
    quintic_ring,
    random_chern,
    random_cy_ring,
    random_fano_ring,
    reference_primitive,
    reference_rref,
    swap_symmetric_flag,
    synthetic_flag,
    with_denominators,
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
    assert gluing.flag_plus.k3.gram == ((4,),)


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


@pytest.mark.parametrize(
    "h12", [1.5, Fraction(3, 2), True, "1", None], ids=["float", "fraction", "bool", "string", "none"]
)
def test_deformation_dims_takes_only_integer_h12(h12):
    double = build_double(cp3_quartic_flag())
    smooth = make_gluing(cp3_quartic_flag(), cp3_quartic_flag(), section_class=(0,))
    for gluing in (double, smooth):
        for args, name in (((h12, 0), "h12_plus"), ((0, h12), "h12_minus")):
            with pytest.raises(LatticeValidationError) as error:
                deformation_dims(gluing, *args)
            assert str(error.value) == f"{name} must be an integer, got {h12!r}"
    assert type(deformation_dims(double, 1, 0).value) is Fraction
    assert type(deformation_dims(smooth, 1, 0).value) is Fraction


@pytest.mark.parametrize(
    "field, value, message",
    [
        pytest.param("h1_ty", 1.5, "flag h1_ty: expected an integer or None, got 1.5", id="h1_ty-float"),
        pytest.param("h1_ty", "3", "flag h1_ty: expected an integer or None, got '3'", id="h1_ty-string"),
        pytest.param("h1_ty", 10**1000, "flag h1_ty: integer has more than 1000 digits", id="h1_ty-1001-digits"),
        pytest.param(
            "h0_normal", -(10**1000), "flag h0_normal: integer has more than 1000 digits", id="h0_normal-1001-digits"
        ),
        pytest.param("h0_normal", True, "flag h0_normal: expected an integer or None, got True", id="h0_normal-bool"),
        pytest.param("h1_ty", -3, "flag h1_ty: expected a count >= 0, got -3", id="h1_ty-negative"),
        pytest.param("h0_normal", -1, "flag h0_normal: expected a count >= 0, got -1", id="h0_normal-negative"),
        pytest.param(
            "first_obstruction_vanishes", "yes",
            "flag first_obstruction_vanishes: expected a bool or None, got 'yes'", id="assertion-string",
        ),
        pytest.param(
            "first_obstruction_vanishes", 1,
            "flag first_obstruction_vanishes: expected a bool or None, got 1", id="assertion-int",
        ),
    ],
)
def test_flag_fields_a_document_cannot_hold_are_refused(field, value, message):
    with pytest.raises(LatticeValidationError) as error:
        FlagDescriptor(ring=cp3_quartic_flag().ring, s_coords=(4,), **{field: value})
    assert str(error.value) == message


@pytest.mark.parametrize("h12", [-1, -100, -(10**5000)], ids=["minus-one", "minus-100", "5001-digits"])
def test_deformation_dims_refuses_a_negative_h12(h12):
    double = build_double(cp3_quartic_flag())
    smooth = make_gluing(cp3_quartic_flag(), cp3_quartic_flag(), section_class=(0,))
    for gluing in (double, smooth):
        for args, name in (((h12, 0), "h12_plus"), ((0, h12), "h12_minus")):
            with pytest.raises(LatticeValidationError) as error:
                deformation_dims(gluing, *args)
            assert str(error.value) == f"{name} must be a count >= 0"
    assert deformation_dims(smooth, 0, 0).value == 1


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


def test_twisted_double_squares_a_matrix_with_denominators():
    # With s = 0 the Gram matrix is zero, so every matrix is an isometry.
    flag = FlagDescriptor(swap_symmetric_flag().ring, (0, 0))
    reflection = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(-3, 5)))
    assert twisted_double_smoothable(flag, reflection) is True
    with pytest.raises(LatticeValidationError) as error:
        twisted_double_smoothable(flag, ((Fraction(1, 2), 0), (0, 2)))
    assert str(error.value) == "matrix is not an involution (A^2 != I)"


def test_twisted_double_rejects_an_isometry_that_is_not_an_involution():
    # With section 0 the Gram matrix is zero, so A = (2) is an isometry; A^2 = 4.
    flag = FlagDescriptor(ring=cp3_quartic_flag().ring, s_coords=(0,))
    with pytest.raises(LatticeValidationError) as error:
        twisted_double_smoothable(flag, ((2,),))
    assert str(error.value) == "matrix is not an involution (A^2 != I)"


def test_require_isometry_takes_a_bare_gram_matrix():
    gram = [[2, 1], [1, "2"]]
    swap = require_isometry([[0, 1], [1, 0]], gram)
    assert swap == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    with pytest.raises(LatticeValidationError, match=r"A\^T G A = \(\(Fraction\(2, 1\), Fraction\(3, 1\)\)"):
        require_isometry([[1, 1], [0, 1]], gram, "shear")
    with pytest.raises(LatticeValidationError, match="size"):
        require_isometry([[1]], gram)


@pytest.mark.parametrize("name", ["cp3-quartic.json", "synthetic-rho2.json"])
def test_isometry_checks_and_the_joint_kernel_leave_the_gram_unmade(name):
    # They read the restriction's integer rows; `gram` is made only when read.
    flag = load_manifold(builtin_path(name))
    identity = identity_matrix(flag.ring.rho)
    v = K3Vector(1, (0,) * flag.ring.rho, 0)
    assert gluing_match(flag.k3, identity, v, v)
    assert twisted_double_smoothable(flag, identity)
    assert joint_obstruction_kernel(build_double(flag)).dimension >= flag.ring.rho
    assert "gram" not in vars(flag.k3)


def _refusals():
    flag = swap_symmetric_flag()
    k3, ragged, v = flag.k3, [[1, 0], [0]], K3Vector(1, (0, 0), 0)
    rank = "size must match the restricted lattice rank"
    yield "require_isometry", lambda: require_isometry(ragged, k3.gram), f"matrix {rank}"
    yield "require_isometry-gram", lambda: require_isometry(ragged, ragged), "gram matrix must be square"
    yield "gluing_match", lambda: gluing_match(k3, ragged, v, v), f"matrix {rank}"
    yield "twisted_double", lambda: twisted_double_smoothable(flag, ragged), f"involution matrix {rank}"
    yield "K3Restriction", lambda: K3Restriction(gram=ragged, s_coords=[1, 1]), "gram matrix must be square"
    yield "gluing_match-rank", lambda: gluing_match(k3, identity_matrix(2), v, K3Vector(1, (0,), 0)), (
        "vector has 1 coordinates, lattice has rank 2"
    )


@pytest.mark.parametrize("call, message", [pytest.param(*case[1:], id=case[0]) for case in _refusals()])
def test_ragged_or_wrong_rank_input_is_a_lattice_error(call, message):
    with pytest.raises(LatticeValidationError) as error:
        call()
    assert str(error.value) == message


def test_joint_kernel_vectors_restrict_to_zero():
    """Joint-kernel vectors satisfy G x+ + G A x- = 0 on every test flag."""
    for flag in (cp3_quartic_flag(), synthetic_flag(), swap_symmetric_flag()):
        double = build_double(flag)
        kernel = joint_obstruction_kernel(double)
        rho = flag.ring.rho
        gram = flag.k3.gram
        ga = _fraction_product(gram, double.matrix)
        assert kernel.dimension >= rho  # rho rows cannot cut 2 rho columns to zero
        for vec in kernel.basis:
            x_plus, x_minus = vec[:rho], vec[rho:]
            lhs = _fraction_mat_vec(gram, x_plus)
            rhs = _fraction_mat_vec(ga, x_minus)
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


# --------------------------------------------------------------------------
# the integer Gram algebra against Fraction references


def _fraction_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def _fraction_mat_vec(matrix, vector):
    return tuple(sum((x * y for x, y in zip(row, vector)), Fraction(0)) for row in matrix)


def reference_nullspace(matrix):
    """The free-variable kernel basis of `reference_rref`, made primitive."""
    reduced, pivots = reference_rref(matrix)
    basis = []
    for f in range(len(reduced[0])):
        if f not in pivots:
            vec = [Fraction(0)] * len(reduced[0])
            vec[f] = Fraction(1)
            for row, p in zip(reduced, pivots):
                vec[p] = -row[f]
            basis.append(reference_primitive(vec))
    return basis


def reference_require_isometry(matrix, gram, what):
    """A^T G A = G in `Fraction` loops: the reference for the integer `require_isometry`."""
    a = as_matrix(matrix)
    n = len(gram)
    if len(a) != n or any(len(row) != n for row in a):
        raise LatticeValidationError(f"{what} size must match the restricted lattice rank")
    conjugated = tuple(map(tuple, _fraction_product(_fraction_product(list(zip(*a)), gram), a)))
    if conjugated != gram:
        raise LatticeValidationError(
            f"{what} is not an isometry of the restricted lattice: A^T G A = {conjugated} != {gram}"
        )
    return a


def _outcome(check, *args):
    try:
        return check(*args)
    except LatticeValidationError as error:
        return str(error)


def _gram_flag(rng, rho, kind):
    """A flag with a fractional Gram matrix, symmetric under e0 <-> e1 ("swap"),
    zero along the last basis vector ("null") or with it repeating e0 ("repeated")."""
    ring = with_denominators(rng, (random_cy_ring if rng.random() < 0.5 else random_fano_ring)(rng, rho))
    d = ring.triple
    swap = [1, 0] + list(range(2, rho))
    repeat = list(range(rho - 1)) + [0]

    def entry(a, b, c):
        if kind == "swap":
            return d[a][b][c] + d[swap[a]][swap[b]][swap[c]]
        if kind == "null":
            return 0 if rho - 1 in (a, b, c) else d[a][b][c]
        if kind == "repeated":
            return d[repeat[a]][repeat[b]][repeat[c]]
        return d[a][b][c]

    triple = [[[entry(a, b, c) for c in range(rho)] for b in range(rho)] for a in range(rho)]
    ring = ThreefoldRing(ring.name, ring.basis_labels, triple, ring.c1_coords, ring.c2_values,
                         ring.chi_top, ring.h12)
    s = [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(rho)]
    if kind == "swap":
        s[1] = s[0]
    if rng.random() < 0.05:
        s = [0] * rho
    return FlagDescriptor(ring=ring, s_coords=s)


def _matrices(rng, gram, kind):
    """Signed-permutation isometries, reflections (fractional isometries) and non-isometries."""
    rho = len(gram)
    identity = [[int(i == j) for j in range(rho)] for i in range(rho)]
    yield [[-x for x in row] for row in identity]
    if kind == "swap":
        swap = [1, 0] + list(range(2, rho))
        yield [[rng.choice((1, -1)) * int(swap[i] == j) for j in range(rho)] for i in range(rho)]
    if kind == "null":
        yield [[(-1 if i == rho - 1 else 1) * x for x in row] for i, row in enumerate(identity)]
    # The reflection x -> x - 2 (v.G.x / v.G.v) v, when v.G.v != 0.
    v = [rng.randint(-2, 2) for _ in range(rho)]
    gv = [sum((g * x for g, x in zip(row, v)), Fraction(0)) for row in gram]
    q = sum((a * b for a, b in zip(v, gv)), Fraction(0))
    if q:
        reflection = [[identity[i][j] - 2 * v[i] * gv[j] / q for j in range(rho)] for i in range(rho)]
        yield reflection
        bent = [list(row) for row in reflection]
        bent[rng.randrange(rho)][rng.randrange(rho)] += Fraction(1, 7)
        yield bent
    yield [[2 * x for x in row] for row in identity]
    yield [[Fraction(rng.randint(-2, 2), rng.choice((1, 2))) for _ in range(rho)] for _ in range(rho)]
    if rng.random() < 0.1:
        yield [[1] * (rho + 1)] * (rho + 1)


def test_the_integer_gram_algebra_matches_the_fraction_references():
    """Rank text, both kernels, the isometry check and the transports on 300 flags, rho 1-8.

    Each runs on the integer Gram rows a `K3Restriction` keeps; each
    reference is a `Fraction` loop over the Gram matrix itself.  Two of
    each flag's candidate matrices are checked, and on each isometry the
    three transports by A: D = s + A s, `gluing_match` on (v0, A v2, v4)
    and `twisted_double_smoothable`.
    """
    rng = random.Random(20261019)
    # The transports draw their vectors from a second stream, so `rng` picks the same flags and matrices.
    vectors = random.Random(20261022)
    seen = set()
    for i in range(300):
        rho = 1 + i % 8
        kind = rng.choice(("plain", "swap", "null", "repeated")) if rho > 1 else "plain"
        flag = _gram_flag(rng, rho, kind)
        gram = flag.k3.gram
        rank = len(reference_rref(gram)[1])
        detail = f"gram rank {rank} of {rho}" + (" (degenerate restriction)" if rank < rho else "")
        check = next(c for c in validate_flag(flag).checks if c.name == "restricted-lattice-rank")
        assert check.detail == detail, flag
        basis = tuple(reference_nullspace(gram))
        assert obstruction_kernel(flag).basis == basis, flag
        seen.add("degenerate" if basis else "nondegenerate")
        matrices = list(_matrices(rng, gram, kind))
        for matrix in rng.sample(matrices, 2):
            got = _outcome(require_isometry, matrix, gram, "gluing matrix")
            assert got == _outcome(reference_require_isometry, matrix, gram, "gluing matrix"), (flag, matrix)
            if isinstance(got, str):
                seen.add("size" if "size" in got else "not an isometry")
                continue
            seen.add("fractional isometry" if any(x.denominator > 1 for row in got for x in row) else "isometry")
            stacked = [list(g) + row for g, row in zip(gram, _fraction_product(gram, got))]
            gluing = make_gluing(flag, flag, matrix=matrix)
            joint = joint_obstruction_kernel(gluing)
            assert joint.basis == tuple(reference_nullspace(stacked)), (flag, matrix)
            s = flag.s_coords
            a_s = _fraction_mat_vec(got, s)
            assert gluing.section_class_d == tuple(x + y for x, y in zip(s, a_s)), (flag, matrix)
            v2 = tuple(Fraction(vectors.randint(-5, 5), vectors.choice((1, 2, 3))) for _ in range(rho))
            v_minus = K3Vector(vectors.randint(-3, 3), v2, Fraction(vectors.randint(-5, 5), 2))
            v_plus = K3Vector(v_minus.v0, _fraction_mat_vec(got, v2), v_minus.v4)
            assert gluing_match(flag.k3, matrix, v_plus, v_minus), (flag, matrix, v2)
            bent = list(v_plus.v2)
            bent[vectors.randrange(rho)] += Fraction(1, 3)
            assert not gluing_match(flag.k3, matrix, K3Vector(v_plus.v0, bent, v_plus.v4), v_minus)
            if _fraction_product(got, got) == [[int(r == c) for c in range(rho)] for r in range(rho)]:
                assert twisted_double_smoothable(flag, matrix) == (a_s == s), (flag, matrix)
                seen.add("involution")
            else:
                refusal = _outcome(twisted_double_smoothable, flag, matrix)
                assert refusal == "matrix is not an involution (A^2 != I)", (flag, matrix)
                seen.add("not an involution")
    assert seen == {
        "degenerate", "nondegenerate", "size", "not an isometry", "fractional isometry", "isometry",
        "involution", "not an involution",
    }

