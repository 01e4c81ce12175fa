"""Quasi-Fano flags, anticanonical doubles and lattice-level gluing checks.

A *flag* here is a pair (Y, S) of a quasi-Fano threefold Y and a smooth
anticanonical K3 member S.  At the lattice level a flag is a
`ThreefoldRing` together with the coordinates of the section class s,
which must equal c1(Y); the induced `K3Restriction` carries the Gram
matrix G[i][j] = e_i . e_j . s of the restricted degree-2 lattice.

Two flags glued along their K3 members (through a lattice isometry A)
form a normal-crossing total space; its smoothability and deformation
count are controlled by the section class D of the gluing and by the
kernels of the restriction maps, all of which reduce to exact rational
linear algebra on the Gram matrices below.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .chern import structure_sheaf_chi
from .errors import LatticeValidationError
from .rational import (
    as_fraction,
    as_matrix,
    as_vector,
    format_fraction,
    identity_matrix,
    mat_mul,
    mat_vec,
    transpose,
)
from .record import Record
from .rings import K3Restriction, ThreefoldRing

__all__ = [
    "FlagDescriptor",
    "FlagCheck",
    "FlagReport",
    "GluingDescriptor",
    "KernelResult",
    "DeformationDims",
    "validate_flag",
    "obstruction_kernel",
    "joint_obstruction_kernel",
    "build_double",
    "make_gluing",
    "smooth_total_space",
    "deformation_dims",
    "twisted_double_smoothable",
    "require_isometry",
]


class FlagDescriptor(Record):
    """A quasi-Fano threefold with a chosen anticanonical K3 member.

    The descriptor is deliberately permissive: invalid combinations can
    be constructed and then inspected with `validate_flag`, which is how
    the CLI reports broken inputs instead of crashing on them.

    `h1_ty` and `h0_normal` are optional cohomology sizes the lattice
    cannot compute itself; `first_obstruction_vanishes` is a user
    assertion that the one-extension obstruction of the flag is zero
    (again not computable from intersection data).
    """

    ring: ThreefoldRing
    s_coords: tuple[Fraction, ...]
    h1_ty: int | None = None
    h0_normal: int | None = None
    first_obstruction_vanishes: bool | None = None

    def __post_init__(self):
        # `k3` is derived: not a field, so not in ==, hash or repr.
        # `from_ring` coerces and checks the section class.
        k3 = K3Restriction.from_ring(self.ring, self.s_coords)
        vars(self).update(s_coords=k3.s_coords, k3=k3)

    @property
    def name(self) -> str:
        return self.ring.name


class FlagCheck(Record):
    name: str
    passed: bool
    detail: str


class FlagReport(Record):
    checks: tuple[FlagCheck, ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[FlagCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def validate_flag(flag: FlagDescriptor) -> FlagReport:
    """Check the lattice-level axioms of a quasi-Fano flag.

    The section class must be the anticanonical class, chi(O_Y) must be 1
    (equivalently c1 . c2 = 24, the K3 adjunction constraint), and the
    induced Gram matrix must be symmetric of rank rho.  The unverifiable
    one-extension assertion is echoed as an informational check.
    """
    ring = flag.ring
    checks: list[FlagCheck] = []

    anticanonical = flag.s_coords == ring.c1_coords
    s_text = ", ".join(format_fraction(x) for x in flag.s_coords)
    c1_text = ", ".join(format_fraction(x) for x in ring.c1_coords)
    checks.append(
        FlagCheck(
            "section-is-anticanonical",
            anticanonical,
            f"s = ({s_text}), c1 = ({c1_text})",
        )
    )

    chi = structure_sheaf_chi(ring)
    checks.append(
        FlagCheck(
            "chi-structure-sheaf",
            chi == 1,
            f"chi(O_Y) = {format_fraction(chi)}"
            + ("" if chi == 1 else f" != 1 (c1.c2 = {format_fraction(24 * chi)}, need 24)"),
        )
    )

    gram_rank = linalg.rank(flag.k3.gram)
    checks.append(
        FlagCheck(
            "restricted-lattice-rank",
            True,
            f"gram rank {gram_rank} of {flag.ring.rho}"
            + (" (degenerate restriction)" if gram_rank < flag.ring.rho else ""),
        )
    )

    if flag.first_obstruction_vanishes is not None:
        checks.append(
            FlagCheck(
                "first-obstruction-asserted",
                True,
                f"user assertion: vanishes = {flag.first_obstruction_vanishes} (not verified here)",
            )
        )

    return FlagReport(checks=tuple(checks))


class KernelResult(Record):
    """Dimension and primitive basis of an exact rational kernel."""

    dimension: int
    basis: tuple[tuple[Fraction, ...], ...]

    def __str__(self):
        rows = ["(" + ", ".join(format_fraction(x) for x in vec) + ")" for vec in self.basis]
        return f"dim {self.dimension}: " + (", ".join(rows) if rows else "trivial")


def obstruction_kernel(flag: FlagDescriptor) -> KernelResult:
    """Kernel of the restriction pairing H^2(Y) -> H^2(S).

    A degree-2 class x is invisible on the K3 member exactly when
    G x = 0; the kernel measures polarizations killed by restriction.
    """
    basis = linalg.nullspace(flag.k3.gram)
    return KernelResult(dimension=len(basis), basis=tuple(basis))


class GluingDescriptor(Record):
    """Two flags glued along their K3 members through a lattice isometry.

    `matrix` transports the minus-side restricted lattice to the plus
    side and must be an isometry of the shared Gram matrix; the section
    class `section_class_d` of the gluing defaults to s+ + A s- and is
    the obstruction to the total space smoothing without extra geometry.
    """

    flag_plus: FlagDescriptor
    flag_minus: FlagDescriptor
    matrix: tuple[tuple[Fraction, ...], ...]
    section_class_d: tuple[Fraction, ...]

    def __post_init__(self):
        g_plus = self.flag_plus.k3.gram
        g_minus = self.flag_minus.k3.gram
        if g_plus != g_minus:
            raise LatticeValidationError(
                "gluing requires both flags to restrict to the same gram matrix; "
                f"got {g_plus} and {g_minus}"
            )
        matrix = require_isometry(self.matrix, g_plus, "gluing matrix")
        d = self.section_class_d
        if d is None:
            transported = mat_vec(matrix, self.flag_minus.s_coords)
            d = tuple(a + b for a, b in zip(self.flag_plus.s_coords, transported))
        vars(self).update(matrix=matrix, section_class_d=as_vector(d))
        if len(self.section_class_d) != len(g_plus):
            raise LatticeValidationError("section class length must match the lattice rank")

    @property
    def gram(self):
        return self.flag_plus.k3.gram

    def d_square(self) -> Fraction:
        """Self-intersection of the gluing section class on the K3."""
        return self.flag_plus.k3.dot(self.section_class_d, self.section_class_d)


def make_gluing(
    flag_plus: FlagDescriptor,
    flag_minus: FlagDescriptor,
    matrix=None,
    section_class=None,
) -> GluingDescriptor:
    """Assemble a gluing; the matrix defaults to the identity and D to s+ + A s-.

    Passing an explicit `section_class` models extra birational surgery
    (blow-ups along curves in S) that changes D without touching the
    flags; D = 0 is the smoothable normal-crossing case.
    """
    if matrix is None:
        matrix = identity_matrix(flag_plus.ring.rho)
    return GluingDescriptor(
        flag_plus=flag_plus,
        flag_minus=flag_minus,
        matrix=matrix,
        section_class_d=section_class,
    )


def build_double(flag: FlagDescriptor) -> GluingDescriptor:
    """Glue a flag to a second copy of itself along the K3 member.

    The result is the plain double with identity gluing and section
    class D = 2 s|_S; it is never smooth as-is (D != 0 whenever the flag
    is honest), which is exactly what the smoothability predicate sees.
    """
    report = validate_flag(flag)
    if not report.valid:
        names = ", ".join(c.name for c in report.failures())
        raise LatticeValidationError(f"cannot double an invalid flag (failing: {names})")
    return make_gluing(flag, flag)


def joint_obstruction_kernel(gluing: GluingDescriptor) -> KernelResult:
    """Kernel of the joint restriction of both sides to the shared K3.

    A pair (x+, x-) of degree-2 classes glues to a class on the total
    space when the two restrictions agree; the kernel of the stacked
    matrix [G | G A] consists of the pairs restricting to zero, i.e. the
    directions in which the glued polarization degenerates.
    """
    g = gluing.gram
    ga = mat_mul(g, gluing.matrix)
    stacked = tuple(row_g + row_ga for row_g, row_ga in zip(g, ga))
    basis = linalg.nullspace(stacked)
    return KernelResult(dimension=len(basis), basis=tuple(basis))


def smooth_total_space(gluing: GluingDescriptor) -> bool:
    """Whether the glued space smooths without further surgery (D = 0)."""
    return all(x == 0 for x in gluing.section_class_d)


class DeformationDims(Record):
    """Deformation count of a smoothed gluing, tagged with the rule that produced it."""

    value: Fraction
    case: str
    h0_sections: Fraction | None
    note: str


def deformation_dims(
    gluing: GluingDescriptor,
    h12_plus: int,
    h12_minus: int,
    h0_sections=None,
) -> DeformationDims:
    """Dimension of the deformation space of the smoothed total space.

    With D = 0 the smoothing is unobstructed and the count is

        h12(Y+) + h12(Y-) + 1.

    Otherwise the normal direction contributes a linear system on the
    K3 and the count is

        h12(Y+) + h12(Y-) + h0(D) - 1,

    where h0(D) defaults to the Riemann-Roch value 2 + D^2/2 under a
    declared vanishing assumption, or may be supplied directly.
    """
    if smooth_total_space(gluing):
        value = Fraction(h12_plus + h12_minus + 1)
        return DeformationDims(
            value=value,
            case="unobstructed-smooth-body",
            h0_sections=None,
            note="D = 0: smoothing is unobstructed, no linear system enters",
        )
    if h0_sections is None:
        h0 = 2 + gluing.d_square() / 2
        note = (
            "h0(D) estimated by Riemann-Roch on the K3 as 2 + D^2/2 = "
            f"{format_fraction(h0)} (higher cohomology assumed to vanish)"
        )
    else:
        h0 = as_fraction(h0_sections)
        note = f"h0(D) supplied by caller as {format_fraction(h0)}"
    if h0 < 0:
        raise LatticeValidationError(
            f"section count h0(D) = {format_fraction(h0)} is negative; "
            "the declared linear system cannot exist"
        )
    value = h12_plus + h12_minus + h0 - 1
    return DeformationDims(
        value=value,
        case="generated-by-sections-assumed",
        h0_sections=h0,
        note=note,
    )


def twisted_double_smoothable(flag: FlagDescriptor, involution) -> bool:
    """Whether gluing a double through a K3 involution deforms smoothly.

    `involution` is the lattice action A of an involution of the K3
    member; it must square to the identity and preserve the Gram matrix.
    The twisted double smooths to a Calabi-Yau exactly when A fixes the
    restricted anticanonical class.
    """
    a = require_isometry(involution, flag.k3.gram, "involution matrix")
    if mat_mul(a, a) != identity_matrix(len(a)):
        raise LatticeValidationError("matrix is not an involution (A^2 != I)")
    return mat_vec(a, flag.s_coords) == tuple(flag.s_coords)


def require_isometry(matrix, gram, what: str = "matrix") -> tuple[tuple[Fraction, ...], ...]:
    """Coerce a square matrix A of the Gram matrix's size and check A^T G A = G.

    `what` names the matrix in the error raised when either check fails.
    """
    a = as_matrix(matrix)
    n = len(gram)
    if len(a) != n or any(len(row) != n for row in a):
        raise LatticeValidationError(f"{what} size must match the restricted lattice rank")
    conjugated = mat_mul(mat_mul(transpose(a), gram), a)
    if conjugated != gram:
        raise LatticeValidationError(
            f"{what} is not an isometry of the restricted lattice: A^T G A = {conjugated} != {gram}"
        )
    return a
