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

That algebra runs in integers on a `K3Restriction`'s integer Gram rows R
(G = R/g), which this module reads for the rank and both kernels (through
the one elimination core of `linalg`) and for the check of a matrix A,
once, as N^T R N = a^2 R for A = N/a; `pairings` reads them too.  The
joint kernel, the involution check and each transport by A (D = s+ + A s-,
A v2 in `pairings.gluing_match`, A s = s) read that N/a.  `Fraction`s are
made only for results and errors.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from . import linalg
from .chern import structure_sheaf_chi
from .errors import LatticeValidationError, _quoted
from .rational import (
    INT_BOUND,
    MAX_DIGITS,
    as_fraction,
    as_matrix,
    as_vector,
    identity_matrix,
    integer_product,
    rows_over_common_denominator,
)
from .record import Record, kept
from .rings import K3Restriction, ThreefoldRing, _fixed_factor, _reduced

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
    (again not computable from intersection data).  Each is None or what
    a flag document holds: for the sizes a count >= 0 of type `int` (so
    not a `bool`) with at most `MAX_DIGITS` digits, and for the assertion
    a `bool`.
    """

    ring: ThreefoldRing
    s_coords: tuple[Fraction, ...]
    h1_ty: int | None = None
    h0_normal: int | None = None
    first_obstruction_vanishes: bool | None = None

    def __post_init__(self):
        for name in ("h1_ty", "h0_normal"):
            value = vars(self)[name]
            if value is not None and type(value) is not int:
                raise LatticeValidationError(f"flag {name}: expected an integer or None, got {_quoted(value)}")
            if value is not None and not -INT_BOUND < value < INT_BOUND:
                raise LatticeValidationError(f"flag {name}: integer has more than {MAX_DIGITS} digits")
            if value is not None and value < 0:
                raise LatticeValidationError(f"flag {name}: expected a count >= 0, got {value}")
        assertion = self.first_obstruction_vanishes
        if type(assertion) not in (bool, type(None)):
            phrase = f"expected a bool or None, got {_quoted(assertion)}"
            raise LatticeValidationError(f"flag first_obstruction_vanishes: {phrase}")
        # `k3` is derived: not a field, so not in ==, hash or repr.
        # `from_ring` coerces and checks the section class.
        k3 = K3Restriction.from_ring(self.ring, self.s_coords)
        vars(self).update(s_coords=k3.s_coords, k3=k3)

    @kept
    def _one_minus_exp_minus_s(self) -> tuple:
        """1 - e^{-S} as a fixed factor (see `rings`), from e^{-S}'s integers."""
        s, ds = self.k3._s
        den, _, n2, n4, n6 = self.ring._exp([-x for x in s], ds)._ints
        return _fixed_factor(_reduced(self.ring, den, 0, [-a for a in n2], [-a for a in n4], -n6))

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

    The section class must be the anticanonical class, and chi(O_Y) must
    be 1 (equivalently c1 . c2 = 24, the K3 adjunction constraint).  The
    rank of the induced Gram matrix is reported, with a note when it is
    below rho, but never fails the flag: a degenerate restriction is still
    a valid flag.  The unverifiable one-extension assertion is echoed as
    an informational check.
    """
    ring = flag.ring
    checks: list[FlagCheck] = []

    anticanonical = flag.s_coords == ring.c1_coords
    s_text = ", ".join(map(str, flag.s_coords))
    c1_text = ", ".join(map(str, ring.c1_coords))
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
            f"chi(O_Y) = {chi}" + ("" if chi == 1 else f" != 1 (c1.c2 = {24 * chi}, need 24)"),
        )
    )

    gram_rank = len(linalg.echelon(flag.k3._rows)[1])
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
        rows = ["(" + ", ".join(map(str, vec)) + ")" for vec in self.basis]
        return f"dim {self.dimension}: " + (", ".join(rows) if rows else "trivial")


def obstruction_kernel(flag: FlagDescriptor) -> KernelResult:
    """Kernel of the restriction pairing H^2(Y) -> H^2(S).

    A degree-2 class x is invisible on the K3 member exactly when
    G x = 0; the kernel measures polarizations killed by restriction.
    """
    basis = linalg.kernel(flag.k3._rows)
    return KernelResult(dimension=len(basis), basis=tuple(basis))


class GluingDescriptor(Record):
    """Two flags glued along their K3 members through a lattice isometry.

    `matrix` transports the minus-side restricted lattice to the plus
    side and must be an isometry of the shared Gram matrix (`_ints` keeps
    it as integer rows N over a); the section class `section_class_d`
    defaults to s+ + A s- and is the obstruction to the total space
    smoothing without extra geometry.
    """

    flag_plus: FlagDescriptor
    flag_minus: FlagDescriptor
    matrix: tuple[tuple[Fraction, ...], ...]
    section_class_d: tuple[Fraction, ...]

    def __post_init__(self):
        (r, g), (q, h) = ((flag.k3._rows, flag.k3._den) for flag in (self.flag_plus, self.flag_minus))
        if len(r) != len(q) or any(a * h != b * g for x, y in zip(r, q) for a, b in zip(x, y)):  # r/g != q/h
            raise LatticeValidationError(
                "gluing requires both flags to restrict to the same gram matrix; "
                f"got {self.flag_plus.k3.gram} and {self.flag_minus.k3.gram}"
            )
        matrix, nums, den = _isometry(self.matrix, r, g, "gluing matrix")
        d = self.section_class_d
        if d is None:
            transported = _transport(nums, den, *self.flag_minus.k3._s)
            d = tuple(a + b for a, b in zip(self.flag_plus.s_coords, transported))
        vars(self).update(matrix=matrix, section_class_d=as_vector(d), _ints=(nums, den))
        if len(self.section_class_d) != len(r):
            raise LatticeValidationError("section class length must match the lattice rank")

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
    directions in which the glued polarization degenerates.  With G = R/g
    and A = N/a that matrix is [a R | R N] / (g a), so the kernel is read
    off the integer matrix [a R | R N].
    """
    (nums, a), rows = gluing._ints, gluing.flag_plus.k3._rows
    basis = linalg.kernel([[a * x for x in row] + rn for row, rn in zip(rows, integer_product(rows, nums))])
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
    """A deformation count of the smoothed total space; not its h^{1,2}.

    With D = 0 the smoothing is unobstructed and the count is

        h12(Y+) + h12(Y-) + 1.

    Otherwise the normal direction contributes a linear system on the
    K3 and the count is

        h12(Y+) + h12(Y-) + h0(D) - 1,

    where h0(D) defaults to the Riemann-Roch value 2 + D^2/2 under a
    declared vanishing assumption, or may be supplied directly.  That
    default is h^{1,2} of the smoothing less 21 - r, r = rank [G | G A], on
    the Tyurin degenerations of `tests/test_degeneration.py`: it leaves out
    the 20 - r moduli of the lattice-polarized K3 and one smoothing direction.
    Each h12 is a count >= 0 of type `int`, so not a `bool`; it has no digit bound.
    """
    for name, h12 in (("h12_plus", h12_plus), ("h12_minus", h12_minus)):
        if type(h12) is not int:
            raise LatticeValidationError(f"{name} must be an integer, got {_quoted(h12)}")
        if h12 < 0:
            raise LatticeValidationError(f"{name} must be a count >= 0")  # unbounded, so not formatted
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
            f"{h0} (higher cohomology assumed to vanish)"
        )
    else:
        h0 = as_fraction(h0_sections)
        note = f"h0(D) supplied by caller as {h0}"
    if h0 < 0:
        raise LatticeValidationError(
            f"section count h0(D) = {h0} is negative; "
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
    _, nums, den = _isometry(involution, flag.k3._rows, flag.k3._den, "involution matrix")
    # With A = N/a, A^2 = I is N N = a^2 I and A s = s is N s = a s, on s's numerators.
    n = len(nums)
    if integer_product(nums, nums) != [[den * den * (i == j) for j in range(n)] for i in range(n)]:
        raise LatticeValidationError("matrix is not an involution (A^2 != I)")
    s = flag.k3._s[0]
    return all(sum(map(mul, row, s)) == den * x for row, x in zip(nums, s))


def require_isometry(matrix, gram, what: str = "matrix") -> tuple[tuple[Fraction, ...], ...]:
    """Coerce a square matrix A of the Gram matrix's size and check A^T G A = G.

    The one place a caller's G is written as integer rows, for `_isometry`;
    `what` names the matrix in the error raised when either check fails.
    """
    if any(len(row) != len(gram) for row in gram):
        raise LatticeValidationError("gram matrix must be square")
    return _isometry(matrix, *rows_over_common_denominator(as_matrix(gram)), what)[0]


def _isometry(matrix, rows, g: int, what: str) -> tuple:
    """Check A^T G A = G as N^T R N = a^2 R, for G = R/g and A = N/a; return A, N and a."""
    n = len(rows)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise LatticeValidationError(f"{what} size must match the restricted lattice rank")
    a = as_matrix(matrix)
    nums, den = rows_over_common_denominator(a)
    conjugated = integer_product(list(zip(*nums)), integer_product(rows, nums))
    scale = den * den
    if any(x != scale * y for row_c, row in zip(conjugated, rows) for x, y in zip(row_c, row)):
        conjugated = tuple(tuple(Fraction(x, scale * g) for x in row) for row in conjugated)
        gram = tuple(tuple(Fraction(x, g) for x in row) for row in rows)
        raise LatticeValidationError(
            f"{what} is not an isometry of the restricted lattice: A^T G A = {conjugated} != {gram}"
        )
    return a, nums, den


def _transport(nums, a: int, x, dx: int) -> tuple[Fraction, ...]:
    """A x for A = N/a and x = X/dx, from the integers N, a, X and dx: one `Fraction` per entry."""
    return tuple(Fraction(sum(map(mul, row, x)), a * dx) for row in nums)
