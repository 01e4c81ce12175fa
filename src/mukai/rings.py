"""Truncated even cohomology rings of threefolds, with exact coefficients.

A compact complex threefold M with torsion-free even cohomology has

    H^even(M, Q) = H^0 + H^2 + H^4 + H^6,

and everything this package computes lives in that truncated ring.  Fix a
basis e_1, ..., e_rho of H^2.  The only piece of geometry the ring needs
is the cubic intersection form

    d[i][j][k] = integral over M of e_i . e_j . e_k,

together with the anticanonical class c_1 (coordinates in the e-basis),
the linear form e -> integral of c_2(M) . e, the topological Euler number
and h^{1,2}.  Degree-4 classes are stored through Poincare duality, as the
vector of functionals a4[i] = integral of (class) . e_i; degree 0 and 6
are scalars (H^6 is identified with Q by the fundamental class).  With
that encoding every cup product reduces to exact rational arithmetic in
the d tensor, and no choice of H^4 basis is ever needed.

Elements are immutable `GradedClass` values supporting +, -, scalar
multiplication and the cup product; `star` is the degree involution that
negates H^2 and H^6.  `K3Restriction` carries the rank-rho Gram matrix of
an anticanonical K3 member, and `restrict_to_k3` projects a graded class
to the associated Mukai lattice H^0 + H^2 + H^4 of that surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import LatticeValidationError
from .rational import Rational, as_fraction, as_matrix, as_vector, format_fraction, mat_vec

__all__ = [
    "ThreefoldRing",
    "GradedClass",
    "K3Restriction",
    "K3Vector",
    "ring_multiply",
    "star",
    "restrict_to_k3",
]


def _coerce_triple(triple, rho: int) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    out = tuple(tuple(tuple(as_fraction(x) for x in row) for row in plane) for plane in triple)
    if len(out) != rho or any(len(p) != rho for p in out) or any(len(r) != rho for p in out for r in p):
        raise LatticeValidationError(f"triple intersection tensor must be {rho}x{rho}x{rho}")
    return out


@dataclass(frozen=True)
class ThreefoldRing:
    """Intersection data of a threefold: the exact skeleton of H^even.

    Parameters
    ----------
    name:
        Identifier used in reports and registry keys.
    basis_labels:
        Names of the chosen H^2 basis classes; their count fixes rho.
    triple:
        Fully symmetric rho^3 tensor of triple intersection numbers.
    c1_coords:
        Coordinates of the anticanonical class in the chosen basis
        (all zero exactly for Calabi-Yau rings).
    c2_values:
        The linear form e_i -> integral of c_2(TM) . e_i.
    chi_top:
        Topological Euler number.
    h12:
        Hodge number h^{1,2}(M).
    """

    name: str
    basis_labels: tuple[str, ...]
    triple: tuple[tuple[tuple[Fraction, ...], ...], ...]
    c1_coords: tuple[Fraction, ...]
    c2_values: tuple[Fraction, ...]
    chi_top: int
    h12: int

    def __post_init__(self):
        labels = tuple(str(s) for s in self.basis_labels)
        if not labels:
            raise LatticeValidationError("rank of H^2 must be at least 1")
        if len(set(labels)) != len(labels):
            raise LatticeValidationError("basis labels must be distinct")
        object.__setattr__(self, "basis_labels", labels)
        rho = len(labels)
        triple = _coerce_triple(self.triple, rho)
        for i in range(rho):
            for j in range(rho):
                for k in range(rho):
                    if triple[i][j][k] != triple[j][i][k] or triple[i][j][k] != triple[i][k][j]:
                        raise LatticeValidationError(
                            f"triple tensor not symmetric at ({i},{j},{k})"
                        )
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "c1_coords", as_vector(self.c1_coords))
        object.__setattr__(self, "c2_values", as_vector(self.c2_values))
        if len(self.c1_coords) != rho or len(self.c2_values) != rho:
            raise LatticeValidationError("c1/c2 data must have length rho")
        if not isinstance(self.chi_top, int) or not isinstance(self.h12, int):
            raise LatticeValidationError("chi_top and h12 must be integers")
        if self.is_calabi_yau and self.chi_top != 2 * (rho - self.h12):
            raise LatticeValidationError(
                f"Calabi-Yau Euler number mismatch: chi_top={self.chi_top} "
                f"but 2(rho - h12) = {2 * (rho - self.h12)}"
            )

    @property
    def rho(self) -> int:
        return len(self.basis_labels)

    @property
    def is_calabi_yau(self) -> bool:
        return all(c == 0 for c in self.c1_coords)

    # --- element constructors -------------------------------------------

    def graded(self, a0: Rational = 0, a2=None, a4=None, a6: Rational = 0) -> "GradedClass":
        zero = tuple(Fraction(0) for _ in range(self.rho))
        return GradedClass(
            ring=self,
            a0=as_fraction(a0),
            a2=as_vector(a2) if a2 is not None else zero,
            a4=as_vector(a4) if a4 is not None else zero,
            a6=as_fraction(a6),
        )

    def zero(self) -> "GradedClass":
        return self.graded()

    def unit(self) -> "GradedClass":
        return self.graded(a0=1)

    def point_class(self) -> "GradedClass":
        return self.graded(a6=1)

    def h2(self, coords) -> "GradedClass":
        return self.graded(a2=coords)

    # --- intersection form ----------------------------------------------

    def cubic(self, u, v, w) -> Fraction:
        """Triple intersection number of three degree-2 coordinate vectors."""
        u, v, w = as_vector(u), as_vector(v), as_vector(w)
        total = Fraction(0)
        for i in range(self.rho):
            for j in range(self.rho):
                for k in range(self.rho):
                    total += u[i] * v[j] * w[k] * self.triple[i][j][k]
        return total

    def square_to_h4(self, u, v) -> tuple[Fraction, ...]:
        """Product of two H^2 vectors as an H^4 functional vector.

        Component i is the integral of u . v . e_i.
        """
        u, v = as_vector(u), as_vector(v)
        return tuple(
            sum(
                (u[j] * v[k] * self.triple[j][k][i] for j in range(self.rho) for k in range(self.rho)),
                Fraction(0),
            )
            for i in range(self.rho)
        )

    def exp_h2(self, coords) -> "GradedClass":
        """Truncated exponential 1 + L + L^2/2 + L^3/6 of a degree-2 class."""
        coords = as_vector(coords)
        square = self.square_to_h4(coords, coords)
        return self.graded(
            a0=1,
            a2=coords,
            a4=tuple(x / 2 for x in square),
            a6=self.cubic(coords, coords, coords) / 6,
        )


@dataclass(frozen=True)
class GradedClass:
    """An element a0 + a2 + a4 + a6 of a truncated threefold ring.

    `a2` holds basis coordinates; `a4` holds the Poincare functionals
    against the same basis; `a0` and `a6` are rational scalars.
    """

    ring: ThreefoldRing
    a0: Fraction
    a2: tuple[Fraction, ...]
    a4: tuple[Fraction, ...]
    a6: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a0", as_fraction(self.a0))
        object.__setattr__(self, "a2", as_vector(self.a2))
        object.__setattr__(self, "a4", as_vector(self.a4))
        object.__setattr__(self, "a6", as_fraction(self.a6))
        if len(self.a2) != self.ring.rho or len(self.a4) != self.ring.rho:
            raise LatticeValidationError(
                f"class has {len(self.a2)}/{len(self.a4)} coordinates, ring has rho={self.ring.rho}"
            )

    def _check_same_ring(self, other: "GradedClass"):
        if self.ring != other.ring:
            raise LatticeValidationError(
                f"classes live in different rings ({self.ring.name!r} vs {other.ring.name!r})"
            )

    def __add__(self, other: "GradedClass") -> "GradedClass":
        self._check_same_ring(other)
        return GradedClass(
            self.ring,
            self.a0 + other.a0,
            tuple(a + b for a, b in zip(self.a2, other.a2)),
            tuple(a + b for a, b in zip(self.a4, other.a4)),
            self.a6 + other.a6,
        )

    def __neg__(self) -> "GradedClass":
        return self.scale(-1)

    def __sub__(self, other: "GradedClass") -> "GradedClass":
        return self + (-other)

    def scale(self, factor: Rational) -> "GradedClass":
        factor = as_fraction(factor)
        return GradedClass(
            self.ring,
            factor * self.a0,
            tuple(factor * a for a in self.a2),
            tuple(factor * a for a in self.a4),
            factor * self.a6,
        )

    def __rmul__(self, factor):
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GradedClass):
            return ring_multiply(self, other)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def integral(self) -> Fraction:
        """Integral over the threefold, i.e. the degree-6 coefficient."""
        return self.a6

    def components(self):
        return (self.a0, self.a2, self.a4, self.a6)

    def __str__(self):
        parts = [
            format_fraction(self.a0),
            "(" + ", ".join(format_fraction(x) for x in self.a2) + ")",
            "(" + ", ".join(format_fraction(x) for x in self.a4) + ")",
            format_fraction(self.a6),
        ]
        return "[" + " | ".join(parts) + "]"


def ring_multiply(x: GradedClass, y: GradedClass) -> GradedClass:
    """Cup product in the truncated ring.

    With a4 stored as Poincare functionals the product needs only the
    triple tensor d:

        (xy)_0    = x0 y0
        (xy)_2    = x0 y2 + y0 x2
        (xy)_4[i] = x0 y4[i] + y0 x4[i] + sum_{j,k} x2[j] y2[k] d[j][k][i]
        (xy)_6    = x0 y6 + y0 x6 + sum_i (x2[i] y4[i] + y2[i] x4[i])

    The mixed degree-6 term pairs coordinates against functionals, which
    is exactly the Poincare pairing.
    """
    x._check_same_ring(y)
    ring = x.ring
    a0 = x.a0 * y.a0
    a2 = tuple(x.a0 * y.a2[i] + y.a0 * x.a2[i] for i in range(ring.rho))
    cross = ring.square_to_h4(x.a2, y.a2)
    a4 = tuple(x.a0 * y.a4[i] + y.a0 * x.a4[i] + cross[i] for i in range(ring.rho))
    a6 = (
        x.a0 * y.a6
        + y.a0 * x.a6
        + sum((x.a2[i] * y.a4[i] + y.a2[i] * x.a4[i] for i in range(ring.rho)), Fraction(0))
    )
    return GradedClass(ring, a0, a2, a4, a6)


def star(x: GradedClass) -> GradedClass:
    """Degree involution: +1 on H^0 and H^4, -1 on H^2 and H^6.

    Acts as pullback along "reverse orientation of odd classes"; it is a
    ring automorphism and an involution, and sends the Chern character of
    a sheaf to the Chern character of its dual.
    """
    return GradedClass(
        x.ring,
        x.a0,
        tuple(-a for a in x.a2),
        x.a4,
        -x.a6,
    )


@dataclass(frozen=True)
class K3Restriction:
    """Restricted intersection lattice of an anticanonical K3 member.

    For a surface S in the class s inside the threefold, the degree-2
    part of the ambient ring restricts to S with Gram matrix

        G[i][j] = integral over M of e_i . e_j . s,

    which is all the quadratic data the K3 Mukai pairing needs.
    """

    gram: tuple[tuple[Fraction, ...], ...]
    s_coords: tuple[Fraction, ...]

    def __post_init__(self):
        gram = as_matrix(self.gram)
        if any(len(row) != len(gram) for row in gram):
            raise LatticeValidationError("gram matrix must be square")
        for i in range(len(gram)):
            for j in range(len(gram)):
                if gram[i][j] != gram[j][i]:
                    raise LatticeValidationError(f"gram matrix not symmetric at ({i},{j})")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "s_coords", as_vector(self.s_coords))
        if len(self.s_coords) != len(gram):
            raise LatticeValidationError("section class length must match gram rank")

    @classmethod
    def from_ring(cls, ring: ThreefoldRing, s_coords) -> "K3Restriction":
        s = as_vector(s_coords)
        if len(s) != ring.rho:
            raise LatticeValidationError("section class length must match rho")
        gram = tuple(
            tuple(
                sum((ring.triple[i][j][k] * s[k] for k in range(ring.rho)), Fraction(0))
                for j in range(ring.rho)
            )
            for i in range(ring.rho)
        )
        return cls(gram=gram, s_coords=s)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def dot(self, u, v) -> Fraction:
        """Intersection number u . v on the surface, u and v in the e-basis."""
        u, v = as_vector(u), as_vector(v)
        return sum((x * y for x, y in zip(u, mat_vec(self.gram, v))), Fraction(0))


@dataclass(frozen=True)
class K3Vector:
    """Mukai-lattice element (v0, v2, v4) of a K3 surface.

    v2 is a coordinate vector against the restricted basis; v0 and v4 are
    scalars (rank-like and point-like components).
    """

    v0: Fraction
    v2: tuple[Fraction, ...]
    v4: Fraction

    def __post_init__(self):
        object.__setattr__(self, "v0", as_fraction(self.v0))
        object.__setattr__(self, "v2", as_vector(self.v2))
        object.__setattr__(self, "v4", as_fraction(self.v4))

    def __add__(self, other: "K3Vector") -> "K3Vector":
        if len(self.v2) != len(other.v2):
            raise LatticeValidationError("K3 vectors have different lattice ranks")
        return K3Vector(
            self.v0 + other.v0,
            tuple(a + b for a, b in zip(self.v2, other.v2)),
            self.v4 + other.v4,
        )

    def __neg__(self) -> "K3Vector":
        return self.scale(-1)

    def __sub__(self, other: "K3Vector") -> "K3Vector":
        return self + (-other)

    def scale(self, factor: Rational) -> "K3Vector":
        factor = as_fraction(factor)
        return K3Vector(factor * self.v0, tuple(factor * a for a in self.v2), factor * self.v4)

    def __rmul__(self, factor):
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    def __str__(self):
        mid = ", ".join(format_fraction(x) for x in self.v2)
        return f"({format_fraction(self.v0)}, ({mid}), {format_fraction(self.v4)})"


def restrict_to_k3(x: GradedClass, restriction: K3Restriction) -> K3Vector:
    """Project a graded class to the K3 lattice of an anticanonical member.

    Degree 0 and 2 restrict as-is; the degree-4 functional pairs against
    the section class, since a point count on S is the ambient integral
    of the degree-4 part against s.  Degree 6 dies on a surface.
    """
    if len(restriction.s_coords) != x.ring.rho:
        raise LatticeValidationError("restriction rank does not match the ring")
    v4 = sum((s * a for s, a in zip(restriction.s_coords, x.a4)), Fraction(0))
    return K3Vector(x.a0, x.a2, v4)
