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

The ring keeps the tensor twice.  The public `triple` attribute is the
`Fraction` tensor that documents and users read.  The kernel reads a copy
made once at construction: the tensor times one common denominator D (the
lcm of its entries' denominators), as rho integer planes, plane i being
D d[i][.][.] flattened.  `square_to_h4`, `cubic`, `exp_h2` and
`ring_multiply` scale their input vectors to integer numerators over one
denominator, run the rho^3 loop in `int` and make `Fraction`s only for
their results, so no `Fraction` is made or normalised inside the loop.

Elements are immutable `GradedClass` values supporting +, -, scalar
multiplication and the cup product; `star` is the degree involution that
negates H^2 and H^6.  `K3Restriction` carries the rank-rho Gram matrix of
an anticanonical K3 member, and `restrict_to_k3` projects a graded class
to the associated Mukai lattice H^0 + H^2 + H^4 of that surface.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import LatticeValidationError
from .rational import Rational, as_fraction, as_matrix, as_vector, format_fraction, mat_vec
from .record import Record

__all__ = [
    "ThreefoldRing",
    "GradedClass",
    "K3Restriction",
    "K3Vector",
    "ring_multiply",
    "top_degree",
    "star",
    "restrict_to_k3",
]


def _coerce_triple(triple, rho: int) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    out = tuple(tuple(tuple(as_fraction(x) for x in row) for row in plane) for plane in triple)
    if len(out) != rho or any(len(p) != rho for p in out) or any(len(r) != rho for p in out for r in p):
        raise LatticeValidationError(f"triple intersection tensor must be {rho}x{rho}x{rho}")
    return out


def _over_common_denominator(values) -> tuple[list[int], int]:
    """Integer numerators of exact values over their least common denominator."""
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def _check_lengths(ring: "ThreefoldRing", a2, a4) -> None:
    if len(a2) != ring.rho or len(a4) != ring.rho:
        raise LatticeValidationError(
            f"class has {len(a2)}/{len(a4)} coordinates, ring has rho={ring.rho}"
        )


class ThreefoldRing(Record):
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

    def __init__(self, name, basis_labels, triple, c1_coords, c2_values, chi_top, h12):
        labels = tuple(str(s) for s in basis_labels)
        if not labels:
            raise LatticeValidationError("rank of H^2 must be at least 1")
        if len(set(labels)) != len(labels):
            raise LatticeValidationError("basis labels must be distinct")
        rho = len(labels)
        triple = _coerce_triple(triple, rho)
        for i in range(rho):
            for j in range(rho):
                for k in range(rho):
                    if triple[i][j][k] != triple[j][i][k] or triple[i][j][k] != triple[i][k][j]:
                        raise LatticeValidationError(
                            f"triple tensor not symmetric at ({i},{j},{k})"
                        )
        flat, den = _over_common_denominator([x for plane in triple for row in plane for x in row])
        c1_coords, c2_values = as_vector(c1_coords), as_vector(c2_values)
        if len(c1_coords) != rho or len(c2_values) != rho:
            raise LatticeValidationError("c1/c2 data must have length rho")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (chi_top, h12)):
            raise LatticeValidationError("chi_top and h12 must be integers")
        vars(self).update(
            name=name,
            basis_labels=labels,
            triple=triple,
            c1_coords=c1_coords,
            c2_values=c2_values,
            chi_top=chi_top,
            h12=h12,
            # The kernel's copy of `triple`: integer planes over the denominator _den.
            _planes=tuple(tuple(flat[i * rho * rho:(i + 1) * rho * rho]) for i in range(rho)),
            _den=den,
            # Values `chern` derives once per ring (the Todd class and its
            # square root), as coefficient tuples; see `chern._per_ring`.
            _cache={},
        )
        if self.is_calabi_yau and chi_top != 2 * (rho - h12):
            raise LatticeValidationError(
                f"Calabi-Yau Euler number mismatch: chi_top={chi_top} "
                f"but 2(rho - h12) = {2 * (rho - h12)}"
            )

    @property
    def rho(self) -> int:
        return len(self.basis_labels)

    @property
    def is_calabi_yau(self) -> bool:
        return all(c == 0 for c in self.c1_coords)

    # --- element constructors -------------------------------------------

    def graded(self, a0: Rational = 0, a2=None, a4=None, a6: Rational = 0) -> "GradedClass":
        zero = (Fraction(0),) * self.rho
        a2 = as_vector(a2) if a2 is not None else zero
        a4 = as_vector(a4) if a4 is not None else zero
        _check_lengths(self, a2, a4)
        return GradedClass._exact(self, as_fraction(a0), a2, a4, as_fraction(a6))

    def zero(self) -> "GradedClass":
        return self.graded()

    def unit(self) -> "GradedClass":
        return self.graded(a0=1)

    def point_class(self) -> "GradedClass":
        return self.graded(a6=1)

    def h2(self, coords) -> "GradedClass":
        return self.graded(a2=coords)

    # --- intersection form ----------------------------------------------

    def _vector(self, coords) -> tuple[Fraction, ...]:
        """A degree-2 coordinate vector, coerced and checked against rho."""
        coords = as_vector(coords)
        if len(coords) != self.rho:
            raise LatticeValidationError(
                f"vector has {len(coords)} coordinates, ring has rho={self.rho}"
            )
        return coords

    def _square(self, u: list[int], v: list[int]) -> list[int]:
        """D times sum_{j,k} u[j] v[k] d[j][k][i] for each i, in integers."""
        outer = [a * b for a in u for b in v]
        return [sum(map(mul, outer, plane)) for plane in self._planes]

    def cubic(self, u, v, w) -> Fraction:
        """Triple intersection number of three degree-2 coordinate vectors."""
        (u, du), (v, dv), (w, dw) = (_over_common_denominator(self._vector(x)) for x in (u, v, w))
        return Fraction(sum(map(mul, w, self._square(u, v))), du * dv * dw * self._den)

    def square_to_h4(self, u, v) -> tuple[Fraction, ...]:
        """Product of two H^2 vectors as an H^4 functional vector.

        Component i is the integral of u . v . e_i.
        """
        (u, du), (v, dv) = (_over_common_denominator(self._vector(x)) for x in (u, v))
        den = du * dv * self._den
        return tuple(Fraction(n, den) for n in self._square(u, v))

    def exp_h2(self, coords) -> "GradedClass":
        """Truncated exponential 1 + L + L^2/2 + L^3/6 of a degree-2 class."""
        coords = self._vector(coords)
        nums, den = _over_common_denominator(coords)
        square = self._square(nums, nums)
        den2 = 2 * den * den * self._den
        return GradedClass._exact(
            self,
            Fraction(1),
            coords,
            tuple(Fraction(n, den2) for n in square),
            Fraction(sum(map(mul, nums, square)), 3 * den * den2),
        )


class GradedClass(Record):
    """An element a0 + a2 + a4 + a6 of a truncated threefold ring.

    `a2` holds basis coordinates; `a4` holds the Poincare functionals
    against the same basis; `a0` and `a6` are rational scalars.
    """

    ring: ThreefoldRing
    a0: Fraction
    a2: tuple[Fraction, ...]
    a4: tuple[Fraction, ...]
    a6: Fraction

    def __init__(self, ring, a0, a2, a4, a6):
        vars(self).update(ring=ring, a0=a0, a2=a2, a4=a4, a6=a6)
        self.__post_init__()

    def __post_init__(self):
        # Separate from `__init__` because bench/tracing.py counts checked
        # constructions through this name; `_exact` skips both.
        vars(self).update(
            a0=as_fraction(self.a0),
            a2=as_vector(self.a2),
            a4=as_vector(self.a4),
            a6=as_fraction(self.a6),
        )
        _check_lengths(self.ring, self.a2, self.a4)

    @classmethod
    def _exact(cls, ring, a0: Fraction, a2: tuple, a4: tuple, a6: Fraction) -> "GradedClass":
        """Build from `Fraction`s and `Fraction` tuples of length rho, unchecked."""
        x = object.__new__(cls)
        x.__dict__.update(ring=ring, a0=a0, a2=a2, a4=a4, a6=a6)
        return x

    def _check_same_ring(self, other: "GradedClass"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise LatticeValidationError(
                f"classes live in different rings ({self.ring.name!r} vs {other.ring.name!r})"
            )

    def _numerators(self) -> tuple[int, list[int], list[int], int, int]:
        """Integer numerators of a0, a2, a4, a6 over one common denominator, given last."""
        rho = len(self.a2)
        nums, den = _over_common_denominator((self.a0, *self.a2, *self.a4, self.a6))
        return nums[0], nums[1:rho + 1], nums[rho + 1:-1], nums[-1], den

    def __add__(self, other: "GradedClass") -> "GradedClass":
        self._check_same_ring(other)
        return GradedClass._exact(
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
        return GradedClass._exact(
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


def _top_numerator(x0, x2, x4, x6, y0, y2, y4, y6) -> int:
    return x0 * y6 + y0 * x6 + sum(map(mul, x2, y4)) + sum(map(mul, y2, x4))


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
    x0, x2, x4, x6, dx = x._numerators()
    y0, y2, y4, y6, dy = y._numerators()
    den = dx * dy
    cross = ring._square(x2, y2)
    return GradedClass._exact(
        ring,
        Fraction(x0 * y0, den),
        tuple(Fraction(x0 * b + y0 * a, den) for a, b in zip(x2, y2)),
        tuple(
            Fraction((x0 * b + y0 * a) * ring._den + c, den * ring._den)
            for a, b, c in zip(x4, y4, cross)
        ),
        Fraction(_top_numerator(x0, x2, x4, x6, y0, y2, y4, y6), den),
    )


def top_degree(x: GradedClass, y: GradedClass) -> Fraction:
    """Degree-6 part of the cup product x . y, without the triple tensor.

    It is x0 y6 + y0 x6 + x2.y4 + y2.x4, the last two being Poincare
    pairings of coordinates against functionals; so integrals of a
    product, such as the Euler form, need no rho^3 loop.
    """
    x._check_same_ring(y)
    *xs, dx = x._numerators()
    *ys, dy = y._numerators()
    return Fraction(_top_numerator(*xs, *ys), dx * dy)


def star(x: GradedClass) -> GradedClass:
    """Degree involution: +1 on H^0 and H^4, -1 on H^2 and H^6.

    Acts as pullback along "reverse orientation of odd classes"; it is a
    ring automorphism and an involution, and sends the Chern character of
    a sheaf to the Chern character of its dual.
    """
    return GradedClass._exact(
        x.ring,
        x.a0,
        tuple(-a for a in x.a2),
        x.a4,
        -x.a6,
    )


class K3Restriction(Record):
    """Restricted intersection lattice of an anticanonical K3 member.

    For a surface S in the class s inside the threefold, the degree-2
    part of the ambient ring restricts to S with Gram matrix

        G[i][j] = integral over M of e_i . e_j . s,

    which is all the quadratic data the K3 Mukai pairing needs.
    """

    gram: tuple[tuple[Fraction, ...], ...]
    s_coords: tuple[Fraction, ...]

    def __init__(self, gram, s_coords):
        gram = as_matrix(gram)
        if any(len(row) != len(gram) for row in gram):
            raise LatticeValidationError("gram matrix must be square")
        for i in range(len(gram)):
            for j in range(len(gram)):
                if gram[i][j] != gram[j][i]:
                    raise LatticeValidationError(f"gram matrix not symmetric at ({i},{j})")
        s_coords = as_vector(s_coords)
        if len(s_coords) != len(gram):
            raise LatticeValidationError("section class length must match gram rank")
        vars(self).update(gram=gram, s_coords=s_coords)

    @classmethod
    def from_ring(cls, ring: ThreefoldRing, s_coords) -> "K3Restriction":
        s = as_vector(s_coords)
        if len(s) != ring.rho:
            raise LatticeValidationError("section class length must match rho")
        nums, den = _over_common_denominator(s)
        den *= ring._den
        rho = ring.rho
        gram = tuple(
            tuple(
                Fraction(sum(map(mul, plane[j * rho:(j + 1) * rho], nums)), den) for j in range(rho)
            )
            for plane in ring._planes
        )
        return cls(gram=gram, s_coords=s)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def dot(self, u, v) -> Fraction:
        """Intersection number u . v on the surface, u and v in the e-basis."""
        u, v = as_vector(u), as_vector(v)
        return sum((x * y for x, y in zip(u, mat_vec(self.gram, v))), Fraction(0))


class K3Vector(Record):
    """Mukai-lattice element (v0, v2, v4) of a K3 surface.

    v2 is a coordinate vector against the restricted basis; v0 and v4 are
    scalars (rank-like and point-like components).
    """

    v0: Fraction
    v2: tuple[Fraction, ...]
    v4: Fraction

    def __init__(self, v0, v2, v4):
        vars(self).update(v0=as_fraction(v0), v2=as_vector(v2), v4=as_fraction(v4))

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
