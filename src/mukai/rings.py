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

A ring keeps its tensor once, in integers, made in the pass that checks
symmetry: the tensor times one common denominator D (the lcm of its
entries' denominators; 1, with no lcm taken, for the `int`s documents
give), packed as rho planes, plane i holding D d[i][j][k] for j <= k.  So
`_square` and `_rows` each read rho^2 (rho+1)/2 integers.  The public
`triple`, the `Fraction` tensor users read, is made from those planes on
its first read (`record.kept`), as is `gram` of a `K3Restriction.from_ring`.

A `GradedClass` is kept the same way, as integer numerators over one
positive denominator in lowest terms.  The cup product, `top_degree`, +,
-, `scale`, `star` and `exp_h2` go from those integers to integers, with
the packed pass in `int` and one gcd to reduce; the `Fraction` coefficients
are made only when they are read, each on its first read, and kept on
the class (`record.kept`).  `K3Restriction` keeps integers over one
denominator too, so restriction and its dot products are integer sums.

The cup product is one packed pass, the square term of x2 and y2.  When y
is fixed (td and sqrt(td) per ring, 1 - e^{-S} per flag), its owner keeps
y as a fixed factor: y's integers and the rho^2 rows
R[i][j] = D sum_k d[i][j][k] y2[k], one packed pass made once.  Never the
class, which points at its ring: kept on the ring, it would form a cycle.
Multiplying by y then costs rho^2, and so does an integral [x . z . y]_6,
whose square term is the bilinear form x2^T R z2 (d is symmetric).
`ring_multiply` stays the one general product.  Such an integral has one
integer route, in two parts: `_top_linear` (the terms of order rho) and
`_bilinear` (the square term).  The Euler form (`pairings`) forms its
`Fraction` from them, and `chi_split` forms the square term once for both
orders.  `K3Restriction.dot` is `_bilinear` of its Gram rows.

Elements are immutable `GradedClass` values supporting +, -, scalar
multiplication and the cup product; `star` is the degree involution that
negates H^2 and H^6.  `K3Restriction` carries the rank-rho Gram matrix of
an anticanonical K3 member, and `restrict_to_k3` projects a graded class
to the associated Mukai lattice H^0 + H^2 + H^4 of that surface.  The
restriction also keeps G as integer rows R over one denominator g
(G = R/g); its rank and kernels, which `flags` reads, are taken on R by
the integer elimination core of `linalg`.  A gluing or involution matrix
is checked once, on R, and the joint kernel reuses the N/a of that check.

Values the kernel computes from checked records are built unchecked with
`Record._exact`: classes from their integers, the restriction of a ring to
a section (`K3Restriction.from_ring`) and restricted vectors.  A ring
decides once, at construction, whether it is Calabi-Yau.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import add, itemgetter, mul

from . import linalg
from .errors import LatticeValidationError
from .rational import (
    Rational,
    as_fraction,
    as_matrix,
    as_vector,
    integer_product,
    over_common_denominator,
    rows_over_common_denominator,
)
from .record import Record, kept

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


def _packed_planes(flat: list[int], rho: int) -> tuple[tuple[int, ...], ...]:
    """Plane i of the flat rho^3 tensor as d[i][j][k], j <= k; raise at the first asymmetric (i,j,k)."""
    planes = [[] for _ in range(rho)]
    for i in range(rho):
        for j in range(rho):
            row = (i * rho + j) * rho
            for k in range(rho):
                x = flat[row + k]
                if x != flat[(j * rho + i) * rho + k] or x != flat[(i * rho + k) * rho + j]:
                    raise LatticeValidationError(f"triple tensor not symmetric at ({i},{j},{k})")
            planes[i] += flat[row + j:row + rho]
    return tuple(map(tuple, planes))


@cache
def _packing(rho: int) -> tuple:
    """Three index getters for rho >= 2, made once per rho.

    Over the rho^2 products u_j v_k and an appended 0, the first picks
    (j, k) and the second (k, j), or the 0 when j = k, for each packed pair
    j <= k; the third reads R row by row off its packed half.
    """
    pairs = [(j, k) for j in range(rho) for k in range(j, rho)]
    at = {pair: p for p, pair in enumerate(pairs)}
    return (itemgetter(*[j * rho + k for j, k in pairs]),
            itemgetter(*[k * rho + j if j < k else -1 for j, k in pairs]),
            itemgetter(*[at[min(i, j), max(i, j)] for i in range(rho) for j in range(rho)]))


def _exact_values(values) -> list:
    """An `int` or `Fraction` as it is, any other value through `as_fraction`: `as_vector`'s refusals."""
    if isinstance(values, (str, bytes, bytearray)):
        as_vector(values)  # refused there, with the message of `as_vector`
    return [x if type(x) in (int, Fraction) else as_fraction(x) for x in values]


def _unpacked(ring) -> tuple:
    """The `Fraction` tensor `triple`: plane i is `_rows` of the i-th basis vector, over D."""
    units = [[int(i == j) for j in range(ring.rho)] for i in range(ring.rho)]
    return tuple([tuple([_fractions(row, ring._den) for row in ring._rows(e)]) for e in units])


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
    triple: tuple[tuple[tuple[Fraction, ...], ...], ...] = kept(_unpacked)
    c1_coords: tuple[Fraction, ...]
    c2_values: tuple[Fraction, ...]
    chi_top: int
    h12: int

    def __post_init__(self):
        basis_labels = self.basis_labels
        if isinstance(basis_labels, str):
            raise LatticeValidationError(f"basis labels must be a sequence of strings, got {basis_labels!r}")
        labels = tuple(str(s) for s in basis_labels)
        if not labels:
            raise LatticeValidationError("rank of H^2 must be at least 1")
        if len(set(labels)) != len(labels):
            raise LatticeValidationError("basis labels must be distinct")
        rho = len(labels)
        triple = [[_exact_values(row) for row in plane] for plane in self.triple]
        if len(triple) != rho or any(len(p) != rho or any(len(r) != rho for r in p) for p in triple):
            raise LatticeValidationError(f"triple intersection tensor must be {rho}x{rho}x{rho}")
        flat = [x for plane in triple for row in plane for x in row]
        flat, den = (flat, 1) if all(type(x) is int for x in flat) else over_common_denominator(flat)
        packed = _packed_planes(flat, rho)
        c1_coords, c2_values = as_vector(self.c1_coords), as_vector(self.c2_values)
        if len(c1_coords) != rho or len(c2_values) != rho:
            raise LatticeValidationError("c1/c2 data must have length rho")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (self.chi_top, self.h12)):
            raise LatticeValidationError("chi_top and h12 must be integers")
        del vars(self)["triple"]  # made from the packed planes on its first read
        vars(self).update(
            basis_labels=labels,
            c1_coords=c1_coords,
            c2_values=c2_values,
            # The kernel's copy of `triple`: packed integer planes over the denominator _den.
            _packed=packed,
            _den=den,
            # Decided once here: the Euler check below and every Mukai vector's tag read it.
            is_calabi_yau=all(c == 0 for c in c1_coords),
        )
        if self.is_calabi_yau and self.chi_top != 2 * (rho - self.h12):
            raise LatticeValidationError(
                f"Calabi-Yau Euler number mismatch: chi_top={self.chi_top} "
                f"but 2(rho - h12) = {2 * (rho - self.h12)}"
            )

    @property
    def rho(self) -> int:
        return len(self.basis_labels)

    @kept
    def _td(self) -> tuple:
        """The Todd class 1 + c1/2 + (c1^2 + c2)/12 + c1 c2/24 as a fixed factor.

        With c1 = n/a, c2 = m/b and D the tensor's denominator, `_square(n, n)`
        is D a^2 c1^2; over L = 24 a^2 b D the class has numerators L,
        12 a b D n, 2 (b D a^2 c1^2 + a^2 D m) and a D n.m.
        """
        (n, a), (m, b) = over_common_denominator(self.c1_coords), over_common_denominator(self.c2_values)
        d = self._den
        n4 = [2 * b * x + 2 * a * a * d * y for x, y in zip(self._square(n, n), m)]
        den = 24 * a * a * b * d
        return _fixed_factor(_reduced(self, den, den, [12 * a * b * d * x for x in n], n4,
                                      a * d * sum(map(mul, n, m))))

    @kept
    def _sqrt_td(self) -> tuple:
        """sqrt(td) as a fixed factor."""
        return _fixed_factor(sqrt_series(GradedClass._exact(ring=self, _ints=self._td[0])))

    # --- element constructors -------------------------------------------

    def graded(self, a0: Rational = 0, a2=None, a4=None, a6: Rational = 0) -> "GradedClass":
        zero = (Fraction(0),) * self.rho
        return GradedClass(self, a0, zero if a2 is None else a2, zero if a4 is None else a4, a6)

    # --- intersection form ----------------------------------------------

    def _numerators(self, coords) -> tuple[list[int], int]:
        """Integer numerators over one denominator of rho coordinates; an int makes no `Fraction`."""
        nums, den = over_common_denominator(_exact_values(coords))
        if len(nums) != self.rho:
            raise LatticeValidationError(f"vector has {len(nums)} coordinates, ring has rho={self.rho}")
        return nums, den

    def _square(self, u: list[int], v: list[int]) -> list[int]:
        """D times sum_{j,k} u[j] v[k] d[j][k][i] for each i: plane i against weights u_j v_k + u_k v_j."""
        if len(u) == 1:  # one weight, one product: the gathers below would cost more than they save
            return [u[0] * v[0] * self._packed[0][0]]
        upper, lower, _ = _packing(len(u))
        outer = [a * b for a in u for b in v]
        outer.append(0)
        weights = list(map(add, upper(outer), lower(outer)))
        return [sum(map(mul, weights, plane)) for plane in self._packed]

    def _rows(self, v: list[int]) -> tuple[tuple[int, ...], ...]:
        """The rho^2 integers R[i][j] = D sum_k d[i][j][k] v[k] of a fixed H^2 vector v.

        Row i dotted with u is `_square(u, v)[i]`, so a product by v costs
        rho^2 once R is kept.  As d is symmetric, so is R = D sum_k v[k] d[k]:
        the planes summed against v, then mirrored.  R is also the matrix of
        the form (u, w) -> D sum_i v[i] (u w)_4[i].
        """
        rho = len(v)
        if rho == 1:  # as in `_square`
            return ((v[0] * self._packed[0][0],),)
        full = _packing(rho)[2]([sum(map(mul, column, v)) for column in zip(*self._packed)])
        return tuple([full[i:i + rho] for i in range(0, rho * rho, rho)])

    def cubic(self, u, v, w) -> Fraction:
        """Triple intersection number of three degree-2 coordinate vectors."""
        (u, du), (v, dv), (w, dw) = map(self._numerators, (u, v, w))
        return Fraction(sum(map(mul, w, self._square(u, v))), du * dv * dw * self._den)

    def square_to_h4(self, u, v) -> tuple[Fraction, ...]:
        """Product of two H^2 vectors as an H^4 functional vector.

        Component i is the integral of u . v . e_i.
        """
        (u, du), (v, dv) = map(self._numerators, (u, v))
        den = du * dv * self._den
        return tuple(Fraction(n, den) for n in self._square(u, v))

    def exp_h2(self, coords) -> "GradedClass":
        """Truncated exponential 1 + L + L^2/2 + L^3/6 of a degree-2 class."""
        return self._exp(*self._numerators(coords))

    def _exp(self, nums, den: int) -> "GradedClass":
        """`exp_h2` of the class with integer coordinates `nums` over `den`."""
        square = self._square(nums, nums)
        d = 6 * den**3 * self._den
        n2, n4 = [d // den * a for a in nums], [3 * den * a for a in square]
        return _reduced(self, d, d, n2, n4, sum(map(mul, nums, square)))


class GradedClass(Record):
    """An element a0 + a2 + a4 + a6 of a truncated threefold ring.

    `a2` holds basis coordinates; `a4` holds the Poincare functionals
    against the same basis; `a0` and `a6` are rational scalars.  They are
    stored as `_ints` = (den, n0, n2, n4, n6), integer numerators (n2, n4
    tuples of length rho) over one den > 0 coprime to all of them.  Each
    coefficient is made into `Fraction`s on its first read and kept in the
    instance dict (`record.kept`); `==`, `hash` and `repr` read the fields.
    """

    ring: ThreefoldRing
    a0: Fraction = kept(lambda x: Fraction(x._ints[1], x._ints[0]))
    a2: tuple[Fraction, ...] = kept(lambda x: _fractions(x._ints[2], x._ints[0]))
    a4: tuple[Fraction, ...] = kept(lambda x: _fractions(x._ints[3], x._ints[0]))
    a6: Fraction = kept(lambda x: Fraction(x._ints[4], x._ints[0]))

    def __post_init__(self):
        # Popped, so that each coefficient is made from `_ints` on its first read.
        a0, a2, a4, a6 = map(vars(self).pop, ("a0", "a2", "a4", "a6"))
        a2, a4 = as_vector(a2), as_vector(a4)
        rho = self.ring.rho
        if len(a2) != rho or len(a4) != rho:
            raise LatticeValidationError(f"class has {len(a2)}/{len(a4)} coordinates, ring has rho={rho}")
        # Over the lcm of the denominators, so already coprime.
        nums, den = over_common_denominator((as_fraction(a0), *a2, *a4, as_fraction(a6)))
        vars(self)["_ints"] = den, nums[0], tuple(nums[1:rho + 1]), tuple(nums[rho + 1:-1]), nums[-1]

    def _check_same_ring(self, other: "GradedClass"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise LatticeValidationError(
                f"classes live in different rings ({self.ring.name!r} vs {other.ring.name!r})"
            )

    def __add__(self, other: "GradedClass") -> "GradedClass":
        return self._plus(other, 1)

    def __sub__(self, other: "GradedClass") -> "GradedClass":
        return self._plus(other, -1)

    def _plus(self, other: "GradedClass", sign: int) -> "GradedClass":
        self._check_same_ring(other)
        dx, x0, x2, x4, x6 = self._ints
        dy, y0, y2, y4, y6 = other._ints
        den = lcm(dx, dy)
        fx, fy = den // dx, sign * (den // dy)
        n2, n4 = [a * fx + b * fy for a, b in zip(x2, y2)], [a * fx + b * fy for a, b in zip(x4, y4)]
        return _reduced(self.ring, den, x0 * fx + y0 * fy, n2, n4, x6 * fx + y6 * fy)

    def __neg__(self) -> "GradedClass":
        return self.scale(-1)

    def scale(self, factor: Rational) -> "GradedClass":
        factor = as_fraction(factor)
        p = factor.numerator
        den, n0, n2, n4, n6 = self._ints
        n2, n4 = [p * a for a in n2], [p * a for a in n4]
        return _reduced(self.ring, den * factor.denominator, p * n0, n2, n4, p * n6)

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

    def components(self):
        return (self.a0, self.a2, self.a4, self.a6)

    def __str__(self):
        a2, a4 = ", ".join(map(str, self.a2)), ", ".join(map(str, self.a4))
        return f"[{self.a0} | ({a2}) | ({a4}) | {self.a6}]"


def _fractions(nums, den: int) -> tuple[Fraction, ...]:
    return tuple([Fraction(n, den) for n in nums])


def _reduced(ring, den: int, n0: int, n2: list, n4: list, n6: int) -> GradedClass:
    """The class with numerators n0, n2, n4, n6 over den > 0, in lowest terms."""
    if den != 1:
        g = gcd(den, n0, n6, *n2, *n4)
        if g != 1:
            den, n0, n6 = den // g, n0 // g, n6 // g
            n2, n4 = [a // g for a in n2], [a // g for a in n4]
    return GradedClass._exact(ring=ring, _ints=(den, n0, tuple(n2), tuple(n4), n6))


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
    return _product(x.ring, x._ints, y._ints, x.ring._square(x._ints[2], y._ints[2]))


def _product(ring: ThreefoldRing, x: tuple, y: tuple, square: list[int]) -> GradedClass:
    """The product of two `_ints` tuples, given the integer square term of x2 and y2."""
    dx, x0, x2, x4, x6 = x
    dy, y0, y2, y4, y6 = y
    d = ring._den
    n2 = [(x0 * b + y0 * a) * d for a, b in zip(x2, y2)]
    n4 = [(x0 * b + y0 * a) * d + c for a, b, c in zip(x4, y4, square)]
    top = _top_numerator(x0, x2, x4, x6, y0, y2, y4, y6)
    return _reduced(ring, dx * dy * d, x0 * y0 * d, n2, n4, top * d)


def _fixed_factor(y: GradedClass) -> tuple:
    """A class kept for repeated products: (y._ints, the `_rows` of y2), integers only.

    One packed pass; each product by y, or integral against it, then costs rho^2.
    """
    return y._ints, y.ring._rows(y._ints[2])


def _times_fixed(x: GradedClass, fixed: tuple) -> GradedClass:
    """x . y for a fixed factor y of x's ring, the square term read off y's rows."""
    ints, rows = fixed
    x2 = x._ints[2]
    return _product(x.ring, x._ints, ints, [sum(map(mul, row, x2)) for row in rows])


def sqrt_series(x: GradedClass) -> GradedClass:
    """Formal square root of a unital graded class, degree by degree.

    Writing y = 1 + y2 + y4 + y6 and matching y^2 = x gives

        y2 = x2 / 2,
        y4 = (x4 - y2^2) / 2,
        y6 = (x6 - 2 y2.y4) / 2,

    where y2^2 is an H^4 functional and y2.y4 the Poincare pairing.
    The degree-0 part of x must be 1.  In x's integers (numerators n over
    e, D the tensor's denominator, s = `_square(n2, n2)`), y4 is
    m4 / (8 e^2 D) with m4 = 4 e D n4 - s, and over 16 e^3 D the root has
    numerators 16 e^3 D, 8 e^2 D n2, 2 e m4 and 8 e^2 D n6 - n2.m4.
    """
    e, n0, n2, n4, n6 = x._ints
    if n0 != e:
        raise LatticeValidationError(f"square root requires unit degree-0 part, got {x.a0}")
    ring = x.ring
    d = ring._den
    m4 = [4 * e * d * a - b for a, b in zip(n4, ring._square(n2, n2))]
    f = 8 * e * e * d
    return _reduced(ring, 2 * e * f, 2 * e * f, [f * a for a in n2], [2 * e * a for a in m4],
                    f * n6 - sum(map(mul, n2, m4)))


def _top_linear(x: tuple, y: tuple, t: tuple) -> int:
    """[x y t]_6 less its square term t2 . (x2 y2)_4, as a numerator over dx dy dt.

    x, y and t are `_ints` tuples.  [x y t]_6 = (xy)_0 t6 + t0 (xy)_6 +
    (xy)_2 . t4 + t2 . (xy)_4, and every term but t2 . (x2 y2)_4 is a
    scalar product or a dot product, so this costs rho.  That term is
    x2^T R y2 / (dx dy dt D) for t's rows R (`_bilinear`), so the integral
    is (`_top_linear` D + `_bilinear`) over dx dy dt D, in rho^2.
    """
    _, x0, x2, x4, x6 = x
    _, y0, y2, y4, y6 = y
    _, t0, t2, t4, t6 = t
    xy2 = [x0 * b + y0 * a for a, b in zip(x2, y2)]
    return (
        x0 * y0 * t6
        + t0 * _top_numerator(x0, x2, x4, x6, y0, y2, y4, y6)
        + sum(map(mul, xy2, t4))
        + x0 * sum(map(mul, t2, y4))
        + y0 * sum(map(mul, t2, x4))
    )


def _bilinear(u, rows, v) -> int:
    """u^T R v for integer rows R: the square term of `_top_linear` when R are t's rows."""
    return sum(map(mul, u, [sum(map(mul, row, v)) for row in rows]))


def top_degree(x: GradedClass, y: GradedClass) -> Fraction:
    """Degree-6 part of the cup product x . y, without the triple tensor.

    It is x0 y6 + y0 x6 + x2.y4 + y2.x4, the last two being Poincare
    pairings of coordinates against functionals; so integrals of a
    product, such as the Euler form, need no rho^3 loop.
    """
    x._check_same_ring(y)
    dx, *xs = x._ints
    dy, *ys = y._ints
    return Fraction(_top_numerator(*xs, *ys), dx * dy)


def star(x: GradedClass) -> GradedClass:
    """Degree involution: +1 on H^0 and H^4, -1 on H^2 and H^6.

    Acts as pullback along "reverse orientation of odd classes"; it is a
    ring automorphism and an involution, and sends the Chern character of
    a sheaf to the Chern character of its dual.
    """
    return GradedClass._exact(ring=x.ring, _ints=_starred(x._ints))


def _starred(ints: tuple) -> tuple:
    """`star` on an `_ints` tuple."""
    den, n0, n2, n4, n6 = ints
    return den, n0, tuple([-a for a in n2]), n4, -n6


class K3Restriction(Record):
    """Restricted intersection lattice of an anticanonical K3 member.

    For a surface S in the class s inside the threefold, the degree-2
    part of the ambient ring restricts to S with Gram matrix

        G[i][j] = integral over M of e_i . e_j . s,

    which is all the quadratic data the K3 Mukai pairing needs.  For integer
    dot products it also keeps `_rows`, the Gram rows as integers over `_den`,
    and `_s`, the section's integer numerators and their denominator; `gram`
    is made from `_rows` on its first read when `from_ring` built the lattice.
    """

    gram: tuple[tuple[Fraction, ...], ...] = kept(lambda k: tuple([_fractions(r, k._den) for r in k._rows]))
    s_coords: tuple[Fraction, ...]

    def __post_init__(self):
        if any(len(row) != len(self.gram) for row in self.gram):
            raise LatticeValidationError("gram matrix must be square")
        gram = as_matrix(self.gram)
        for i in range(len(gram)):
            for j in range(len(gram)):
                if gram[i][j] != gram[j][i]:
                    raise LatticeValidationError(f"gram matrix not symmetric at ({i},{j})")
        s_coords = as_vector(self.s_coords)
        if len(s_coords) != len(gram):
            raise LatticeValidationError("section class length must match rho")
        rows, den = rows_over_common_denominator(gram)
        s = over_common_denominator(s_coords)
        vars(self).update(gram=gram, s_coords=s_coords, _rows=tuple(map(tuple, rows)), _den=den, _s=s)

    @classmethod
    def from_ring(cls, ring: ThreefoldRing, s_coords) -> "K3Restriction":
        """The restriction to a member of `s_coords`; G is symmetric by construction, so unchecked."""
        s = as_vector(s_coords)
        if len(s) != ring.rho:
            raise LatticeValidationError("section class length must match rho")
        nums, s_den = over_common_denominator(s)
        return cls._exact(s_coords=s, _rows=ring._rows(nums), _den=s_den * ring._den, _s=(nums, s_den))

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _rank(self) -> int:
        """The rank of G, read off the integer rows."""
        return len(linalg.echelon(self._rows)[1])

    def _kernel(self) -> list[tuple[Fraction, ...]]:
        """The primitive kernel basis of G, from the integer rows."""
        return linalg.kernel(self._rows)

    def _joint_kernel(self, nums, a: int) -> list[tuple[Fraction, ...]]:
        """The primitive kernel basis of [G | G A] for A = N/a, checked square.

        With G = R/g that matrix is [a R | R N] / (g a), so the kernel is
        read off the integer matrix [a R | R N].
        """
        rows = self._rows
        stacked = [[a * x for x in row] + rn for row, rn in zip(rows, integer_product(rows, nums))]
        return linalg.kernel(stacked)

    def dot(self, u, v) -> Fraction:
        """Intersection number u . v on the surface, u and v in the e-basis."""
        return self._pair(as_vector(u), as_vector(v))

    def _pair(self, u, v) -> Fraction:
        """`dot` of exact vectors, such as a `K3Vector`'s v2: the one integer route of the pairing."""
        self._require_rank(u, v)
        (u, du), (v, dv) = over_common_denominator(u), over_common_denominator(v)
        return Fraction(_bilinear(u, self._rows, v), du * dv * self._den)

    def _require_rank(self, *vectors):
        """Refuse a coordinate vector whose length is not the lattice rank."""
        for x in vectors:
            if len(x) != self.rank:
                raise LatticeValidationError(f"vector has {len(x)} coordinates, lattice has rank {self.rank}")


class K3Vector(Record):
    """Mukai-lattice element (v0, v2, v4) of a K3 surface.

    v2 is a coordinate vector against the restricted basis; v0 and v4 are
    scalars (rank-like and point-like components).
    """

    v0: Fraction
    v2: tuple[Fraction, ...]
    v4: Fraction

    def __post_init__(self):
        vars(self).update(v0=as_fraction(self.v0), v2=as_vector(self.v2), v4=as_fraction(self.v4))

    def __add__(self, other: "K3Vector") -> "K3Vector":
        if len(self.v2) != len(other.v2):
            raise LatticeValidationError("K3 vectors have different lattice ranks")
        return K3Vector(
            self.v0 + other.v0,
            tuple(a + b for a, b in zip(self.v2, other.v2)),
            self.v4 + other.v4,
        )

    def __str__(self):
        mid = ", ".join(map(str, self.v2))
        return f"({self.v0}, ({mid}), {self.v4})"


def restrict_to_k3(x: GradedClass, restriction: K3Restriction) -> K3Vector:
    """Project a graded class to the K3 lattice of an anticanonical member.

    Degree 0 and 2 restrict as-is; the degree-4 functional pairs against
    the section class, since a point count on S is the ambient integral
    of the degree-4 part against s.  Degree 6 dies on a surface.
    """
    return _restricted(x, restriction, 0)


def _restricted(x: GradedClass, restriction: K3Restriction, points: int) -> K3Vector:
    """`restrict_to_k3` with `points` added to v4 before the one vector is made."""
    if len(restriction.s_coords) != x.ring.rho:
        raise LatticeValidationError("restriction rank does not match the ring")
    den, _, _, n4, _ = x._ints
    s, ds = restriction._s
    v4 = Fraction(sum(map(mul, s, n4)) + points * ds * den, ds * den)
    return K3Vector._exact(v0=x.a0, v2=x.a2, v4=v4)
