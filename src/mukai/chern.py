"""Chern characters, Todd classes and Mukai vectors with exact coefficients.

Topological types of bundles are `ChernData` records (rank, c1, c2, c3)
attached to a `ThreefoldRing`; c2 is stored as the functional vector
integral(c2 . e_i), c3 as the scalar integral(c3).  All series identities
(Chern character, Todd class, its formal square root, tensor twists) are
truncated at degree 6 and evaluated exactly, so a half or a twelfth
survives as exactly that.  The Chern character and its inverse
are read off the ring's truncated exponential e^{c1}, which differs from
ch only by the terms in c2 and c3.  A twist forms no character: the
Whitney formula gives the twisted classes from two rho^3 squares of
integer numerators and dot products.  Each `ChernData` computes its
character once, on first use, and keeps it out of `==`, `hash` and `repr`;
it keeps the integer numerators of c1 and c2 over their denominators the
same way, which each twist of it reads.  The twisted and dual types and the
Mukai vector are built unchecked (`Record._exact`), since the library made
their values exact itself; `ChernData` and `chern_from_character`, which
take caller data, keep every check.
Each ring keeps td and sqrt(td) once, as fixed factors (see `rings`), so a
Mukai vector is a rho^2 product.  Both are built from integers, as `_exp`
builds e^{c1}: c1 and c2 over their denominators and the ring's integer
tensor planes give td's numerators with one rho^3 square and one gcd, and
`sqrt_series` reads its argument's numerators the same way, so no
`Fraction` is made until a coefficient is read.  Each flag's K3
restriction keeps e^{-S} as a fixed factor the same way (see
`pairings.mukai_restrict`).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .errors import LatticeValidationError
from .rational import as_fraction, as_vector, dot, over_common_denominator
from .record import Record
from .rings import (
    GradedClass, K3Restriction, K3Vector, ThreefoldRing, _fixed_factor, _reduced, _restricted, _times_fixed,
)

__all__ = [
    "ChernData",
    "MukaiVector",
    "chern_character",
    "chern_from_character",
    "chern_sum",
    "dual_chern",
    "twist_chern",
    "todd_class",
    "sqrt_series",
    "mukai_vector",
    "k3_mukai_vector",
    "structure_sheaf_chi",
]


class ChernData(Record):
    """Topological type of a bundle: rank and Chern data against a ring.

    `c1` is a coordinate vector in the ring's H^2 basis, `c2` the
    functional vector of integrals c2 . e_i, and `c3` the integral of c3.
    Entries may be any rationals; nothing forces them to come from an
    honest bundle.
    """

    ring: ThreefoldRing
    rank: int
    c1: tuple[Fraction, ...]
    c2: tuple[Fraction, ...]
    c3: Fraction
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.rank, bool) or not isinstance(self.rank, int) or self.rank < 1:
            raise LatticeValidationError(f"rank must be a positive integer, got {self.rank!r}")
        if isinstance(self.labels, str):
            raise LatticeValidationError(f"labels must be a sequence of strings, got {self.labels!r}")
        vars(self).update(
            c1=as_vector(self.c1),
            c2=as_vector(self.c2),
            c3=as_fraction(self.c3),
            labels=tuple(str(s) for s in self.labels),
        )
        if len(self.c1) != self.ring.rho or len(self.c2) != self.ring.rho:
            raise LatticeValidationError("c1/c2 data must have length rho")

    @property
    def is_integral(self) -> bool:
        """Whether c1, c2 and c3 are all integers; decided once per record."""
        if "_integral" not in vars(self):
            vars(self)["_integral"] = all(x.denominator == 1 for x in (*self.c1, *self.c2, self.c3))
        return vars(self)["_integral"]

    @property
    def _numerators(self) -> tuple:
        """((n, a), (m, b)): c1 = n/a and c2 = m/b over their least common denominators.

        Integers only (n and m tuples), computed on first use and kept, like
        the character, outside `==`, `hash` and `repr`.
        """
        kept = vars(self).get("_nums")
        if kept is None:
            (n, a), (m, b) = over_common_denominator(self.c1), over_common_denominator(self.c2)
            kept = vars(self)["_nums"] = ((tuple(n), a), (tuple(m), b))
        return kept

    def c1_dot_c2(self) -> Fraction:
        """Integral of c1 . c2 over the threefold."""
        return dot(self.c1, self.c2)


def chern_character(e: ChernData) -> GradedClass:
    """Truncated Chern character of a topological type.

    ch = rank + c1 + (c1^2 - 2 c2)/2 + (c1^3 - 3 c1 c2 + 3 c3)/6, that is
    e^{c1} with rank in degree 0, c2 taken off degree 4 and
    (c3 - c1 c2)/2 added to degree 6.  Computed once per record and kept
    on it as an unannotated attribute, outside `==`, `hash` and `repr`; the
    class points at the ring, never back at the record, so no cycle forms.
    """
    ch = vars(e).get("_ch")
    if ch is None:
        rest = e.ring.graded(e.rank - 1, None, tuple(-a for a in e.c2), (e.c3 - e.c1_dot_c2()) / 2)
        ch = vars(e)["_ch"] = e.ring.exp_h2(e.c1) + rest
    return ch


def chern_from_character(ring: ThreefoldRing, ch: GradedClass, labels=()) -> ChernData:
    """Invert the Chern character: recover (rank, c1, c2, c3) from ch.

    The degree-0 part must be a positive integer rank.
    """
    den, n0, n2, _, _ = ch._ints
    if n0 % den or n0 < den:
        raise LatticeValidationError(f"character degree-0 part {ch.a0} is not a positive rank")
    # c2 = (e^{c1} - ch)_4 and c3 = c1.c2 - 2 (e^{c1} - ch)_6.
    diff = ring._exp(n2, den) - ch
    d, _, _, m4, m6 = diff._ints
    c3 = Fraction(sum(a * b for a, b in zip(n2, m4)) - 2 * den * m6, den * d)
    return ChernData(ring, n0 // den, ch.a2, diff.a4, c3, labels)


def dual_chern(e: ChernData) -> ChernData:
    """Topological type of the dual bundle: c_i goes to (-1)^i c_i."""
    c1 = tuple([-a for a in e.c1])
    return ChernData._exact(ring=e.ring, rank=e.rank, c1=c1, c2=e.c2, c3=-e.c3, labels=e.labels)


def twist_chern(e: ChernData, L, k: int = 1) -> ChernData:
    """Topological type of E tensored with the k-th power of a line bundle.

    By the Whitney formula c(E x L^k) = sum_i c_i(E) (1 + l)^{r-i}, with
    r the rank and l = kL (Fulton, *Intersection Theory*, 3.2):

        c1' = c1 + r l,
        c2' = c2 + (r-1) c1.l + C(r,2) l^2,
        c3' = c3 + (r-2) c2.l + C(r-1,2) c1.l^2 + C(r,3) l^3,

    which holds for any rank r >= 1 and any rational data, as the
    character identity ch(E x L^k) = ch(E) e^{kL} does.  With c1 = n/a and
    l = v/b, the squares c1.l and l^2 are two `_square` passes over the
    integer numerators; every other term is a dot product.  The numerators
    of c1 and c2 are the ones `e` keeps, and the result is built unchecked
    (`Record._exact`), as its values are exact by construction.  `k` must
    be an `int`.

    The instanton (2, 0, 1, 0) on P^3 twisted by O(1):

    >>> p3 = ThreefoldRing("P3", ("H",), (((1,),),), (4,), (6,), 4, 0)
    >>> t = twist_chern(ChernData(p3, 2, (0,), (1,), 0), (1,))
    >>> (t.rank, t.c1, t.c2, t.c3) == (2, (2,), (2,), 0)
    True
    """
    _check_power(k)
    ring, r = e.ring, e.rank
    (v, b), ((n, a), (m, c)) = over_common_denominator(ring._vector(L)), e._numerators
    p, q = e.c3.numerator, e.c3.denominator
    v, d = [k * x for x in v], ring._den
    # c1.l = nv / (D a b) and l^2 = vv / (D b^2), as H^4 functionals.
    nv, vv = ring._square(n, v), ring._square(v, v)
    c1 = [Fraction(x * b + r * a * y, a * b) for x, y in zip(n, v)]
    # c2' over c D a b^2, and c3' over q c D a b^3.
    f, g, h = d * a * b * b, (r - 1) * c * b, comb(r, 2) * c * a
    c2 = [Fraction(f * x + g * y + h * z, c * f) for x, y, z in zip(m, nv, vv)]
    top = p * c * f * b + q * (
        (r - 2) * f * sum(map(mul, m, v))
        + comb(r - 1, 2) * c * b * sum(map(mul, n, vv))
        + comb(r, 3) * c * a * sum(map(mul, v, vv))
    )
    return ChernData._exact(
        ring=ring, rank=r, c1=tuple(c1), c2=tuple(c2), c3=Fraction(top, q * c * f * b), labels=e.labels
    )


def _check_power(k) -> None:
    """Refuse a twist power that is not an `int` (a `bool` included)."""
    if isinstance(k, bool) or not isinstance(k, int):
        raise LatticeValidationError(f"twist power k must be an integer, got {k!r}")


def chern_sum(e1: ChernData, e2: ChernData) -> ChernData:
    """Topological type of a direct sum, via additivity of the character."""
    if e1.ring != e2.ring:
        raise LatticeValidationError("summands live on different rings")
    total = chern_character(e1) + chern_character(e2)
    return chern_from_character(e1.ring, total, e1.labels + e2.labels)


def _kept(cache: dict, key: str, compute) -> tuple:
    """The class `compute()`, computed once and kept in `cache` as a fixed factor.

    `cache` is a ring's `_cache` (td, sqrt(td)) or a K3 restriction's
    attributes (e^{-S}).  Only integers are kept, the class's `_ints` tuple
    and its rows (see `rings._fixed_factor`), never the class: a class
    points back at its ring, and kept on the ring that cycle would keep
    every ring alive until a full GC pass.
    """
    fixed = cache.get(key)
    if fixed is None:
        fixed = cache[key] = _fixed_factor(compute())
    return fixed


def _todd_factor(ring: ThreefoldRing) -> tuple:
    """The Todd class of `ring` as a fixed factor, for the Euler form."""
    return _kept(ring._cache, "todd", lambda: _todd(ring))


def todd_class(ring: ThreefoldRing) -> GradedClass:
    """Todd class 1 + c1/2 + (c1^2 + c2)/12 + (c1 c2)/24 of the tangent bundle."""
    return GradedClass._exact(ring=ring, _ints=_todd_factor(ring)[0])


def _todd(ring: ThreefoldRing) -> GradedClass:
    # With c1 = n/a, c2 = m/b and D the tensor's denominator, `_square(n, n)`
    # is D a^2 c1^2; over L = 24 a^2 b D the class has numerators
    # L, 12 a b D n, 2 (b D a^2 c1^2 + a^2 D m) and a D n.m.
    (n, a), (m, b) = over_common_denominator(ring.c1_coords), over_common_denominator(ring.c2_values)
    d = ring._den
    square = ring._square(n, n)
    n4 = [2 * b * x + 2 * a * a * d * y for x, y in zip(square, m)]
    den = 24 * a * a * b * d
    return _reduced(ring, den, den, [12 * a * b * d * x for x in n], n4, a * d * sum(map(mul, n, m)))


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


class MukaiVector(Record):
    """A graded class tagged with the normalization that produced it.

    The tag records whether the ambient ring was Calabi-Yau or quasi-Fano
    when ch . sqrt(td) was formed; both use the full Todd class of the
    threefold.
    """

    graded: GradedClass
    normalization: str

    @property
    def is_integral(self) -> bool:
        # In lowest terms the denominator is 1 exactly when every coefficient is integral.
        return self.graded._ints[0] == 1

    def __str__(self):
        return f"{self.graded} [{self.normalization}]"


def mukai_vector(e: ChernData) -> MukaiVector:
    """Mukai vector ch(E) . sqrt(td M) of a topological type.

    The result need not be integral (Todd denominators survive); callers
    that care can consult `is_integral`.
    """
    ring = e.ring
    sqrt_todd = _kept(ring._cache, "sqrt_todd", lambda: sqrt_series(todd_class(ring)))
    graded = _times_fixed(chern_character(e), sqrt_todd)
    tag = "cy3-full-todd" if ring.is_calabi_yau else "fano-full-todd"
    return MukaiVector._exact(graded=graded, normalization=tag)


def k3_mukai_vector(flag, e: ChernData) -> K3Vector:
    """Mukai vector of the restriction of a bundle to an anticanonical K3.

    On a K3 surface sqrt(td) = 1 + pt, so the vector is

        (rank, c1 . S-basis, integral_S ch2 + rank),

    computed by restricting the ambient Chern character with the rank
    added to the point component.  The flag must carry the ring of `e`.
    """
    k3 = getattr(flag, "k3", None)
    if not isinstance(k3, K3Restriction):
        raise TypeError("expected an object carrying a K3Restriction as .k3")
    if e.ring != flag.ring:
        raise LatticeValidationError("Chern data must live on the flag's ring")
    return _restricted(chern_character(e), k3, e.rank)


def structure_sheaf_chi(ring: ThreefoldRing) -> Fraction:
    """Euler characteristic chi(O) = integral of td = integral of c1 c2 / 24."""
    return dot(ring.c1_coords, ring.c2_values) / 24
