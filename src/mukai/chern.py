"""Chern characters, Todd classes and Mukai vectors with exact coefficients.

Topological types of bundles are `ChernData` records (rank, c1, c2, c3)
attached to a `ThreefoldRing`; c2 is stored as the functional vector
integral(c2 . e_i), c3 as the scalar integral(c3).  All series identities
(Chern character, Todd class, its formal square root, tensor twists) are
truncated at degree 6 and evaluated exactly, so a half or a twelfth
survives as exactly that.  A character has one route: the ring's
truncated exponential e^{c1} from c1's integer numerators (`ring._exp`),
plus the terms in c2 and c3 as integers over one denominator; no checked
class is made.  Its inverse is read off e^{c1} too.  A twist forms no
character: the Whitney formula gives the twisted classes from one `_rows`
pass over the packed tensor, rho^2 contractions and dot products.  A
`ChernData` keeps `is_integral`, the numerators of c1 and c2, the
character and the Mukai vector m(E) as `record.kept` attributes, outside
`==`, `hash` and `repr`, so each is made once per record.
The twisted and dual types and the Mukai vector are built unchecked
(`Record._exact`), since the library made their values exact itself;
`ChernData` and `chern_from_character`, which take caller data, keep
every check.
Each ring keeps td and sqrt(td) once, as fixed factors (see `rings`, which
also defines `sqrt_series`), so a Mukai vector is a rho^2 product.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .errors import LatticeValidationError
from .rational import as_fraction, as_vector, dot, over_common_denominator
from .record import Record, kept
from .rings import (
    GradedClass, K3Restriction, K3Vector, ThreefoldRing, _reduced, _restricted, _times_fixed, sqrt_series,
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
        if type(self.rank) is not int or self.rank < 1:
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

    @kept
    def is_integral(self) -> bool:
        """Whether c1, c2 and c3 are all integers; decided once per record."""
        return all(x.denominator == 1 for x in (*self.c1, *self.c2, self.c3))

    @kept
    def _nums(self) -> tuple:
        """((n, a), (m, b)): c1 = n/a and c2 = m/b over their least common denominators."""
        (n, a), (m, b) = over_common_denominator(self.c1), over_common_denominator(self.c2)
        return (tuple(n), a), (tuple(m), b)

    @kept
    def _ch(self) -> GradedClass:
        """The Chern character; see `chern_character`."""
        ring, ((n, a), (m, b)) = self.ring, self._nums
        p, q = self.c3.numerator, self.c3.denominator
        # Over f = 2 a b q: rank - 1, -c2 = -m/b and (c3 - c1.c2)/2 = (a b p - q n.m)/f.
        f = 2 * a * b * q
        rest = _reduced(ring, f, (self.rank - 1) * f, [0] * ring.rho, [-2 * a * q * x for x in m],
                        a * b * p - q * sum(map(mul, n, m)))
        return ring._exp(n, a) + rest

    @kept
    def _mukai(self) -> "MukaiVector":
        """The Mukai vector; see `mukai_vector`."""
        tag = "cy3-full-todd" if self.ring.is_calabi_yau else "fano-full-todd"
        return MukaiVector._exact(graded=_times_fixed(self._ch, self.ring._sqrt_td), normalization=tag)


def chern_character(e: ChernData) -> GradedClass:
    """Truncated Chern character of a topological type.

    ch = rank + c1 + (c1^2 - 2 c2)/2 + (c1^3 - 3 c1 c2 + 3 c3)/6, that is
    e^{c1} with rank in degree 0, c2 taken off degree 4 and
    (c3 - c1 c2)/2 added to degree 6, all from the record's integer
    numerators.  Kept on the record as `_ch`, outside `==`, `hash` and
    `repr`; the class points at the ring, never back at the record, so no
    cycle forms.
    """
    return e._ch


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
    l = v/b, the squares c1.l and l^2 are two rho^2 contractions of the
    integer numerators with one `_rows(v)`; every other term is a dot
    product.  The numerators of c1 and c2 are the ones `e` keeps, and the
    result is built unchecked (`Record._exact`), as its values are exact
    by construction.  `k` must be an `int`.

    The instanton (2, 0, 1, 0) on P^3 twisted by O(1):

    >>> p3 = ThreefoldRing("P3", ("H",), (((1,),),), (4,), (6,), 4, 0)
    >>> t = twist_chern(ChernData(p3, 2, (0,), (1,), 0), (1,))
    >>> (t.rank, t.c1, t.c2, t.c3) == (2, (2,), (2,), 0)
    True
    """
    _check_power(k)
    ring, r = e.ring, e.rank
    (v, b), ((n, a), (m, c)) = ring._numerators(L), e._nums
    p, q = e.c3.numerator, e.c3.denominator
    v, d = [k * x for x in v], ring._den
    # c1.l = nv / (D a b) and l^2 = vv / (D b^2), as H^4 functionals.
    rows = ring._rows(v)
    nv, vv = [sum(map(mul, row, n)) for row in rows], [sum(map(mul, row, v)) for row in rows]
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
    """Refuse a twist power whose type is not `int`, so a `bool` or `IntEnum` too; k has no digit bound."""
    if type(k) is not int:
        raise LatticeValidationError(f"twist power k must be an integer, got {k!r}")


def chern_sum(e1: ChernData, e2: ChernData) -> ChernData:
    """Topological type of a direct sum, via additivity of the character."""
    if e1.ring != e2.ring:
        raise LatticeValidationError("summands live on different rings")
    total = chern_character(e1) + chern_character(e2)
    return chern_from_character(e1.ring, total, e1.labels + e2.labels)


def todd_class(ring: ThreefoldRing) -> GradedClass:
    """Todd class 1 + c1/2 + (c1^2 + c2)/12 + (c1 c2)/24 of the tangent bundle."""
    return GradedClass._exact(ring=ring, _ints=ring._td[0])


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
    that care can consult `is_integral`.  Kept on the record as `_mukai`,
    outside `==`, `hash` and `repr`, as the character is: one product by
    the ring's fixed sqrt(td) per record.
    """
    return e._mukai


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
