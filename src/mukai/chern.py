"""Chern characters, Todd classes and Mukai vectors with exact coefficients.

Topological types of bundles are `ChernData` records (rank, c1, c2, c3)
attached to a `ThreefoldRing`; c2 is stored as the functional vector
integral(c2 . e_i), c3 as the scalar integral(c3).  All series identities
(Chern character, Todd class, its formal square root, tensor twists) are
truncated at degree 6 and evaluated exactly, so a half or a twelfth
survives as exactly that.  The Chern character and its inverse
are read off the ring's truncated exponential e^{c1}, which differs from
ch only by the terms in c2 and c3.  Each `ChernData` computes its
character once, on first use, and keeps it out of `==`, `hash` and `repr`.
Each ring keeps td and sqrt(td) once, as fixed factors (see `rings`), so a
Mukai vector is a rho^2 product.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import LatticeValidationError
from .rational import as_fraction, as_vector, dot, is_integral
from .record import Record
from .rings import (
    GradedClass, K3Restriction, K3Vector, ThreefoldRing, _fixed_factor, _times_fixed, restrict_to_k3,
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
            vars(self)["_integral"] = is_integral(self.c1, self.c2, self.c3)
        return vars(self)["_integral"]

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
    return ChernData(e.ring, e.rank, tuple(-a for a in e.c1), e.c2, -e.c3, e.labels)


def twist_chern(e: ChernData, L, k: int = 1) -> ChernData:
    """Topological type of E tensored with the k-th power of a line bundle.

    Computed through the character identity ch(E x L^k) = ch(E) e^{kL} and
    inverted back to Chern data, so the Whitney-formula bookkeeping is
    never written out by hand.
    """
    L = as_vector(L)
    twisted = chern_character(e) * e.ring.exp_h2(tuple(k * a for a in L))
    return chern_from_character(e.ring, twisted, e.labels)


def chern_sum(e1: ChernData, e2: ChernData) -> ChernData:
    """Topological type of a direct sum, via additivity of the character."""
    if e1.ring != e2.ring:
        raise LatticeValidationError("summands live on different rings")
    total = chern_character(e1) + chern_character(e2)
    return chern_from_character(e1.ring, total, e1.labels + e2.labels)


def _per_ring(ring: ThreefoldRing, key: str, compute) -> tuple:
    """A class computed once per ring and kept there as a fixed factor.

    Only integers are kept, the class's `_ints` tuple and its rows (see
    `rings._fixed_factor`), never the class: a class points back at its
    ring, and that cycle would keep every ring alive until a full GC pass.
    """
    fixed = ring._cache.get(key)
    if fixed is None:
        fixed = ring._cache[key] = _fixed_factor(compute(ring))
    return fixed


def _todd_factor(ring: ThreefoldRing) -> tuple:
    """The Todd class of `ring` as a fixed factor, for the Euler form."""
    return _per_ring(ring, "todd", _todd)


def todd_class(ring: ThreefoldRing) -> GradedClass:
    """Todd class 1 + c1/2 + (c1^2 + c2)/12 + (c1 c2)/24 of the tangent bundle."""
    return GradedClass._exact(ring, _todd_factor(ring)[0])


def _todd(ring: ThreefoldRing) -> GradedClass:
    c1_sq = ring.square_to_h4(ring.c1_coords, ring.c1_coords)
    td2 = tuple(a / 2 for a in ring.c1_coords)
    td4 = tuple((a + b) / 12 for a, b in zip(c1_sq, ring.c2_values))
    return ring.graded(a0=1, a2=td2, a4=td4, a6=structure_sheaf_chi(ring))


def sqrt_series(x: GradedClass) -> GradedClass:
    """Formal square root of a unital graded class, degree by degree.

    Writing y = 1 + y2 + y4 + y6 and matching y^2 = x gives

        y2 = x2 / 2,
        y4 = (x4 - y2^2) / 2,
        y6 = (x6 - 2 y2.y4) / 2,

    where y2^2 is an H^4 functional and y2.y4 the Poincare pairing.
    The degree-0 part of x must be 1.
    """
    if x.a0 != 1:
        raise LatticeValidationError(f"square root requires unit degree-0 part, got {x.a0}")
    ring = x.ring
    y2 = tuple(a / 2 for a in x.a2)
    y2_sq = ring.square_to_h4(y2, y2)
    y4 = tuple((a - b) / 2 for a, b in zip(x.a4, y2_sq))
    return ring.graded(a0=1, a2=y2, a4=y4, a6=(x.a6 - 2 * dot(y2, y4)) / 2)


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
    sqrt_todd = _per_ring(ring, "sqrt_todd", lambda r: sqrt_series(todd_class(r)))
    graded = _times_fixed(chern_character(e), sqrt_todd)
    tag = "cy3-full-todd" if ring.is_calabi_yau else "fano-full-todd"
    return MukaiVector(graded=graded, normalization=tag)


def k3_mukai_vector(flag, e: ChernData) -> K3Vector:
    """Mukai vector of the restriction of a bundle to an anticanonical K3.

    On a K3 surface sqrt(td) = 1 + pt, so the vector is

        (rank, c1 . S-basis, integral_S ch2 + rank),

    computed by restricting the ambient Chern character and adding the
    rank to the point component.  The flag must carry the ring of `e`.
    """
    k3 = getattr(flag, "k3", None)
    if not isinstance(k3, K3Restriction):
        raise TypeError("expected an object carrying a K3Restriction as .k3")
    if e.ring != flag.ring:
        raise LatticeValidationError("Chern data must live on the flag's ring")
    restricted = restrict_to_k3(chern_character(e), k3)
    return K3Vector(restricted.v0, restricted.v2, restricted.v4 + e.rank)


def structure_sheaf_chi(ring: ThreefoldRing) -> Fraction:
    """Euler characteristic chi(O) = integral of td = integral of c1 c2 / 24."""
    return dot(ring.c1_coords, ring.c2_values) / 24
