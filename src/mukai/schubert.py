"""Schubert calculus on G(2,n), just large enough for classical line counts.

Cohomology classes of the Grassmannian of projective lines in P^{n-1}
are integer combinations of Schubert classes sigma_(a,b) indexed by
partitions a >= b inside the 2 x (n-2) box.  Two rows is all this
module supports, and all it needs: multiplication by the special
classes sigma_k (Pieri's horizontal-strip rule) together with the
column rule sigma_(1,1) . sigma_(a,b) = sigma_(a+1,b+1) generates the
whole ring, since sigma_(a,b) = sigma_(1,1)^b . sigma_(a-b).

Integration reads off the full-box coefficient.  Chern classes of
bundles built from the dual tautological bundle S* are polynomials in
the elementary symmetric classes e1 = sigma_1 and e2 = sigma_(1,1) of
its Chern roots x1, x2, and the weights of Sym^k S* pair off into
quadrics in e1^2 and e2.  Their product needs no Pieri step: e2^q cuts
G(2,n) down to G(2,n-q), so e1^(2(n-2-q)) e2^q integrates to the
Catalan number C(n-2-q) (Eisenbud-Harris, 3264 and All That, lines on
hypersurfaces).  That reproduces the classical counts:

>>> top_chern_sym_dual_tautological(5, 5)   # lines on a quintic threefold
2875
>>> top_chern_sym_dual_tautological(4, 3)   # lines on a cubic surface
27
>>> integrate(sigma(4, 1) ** 4)             # lines meeting four general lines
2
"""

from __future__ import annotations

from math import comb

from .errors import LatticeValidationError
from .record import Record

__all__ = [
    "SchubertElement",
    "sigma",
    "pieri_mult",
    "integrate",
    "euler_char_g2n",
    "lines_on_octic_double",
    "top_chern_sym_dual_tautological",
    "four_lines_count",
    "FourLinesCount",
    "multiply",
]


def _check_n(n) -> int:
    if type(n) is not int or n < 2:
        raise LatticeValidationError(f"G(2,n) needs an integer n >= 2, got {n!r}")
    return n


class SchubertElement:
    """An integer combination of two-row Schubert classes on G(2,n).

    Terms map partitions (a, b) with n-2 >= a >= b >= 0 to integer
    coefficients; zero coefficients are pruned so equality is literal.

    >>> x = sigma(4, 1) * sigma(4, 1)
    >>> sorted(x.terms.items())
    [((1, 1), 1), ((2, 0), 1)]
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = _check_n(n)
        clean: dict[tuple[int, int], int] = {}
        for key, coeff in (terms or {}).items():
            try:
                a, b = key
            except (TypeError, ValueError):
                a = b = None
            if type(coeff) is not int:
                raise LatticeValidationError(f"coefficient of sigma{key} must be an integer")
            if not (type(a) is int and type(b) is int and n - 2 >= a >= b >= 0):
                raise LatticeValidationError(
                    f"partition {key} does not fit the 2x{n - 2} box of G(2,{n})"
                )
            if coeff != 0:
                clean[(a, b)] = coeff
        self.terms = clean

    # -- structural helpers ------------------------------------------------

    def _check_same_space(self, other: "SchubertElement"):
        if self.n != other.n:
            raise LatticeValidationError(f"elements live on G(2,{self.n}) and G(2,{other.n})")

    def __eq__(self, other):
        return (
            isinstance(other, SchubertElement) and self.n == other.n and self.terms == other.terms
        )

    def __add__(self, other: "SchubertElement") -> "SchubertElement":
        self._check_same_space(other)
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return SchubertElement(self.n, merged)

    def scale(self, factor: int) -> "SchubertElement":
        if type(factor) is not int:
            raise LatticeValidationError("Schubert coefficients stay integral: scale by an int")
        return SchubertElement(self.n, {k: factor * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SchubertElement):
            return multiply(self, other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "SchubertElement":
        if type(exponent) is not int or exponent < 0:
            raise LatticeValidationError("powers must be non-negative integers")
        # Write self = c sigma_(0,0) + N.  N^k vanishes above dim G(2,n) =
        # 2(n-2), so the binomial sum stops there whatever the exponent.
        c = self.terms.get((0, 0), 0)
        top = min(exponent, 2 * (self.n - 2))
        if c == 0 and exponent > top:
            return SchubertElement(self.n, {})
        nilpotent = SchubertElement(self.n, {k: v for k, v in self.terms.items() if k != (0, 0)})
        result = SchubertElement(self.n, {})
        power = sigma(self.n, 0)
        for k in range(top + 1):
            if k:
                power = power * nilpotent
            coeff = comb(exponent, k) * c ** (exponent - k)
            if coeff:
                result = result + power.scale(coeff)
        return result

    def __repr__(self):
        if not self.terms:
            return f"SchubertElement(G(2,{self.n}), 0)"
        body = " + ".join(
            (f"{c}*" if c != 1 else "") + f"sigma({a},{b})"
            for (a, b), c in sorted(self.terms.items())
        )
        return f"SchubertElement(G(2,{self.n}), {body})"


def sigma(n: int, a: int, b: int = 0) -> SchubertElement:
    """The Schubert class sigma_(a,b) on G(2,n)."""
    return SchubertElement(n, {(a, b): 1})


def pieri_mult(x: SchubertElement, k: int) -> SchubertElement:
    """Multiply by the special class sigma_k: multiply(x, sigma(x.n, k))."""
    if type(k) is not int or not (0 <= k <= x.n - 2):
        raise LatticeValidationError(f"sigma_k needs 0 <= k <= {x.n - 2} on G(2,{x.n}), got {k}")
    return multiply(x, sigma(x.n, k))


def multiply(x: SchubertElement, y: SchubertElement) -> SchubertElement:
    """Full product: for each term sigma_(a,b) of y, sigma_(1,1)^b shifts each term
    sigma_(l1,l2) of x to sigma_(l1+b,l2+b), and sigma_(a-b) spreads that over all (m1,m2)
    in the box with m1 >= l1+b >= m2 >= l2+b and m1 + m2 = l1 + l2 + a + b: Pieri's
    horizontal strip adds at most one box per column, so it cannot wrap to a third row.
    """
    x._check_same_space(y)
    out: dict[tuple[int, int], int] = {}
    for (a, b), c in y.terms.items():
        for (l1, l2), d in x.terms.items():
            if l1 + b <= x.n - 2:  # a first row shifted past the box vanishes
                for m2 in range(l2 + b, l1 + b + 1):
                    m1 = l1 + l2 + a + b - m2
                    if max(l1 + b, m2) <= m1 <= x.n - 2:
                        out[(m1, m2)] = out.get((m1, m2), 0) + c * d
    return SchubertElement(x.n, out)


def integrate(x: SchubertElement) -> int:
    """Degree of the zero-cycle part: the full-box coefficient.

    >>> integrate(sigma(5, 3, 3))
    1
    """
    box = (x.n - 2, x.n - 2)
    return x.terms.get(box, 0)


def euler_char_g2n(n: int) -> int:
    """Euler characteristic of G(2,n): its Schubert-cell count C(n,2)."""
    return comb(_check_n(n), 2)


def lines_on_octic_double() -> int:
    """Line count on the octic double solid: twice the Euler number of G(2,4).

    The double solid branched in a degree-8 surface carries two copies of
    the line family of P^3, and the count is 2 chi(G(2,4)) = 12; since
    dim G(2,4) = 4 is even, the signed top-Chern integral of T*G agrees
    with +chi.
    """
    return 2 * euler_char_g2n(4)


def top_chern_sym_dual_tautological(n: int, k: int) -> int:
    """Integrate the top Chern class of Sym^k S* over G(2,n).

    S* is the dual tautological bundle, whose Chern roots x1, x2 have
    e1 = sigma_1 and e2 = sigma_(1,1).  When the rank k+1 does not match
    dim G(2,n) = 2(n-2) the top Chern class has the wrong degree and the
    integral is 0, returned at once.  Otherwise k = 2n-5 is odd, and the
    k+1 weights i x1 + (k-i) x2 pair off, i with k-i, into the n-2 classes
    i(k-i) e1^2 + (k-2i)^2 e2.  Their product is a polynomial in e1^2 and
    e2, and e2^q = sigma_(1,1)^q cuts G(2,n) down to G(2,n-q), so
    e1^(2(n-2-q)) e2^q integrates to the degree of G(2,n-q), the Catalan
    number C(n-2-q) (Eisenbud-Harris, 3264 and All That, on lines on
    hypersurfaces).  No Schubert class is built:

    >>> top_chern_sym_dual_tautological(6, 7)   # lines on a septic fourfold
    698005
    """
    _check_n(n)
    if type(k) is not int or k < 0:
        raise LatticeValidationError(f"symmetric power needs k >= 0, got {k!r}")
    if k + 1 != 2 * (n - 2):
        return 0
    poly = [1]  # poly[q]: coefficient of (e1^2)^(i-q) e2^q after i pairs
    for i in range(n - 2):
        a, b = i * (k - i), (k - 2 * i) ** 2
        poly = [a * x + b * y for x, y in zip(poly + [0], [0] + poly)]
    return sum(c * (comb(2 * m, m) // (m + 1)) for c, m in zip(poly, range(n - 2, -1, -1)))


class FourLinesCount(Record):
    """The two-part degeneration count of lines meeting four general lines."""

    parts: tuple[int, int]
    part_descriptions: tuple[str, str]
    total: int
    schubert_total: int

    @property
    def consistent(self) -> bool:
        return sum(self.parts) == self.total == self.schubert_total


def four_lines_count() -> FourLinesCount:
    """Count lines in P^3 meeting four general lines, two ways.

    Specializing the four lines into two intersecting pairs makes the
    count visible by hand: one solution joins the two intersection
    points, the other is cut out by the two planes the pairs span.
    The Schubert side is integrate(sigma_1^4) on G(2,4); both give 2.
    """
    schubert_total = integrate(sigma(4, 1) ** 4)
    parts = (1, 1)
    descriptions = (
        "the line through the two intersection points of the specialized pairs",
        "the intersection line of the two planes spanned by the pairs",
    )
    return FourLinesCount(
        parts=parts,
        part_descriptions=descriptions,
        total=sum(parts),
        schubert_total=schubert_total,
    )
