"""Schubert calculus on G(2,n), just large enough for classical line counts.

Cohomology classes of the Grassmannian of projective lines in P^{n-1}
are integer combinations of Schubert classes sigma_(a,b) indexed by
partitions a >= b inside the 2 x (n-2) box.  Two rows is all this
module supports, and all it needs: multiplication by the special
classes sigma_k (Pieri's horizontal-strip rule) together with the
column rule sigma_(1,1) . sigma_(a,b) = sigma_(a+1,b+1) generates the
whole ring, since sigma_(a,b) = sigma_(1,1)^b . sigma_(a-b).

Chern-class integrals are fed in as symmetric polynomials in the two
Chern roots of the dual tautological bundle; exact polynomial division
rewrites them in the elementary symmetric classes e1 = sigma_1 and
e2 = sigma_(1,1), and integration reads off the full-box coefficient.
That pipeline reproduces the classical counts:

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
]


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
        if not isinstance(n, int) or n < 2:
            raise LatticeValidationError(f"G(2,n) needs an integer n >= 2, got {n!r}")
        self.n = n
        clean: dict[tuple[int, int], int] = {}
        for key, coeff in (terms or {}).items():
            a, b = key
            if not isinstance(coeff, int):
                raise LatticeValidationError(f"coefficient of sigma{key} must be an integer")
            if not (isinstance(a, int) and isinstance(b, int) and n - 2 >= a >= b >= 0):
                raise LatticeValidationError(
                    f"partition {key} does not fit the 2x{n - 2} box of G(2,{n})"
                )
            if coeff != 0:
                clean[(a, b)] = clean.get((a, b), 0) + coeff
        self.terms = {k: v for k, v in clean.items() if v != 0}

    # -- structural helpers ------------------------------------------------

    def _check_same_space(self, other: "SchubertElement"):
        if self.n != other.n:
            raise LatticeValidationError(f"elements live on G(2,{self.n}) and G(2,{other.n})")

    def __eq__(self, other):
        return (
            isinstance(other, SchubertElement) and self.n == other.n and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __add__(self, other: "SchubertElement") -> "SchubertElement":
        self._check_same_space(other)
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged.get(key, 0) + coeff
        return SchubertElement(self.n, merged)

    def __neg__(self) -> "SchubertElement":
        return SchubertElement(self.n, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "SchubertElement") -> "SchubertElement":
        return self + (-other)

    def scale(self, factor: int) -> "SchubertElement":
        if not isinstance(factor, int):
            raise LatticeValidationError("Schubert coefficients stay integral: scale by an int")
        return SchubertElement(self.n, {k: factor * v for k, v in self.terms.items()})

    def __rmul__(self, factor):
        if isinstance(factor, int):
            return self.scale(factor)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, SchubertElement):
            return multiply(self, other)
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "SchubertElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise LatticeValidationError("powers must be non-negative integers")
        if exponent > 2 * (self.n - 2) and (0, 0) not in self.terms:
            # Every term has degree >= 1, so the power lies above dim G(2,n).
            return SchubertElement(self.n, {})
        result = sigma(self.n, 0)
        for _ in range(exponent):
            result = result * self
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
    """Multiply by the special class sigma_k via horizontal strips.

    Each term sigma_(l1,l2) spreads to all partitions (m1,m2) in the box
    with m1 >= l1 >= m2 >= l2 and m1 + m2 = l1 + l2 + k: the strip adds
    at most one box per column, so it cannot wrap to a third row.
    """
    if not isinstance(k, int) or not (0 <= k <= x.n - 2):
        raise LatticeValidationError(f"sigma_k needs 0 <= k <= {x.n - 2} on G(2,{x.n}), got {k}")
    out: dict[tuple[int, int], int] = {}
    for (l1, l2), coeff in x.terms.items():
        for m2 in range(l2, l1 + 1):
            m1 = l1 + l2 + k - m2
            if m1 < max(l1, m2) or m1 > x.n - 2:
                continue
            out[(m1, m2)] = out.get((m1, m2), 0) + coeff
    return SchubertElement(x.n, out)


def _column_mult(x: SchubertElement) -> SchubertElement:
    """Multiply by sigma_(1,1): shift both rows up by one, clip at the box."""
    out: dict[tuple[int, int], int] = {}
    for (a, b), coeff in x.terms.items():
        if a + 1 <= x.n - 2:
            out[(a + 1, b + 1)] = out.get((a + 1, b + 1), 0) + coeff
    return SchubertElement(x.n, out)


def multiply(x: SchubertElement, y: SchubertElement) -> SchubertElement:
    """Full product, via sigma_(a,b) = sigma_(1,1)^b . sigma_(a-b)."""
    x._check_same_space(y)
    total = SchubertElement(x.n, {})
    for (a, b), coeff in sorted(y.terms.items()):
        partial = x
        for _ in range(b):
            partial = _column_mult(partial)
        partial = pieri_mult(partial, a - b)
        total = total + partial.scale(coeff)
    return total


def integrate(x: SchubertElement) -> int:
    """Degree of the zero-cycle part: the full-box coefficient.

    >>> integrate(sigma(5, 3, 3))
    1
    """
    box = (x.n - 2, x.n - 2)
    return x.terms.get(box, 0)


def euler_char_g2n(n: int) -> int:
    """Euler characteristic of G(2,n): its Schubert-cell count C(n,2)."""
    if not isinstance(n, int) or n < 2:
        raise LatticeValidationError(f"G(2,n) needs an integer n >= 2, got {n!r}")
    return comb(n, 2)


def lines_on_octic_double(n: int = 4) -> int:
    """Line count on the octic double solid: twice the Euler number of G(2,4).

    The double solid branched in a degree-8 surface carries two copies of
    the line family of P^3, and the count is 2 chi(G(2,4)) = 12; since
    dim G(2,4) = 4 is even, the signed top-Chern integral of T*G agrees
    with +chi.
    """
    if n != 4:
        raise LatticeValidationError("the octic double solid count lives on G(2,4) only")
    return 2 * euler_char_g2n(4)


# --------------------------------------------------------------------------
# Symmetric polynomials in the two Chern roots

_Poly = dict[tuple[int, int], int]


def _poly_mul(p: _Poly, q: _Poly) -> _Poly:
    out: _Poly = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def _weight_polynomial(k: int) -> _Poly:
    """Chern roots of Sym^k of a rank-2 bundle: product of i x1 + (k-i) x2."""
    poly: _Poly = {(0, 0): 1}
    for i in range(k + 1):
        factor: _Poly = {}
        if i:
            factor[(1, 0)] = i
        if k - i:
            factor[(0, 1)] = k - i
        poly = _poly_mul(poly, factor)
    return poly


def _expand_e_monomial(p: int, q: int) -> _Poly:
    """Expansion of e1^p e2^q in the root variables: binomials shifted by q."""
    return {(t + q, p - t + q): comb(p, t) for t in range(p + 1)}


def _symmetric_reduce(poly: _Poly) -> dict[tuple[int, int], int]:
    """Rewrite a symmetric integer polynomial in e1, e2 by exact division.

    Repeatedly strips the lex-leading monomial x1^i x2^j (which has
    i >= j for a symmetric polynomial) against e1^(i-j) e2^j.  A leading
    term with i < j means the input was not symmetric.
    """
    work = {k: v for k, v in poly.items() if v != 0}
    reduced: dict[tuple[int, int], int] = {}
    while work:
        (i, j) = max(work)
        if i < j:
            raise LatticeValidationError("polynomial is not symmetric in the two roots")
        coeff = work[(i, j)]
        key = (i - j, j)
        reduced[key] = reduced.get(key, 0) + coeff
        for mono, c in _expand_e_monomial(i - j, j).items():
            work[mono] = work.get(mono, 0) - coeff * c
            if work[mono] == 0:
                del work[mono]
    return {k: v for k, v in reduced.items() if v != 0}


def top_chern_sym_dual_tautological(n: int, k: int) -> int:
    """Integrate the top Chern class of Sym^k S* over G(2,n).

    S* is the dual tautological bundle, whose Chern roots x1, x2 have
    e1 = sigma_1 and e2 = sigma_(1,1).  The top Chern class of the
    symmetric power is the product of the weights i x1 + (k-i) x2,
    reduced exactly to the e-basis and evaluated in the Schubert ring.
    When the rank k+1 does not match dim G(2,n) = 2(n-2) the top Chern
    class has the wrong degree and the integral is 0, returned at once.
    """
    if not isinstance(n, int) or n < 2:
        raise LatticeValidationError(f"G(2,n) needs an integer n >= 2, got {n!r}")
    if not isinstance(k, int) or k < 0:
        raise LatticeValidationError(f"symmetric power needs k >= 0, got {k!r}")
    if k + 1 != 2 * (n - 2):
        return 0
    reduced = _symmetric_reduce(_weight_polynomial(k))
    total = 0
    for (p, q), coeff in sorted(reduced.items()):
        element = sigma(n, 0)
        for _ in range(q):
            element = _column_mult(element)
        for _ in range(p):
            element = pieri_mult(element, 1)
        total += coeff * integrate(element)
    return total


class FourLinesCount(Record):
    """The two-part degeneration count of lines meeting four general lines."""

    parts: tuple[int, int]
    part_descriptions: tuple[str, str]
    total: int
    schubert_total: int

    def __init__(self, parts, part_descriptions, total, schubert_total):
        vars(self).update(
            parts=parts,
            part_descriptions=part_descriptions,
            total=total,
            schubert_total=schubert_total,
        )

    @property
    def consistent(self) -> bool:
        return sum(self.parts) == self.total == self.schubert_total


def four_lines_count(n: int = 4) -> FourLinesCount:
    """Count lines in P^3 meeting four general lines, two ways.

    Specializing the four lines into two intersecting pairs makes the
    count visible by hand: one solution joins the two intersection
    points, the other is cut out by the two planes the pairs span.
    The Schubert side is integrate(sigma_1^4) on G(2,4); both give 2.
    """
    if n != 4:
        raise LatticeValidationError("the four-lines count is a statement about G(2,4)")
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
