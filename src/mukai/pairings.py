"""Mukai pairings, Euler forms, twists, reflections and gluing matches.

The threefold pairing (u, v) = -[star(v) . u]_6 is skew; the K3 pairing
(u, v) = u2.G.v2 - u0 v4 - u4 v0 is symmetric.  The Euler form chi is
computed by Riemann-Roch-Hirzebruch (Fulton, *Intersection Theory*,
ch. 15) from topological types alone, so it agrees with the alternating
Ext sum whenever the input data comes from honest bundles, and is an exact
rational either way.  With td fixed per ring, chi(E1, E2) is a bilinear
form in the two characters: the H^2 parts pair through the ring's integer
matrix M[j][k] = D sum_i d[i][j][k] td2[i], and every other term is a
product of scalars or one dot product, so no cup product is formed.
`euler_chi_result` and `chi_split` form their `Fraction`s from the same
integers by `rings._top_linear` and `rings._bilinear`; `chi_split` takes
both orders in one pass, as they share the denominator and, M being
symmetric, the square term.  `mukai_restrict` forms its diagnostic
delta = m - m.e^{-S} as one product m.(1 - e^{-S}) by the fixed factor
each flag keeps (see `rings`), so that too costs rho^2; it reads m(E) as
the bundle's record keeps it, and G.v2 off integers too.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from operator import mul

from .chern import ChernData, MukaiVector, _check_power, chern_character, k3_mukai_vector
from .errors import IntegralityWarning, LatticeValidationError
from .flags import FlagDescriptor, _isometry
from .rational import as_vector, mat_vec
from .record import Record
from .rings import (
    GradedClass, K3Restriction, K3Vector, _bilinear, _starred, _times_fixed, _top_linear, star, top_degree,
)

__all__ = [
    "PairingResult",
    "HDeclaration",
    "RestrictionResult",
    "mukai_pairing_3fold",
    "mukai_pairing_k3",
    "euler_chi",
    "euler_chi_result",
    "chi_split",
    "twist_class",
    "spherical_reflect",
    "mukai_restrict",
    "gluing_match",
]


class PairingResult(Record):
    """An exact pairing value plus an optional integrality note."""

    value: Fraction
    integrality_note: str | None = None


class HDeclaration(Record):
    """A declared value of the holomorphic form h(E1, E2).

    h counts rk H^1 - rk H^0 of Hom(E1, E2) and is not determined by
    topological data, so it can only ever be asserted by the caller;
    nothing in this package computes it.
    """

    e1: ChernData
    e2: ChernData
    value: int

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(self.value, int):
            raise LatticeValidationError("a declared h value must be an integer")


def _as_graded(u) -> GradedClass:
    if isinstance(u, MukaiVector):
        return u.graded
    if isinstance(u, GradedClass):
        return u
    raise TypeError(f"expected GradedClass or MukaiVector, got {type(u).__name__}")


def mukai_pairing_3fold(u, v) -> Fraction:
    """Skew pairing -[star(v) . u]_6 on a threefold lattice.

    Accepts graded classes or Mukai vectors on the same ring.  On a
    Calabi-Yau ring this agrees with the Euler form of topological types
    through m(E) = ch(E) sqrt(td).
    """
    u, v = _as_graded(u), _as_graded(v)
    return -top_degree(star(v), u)


def mukai_pairing_k3(restriction: K3Restriction, u: K3Vector, v: K3Vector) -> Fraction:
    """Symmetric K3 pairing u2.G.v2 - u0 v4 - u4 v0."""
    return restriction._pair(u.v2, v.v2) - u.v0 * v.v4 - u.v4 * v.v0


def euler_chi(e1: ChernData, e2: ChernData) -> Fraction:
    """Euler form chi(E1, E2) = [ch(E2) . ch(E1*) . td]_6 by RRH.

    Emits an `IntegralityWarning` when both inputs have integral Chern
    data but the result is fractional, which flags inconsistent
    intersection numbers in the ring.
    """
    result = euler_chi_result(e1, e2)
    if result.integrality_note:
        warnings.warn(result.integrality_note, IntegralityWarning, stacklevel=2)
    return result.value


def euler_chi_result(e1: ChernData, e2: ChernData) -> PairingResult:
    """Euler form packaged with its integrality note, for reporting.

    By Riemann-Roch-Hirzebruch chi(E1, E2) = [ch(E2) . ch(E1)^v . td]_6
    (Fulton, *Intersection Theory*, ch. 15), with ch(E1)^v = star(ch(E1)).
    It is computed as a bilinear form in the two characters, x2^T M y2 plus
    terms of order rho, M being the ring's integer matrix of td (kept once
    per ring), so it costs rho^2 and no cup product.

    The note is set, and `euler_chi` warns with it, when both inputs have
    integral Chern data but the value is fractional.
    """
    x, y, (t, rows), d = _euler_terms(e1, e2)
    value = Fraction(_top_linear(y, _starred(x), t) * d - _bilinear(x[2], rows, y[2]), x[0] * y[0] * t[0] * d)
    note = None
    if value.denominator != 1 and e1.is_integral and e2.is_integral:
        note = (
            f"chi({'/'.join(e1.labels) or 'e1'}, {'/'.join(e2.labels) or 'e2'}) = "
            f"{value} is fractional on integral Chern data"
        )
    return PairingResult._exact(value=value, integrality_note=note)


def _euler_terms(e1: ChernData, e2: ChernData) -> tuple:
    """The characters' `_ints`, td's fixed factor and D: what both Euler form evaluations read."""
    if e1.ring != e2.ring:
        raise LatticeValidationError("Euler form needs both types on the same ring")
    return chern_character(e1)._ints, chern_character(e2)._ints, e1.ring._td, e1.ring._den


def chi_split(e1: ChernData, e2: ChernData) -> tuple[Fraction, Fraction]:
    """Symmetric and skew parts (chi+, chi-) of the Euler form.

    chi+ = (chi(e1,e2) + chi(e2,e1))/2 and chi- is the difference half;
    they sum back to chi(e1,e2).  On a Calabi-Yau ring chi is skew and
    chi+ vanishes identically, so the split is interesting only on
    quasi-Fano rings, but any ring is accepted.

    Both values come from one integer pass.  With x = ch(E1) and
    y = ch(E2), chi(E1, E2) = [y . star(x) . td]_6 and chi(E2, E1) =
    [x . star(y) . td]_6 have the same denominator, and the same square
    term -x2^T R y2, since td's rows R are symmetric; only their terms of
    order rho differ.
    """
    x, y, (t, rows), d = _euler_terms(e1, e2)
    forward, backward = _top_linear(y, _starred(x), t), _top_linear(x, _starred(y), t)
    den = 2 * x[0] * y[0] * t[0] * d
    return (
        Fraction((forward + backward) * d - 2 * _bilinear(x[2], rows, y[2]), den),
        Fraction((forward - backward) * d, den),
    )


def twist_class(m: GradedClass, L, k: int = 1) -> GradedClass:
    """Lattice action of tensoring by the k-th power of a line bundle L.

    Multiplies by the truncated exponential of k L; k = 0 is the
    identity and k, -k compose to the identity.  `k` must be an `int`.
    """
    _check_power(k)
    m = _as_graded(m)
    coords = as_vector(L)
    return m * m.ring.exp_h2(tuple(k * a for a in coords))


def spherical_reflect(m: GradedClass, mp: GradedClass, pairing_value) -> GradedClass:
    """Lattice reflection -m' - <m, m'> m through the class m.

    `pairing_value` is the declared coupling <m, m'>: either the Euler
    form chi(m, m') computed by the caller, or an `HDeclaration.value`
    when the non-topological form h is intended.  It is never computed
    implicitly here.
    """
    m, mp = _as_graded(m), _as_graded(mp)
    return -mp - m.scale(pairing_value)


class RestrictionResult(Record):
    """Restriction of a Mukai vector to the K3 member, with diagnostics.

    `vector` is the honest restriction.  `delta` is the lattice
    expression m - m.e^{-S}, formed as the one product m.(1 - e^{-S}) by
    the factor the flag keeps; its degree-2 part always equals rank times
    the section class, but its degree-4 part picks up curvature terms
    and agrees with G.v2 only in degenerate cases (for instance when the
    section pairs to zero), and its degree-0 part is structurally 0 and
    can never encode the rank.  The expression is degree-inconsistent as
    a description of the restriction, which is exactly what the two
    boolean fields document; the comparison is informational and never
    fails the operation.
    """

    vector: K3Vector
    delta: GradedClass
    degree2_matches: bool
    degree4_matches: bool

    @property
    def note(self) -> str:
        return (
            f"lattice expression m - m.e^(-S): degree-2 match = {self.degree2_matches}, "
            f"degree-4 match = {self.degree4_matches}; degree-0 is structurally 0"
        )


def mukai_restrict(flag: FlagDescriptor, e: ChernData) -> RestrictionResult:
    """Restrict the Mukai vector of a topological type to the K3 member.

    Callers that want only `vector` should call `k3_mukai_vector`.
    """
    vector = k3_mukai_vector(flag, e)
    s, ds = flag.k3._s
    # delta = m - m.e^{-S} = m.(1 - e^{-S}), in integers, from what flag and record keep.
    delta = _times_fixed(e._mukai.graded, flag._one_minus_exp_minus_s)
    # Compared in integers, across denominators: delta_2 = rank s and delta_4 = G.v2,
    # where v2 = n2/dc is ch(E)'s H^2 part, so G.v2 = R.n2/(dc g) for G = R/g.
    (den, _, d2, d4, _), (dc, _, n2, _, _) = delta._ints, e._ch._ints
    gv, dg = [sum(map(mul, row, n2)) for row in flag.k3._rows], dc * flag.k3._den
    return RestrictionResult(
        vector=vector,
        delta=delta,
        degree2_matches=all(a * ds == e.rank * b * den for a, b in zip(d2, s)),
        degree4_matches=all(a * dg == b * den for a, b in zip(d4, gv)),
    )


def gluing_match(restriction: K3Restriction, matrix, v_plus: K3Vector, v_minus: K3Vector) -> bool:
    """Whether two restricted vectors agree across a lattice isometry.

    The matrix must satisfy A^T G A = G; the vectors match when
    v_plus = (v_minus.v0, A v_minus.v2, v_minus.v4), which is the
    lattice-level condition for bundles on the two components to glue.
    """
    a = _isometry(matrix, restriction._rows, restriction._den, "matrix")[0]
    restriction._require_rank(v_minus.v2)
    transported = K3Vector(v_minus.v0, mat_vec(a, v_minus.v2), v_minus.v4)
    return v_plus == transported
