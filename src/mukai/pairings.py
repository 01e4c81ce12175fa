"""Mukai pairings, Euler forms, twists, reflections and gluing matches.

The threefold pairing (u, v) = -[star(v) . u]_6 is skew; the K3 pairing
(u, v) = u2.G.v2 - u0 v4 - u4 v0 is symmetric.  The Euler form chi is
computed by Riemann-Roch-Hirzebruch from topological types alone, so it
agrees with the alternating Ext sum whenever the input data comes from
honest bundles, and is an exact rational either way.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .chern import ChernData, MukaiVector, chern_character, dual_chern, k3_mukai_vector, todd_class
from .errors import IntegralityWarning, LatticeValidationError
from .flags import FlagDescriptor, require_isometry
from .rational import as_fraction, as_vector, format_fraction, mat_vec
from .record import Record
from .rings import GradedClass, K3Restriction, K3Vector, star, top_degree

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
    integrality_note: str | None

    def __init__(self, value, integrality_note=None):
        vars(self).update(value=value, integrality_note=integrality_note)


class HDeclaration(Record):
    """A declared value of the holomorphic form h(E1, E2).

    h counts rk H^1 - rk H^0 of Hom(E1, E2) and is not determined by
    topological data, so it can only ever be asserted by the caller;
    nothing in this package computes it.
    """

    e1: ChernData
    e2: ChernData
    value: int

    def __init__(self, e1, e2, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise LatticeValidationError("a declared h value must be an integer")
        vars(self).update(e1=e1, e2=e2, value=value)


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
    if len(u.v2) != restriction.rank or len(v.v2) != restriction.rank:
        raise LatticeValidationError("K3 vectors do not match the restriction rank")
    return restriction.dot(u.v2, v.v2) - u.v0 * v.v4 - u.v4 * v.v0


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

    The note is set, and `euler_chi` warns with it, when both inputs have
    integral Chern data but the value is fractional.
    """
    if e1.ring != e2.ring:
        raise LatticeValidationError("Euler form needs both types on the same ring")
    value = top_degree(chern_character(e2) * chern_character(dual_chern(e1)), todd_class(e1.ring))
    note = None
    if value.denominator != 1 and e1.is_integral and e2.is_integral:
        note = (
            f"chi({'/'.join(e1.labels) or 'e1'}, {'/'.join(e2.labels) or 'e2'}) = "
            f"{format_fraction(value)} is fractional on integral Chern data"
        )
    return PairingResult(value=value, integrality_note=note)


def chi_split(e1: ChernData, e2: ChernData) -> tuple[Fraction, Fraction]:
    """Symmetric and skew parts (chi+, chi-) of the Euler form.

    chi+ = (chi(e1,e2) + chi(e2,e1))/2 and chi- is the difference half;
    they sum back to chi(e1,e2).  On a Calabi-Yau ring chi is skew and
    chi+ vanishes identically, so the split is interesting only on
    quasi-Fano rings, but any ring is accepted.
    """
    forward = euler_chi_result(e1, e2).value
    backward = euler_chi_result(e2, e1).value
    return ((forward + backward) / 2, (forward - backward) / 2)


def twist_class(m: GradedClass, L, k: int = 1) -> GradedClass:
    """Lattice action of tensoring by the k-th power of a line bundle L.

    Multiplies by the truncated exponential of k L; k = 0 is the
    identity and k, -k compose to the identity.
    """
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
    return -mp - as_fraction(pairing_value) * m


class RestrictionResult(Record):
    """Restriction of a Mukai vector to the K3 member, with diagnostics.

    `vector` is the honest restriction.  `delta` is the lattice
    expression m - m.e^{-S}; its degree-2 part always equals rank times
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

    def __init__(self, vector, delta, degree2_matches, degree4_matches):
        vars(self).update(
            vector=vector,
            delta=delta,
            degree2_matches=degree2_matches,
            degree4_matches=degree4_matches,
        )

    @property
    def note(self) -> str:
        return (
            f"lattice expression m - m.e^(-S): degree-2 match = {self.degree2_matches}, "
            f"degree-4 match = {self.degree4_matches}; degree-0 is structurally 0"
        )


def mukai_restrict(flag: FlagDescriptor, e: ChernData) -> RestrictionResult:
    """Restrict the Mukai vector of a topological type to the K3 member."""
    from .chern import mukai_vector  # local to keep module import order simple

    if e.ring != flag.ring:
        raise LatticeValidationError("Chern data must live on the flag's ring")
    vector = k3_mukai_vector(flag, e)
    m = mukai_vector(e).graded
    minus_s = tuple(-a for a in flag.s_coords)
    delta = m - m * flag.ring.exp_h2(minus_s)
    expected_d2 = tuple(vector.v0 * s for s in flag.s_coords)
    expected_d4 = mat_vec(flag.k3.gram, vector.v2)
    return RestrictionResult(
        vector=vector,
        delta=delta,
        degree2_matches=delta.a2 == expected_d2,
        degree4_matches=delta.a4 == tuple(expected_d4),
    )


def gluing_match(restriction: K3Restriction, matrix, v_plus: K3Vector, v_minus: K3Vector) -> bool:
    """Whether two restricted vectors agree across a lattice isometry.

    The matrix must satisfy A^T G A = G; the vectors match when
    v_plus = (v_minus.v0, A v_minus.v2, v_minus.v4), which is the
    lattice-level condition for bundles on the two components to glue.
    """
    a = require_isometry(matrix, restriction.gram)
    transported = K3Vector(v_minus.v0, mat_vec(a, v_minus.v2), v_minus.v4)
    return v_plus == transported
