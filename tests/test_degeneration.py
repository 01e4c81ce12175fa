"""Tyurin degenerations of known Calabi-Yau threefolds as a check that no formula of the library encodes.

A Calabi-Yau threefold X degenerates to two quasi-Fano threefolds glued
along an anticanonical K3 surface S, X ~> V+ u_S V- (Tyurin, *Fano versus
Calabi-Yau*; N.-H. Lee, *Calabi-Yau construction by smoothing normal
crossing varieties*; Doran, Harder and Thompson, *Mirror symmetry, Tyurin
degenerations and fibrations on Calabi-Yau manifolds*).  The invariants of
X are then read off the flags (V+-, S):

- chi(X, O(k)) = chi(V+, O(k)) + chi(V-, O(k)) - chi(S, O(k)|_S), and
  the same for chi(O(a), O(b)); each side is an Euler form of the
  library, and chi on S is minus the Mukai pairing of the K3 vectors;
- e(X) = e(V+) + e(V-) - 48 - D^2, D the section class of the gluing;
- h^{1,1}(X) is the dimension of the joint kernel of [G | G A], and
  h^{1,2}(X) = h^{1,1}(X) - e(X)/2.

Each case writes its rho = 1 rings inline and knows X's invariants
independently: the quintic (e = -200, h^{1,2} = 101) and the octic double
solid (e = -296, h^{1,2} = 149).
"""

from fractions import Fraction

import pytest

from mukai import (
    ChernData,
    FlagDescriptor,
    ThreefoldRing,
    deformation_dims,
    euler_chi,
    joint_obstruction_kernel,
    k3_mukai_vector,
    make_gluing,
    mukai_pairing_k3,
)


def ring(name, degree, c1, c2, euler, h12):
    """A rho = 1 ring with H^3 = degree, c1 = c1 H and c2.H = c2."""
    return ThreefoldRing(name, ("h",), (((degree,),),), (c1,), (c2,), euler, h12)


def flag(name, degree, c1, c2, euler, h12):
    """A quasi-Fano V with its anticanonical K3 member, s = c1(V)."""
    return FlagDescriptor(ring=ring(name, degree, c1, c2, euler, h12), s_coords=(c1,))


QUINTIC = ring("quintic", 5, 0, 50, -200, 101)
OCTIC_DOUBLE_SOLID = ring("octic-double-solid", 2, 0, 44, -296, 149)
P3 = flag("P3", 1, 4, 6, 4, 0)

# (X, V+, V-, e(X), h^{1,2}(X)); the two sides restrict to the same K3 lattice.
CASES = {
    "quintic ~> P3 u quartic": (QUINTIC, P3, flag("Y4", 4, 1, 24, -56, 30), -200, 101),
    "quintic ~> quadric u cubic": (QUINTIC, flag("Q", 2, 3, 8, 4, 0), flag("Y3", 3, 2, 12, -6, 5), -200, 101),
    "octic double solid ~> P3 u P3": (OCTIC_DOUBLE_SOLID, P3, P3, -296, 149),
}


def line_bundle(ring, k):
    return ChernData(ring, 1, (k,), (0,), 0)


def chi(ring, a, b):
    """chi(O(a), O(b)) on the threefold."""
    return euler_chi(line_bundle(ring, a), line_bundle(ring, b))


def chi_k3(side, a, b):
    """chi(O(a)|_S, O(b)|_S) = -<v(O(a)|_S), v(O(b)|_S)>, read on the flag's K3."""
    vectors = (k3_mukai_vector(side, line_bundle(side.ring, j)) for j in (a, b))
    return -mukai_pairing_k3(side.k3, *vectors)


# chi(X, O(k)) for k = -6..6, then chi(O(a), O(b)) for a, b = -3..3, whose
# first bundle is not O, so that a wrong sign of `star` on H^6 shows.
PAIRS = [(0, k) for k in range(-6, 7)] + [(a, b) for a in range(-3, 4) for b in range(-3, 4)]


@pytest.mark.parametrize("case", CASES)
def test_chi_of_the_smoothing_is_the_sum_over_the_flags(case):
    x, plus, minus, _, _ = CASES[case]
    for a, b in PAIRS:
        values = (chi(x, a, b), chi(plus.ring, a, b), chi(minus.ring, a, b),
                  chi_k3(plus, a, b), chi_k3(minus, a, b))
        assert all(type(v) is Fraction and v.denominator == 1 for v in values), (a, b, values)
        whole, v_plus, v_minus, on_s, on_s_minus = values
        assert on_s == on_s_minus
        assert whole == v_plus + v_minus - on_s, (a, b, values)


@pytest.mark.parametrize("case", CASES)
def test_euler_number_and_hodge_numbers_of_the_smoothing(case):
    x, plus, minus, euler, h12 = CASES[case]
    gluing = make_gluing(plus, minus)
    euler_x = plus.ring.chi_top + minus.ring.chi_top - 48 - gluing.d_square()
    assert euler_x == euler == x.chi_top
    h11 = joint_obstruction_kernel(gluing).dimension
    assert (h11, h11 - euler_x / 2) == (x.rho, h12)


@pytest.mark.parametrize("case", CASES)
def test_deformation_dims_is_h12_of_the_smoothing_less_21_plus_the_joint_rank(case):
    # Pins today's relation: the count leaves out the 20 - r moduli of the
    # lattice-polarized K3 and one smoothing direction (r = rank [G | G A]).
    _, plus, minus, _, h12 = CASES[case]
    gluing = make_gluing(plus, minus)
    r = 2 * plus.ring.rho - joint_obstruction_kernel(gluing).dimension
    assert deformation_dims(gluing, plus.ring.h12, minus.ring.h12).value == h12 - 21 + r
