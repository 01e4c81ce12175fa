"""Serre duality as a check that no formula of the library encodes.

On a smooth projective threefold X, chi(E, F) = -chi(F, E x K_X) with
K_X = -c1 (Hartshorne, *Algebraic Geometry*, III.7).  At the level of
characters it follows from td(X)^v = td(X) e^{-c1}, an identity of the
truncated ring, so it holds for any rational Chern data on any ring.  It
ties `star`, the Todd class, the twist and the Euler form together: a
wrong sign in `star`, a wrong Todd coefficient or a wrong twist breaks it.
"""

import random

from mukai import chi_split, euler_chi_result, twist_chern

from conftest import random_cy_ring, random_fano_ring, random_fractional_chern, with_denominators


def chi(e1, e2):
    return euler_chi_result(e1, e2).value


def cases(seed, count):
    """Seeded (ring, E, F) triples: rho <= 4, fractional tensors and Chern data."""
    rng = random.Random(seed)
    for _ in range(count):
        rho = rng.randint(1, 4)
        ring = with_denominators(rng, (random_cy_ring if rng.random() < 0.3 else random_fano_ring)(rng, rho))
        yield ring, random_fractional_chern(rng, ring), random_fractional_chern(rng, ring)


def test_euler_form_satisfies_serre_duality():
    for ring, e, f in cases(111, 200):
        assert chi(e, f) == -chi(f, twist_chern(e, ring.c1_coords, -1)), (e, f)


def test_chi_split_backward_term_is_the_serre_dual():
    for ring, e1, e2 in cases(112, 100):
        plus, minus = chi_split(e1, e2)
        assert plus - minus == -chi(e1, twist_chern(e2, ring.c1_coords, -1)), (e1, e2)
