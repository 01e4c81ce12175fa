"""An oracle for ch, td, sqrt(td) and Riemann-Roch that shares no code with the library.

sympy expands each characteristic class from its defining series, as a
polynomial in the Chern classes c1, c2, c3 (c_i of weight i):
- ch from Newton's identities: the coefficient of t^k in
  log(1 + c1 t + c2 t^2 + c3 t^3) is (-1)^(k+1) p_k / k, and ch_k = p_k / k!;
- td as the product of x / (1 - e^-x) over three Chern roots;
- sqrt(td) from the series of sqrt(1 + x).
The polynomials are evaluated on a ring through its triple tensor alone, by
a dense cup-product loop, so no kernel, cache or formula of the library takes
part in an expected value; the dual of a class comes from c_i -> (-1)^i c_i.
"""

import random
from fractions import Fraction

import sympy
from sympy.polys.polyfuncs import symmetrize

from mukai import (
    ChernData,
    chern_character,
    euler_chi_result,
    mukai_pairing_3fold,
    mukai_vector,
    sqrt_series,
    todd_class,
    twist_chern,
)

from conftest import cp3_ring, quintic_ring, random_chern, random_cy_ring, random_fano_ring, with_denominators

C = sympy.symbols("c1 c2 c3")
T = sympy.Symbol("t")


def truncated(expr):
    """The part of a polynomial in c1, c2, c3 of weight at most 3."""
    graded = sympy.expand(expr.subs({c: c * T**w for w, c in enumerate(C, 1)}, simultaneous=True))
    return sympy.expand(sum(graded.coeff(T, k) for k in range(4)))


def ch_series():
    """[ch_1, ch_2, ch_3] by Newton's identities."""
    log = sympy.series(sympy.log(1 + C[0] * T + C[1] * T**2 + C[2] * T**3), T, 0, 4).removeO()
    return [sympy.expand((-1) ** (k + 1) * k * log.coeff(T, k) / sympy.factorial(k)) for k in (1, 2, 3)]


def td_series():
    """The product of x / (1 - e^-x) over three Chern roots, in c1, c2, c3."""
    x = sympy.Symbol("x")
    factor = sympy.series(x / (1 - sympy.exp(-x)), x, 0, 4).removeO()
    roots = sympy.symbols("x1:4")
    product = sympy.Poly(sympy.expand(sympy.prod([factor.subs(x, r) for r in roots])), *roots)
    low = sum(coeff * sympy.prod([r**e for r, e in zip(roots, exps)])
              for exps, coeff in product.terms() if sum(exps) <= 3)
    symmetric, rest, elementary = symmetrize(low, roots, formal=True)
    assert rest == 0
    return sympy.expand(symmetric.subs({s: c for (s, _), c in zip(elementary, C)}))


def sqrt_series_of(expr):
    u = sympy.Symbol("u")
    root = sympy.series(sympy.sqrt(1 + u), u, 0, 4).removeO()
    return truncated(root.subs(u, expr - 1))


def dual(expr):
    return expr.subs({C[0]: -C[0], C[2]: -C[2]}, simultaneous=True)


def terms(expr):
    """A polynomial in c1, c2, c3 as (exponents, Fraction coefficient) pairs."""
    return [(exps, Fraction(int(c.p), int(c.q))) for exps, c in sympy.Poly(expr, *C).terms()]


CH = ch_series()
TD = td_series()
SQRT_TD = sqrt_series_of(TD)
CH_TERMS, DUAL_CH_TERMS = terms(sum(CH)), terms(dual(sum(CH)))
TD_TERMS, SQRT_TD_TERMS, DUAL_SQRT_TD_TERMS = terms(TD), terms(SQRT_TD), terms(dual(SQRT_TD))


# --------------------------------------------------------------------------
# classes (a0, a2, a4, a6) on a ring, from its triple tensor alone


def zero(rho):
    return (Fraction(0), [Fraction(0)] * rho, [Fraction(0)] * rho, Fraction(0))


def add(x, y):
    return (x[0] + y[0], [a + b for a, b in zip(x[1], y[1])], [a + b for a, b in zip(x[2], y[2])], x[3] + y[3])


def cup(ring, x, y):
    d, rho = ring.triple, ring.rho
    x0, x2, x4, x6 = x
    y0, y2, y4, y6 = y
    square = [sum(x2[j] * y2[k] * d[j][k][i] for j in range(rho) for k in range(rho)) for i in range(rho)]
    return (
        x0 * y0,
        [x0 * b + y0 * a for a, b in zip(x2, y2)],
        [x0 * b + y0 * a + s for a, b, s in zip(x4, y4, square)],
        x0 * y6 + y0 * x6 + sum(a * b for a, b in zip(x2, y4)) + sum(a * b for a, b in zip(y2, x4)),
    )


def evaluate(ring, poly, classes):
    """A polynomial's `terms` with the given classes substituted for c1, c2, c3."""
    total = zero(ring.rho)
    for exps, coeff in poly:
        term = (coeff, *zero(ring.rho)[1:])
        for c, e in zip(classes, exps):
            for _ in range(e):
                term = cup(ring, term, c)
        total = add(total, term)
    return total


def chern_classes(ring, c1, c2, c3):
    rho = ring.rho
    zeros = [Fraction(0)] * rho
    return [
        (Fraction(0), [Fraction(a) for a in c1], zeros, Fraction(0)),
        (Fraction(0), zeros, [Fraction(a) for a in c2], Fraction(0)),
        (Fraction(0), zeros, zeros, Fraction(c3)),
    ]


def bundle_classes(e):
    return chern_classes(e.ring, e.c1, e.c2, e.c3)


def tangent_classes(ring):
    return chern_classes(ring, ring.c1_coords, ring.c2_values, ring.chi_top)


def oracle_ch(e, poly=CH_TERMS):
    """ch(E), or ch of the dual for `DUAL_CH_TERMS`: rank plus the series."""
    ch = evaluate(e.ring, poly, bundle_classes(e))
    return (ch[0] + e.rank, *ch[1:])


def oracle_chi(e1, e2):
    ring = e1.ring
    integrand = cup(ring, cup(ring, oracle_ch(e1, DUAL_CH_TERMS), oracle_ch(e2)),
                    evaluate(ring, TD_TERMS, tangent_classes(ring)))
    return integrand[3]


def oracle_mukai(e, dualized=False):
    ring = e.ring
    ch, sqrt_td = (DUAL_CH_TERMS, DUAL_SQRT_TD_TERMS) if dualized else (CH_TERMS, SQRT_TD_TERMS)
    return cup(ring, oracle_ch(e, ch), evaluate(ring, sqrt_td, tangent_classes(ring)))


def components(x):
    a0, a2, a4, a6 = x.components()
    return (a0, list(a2), list(a4), a6)


def random_rings(seed, count):
    rng = random.Random(seed)
    for i in range(count):
        ring = (random_cy_ring if i % 2 else random_fano_ring)(rng, rng.randint(1, 4))
        yield rng, with_denominators(rng, ring) if i % 3 == 0 else ring


def chi(e1, e2):
    return euler_chi_result(e1, e2).value


def line_bundle(ring, coords):
    return ChernData(ring, 1, coords, (0,) * ring.rho, 0)


# --------------------------------------------------------------------------
# tests


def test_the_series_are_the_textbook_formulas():
    c1, c2, c3 = C
    assert CH == [c1, sympy.expand(c1**2 / 2 - c2), sympy.expand(c1**3 / 6 - c1 * c2 / 2 + c3 / 2)]
    assert TD == sympy.expand(1 + c1 / 2 + (c1**2 + c2) / 12 + c1 * c2 / 24)
    assert SQRT_TD == sympy.expand(1 + c1 / 4 + c1**2 / 96 + c2 / 24 + c1 * c2 / 96 - c1**3 / 384)


def test_todd_class_of_p3():
    ring = cp3_ring()
    expected = (1, [2], [Fraction(11, 6)], 1)
    assert components(todd_class(ring)) == expected
    assert evaluate(ring, TD_TERMS, tangent_classes(ring)) == expected


def test_chi_of_line_bundles_on_p3_and_the_quintic():
    p3, quintic = cp3_ring(), quintic_ring()
    for k in range(-7, 8):
        # C(k+3, 3) as a polynomial in k, so also for negative k.
        expected = {p3: Fraction((k + 3) * (k + 2) * (k + 1), 6), quintic: Fraction(5 * k**3 + 25 * k, 6)}
        for ring, value in expected.items():
            structure = line_bundle(ring, (0,))
            assert chi(structure, line_bundle(ring, (k,))) == value, (ring.name, k)
            assert chi(structure, twist_chern(structure, (1,), k)) == value, (ring.name, k)
            assert oracle_chi(structure, line_bundle(ring, (k,))) == value, (ring.name, k)


def test_riemann_roch_for_line_bundles_on_seeded_rings():
    """chi(O(D)) = D^3/6 + c1.D^2/4 + (c1^2 + c2).D/12 + c1.c2/24."""
    for rng, ring in random_rings(501, 120):
        d, rho = ring.triple, ring.rho
        c1, c2 = ring.c1_coords, ring.c2_values
        D = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(rho))

        def cubic(u, v, w):
            return sum(u[i] * v[j] * w[k] * d[i][j][k] for i in range(rho) for j in range(rho) for k in range(rho))

        expected = (
            cubic(D, D, D) / 6
            + cubic(c1, D, D) / 4
            + (cubic(c1, c1, D) + sum(a * b for a, b in zip(c2, D))) / 12
            + sum(a * b for a, b in zip(c1, c2)) / 24
        )
        assert chi(line_bundle(ring, (0,) * rho), line_bundle(ring, D)) == expected, (ring, D)


def test_chern_character_todd_class_and_its_square_root_match_the_series():
    for rng, ring in random_rings(502, 60):
        e = random_chern(rng, ring)
        assert components(chern_character(e)) == oracle_ch(e), e
        td = todd_class(ring)
        assert components(td) == evaluate(ring, TD_TERMS, tangent_classes(ring)), ring
        assert components(sqrt_series(td)) == evaluate(ring, SQRT_TD_TERMS, tangent_classes(ring)), ring


def test_sqrt_series_squares_back_under_the_oracle_cup():
    """sqrt_series on unital classes other than td: y . y = x, the product taken by `cup`."""
    for rng, ring in random_rings(505, 200):
        def frac():
            return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5)))

        x = (Fraction(1), [frac() for _ in range(ring.rho)], [frac() for _ in range(ring.rho)], frac())
        y = components(sqrt_series(ring.graded(*x)))
        assert cup(ring, y, y) == x, (ring, x)


def test_mukai_vectors_and_twists_match_the_series():
    x = sympy.Symbol("x")
    exp = sympy.series(sympy.exp(x), x, 0, 4).removeO()
    for rng, ring in random_rings(503, 60):
        e = random_chern(rng, ring)
        assert components(mukai_vector(e).graded) == oracle_mukai(e), e
        L = tuple(rng.randint(-2, 2) for _ in range(ring.rho))
        k = rng.choice((-2, -1, 1, 3))
        # ch(E x L^k) = ch(E) e^(kL), e^l being the series of exp in the class l.
        line = (Fraction(0), [Fraction(k * a) for a in L], [Fraction(0)] * ring.rho, Fraction(0))
        power, exp_kL = (Fraction(1), *zero(ring.rho)[1:]), zero(ring.rho)
        for n in range(4):
            coeff = Fraction(int(exp.coeff(x, n).p), int(exp.coeff(x, n).q))
            exp_kL = add(exp_kL, (power[0] * coeff, [a * coeff for a in power[1]],
                                  [a * coeff for a in power[2]], power[3] * coeff))
            power = cup(ring, power, line)
        assert components(chern_character(twist_chern(e, L, k))) == cup(ring, oracle_ch(e), exp_kL), (e, L, k)


def test_euler_form_and_mukai_pairing_match_riemann_roch():
    for rng, ring in random_rings(504, 80):
        e1, e2 = random_chern(rng, ring), random_chern(rng, ring)
        assert chi(e1, e2) == oracle_chi(e1, e2), (e1, e2)
        # (u, v) = -[v^dual . u]_6, the dual taken by c_i -> (-1)^i c_i.
        pairing = -cup(ring, oracle_mukai(e2, dualized=True), oracle_mukai(e1))[3]
        assert mukai_pairing_3fold(mukai_vector(e1), mukai_vector(e2)) == pairing, (e1, e2)
