"""Shared builders for the test suite: named rings, flags and random data.

Random generators take an explicit `random.Random` so every test seeds
its own stream and failures replay exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from mukai import ChernData, FlagDescriptor, ThreefoldRing
from mukai.rational import as_matrix

LETTERS = ("A", "B", "C", "D", "E", "F", "G", "H")


def quintic_ring() -> ThreefoldRing:
    """The quintic threefold in P^4: rho = 1, H^3 = 5, c2.H = 50."""
    return ThreefoldRing(
        name="quintic",
        basis_labels=("H",),
        triple=(((5,),),),
        c1_coords=(0,),
        c2_values=(50,),
        chi_top=-200,
        h12=101,
    )


def cp3_ring() -> ThreefoldRing:
    """P^3 as a quasi-Fano ring: H^3 = 1, c1 = 4H, c2.H = 6."""
    return ThreefoldRing(
        name="cp3-quartic",
        basis_labels=("H",),
        triple=(((1,),),),
        c1_coords=(4,),
        c2_values=(6,),
        chi_top=4,
        h12=0,
    )


def cp3_quartic_flag() -> FlagDescriptor:
    """The flag (P^3, quartic K3 member)."""
    return FlagDescriptor(ring=cp3_ring(), s_coords=(4,), h1_ty=0)


def instanton_type(ring=None) -> ChernData:
    """Rank-2 instanton topological type (2, 0, 1, 0) on P^3."""
    return ChernData(
        ring=ring or cp3_ring(),
        rank=2,
        c1=(0,),
        c2=(1,),
        c3=Fraction(0),
        labels=("instanton", "stable"),
    )


def synthetic_ring() -> ThreefoldRing:
    """A rho = 2 quasi-Fano ring whose restricted Gram matrix is singular."""
    return ThreefoldRing(
        name="synthetic-rho2",
        basis_labels=("A", "B"),
        triple=(((4, 2), (2, 1)), ((2, 1), (1, 0))),
        c1_coords=(1, 0),
        c2_values=(24, 10),
        chi_top=0,
        h12=0,
    )


def synthetic_flag() -> FlagDescriptor:
    return FlagDescriptor(ring=synthetic_ring(), s_coords=(1, 0))


def swap_symmetric_flag() -> FlagDescriptor:
    """A rho = 2 flag whose lattice carries the swap involution A <-> B."""
    ring = ThreefoldRing(
        name="swap-symmetric",
        basis_labels=("A", "B"),
        triple=(((-4, 2), (2, 2)), ((2, 2), (2, -4))),
        c1_coords=(1, 1),
        c2_values=(12, 12),
        chi_top=0,
        h12=0,
    )
    return FlagDescriptor(ring=ring, s_coords=(1, 1))


# --------------------------------------------------------------------------
# random data


def random_triple(rng, rho):
    data = [[[0] * rho for _ in range(rho)] for _ in range(rho)]
    for i in range(rho):
        for j in range(i, rho):
            for k in range(j, rho):
                value = rng.randint(-4, 6)
                for a, b, c in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
                    data[a][b][c] = value
    return tuple(tuple(tuple(row) for row in plane) for plane in data)


def random_cy_ring(rng, rho=None) -> ThreefoldRing:
    """A random Calabi-Yau ring with rho <= 3 and consistent Hodge data."""
    rho = rho if rho is not None else rng.randint(1, 3)
    h12 = rng.randint(0, 20)
    return ThreefoldRing(
        name=f"random-cy-{rho}",
        basis_labels=LETTERS[:rho],
        triple=random_triple(rng, rho),
        c1_coords=(0,) * rho,
        c2_values=tuple(rng.randint(-20, 40) for _ in range(rho)),
        chi_top=2 * (rho - h12),
        h12=h12,
    )


def random_fano_ring(rng, rho=None) -> ThreefoldRing:
    """A random ring with nonzero c1 (no Hodge constraint applies)."""
    rho = rho if rho is not None else rng.randint(1, 3)
    c1 = [rng.randint(-2, 3) for _ in range(rho)]
    if all(x == 0 for x in c1):
        c1[0] = 1
    return ThreefoldRing(
        name=f"random-fano-{rho}",
        basis_labels=LETTERS[:rho],
        triple=random_triple(rng, rho),
        c1_coords=tuple(c1),
        c2_values=tuple(rng.randint(-20, 40) for _ in range(rho)),
        chi_top=rng.randint(-10, 10),
        h12=rng.randint(0, 20),
    )


def with_denominators(rng, ring) -> ThreefoldRing:
    """`ring` with its triple, c1 and c2 entries divided by small denominators.

    The triple keeps its symmetry (one denominator per sorted index), and a
    Calabi-Yau ring stays Calabi-Yau.
    """
    dens = {}

    def den(*key):
        return dens.setdefault(tuple(sorted(key)), rng.choice((1, 1, 2, 3, 4, 6)))

    def divided(values):
        return tuple(Fraction(x) / rng.choice((1, 1, 2, 3, 5)) for x in values)

    triple = tuple(
        tuple(tuple(Fraction(x) / den(i, j, k) for k, x in enumerate(row)) for j, row in enumerate(plane))
        for i, plane in enumerate(ring.triple)
    )
    return ThreefoldRing(
        ring.name, ring.basis_labels, triple, divided(ring.c1_coords), divided(ring.c2_values),
        ring.chi_top, ring.h12,
    )


def random_chern(rng, ring, labels=()) -> ChernData:
    """Random integral Chern data on a given ring."""
    rho = ring.rho
    return ChernData(
        ring=ring,
        rank=rng.randint(1, 4),
        c1=tuple(Fraction(rng.randint(-3, 3)) for _ in range(rho)),
        c2=tuple(Fraction(rng.randint(-6, 6)) for _ in range(rho)),
        c3=Fraction(rng.randint(-6, 6)),
        labels=labels,
    )


def random_fraction(rng) -> Fraction:
    """A small rational with a mixed denominator."""
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 7)))


def random_fractional_chern(rng, ring, max_rank=4, labels=()) -> ChernData:
    """Random Chern data on a given ring with fractional c1, c2 and c3."""
    rho = ring.rho
    return ChernData(
        ring=ring,
        rank=rng.randint(1, max_rank),
        c1=tuple(random_fraction(rng) for _ in range(rho)),
        c2=tuple(random_fraction(rng) for _ in range(rho)),
        c3=random_fraction(rng),
        labels=labels,
    )


def random_graded(rng, ring):
    """Random graded class with small mixed-denominator entries."""
    rho = ring.rho

    def frac():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))

    return ring.graded(
        a0=frac(),
        a2=tuple(frac() for _ in range(rho)),
        a4=tuple(frac() for _ in range(rho)),
        a6=frac(),
    )


def random_matrix(rng, rows, cols):
    return tuple(
        tuple(Fraction(rng.randint(-3, 3)) for _ in range(cols)) for _ in range(rows)
    )


# --------------------------------------------------------------------------
# references


def reference_rref(matrix):
    """Textbook Gauss-Jordan over Fraction: the reference for `linalg.echelon`."""
    rows = [list(row) for row in as_matrix(matrix)]
    if not rows:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def reference_primitive(vector):
    """Scaling by hand-written lcm and gcd loops: the reference for `linalg.kernel`'s vectors."""
    vec = [Fraction(v) for v in vector]
    if all(v == 0 for v in vec):
        return tuple(vec)
    scale = 1
    for v in vec:
        scale = scale * v.denominator // gcd(scale, v.denominator)
    ints = [int(v * scale) for v in vec]
    common = 0
    for v in ints:
        common = gcd(common, v)
    ints = [v // common for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return tuple(Fraction(v) for v in ints)
