"""Virtual dimensions, stability bookkeeping and the Casson-Donaldson registry.

Moduli dimensions at the lattice level are quadratic expressions in
Mukai vectors: m^2 + 2 on a K3 surface, half of that plus one for the
relative moduli of a flag, and identically zero on a Calabi-Yau
threefold.  The Casson-Donaldson numbers themselves are bookkeeping
over Euler characteristics supplied by an oracle (a classical count, a
Schubert computation, or a literature constant); the registry stores
them with their provenance and applies the multiplicative closure rule
for reflections of twisted exceptional pairs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .chern import ChernData, k3_mukai_vector
from .errors import LatticeValidationError, _quoted
from .flags import FlagDescriptor
from .pairings import euler_chi, mukai_pairing_k3
from .rational import INT_BOUND, MAX_DIGITS, as_vector, dot, over_common_denominator
from .record import Record
from .rings import GradedClass, K3Restriction, K3Vector, ThreefoldRing

__all__ = [
    "vdim_k3",
    "vdim_flag",
    "vdim_cy3",
    "Cy3ModuliReport",
    "mukai_nonempty",
    "Nonemptiness",
    "bogomolov_check",
    "BogomolovReport",
    "chi_top_cy3",
    "CDEntry",
    "CDRegistry",
    "cd_seed",
    "cd_closure",
    "cd_degeneration",
    "Constant",
    "ConstantsRegistry",
    "BUILTIN_CONSTANTS",
]


def vdim_k3(restriction: K3Restriction, m: K3Vector) -> Fraction:
    """Dimension m^2 + 2 of the K3 moduli space attached to a vector."""
    return mukai_pairing_k3(restriction, m, m) + 2


def vdim_flag(flag: FlagDescriptor, e: ChernData) -> Fraction:
    """Virtual dimension (1/2) m^2 + 1 of the relative moduli of a flag.

    The vector m is the restriction of e to the K3 member; the halving
    reflects that the flag moduli sits as a middle-dimensional piece of
    the surface moduli, so vdim_k3 is always exactly twice this value.
    """
    m = k3_mukai_vector(flag, e)
    return mukai_pairing_k3(flag.k3, m, m) / 2 + 1


class Cy3ModuliReport(Record):
    """The zero virtual dimension on a Calabi-Yau, with its evidence."""

    value: int
    chi_self: Fraction
    note: str | None


def vdim_cy3(ring: ThreefoldRing, e: ChernData) -> Cy3ModuliReport:
    """Virtual dimension of simple-bundle moduli on a Calabi-Yau: always 0.

    The report carries chi(e, e) = 0 as consistency evidence (the Euler
    form is skew so the diagonal vanishes) and flags the tangent-bundle
    type, whose deformations may be obstructed or not -- the lattice
    cannot tell.
    """
    if not ring.is_calabi_yau:
        raise LatticeValidationError(f"ring {ring.name!r} is not Calabi-Yau (c1 != 0)")
    if e.ring != ring:
        raise LatticeValidationError("Chern data must live on the given ring")
    chi_self = euler_chi(e, e)
    note = None
    tangent = (3, ring.c1_coords, ring.c2_values, Fraction(ring.chi_top))
    if (e.rank, e.c1, e.c2, e.c3) == tangent:
        note = "tangent-bundle type: possibly obstructed/unobstructed deformations"
    return Cy3ModuliReport(value=0, chi_self=chi_self, note=note)


class Nonemptiness(Record):
    """Verdict and diagnostics for K3 moduli nonemptiness.

    Truthiness is the verdict; `primitive` is None when the vector has
    non-integral entries (primitivity is then meaningless) and is
    reported, never enforced.
    """

    nonempty: bool
    square: Fraction
    primitive: bool | None
    component_gcd: int | None
    note: str

    def __bool__(self) -> bool:
        return self.nonempty


def mukai_nonempty(restriction: K3Restriction, m: K3Vector) -> Nonemptiness:
    """Nonemptiness test for K3 moduli: positive rank and m^2 >= -2.

    In the restricted-lattice model every degree-2 class is algebraic,
    so the usual (1,1)-condition holds automatically.
    """
    square = mukai_pairing_k3(restriction, m, m)
    verdict = m.v0 > 0 and square >= -2
    entries, den = over_common_denominator((m.v0, *m.v2, m.v4))
    if den == 1:
        component_gcd = gcd(*entries)
        primitive = component_gcd == 1
        note = f"gcd of components = {component_gcd} ({'primitive' if primitive else 'imprimitive'})"
    else:
        component_gcd = primitive = None
        note = "vector has non-integral components; primitivity not defined"
    return Nonemptiness(
        nonempty=verdict,
        square=square,
        primitive=primitive,
        component_gcd=component_gcd,
        note=note,
    )


class BogomolovReport(Record):
    """Discriminant class, its degree against H, and the stability verdict.

    Iterates as (delta, value, positive) for positional unpacking.
    """

    delta: GradedClass
    value: Fraction
    positive: bool
    note: str | None

    def __iter__(self):
        return iter((self.delta, self.value, self.positive))


def bogomolov_check(e: ChernData, H) -> BogomolovReport:
    """Discriminant test Delta(E).H > 0 with Delta = c2 - (r-1)/(2r) c1^2.

    A strictly positive degree is necessary for H-stability of a
    non-split bundle; rank-1 input degenerates to Delta = 0 and is
    reported as not applicable rather than stable or unstable.
    """
    ring = e.ring
    h, dh = ring._numerators(H)
    c1_sq = ring.square_to_h4(e.c1, e.c1)
    factor = Fraction(e.rank - 1, 2 * e.rank)
    delta_functional = tuple(c2 - factor * sq for c2, sq in zip(e.c2, c1_sq))
    delta = ring.graded(a4=delta_functional)
    value = dot(h, delta_functional) / dh
    note = "rank-1 input: discriminant vanishes identically, not applicable" if e.rank == 1 else None
    return BogomolovReport(delta=delta, value=value, positive=value > 0, note=note)


def chi_top_cy3(ring: ThreefoldRing) -> int:
    """Topological Euler number 2(rho - h12) of a Calabi-Yau ring.

    `ThreefoldRing` refuses a Calabi-Yau ring whose stored `chi_top`
    differs from 2(rho - h12), so the stored value is that number.
    """
    if not ring.is_calabi_yau:
        raise LatticeValidationError(f"ring {ring.name!r} is not Calabi-Yau (c1 != 0)")
    return ring.chi_top


# --------------------------------------------------------------------------
# Casson-Donaldson registry


_PROVENANCES = (
    "line-bundle-rule",
    "skyscraper-rule",
    "degeneration",
    "closure",
    "registry-constant",
)


def _of(*types):
    return lambda value: type(value) in types


_TEXT, _OPTIONAL_TEXT = _of(str), _of(str, type(None))

# The type rule of each `CDEntry` field, in the order they are checked: a
# test and the phrase a refusal ends with.  The registry loader checks
# documents by the same rules, so every entry that builds can be saved and
# read back.
CD_FIELD_RULES = (
    ("key", _TEXT, "expected a string"),
    ("manifold", _TEXT, "expected a string"),
    ("vector_desc", _TEXT, "expected a string"),
    ("provenance", _TEXT, "expected a string"),
    ("value", _of(int, type(None)), "expected an integer or null"),
    ("symbol", _OPTIONAL_TEXT, "expected a string or null"),
    ("sign_note", _OPTIONAL_TEXT, "expected a string or null"),
    ("constraint", _OPTIONAL_TEXT, "expected a string or null"),
    ("citation", _OPTIONAL_TEXT, "expected a string or null"),
    ("exceptional", _of(bool), "expected true or false"),
    (
        "parents",
        lambda v: v is None or (type(v) in (tuple, list) and len(v) == 2 and all(map(_TEXT, v))),
        "expected an array of two strings",
    ),
)


class CDEntry(Record):
    """One Casson-Donaldson number, with provenance.

    `value` is the numeric invariant when known; symbolic bookkeeping
    (named Euler characteristics that nobody has computed) stores None
    and puts the expression in `symbol`.  `exceptional` is a user
    assertion that the class is realized by exceptional stable bundles,
    which is what licenses the multiplicative closure rule; `parents`
    records the closure ancestry so products can be re-derived.  Each
    field must pass its rule in `CD_FIELD_RULES`; `symbol` has at most
    `MAX_DIGITS` characters, as `value` has at most that many digits.
    """

    key: str
    manifold: str
    vector_desc: str
    provenance: str
    value: int | None = None
    symbol: str | None = None
    exceptional: bool = False
    sign_note: str | None = None
    constraint: str | None = None
    parents: tuple[str, str] | None = None
    citation: str | None = None

    def __post_init__(self):
        for name, allowed, phrase in CD_FIELD_RULES:
            if not allowed(vars(self)[name]):
                raise LatticeValidationError(f"CD entry {name}: {phrase}, got {vars(self)[name]!r}")
        provenance, value = self.provenance, self.value
        if provenance not in _PROVENANCES:
            raise LatticeValidationError(
                f"unknown provenance {provenance!r}; expected one of {_PROVENANCES}"
            )
        if (value is None) == (self.symbol is None):
            raise LatticeValidationError("exactly one of value/symbol must be set")
        if value is not None and not -INT_BOUND < value < INT_BOUND:
            raise LatticeValidationError(f"CD value has more than {MAX_DIGITS} digits")
        if self.symbol is not None:
            _bounded(self.symbol, "CD symbol")
        if provenance == "degeneration" and value is not None and value < 0:
            raise LatticeValidationError(
                "degeneration entries are absolute Euler characteristics and cannot be negative"
            )
        if self.parents is not None:
            vars(self)["parents"] = tuple(self.parents)

    @property
    def display_value(self) -> str:
        return str(self.value) if self.value is not None else str(self.symbol)


class CDRegistry:
    """Mutable, single-writer table of Casson-Donaldson entries.

    Insertion is conflict-checked: re-adding a key with the same content
    is a no-op, re-adding with different content raises.
    """

    def __init__(self, entries=()):
        self._entries: dict[str, CDEntry] = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry: CDEntry) -> CDEntry:
        existing = self._entries.get(entry.key)
        if existing is not None:
            if existing != entry:
                raise LatticeValidationError(
                    f"registry conflict for {entry.key!r}: "
                    f"existing {existing.display_value}, new {entry.display_value}"
                )
            return existing
        self._entries[entry.key] = entry
        return entry

    def get(self, key: str) -> CDEntry:
        try:
            return self._entries[key]
        except KeyError:
            raise LatticeValidationError(f"no registry entry named {key!r}") from None

    def mark_exceptional(self, key: str) -> CDEntry:
        """Record the user assertion that a class has exceptional realizations."""
        entry = CDEntry(**dict(vars(self.get(key)), exceptional=True))
        self._entries[key] = entry
        return entry

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> tuple[CDEntry, ...]:
        return tuple(self._entries[k] for k in sorted(self._entries))


def cd_seed(registry: CDRegistry, ring: ThreefoldRing, kind: str) -> CDEntry:
    """Seed the registry with one of the two canonical values.

    Line bundles contribute 1 (their moduli is a reduced point) and are
    exceptional, so they may feed the closure rule; skyscraper sheaves
    of points contribute the topological Euler number and are not
    bundle-realized, so they may not.
    """
    if kind == "line-bundle":
        entry = CDEntry(
            key=f"{ring.name}:line-bundle",
            manifold=ring.name,
            vector_desc="m(L) for any line bundle L",
            provenance="line-bundle-rule",
            value=1,
            exceptional=True,
        )
    elif kind == "skyscraper":
        entry = CDEntry(
            key=f"{ring.name}:skyscraper",
            manifold=ring.name,
            vector_desc="m(O_p) = (0, 0, 0, 1)",
            provenance="skyscraper-rule",
            value=chi_top_cy3(ring),
            exceptional=False,
        )
    else:
        raise LatticeValidationError(f"unknown seed kind {kind!r}; expected line-bundle or skyscraper")
    return registry.add(entry)


def _bounded(text: str, what: str) -> str:
    if len(text) > MAX_DIGITS:
        raise LatticeValidationError(f"{what} has more than {MAX_DIGITS} characters, got {_quoted(text)}")
    return text


_SYMBOL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_+()\[\],^ .*-]*$")


def cd_closure(
    registry: CDRegistry,
    entry_m: CDEntry,
    entry_mp: CDEntry,
    L,
    k="k",
) -> CDEntry:
    """Closure rule: reflecting a twisted exceptional pair multiplies CD.

    For classes m, m' both realized by exceptional stable bundles, the
    reflection of the k-th twist of m' through m carries the product
    invariant CD(m) CD(m'), valid for every sufficiently large k.  The
    twist level stays symbolic with the recorded constraint k > k0,
    where k0 is an unknown threshold depending on the pair; the child is
    again exceptional, so closures can be iterated.
    """
    for parent in (entry_m, entry_mp):
        if parent.key not in registry:
            raise LatticeValidationError(f"parent {parent.key!r} is not in the registry")
        if not parent.exceptional:
            raise LatticeValidationError(
                f"parent {parent.key!r} lacks the exceptional-realization assertion"
            )
    coords = ", ".join(map(str, as_vector(L)))
    k = _bounded(str(k), "twist level k")
    key = f"{entry_m.manifold}:reflect({entry_m.key}|twist^{k}[{coords}]({entry_mp.key}))"
    if entry_m.value is not None and entry_mp.value is not None:
        value, symbol = entry_m.value * entry_mp.value, None
    else:
        value, symbol = None, f"({entry_m.display_value})*({entry_mp.display_value})"
    entry = CDEntry(
        key=key,
        manifold=entry_m.manifold,
        vector_desc=(
            f"reflection through {entry_m.vector_desc} of the {k}-th twist of {entry_mp.vector_desc}"
        ),
        provenance="closure",
        value=value,
        symbol=symbol,
        exceptional=True,
        constraint=f"{k} > k0({entry_m.key}, {entry_mp.key}), threshold not computed",
        parents=(entry_m.key, entry_mp.key),
    )
    return registry.add(entry)


def cd_degeneration(
    registry: CDRegistry,
    flag: FlagDescriptor,
    e: ChernData,
    euler_char_of_moduli,
) -> CDEntry:
    """Record a relative invariant as the Euler characteristic of a model.

    The caller supplies the Euler characteristic of the flag moduli
    component (a Schubert count, a classical number, or a named unknown
    as a string); the invariant equals it up to an unresolved global
    sign, so the absolute value is stored with a sign note.
    """
    vector = k3_mukai_vector(flag, e)
    key = f"{flag.name}:degeneration:{vector}"
    if type(euler_char_of_moduli) is int:
        value, symbol = abs(euler_char_of_moduli), None
        sign_note = (
            f"stored |chi| = {abs(euler_char_of_moduli)} of chi = {euler_char_of_moduli}; "
            "global sign not resolved by the degeneration rule"
        )
    elif isinstance(euler_char_of_moduli, str) and _SYMBOL_RE.match(euler_char_of_moduli):
        value, symbol = None, euler_char_of_moduli
        sign_note = "symbolic Euler characteristic; sign and value both open"
    else:
        raise LatticeValidationError(
            "euler characteristic must be an integer or a symbolic name, "
            f"got {_quoted(euler_char_of_moduli)}"
        )
    entry = CDEntry(
        key=key,
        manifold=flag.name,
        vector_desc=f"restricted vector {vector}",
        provenance="degeneration",
        value=value,
        symbol=symbol,
        sign_note=sign_note,
    )
    return registry.add(entry)


# --------------------------------------------------------------------------
# Constants registry


class Constant(Record):
    """A named literature value (or named open problem) with citation."""

    name: str
    value: int | None
    citation: str
    note: str = ""


class ConstantsRegistry:
    """Read-only table of named constants the package cannot recompute."""

    def __init__(self, constants):
        constants = tuple(constants)
        table = {c.name: c for c in constants}
        if len(table) != len(constants):
            raise LatticeValidationError("duplicate constant names")
        self._table = dict(sorted(table.items()))

    def get(self, name: str) -> Constant:
        try:
            return self._table[name]
        except KeyError:
            raise LatticeValidationError(f"no constant named {name!r}") from None

    def __iter__(self):
        return iter(self._table.values())


BUILTIN_CONSTANTS = ConstantsRegistry(
    [
        Constant(
            name="quintic-lines",
            value=2875,
            citation="H. Schubert, Kalkuel der abzaehlenden Geometrie, Teubner, 1879",
            note="number of lines on a generic quintic threefold; reproduced exactly by "
            "the Schubert engine (top Chern class of Sym^5 of the dual tautological "
            "bundle on G(2,5))",
        ),
        Constant(
            name="quintic-rational-curves-degree-5",
            value=229305888887625,
            citation="P. Candelas, X. de la Ossa, P. Green, L. Parkes, Nucl. Phys. B359 "
            "(1991) 21-74",
            note="degree-5 rational-curve count on the quintic threefold; far beyond "
            "desk-scale Schubert calculus, registry-only",
        ),
        Constant(
            name="quintic-rational-curves-degree-10",
            value=None,
            citation="open at the source's level of rigor",
            note="named open constant: no rigorously established count is recorded here",
        ),
        Constant(
            name="barth-nieto-quintic-nodes",
            value=130,
            citation="W. Barth, I. Nieto, J. Algebraic Geom. 3 (1994) 173-222; "
            "D. van Straten, Topology 32 (1993) 857-864",
            note="record node count of a quintic threefold used as a degeneration model",
        ),
        Constant(
            name="cp3-quartic-instanton-count",
            value=6,
            citation="classical: 't Hooft instantons of charge 1; moduli is an open "
            "subset of CP^5, chi(CP^5) = 6",
            note="Euler characteristic feeding the degeneration rule for the quartic "
            "flag with c2 = 1",
        ),
        Constant(
            name="hilb6-conic-cubic-intersection",
            value=None,
            citation="open",
            note="named open constant: intersection number of the conic and cubic "
            "Lagrangian cycles in Hilb^6 of a quartic K3; no value known",
        ),
        Constant(
            name="instanton-component-chi-k3-split",
            value=None,
            citation="open",
            note="chi(MI_3) + chi(M_3): Euler characteristics of the instanton and "
            "non-instanton components for charge 3; symbolic bookkeeping only",
        ),
        Constant(
            name="atiyah-rees-parity",
            value=0,
            citation="M. F. Atiyah, E. Rees, Inventiones Math. 35 (1976) 131-153",
            note="the mod-2 invariant vanishes for mathematical instantons; recorded "
            "as a note, never computed here",
        ),
        Constant(
            name="quintic-rank2-rigidity",
            value=None,
            citation="conjectural",
            note="named conjecture: rank-2 stable bundle moduli on the generic quintic "
            "are expected rigid; registry note only",
        ),
    ]
)
