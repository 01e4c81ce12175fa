"""Virtual dimensions, nonemptiness, discriminants and the CD registry."""

import random
from fractions import Fraction

import pytest

from mukai import (
    BUILTIN_CONSTANTS,
    CDEntry,
    CDRegistry,
    ChernData,
    Constant,
    ConstantsRegistry,
    K3Vector,
    LatticeValidationError,
    bogomolov_check,
    cd_closure,
    cd_degeneration,
    cd_seed,
    chi_top_cy3,
    k3_mukai_vector,
    mukai_nonempty,
    mukai_restrict,
    twist_chern,
    vdim_cy3,
    vdim_flag,
    vdim_k3,
)

from conftest import (
    cp3_quartic_flag,
    cp3_ring,
    instanton_type,
    quintic_ring,
    random_chern,
    random_fano_ring,
    synthetic_flag,
)


# --------------------------------------------------------------------------
# virtual dimensions


def test_vdim_oracles_for_the_instanton():
    flag = cp3_quartic_flag()
    e = instanton_type(flag.ring)
    assert vdim_flag(flag, e) == 5
    assert vdim_k3(flag.k3, K3Vector(2, (0,), -2)) == 10


def test_vdim_k3_boundary_vector():
    flag = cp3_quartic_flag()
    assert vdim_k3(flag.k3, K3Vector(1, (0,), 1)) == 0


def test_doubling_identity_generic():
    rng = random.Random(77)
    for flag in (cp3_quartic_flag(), synthetic_flag()):
        for _ in range(300):
            e = random_chern(rng, flag.ring)
            v = mukai_restrict(flag, e).vector
            assert vdim_k3(flag.k3, v) == 2 * vdim_flag(flag, e)


def test_vdim_cy3_is_zero_with_evidence():
    ring = quintic_ring()
    e = ChernData(ring=ring, rank=2, c1=(1,), c2=(3,), c3=Fraction(2))
    report = vdim_cy3(ring, e)
    assert report.value == 0
    assert report.chi_self == 0
    assert report.note is None


def test_vdim_cy3_flags_tangent_type():
    ring = quintic_ring()
    tangent = ChernData(ring=ring, rank=3, c1=(0,), c2=(50,), c3=Fraction(-200))
    report = vdim_cy3(ring, tangent)
    assert report.note is not None
    assert "tangent" in report.note


def test_vdim_cy3_rejects_fano_and_foreign_rings():
    with pytest.raises(LatticeValidationError, match="not Calabi-Yau"):
        vdim_cy3(cp3_ring(), instanton_type())
    with pytest.raises(LatticeValidationError):
        vdim_cy3(quintic_ring(), instanton_type())


# --------------------------------------------------------------------------
# nonemptiness and stability


def test_mukai_nonempty_verdicts():
    k3 = cp3_quartic_flag().k3
    result = mukai_nonempty(k3, K3Vector(2, (0,), -2))
    assert result
    assert result.square == 8
    assert result.primitive is False
    assert result.component_gcd == 2
    boundary = mukai_nonempty(k3, K3Vector(1, (0,), 1))
    assert boundary and boundary.square == -2 and boundary.primitive is True
    assert not mukai_nonempty(k3, K3Vector(0, (1,), 0))
    assert not mukai_nonempty(k3, K3Vector(1, (0,), 2))


def test_mukai_nonempty_fractional_vector():
    k3 = cp3_quartic_flag().k3
    result = mukai_nonempty(k3, K3Vector(1, (Fraction(1, 2),), 0))
    assert result.primitive is None
    assert result.component_gcd is None
    assert "not defined" in result.note


def test_bogomolov_instanton():
    delta, value, positive = bogomolov_check(instanton_type(), (1,))
    assert delta.a4 == (1,)
    assert value == 1
    assert positive


def test_bogomolov_rank_one_not_applicable():
    ring = cp3_ring()
    line = ChernData(ring=ring, rank=1, c1=(2,), c2=(0,), c3=Fraction(0))
    report = bogomolov_check(line, (1,))
    assert report.value == 0
    assert not report.positive
    assert "not applicable" in report.note


def test_bogomolov_refuses_a_polarisation_of_the_wrong_length():
    e = ChernData(ring=synthetic_flag().ring, rank=2, c1=(0, 0), c2=(2, 5), c3=0)
    assert bogomolov_check(e, (1, 0)).value == 2
    for h, size in (((1,), 1), ((1, 0, 5, 6), 4)):
        with pytest.raises(LatticeValidationError) as error:
            bogomolov_check(e, h)
        assert str(error.value) == f"vector has {size} coordinates, ring has rho=2"


def test_bogomolov_twist_invariance():
    rng = random.Random(78)
    for _ in range(500):
        ring = random_fano_ring(rng)
        e = random_chern(rng, ring)
        h = tuple(rng.randint(-2, 3) for _ in range(ring.rho))
        coords = tuple(rng.randint(-2, 2) for _ in range(ring.rho))
        k = rng.randint(-3, 3)
        base = bogomolov_check(e, h)
        twisted = bogomolov_check(twist_chern(e, coords, k), h)
        assert twisted.delta == base.delta
        assert twisted.value == base.value
        assert twisted.positive == base.positive


def test_chi_top_cy3():
    assert chi_top_cy3(quintic_ring()) == -200
    with pytest.raises(LatticeValidationError, match="not Calabi-Yau"):
        chi_top_cy3(cp3_ring())


# --------------------------------------------------------------------------
# CD registry


def test_cd_seed_line_bundle_and_skyscraper():
    registry = CDRegistry()
    line = cd_seed(registry, quintic_ring(), "line-bundle")
    point = cd_seed(registry, quintic_ring(), "skyscraper")
    assert line.value == 1 and line.exceptional
    assert point.value == -200 and not point.exceptional
    assert line.key == "quintic:line-bundle"
    assert point.key == "quintic:skyscraper"
    assert len(registry) == 2


def test_cd_seed_rejects_unknown_kind_and_fano_skyscraper():
    registry = CDRegistry()
    with pytest.raises(LatticeValidationError, match="kind"):
        cd_seed(registry, quintic_ring(), "ideal-sheaf")
    with pytest.raises(LatticeValidationError, match="not Calabi-Yau"):
        cd_seed(registry, cp3_ring(), "skyscraper")


def test_cd_closure_multiplies_and_stays_exceptional():
    registry = CDRegistry()
    line = cd_seed(registry, quintic_ring(), "line-bundle")
    child = cd_closure(registry, line, line, (1,), "k")
    assert child.value == 1
    assert child.exceptional
    assert child.parents == (line.key, line.key)
    assert child.provenance == "closure"
    assert "k > k0(" in child.constraint
    assert "twist^k[1]" in child.key


def test_cd_closure_requires_exceptional_parents():
    registry = CDRegistry()
    cd_seed(registry, quintic_ring(), "line-bundle")
    point = cd_seed(registry, quintic_ring(), "skyscraper")
    line = registry.get("quintic:line-bundle")
    with pytest.raises(LatticeValidationError, match="exceptional"):
        cd_closure(registry, line, point, (1,))


def test_cd_closure_requires_registered_parents():
    registry = CDRegistry()
    stray = CDEntry(
        key="x:stray",
        manifold="x",
        vector_desc="stray",
        provenance="degeneration",
        value=6,
        exceptional=True,
    )
    with pytest.raises(LatticeValidationError, match="not in the registry"):
        cd_closure(registry, stray, stray, (1,))


def seeded_pair_of_sixes():
    registry = CDRegistry()
    for tag in ("a", "b"):
        registry.add(
            CDEntry(
                key=f"model:{tag}",
                manifold="model",
                vector_desc=f"seed {tag}",
                provenance="degeneration",
                value=6,
            )
        )
        registry.mark_exceptional(f"model:{tag}")
    return registry


def test_iterated_closure_grows_without_bound():
    registry = seeded_pair_of_sixes()
    a = registry.get("model:a")
    b = registry.get("model:b")
    first = cd_closure(registry, a, b, (1,))
    assert first.value == 36
    second = cd_closure(registry, first, a, (1,))
    assert second.value == 216
    values = [abs(e) for e in (a.value, first.value, second.value)]
    assert values == sorted(set(values))
    assert values == [6, 36, 216]


def test_cd_closure_symbolic_product():
    registry = CDRegistry()
    named = CDEntry(
        key="model:open",
        manifold="model",
        vector_desc="open seed",
        provenance="degeneration",
        symbol="chi(M_3)",
        exceptional=True,
    )
    registry.add(named)
    child = cd_closure(registry, named, named, (1,))
    assert child.value is None
    assert child.symbol == "(chi(M_3))*(chi(M_3))"
    assert child.display_value == "(chi(M_3))*(chi(M_3))"


def test_cd_degeneration_records_absolute_value():
    registry = CDRegistry()
    flag = cp3_quartic_flag()
    entry = cd_degeneration(registry, flag, instanton_type(flag.ring), 6)
    assert entry.value == 6
    assert entry.provenance == "degeneration"
    assert "(2, (0), -2)" in entry.key
    assert "sign not resolved" in entry.sign_note
    negative = cd_degeneration(
        registry, flag, ChernData(ring=flag.ring, rank=1, c1=(1,), c2=(0,), c3=Fraction(0)), -7
    )
    assert negative.value == 7
    assert "chi = -7" in negative.sign_note


def test_cd_degeneration_symbolic_and_invalid():
    registry = CDRegistry()
    flag = cp3_quartic_flag()
    e = ChernData(ring=flag.ring, rank=3, c1=(0,), c2=(3,), c3=Fraction(0))
    entry = cd_degeneration(registry, flag, e, "chi(MI_3) + chi(M_3)")
    assert entry.value is None
    assert entry.symbol == "chi(MI_3) + chi(M_3)"
    with pytest.raises(LatticeValidationError):
        cd_degeneration(registry, flag, e, "6;6")


def test_vector_only_callers_reject_data_on_another_ring():
    # Same rho as the flag's ring, so nothing but the check can notice.
    flag = cp3_quartic_flag()
    e = ChernData(ring=quintic_ring(), rank=1, c1=(1,), c2=(0,), c3=Fraction(0))
    for call in (
        lambda: k3_mukai_vector(flag, e),
        lambda: vdim_flag(flag, e),
        lambda: cd_degeneration(CDRegistry(), flag, e, 6),
    ):
        with pytest.raises(LatticeValidationError, match="Chern data must live on the flag's ring"):
            call()


def test_registry_conflicts_and_lookup():
    registry = seeded_pair_of_sixes()
    same = registry.get("model:a")
    assert registry.add(same) is same  # identical re-add is a no-op
    clash = CDEntry(
        key="model:a",
        manifold="model",
        vector_desc="seed a",
        provenance="degeneration",
        value=7,
    )
    with pytest.raises(LatticeValidationError, match="conflict"):
        registry.add(clash)
    with pytest.raises(LatticeValidationError, match="no registry entry"):
        registry.get("model:missing")
    assert "model:a" in registry
    assert [e.key for e in registry.entries()] == ["model:a", "model:b"]


def test_cd_entry_validation():
    with pytest.raises(LatticeValidationError, match="provenance"):
        CDEntry(key="x", manifold="x", vector_desc="x", provenance="rumor", value=1)
    with pytest.raises(LatticeValidationError, match="value/symbol"):
        CDEntry(key="x", manifold="x", vector_desc="x", provenance="closure")
    with pytest.raises(LatticeValidationError, match="value/symbol"):
        CDEntry(
            key="x", manifold="x", vector_desc="x", provenance="closure", value=1, symbol="v"
        )
    with pytest.raises(LatticeValidationError, match="negative"):
        CDEntry(key="x", manifold="x", vector_desc="x", provenance="degeneration", value=-3)
    for value in (Fraction(1), True):
        with pytest.raises(LatticeValidationError) as info:
            CDEntry(key="x", manifold="x", vector_desc="x", provenance="closure", value=value)
        assert str(info.value) == f"CD entry value: expected an integer or null, got {value!r}"
    for value in (10**1000, -(10**1000)):
        with pytest.raises(LatticeValidationError, match="more than 1000 digits"):
            CDEntry(key="x", manifold="x", vector_desc="x", provenance="closure", value=value)
    for value in (10**1000 - 1, -(10**1000) + 1):
        assert CDEntry(key="x", manifold="x", vector_desc="x", provenance="closure",
                       value=value).value == value


@pytest.mark.parametrize(
    "change, message",
    [
        ({"exceptional": "yes"}, "CD entry exceptional: expected true or false, got 'yes'"),
        ({"parents": ("a",)}, "CD entry parents: expected an array of two strings, got ('a',)"),
        ({"value": None, "symbol": 5}, "CD entry symbol: expected a string or null, got 5"),
        ({"key": 7}, "CD entry key: expected a string, got 7"),
        ({"sign_note": 3}, "CD entry sign_note: expected a string or null, got 3"),
    ],
    ids=["exceptional", "parents", "symbol", "key", "sign_note"],
)
def test_cd_entry_refuses_what_the_registry_cannot_read_back(change, message):
    fields = dict(key="x", manifold="x", vector_desc="x", provenance="closure", value=1)
    with pytest.raises(LatticeValidationError) as info:
        CDEntry(**{**fields, **change})
    assert str(info.value) == message


def test_cd_entry_stores_parents_as_a_tuple():
    entry = CDEntry(key="x", manifold="x", vector_desc="x", provenance="closure", value=1,
                    parents=["a", "b"])
    assert entry.parents == ("a", "b")


def test_cd_degeneration_refuses_a_bool():
    flag = cp3_quartic_flag()
    for chi in (True, False):
        with pytest.raises(LatticeValidationError, match="must be an integer or a symbolic name"):
            cd_degeneration(CDRegistry(), flag, instanton_type(flag.ring), chi)


# --------------------------------------------------------------------------
# constants


def test_builtin_constants_core_values():
    assert BUILTIN_CONSTANTS.get("quintic-lines").value == 2875
    assert BUILTIN_CONSTANTS.get("quintic-rational-curves-degree-5").value == 229305888887625
    assert BUILTIN_CONSTANTS.get("barth-nieto-quintic-nodes").value == 130
    assert BUILTIN_CONSTANTS.get("cp3-quartic-instanton-count").value == 6


def test_builtin_constants_open_problems_are_named():
    for name in (
        "quintic-rational-curves-degree-10",
        "hilb6-conic-cubic-intersection",
        "instanton-component-chi-k3-split",
        "quintic-rank2-rigidity",
    ):
        constant = BUILTIN_CONSTANTS.get(name)
        assert constant.value is None
        assert constant.citation


def test_builtin_constants_all_cited():
    assert len(BUILTIN_CONSTANTS) == 9
    for constant in BUILTIN_CONSTANTS:
        assert constant.citation.strip()
    names = [constant.name for constant in BUILTIN_CONSTANTS]
    assert names == sorted(names)


def test_constants_registry_validation():
    with pytest.raises(LatticeValidationError, match="duplicate"):
        ConstantsRegistry([Constant("x", 1, "c"), Constant("x", 2, "c")])
    with pytest.raises(LatticeValidationError, match="no constant"):
        BUILTIN_CONSTANTS.get("nonexistent")
