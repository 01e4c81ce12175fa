"""JSON parsing, emission and the bundled document set."""

import copy
import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from mukai import (
    CDEntry,
    CDRegistry,
    ChernData,
    DocumentError,
    FlagDescriptor,
    K3Vector,
    LatticeValidationError,
    ThreefoldRing,
    mukai_vector,
    structure_sheaf_chi,
)
from mukai.documents import (
    builtin_names,
    builtin_path,
    bundle_from_document,
    flag_from_document,
    flag_to_document,
    gluing_from_document,
    jsonable,
    load_bundle,
    load_gluing,
    load_manifold,
    load_matrix,
    load_registry,
    manifold_from_document,
    ring_to_document,
    save_registry,
)
from mukai.flags import make_gluing
from mukai.rational import identity_matrix

from conftest import (
    LETTERS,
    cp3_quartic_flag,
    instanton_type,
    quintic_ring,
    random_cy_ring,
    random_fano_ring,
    with_denominators,
)


def quintic_document():
    return {
        "name": "quintic",
        "kind": "cy3",
        "rho": 1,
        "basis": ["h"],
        "triple": [[[5]]],
        "c1": [0],
        "c2_values": [50],
        "chi_top": -200,
        "h12": 101,
    }


# --------------------------------------------------------------------------
# manifold documents


def test_manifold_round_trip():
    ring = quintic_ring()
    doc = ring_to_document(ring)
    back = manifold_from_document(doc)
    assert isinstance(back, ThreefoldRing)
    assert back.triple == ring.triple
    assert back.c2_values == ring.c2_values
    assert back.chi_top == ring.chi_top


def test_flag_round_trip():
    flag = cp3_quartic_flag()
    doc = flag_to_document(flag)
    assert doc["kind"] == "fano3"
    assert doc["h1_TY"] == 0
    back = manifold_from_document(doc)
    assert isinstance(back, FlagDescriptor)
    assert back.s_coords == (4,)
    assert back.k3.gram == ((4,),)


def through_json(doc):
    return json.loads(json.dumps(doc))


def random_document_ring(rng):
    """A Calabi-Yau or Fano ring with rho <= 4 and fractional data; half the
    Fano rings have c1.c2 = 24, so that their anticanonical flag is valid."""
    rho = rng.randint(1, 4)
    if rng.random() < 0.5:
        return with_denominators(rng, random_cy_ring(rng, rho))
    ring = with_denominators(rng, random_fano_ring(rng, rho))
    if rng.random() < 0.5:
        c1, c2 = ring.c1_coords, list(ring.c2_values)
        k = next(i for i, a in enumerate(c1) if a)
        c2[k] = (24 - sum(a * b for i, (a, b) in enumerate(zip(c1, c2)) if i != k)) / c1[k]
        ring = ThreefoldRing(ring.name, ring.basis_labels, ring.triple, c1, c2, ring.chi_top, ring.h12)
    return ring


def test_documents_round_trip_through_json_on_random_rings_and_flags():
    rng = random.Random(20261020)
    seen = set()
    for _ in range(300):
        ring = random_document_ring(rng)
        doc = through_json(ring_to_document(ring))
        assert flag_from_document(doc) == FlagDescriptor(ring=ring, s_coords=ring.c1_coords)
        if ring.is_calabi_yau:
            assert manifold_from_document(doc) == ring
            seen.add("cy3")
        elif structure_sheaf_chi(ring) == 1:
            assert manifold_from_document(doc) == FlagDescriptor(ring=ring, s_coords=ring.c1_coords)
            seen.add("valid fano3")
        flag = FlagDescriptor(
            ring=ring,
            s_coords=tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 7))) for _ in range(ring.rho)),
            h1_ty=rng.choice((None, 0, 5)),
            h0_normal=rng.choice((None, 0, 12)),
            first_obstruction_vanishes=rng.choice((None, True, False)),
        )
        assert flag_from_document(through_json(flag_to_document(flag))) == flag
    assert seen == {"cy3", "valid fano3"}


def test_flag_section_defaults_to_anticanonical():
    doc = flag_to_document(cp3_quartic_flag())
    del doc["s_coords"]
    flag = flag_from_document(doc)
    assert flag.s_coords == (4,)


def test_missing_keys_are_reported():
    doc = quintic_document()
    del doc["triple"]
    with pytest.raises(DocumentError, match="triple"):
        manifold_from_document(doc)


def test_bad_kind_rejected():
    doc = dict(quintic_document(), kind="surface")
    with pytest.raises(DocumentError, match="kind"):
        manifold_from_document(doc)


def test_basis_count_must_match_rho():
    doc = dict(quintic_document(), rho=2)
    with pytest.raises(DocumentError, match="basis"):
        manifold_from_document(doc)


def test_triple_shape_checked():
    doc = dict(quintic_document(), triple=[[[5], [1]]])
    with pytest.raises(DocumentError, match="triple"):
        manifold_from_document(doc)


def test_bad_triple_entry_is_located_by_all_three_indices():
    doc = dict(quintic_document(), rho=2, basis=["a", "b"], triple=[[[1, 0], [0, 1]], [[0, 1.5]]])
    with pytest.raises(DocumentError, match=r"triple\[1\]\[0\]\[1\]: .* got 1.5"):
        manifold_from_document(doc)


def test_floats_rejected_in_documents():
    doc = dict(quintic_document(), c2_values=[50.0])
    with pytest.raises(DocumentError, match="integer or 'p/q'"):
        manifold_from_document(doc)


@pytest.mark.parametrize("text", ["1e2", "0.5", " 3 "])
def test_decimal_and_padded_strings_rejected_in_documents(text):
    doc = dict(quintic_document(), c2_values=[text])
    with pytest.raises(DocumentError, match=r"c2_values\[0\]: cannot read rational"):
        manifold_from_document(doc)


def test_json_integers_share_the_digit_cap_of_rational_strings():
    longest = 10**1000 - 1  # 1000 digits, the cap of a "p/q" side
    ring = manifold_from_document(dict(quintic_document(), c2_values=[-longest]))
    assert ring.c2_values == (Fraction(-longest),)
    for where, doc in [
        ("c2_values[0]", dict(quintic_document(), c2_values=[10**1000])),
        ("h12", dict(quintic_document(), h12=-(10**1000))),
    ]:
        message = f"{where}: integer has more than 1000 digits"
        with pytest.raises(DocumentError, match=re.escape(message)):
            manifold_from_document(doc)


def test_cy3_document_cannot_carry_flag_data():
    doc = dict(quintic_document(), s_coords=[1])
    with pytest.raises(DocumentError, match="s_coords"):
        manifold_from_document(doc)


def test_invalid_fano_document_names_failing_checks():
    doc = dict(quintic_document(), kind="fano3", name="fake-flag", s_coords=[1])
    with pytest.raises(LatticeValidationError, match="section-is-anticanonical"):
        manifold_from_document(doc)


def test_rational_strings_parse_exactly():
    doc = dict(quintic_document(), c2_values=["101/2"])
    ring = manifold_from_document(doc)
    assert ring.c2_values == (Fraction(101, 2),)


# --------------------------------------------------------------------------
# bundle and gluing documents


def test_bundle_document_against_manifold():
    ring = quintic_ring()
    doc = {"manifold": "quintic", "rank": 2, "c1": [1], "c2": ["3/2"], "c3": -1}
    e = bundle_from_document(doc, ring)
    assert e.rank == 2
    assert e.c2 == (Fraction(3, 2),)
    assert e.c3 == -1


def test_bundle_manifold_cross_check():
    doc = {"manifold": "quintic", "rank": 1, "c1": [0], "c2": [0], "c3": 0}
    with pytest.raises(LatticeValidationError, match="targets manifold"):
        bundle_from_document(doc, cp3_quartic_flag())


def test_bundle_document_needs_a_ring_or_flag():
    doc = {"rank": 1, "c1": [0], "c2": [0], "c3": 0}
    with pytest.raises(TypeError) as error:
        bundle_from_document(doc, "quintic")
    assert str(error.value) == "manifold must be a ThreefoldRing or FlagDescriptor"


def test_gluing_document_round_trip(tmp_path):
    gluing = load_gluing(builtin_path("cp3-double.json"))
    assert gluing.section_class_d == (8,)
    assert gluing.matrix == ((1,),)
    assert gluing.flag_plus.name == "cp3-quartic"


def test_gluing_document_defaults():
    flag_doc = flag_to_document(cp3_quartic_flag())
    doc = {"kind": "gluing", "flag_plus": flag_doc, "flag_minus": flag_doc}
    gluing = gluing_from_document(doc)
    assert gluing.section_class_d == (8,)


def test_a_default_section_class_needs_a_matrix_of_the_lattice_rank():
    flag_doc = flag_to_document(cp3_quartic_flag())
    doc = {"kind": "gluing", "flag_plus": flag_doc, "flag_minus": flag_doc, "matrix": [[1, 0]]}
    with pytest.raises(LatticeValidationError, match="size must match the restricted lattice rank"):
        gluing_from_document(doc)


def test_gluing_document_needs_two_flags():
    doc = {
        "kind": "gluing",
        "flag_plus": quintic_document(),
        "flag_minus": quintic_document(),
    }
    with pytest.raises(DocumentError, match="fano3"):
        gluing_from_document(doc)


@pytest.fixture
def rings_built(monkeypatch):
    """A list that records each ThreefoldRing construction by name from now on."""
    built = []
    init = ThreefoldRing.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("name"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ThreefoldRing, "__init__", counting)
    return built


CP3_FLAG_DOCUMENT = flag_to_document(cp3_quartic_flag())


def test_a_manifold_document_builds_one_ring(rings_built):
    manifold_from_document(CP3_FLAG_DOCUMENT)
    assert rings_built == ["cp3-quartic"]
    manifold_from_document(quintic_document())
    assert rings_built == ["cp3-quartic", "quintic"]


def test_a_repeated_gluing_flag_is_parsed_once(rings_built):
    doc = {
        "kind": "gluing",
        "flag_plus": CP3_FLAG_DOCUMENT,
        "flag_minus": copy.deepcopy(CP3_FLAG_DOCUMENT),
    }
    gluing = gluing_from_document(doc)
    assert rings_built == ["cp3-quartic"]
    assert gluing.flag_plus is gluing.flag_minus
    assert gluing.flag_plus == manifold_from_document(CP3_FLAG_DOCUMENT)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"h1_TY": True}, "gluing.flag_minus.h1_TY: expected an integer, got True"),
        ({"rho": 1.0}, "gluing.flag_minus.rho: expected an integer, got 1.0"),
        ({"c1": [4.0]}, "gluing.flag_minus.c1[0]: expected an integer or 'p/q' string, got 4.0"),
        ({"chi_top": None}, "gluing.flag_minus.chi_top: expected an integer, got None"),
    ],
    ids=["bool-for-int", "float-rho", "float-c1", "null-chi-top"],
)
def test_a_different_invalid_minus_flag_is_still_parsed(change, message):
    flag_doc = dict(CP3_FLAG_DOCUMENT, h1_TY=1)
    # The first three changes leave the document equal under ==, where True == 1 == 1.0.
    assert dict(flag_doc, h1_TY=True, rho=1.0, c1=[4.0]) == flag_doc
    doc = {"kind": "gluing", "flag_plus": flag_doc, "flag_minus": dict(flag_doc, **change)}
    with pytest.raises(DocumentError) as info:
        gluing_from_document(doc)
    assert str(info.value) == message


def test_matrix_file_and_gluing_matrix_share_one_parser(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text('[["-1/2", 0], [0, 3]]', encoding="utf-8")
    assert load_matrix(path) == ((Fraction(-1, 2), 0), (0, 3))
    flag_doc = flag_to_document(cp3_quartic_flag())
    for rows, message in (
        ([[1, 2], [3, 4.5]], r"\[1\]\[1\]: .* got 4.5"),
        ({"a": 1}, "array of arrays"),
        ([[1], 2], r"\[1\]: expected an array"),
        ([[1], []], r"\[1\]: row length 0 differs from row 0's 1"),
    ):
        path.write_text(json.dumps(rows), encoding="utf-8")
        with pytest.raises(DocumentError, match=message):
            load_matrix(path)
        doc = {"kind": "gluing", "flag_plus": flag_doc, "flag_minus": flag_doc, "matrix": rows}
        with pytest.raises(DocumentError, match=message):
            gluing_from_document(doc)


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))


def test_bundle_documents_round_trip_through_json():
    rng = random.Random(20261019)
    for _ in range(300):
        ring = with_denominators(rng, rng.choice((random_cy_ring, random_fano_ring))(rng, rng.randint(1, 3)))
        e = ChernData(
            ring=ring,
            rank=rng.randint(1, 5),
            c1=[random_fraction(rng) for _ in range(ring.rho)],
            c2=[random_fraction(rng) for _ in range(ring.rho)],
            c3=random_fraction(rng),
            labels=rng.sample(["E", "O(1)", "twisted by L", "\u03bb", ""], rng.randint(0, 3)),
        )
        doc = jsonable({"manifold": ring.name, "rank": e.rank, "c1": e.c1, "c2": e.c2, "c3": e.c3})
        if e.labels:
            doc["labels"] = list(e.labels)
        if rng.random() < 0.2:
            del doc["manifold"]
        loaded_ring = flag_from_document(through_json(ring_to_document(ring)))
        if rng.random() < 0.5:
            loaded_ring = loaded_ring.ring
        assert bundle_from_document(through_json(doc), loaded_ring) == e


def symmetric_flag(rng, rho, sigma):
    """A valid flag on a fractional ring whose H^2 basis permutation `sigma`
    (index i to sigma[i]) preserves the triple, c1 and c2, so that it is an
    isometry of the restricted lattice."""
    orbit = [tuple(range(rho))]
    while (step := tuple(sigma[i] for i in orbit[-1])) != orbit[0]:
        orbit.append(step)
    values = {key: random_fraction(rng) for key in itertools.combinations_with_replacement(range(rho), 3)}

    def invariant(vector):
        return tuple(sum(vector[g[i]] for g in orbit) for i in range(rho))

    triple = tuple(
        tuple(
            tuple(sum(values[tuple(sorted((g[i], g[j], g[k])))] for g in orbit) for k in range(rho))
            for j in range(rho)
        )
        for i in range(rho)
    )
    while True:
        c1 = invariant([random_fraction(rng) for _ in range(rho)])
        c2 = invariant([random_fraction(rng) for _ in range(rho)])
        c1c2 = sum(a * b for a, b in zip(c1, c2))
        if c1c2:
            break
    ring = ThreefoldRing(
        f"symmetric-{rho}", LETTERS[:rho], triple, c1, tuple(24 * b / c1c2 for b in c2),
        rng.randint(-10, 10), rng.randint(0, 20),
    )
    return FlagDescriptor(
        ring=ring,
        s_coords=ring.c1_coords,
        h1_ty=rng.choice((None, 0, 5)),
        h0_normal=rng.choice((None, 0, 12)),
        first_obstruction_vanishes=rng.choice((None, True, False)),
    )


def test_gluing_documents_round_trip_through_json():
    rng = random.Random(20261021)
    seen = set()
    for _ in range(200):
        rho = rng.randint(1, 3)
        sigma = list(range(rho))
        rng.shuffle(sigma)
        plus = symmetric_flag(rng, rho, sigma)
        if rng.random() < 0.5:
            minus = plus
        else:
            minus = FlagDescriptor(ring=plus.ring, s_coords=plus.s_coords, h1_ty=rng.choice((None, 1, 7)))
        sign = rng.choice((1, -1))
        matrix = tuple(tuple(sign * int(sigma[j] == i) for j in range(rho)) for i in range(rho))
        doc = {"kind": "gluing", "flag_plus": flag_to_document(plus), "flag_minus": flag_to_document(minus)}
        if matrix != identity_matrix(rho) or rng.random() < 0.5:  # an absent matrix is the identity
            doc["matrix"] = jsonable(matrix)
        section_class = None
        if rng.random() < 0.5:
            section_class = tuple(random_fraction(rng) for _ in range(rho))
            doc["section_class"] = jsonable(section_class)
        gluing = gluing_from_document(through_json(doc))
        assert gluing == make_gluing(plus, minus, matrix=matrix, section_class=section_class)
        seen.add((sign, sigma == sorted(sigma), section_class is None))
    assert len(seen) == 8


# --------------------------------------------------------------------------
# file-level behavior


def test_parse_error_carries_line_and_column(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": \n "x", ', encoding="utf-8")
    with pytest.raises(DocumentError, match=r"line \d+, column \d+"):
        load_manifold(bad)


@pytest.mark.parametrize(
    "text, reason",
    [
        ('{"c3": ' + "7" * 4400 + "}", "integer too long for the interpreter's int() digit limit"),
        ("[" * 100_000 + "]" * 100_000, "arrays or objects nested too deeply"),
    ],
    ids=["integer-past-int-digit-limit", "deep-nesting"],
)
def test_json_the_decoder_cannot_read_is_a_document_error(tmp_path, text, reason):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(DocumentError) as info:
        load_manifold(bad)
    assert str(info.value) == f"{bad}: invalid JSON: {reason}"


def test_missing_file_is_a_document_error(tmp_path):
    with pytest.raises(DocumentError, match="cannot read"):
        load_manifold(tmp_path / "absent.json")


def test_bundled_documents_all_load():
    names = builtin_names()
    assert "quintic.json" in names
    assert "cp3-quartic.json" in names
    assert "cp3-double.json" in names
    for name in ("quintic.json", "cp3-quartic.json", "synthetic-rho2.json"):
        manifold = load_manifold(builtin_path(name))
        assert manifold is not None
    ring = load_manifold(builtin_path("quintic.json"))
    assert isinstance(ring, ThreefoldRing)
    assert ring.chi_top == -200
    e = load_bundle(builtin_path("instanton1.json"), load_manifold(builtin_path("cp3-quartic.json")))
    assert e.rank == 2


def test_unknown_builtin_name():
    with pytest.raises(DocumentError, match="no bundled document"):
        builtin_path("missing.json")


# --------------------------------------------------------------------------
# jsonable


def test_jsonable_scalars_and_vectors():
    assert jsonable(Fraction(4)) == 4
    assert jsonable(Fraction(1, 3)) == "1/3"
    assert jsonable((Fraction(1), Fraction(1, 2))) == [1, "1/2"]
    assert jsonable({"a": None, "b": True}) == {"a": None, "b": True}


def test_jsonable_domain_objects():
    assert jsonable(K3Vector(2, (0,), -2)) == {"v0": 2, "v2": [0], "v4": -2}
    assert jsonable(mukai_vector(instanton_type()).graded)["a0"] == 2
    with pytest.raises(TypeError):
        jsonable(object())


def test_jsonable_round_trips_through_json():
    flag = cp3_quartic_flag()
    doc = flag_to_document(flag)
    text = json.dumps(doc, sort_keys=True)
    assert manifold_from_document(json.loads(text)).s_coords == (4,)


# --------------------------------------------------------------------------
# registry persistence


def sample_registry():
    registry = CDRegistry()
    registry.add(
        CDEntry(
            key="quintic:line-bundle",
            manifold="quintic",
            vector_desc="m(L) for any line bundle L",
            provenance="line-bundle-rule",
            value=1,
            exceptional=True,
        )
    )
    registry.add(
        CDEntry(
            key="quintic:closure",
            manifold="quintic",
            vector_desc="a product",
            provenance="closure",
            value=1,
            constraint="k > k0",
            parents=("quintic:line-bundle", "quintic:line-bundle"),
            citation="a citation",
        )
    )
    registry.add(
        CDEntry(
            key="model:open",
            manifold="model",
            vector_desc="named open value",
            provenance="degeneration",
            symbol="chi(M_3)",
            sign_note="symbolic",
        )
    )
    return registry


def test_registry_save_load_round_trip(tmp_path):
    path = tmp_path / "registry.json"
    registry = sample_registry()
    save_registry(path, registry)
    loaded = load_registry(path)
    assert loaded.entries() == registry.entries()
    assert loaded.get("model:open").symbol == "chi(M_3)"


def test_registry_save_is_canonical(tmp_path):
    path = tmp_path / "registry.json"
    save_registry(path, sample_registry())
    first = path.read_bytes()
    save_registry(path, load_registry(path))
    assert path.read_bytes() == first


def test_registry_missing_ok(tmp_path):
    empty = load_registry(tmp_path / "absent.json", missing_ok=True)
    assert len(empty) == 0
    with pytest.raises(DocumentError):
        load_registry(tmp_path / "absent.json")


def test_registry_document_validation(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"entries": [{"key": "x"}]}), encoding="utf-8")
    with pytest.raises(DocumentError, match="missing key"):
        load_registry(path)
    path.write_text(json.dumps({"rows": []}), encoding="utf-8")
    with pytest.raises(DocumentError, match="entries"):
        load_registry(path)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"exceptional": "false"}, "exceptional: expected true or false"),
        ({"exceptional": 1}, "exceptional: expected true or false"),
        ({"exceptional": None}, "exceptional: expected true or false"),
        ({"value": None, "symbol": ["chi"]}, "symbol: expected a string or null"),
        ({"sign_note": 1}, "sign_note: expected a string or null"),
        ({"constraint": {}}, "constraint: expected a string or null"),
        ({"citation": False}, "citation: expected a string or null"),
        ({"parents": ["a", 1]}, "parents: expected an array of two strings"),
        ({"parents": ["a"]}, "parents: expected an array of two strings"),
        ({"parents": "ab"}, "parents: expected an array of two strings"),
    ],
    ids=[
        "exceptional-string", "exceptional-int", "exceptional-null", "symbol", "sign_note",
        "constraint", "citation", "parent-int", "one-parent", "parents-string",
    ],
)
def test_registry_entry_fields_are_typed(tmp_path, change, message):
    path = tmp_path / "registry.json"
    save_registry(path, sample_registry())
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["entries"][1].update(change)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DocumentError) as info:
        load_registry(path)
    assert str(info.value) == f"{path}.entries[1].{message}"


def random_entry(rng, index):
    """A valid CDEntry with every field drawn at random."""
    provenance = rng.choice(["line-bundle-rule", "skyscraper-rule", "degeneration", "closure",
                             "registry-constant"])
    value = rng.choice([None, rng.randint(-10**6, 10**6), int("9" * 1000)])
    if provenance == "degeneration" and value is not None:
        value = abs(value)
    return CDEntry(
        key=f"m{index}:{rng.choice(['a', 'b|c', 'ü'])}",
        manifold=rng.choice(["quintic", "cp3-quartic", ""]),
        vector_desc=rng.choice(["m(L)", "(2, (0), -2)", "x\ny"]),
        provenance=provenance,
        value=value,
        symbol=rng.choice(["chi(M_3)", "N"]) if value is None else None,
        exceptional=rng.random() < 0.5,
        sign_note=rng.choice([None, "symbolic", ""]),
        constraint=rng.choice([None, "k > k0"]),
        parents=rng.choice([None, ("a", "b"), ["x", "x"]]),
        citation=rng.choice([None, "a citation"]),
    )


def test_registry_save_load_round_trip_on_random_registries(tmp_path):
    rng = random.Random(1313)
    path = tmp_path / "registry.json"
    for _ in range(200):
        registry = CDRegistry(random_entry(rng, i) for i in range(rng.randint(0, 6)))
        save_registry(path, registry)
        assert load_registry(path).entries() == registry.entries()


def test_an_absent_exceptional_flag_loads_as_false(tmp_path):
    path = tmp_path / "registry.json"
    save_registry(path, sample_registry())
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["entries"][1]["exceptional"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_registry(path).entries() == sample_registry().entries()
