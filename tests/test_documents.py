"""JSON parsing, emission and the bundled document set."""

import json
import re
from fractions import Fraction

import pytest

from mukai import (
    CDEntry,
    CDRegistry,
    DocumentError,
    FlagDescriptor,
    K3Vector,
    LatticeValidationError,
    ThreefoldRing,
    mukai_vector,
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

from conftest import cp3_quartic_flag, instanton_type, quintic_ring


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


def test_gluing_document_needs_two_flags():
    doc = {
        "kind": "gluing",
        "flag_plus": quintic_document(),
        "flag_minus": quintic_document(),
    }
    with pytest.raises(DocumentError, match="fano3"):
        gluing_from_document(doc)


def test_matrix_file_and_gluing_matrix_share_one_parser(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text('[["-1/2", 0], [0, 3]]', encoding="utf-8")
    assert load_matrix(path) == ((Fraction(-1, 2), 0), (0, 3))
    flag_doc = flag_to_document(cp3_quartic_flag())
    for rows, message in (
        ([[1, 2], [3, 4.5]], r"\[1\]\[1\]: .* got 4.5"),
        ({"a": 1}, "array of arrays"),
        ([[1], 2], r"\[1\]: expected an array"),
    ):
        path.write_text(json.dumps(rows), encoding="utf-8")
        with pytest.raises(DocumentError, match=message):
            load_matrix(path)
        doc = {"kind": "gluing", "flag_plus": flag_doc, "flag_minus": flag_doc, "matrix": rows}
        with pytest.raises(DocumentError, match=message):
            gluing_from_document(doc)


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
    m = mukai_vector(instanton_type())
    out = jsonable(m)
    assert out["normalization"] == "fano-full-todd"
    assert out["a0"] == 2
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
    assert len(loaded) == 2
    assert loaded.get("quintic:line-bundle") == registry.get("quintic:line-bundle")
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
