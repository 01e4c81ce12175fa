"""JSON ingestion and emission for manifolds, bundles, gluings, registries.

One document format, JSON, with exact rationals: integers stay JSON
integers, everything else is a "p/q" string, floats are rejected.  A
manifold document describes a `ThreefoldRing` (kind "cy3") or a flag
(kind "fano3", optional s_coords defaulting to the anticanonical
class); a bundle document describes `ChernData` against a named
manifold; a gluing document inlines its two flags.

Parsing problems (bad JSON, missing or ill-typed keys) raise
`DocumentError` with a line/column when the decoder provides one;
semantic problems (violated lattice invariants) raise
`LatticeValidationError` from the domain constructors, with the failing
check named.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path

from .errors import DocumentError, LatticeValidationError
from .flags import FlagDescriptor, GluingDescriptor, KernelResult, make_gluing, validate_flag
from .chern import ChernData
from .moduli import CD_FIELD_RULES, CDEntry, CDRegistry
from .rational import INT_BOUND, MAX_DIGITS, format_fraction, parse_rational
from .rings import GradedClass, K3Vector, ThreefoldRing

__all__ = [
    "load_manifold",
    "load_bundle",
    "load_gluing",
    "load_matrix",
    "load_registry",
    "save_registry",
    "manifold_from_document",
    "flag_from_document",
    "bundle_from_document",
    "gluing_from_document",
    "ring_to_document",
    "flag_to_document",
    "jsonable",
    "builtin_path",
    "builtin_names",
]


# --------------------------------------------------------------------------
# rational-aware JSON scalars


def _capped(value: int, where: str) -> int:
    if not -INT_BOUND < value < INT_BOUND:
        raise DocumentError(f"{where}: integer has more than {MAX_DIGITS} digits")
    return value


def _scalar(value, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise DocumentError(f"{where}: expected an integer or 'p/q' string, got {value!r}")
    if isinstance(value, int):
        return Fraction(_capped(value, where))
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except (ValueError, ZeroDivisionError):
            raise DocumentError(f"{where}: cannot read rational from {value!r}") from None
    raise DocumentError(f"{where}: expected an integer or 'p/q' string, got {type(value).__name__}")


def _vector(value, where: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise DocumentError(f"{where}: expected an array")
    return tuple(_scalar(v, f"{where}[{i}]") for i, v in enumerate(value))


def _matrix(value, where: str) -> tuple[tuple[Fraction, ...], ...]:
    if not isinstance(value, list):
        raise DocumentError(f"{where}: expected an array of arrays")
    rows = tuple(_vector(row, f"{where}[{i}]") for i, row in enumerate(value))
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise DocumentError(f"{where}[{i}]: row length {len(row)} differs from row 0's {len(rows[0])}")
    return rows


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise DocumentError(f"{where}: missing key {key!r}")
    return doc[key]


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{where}: expected an integer, got {value!r}")
    return _capped(value, where)


# --------------------------------------------------------------------------
# manifold documents


def _ring_from_document(doc: dict, where: str) -> ThreefoldRing:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    name = _require(doc, "name", where)
    if not isinstance(name, str):
        raise DocumentError(f"{where}.name: expected a string")
    kind = _require(doc, "kind", where)
    if kind not in ("cy3", "fano3"):
        raise DocumentError(f"{where}.kind: expected 'cy3' or 'fano3', got {kind!r}")
    rho = _int(_require(doc, "rho", where), f"{where}.rho")
    basis = _require(doc, "basis", where)
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise DocumentError(f"{where}.basis: expected an array of strings")
    if len(basis) != rho:
        raise DocumentError(f"{where}: rho = {rho} but basis has {len(basis)} labels")
    triple_doc = _require(doc, "triple", where)
    if not isinstance(triple_doc, list):
        raise DocumentError(f"{where}.triple: expected a rho^3 nested array")
    triple = tuple(_matrix(plane, f"{where}.triple[{i}]") for i, plane in enumerate(triple_doc))
    if len(triple) != rho or any(len(p) != rho for p in triple) or any(
        len(r) != rho for p in triple for r in p
    ):
        raise DocumentError(f"{where}.triple: expected a {rho}x{rho}x{rho} array")
    return ThreefoldRing(
        name=name,
        basis_labels=tuple(basis),
        triple=triple,
        c1_coords=_vector(_require(doc, "c1", where), f"{where}.c1"),
        c2_values=_vector(_require(doc, "c2_values", where), f"{where}.c2_values"),
        chi_top=_int(_require(doc, "chi_top", where), f"{where}.chi_top"),
        h12=_int(_require(doc, "h12", where), f"{where}.h12"),
    )


def _flag_on_ring(ring: ThreefoldRing, doc: dict, where: str) -> FlagDescriptor:
    """The flag data of a manifold document, on its already parsed ring."""
    s_coords = _vector(doc["s_coords"], f"{where}.s_coords") if "s_coords" in doc else ring.c1_coords
    h1_ty = None if doc.get("h1_TY") is None else _int(doc["h1_TY"], f"{where}.h1_TY")
    h0_normal = None if doc.get("h0_N") is None else _int(doc["h0_N"], f"{where}.h0_N")
    assertion = doc.get("first_obstruction_vanishes")
    if assertion is not None and not isinstance(assertion, bool):
        raise DocumentError(f"{where}.first_obstruction_vanishes: expected a boolean")
    return FlagDescriptor(
        ring=ring,
        s_coords=s_coords,
        h1_ty=h1_ty,
        h0_normal=h0_normal,
        first_obstruction_vanishes=assertion,
    )


def flag_from_document(doc: dict, where: str = "manifold") -> FlagDescriptor:
    """Read a manifold document as a flag without validating it.

    The section class defaults to the anticanonical class; the result
    may fail `validate_flag`, which is the point: broken flags need to
    be constructible so their reports can be shown.
    """
    return _flag_on_ring(_ring_from_document(doc, where), doc, where)


def manifold_from_document(doc: dict, where: str = "manifold") -> ThreefoldRing | FlagDescriptor:
    """Parse and fully validate a manifold document.

    Documents of kind "cy3" yield rings; kind "fano3" yields flags whose
    validation report must be clean, otherwise the failing checks are
    named in the raised error.
    """
    ring = _ring_from_document(doc, where)
    if _require(doc, "kind", where) == "cy3":
        if "s_coords" in doc:
            raise DocumentError(f"{where}: a cy3 document cannot carry flag data (s_coords)")
        return ring
    flag = _flag_on_ring(ring, doc, where)
    report = validate_flag(flag)
    if not report.valid:
        details = "; ".join(f"{c.name}: {c.detail}" for c in report.failures())
        raise LatticeValidationError(f"flag document {ring.name!r} is invalid: {details}")
    return flag


# --------------------------------------------------------------------------
# bundle documents


def bundle_from_document(doc: dict, manifold, where: str = "bundle") -> ChernData:
    """Parse a bundle document into ChernData on a given ring or flag."""
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    ring = manifold.ring if isinstance(manifold, FlagDescriptor) else manifold
    if not isinstance(ring, ThreefoldRing):
        raise TypeError("manifold must be a ThreefoldRing or FlagDescriptor")
    reference = doc.get("manifold")
    if reference is not None and reference != ring.name:
        raise LatticeValidationError(
            f"bundle document targets manifold {reference!r} but {ring.name!r} was loaded"
        )
    labels = doc.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise DocumentError(f"{where}.labels: expected an array of strings")
    return ChernData(
        ring=ring,
        rank=_int(_require(doc, "rank", where), f"{where}.rank"),
        c1=_vector(_require(doc, "c1", where), f"{where}.c1"),
        c2=_vector(_require(doc, "c2", where), f"{where}.c2"),
        c3=_scalar(_require(doc, "c3", where), f"{where}.c3"),
        labels=tuple(labels),
    )


# --------------------------------------------------------------------------
# gluing documents


def _identical(a, b) -> bool:
    """Equal JSON values with the same type at every node (1, 1.0 and true differ)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_identical(v, b[k]) for k, v in a.items())
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_identical, a, b))
    return a == b


def gluing_from_document(doc: dict, where: str = "gluing") -> GluingDescriptor:
    """Parse a gluing document: two inlined flags, optional matrix and D.

    A `flag_minus` identical to `flag_plus` (the doubling case) is parsed
    and validated once, and the one flag serves both sides.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    if doc.get("kind") != "gluing":
        raise DocumentError(f"{where}.kind: expected 'gluing'")
    plus_doc = _require(doc, "flag_plus", where)
    flag_plus = manifold_from_document(plus_doc, f"{where}.flag_plus")
    minus_doc = _require(doc, "flag_minus", where)
    if _identical(minus_doc, plus_doc):
        flag_minus = flag_plus
    else:
        flag_minus = manifold_from_document(minus_doc, f"{where}.flag_minus")
    if not isinstance(flag_plus, FlagDescriptor) or not isinstance(flag_minus, FlagDescriptor):
        raise DocumentError(f"{where}: both sides of a gluing must be fano3 flag documents")
    matrix = _matrix(doc["matrix"], f"{where}.matrix") if "matrix" in doc else None
    section_class = _vector(doc["section_class"], f"{where}.section_class") if "section_class" in doc else None
    return make_gluing(flag_plus, flag_minus, matrix=matrix, section_class=section_class)


# --------------------------------------------------------------------------
# emission


def ring_to_document(ring: ThreefoldRing) -> dict:
    return {
        "name": ring.name,
        "kind": "cy3" if ring.is_calabi_yau else "fano3",
        "rho": ring.rho,
        "basis": list(ring.basis_labels),
        "triple": jsonable(ring.triple),
        "c1": jsonable(ring.c1_coords),
        "c2_values": jsonable(ring.c2_values),
        "chi_top": ring.chi_top,
        "h12": ring.h12,
    }


def flag_to_document(flag: FlagDescriptor) -> dict:
    doc = ring_to_document(flag.ring)
    doc["kind"] = "fano3"
    doc["s_coords"] = jsonable(flag.s_coords)
    if flag.h1_ty is not None:
        doc["h1_TY"] = flag.h1_ty
    if flag.h0_normal is not None:
        doc["h0_N"] = flag.h0_normal
    if flag.first_obstruction_vanishes is not None:
        doc["first_obstruction_vanishes"] = flag.first_obstruction_vanishes
    return doc


def jsonable(obj):
    """Recursively convert domain values to JSON-serializable data.

    Fractions become integers when integral and "p/q" strings otherwise,
    so emitted documents re-parse to the exact same values.
    """
    if isinstance(obj, Fraction):
        return obj.numerator if obj.denominator == 1 else format_fraction(obj)
    if isinstance(obj, (K3Vector, KernelResult)):
        return {name: jsonable(value) for name, value in obj.as_dict().items()}
    if isinstance(obj, GradedClass):
        return {
            "a0": jsonable(obj.a0),
            "a2": jsonable(obj.a2),
            "a4": jsonable(obj.a4),
            "a6": jsonable(obj.a6),
        }
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# --------------------------------------------------------------------------
# file-level helpers


def _read_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"{path}: invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from None
    except ValueError:  # an integer past the interpreter's int() digit limit
        raise DocumentError(
            f"{path}: invalid JSON: integer too long for the interpreter's int() digit limit"
        ) from None
    except RecursionError:
        raise DocumentError(f"{path}: invalid JSON: arrays or objects nested too deeply") from None


def load_manifold(path) -> ThreefoldRing | FlagDescriptor:
    """Load and validate a manifold document from disk."""
    return manifold_from_document(_read_json(path), where=str(path))


def load_bundle(path, manifold) -> ChernData:
    """Load a bundle document against an already-loaded manifold."""
    return bundle_from_document(_read_json(path), manifold, where=str(path))


def load_gluing(path) -> GluingDescriptor:
    """Load a gluing document from disk."""
    return gluing_from_document(_read_json(path), where=str(path))


def load_matrix(path) -> tuple[tuple[Fraction, ...], ...]:
    """Load a matrix document: a JSON array of rows of exact rationals."""
    return _matrix(_read_json(path), where=str(path))


# --------------------------------------------------------------------------
# registry persistence


# Document keys that differ from their `CDEntry` field names.
_CD_KEYS = {"vector_desc": "vector"}


def _entry_to_document(entry: CDEntry) -> dict:
    return {_CD_KEYS.get(name, name): jsonable(value) for name, value in entry.as_dict().items()}


def _entry_from_document(doc: dict, where: str) -> CDEntry:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected a JSON object")
    fields = {}
    for name, allowed, phrase in CD_FIELD_RULES:
        key = _CD_KEYS.get(name, name)
        if key not in doc and hasattr(CDEntry, name):
            continue  # an optional field takes the CDEntry default
        value = fields[name] = _require(doc, key, where)
        if not allowed(value):
            raise DocumentError(f"{where}.{key}: {phrase}")
        if name == "value" and value is not None:
            _capped(value, f"{where}.value")
    return CDEntry(**fields)


def load_registry(path, missing_ok: bool = False) -> CDRegistry:
    """Load a registry file; optionally start empty when it doesn't exist."""
    path = Path(path)
    if missing_ok and not os.path.exists(path):  # False, not OSError, for too long a name
        return CDRegistry()
    doc = _read_json(path)
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise DocumentError(f"{path}: expected an object with an 'entries' array")
    return CDRegistry(
        _entry_from_document(e, f"{path}.entries[{i}]") for i, e in enumerate(entries)
    )


def save_registry(path, registry: CDRegistry) -> None:
    """Write a registry canonically: sorted keys, two-space indent."""
    doc = {"entries": [_entry_to_document(e) for e in registry.entries()]}
    try:
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        raise DocumentError(f"cannot write {path}: {exc.strerror or exc}") from None


# --------------------------------------------------------------------------
# bundled documents


_DATA = Path(__file__).parent / "data"


def builtin_names() -> tuple[str, ...]:
    """Names of the JSON documents shipped with the package."""
    return tuple(sorted(p.name for p in _DATA.iterdir() if p.name.endswith(".json")))


def builtin_path(name: str) -> Path:
    """Filesystem path of a bundled document (e.g. 'quintic.json')."""
    candidate = _DATA / name
    if not os.path.isfile(candidate):
        raise DocumentError(f"no bundled document named {name!r}; have {builtin_names()}")
    return candidate
