"""Immutable records (`mukai.record.Record`) and a cold-import guard."""

import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mukai import (
    ChernData, FlagDescriptor, K3Vector, ThreefoldRing, chern, flags, moduli, pairings, rings, schubert,
)
from mukai.documents import builtin_path, load_manifold
from mukai.pairings import PairingResult
from mukai.record import Record

from conftest import (
    quintic_ring, random_cy_ring, random_fano_ring, random_fraction, random_fractional_chern, with_denominators,
)

SRC = Path(__file__).resolve().parents[1] / "src"

# The one record whose fields are properties over integers, so it binds them itself.
OWN_INIT = {"GradedClass"}


def all_records():
    return [
        value
        for module in (rings, chern, flags, moduli, pairings, schubert)
        for value in vars(module).values()
        if isinstance(value, type)
        and issubclass(value, Record)
        and value.__module__ == module.__name__
    ]


def test_importing_the_cli_loads_no_code_introspection_modules():
    # -S keeps site-packages hooks, which may import these on their own, out
    # of the measurement: only what `import mukai.cli` pulls in counts.
    code = (
        "import sys\n"
        "import mukai.cli\n"
        "heavy = ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize')\n"
        "print(' '.join(m for m in heavy if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=False
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "\n")


def test_the_package_defines_21_records():
    assert len(all_records()) == 21


@pytest.mark.parametrize("cls", all_records(), ids=lambda cls: cls.__name__)
def test_constructor_parameters_are_the_fields_in_order(cls):
    if cls.__name__ in OWN_INIT:
        assert tuple(inspect.signature(cls).parameters) == cls._fields
    else:
        # `Record.__init__` binds positional arguments to `_fields` in order.
        assert "__init__" not in vars(cls) and cls.__init__ is Record.__init__
        assert cls._fields == tuple(cls.__annotations__)


def test_record_init_binds_fields():
    class Point(Record):
        x: int
        y: int = 0

        def __post_init__(self):
            vars(self)["checks"] = vars(self).get("checks", 0) + 1

    class Labelled(Point):
        label: str = "p"

    for point in (Point(1, 2), Point(x=1, y=2), Point(1, y=2), Point(y=2, x=1)):
        assert (point.x, point.y, point.checks) == (1, 2, 1)
    assert Point(3) == Point(3, 0) and Point(3).checks == 1
    assert Labelled._fields == ("x", "y", "label")
    assert repr(Labelled(1)).endswith(".Labelled(x=1, y=0, label='p')")
    assert Labelled(1, label="q") == Labelled(1, 0, "q") and Labelled(1).checks == 1
    refusals = [
        ((1, 2, 3), {}, "Point() takes at most 2 positional arguments"),
        ((1,), {"x": 2}, "Point() got multiple values for argument 'x'"),
        ((1,), {"z": 2}, "Point() got an unexpected keyword argument 'z'"),
        ((), {"y": 2}, "Point() missing required argument 'x'"),
    ]
    for args, kwargs, message in refusals:
        with pytest.raises(TypeError) as error:
            Point(*args, **kwargs)
        assert str(error.value) == message


def test_exact_skips_post_init_and_the_record_stays_frozen():
    class Checked(Record):
        x: int
        y: int = 0

        def __post_init__(self):
            raise ValueError("checked")

    with pytest.raises(ValueError, match="checked"):
        Checked(1)
    record = Checked._exact(x=1, y=2)
    assert type(record) is Checked and vars(record) == {"x": 1, "y": 2}
    assert repr(record).endswith(".Checked(x=1, y=2)") and record == Checked._exact(y=2, x=1)
    for name in ("x", "extra"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 3)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert vars(record) == {"x": 1, "y": 2}


# The fields of the records the library builds with `Record._exact`, by the
# type the checked constructors give them.
FRACTION_FIELDS = {"c3", "v0", "v4", "value", "a0", "a6"}
VECTOR_FIELDS = {"c1", "c2", "v2", "s_coords", "a2", "a4"}


def trusted_records(rng, ring, flag):
    """One record of each kind the library builds unchecked, from fractional data on `ring`."""
    e1 = random_fractional_chern(rng, ring, labels=("E1",))
    e2 = random_fractional_chern(rng, ring, labels=("E2", "F"))
    line = [random_fraction(rng) for _ in range(ring.rho)]
    m = chern.mukai_vector(e1)
    return [
        chern.twist_chern(e1, line, rng.randint(-3, 3)),
        chern.dual_chern(e2),
        m,
        m.graded,
        chern.k3_mukai_vector(flag, e2),
        rings.restrict_to_k3(chern.chern_character(e1), flag.k3),
        pairings.euler_chi_result(e1, e2),
        flag.k3,
    ]


def test_trusted_records_equal_their_checked_twins():
    rng = random.Random(2211)
    for case in range(48):
        rho = case % 8 + 1
        ring = with_denominators(rng, (random_cy_ring if case % 2 else random_fano_ring)(rng, rho))
        flag = FlagDescriptor(ring=ring, s_coords=tuple(random_fraction(rng) for _ in range(rho)))
        for record in trusted_records(rng, ring, flag):
            checked = type(record)(**record.as_dict())
            assert record == checked and checked == record
            assert (hash(record), repr(record)) == (hash(checked), repr(checked))
            for name, value in record.as_dict().items():
                if name in FRACTION_FIELDS:
                    assert type(value) is Fraction, (type(record), name)
                elif name in VECTOR_FIELDS:
                    assert type(value) is tuple and len(value) == rho
                    assert all(type(x) is Fraction for x in value), (type(record), name)
                elif name == "labels":
                    assert type(value) is tuple and all(type(x) is str for x in value)
                elif name == "gram":
                    assert all(type(x) is Fraction for row in value for x in row)


def test_as_dict():
    ring = quintic_ring()
    bundle = ChernData(ring, 1, (1,), (0,), 0)
    chern.chern_character(bundle)  # fills the `_ch` cache
    flag = load_manifold(builtin_path("cp3-quartic.json"))
    assert "_ch" in vars(bundle) and "k3" in vars(flag)
    for record in (ring, bundle, flag, K3Vector(1, ("1/2",), -3)):
        as_dict = record.as_dict()
        assert tuple(as_dict) == record._fields
        assert tuple(as_dict.values()) == tuple(getattr(record, name) for name in record._fields)
    assert flag.as_dict()["ring"] is flag.ring
    assert K3Vector(1, ("1/2",), -3).as_dict() == {"v0": 1, "v2": (Fraction(1, 2),), "v4": -3}


def test_equal_fields_give_equal_records_and_hashes():
    a = K3Vector(1, (Fraction(1, 2), 0), -3)
    b = K3Vector(Fraction(1), ("1/2", 0), "-3")
    assert a == b and hash(a) == hash(b) and a is not b
    half = Fraction(5, 2)
    assert PairingResult(half) == PairingResult(value=half, integrality_note=None)
    assert len({quintic_ring(), quintic_ring()}) == 1
    assert K3Vector(1, (0,), 1) != K3Vector(1, (0,), 2)


def test_records_of_different_classes_are_unequal():
    class First(Record):
        x: int
        y: int = 0

    class Second(First):
        pass

    class Third(First):
        z: int = 2

    assert First(1) == First(x=1, y=0) and hash(First(1)) == hash(First(1, 0))
    assert First(1) != Second(1) and Second._fields == ("x", "y")
    assert Third._fields == ("x", "y", "z") and repr(Third(1)).endswith(".Third(x=1, y=0, z=2)")
    assert Third(1) != First(1) and Third(1) != Third(1, 0, 3)
    assert K3Vector(1, (0,), 1) != (Fraction(1), (Fraction(0),), Fraction(1))


@pytest.mark.parametrize("name", ["v0", "v2", "extra"])
def test_fields_cannot_be_assigned_or_deleted(name):
    vector = K3Vector(1, (0,), 1)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(vector, name, 2)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(vector, name)
    assert vector == K3Vector(1, (0,), 1)


def test_derived_attributes_are_frozen_too():
    ring = quintic_ring()
    flag = load_manifold(builtin_path("cp3-quartic.json"))
    derived = [(ring, "_cache"), (ring, "_den"), (flag, "k3"), (PairingResult(1), "value")]
    for record, name in derived:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


def test_repr_is_the_dataclass_text():
    assert repr(K3Vector(1, (Fraction(1, 2), 0), -3)) == (
        "K3Vector(v0=Fraction(1, 1), v2=(Fraction(1, 2), Fraction(0, 1)), v4=Fraction(-3, 1))"
    )
    assert repr(PairingResult(Fraction(5, 2), "note")) == (
        "PairingResult(value=Fraction(5, 2), integrality_note='note')"
    )
    assert repr(load_manifold(builtin_path("cp3-quartic.json"))) == (
        "FlagDescriptor(ring=ThreefoldRing(name='cp3-quartic', basis_labels=('h',), "
        "triple=(((Fraction(1, 1),),),), c1_coords=(Fraction(4, 1),), c2_values=(Fraction(6, 1),), "
        "chi_top=4, h12=0), s_coords=(Fraction(4, 1),), h1_ty=0, h0_normal=None, "
        "first_obstruction_vanishes=None)"
    )


def test_ring_kernel_attributes_are_not_fields():
    assert ThreefoldRing._fields == (
        "name", "basis_labels", "triple", "c1_coords", "c2_values", "chi_top", "h12",
    )
