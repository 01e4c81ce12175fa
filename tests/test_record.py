"""Immutable records (`mukai.record.Record`) and a cold-import guard."""

import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mukai import K3Vector, ThreefoldRing, chern, flags, moduli, pairings, rings, schubert
from mukai.documents import builtin_path, load_manifold
from mukai.pairings import PairingResult
from mukai.record import Record

from conftest import quintic_ring

SRC = Path(__file__).resolve().parents[1] / "src"


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
    assert tuple(inspect.signature(cls).parameters) == cls._fields


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
        y: int

        def __init__(self, x, y=0):
            vars(self).update(x=x, y=y)

    class Second(First):
        pass

    class Third(First):
        z: int

        def __init__(self, x, y=0, z=2):
            vars(self).update(x=x, y=y, z=z)

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
