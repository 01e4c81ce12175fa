"""Immutable records (`mukai.record.Record`) and a cold-import guard."""

import functools
import importlib
import os
import pkgutil
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import mukai
from mukai import (
    ChernData, FlagDescriptor, K3Vector, ThreefoldRing, chern, flags, moduli, pairings, rings, schubert,
)
from mukai.documents import builtin_path, load_manifold
from mukai.pairings import PairingResult
from mukai.record import Record, kept

from conftest import (
    quintic_ring, random_cy_ring, random_fano_ring, random_fraction, random_fractional_chern, with_denominators,
)

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
    e = ChernData(ring, 1, (1,), (0,), 0)
    derived = [
        (ring, "_td"), (ring, "_den"), (e, "_ch"), (flag, "k3"), (flag, "_one_minus_exp_minus_s"),
        (PairingResult(1), "value"),
    ]
    for record, name in derived:
        value = getattr(record, name)  # a kept value is made here, on its first read
        assert name in vars(record)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert vars(record)[name] is value


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


# --------------------------------------------------------------------------
# `kept`: the one keep-once mechanism


def test_kept_makes_its_value_once_per_instance_outside_the_fields():
    calls = []

    class Span(Record):
        low: int
        high: int

        @kept
        def width(self):
            calls.append(self)
            return self.high - self.low

    span = Span(1, 4)
    before = (hash(span), repr(span), span.as_dict())
    assert "width" not in vars(span)
    assert span.width == 3 and span.width == 3 and len(calls) == 1
    assert vars(span)["width"] == 3 and Span._fields == ("low", "high")
    assert (hash(span), repr(span), span.as_dict()) == before
    assert repr(span).endswith("Span(low=1, high=4)") and span.as_dict() == {"low": 1, "high": 4}
    # One record with the value kept and one without are still equal.
    assert span == Span(1, 4) and Span(1, 4) == span and hash(span) == hash(Span(1, 4))
    assert isinstance(Span.width, kept) and Span.width.name == "width"
    assert Span(2, 5).width == 3 and len(calls) == 2


def test_threads_racing_on_a_first_read_of_a_kept_factor_get_equal_values():
    ring = random_fano_ring(random.Random(91), rho=4)
    barrier = threading.Barrier(4)
    values = [None] * 4

    def first_read(i):
        barrier.wait()
        values[i] = ring._sqrt_td

    threads = [threading.Thread(target=first_read, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    fresh = ThreefoldRing(**ring.as_dict())
    assert all(value == fresh._sqrt_td for value in values)
    assert vars(ring)["_sqrt_td"] == fresh._sqrt_td


def test_no_class_keeps_a_value_by_functools_cached_property():
    # `record.kept` is the one keep-once mechanism; a second one must not come back.
    modules = [importlib.import_module(f"mukai.{info.name}") for info in pkgutil.iter_modules(mukai.__path__)]
    assert {"chern", "rings", "record", "cli"} <= {module.__name__.split(".")[1] for module in modules}
    for module in modules:
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for name, value in vars(cls).items():
                    assert not isinstance(value, functools.cached_property), f"{cls.__qualname__}.{name}"

