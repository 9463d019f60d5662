"""``model.Record`` against the frozen dataclasses it replaced.

Each record class is compared with its dataclass twin (``oracles.dataclass_twin``:
the same annotations and defaults under ``@dataclass(frozen=True)``) on
seeded field values: text, equality, hash, construction, refused arguments
and assignment, and ``replace``.
"""

import dataclasses
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sumcore
from sumcore import CayleyGroup, Multiples, cyclic_table
from sumcore.cli import parse_model_arg, to_jsonable
from sumcore.model import Record

from .oracles import dataclass_twin

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__name__)
TWINS = {cls: dataclass_twin(cls) for cls in RECORDS}


def test_every_value_class_is_a_record():
    exported = {obj for obj in vars(sumcore).values()
                if isinstance(obj, type) and issubclass(obj, Record)}
    assert exported == set(RECORDS)
    assert len(RECORDS) == 28


def field_value(rng, depth=0):
    """A seeded hashable field value: an int (some past 64 bits), a tuple
    of ints, a Fraction, a string, a bool, None or, at the top level, a
    record holding two such values."""
    makers = [
        lambda: rng.randrange(-10**6, 10**6),
        lambda: (1 << 70) + rng.randrange(8),
        lambda: tuple(rng.sample(range(100), rng.randrange(4))),
        lambda: Fraction(rng.randrange(1, 50), rng.randrange(1, 50)),
        lambda: rng.choice(["aps", "intervals", "square", ""]),
        lambda: rng.random() < 0.5,
        lambda: None,
    ]
    if not depth:
        makers.append(lambda: Multiples(field_value(rng, 1), field_value(rng, 1)))
    return rng.choice(makers)()


def field_values(cls, rng):
    return [field_value(rng) for _ in cls._fields]


def outcome(make, *args, **kwargs):
    """The repr of make(*args, **kwargs), or the type of what it raised."""
    try:
        return repr(make(*args, **kwargs))
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_eq_hash_match_dataclass(cls):
    twin = TWINS[cls]
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    assert cls.__match_args__ == twin.__match_args__
    rng = random.Random(cls.__name__)
    same_width = [other for other in RECORDS
                  if other is not cls and len(other._fields) == len(cls._fields)]
    for _ in range(20):
        values = field_values(cls, rng)
        rec, twin_rec = cls(*values), twin(*values)
        assert repr(rec) == repr(twin_rec)
        assert hash(rec) == hash(twin_rec)
        equal, twin_equal = cls(*values), twin(*values)
        assert (rec == equal, rec != equal, rec == rec) == (True, False, True)
        assert (twin_rec == twin_equal, twin_rec != twin_equal) == (True, False)
        if values:
            changed = list(values)
            changed[rng.randrange(len(values))] = field_value(rng)
            assert (rec == cls(*changed)) == (twin_rec == twin(*changed))
            assert (rec != cls(*changed)) == (twin_rec != twin(*changed))
        # another class with equal values, and a plain tuple of them
        for other in same_width:
            assert rec != other(*values) and not rec == other(*values)
            assert twin_rec != TWINS[other](*values)
        assert rec != twin_rec and twin_rec != rec
        assert (rec == tuple(values), twin_rec == tuple(values)) == (False, False)
        assert pickle.loads(pickle.dumps(rec)) == rec


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_construction_matches_dataclass(cls):
    twin = TWINS[cls]
    rng = random.Random(f"init:{cls.__name__}")
    names = cls._fields
    for _ in range(10):
        values = field_values(cls, rng)
        kwargs = dict(zip(names, values))
        shuffled = dict(rng.sample(sorted(kwargs.items()), len(kwargs)))
        rec = cls(*values)
        assert repr(rec) == repr(twin(*values))
        assert [getattr(rec, name) for name in names] == values
        assert cls(**shuffled) == rec and repr(twin(**shuffled)) == repr(rec)
        assert list(vars(cls(**shuffled))) == list(names)  # stored in field order
        for cut in range(len(values) + 1):  # positional head, keyword tail
            tail = dict(list(kwargs.items())[cut:])
            assert cls(*values[:cut], **tail) == rec
            assert outcome(twin, *values[:cut], **tail) == repr(rec)
    if cls is Multiples:
        assert repr(Multiples(3)) == repr(twin(3)) == "Multiples(q=3, offset=0)"
        assert Multiples(3) == Multiples(3, 0) == Multiples(q=3)
        assert Multiples(offset=2, q=3) == Multiples(3, 2)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_bad_arguments_raise_as_dataclass(cls):
    twin = TWINS[cls]
    values = field_values(cls, random.Random(f"bad:{cls.__name__}"))
    names = cls._fields
    calls = [((*values, 0), {}), (tuple(values), {"bogus": 0})]
    if names:
        required = [name for name in names if name not in cls.__dict__]
        calls += [
            (tuple(values[:len(required) - 1]), {}),            # a required one missing
            (tuple(values), {names[0]: values[0]}),            # one given twice
            ((), dict(list(zip(names, values))[1:], bogus=0)),  # right count, wrong name
        ]
    for args, kwargs in calls:
        got = outcome(cls, *args, **kwargs)
        assert got is TypeError, (args, kwargs)
        assert outcome(twin, *args, **kwargs) is got
    rec, twin_rec = cls(*values), twin(*values)
    for name in (*names, "bogus"):
        for target in (rec, twin_rec):
            with pytest.raises(AttributeError):
                setattr(target, name, 0)
            with pytest.raises(AttributeError):
                delattr(target, name)
    assert repr(rec) == repr(twin(*values)) == repr(cls(*values))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_matches_dataclasses_replace(cls):
    twin = TWINS[cls]
    rng = random.Random(f"replace:{cls.__name__}")
    values = field_values(cls, rng)
    rec, twin_rec = cls(*values), twin(*values)
    copy = rec.replace()
    assert copy == rec and copy is not rec
    for name in cls._fields:
        value = field_value(rng)
        assert repr(rec.replace(**{name: value})) == \
            repr(dataclasses.replace(twin_rec, **{name: value}))
    changes = dict(zip(cls._fields, field_values(cls, rng)))
    assert repr(rec.replace(**changes)) == repr(dataclasses.replace(twin_rec, **changes))
    assert outcome(rec.replace, bogus=0) is outcome(dataclasses.replace, twin_rec, bogus=0)
    assert repr(rec) == repr(twin_rec)  # unchanged


def test_cached_properties_stay_out_of_eq_hash_and_repr():
    no_identity = tuple(tuple((2 * i + j) % 5 for j in range(5)) for i in range(5))
    for table, is_group in [(cyclic_table(6), True), (no_identity, False)]:
        g, fresh = CayleyGroup(table), CayleyGroup(table)
        before = (repr(g), hash(g))
        array = g._table_array
        assert g._table_array is array
        assert g.is_group is is_group and vars(g)["is_group"] is is_group
        assert "_table_array" in vars(g) and "is_group" not in vars(fresh)
        assert g == fresh and fresh == g
        assert (repr(g), hash(g)) == before == (repr(fresh), hash(fresh))
        assert to_jsonable(g) == to_jsonable(fresh)


def test_parse_model_arg_marks_zmod_a_group():
    g = parse_model_arg("zmod:5")
    assert vars(g)["is_group"] is True and g.is_group is True
    assert g == CayleyGroup(cyclic_table(5))
    assert "_table_array" not in vars(g)  # Light's test never ran


def test_import_leaves_dataclasses_out():
    src = Path(sumcore.__file__).resolve().parents[1]
    code = ("import sys\n"
            "assert 'dataclasses' not in sys.modules, 'imported before sumcore'\n"
            "import sumcore, sumcore.cli\n"
            "print('dataclasses' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
