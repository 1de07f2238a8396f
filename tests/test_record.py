"""Record semantics of tdlab's value classes (`tdlab.record.Record`).

Each record keeps what its frozen-dataclass form gave: positional and
keyword construction with defaults, refusal of a missing, unknown or
repeated field, validation at construction, no assignment, equality and
hash by fields, copies, and the ``Name(field=value)`` repr.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from helpers import replace
from tdlab import forge
from tdlab.psi import OperatorSet
from tdlab.record import Record
from tdlab.report import CheckResult
from tdlab.split import Cell, SplitApparatus, build_apparatus
from tdlab.tdsystem import EigenData, ParameterError, QRacahParams, TDSystemInstance
from tdlab.uqsl2 import Component, ModuleDecomposition, UqAction

F = Fraction
P1 = QRacahParams(1, F(2), F(3), F(5))

# (class, field values, another value for the last field).  Fields that
# hold matrices or subspaces get stand-ins: records do not check types.
RECORDS = [
    (QRacahParams, (1, F(2), F(3), F(5)), F(7)),
    (CheckResult, ("axiom.i.A", "diagonalizability of A", False, "residual", "note"), ""),
    (EigenData, ((F(1), F(2)), ("E_0 V", "E_1 V"), ("E_0", "E_1")), ("E_1", "E_0")),
    (TDSystemInstance, (P1, "A", "A*", "eig", "eigstar"), "eig"),
    (Cell, ("image", "space"), "other space"),
    (SplitApparatus, (("U_0",), ("U_0↓",), ("E*_0 V",), ("K_0",), "cells", "K", "B"), "B'"),
    (OperatorSet, ("R", "R↓", "psi", "Lambda"), "Lambda'"),
    (UqAction, ("e", "f", "k", "k^-1", F(2)), F(3)),
    (Component, (0, 2, 1, "MK_0", F(65, 8)), F(5, 2)),
    (ModuleDecomposition, (("component",),), ()),
]


@pytest.mark.parametrize("cls,values,other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_semantics(cls, values, other):
    record = cls(*values)
    assert tuple(getattr(record, f) for f in cls._fields) == values
    assert cls(**dict(zip(cls._fields, values))) == record

    for name in (cls._fields[0], "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)

    same, changed = cls(*values), replace(record, **{cls._fields[-1]: other})
    assert same == record and hash(same) == hash(record)
    assert changed != record and getattr(changed, cls._fields[-1]) == other
    assert record != values and record.__eq__(values) is NotImplemented
    assert copy.copy(record) == record and pickle.loads(pickle.dumps(record)) == record

    fields = ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, values))
    assert repr(record) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls,values,other", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_refuses_bad_fields(cls, values, other):
    name, first = cls.__name__, cls._fields[0]
    required = [f for f in cls._fields if f not in cls._defaults]
    by_name = dict(zip(cls._fields, values))
    for args, kwargs, message in (
        (values[:len(required) - 1], {}, f"{name} is missing field(s) {required[-1]}"),
        ((), {k: v for k, v in by_name.items() if k != first}, f"missing field(s) {first}"),
        (values + (other,), {}, f"{name} takes {len(values)} fields, got {len(values) + 1}"),
        (values, {"unknown": other}, f"{name} has no field 'unknown'"),
        (values[:1], {first: other}, f"{name} got field '{first}' twice"),
    ):
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        assert message in str(info.value)


def test_only_check_result_has_defaults():
    """RECORDS covers every record class, and only CheckResult has defaults."""
    classes = set(Record.__subclasses__())
    assert classes == {cls for cls, *_ in RECORDS}
    assert {cls.__name__: cls._defaults for cls in classes if cls._defaults} == {
        "CheckResult": {"residual": None, "note": ""}}


def test_check_result_defaults():
    result = CheckResult("uq.ef", "anchor", True)
    assert (result.residual, result.note) == (None, "")
    assert result == CheckResult(check_id="uq.ef", anchor="anchor", passed=True,
                                 residual=None, note="")


def test_construction_refuses_invalid_fields():
    with pytest.raises(ParameterError, match="positive"):
        QRacahParams(d=0, q=F(2), a=F(3), b=F(5))
    with pytest.raises(ParameterError, match="nonzero"):
        QRacahParams(2, F(2), b=F(5), a=F(0))


def test_params_repr_is_pinned():
    assert repr(forge.fixture(1).params) == (
        "QRacahParams(d=1, q=Fraction(2, 1), a=Fraction(3, 1), b=Fraction(5, 1))"
    )


def test_apparatus_caches_are_not_fields():
    app = build_apparatus(forge.fixture(1))
    assert app.Kinv == app.Kop.inverse()  # cached on the original
    x = 2 * app.Kop
    replaced = replace(app, Kop=x)
    assert replaced.Kinv == x.inverse() and replaced.Binv == app.Binv
    assert replace(app) == app and "Kinv" not in repr(app)
