"""The frozen records (``fejerquant.fields.Record``): construction, frozen
fields, and the equality, hash and repr that each class has always had.

The classes were frozen data classes of the standard library; the records
keep their behaviour: value equality and hashing where the class declared it,
identity elsewhere, and the same repr text.
"""

from fractions import Fraction

import numpy as np
import pytest

import fejerquant as fq
from fejerquant.errors import ScheduleError
from fejerquant.fields import INTEGER, Factory, Field, Record, integer
from fejerquant.iteration import ParameterSchedule, PowerRule, TableRule, Trace
from fejerquant.moduli import ModulusFn, NaturalBound
from fejerquant.operators import AffinePSD, NormalConeBox, SubdiffAbsSum, ZeroOperator
from fejerquant.regularity import GapFunctional, GHModuli, RegularityModulus
from fejerquant.verification import Certificate, EmpiricalPhi
from records import field_names, replace


def _identity(x):
    return x


# one maker per record class; each call builds a new record of equal fields
MAKERS = {
    "Field": lambda: INTEGER,
    "PowerRule": lambda: PowerRule(Fraction(1, 3), 2),
    "TableRule": lambda: TableRule((1.0, 0.5)),
    "ParameterSchedule": lambda: fq.preset("dc-abs-1d").schedule,
    "QuantitativeData": lambda: fq.preset("dc-abs-1d").quant,
    "ProblemInstance": lambda: fq.preset("dc-abs-1d"),
    "Trace": lambda: Trace(np.zeros((2, 1)), [1.0], [1.0], [0.0]),
    "NaturalBound": lambda: NaturalBound(7),
    "ModulusFn": lambda: ModulusFn.affine(2, 1),
    "AffinePSD": lambda: AffinePSD(np.eye(2), np.zeros(2)),
    "SubdiffAbsSum": lambda: SubdiffAbsSum(2),
    "NormalConeBox": lambda: NormalConeBox(np.zeros(1), np.ones(1)),
    "ZeroOperator": lambda: ZeroOperator(3),
    "GapFunctional": lambda: GapFunctional("F1", fq.preset("dc-abs-1d")),
    "RegularityModulus": lambda: RegularityModulus("linear", [0.0], 1, "analytic"),
    "GHModuli": lambda: GHModuli(_identity, _identity, 1, max, _identity),
    "Certificate": lambda: Certificate("k", {"a": 1}, {}, None, True),
    "EmpiricalPhi": lambda: EmpiricalPhi(np.zeros(1), 1, None, "empirical"),
}
# the classes declared with value equality, as they always were
VALUE_EQUAL = {"Field", "PowerRule", "ParameterSchedule", "QuantitativeData", "NaturalBound",
               "ModulusFn", "SubdiffAbsSum", "ZeroOperator", "Certificate"}


def record_classes():
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("fejerquant.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


def test_every_record_class_has_a_maker():
    # _Operator is the operators' shared base, never built itself
    names = {cls.__name__ for cls in record_classes()} - {"_Operator"}
    assert names == set(MAKERS)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_records_are_frozen(name):
    record = MAKERS[name]()
    for attr in (*field_names(type(record)), "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{attr}'$"):
            setattr(record, attr, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{attr}'$"):
            delattr(record, attr)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_records_compare_and_hash_as_their_class_always_has(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert a == a
    if name not in VALUE_EQUAL:
        assert a is not b and a != b
        assert hash(a) == object.__hash__(a)
        return
    assert a == b and not a != b
    # a record of another class with the same fields is not equal
    assert a != object() and a.__eq__(object()) is NotImplemented
    if name == "Certificate":  # its dict fields are unhashable
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in field_names(type(a))))


def test_value_equality_reads_every_field():
    assert ModulusFn.affine(2, 1) != ModulusFn.affine(2, 2)
    assert NaturalBound(7) != NaturalBound(None)
    assert SubdiffAbsSum(2) != ZeroOperator(2)
    assert Field(integer) != Field(integer, default=0)
    assert Certificate("k", {}, {}, None, True) != Certificate("k", {}, {}, None, False)


def test_repr_is_the_text_it_always_was():
    assert repr(NaturalBound(7)) == "NaturalBound(value=7)"
    assert repr(PowerRule(Fraction(1, 3), 2)) == "PowerRule(c=Fraction(1, 3), p=2)"
    assert repr(ModulusFn.affine(2, 1)) == (
        "ModulusFn(kind='affine', a=2, b=1, coeffs=(), values=(), c=Fraction(1, 1), p=1)"
    )
    assert repr(ZeroOperator(3)) == "ZeroOperator(dim=3)"
    assert repr(Certificate("k", {"a": 1}, {}, None, True)) == (
        "Certificate(kind='k', params={'a': 1}, witness={}, bound=None, sound=True, "
        "vacuous=False, violations=(), provenance={})"
    )


def test_fields_by_position_or_keyword_with_defaults():
    assert field_names(Certificate) == [
        "kind", "params", "witness", "bound", "sound", "vacuous", "violations", "provenance",
    ]
    # subclasses take their base's fields
    class Sub(AffinePSD):
        pass

    assert field_names(Sub) == ["matrix", "offset"]
    a = Certificate("k", {}, {}, None, True)
    b = Certificate(kind="k", params={}, witness={}, bound=None, sound=True, vacuous=False)
    assert a == b and a.violations == ()
    # a factory default is made anew for each record, and is no class attribute
    assert a.provenance == {} and a.provenance is not b.provenance
    assert not hasattr(Certificate, "provenance") and Certificate.vacuous is False
    assert ModulusFn("affine", 1) == ModulusFn.affine(1, 0)
    for bad in (
        lambda: NaturalBound(),
        lambda: NaturalBound(1, 2),
        lambda: NaturalBound(1, value=1),
        lambda: NaturalBound(bound=1),
    ):
        with pytest.raises(TypeError):
            bad()


def test_post_init_checks_every_record_built():
    # __post_init__ normalizes the fields and rejects bad ones, also in a copy
    assert PowerRule(2, 1).c == Fraction(2) and isinstance(PowerRule(2, 1).c, Fraction)
    with pytest.raises(ScheduleError, match="p >= 0"):
        replace(PowerRule(1, 1), p=-1)
    schedule = ParameterSchedule(PowerRule(1, 1), PowerRule(1, 3), 10)
    with pytest.raises(ScheduleError, match="horizon must be >= 1"):
        replace(schedule, horizon=0)
    assert replace(schedule, horizon=20).horizon == 20 and schedule.horizon == 10


def test_a_record_class_of_its_own():
    class Point(Record, eq=True):
        x: int
        y: int = 0
        tags: list = Factory(list)

    class Labelled(Point):
        label: str = ""

        def __post_init__(self):
            object.__setattr__(self, "label", self.label.upper())

    p = Labelled(1, label="a")
    assert repr(p) == (
        "test_a_record_class_of_its_own.<locals>.Labelled(x=1, y=0, tags=[], label='A')"
    )
    # equality is inherited with the class declaration; the tags differ per record
    assert p == Labelled(1, 0, [], "a") and p.tags is not Labelled(1).tags
    assert Point(1) != Labelled(1)
    with pytest.raises(TypeError):
        hash(p)  # the list field is unhashable
