"""The frozen records (``fejerquant.fields.Record``): construction, frozen
fields, and the equality, hash and repr that each class has always had.

The classes were frozen data classes of the standard library; the records
keep their behaviour: value equality and hashing where the class declared it,
identity elsewhere, and the same repr text. The exceptions are ModulusFn
and RegularityModulus, whose kinds became a class each: their repr is the
constructor call ``ModulusFn.affine(a=2, b=1)``, without the fields of the
other kinds.
"""

from fractions import Fraction

import numpy as np
import pytest

import fejerquant as fq
from fejerquant.errors import ScheduleError
from fejerquant.fields import INTEGER, Field, Record, integer
from fejerquant.iteration import ParameterSchedule, PowerRule, TableRule, Trace
from fejerquant.moduli import ModulusFn, NaturalBound
from fejerquant.operators import AffinePSD, NormalConeBox, SubdiffAbsSum, ZeroOperator, _Operator
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
    # the kinds of the two moduli, named by their constructors
    "ModulusFn.identity": lambda: ModulusFn.identity(),
    "ModulusFn.affine": lambda: ModulusFn.affine(2, 1),
    "ModulusFn.polynomial": lambda: ModulusFn.polynomial([1, 0, 2]),
    "ModulusFn.table": lambda: ModulusFn.table([0, 4, 4]),
    "ModulusFn.power_rate": lambda: ModulusFn.power_rate(Fraction(3, 2), 2),
    "ModulusFn.power_sum_rate": lambda: ModulusFn.power_sum_rate(1, 4),
    "AffinePSD": lambda: AffinePSD(np.eye(2), np.zeros(2)),
    "SubdiffAbsSum": lambda: SubdiffAbsSum(2),
    "NormalConeBox": lambda: NormalConeBox(np.zeros(1), np.ones(1)),
    "ZeroOperator": lambda: ZeroOperator(3),
    "GapFunctional": lambda: GapFunctional("F1", fq.preset("dc-abs-1d")),
    "RegularityModulus.linear": lambda: RegularityModulus.linear([0.0], 1, "analytic", 1),
    "RegularityModulus.table": lambda: RegularityModulus.table([0.0], 1, "analytic", [(1, 1)]),
    "GHModuli": lambda: GHModuli(_identity, _identity, 1, max, _identity),
    "Certificate": lambda: Certificate("k", {"a": 1}, {}, None, True, provenance={}),
    "EmpiricalPhi": lambda: EmpiricalPhi(np.zeros(1), 1, None),
}
# the classes declared with value equality, as they always were
VALUE_EQUAL = {"Field", "PowerRule", "ParameterSchedule", "QuantitativeData", "NaturalBound",
               *(f"ModulusFn.{kind}" for kind in ("identity", "affine", "polynomial", "table",
                                                  "power_rate", "power_sum_rate")),
               "SubdiffAbsSum", "ZeroOperator", "Certificate"}


def record_classes():
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("fejerquant.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return found


# the shared bases of the operators and of the kinds of the two moduli
BASES = (_Operator, ModulusFn, RegularityModulus)


def test_every_record_class_has_a_maker():
    names = {cls.__qualname__ for cls in record_classes()}
    assert names == {*MAKERS, *(base.__qualname__ for base in BASES)}


@pytest.mark.parametrize("base", BASES, ids=lambda base: base.__qualname__)
def test_a_shared_base_is_not_built(base):
    # a class with a tag but no value for it: a base built with its fields
    # answered nothing, and its to_json raised AttributeError
    fields = {"center": [0.0], "radius": 1, "provenance": "analytic"}
    for args in ({}, {name: fields[name] for name in base._fields}):
        with pytest.raises(TypeError, match=f"^{base.__qualname__} is a base: it has no kind$"):
            base(**args)


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
    assert (Certificate("k", {}, {}, None, True, provenance={})
            != Certificate("k", {}, {}, None, False, provenance={}))


def test_repr_is_the_text_it_always_was():
    assert repr(NaturalBound(7)) == "NaturalBound(value=7)"
    assert repr(PowerRule(Fraction(1, 3), 2)) == "PowerRule(c=Fraction(1, 3), p=2)"
    # a modulus kind has the fields of its own form, and reads as its constructor
    assert repr(ModulusFn.affine(2, 1)) == "ModulusFn.affine(a=2, b=1)"
    assert repr(ModulusFn.identity()) == "ModulusFn.identity()"
    assert repr(RegularityModulus.linear([0.0], 1, "analytic", 2)) == (
        "RegularityModulus.linear(center=array([0.]), radius=Fraction(1, 1), "
        "provenance='analytic', scale=Fraction(2, 1))"
    )
    assert repr(ZeroOperator(3)) == "ZeroOperator(dim=3)"
    assert repr(Certificate("k", {"a": 1}, {}, None, True, provenance={})) == (
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
    a = Certificate("k", {}, {}, None, True, provenance={})
    b = Certificate(kind="k", params={}, witness={}, bound=None, sound=True, vacuous=False,
                    provenance={})
    assert a == b and a.violations == () and Certificate.vacuous is False
    # a field without a default is required, also after fields with one
    with pytest.raises(TypeError, match="missing field 'provenance'"):
        Certificate("k", {}, {}, None, True)
    assert ModulusFn.affine(b=0, a=1) == ModulusFn.affine(1, 0)
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
        tags: tuple = ()

    class Labelled(Point):
        label: str = ""

        def __post_init__(self):
            object.__setattr__(self, "label", self.label.upper())

    p = Labelled(1, label="a")
    assert repr(p) == (
        "test_a_record_class_of_its_own.<locals>.Labelled(x=1, y=0, tags=(), label='A')"
    )
    # equality is inherited with the class declaration
    assert p == Labelled(1, 0, (), "a") and hash(p) == hash((1, 0, (), "A"))
    assert Point(1) != Labelled(1)
    with pytest.raises(TypeError):
        hash(Point(1, 0, []))  # a list field is unhashable
