"""JSON forms: every serialized object reads back what it writes.

Each property writes an object, reads the JSON text back and writes it again:
the two writes must be equal as values and as ``json.dumps(sort_keys=True)``
text, which also tells -0.0 from 0.0. The golden hashes pin the bytes of
``--dump-config`` for the three presets and for one inline config.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fejerquant import preset
from fejerquant.cli import main
from fejerquant.iteration import (
    PRESETS,
    ParameterSchedule,
    PowerRule,
    ProblemInstance,
    QuantitativeData,
    TableRule,
    rule_from_json,
)
from fejerquant.moduli import ModulusFn
from fejerquant.operators import (
    AffinePSD,
    NormalConeBox,
    SubdiffAbsSum,
    ZeroOperator,
    operator_from_json,
    operator_to_json,
)
from fejerquant.regularity import RegularityModulus


def assert_round_trip(x, read, write=lambda x: x.to_json()):
    first = write(x)
    again = write(read(json.loads(json.dumps(first))))
    assert again == first
    assert json.dumps(again, sort_keys=True) == json.dumps(first, sort_keys=True)


EXAMPLES = settings(max_examples=60, deadline=None)

# ±0.0 often, so that a writer that drops the sign of a zero shows
coords = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
)
dims = st.integers(1, 3)
naturals = st.one_of(st.integers(0, 20), st.integers(0, 10**30))
positive_fractions = st.one_of(
    st.integers(1, 10**30).map(Fraction),
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6).filter(lambda q: q > 0),
)


def points(d):
    return st.lists(coords, min_size=d, max_size=d).map(np.array)


@st.composite
def affine(draw, d):
    if draw(st.booleans()):  # dense: B B^T with its lower triangle mirrored exactly
        b = np.array(draw(st.lists(coords, min_size=d * d, max_size=d * d))).reshape(d, d)
        a = b @ b.T
        a = np.triu(a) + np.triu(a, 1).T
    else:  # diagonal, with signed zeros off the diagonal
        a = np.diag(draw(st.lists(st.floats(0.0, 8.0), min_size=d, max_size=d)))
        a[~np.eye(d, dtype=bool)] = draw(st.sampled_from([0.0, -0.0]))
    return AffinePSD(a, draw(points(d)))


@st.composite
def box(draw, d):
    a, b = draw(points(d)), draw(points(d))
    return NormalConeBox(np.where(a <= b, a, b), np.where(a <= b, b, a))


def operators(d):
    return st.one_of(affine(d), box(d), st.just(SubdiffAbsSum(d)), st.just(ZeroOperator(d)))


power_rules = st.builds(PowerRule, positive_fractions, st.integers(0, 6))
table_rules = st.lists(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), min_size=1, max_size=8
).map(TableRule)


@st.composite
def schedules(draw):
    horizon = draw(st.integers(1, 20))

    def rule(values):
        if draw(st.booleans()):
            c = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]))
            return PowerRule(c, draw(st.integers(0, 3)))
        return TableRule(draw(st.lists(values, min_size=horizon + 1, max_size=horizon + 4)))

    # mu stays above the 1e-300 underflow floor within the horizon
    return ParameterSchedule(rule(st.floats(1e-6, 1e6)), rule(st.floats(1e-3, 10.0)), horizon)


moduli = st.one_of(
    st.just(ModulusFn.identity()),
    st.builds(ModulusFn.affine, naturals, naturals),
    st.lists(naturals, max_size=4).map(ModulusFn.polynomial),
    st.lists(naturals, min_size=1, max_size=6).map(ModulusFn.table),
    st.builds(ModulusFn.power_rate, positive_fractions, st.integers(1, 6)),
    st.builds(ModulusFn.power_sum_rate, positive_fractions, st.integers(2, 6)),
)


@st.composite
def regularity_moduli(draw):
    ball = {
        "center": draw(points(draw(dims))),
        "radius": draw(positive_fractions),
        "provenance": draw(st.sampled_from(["analytic", "grid-oracle"])),
    }
    if draw(st.booleans()):
        return RegularityModulus("linear", scale=draw(positive_fractions), **ball)
    pairs = st.tuples(positive_fractions, positive_fractions)
    entries = draw(st.lists(pairs, min_size=1, max_size=4))
    return RegularityModulus("table", entries=tuple(entries), **ball)


@st.composite
def quant_data(draw, d=None):
    # A and Bprime within their bounds, 709 and 1074 (moduli.CONSTANT_BOUNDS)
    return QuantitativeData(
        A=draw(st.one_of(st.just(Fraction(0)), st.fractions(0, 709))),
        B=draw(st.integers(1, 10**30)),
        Bprime=draw(st.one_of(st.integers(0, 20), st.integers(0, 1074))),
        C=1 + draw(st.one_of(st.just(Fraction(0)), positive_fractions)),
        M=draw(st.integers(1, 50)),
        L=draw(st.one_of(st.just(Fraction(0)), positive_fractions)),
        d=d or draw(dims),
        theta=draw(moduli),
        xi=draw(moduli),
        varpi=draw(moduli),
        varpi_hat=draw(st.one_of(st.none(), moduli)),
    )


@st.composite
def problems(draw):
    d = draw(dims)
    S = draw(operators(d))
    # a normal-cone T needs S to be the same box; other T take any S
    T = S if isinstance(S, NormalConeBox) and draw(st.booleans()) else draw(
        st.one_of(affine(d), st.just(SubdiffAbsSum(d)), st.just(ZeroOperator(d)))
    )
    x0 = draw(points(d))
    if isinstance(S, NormalConeBox):
        x0 = np.minimum(np.maximum(x0, S.lo), S.hi)
    return ProblemInstance(
        T=T,
        S=S,
        x0=x0,
        schedule=draw(schedules()),
        quant=draw(quant_data(d)),
        known_solutions=tuple(draw(st.lists(points(d), max_size=3))),
    )


@EXAMPLES
@given(dims.flatmap(operators))
def test_operator_form_round_trips(op):
    assert_round_trip(op, operator_from_json, operator_to_json)


@EXAMPLES
@given(st.one_of(power_rules, table_rules))
def test_rule_form_round_trips(rule):
    assert_round_trip(rule, rule_from_json)


def test_power_rule_c_is_an_integer_when_integral():
    assert PowerRule(Fraction(4), 1).to_json()["c"] == 4
    assert PowerRule(Fraction(3, 2), 1).to_json()["c"] == "3/2"


@EXAMPLES
@given(schedules())
def test_schedule_form_round_trips(schedule):
    assert_round_trip(schedule, ParameterSchedule.from_json)


@EXAMPLES
@given(moduli)
def test_modulus_form_round_trips(g):
    assert_round_trip(g, ModulusFn.from_json)


@EXAMPLES
@given(regularity_moduli())
def test_regularity_modulus_form_round_trips(phi):
    assert_round_trip(phi, RegularityModulus.from_json)


@EXAMPLES
@given(quant_data())
def test_quantitative_data_form_round_trips(q):
    assert_round_trip(q, QuantitativeData.from_json)
    assert ("varpi_hat" in q.to_json()) == (q.varpi_hat is not None)


def test_null_varpi_hat_reads_as_absent():
    form = preset("box-affine-nd").quant.to_json()
    assert QuantitativeData.from_json({**form, "varpi_hat": None}).varpi_hat is None


@EXAMPLES
@given(problems())
def test_problem_form_round_trips(inst):
    assert_round_trip(inst, ProblemInstance.from_json)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_are_written_as_their_instances_write_them(name):
    written = preset(name).to_json()
    assert json.dumps(written, sort_keys=True) == json.dumps(PRESETS[name], sort_keys=True)


# an inline problem with signed zeros, a table mu, a table xi and a polynomial varpi
INLINE = {
    "problem": {
        "T": {"kind": "affine_psd", "matrix": [[1.0, -0.0], [-0.0, 2.0]], "offset": [-0.0, 0.5]},
        "S": {"kind": "normal_cone_box", "lo": [-1.0, -0.0], "hi": [1.0, 2.0]},
        "x0": [-0.0, 0.25],
        "known_solutions": [[-0.0, 0.0]],
    },
    "schedule": {
        "lambda": {"rule": "power", "c": "3/2", "p": 1},
        "mu": {"rule": "table", "values": [0.5, 0.25, 0.125, 0.0625]},
        "horizon": 3,
    },
    "quant": {
        "A": "5/2", "B": 2, "Bprime": 1, "C": 1, "M": 3, "L": "7/2", "d": 2,
        "theta": {"kind": "power_rate", "c": "3/2", "p": 1},
        "xi": {"kind": "table", "values": [1, 2, 3]},
        "varpi": {"kind": "polynomial", "coeffs": [1, 0, 2]},
        "varpi_hat": {"kind": "affine", "a": 2, "b": 1},
    },
    "params": {"steps": 3},
    "vacuous_ok": False,
}

# SHA-256 of the --dump-config output, recorded before the presets were JSON
DUMP_SHA256 = {
    "dc-abs-1d": "ff087b0f702cd34d1e800baeb73574fdb1e55970253fd1a3960a62ac45547b89",
    "affine-affine-nd": "57390ca520ab8ee8dcfddbd35d2a7714c9a15087d88ce4b04b6509b9859091c2",
    "box-affine-nd": "3dc51917cb750db0b91c4c647c46b72c8fd7b9b28d66a04ddca71322b30762c1",
    "inline": "9e7961686b48a29447277ce79feb01a88cff4f3e97e71fb3b43c4e58ffc31957",
}


@pytest.mark.parametrize("name", sorted(DUMP_SHA256))
def test_dump_config_bytes_are_unchanged(tmp_path, capsys, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(INLINE if name == "inline" else {"problem": name}))
    assert main(["run", "--config", str(path), "--dump-config"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DUMP_SHA256[name]
