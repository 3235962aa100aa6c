"""Every report type behaves as the dataclass it replaces.

Each ``Record`` subclass is compared with a dataclass made from the same
fields and defaults: construction, ``repr``, equality, defaults and
hashing. The reports the command line prints keep their JSON.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxitive.cli  # noqa: F401  (defines every report type)
from maxitive import modelio
from maxitive.additive import AdditiveMeasure
from maxitive.integral import IntegralResult, idempotent_integral
from maxitive.measures import (
    FinitenessReport,
    MaxitiveMeasure,
    atom_decomposition,
    choquet_alternating,
    classify,
    finiteness_suite,
)
from maxitive.possibility import PossibilitySpace, SubAlgebra, conditional_suite, law
from maxitive.records import Record
from maxitive.semigroup import by_name, verify_axioms
from maxitive.spaces import MeasurableFn, build_space

RECORDS = sorted(Record.__subclasses__(), key=lambda cls: cls.__qualname__)


def test_every_report_type_is_a_record():
    assert [cls.__qualname__ for cls in RECORDS] == sorted([
        "AbsContReport", "AlternationReport", "AtomDecomposition", "AxiomReport",
        "ConditionalSuiteReport", "EnvelopeReport", "FinitenessReport",
        "ImplicationReport", "IntegralResult", "Invariant", "KSReport", "Law",
        "PowerMeanReport", "PropertyReport", "ScaleReport", "SuiteReport",
        "TailReport", "TwoSampleReport",
    ])


def reference(cls):
    """The dataclass that declared the same fields and defaults."""
    specs = []
    for name, annotation in cls._fields.items():
        if name not in cls._defaults:
            specs.append((name, annotation))
        elif type(cls._defaults[name]) is dict:
            specs.append((name, annotation, dataclasses.field(default_factory=dict)))
        else:
            specs.append((name, annotation, cls._defaults[name]))
    return dataclasses.make_dataclass(cls.__qualname__, specs)


values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
    st.text(max_size=3), st.tuples(st.integers(0, 3)),
)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_its_dataclass(cls, data):
    ref = reference(cls)
    names = list(cls._fields)
    a = data.draw(st.lists(values, min_size=len(names), max_size=len(names)))
    b = data.draw(st.lists(values, min_size=len(names), max_size=len(names)))
    assert repr(cls(*a)) == repr(ref(*a))
    assert cls(*a) == cls(**dict(zip(names, a)))
    assert (cls(*a) == cls(*b)) == (ref(*a) == ref(*b))
    assert (cls(*a) != cls(*b)) == (ref(*a) != ref(*b))
    assert cls(*a) != ref(*a) and cls(*a) != tuple(a)
    assert cls.__hash__ is None
    with pytest.raises(TypeError):
        hash(cls(*a))


def test_records_of_two_types_are_never_equal():
    # as for dataclasses: the same field values, but not the same type
    assert IntegralResult(1.0, 1.0, True) != FinitenessReport(1.0, 1.0, True)
    assert not IntegralResult(1.0, 1.0, True) == FinitenessReport(1.0, 1.0, True)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_a_record_takes_its_defaults_and_refuses_bad_arguments(cls):
    ref = reference(cls)
    required = [name for name in cls._fields if name not in cls._defaults]
    assert required
    args = list(range(len(required)))
    rec, old = cls(*args), ref(*args)
    assert repr(rec) == repr(old)
    for name in cls._fields:
        assert getattr(rec, name) == getattr(old, name)
        if type(getattr(old, name)) is dict:
            # a fresh dict for each record, never the class's
            other = cls(*args)
            getattr(rec, name)["x"] = 1
            assert getattr(other, name) == {} and cls._defaults[name] == {}
    for bad_args, bad_kwargs in (
        (args[:-1], {}),
        (list(range(len(cls._fields) + 1)), {}),
        (args, {"no_such_field": 1}),
        (args, {required[0]: 0}),
    ):
        with pytest.raises(TypeError):
            ref(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)


SPACE = build_space("abc", [["a"], ["b"], ["c"]])
NU = MaxitiveMeasure(SPACE, [1.0, 0.5, 0.0])
FN = MeasurableFn(SPACE, [3.0, 1.0, 4.0])
TIMES = by_name("times")

FLAGS = ("autocontinuous ccc completely_maxitive continuous_from_above essential exhaustive "
         "finite maxitive monotone normed null_additive of_bounded_variation sigma_finite "
         "sigma_principal").split()


# the JSON each report printed by the command line had as a dataclass
@pytest.mark.parametrize("make, expected", [
    (lambda: classify(NU),
     {**dict.fromkeys(FLAGS, True), "atom_values": [1.0, 0.5, 0.0], "witnesses": {}}),
    (lambda: classify(AdditiveMeasure(SPACE, [1.0, 0.5, 0.25])),
     {**dict.fromkeys(FLAGS, True), "atom_values": None,
      **dict.fromkeys(["autocontinuous", "completely_maxitive", "maxitive", "normed"], False),
      "witnesses": {"autocontinuous": 3, "completely_maxitive": 3,
                    "maxitive": [1, 2, 1.5, 1.0], "normed": 1.75}}),
    (lambda: choquet_alternating(AdditiveMeasure(SPACE, [1.0, 0.5, 0.25]), 2, 1e-9),
     {"min_signed_value": 0.0, "ok": True, "order": 2, "witness": None}),
    (lambda: verify_axioms(by_name("min")),
     {"annihilator": True, "associative": True, "continuity_sampled": True,
      "left_identity": True, "monotone": True, "no_zero_divisors": True, "op": "min",
      "pseudo_multiplication": True, "witnesses": {}}),
    (lambda: finiteness_suite(TIMES, NU),
     {"odot_finite": True, "semi_odot_finite": True, "sigma_odot_finite": True}),
    (lambda: idempotent_integral(TIMES, FN, NU, SPACE.full()),
     {"level": 3.0, "strict_boundary": False, "value": 3.0}),
    (lambda: atom_decomposition(NU),
     {"atoms": ["a", "b"], "residual_null": "c", "values": [1.0, 0.5]}),
    (lambda: conditional_suite(
        TIMES, FN, PossibilitySpace(SPACE, [1.0, 0.5, 0.25]),
        SubAlgebra.from_string(SPACE, "a+b|c")),
     {"characterization": True, "defining": True, "details": {}, "measurable_fixed": True,
      "monotone": True, "scaling": True, "total": True, "tower": True,
      "y": {"atoms": {"a": 3.0, "b": 3.0, "c": 4.0}, "kind": "function", "schema": "1",
            "space": {"blocks": [["a"], ["b"], ["c"]], "ground": ["a", "b", "c"]}}}),
    (lambda: law(FN, PossibilitySpace(SPACE, [1.0, 0.5, 0.25])),
     {"possibilities": [0.5, 1.0, 0.25], "values": [1.0, 3.0, 4.0]}),
], ids=["properties", "properties-additive", "alternation", "axioms", "finiteness",
        "integral", "decomposition", "condition-suite", "law"])
def test_printed_reports_keep_their_json(make, expected):
    rec = make()
    assert isinstance(rec, Record)
    assert json.loads(modelio.dumps_report(rec)) == expected
    assert list(modelio.to_jsonable(rec)) == list(rec._fields)
