"""JSON documents: values, spaces, measures, deterministic report dumps."""

import json

import numpy as np
import pytest

from maxitive.additive import AdditiveMeasure
from maxitive.measures import MaxitiveMeasure, classify
from maxitive.modelio import (
    SCHEMA,
    decode_value,
    dumps_report,
    encode_value,
    load_measure,
    measure_from_json,
    measure_to_json,
    space_from_json,
    space_to_json,
    to_jsonable,
)
from maxitive.possibility import PossibilitySpace, SubAlgebra
from maxitive.spaces import INF, MeasurableFn, MeasurableSet, SetFunction, build_space

from conftest import measure_doc, write_doc


def test_value_codec():
    assert encode_value(2.5) == 2.5
    assert encode_value(INF) == "inf"
    assert decode_value("inf") == INF
    assert decode_value("Infinity") == INF
    assert decode_value("+inf") == INF
    assert decode_value("2.5") == 2.5
    assert decode_value("1e3") == 1000.0
    assert decode_value(3) == 3.0
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            encode_value(bad)
        with pytest.raises(ValueError):
            decode_value(bad)
    with pytest.raises(ValueError):
        decode_value("three")
    # a JSON boolean is not a number, though float() reads it as one
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"^values must be numbers or strings, got {flag}$"):
            decode_value(flag)


def test_space_round_trip():
    sp = build_space("abcd", [["a", "b"], ["c"], ["d"]])
    doc = space_to_json(sp)
    assert doc["ground"] == ["a", "b", "c", "d"]
    back = space_from_json(doc)
    assert back == sp


def test_measure_round_trips(abc):
    objs = [
        MaxitiveMeasure(abc, [1, 2, 0.5]),
        AdditiveMeasure(abc, [1, 0, INF]),
        PossibilitySpace(abc, [1, 0.5, 0]),
        MeasurableFn(abc, [3, 1, 4]),
        MaxitiveMeasure(abc, [1, 2, 0.5]).to_set_function(),
    ]
    for obj in objs:
        doc = measure_to_json(obj)
        assert doc["schema"] == SCHEMA
        back = measure_from_json(json.loads(json.dumps(doc)))
        assert type(back) is type(obj)
        if isinstance(obj, SetFunction):
            assert list(back.table) == list(obj.table)
        elif isinstance(obj, AdditiveMeasure):
            assert list(back.atom_masses) == list(obj.atom_masses)
        else:
            assert list(back.atom_values) == list(obj.atom_values)


def test_measure_from_json_validation(abc):
    doc = measure_doc("maxitive", ["a", "b", "c"], [1, 2, 0.5])
    del doc["atoms"]["b"]
    with pytest.raises(ValueError, match=r"^missing atom entries for \['b'\]$"):
        measure_from_json(doc)
    doc2 = measure_doc("maxitive", ["a", "b", "c"], [1, 2, 0.5])
    doc2["atoms"]["z"] = 1
    doc2["atoms"]["y"] = 1
    with pytest.raises(ValueError, match=r"^unknown atom labels \['z', 'y'\]$"):
        measure_from_json(doc2)
    doc3 = measure_doc("mystery", ["a"], [1])
    with pytest.raises(ValueError):
        measure_from_json(doc3)
    doc4 = measure_doc("maxitive", ["a"], [1])
    doc4["schema"] = "99"
    with pytest.raises(ValueError):
        measure_from_json(doc4)


def test_parse_set(abc):
    assert abc.mask_named("a+c") == 0b101
    assert abc.mask_named(" b ") == 0b010
    assert abc.mask_named("") == 0
    with pytest.raises(ValueError, match=r"^unknown atom label 'q'$"):
        abc.mask_named("a+q")


def test_parse_subalgebra(abcd):
    sub = SubAlgebra.from_string(abcd, "a+b|c+d")
    assert isinstance(sub, SubAlgebra)
    assert sub.blocks == (0b0011, 0b1100)
    for text in ("a+b|", "a+b| |c+d", "q|"):
        with pytest.raises(ValueError, match=f"^empty block in {text!r}$"):
            SubAlgebra.from_string(abcd, text)


def test_load_measure(tmp_path, abc):
    p = write_doc(tmp_path / "nu.json", measure_doc("maxitive", ["a", "b"], [1, "inf"]))
    nu = load_measure(p)
    assert list(nu.atom_values) == [1.0, INF]


def test_to_jsonable_values(abc):
    assert to_jsonable(INF) == "inf"
    assert to_jsonable(-INF) == "-inf"
    assert to_jsonable(np.float64(2.5)) == 2.5
    assert to_jsonable(np.int64(3)) == 3
    assert to_jsonable(np.array([1.0, INF])) == [1.0, "inf"]
    with pytest.raises(ValueError):
        to_jsonable(float("nan"))
    assert to_jsonable(MeasurableSet(abc, 0b101)) == "a+c"
    assert to_jsonable((1, "x", None)) == [1, "x", None]
    assert to_jsonable({1: 2.0}) == {"1": 2.0}


def test_to_jsonable_reports(abc):
    rep = classify(MaxitiveMeasure(abc, [1, 0.5, 0.25]).to_set_function())
    doc = to_jsonable(rep)
    assert doc["maxitive"] is True
    text = dumps_report(rep)
    json.loads(text)  # valid JSON
    assert text.endswith("\n")


def test_dumps_report_is_deterministic(abc):
    rep1 = classify(MaxitiveMeasure(abc, [1, 0.5, 0.25]).to_set_function())
    rep2 = classify(MaxitiveMeasure(abc, [1, 0.5, 0.25]).to_set_function())
    assert dumps_report(rep1) == dumps_report(rep2)
    # keys are sorted, so dict insertion order cannot leak
    a = dumps_report({"b": 1, "a": 2})
    b = dumps_report({"a": 2, "b": 1})
    assert a == b


def test_set_function_table_keys(abc):
    w = MaxitiveMeasure(abc, [1, 2, 0.5]).to_set_function()
    doc = measure_to_json(w)
    assert doc["table"]["a+b+c"] == 2
    assert doc["table"]["a"] == 1
    assert "" not in doc["table"]
    back = measure_from_json(doc)
    assert list(back.table) == list(w.table)
