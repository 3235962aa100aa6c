"""JSON serialization for spaces, measures, functions, and reports.

Values live in [0, inf]; infinity travels as the string "inf" so documents
stay valid JSON. Report dumps sort keys and render floats by repr, making
seeded pipeline output byte-identical across runs. Set-function tables key
their entries by the atom labels joined with "+" in atom order (the empty
set key "" may be omitted; it is always zero).
"""

from __future__ import annotations

import dataclasses
import json
import math
from functools import reduce
from operator import or_

import numpy as np

from .additive import AdditiveMeasure
from .measures import MaxitiveMeasure
from .possibility import Law, PossibilitySpace, SubAlgebra
from .spaces import (
    INF,
    MeasurableFn,
    MeasurableSet,
    Space,
    SetFunction,
    atoms_of,
    build_space,
    mask_of,
    require_table,
)

SCHEMA = "1"


def encode_value(x):
    x = float(x)
    if math.isinf(x):
        return "inf"
    if x != x or x < 0:
        raise ValueError(f"values must lie in [0, inf], got {x}")
    return x


def decode_value(x):
    if isinstance(x, str):
        s = x.strip().lower()
        if s in ("inf", "infinity", "+inf"):
            return INF
        try:
            x = float(s)
        except ValueError:
            raise ValueError(f"unrecognized value string {x!r}") from None
    x = float(x)
    if x != x or x < 0:
        raise ValueError(f"values must lie in [0, inf], got {x}")
    return x


def space_to_json(space):
    return {
        "ground": list(space.ground),
        "blocks": [sorted(space.atom_members(i)) for i in range(space.n_atoms)],
    }


def space_from_json(doc):
    return build_space(doc["ground"], doc["blocks"])


def _atoms_dict(space, values):
    labels = space.atom_labels()
    return {labels[i]: encode_value(values[i]) for i in range(space.n_atoms)}


def _atoms_from_dict(space, doc):
    labels = space.atom_labels()
    missing = [l for l in labels if l not in doc]
    if missing:
        raise ValueError(f"missing atom entries for {missing}")
    known = set(labels)
    extra = [k for k in doc if k not in known]
    if extra:
        raise ValueError(f"unknown atom labels {extra}")
    return [decode_value(doc[l]) for l in labels]


def _set_key(space, mask):
    labels = space.atom_labels()
    return "+".join(labels[i] for i in atoms_of(mask))


def _set_parser(space):
    """The map from a set's name to its mask, the OR of its atoms' masks."""
    bits = {l: mask_of([i]) for i, l in enumerate(space.atom_labels())}

    def mask(text):
        if not text.strip():
            return 0
        try:
            return reduce(or_, map(bits.__getitem__, map(str.strip, text.split("+"))))
        except KeyError as e:
            raise ValueError(f"unknown atom label {e.args[0]!r}") from None

    return mask


def parse_set(space, text):
    """A set named by atom labels joined with +; empty string is the empty set."""
    return MeasurableSet(space, _set_parser(space)(text))


def parse_subalgebra(space, text):
    return SubAlgebra.from_string(space, text)


def measure_to_json(obj):
    if isinstance(obj, PossibilitySpace):
        return {
            "schema": SCHEMA,
            "kind": "possibility",
            "space": space_to_json(obj.space),
            "atoms": _atoms_dict(obj.space, obj.atom_values),
        }
    if isinstance(obj, MaxitiveMeasure):
        return {
            "schema": SCHEMA,
            "kind": "maxitive",
            "space": space_to_json(obj.space),
            "atoms": _atoms_dict(obj.space, obj.atom_values),
        }
    if isinstance(obj, AdditiveMeasure):
        return {
            "schema": SCHEMA,
            "kind": "additive",
            "space": space_to_json(obj.space),
            "atoms": _atoms_dict(obj.space, obj.atom_masses),
        }
    if isinstance(obj, SetFunction):
        return {
            "schema": SCHEMA,
            "kind": "set_function",
            "space": space_to_json(obj.space),
            "table": {
                _set_key(obj.space, b): encode_value(obj.table[b])
                for b in range(1, obj.space.n_sets)
            },
        }
    if isinstance(obj, MeasurableFn):
        return {
            "schema": SCHEMA,
            "kind": "function",
            "space": space_to_json(obj.space),
            "atoms": _atoms_dict(obj.space, obj.atom_values),
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def measure_from_json(doc, space=None):
    """Rebuild a measure, set function, or function from its document."""
    if doc.get("schema") not in (None, SCHEMA):
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    if space is None:
        space = space_from_json(doc["space"])
    kind = doc.get("kind", "maxitive")
    if kind in ("maxitive", "additive", "possibility", "function"):
        vals = _atoms_from_dict(space, doc["atoms"])
        if kind == "maxitive":
            return MaxitiveMeasure(space, vals)
        if kind == "additive":
            return AdditiveMeasure(space, vals)
        if kind == "possibility":
            return PossibilitySpace(MaxitiveMeasure(space, vals))
        return MeasurableFn(space, vals)
    if kind == "set_function":
        require_table(space.n_atoms)
        mask = _set_parser(space)
        table = [0.0] * space.n_sets
        for key, v in doc["table"].items():
            table[mask(key)] = decode_value(v)
        return SetFunction(space, table)
    raise ValueError(f"unknown kind {kind!r}")


def load_document(path):
    with open(path) as fh:
        return json.load(fh)


def load_measure(path, space=None):
    return measure_from_json(load_document(path), space)


def to_jsonable(obj, space=None):
    """Recursively convert reports and domain objects to JSON-ready data."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            raise ValueError("reports must not contain NaN")
        return obj
    if isinstance(obj, (np.floating,)):
        return to_jsonable(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, MeasurableSet):
        return _set_key(obj.space, obj.mask)
    if isinstance(obj, (MaxitiveMeasure, AdditiveMeasure, SetFunction, MeasurableFn, PossibilitySpace)):
        return measure_to_json(obj)
    if isinstance(obj, Space):
        return space_to_json(obj)
    if isinstance(obj, SubAlgebra):
        return [
            to_jsonable(MeasurableSet(obj.space, b)) for b in obj.blocks
        ]
    if isinstance(obj, Law):
        return {
            "values": [to_jsonable(v) for v in obj.values],
            "possibilities": [to_jsonable(v) for v in obj.possibilities],
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(obj):
    """Deterministic JSON text: sorted keys, two-space indent, no raw inf."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
