"""JSON serialization for spaces, measures, functions, and reports.

Values live in [0, inf]; infinity travels as the string "inf" so documents
stay valid JSON. Report dumps sort keys and render floats by repr, making
seeded pipeline output byte-identical across runs. Sets, set-function
table keys among them, are named by ``Space.set_name`` and read by
``Space.mask_named``: their atoms' labels joined with "+" in atom order
(the empty set key "" may be omitted; it is always zero).
"""

from __future__ import annotations

import json
import math

from .additive import AdditiveMeasure
from .measures import MaxitiveMeasure
from .possibility import PossibilitySpace, SubAlgebra
from .records import Record
from .spaces import (
    MeasurableFn,
    MeasurableSet,
    Space,
    SetFunction,
    build_space,
    np,
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
    # a JSON true or false is a bool, which float() would read as 1.0 or 0.0
    if isinstance(x, bool):
        raise ValueError(f"values must be numbers or strings, got {x!r}")
    if isinstance(x, str):
        s = x.strip().lower()
        try:
            x = float(s)
        except ValueError:
            raise ValueError(f"unrecognized value string {x!r}") from None
        # float() reads a number past the float range as an infinity of its
        # sign; only a spelled infinity ("inf", "-Infinity", ...) is one
        if math.isinf(x) and not s.lstrip("+-").startswith("inf"):
            raise ValueError(f"the value {s} does not fit in a float")
    try:
        x = float(x)
    except TypeError:
        raise ValueError(f"values must be numbers or strings, got {x!r}") from None
    except OverflowError:
        # a JSON integer past the float range, such as 10^400 in digits
        raise ValueError(f"an integer value of {x.bit_length()} bits does not fit in a float") from None
    if x != x or x < 0:
        raise ValueError(f"values must lie in [0, inf], got {x}")
    return x


def required(doc, key, what):
    """doc[key]; a missing key raises ValueError naming it and what lacks it."""
    if key not in doc:
        raise ValueError(f"{what} has no {key!r} field")
    return doc[key]


def space_to_json(space):
    return {
        "ground": list(space.ground),
        "blocks": [sorted(space.atom_members(i)) for i in range(space.n_atoms)],
    }


def space_from_json(doc):
    if not isinstance(doc, dict):
        raise ValueError(f"space must be an object with ground and blocks, got {doc!r}")
    ground, blocks = required(doc, "ground", "a space"), required(doc, "blocks", "a space")
    if not isinstance(ground, list):
        raise ValueError(f"space ground must be a list of labels, got {ground!r}")
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError(f"space blocks must be a list of label lists, got {blocks!r}")
    return build_space(ground, blocks)


def _atoms_dict(space, values):
    labels = space.atom_labels()
    return {labels[i]: encode_value(values[i]) for i in range(space.n_atoms)}


def _atoms_from_dict(space, doc):
    if not isinstance(doc, dict):
        raise ValueError(f"atoms must be an object keyed by atom label, got {doc!r}")
    labels = space.atom_labels()
    missing = [l for l in labels if l not in doc]
    if missing:
        raise ValueError(f"missing atom entries for {missing}")
    known = set(labels)
    extra = [k for k in doc if k not in known]
    if extra:
        raise ValueError(f"unknown atom labels {extra}")
    return [decode_value(doc[l]) for l in labels]


#: each document kind, "possibility" before its base class "maxitive": the
#: class it is read into and the attribute that holds its values
KINDS = {
    "possibility": (PossibilitySpace, "atom_values"),
    "maxitive": (MaxitiveMeasure, "atom_values"),
    "additive": (AdditiveMeasure, "atom_masses"),
    "set_function": (SetFunction, "table"),
    "function": (MeasurableFn, "atom_values"),
}
_KIND_CLASSES = tuple(cls for cls, _ in KINDS.values())


def measure_to_json(obj):
    for kind, (cls, attr) in KINDS.items():
        if isinstance(obj, cls):
            doc = {"schema": SCHEMA, "kind": kind, "space": space_to_json(obj.space)}
            values = getattr(obj, attr)
            if kind == "set_function":
                name = obj.space.set_name
                doc["table"] = {name(b): encode_value(values[b]) for b in range(1, obj.space.n_sets)}
            else:
                doc["atoms"] = _atoms_dict(obj.space, values)
            return doc
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def measure_from_json(doc, space=None):
    """Rebuild a measure, set function, or function from its document."""
    if not isinstance(doc, dict):
        raise ValueError(f"a document must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") not in (None, SCHEMA):
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    kind = doc.get("kind", "maxitive")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    what = f"a {kind} document"
    if space is None:
        space = space_from_json(required(doc, "space", what))
    if kind == "set_function":
        require_table(space.n_atoms)
        mask = space.mask_named
        entries = required(doc, "table", what)
        if not isinstance(entries, dict):
            raise ValueError(f"table must be an object keyed by set, got {entries!r}")
        table = [0.0] * space.n_sets
        for key, v in entries.items():
            table[mask(key)] = decode_value(v)
        return SetFunction(space, table)
    return KINDS[kind][0](space, _atoms_from_dict(space, required(doc, "atoms", what)))


def _parse_float(text):
    """A JSON float literal; one past the float range, of either sign, is
    refused, not read as an infinity."""
    x = float(text)
    if math.isinf(x):
        raise ValueError(f"the number {text} does not fit in a float")
    return x


def load_document(path):
    with open(path) as fh:
        return json.load(fh, parse_float=_parse_float)


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
    if isinstance(obj, MeasurableSet):
        return obj.space.set_name(obj.mask)
    if isinstance(obj, _KIND_CLASSES):
        return measure_to_json(obj)
    if isinstance(obj, Space):
        return space_to_json(obj)
    if isinstance(obj, SubAlgebra):
        return [obj.space.set_name(b) for b in obj.blocks]
    if isinstance(obj, Record):
        return {name: to_jsonable(getattr(obj, name)) for name in obj._fields}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    # numpy's types last: a report of Python values never imports numpy
    if isinstance(obj, np.floating):
        return to_jsonable(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_report(obj):
    """Deterministic JSON text: sorted keys, two-space indent, no raw inf."""
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
