"""Random documents through the command line, in-process.

Each call of ``cli.main`` must exit 0, 1 or 2, leave no traceback and no
RuntimeWarning on stderr, and return within a few seconds. This covers
``integrate`` (with and without ``--set`` and ``--crosscheck``) and
``check --order 0 --op`` under the builtin operations and one table
operation, on maxitive, additive, possibility and set_function documents.
Atom counts run to 12, where every table is small, and from 22 to 30, above
the 21 atoms that a table admits, where a table is refused before it is
allocated and the atom routes run.
"""

import contextlib
import io
import json
import time
import traceback
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from maxitive import cli

#: 0 and inf, sums that overflow, values that underflow, and a few moderate ones
VALUES = ["inf", 0.0, 1e308, 1.7e308, 1e-300, 5e-324, 0.5, 1.0, 2.0]
TOLERANCES = ["0", "1e-12", "1e-9", "0.1"]
ATOM_COUNTS = st.integers(0, 12) | st.integers(22, 30)

#: min on a grid that holds 0 and inf; most fuzzed values are off it
GRID = [0.0, 0.5, 1.0, 2.0, "inf"]
TABLE_OP = {
    "name": "grid-min",
    "grid": GRID,
    "values": [[GRID[min(i, j)] for j in range(len(GRID))] for i in range(len(GRID))],
    "left_identity": "inf",
}


def space_doc(k):
    labels = [f"x{i}" for i in range(k)]
    return labels, {"ground": labels, "blocks": [[lab] for lab in labels]}


@st.composite
def documents(draw):
    """A measure document and a function document on the same k atoms."""
    kind = draw(st.sampled_from(["maxitive", "additive", "possibility", "set_function"]))
    k = draw(ATOM_COUNTS)
    labels, space = space_doc(k)
    pool = st.sampled_from(VALUES)
    doc = {"schema": "1", "kind": kind, "space": space}
    if kind == "set_function":
        masks = draw(st.lists(st.integers(1, (1 << k) - 1), max_size=16)) if k else []
        doc["table"] = {
            "+".join(labels[i] for i in range(k) if b >> i & 1): draw(pool) for b in masks
        }
    else:
        # a possibility document holds values in [0, 1], most often reaching 1
        unit = st.sampled_from([v for v in VALUES if v != "inf" and v <= 1.0])
        vals = draw(st.lists(unit if kind == "possibility" else pool, min_size=k, max_size=k))
        if kind == "possibility" and k and draw(st.integers(0, 3)):
            vals[draw(st.integers(0, k - 1))] = 1.0
        doc["atoms"] = dict(zip(labels, vals))
    fn = {"schema": "1", "kind": "function", "space": space}
    fn["atoms"] = dict(zip(labels, draw(st.lists(pool, min_size=k, max_size=k))))
    subset = st.lists(st.sampled_from([*labels, "q"]), min_size=1, unique=True)
    bset = draw(st.none() | subset.map("+".join))
    return doc, fn, bset


def run(argv):
    """Exit code, stderr and wall time of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # what a run from the shell prints as a traceback
                err.write(traceback.format_exc())
                code = None
    return code, err.getvalue(), time.perf_counter() - start


@settings(max_examples=80, deadline=None)
@given(
    documents(),
    st.sampled_from(["times", "min", "plus", "max", "table"]),
    st.sampled_from(TOLERANCES),
    st.booleans(),
)
def test_fuzzed_documents_exit_cleanly(tmp_path_factory, case, op, tol, crosscheck):
    doc, fn, bset = case
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, body in (("measure", doc), ("fn", fn), ("op", TABLE_OP)):
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(body))
    op = str(paths["op"]) if op == "table" else op
    common = ["--measure", str(paths["measure"]), "--op", op, "--tolerance", tol]
    integrate = ["integrate", *common, "--fn", str(paths["fn"])]
    integrate += ["--set", bset] if bset is not None else []
    integrate += ["--crosscheck"] if crosscheck else []
    for argv in (integrate, ["check", "--order", "0", *common]):
        code, err, seconds = run(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err and "RuntimeWarning" not in err, (argv, err)
        assert seconds < 5.0, (argv, seconds)
