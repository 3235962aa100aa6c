"""Random documents through the command line, in-process.

Each call of ``cli.main`` must exit 0, 1 or 2, leave no traceback and no
RuntimeWarning on stderr, and return within a few seconds. This covers
``integrate`` (with and without ``--set`` and ``--crosscheck``) and
``check --order 0 --op`` under the builtin operations and one table
operation, and ``check`` at orders 1 to 5, ``esssup`` (with and without
``--set``), ``decompose``, ``variation``, the envelope and associated
densities, and the residual density under ``times`` and the table
operation, on maxitive, additive, possibility and set_function documents.
Atom counts run to 12, where every table is small, and from 22 to 30, above
the 21 atoms that a table admits, where a table is refused before it is
allocated and the atom routes run.
A document of the wrong JSON shape, as a measure, a function or a table
operation, must exit 1 with exactly one ``error:`` line. ``simulate`` runs in
both modes, with and without ``--set``, ``--eps`` and ``--csv``, at n up to
1000, on the same values as control masses.
"""

import contextlib
import csv
import io
import json
import time
import traceback
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from maxitive import cli

#: 0 and inf, sums that overflow, values that underflow, and a few moderate ones
VALUES = ["inf", 0.0, -0.0, 1e308, 1.7e308, 1e-300, 5e-324, 0.5, 1.0, 2.0]
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


def run(argv, out=None):
    """Exit code, stderr and wall time of one in-process call, whose stdout
    goes to out, a text buffer, when one is given."""
    out, err = io.StringIO() if out is None else out, io.StringIO()
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


@settings(max_examples=100, deadline=None)
@given(
    documents(),
    st.sampled_from(["check", "alternation", "esssup", "decompose", "variation",
                     "envelope", "residual", "residual-table", "associated"]),
    st.integers(1, 5),
    st.sampled_from(TOLERANCES),
)
def test_fuzzed_verdicts_exit_cleanly(tmp_path_factory, case, verb, order, tol):
    doc, fn, bset = case
    root = tmp_path_factory.mktemp("fuzz")
    # the function's values as a maxitive and an additive measure, and
    # reversed as a second function
    tau = dict(fn, kind="maxitive")
    m = dict(fn, kind="additive")
    c2 = dict(fn, atoms=dict(zip(fn["atoms"], reversed(fn["atoms"].values()))))
    paths = {}
    for name, body in (("measure", doc), ("fn", fn), ("tau", tau), ("m", m), ("c2", c2),
                       ("op", TABLE_OP)):
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(body))
    density = ["density", "--op", "times", "--method"]
    residual = ["residual", "--nu", paths["measure"], "--tau", paths["tau"]]
    argv = {
        "check": ["check", "--measure", paths["measure"]],
        "alternation": ["check", "--order", str(order), "--measure", paths["measure"]],
        "esssup": ["esssup", "--measure", paths["measure"], "--fn", paths["fn"]],
        "decompose": ["decompose", "--nu", paths["measure"]],
        "variation": ["variation", "--nu", paths["measure"]],
        "envelope": density + ["envelope", "--nu", paths["measure"], "--m", paths["m"]],
        "residual": density + residual,
        "residual-table": ["density", "--op", paths["op"], "--method"] + residual,
        "associated": density + ["associated", "--mu", paths["measure"],
                                 "--c1", paths["fn"], "--c2", paths["c2"]],
    }[verb] + ["--tolerance", tol]
    if verb == "esssup" and bset is not None:
        argv += ["--set", bset]
    code, err, seconds = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "RuntimeWarning" not in err, (argv, err)
    assert seconds < 5.0, (argv, seconds)


#: valid tail indices and cutoffs: the ends of their ranges and draws between
TAILS = st.sampled_from(["0.05", "0.5", "1", "2", "7"]) | st.floats(0.05, 7.0).map(repr)
CUTOFFS = st.sampled_from(["1e-06", "0.001", "0.5"]) | st.floats(1e-6, 0.5).map(repr)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.sampled_from(VALUES), min_size=1, max_size=8),
    st.sampled_from(["exact", "poisson"]),
    # an out-of-range value in about one draw of five
    TAILS | TAILS | st.sampled_from(["0", "-1", "nan"]),
    CUTOFFS | CUTOFFS | st.sampled_from(["0", "-1", "inf"]),
    st.integers(0, 1000),
    st.data(),
)
def test_fuzzed_simulations_exit_cleanly(tmp_path_factory, masses, mode, p, eps, n, data):
    # the report's draws, which take the power once per row, equal the --csv
    # value column, which takes it once per cell, bit for bit
    labels = [f"x{i}" for i in range(len(masses))]
    argv = ["simulate", "--atoms", ",".join(f"{lab}:{v}" for lab, v in zip(labels, masses)),
            "--mode", mode, "--p", p, "--eps", eps, "--n", str(n),
            "--seed", str(data.draw(st.integers(0, 2**32 - 1)))]
    bset = data.draw(st.none() | st.lists(st.sampled_from([*labels, "q"]), min_size=1,
                                          unique=True).map("+".join))
    argv += ["--set", bset] if bset is not None else []
    csv_path = tmp_path_factory.mktemp("fuzz") / "draws.csv"
    reports = []
    for extra in ([], ["--csv", str(csv_path)]):
        out = io.StringIO()
        code, err, seconds = run(argv + extra, out)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err and "RuntimeWarning" not in err, (argv, err)
        assert seconds < 5.0, (argv, seconds)
        reports.append((code, out.getvalue()))
    assert reports[0][0] == reports[1][0], (argv, reports)
    if reports[0][0] != 0:
        return
    draws = [json.loads(text)["draws"] for _, text in reports]
    assert draws[0] == draws[1], argv
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == n + 1, argv
    want = np.array([float(v) for v in draws[0]])
    got = np.array([float(row[-1]) for row in rows[1:]])
    assert got.tobytes() == want.tobytes(), argv


@st.composite
def malformed(draw):
    """A flawed document, the role it is passed in, and the flaw's name.

    Each flaw puts a JSON value of the wrong type where the loader reads a
    document, a space, its labels, an atom or table container, a value (a
    boolean among them), or a table operation's name, grid, rows and left
    identity.
    """
    role = draw(st.sampled_from(["measure", "fn", "op"]))
    if role == "op":
        flaw = draw(st.sampled_from(
            ["top", "name", "grid", "grid-value", "rows", "row-value", "identity"]))
        doc = {"name": "flawed", "grid": [0, 1], "values": [[0, 0], [0, 1]]}
        if flaw == "top":
            return role, draw(st.sampled_from([[1], None, 1, "x"])), flaw
        if flaw == "name":
            doc["name"] = draw(st.sampled_from([["t"], {"x": 1}, 1, None, True]))
        elif flaw == "identity":
            doc["left_identity"] = draw(st.sampled_from([True, False, {}, [1]]))
        elif flaw == "grid":
            doc["grid"] = draw(st.sampled_from([None, 1, {"x": 1}]))
        elif flaw == "grid-value":
            doc["grid"] = [0, draw(st.sampled_from([None, {}, [1]]))]
        elif flaw == "rows":
            doc["values"] = draw(st.sampled_from([[0, 1], None, 1, [[0, 0], 1]]))
        else:
            doc["values"] = [[0, draw(st.sampled_from([None, {}, [1]]))], [0, 1]]
        return role, doc, flaw
    kind = "function" if role == "fn" else draw(
        st.sampled_from(["maxitive", "additive", "possibility", "set_function"]))
    labels = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    space = {"ground": labels, "blocks": [[lab] for lab in labels]}
    entries = "table" if kind == "set_function" else "atoms"
    keys = ["+".join(labels[: i + 1]) for i in range(len(labels))] if kind == "set_function" else labels
    doc = {"schema": "1", "kind": kind, "space": space, entries: dict.fromkeys(keys, 1.0)}
    flaw = draw(st.sampled_from(
        ["top", "space", "ground", "blocks", "block", "label", entries, "value"]))
    if flaw == "top":
        return role, draw(st.sampled_from([[1, 2], None, 1, "x"])), flaw
    if flaw == "space":
        doc["space"] = draw(st.sampled_from([[], None, 1, "ab"]))
    elif flaw == "ground":
        space["ground"] = draw(st.sampled_from(["".join(labels), None, 1, {"x0": 1}]))
    elif flaw == "blocks":
        space["blocks"] = draw(st.sampled_from([[1], None, 1, "".join(labels)]))
    elif flaw == "block":
        space["blocks"][-1] = draw(st.sampled_from([1, None, labels[-1], {labels[-1]: 1}]))
    elif flaw == "label":
        bad = draw(st.sampled_from([["x"], {"x": 1}]))
        space["ground"][-1] = bad
        space["blocks"][-1] = [bad]
    elif flaw == entries:
        doc[entries] = draw(st.sampled_from([None, 1, "ab", [1], [], [[1]]]))
    else:
        key = draw(st.sampled_from(sorted(doc[entries])))
        doc[entries][key] = draw(st.sampled_from([None, {}, [1], [], {"x": 1}, True, False]))
    return role, doc, flaw


#: the commands that read a document in each role, as argv templates
READERS = {
    "measure": [
        ["check", "--order", "0", "--measure", "{measure}"],
        ["decompose", "--nu", "{measure}"],
        ["esssup", "--measure", "{measure}", "--fn", "{fn}"],
        ["density", "--method", "residual", "--nu", "{measure}", "--tau", "{measure}"],
    ],
    "fn": [
        ["esssup", "--measure", "{measure}", "--fn", "{fn}"],
        ["integrate", "--op", "times", "--measure", "{measure}", "--fn", "{fn}"],
    ],
    "op": [
        ["check", "--order", "0", "--measure", "{measure}", "--op", "{op}"],
        ["integrate", "--op", "{op}", "--measure", "{measure}", "--fn", "{fn}"],
        ["density", "--method", "residual", "--op", "{op}", "--nu", "{measure}",
         "--tau", "{measure}"],
    ],
}


@settings(max_examples=120, deadline=None)
@given(malformed(), st.data())
def test_malformed_documents_exit_with_one_error_line(tmp_path_factory, case, data):
    role, body, flaw = case
    root = tmp_path_factory.mktemp("malformed")
    good = {"schema": "1", "kind": "maxitive",
            "space": {"ground": ["x0"], "blocks": [["x0"]]}, "atoms": {"x0": 1.0}}
    paths = {}
    for name, doc in (("measure", good), ("fn", dict(good, kind="function")), ("op", TABLE_OP)):
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(body if name == role else doc))
    argv = [arg.format(**paths) for arg in data.draw(st.sampled_from(READERS[role]))]
    code, err, _ = run(argv)
    assert code == 1, (flaw, body, argv, code, err)
    assert err.count("\n") == 1 and err.startswith("error: "), (flaw, body, argv, err)
