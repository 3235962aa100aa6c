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
operation, or with a NaN, -Infinity or too large integer as a value, must
exit 1 with exactly one ``error:`` line. ``simulate`` runs in
both modes, with and without ``--set``, ``--eps`` and ``--csv``, at n up to
1000, on the same values as control masses. Drawn table operations, on
grids with and without 0 and inf, run through ``check --order 0 --op``,
``residual`` and ``density --method residual``. ``condition`` runs with and
without ``--suite`` under the exact builtins and under table operations whose
cells lie on their grid, named as a builtin or not; the suite goes off the
grid only where the conditional alone does. ``--set`` texts with an unknown
label, an empty piece, spaces around a label or blank text run through
``integrate``, ``esssup`` and ``simulate``, and a refusal is one ``error:``
line; so do ``--sub`` texts with an empty piece or block and labels no atom
may carry, through ``condition``. ``check --order 0`` on a set_function
document of up to 10 atoms with an inf value witnesses bounded variation as
it witnesses finiteness. set_function documents null-additive only within
tolerance run through ``esssup`` and the associated density, and no
essential supremum is refused for disagreeing with itself.
"""

import contextlib
import csv
import io
import json
import math
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


@st.composite
def set_texts(draw, labels):
    """A --set text: labels joined with "+", among them now and then the
    unknown label q, an empty piece (a+, +a, a++b) or a label with spaces
    around it, or blank text."""
    pieces = draw(st.lists(st.sampled_from([*labels, "q"]), min_size=1, max_size=4))
    flaw = draw(st.sampled_from([None, "empty", "spaces", "blank"]))
    if flaw == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    if flaw == "empty":
        pieces.insert(draw(st.integers(0, len(pieces))), "")
    elif flaw == "spaces":
        i = draw(st.integers(0, len(pieces) - 1))
        pieces[i] = f" {pieces[i]}\t"
    return "+".join(pieces)


@settings(max_examples=60, deadline=None)
@given(documents(), st.sampled_from(["integrate", "esssup", "simulate"]), st.data())
def test_fuzzed_set_texts_exit_cleanly(tmp_path_factory, case, verb, data):
    # a --set text names atoms by label; anything else is one error line
    doc, fn, _ = case
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for name, body in (("measure", doc), ("fn", fn), ("m", dict(fn, kind="additive"))):
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(body))
    argv = {
        "integrate": ["integrate", "--op", "times", "--measure", paths["measure"], "--fn", paths["fn"]],
        "esssup": ["esssup", "--measure", paths["measure"], "--fn", paths["fn"]],
        "simulate": ["simulate", "--m", paths["m"], "--p", "1", "--n", "10"],
    }[verb] + ["--set", data.draw(set_texts(list(fn["atoms"])))]
    code, err, seconds = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "RuntimeWarning" not in err, (argv, err)
    assert seconds < 5.0, (argv, seconds)
    if code == 1:
        assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)


@st.composite
def infinite_tables(draw):
    """A set_function document on 1 to 10 atoms with some infinite values."""
    k = draw(st.integers(1, 10))
    labels, space = space_doc(k)
    masks = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=1, max_size=16))
    pool = st.sampled_from(VALUES)
    table = {"+".join(labels[i] for i in range(k) if b >> i & 1): draw(pool) for b in masks}
    table[draw(st.sampled_from(sorted(table)))] = "inf"
    return {"schema": "1", "kind": "set_function", "space": space, "table": table}


@settings(max_examples=40, deadline=None)
@given(infinite_tables(), st.sampled_from(TOLERANCES))
def test_fuzzed_bounded_variation_is_witnessed_as_finiteness(tmp_path_factory, doc, tol):
    # an infinite value is witnessed by the least infinite mask at every size
    path = tmp_path_factory.mktemp("fuzz") / "w.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    code, err, _ = run(["check", "--order", "0", "--measure", str(path), "--tolerance", tol], out)
    assert code == 0, (doc, err)
    rep = json.loads(out.getvalue())["properties"]
    assert rep["of_bounded_variation"] is rep["finite"] is False
    assert rep["witnesses"]["of_bounded_variation"] == rep["witnesses"]["finite"]


@st.composite
def tolerant_tables(draw):
    """A set_function document on 2 to 6 atoms, null-additive only within
    tolerance: the table of a maxitive or additive measure with at least
    two zero atoms, the union of whose zero sets, and some other unions of
    them, are raised to at most 1e-10, so a union of two zero sets need not
    be one."""
    k = draw(st.integers(2, 6))
    labels, space = space_doc(k)
    vals = [float(v) for v in draw(st.lists(st.sampled_from(VALUES), min_size=k, max_size=k))]
    for i in draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True)):
        vals[i] = 0.0
    combine = max if draw(st.booleans()) else sum
    table = [combine([0.0] + [vals[i] for i in range(k) if b >> i & 1]) for b in range(1 << k)]
    zero = 0
    for b, v in enumerate(table):
        zero |= b if v == 0.0 else 0
    # the union of the zero sets first, or every set stays inside a zero set
    for b in [zero] + draw(st.lists(st.integers(3, (1 << k) - 1), max_size=3)):
        if b & ~zero == 0 and b & (b - 1):
            table[b] = draw(st.sampled_from([1e-10, 1e-12, 5e-324]))
    names = ["+".join(labels[i] for i in range(k) if b >> i & 1) for b in range(1 << k)]
    cells = {name: "inf" if math.isinf(v) else v for name, v in zip(names[1:], table[1:])}
    return {"schema": "1", "kind": "set_function", "space": space, "table": cells}


@settings(max_examples=40, deadline=None)
@given(tolerant_tables(), st.sampled_from(["times", "min", "plus", "max"]),
       st.sampled_from(TOLERANCES), st.data())
def test_fuzzed_tolerant_null_sets_exit_cleanly(tmp_path_factory, mu, op, tol, data):
    # a set is negligible iff each of its atoms lies in a zero set, so the
    # essential supremum has one definition and no cross-check to fail;
    # within 1e-9 the table is monotone and null-additive, and esssup runs
    root = tmp_path_factory.mktemp("fuzz")
    labels = mu["space"]["ground"]
    paths = {"mu": mu}
    for name in ("c1", "c2"):
        values = data.draw(st.lists(st.sampled_from(VALUES), min_size=len(labels), max_size=len(labels)))
        paths[name] = {"schema": "1", "kind": "function", "space": mu["space"],
                       "atoms": dict(zip(labels, values))}
    for name, body in list(paths.items()):
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(body))
    esssup = ["esssup", "--measure", paths["mu"], "--fn", paths["c1"], "--tolerance", tol]
    density = ["density", "--method", "associated", "--op", op, "--mu", paths["mu"],
               "--c1", paths["c1"], "--c2", paths["c2"], "--tolerance", tol]
    for argv in (esssup, density):
        code, err, seconds = run(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err and "RuntimeWarning" not in err, (argv, err)
        assert seconds < 5.0, (argv, seconds)
        assert "vs atom oracle" not in err, (argv, err)
        if argv is esssup and tol in ("1e-9", "0.1"):
            assert code == 0, (argv, err)


@st.composite
def table_ops(draw, off_grid=2):
    """A table operation document on part of GRID, 0 and inf included or not.

    Its cells lie on the grid but for up to ``off_grid``, drawn from VALUES
    or -0.0, and its left identity lies on the grid, off it or is absent.
    """
    # off 0 or inf the axiom check raises, so half the grids hold both
    ends = draw(st.booleans())
    grid = [g for g in GRID if ends and g in (0.0, "inf") or draw(st.booleans())]
    n = len(grid)
    on_grid = st.sampled_from(grid or [0.0])
    values = draw(st.lists(st.lists(on_grid, min_size=n, max_size=n), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, off_grid)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        values[i][j] = draw(st.sampled_from([-0.0, *VALUES]))
    doc = {"name": "drawn", "grid": grid, "values": values}
    identity = draw(st.none() | on_grid | st.sampled_from(VALUES))
    if identity is not None:
        doc["left_identity"] = identity
    return doc


@settings(max_examples=60, deadline=None)
@given(documents(), table_ops(), st.sampled_from(TOLERANCES), st.data())
def test_fuzzed_table_operations_exit_cleanly(tmp_path_factory, case, op, tol, data):
    # the axiom check reads the operation on its own grid and raises where
    # a cell or the identity lies off it; residual reads it at r and s, and
    # the residual density at inf and the values of tau, which lie off the
    # grid now and then. The finiteness flags of a table operation are
    # reported as computed, never refused for differing, and the integral
    # refuses an operation that is not monotone before its sweep, so its
    # crosscheck never ends in a mismatch of the two routes
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    tau = dict(case[1], kind="maxitive")
    for name, body in (("measure", case[0]), ("fn", case[1]), ("tau", tau), ("op", op)):
        paths[name] = str(root / f"{name}.json")
        (root / f"{name}.json").write_text(json.dumps(body))
    scalar = st.sampled_from(op["grid"] or [0.0]) | st.sampled_from(VALUES)
    residual = ["residual", paths["op"], str(data.draw(scalar)), str(data.draw(scalar))]
    check = ["check", "--order", "0", "--measure", paths["measure"], "--op", paths["op"],
             "--tolerance", tol]
    density = ["density", "--method", "residual", "--op", paths["op"], "--nu", paths["measure"],
               "--tau", paths["tau"], "--tolerance", tol]
    integrate = ["integrate", "--crosscheck", "--op", paths["op"], "--measure", paths["measure"],
                 "--fn", paths["fn"], "--tolerance", tol]
    for argv in (check, residual, density, integrate):
        code, err, seconds = run(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err and "RuntimeWarning" not in err, (argv, err)
        assert seconds < 5.0, (argv, seconds)
        assert "semi-finiteness must match" not in err, (argv, err)
        assert "level sweep" not in err, (argv, err)


@st.composite
def conditionings(draw):
    """A possibility document, a function document and a --sub text on up to
    six atoms. The text is a partition of the labels, or now and then one
    with an unknown label, a blank block, spaces around a block, an empty
    piece or block, or a label no atom may carry."""
    k = draw(st.integers(1, 6))
    labels, space = space_doc(k)
    # values on GRID half the time, so a table operation reads most of them
    unit = [v for v in VALUES if v != "inf" and v <= 1.0]
    poss = draw(st.lists(st.sampled_from(unit) | st.sampled_from(GRID[:3]), min_size=k, max_size=k))
    if draw(st.integers(0, 5)):
        poss[draw(st.integers(0, k - 1))] = 1.0
    pi = {"schema": "1", "kind": "possibility", "space": space, "atoms": dict(zip(labels, poss))}
    values = st.lists(st.sampled_from(VALUES) | st.sampled_from(GRID), min_size=k, max_size=k)
    x = {"schema": "1", "kind": "function", "space": space, "atoms": dict(zip(labels, draw(values)))}
    blocks = {}
    for lab in labels:
        blocks.setdefault(draw(st.integers(0, k)), []).append(lab)
    parts = ["+".join(block) for block in blocks.values()]
    flaw = draw(st.none() | st.none() | st.sampled_from(
        ["unknown", "blank", "spaces", "empty", "label"]))
    if flaw == "unknown":
        parts.append("q")
    elif flaw == "blank":
        parts.insert(draw(st.integers(0, len(parts))), " ")
    elif flaw == "spaces" and parts:
        parts[0] = f" {parts[0]}\t"
    elif flaw == "empty":
        # an empty piece in a block (a+, +a) or an empty block (|a, a|, a||b)
        parts.insert(draw(st.integers(0, len(parts))), draw(st.sampled_from(["", "x0+", "+x0"])))
    elif flaw == "label":
        # a label build_space refuses, so no atom carries it
        parts.append(draw(st.sampled_from(["x 0", "x0\n", "x+", "\u00a0", "x|0"])))
    return pi, x, "|".join(parts)


@settings(max_examples=80, deadline=None)
@given(
    conditionings(),
    st.sampled_from(["times", "min", "grid-min", "drawn"]),
    table_ops(off_grid=0),
    st.sampled_from(["drawn", "min", "times"]),
    st.sampled_from(TOLERANCES),
)
def test_fuzzed_conditionings_exit_cleanly(tmp_path_factory, case, op, drawn, name, tol):
    # a table operation whose cells lie on its grid, min on GRID or drawn,
    # under any name; the suite probes it on its grid, so it goes off the
    # grid only where the conditional alone does
    pi, x, sub = case
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    table = dict(TABLE_OP if op == "grid-min" else drawn, name=name)
    for key, body in (("pi", pi), ("x", x), ("op", table)):
        paths[key] = str(root / f"{key}.json")
        (root / f"{key}.json").write_text(json.dumps(body))
    op = paths["op"] if op in ("grid-min", "drawn") else op
    argv = ["condition", "--op", op, "--pi", paths["pi"], "--x", paths["x"], "--sub", sub,
            "--tolerance", tol]
    errs = []
    for extra in ([], ["--suite"]):
        code, err, seconds = run(argv + extra)
        assert code in (0, 1, 2), (argv, extra, code, err)
        assert "Traceback" not in err and "RuntimeWarning" not in err, (argv, extra, err)
        assert seconds < 5.0, (argv, extra, seconds)
        errs.append(err)
    if "off the declared grid" in errs[1]:
        assert "off the declared grid" in errs[0], (argv, table, errs)


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


#: JSON values that parse but are no float in [0, inf]: the NaN and
#: -Infinity literals and integers too large for a float
NON_VALUES = st.sampled_from([math.nan, -math.inf]) | st.integers(2 ** 1024, 10 ** 400)


@st.composite
def malformed(draw):
    """A flawed document, the role it is passed in, and the flaw's name.

    Each flaw puts a JSON value of the wrong type where the loader reads a
    document, a space, its labels, an atom or table container, a value (a
    boolean among them), or a table operation's name, grid, rows and left
    identity. A value, a grid point, a cell or a left identity may instead
    be one of NON_VALUES.
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
            doc["left_identity"] = draw(st.sampled_from([True, False, {}, [1]]) | NON_VALUES)
        elif flaw == "grid":
            doc["grid"] = draw(st.sampled_from([None, 1, {"x": 1}]))
        elif flaw == "grid-value":
            doc["grid"] = [0, draw(st.sampled_from([None, {}, [1]]) | NON_VALUES)]
        elif flaw == "rows":
            doc["values"] = draw(st.sampled_from([[0, 1], None, 1, [[0, 0], 1]]))
        else:
            doc["values"] = [[0, draw(st.sampled_from([None, {}, [1]]) | NON_VALUES)], [0, 1]]
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
        doc[entries][key] = draw(
            st.sampled_from([None, {}, [1], [], {"x": 1}, True, False]) | NON_VALUES)
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
