"""The command line interface, exercised through real subprocesses."""

import errno
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import measure_doc, write_doc
from maxitive import cli, modelio
from maxitive.additive import AdditiveMeasure
from maxitive.errors import ExplicitBudgetExceeded
from maxitive.measures import MaxitiveMeasure, classify
from maxitive.spaces import SetFunction, build_space


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "maxitive", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


@pytest.fixture
def docs(tmp_path):
    paths = {}
    paths["nu"] = write_doc(
        tmp_path / "nu.json", measure_doc("maxitive", ["a", "b", "c"], [1, 2, 0.5])
    )
    paths["tau"] = write_doc(
        tmp_path / "tau.json", measure_doc("maxitive", ["a", "b", "c"], [2, 2, 1])
    )
    paths["m"] = write_doc(
        tmp_path / "m.json", measure_doc("additive", ["a", "b", "c"], [1, 0.5, 2])
    )
    paths["f"] = write_doc(
        tmp_path / "f.json", measure_doc("function", ["a", "b", "c"], [3, 1, 4])
    )
    paths["pi"] = write_doc(
        tmp_path / "pi.json",
        measure_doc("possibility", ["a", "b", "c", "d"], [1, 0.5, 0.25, 1]),
    )
    paths["x"] = write_doc(
        tmp_path / "x.json", measure_doc("function", ["a", "b", "c", "d"], [2, 5, 3, 1])
    )
    paths["tmp"] = tmp_path
    return paths


def test_integrate(docs):
    proc = run_cli(
        "integrate", "--op", "times", "--measure", docs["nu"], "--fn", docs["f"],
        "--crosscheck",
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["command"] == "integrate"
    assert out["result"]["value"] == 3.0
    assert out["op"] == "times"


def test_integrate_on_set(docs):
    proc = run_cli(
        "integrate", "--op", "min", "--measure", docs["nu"], "--fn", docs["f"],
        "--set", "b+c",
    )
    out = json.loads(proc.stdout)
    # min(1,2)=1 on b, min(4,0.5)=0.5 on c
    assert out["result"]["value"] == 1.0
    assert out["set"] == "b+c"


def test_crosscheck_on_24_atoms_is_refused_not_swept(tmp_path, capsys):
    labels = [f"x{i}" for i in range(24)]
    nu = write_doc(tmp_path / "nu.json",
                   measure_doc("maxitive", labels, [(i % 5) / 4 for i in range(24)]))
    f = write_doc(tmp_path / "f.json",
                  measure_doc("function", labels, [(i % 7) / 2 for i in range(24)]))
    argv = ["integrate", "--op", "times", "--measure", nu, "--fn", f]
    start = time.perf_counter()
    assert cli.main(argv + ["--crosscheck"]) == 1
    # 2^24 submasks would take minutes; the budget refuses before the sweep
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert "atom table on 24 atoms needs 402653184 cells; budget is 50000000" in out.err
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["value"] == 2.5


def test_crosscheck_on_20_atoms_finishes_within_seconds(tmp_path, capsys):
    labels = [f"x{i}" for i in range(20)]
    nu = write_doc(tmp_path / "nu.json",
                   measure_doc("maxitive", labels, [(i % 5) / 4 for i in range(20)]))
    f = write_doc(tmp_path / "f.json",
                  measure_doc("function", labels, [(i % 7) / 2 for i in range(20)]))
    argv = ["integrate", "--op", "times", "--measure", nu, "--fn", f]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    start = time.perf_counter()
    assert cli.main(argv + ["--crosscheck"]) == 0
    # the 2^20 submasks are read as tables, about 0.2 s
    assert time.perf_counter() - start < 3.0
    assert capsys.readouterr().out == plain


def test_bounded_variation_witness_is_the_least_infinite_mask_at_every_size(tmp_path, capsys):
    # inf on atom 3 of 10 and of 11 atoms: the same witnesses, each the
    # least infinite set {x3} or its atom
    witnesses = []
    for k in (10, 11):
        labels = [f"x{i}" for i in range(k)]
        vals = [1.0] * k
        vals[3] = "inf"
        path = write_doc(tmp_path / f"nu{k}.json", measure_doc("maxitive", labels, vals))
        assert cli.main(["check", "--order", "0", "--measure", path]) == 0
        rep = json.loads(capsys.readouterr().out)["properties"]
        assert rep["of_bounded_variation"] is False
        witnesses.append(rep["witnesses"])
    assert witnesses[0] == witnesses[1] == {
        "finite": 8, "normed": "inf", "of_bounded_variation": 8, "sigma_finite": 3}


@pytest.mark.parametrize("k, witness", [(10, 1 << 9), (11, 1 << 10)], ids=["10-witness0", "11-1024"])
def test_bounded_variation_witness_is_a_partition_up_to_ten_atoms(k, witness, tmp_path, capsys):
    # named for the partition witness that 10 atoms used to print; at every
    # size the witness is now the least infinite mask b, the infinite block
    # of the partition {b, S minus b}: here the last atom
    labels = [f"x{i}" for i in range(k)]
    path = write_doc(tmp_path / "nu.json", measure_doc("maxitive", labels, [1.0] * (k - 1) + ["inf"]))
    assert cli.main(["check", "--order", "0", "--measure", path]) == 0
    rep = json.loads(capsys.readouterr().out)["properties"]
    assert rep["of_bounded_variation"] is False
    assert rep["witnesses"]["of_bounded_variation"] == rep["witnesses"]["finite"] == witness


@pytest.mark.parametrize("k", [10, 11])
def test_bounded_variation_witness_of_a_set_function_document(k, tmp_path, capsys):
    # a table infinite on {x2, x5} alone: the witness is that set, as
    # finiteness's is, at every size
    labels = [f"x{i}" for i in range(k)]
    table = {
        "+".join(labels[i] for i in range(k) if b >> i & 1): "inf" if b == 0b100100 else float(b.bit_count())
        for b in range(1, 1 << k)
    }
    doc = {"schema": "1", "kind": "set_function",
           "space": {"ground": labels, "blocks": [[lab] for lab in labels]}, "table": table}
    path = write_doc(tmp_path / "w.json", doc)
    assert cli.main(["check", "--order", "0", "--measure", path]) == 0
    rep = json.loads(capsys.readouterr().out)["properties"]
    assert rep["of_bounded_variation"] is False
    assert rep["witnesses"]["of_bounded_variation"] == rep["witnesses"]["finite"] == 0b100100


def test_bounded_variation_witness_of_a_non_monotone_table(tmp_path, capsys):
    # b is infinite and a+b is not: the witness is {b}, not a partition
    table = {"a": 1, "b": "inf", "c": 1, "a+b": 2, "a+c": 2, "b+c": 3, "a+b+c": 4}
    doc = {"schema": "1", "kind": "set_function",
           "space": {"ground": list("abc"), "blocks": [["a"], ["b"], ["c"]]}, "table": table}
    path = write_doc(tmp_path / "w.json", doc)
    assert cli.main(["check", "--order", "0", "--measure", path]) == 0
    rep = json.loads(capsys.readouterr().out)["properties"]
    assert (rep["monotone"], rep["of_bounded_variation"]) == (False, False)
    assert rep["witnesses"]["of_bounded_variation"] == rep["witnesses"]["finite"] == 2


def test_oversized_set_function_document_is_refused_before_its_table(tmp_path, capsys):
    labels = [f"x{i}" for i in range(24)]
    doc = {
        "schema": "1",
        "kind": "set_function",
        "space": {"ground": labels, "blocks": [[l] for l in labels]},
        "table": {"x0": 1},
    }
    path = write_doc(tmp_path / "w.json", doc)
    # a 2^24-entry table would take over 100 MB before the cap refused it
    tracemalloc.start()
    try:
        assert cli.main(["check", "--measure", path]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: set-function table on 24 atoms needs 402653184 cells; "
        "budget is 50000000\n"
    )
    assert peak < 10 * 2**20, peak


def _table_doc(path, measure):
    return write_doc(path, modelio.measure_to_json(measure.to_set_function()))


def test_set_function_documents_on_13_atoms_are_priced_at_their_work(tmp_path, capsys):
    # the table is priced at what it holds, so 13 atoms load; a maxitive
    # table passes the bitwise test, and a table that fails it is refused at
    # the 4^13-cell pair scan that would find its witness
    labels = [f"x{i}" for i in range(13)]
    sp = build_space(labels, [[l] for l in labels])
    path = _table_doc(tmp_path / "max.json", MaxitiveMeasure(sp, [i % 4 for i in range(13)]))
    assert cli.main(["check", "--order", "0", "--measure", path]) == 0
    assert json.loads(capsys.readouterr().out)["properties"]["maxitive"] is True
    path = _table_doc(tmp_path / "add.json", AdditiveMeasure(sp, [1.0] * 13))
    assert cli.main(["check", "--order", "0", "--measure", path]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: pair scan on 13 atoms needs 67108864 cells; budget is 50000000\n"
    # refused before the scan allocates anything
    w = modelio.load_measure(path)
    tracemalloc.start()
    try:
        with pytest.raises(ExplicitBudgetExceeded, match="pair scan on 13 atoms"):
            classify(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_condition_on_200_blocks_checks_blocks_not_their_unions(tmp_path, capsys):
    # at 1600 blocks too: the per-block work must stay linear in each
    # block's atom count
    for n in (200, 1600):
        labels = [f"x{i}" for i in range(n)]
        pi = write_doc(tmp_path / "pi.json", measure_doc(
            "possibility", labels, [1.0] + [(i % 9 + 1) / 10 for i in range(n - 1)]))
        x = write_doc(tmp_path / "x.json",
                      measure_doc("function", labels, [(i % 7) / 2 for i in range(n)]))
        argv = ["condition", "--op", "times", "--pi", pi, "--x", x, "--sub", "|".join(labels)]
        for extra in ([], ["--suite"]):
            start = time.perf_counter()
            assert cli.main(argv + extra) == 0
            # 2^n unions of blocks could never be swept
            assert time.perf_counter() - start < 5.0, (n, extra)
            out = json.loads(capsys.readouterr().out)
            assert len(out["blocks"]) == n
            if extra:
                laws = {k: v for k, v in out["suite"].items() if k not in ("y", "details")}
                assert all(v is True for v in laws.values()) and len(laws) == 7, laws


def test_check(docs):
    proc = run_cli("check", "--measure", docs["nu"], "--order", "3", "--op", "times")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["properties"]["maxitive"] is True
    assert out["alternation"]["ok"] is True
    assert out["axioms"]["pseudo_multiplication"] is True
    assert out["finiteness"]["odot_finite"] is True


def test_check_reports_finiteness_that_differs_under_a_table_operation(tmp_path, capsys):
    # inf is op-finite here and 1 is not, so a measure with atoms 1 and inf
    # is op-finite but not semi-finite; the three flags are printed as they
    # are, beside the properties and the axioms, and the command exits 0
    op = {"grid": [0, 1, "inf"], "values": [[0, 0, 0], [0, 1, 0], [0, 1, 0]]}
    op_path = write_doc(tmp_path / "op.json", op)
    nu = write_doc(tmp_path / "nu.json", measure_doc("maxitive", ["a", "b"], [1, "inf"]))
    assert cli.main(["check", "--order", "0", "--measure", nu, "--op", op_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["properties"]["maxitive"] is True
    assert out["axioms"]["pseudo_multiplication"] is False
    assert out["finiteness"] == {
        "odot_finite": True, "sigma_odot_finite": False, "semi_odot_finite": False
    }


@pytest.mark.parametrize("crosscheck", [[], ["--crosscheck"]])
def test_integrate_refuses_an_operation_that_is_not_monotone(tmp_path, capsys, crosscheck):
    # op(1, inf) = 0 < op(1, 1) = 1, so the level sweep is not the integral:
    # it gave 0.0 against 1.0 over the submasks. The integral refuses before
    # its sweep and names the axiom and the first pair (s, t) where it fails
    op = {"grid": [0, 1, "inf"], "values": [[0, 0, 0], [0, 1, 0], [0, 1, 0]]}
    op_path = write_doc(tmp_path / "op.json", op)
    nu = write_doc(tmp_path / "nu.json", measure_doc("maxitive", ["a", "b"], [1, "inf"]))
    f = write_doc(tmp_path / "f.json", measure_doc("function", ["a", "b"], [1, 1]))
    argv = ["integrate", "--op", op_path, "--measure", nu, "--fn", f, *crosscheck]
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (
        "error: the integral needs a monotone operation; 'custom' is not monotone "
        "on its grid at (s, t) = (inf, 1.0)\n"
    )


def test_check_at_tolerance_zero_flags_a_drop_from_inf(tmp_path, capsys):
    doc = {
        "schema": "1",
        "kind": "set_function",
        "space": {"ground": ["a", "b"], "blocks": [["a"], ["b"]]},
        "table": {"a": "inf", "b": 1, "a+b": 1},
    }
    path = write_doc(tmp_path / "w.json", doc)
    assert cli.main(["check", "--measure", path, "--tolerance", "0"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    props = json.loads(out.out)["properties"]
    assert props["monotone"] is False
    assert props["witnesses"]["monotone"] == [1, 3]


def test_check_prints_a_signed_zero_as_zero(tmp_path):
    path = write_doc(tmp_path / "z.json", measure_doc("maxitive", ["a", "b"], [-0.0, 2.0]))
    proc = run_cli("check", "--measure", path, "--order", "0")
    assert proc.returncode == 0, proc.stderr
    vals = json.loads(proc.stdout)["properties"]["atom_values"]
    assert vals == [0.0, 2.0] and math.copysign(1.0, vals[0]) == 1.0
    assert "-0.0" not in proc.stdout


def test_check_names_a_value_off_a_table_operation_grid(tmp_path, capsys):
    op = write_doc(tmp_path / "op.json", {
        "grid": [0, 1, "inf"],
        "values": [[0, 0, 0], [0, 1, 1], [0, 1, "inf"]],
        "left_identity": "inf",
        "name": "json-min",
    })
    nu = write_doc(tmp_path / "nu.json", measure_doc("maxitive", ["a", "b"], [1, 2]))
    assert cli.main(["check", "--measure", nu, "--order", "0", "--op", op]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 2.0 is off the declared grid of 'json-min'\n"


def test_esssup(docs):
    proc = run_cli("esssup", "--measure", docs["nu"], "--fn", docs["f"])
    out = json.loads(proc.stdout)
    assert out["value"] == 4.0


def test_density_residual(docs):
    proc = run_cli(
        "density", "--method", "residual", "--op", "times",
        "--nu", docs["nu"], "--tau", docs["tau"],
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["density"]["atoms"] == {"a": 0.5, "b": 1.0, "c": 0.5}


def test_density_residual_under_a_table_operation(tmp_path, capsys):
    # an exact operation given as a table is not a builtin, so nu's
    # absolute continuity is checked on every set of the two tables
    grid = [0, 0.5, 1, 2, "inf"]
    op = write_doc(tmp_path / "op.json", {
        "name": "grid-min", "grid": grid, "left_identity": "inf",
        "values": [[grid[min(i, j)] for j in range(5)] for i in range(5)],
    })
    labels = ["a", "b", "c", "d"]
    tau = write_doc(tmp_path / "tau.json", measure_doc("maxitive", labels, [1, 1, 2, "inf"]))
    nu = write_doc(tmp_path / "nu.json", measure_doc("maxitive", labels, [0.5, 1, 0, "inf"]))
    density = ["density", "--method", "residual", "--op", op, "--tau", tau]
    assert cli.main(density + ["--nu", nu]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["op"] == "grid-min"
    assert out["density"]["atoms"] == {"a": 0.5, "b": 1.0, "c": 0.0, "d": "inf"}
    # min(inf, tau_a) = 1 lies below nu_a = 2
    bad = write_doc(tmp_path / "bad.json", measure_doc("maxitive", labels, [2, 1, 0, 0]))
    assert cli.main(density + ["--nu", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: nu is not grid-min-absolutely continuous; witness mask 1\n"


def test_density_envelope(docs):
    proc = run_cli(
        "density", "--method", "envelope", "--nu", docs["nu"], "--m", docs["m"]
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["density"]["atoms"] == {"a": 1.0, "b": 2.0, "c": 0.5}
    assert out["reconstruction_ok"] is True


def test_density_refusal_exits_one(docs, tmp_path):
    bad = write_doc(
        tmp_path / "bad.json", measure_doc("maxitive", ["a", "b", "c"], [1, 0, 0])
    )
    ref = write_doc(
        tmp_path / "ref.json", measure_doc("maxitive", ["a", "b", "c"], [0, 1, 1])
    )
    proc = run_cli("density", "--method", "residual", "--nu", bad, "--tau", ref)
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert proc.stdout == ""


def test_envelope_density_with_an_inf_atom_keeps_large_finite_atoms(tmp_path):
    nu = write_doc(
        tmp_path / "nu.json",
        measure_doc("maxitive", ["a", "b", "c"], ["inf", 4609817.575, 1e12]),
    )
    m = write_doc(tmp_path / "m.json", measure_doc("additive", ["a", "b", "c"], [1, 1.7, 2]))
    proc = run_cli("density", "--method", "envelope", "--nu", nu, "--m", m)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    out = json.loads(proc.stdout)
    assert out["density"]["atoms"] == {"a": "inf", "b": 4609817.575, "c": 1e12}
    assert out["transformed"] is True
    assert out["reconstruction_ok"] is True


def test_envelope_reconstruction_of_an_overflowing_atom_sum(tmp_path):
    nu = write_doc(tmp_path / "nu.json", measure_doc("maxitive", ["a", "b"], [1e308, 1e308]))
    m = write_doc(tmp_path / "m.json", measure_doc("additive", ["a", "b"], [1, 1]))
    proc = run_cli("density", "--method", "envelope", "--nu", nu, "--m", m)
    assert proc.returncode == 0
    assert proc.stderr == ""
    out = json.loads(proc.stdout)
    assert out["density"]["atoms"] == {"a": 1e308, "b": 1e308}
    assert out["reconstruction_ok"] is True


def test_envelope_reconstruction_at_tolerance_zero(tmp_path, capsys):
    # in float64 the mediant of atoms c and d rounds one ulp above 1e-10;
    # the sup of the envelope ratios is attained at an atom, where it is nu
    labels = ["a", "b", "c", "d"]
    nu = write_doc(tmp_path / "nu.json", measure_doc("maxitive", labels, [0, 0, 1e-10, 1e-10]))
    m = write_doc(tmp_path / "m.json", measure_doc(
        "additive", labels, [26.389728284, 0, 750.565338406, 0.083029034]))
    argv = ["density", "--method", "envelope", "--nu", nu, "--m", m, "--tolerance", "0"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["reconstruction_ok"] is True


def test_envelope_density_at_tolerance_zero_is_not_refused(tmp_path, capsys):
    # nu(b) m(b) >= the sum of nu_i m_i holds on every set b; its float
    # re-check put the block {b, c} one ulp below its singleton sum
    labels = ["a", "b", "c", "d"]
    nu = write_doc(tmp_path / "nu.json", measure_doc("maxitive", labels, [5.6727] * 4))
    m = write_doc(tmp_path / "m.json", measure_doc("additive", labels, [7.69, 1.26, 0.17, 0.88]))
    argv = ["density", "--method", "envelope", "--nu", nu, "--m", m, "--tolerance", "0"]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["density"]["atoms"] == dict.fromkeys(labels, 5.6727)
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", out.out)


@pytest.mark.parametrize(
    "nu, m, message",
    [
        # a singleton product of two finite factors overflows
        ([9e307, 0, 0], [3.24, 0, 0], "error: product nu * m overflows on atom 0: 9e+307 * 3.24"),
        # infinite m-mass where nu is positive: no density is determined
        (
            [4.419498912558229, 1, 0],
            ["inf", 1, 1],
            "error: m has infinite mass on atom 0 where nu is positive,"
            " so the density is not determined there",
        ),
    ],
)
def test_envelope_density_refusals_are_one_error_line(nu, m, message, tmp_path):
    nu = write_doc(tmp_path / "nu.json", measure_doc("maxitive", ["a", "b", "c"], nu))
    m = write_doc(tmp_path / "m.json", measure_doc("additive", ["a", "b", "c"], m))
    proc = run_cli("density", "--method", "envelope", "--nu", nu, "--m", m)
    assert proc.returncode == 1
    assert proc.stdout == ""
    # exactly one line: no RuntimeWarning from numpy precedes it
    assert proc.stderr == message + "\n"


# A JSON integer too large for a float, 10^400 in digits, is refused where it
# is decoded: as an atom, a set function's table entry or a table operation's
# cell, with one error line and no OverflowError traceback.
@pytest.mark.parametrize("where", ["atom", "table entry", "operation cell"])
def test_a_json_integer_too_large_for_a_float_is_one_error_line(where, tmp_path):
    big = 10 ** 400
    path = tmp_path / "doc.json"
    if where == "atom":
        argv = ["decompose", "--nu", write_doc(path, measure_doc("maxitive", "ab", [big, 0.5]))]
    elif where == "table entry":
        doc = {"schema": "1", "kind": "set_function",
               "space": {"ground": ["a", "b"], "blocks": [["a"], ["b"]]},
               "table": {"a": 1, "b": big, "a+b": 2}}
        argv = ["check", "--order", "0", "--measure", write_doc(path, doc)]
    else:
        doc = {"grid": [0, 1], "values": [[0, 0], [0, big]]}
        argv = ["residual", write_doc(path, doc), "1", "1"]
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: an integer value of 1329 bits does not fit in a float\n"


# A number past the float range is refused in every spelling, not read as
# inf: a JSON float literal, a value string and a command-line value, each
# with one error line. The spellings of inf, and the largest floats, load.
@pytest.mark.parametrize("text, want", [
    ("1e400", "error: the number 1e400 does not fit in a float\n"),
    ('"1e400"', "error: the value 1e400 does not fit in a float\n"),
    (None, "error: the value 1e400 does not fit in a float\n"),
    ('"inf"', "inf"),
    ("Infinity", "inf"),
    ("1.7e308", 1.7e308),
    ("-1e400", "error: the number -1e400 does not fit in a float\n"),
    ('"-1e400"', "error: the value -1e400 does not fit in a float\n"),
    ('"-inf"', "error: values must lie in [0, inf], got -inf\n"),
], ids=["literal", "string", "argument", "inf-string", "Infinity", "largest",
        "negative-literal", "negative-string", "negative-inf-string"])
def test_a_number_past_the_float_range_is_refused_in_every_spelling(text, want, tmp_path):
    if text is None:
        proc = run_cli("residual", "times", "1e400", "1")
    else:
        path = tmp_path / "nu.json"
        path.write_text(json.dumps(measure_doc("maxitive", "ab", ["X", 0.5])).replace('"X"', text))
        proc = run_cli("decompose", "--nu", str(path))
    if str(want).startswith("error:"):
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", want)
    else:
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["decomposition"]["values"] == [want, 0.5]


# which documents density reads depends on --method; one left out is a usage
# error that names it, before any document is read
@pytest.mark.parametrize("method, given, missing", [
    ("residual", [], "--nu, --tau/--m"),
    ("residual", ["--nu", "nu"], "--tau/--m"),
    ("envelope", ["--m", "m"], "--nu"),
    ("envelope", ["--nu", "nu"], "--tau/--m"),
    ("associated", ["--c1", "f"], "--mu, --c2"),
    ("associated", ["--mu", "nu", "--c1", "f"], "--c2"),
])
def test_density_without_its_documents_is_a_usage_error(method, given, missing, docs, capsys):
    argv = ["density", "--method", method] + [docs.get(a, a) for a in given]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: maxitive density ")
    assert err.endswith("maxitive density: error: the following arguments are required "
                        f"for --method {method}: {missing}\n")


def test_decompose_and_variation(docs):
    proc = run_cli("decompose", "--nu", docs["nu"])
    out = json.loads(proc.stdout)
    assert out["decomposition"]["values"] == [2.0, 1.0, 0.5]
    proc2 = run_cli("variation", "--nu", docs["nu"])
    assert json.loads(proc2.stdout)["value"] == 3.5


def _near_maxitive_doc(path, gap):
    # a = 1, b = 2, c = 0.5, and every set at the max of its atoms except
    # a + b, which is 2 + gap
    sp = build_space("abc", [["a"], ["b"], ["c"]])
    table = np.array(MaxitiveMeasure(sp, [1, 2, 0.5]).to_set_function().table)
    table[0b011] += gap
    return write_doc(path, modelio.measure_to_json(SetFunction(sp, table)))


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--order", "0", "--measure"],
        ["check", "--order", "0", "--op", "times", "--measure"],
        ["decompose", "--nu"],
        ["variation", "--nu"],
        ["density", "--method", "envelope", "--m", "{m}", "--nu"],
    ],
)
def test_a_table_is_read_as_a_measure_at_the_given_tolerance(argv, tmp_path, capsys):
    m = write_doc(tmp_path / "m.json", measure_doc("additive", ["a", "b", "c"], [1, 1, 1]))
    argv = [m if a == "{m}" else a for a in argv]
    # maxitive within 1e-5, not within the default 1e-9
    path = _near_maxitive_doc(tmp_path / "w.json", 1e-6)
    assert cli.main(argv + [path, "--tolerance", "1e-5"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    if argv[0] == "check":
        assert json.loads(out.out)["properties"]["maxitive"] is True
    # maxitive within the default 1e-9, not at tolerance 0
    path = _near_maxitive_doc(tmp_path / "w.json", 1e-12)
    if argv[0] == "check":
        assert cli.main(argv + [path, "--tolerance", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["properties"]["maxitive"] is False
    else:
        assert cli.main(argv + [path, "--tolerance", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: table is not maxitive; witness masks")
    assert cli.main(argv + [path]) == 0


@pytest.mark.parametrize("k", [22, 200])
def test_decompose_and_variation_have_no_atom_cap(k, tmp_path, capsys):
    # both read their result off the atom values and build no table
    labels = [f"x{i}" for i in range(k)]
    vals = [0.0, 1e308, 1e308] + [1.0 + i % 7 for i in range(k - 3)]
    path = write_doc(tmp_path / "nu.json", measure_doc("maxitive", labels, vals))
    start = time.perf_counter()
    assert cli.main(["decompose", "--nu", path]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    dec = json.loads(out.out)["decomposition"]
    assert dec["values"][:2] == [1e308, 1e308] and len(dec["values"]) == k - 1
    assert cli.main(["variation", "--nu", path]) == 0
    out = capsys.readouterr()
    assert (out.err, json.loads(out.out)["value"]) == ("", "inf")
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("k", [22, 200])
def test_integrate_on_an_additive_document_has_no_atom_cap(k, tmp_path, capsys):
    # the level sweep evaluates the measure on one set per level; the
    # crosscheck's submask tables are still refused above 21 atoms
    labels = [f"x{i}" for i in range(k)]
    m = write_doc(tmp_path / "m.json", measure_doc("additive", labels, [1e308] * 2 + [1.0] * (k - 2)))
    f = write_doc(tmp_path / "f.json", measure_doc("function", labels, [1.0 + i % 7 for i in range(k)]))
    argv = ["integrate", "--op", "times", "--measure", m, "--fn", f]
    start = time.perf_counter()
    assert cli.main(argv + ["--set", "x0+x1+x5"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["result"] == {"level": 1.0, "strict_boundary": False, "value": "inf"}
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert (out.err, json.loads(out.out)["result"]["value"]) == ("", "inf")
    assert time.perf_counter() - start < 5.0
    assert cli.main(argv + ["--crosscheck"]) == 1
    assert capsys.readouterr().err.startswith(f"error: atom table on {k} atoms needs")


@pytest.mark.parametrize("k", [22, 200])
def test_crosscheck_on_a_set_of_an_additive_document_has_no_atom_cap(k, tmp_path, capsys):
    # the crosscheck tables the sums over the set's atoms, not the whole table
    labels = [f"x{i}" for i in range(k)]
    m = write_doc(tmp_path / "m.json", measure_doc("additive", labels, [1e308] * 2 + [1.0] * (k - 2)))
    f = write_doc(tmp_path / "f.json", measure_doc("function", labels, [1.0 + i % 7 for i in range(k)]))
    argv = ["integrate", "--op", "times", "--measure", m, "--fn", f, "--crosscheck"]
    assert cli.main(argv + ["--set", "x0+x1+x5"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["result"] == {"level": 1.0, "strict_boundary": False, "value": "inf"}


@pytest.mark.parametrize("k", [22, 200])
def test_maxitive_verdicts_have_no_atom_cap(k, tmp_path, capsys):
    # check at every order, esssup and the residual and associated densities
    # read a maxitive document's atoms and build no table
    labels = [f"x{i}" for i in range(k)]
    vals = [0.0, "inf"] + [1.0 + i % 7 for i in range(k - 2)]
    nu = write_doc(tmp_path / "nu.json", measure_doc("maxitive", labels, vals))
    f = write_doc(tmp_path / "f.json", measure_doc("function", labels, [1.0 + i % 5 for i in range(k)]))
    density = ["density", "--op", "times", "--method"]
    for argv in (
        ["check", "--measure", nu],
        ["check", "--order", "5", "--measure", nu],
        ["check", "--order", "0", "--op", "times", "--measure", nu],
        ["esssup", "--measure", nu, "--fn", f],
        ["esssup", "--measure", nu, "--fn", f, "--set", "x0+x1+x5"],
        density + ["residual", "--nu", nu, "--tau", nu],
        density + ["associated", "--mu", nu, "--c1", f, "--c2", f],
    ):
        start = time.perf_counter()
        assert cli.main(argv) == 0, argv
        out = capsys.readouterr()
        assert out.err == "" and time.perf_counter() - start < 5.0, argv
        if argv[0] == "check":
            report = json.loads(out.out)
            assert report["properties"]["witnesses"] == {
                "finite": 2, "normed": "inf", "of_bounded_variation": 2, "sigma_finite": 1}
            assert report.get("alternation", {"ok": True})["ok"] is True
    assert json.loads(out.out)["density"]["atoms"]["x0"] == 0.0


def test_esssup_on_a_table_null_additive_only_within_tolerance(tmp_path, capsys):
    # a and b are zero sets whose union is not: check calls the table
    # null-additive within 1e-9, and a + b is negligible, as each of its
    # atoms lies in a zero set, so the essential supremum over it is 0
    doc = {"schema": "1", "kind": "set_function",
           "space": {"ground": ["a", "b"], "blocks": [["a"], ["b"]]},
           "table": {"a": 0.0, "b": 0.0, "a+b": 1e-10}}
    w = write_doc(tmp_path / "w.json", doc)
    f = write_doc(tmp_path / "f.json", measure_doc("function", ["a", "b"], [5.0, 5.0]))
    assert cli.main(["check", "--order", "0", "--measure", w]) == 0
    assert json.loads(capsys.readouterr().out)["properties"]["null_additive"] is True
    assert cli.main(["esssup", "--measure", w, "--fn", f]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["value"] == 0.0


def test_associated_density_over_a_table_null_additive_only_within_tolerance(tmp_path, capsys):
    # c1 escapes the bound inf * c2 = 0 on a + b, which is negligible though
    # it lies in no one zero set, so the density is c1 / c2 off it
    labels = ["a", "b", "c"]
    table = {"a": 0.0, "b": 0.0, "a+b": 1e-10, "c": 1.0, "a+c": 1.0, "b+c": 1.0, "a+b+c": 1.0}
    mu = write_doc(tmp_path / "mu.json", {
        "schema": "1", "kind": "set_function",
        "space": {"ground": labels, "blocks": [[l] for l in labels]}, "table": table})
    c1 = write_doc(tmp_path / "c1.json", measure_doc("function", labels, [1.0, 1.0, 1.0]))
    c2 = write_doc(tmp_path / "c2.json", measure_doc("function", labels, [0.0, 0.0, 1.0]))
    argv = ["density", "--method", "associated", "--op", "times",
            "--mu", mu, "--c1", c1, "--c2", c2]
    assert cli.main(argv) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert json.loads(out.out)["density"]["atoms"] == {"a": 0.0, "b": 0.0, "c": 1.0}


# blank --set text names the empty set, as --set " " and Space.mask_named
# read it; only an absent --set is the whole space
@pytest.mark.parametrize("verb", ["integrate", "esssup"])
def test_blank_set_text_names_the_empty_set(verb, tmp_path, capsys):
    nu = write_doc(tmp_path / "nu.json", measure_doc("maxitive", ["a", "b"], [1.0, 0.5]))
    f = write_doc(tmp_path / "f.json", measure_doc("function", ["a", "b"], [1.0, 1.0]))
    argv = [verb, "--measure", nu, "--fn", f]
    if verb == "integrate":
        argv += ["--op", "times"]
    reports = []
    for text in ("", " "):
        assert cli.main(argv + ["--set", text]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]
    assert reports[0]["set"] == ""
    value = reports[0]["result"]["value"] if verb == "integrate" else reports[0]["value"]
    assert value == 0.0
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["set"] == "a+b"


@pytest.mark.parametrize("k, value", [(10, 1.8e307), (11, 1.7e307)])
def test_variation_of_an_overflowing_atom_sum_is_inf(k, value, tmp_path):
    # finite atom values whose sum is not: the variation is inf, with no
    # overflow warning and no traceback
    labels = [f"x{i}" for i in range(k)]
    path = write_doc(tmp_path / "nu.json", measure_doc("maxitive", labels, [value] * k))
    proc = run_cli("variation", "--nu", path)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == '{\n  "command": "variation",\n  "schema": "1",\n  "value": "inf"\n}\n'


def test_condition(docs):
    proc = run_cli(
        "condition", "--op", "times", "--pi", docs["pi"], "--x", docs["x"],
        "--sub", "a+b|c+d",
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["conditional"]["atoms"] == {"a": 2.5, "b": 2.5, "c": 1.0, "d": 1.0}


# --sub names atoms by atom label, as --set and every report do. On a space
# whose atom {a, b} is labelled a, the blocks a condition report prints read
# back as its --sub, and the ground element b names no atom.
def test_sub_names_atoms_by_atom_label(tmp_path, capsys):
    space = {"ground": ["a", "b", "c", "d"], "blocks": [["a", "b"], ["c"], ["d"]]}
    pi = write_doc(tmp_path / "pi.json", {"schema": "1", "kind": "possibility", "space": space,
                                         "atoms": {"a": 1, "c": 0.5, "d": 0.25}})
    x = write_doc(tmp_path / "x.json", {"schema": "1", "kind": "function", "space": space,
                                       "atoms": {"a": 2, "c": 3, "d": 1}})

    def condition(sub):
        code = cli.main(["condition", "--op", "times", "--pi", pi, "--x", x, "--sub", sub])
        return (code, *capsys.readouterr())

    code, out, err = condition("a|c+d")
    assert (code, err) == (0, "")
    blocks = json.loads(out)["blocks"]
    assert blocks == ["a", "c+d"]
    assert condition("|".join(blocks)) == (0, out, "")
    assert condition("a+b|c+d") == (1, "", "error: unknown atom label 'b'\n")
    assert condition("a|c+q") == (1, "", "error: unknown atom label 'q'\n")


# A label is a nonempty string with no "+", no "|" and no surrounding
# whitespace, so every set's name reads back as the set; any other label is
# refused, with one error line, when its document is loaded.
@pytest.mark.parametrize("label", ["a+b", "", " a", "a|b", 1])
def test_a_label_a_set_name_cannot_carry_is_refused(label, tmp_path, capsys):
    doc = {"schema": "1", "kind": "maxitive",
           "space": {"ground": [label, "c"], "blocks": [[label], ["c"]]},
           "atoms": {str(label): 1, "c": 0.5}}
    code = cli.main(["decompose", "--nu", write_doc(tmp_path / "nu.json", doc)])
    assert (code, *capsys.readouterr()) == (1, "", "error: a label must be a nonempty string with no "
                                            f"'+', '|' or surrounding whitespace, got {label!r}\n")


# A possibility document is checked for its norm when it is loaded, at the
# default tolerance, and conditioned as it is; a maxitive document is checked
# at --tolerance. A top of 1 - 1e-12 passes the first and fails the second
# at --tolerance 0.
@pytest.mark.parametrize("kind, code, err", [
    ("possibility", 0, ""),
    ("maxitive", 1, "error: maximum possibility is 0.999999999999, not 1\n"),
])
@pytest.mark.parametrize("suite", [[], ["--suite"]])
def test_condition_checks_a_possibility_document_when_it_is_loaded(kind, code, err, suite, docs):
    pi = write_doc(docs["tmp"] / "pi.json", measure_doc(kind, "abcd", [1 - 1e-12, 0.5, 0.25, 0.75]))
    proc = run_cli("condition", "--op", "times", "--pi", pi, "--x", docs["x"],
                   "--sub", "a+b|c+d", "--tolerance", "0", *suite)
    assert (proc.returncode, proc.stderr) == (code, err)


def test_condition_suite(docs):
    proc = run_cli(
        "condition", "--op", "min", "--pi", docs["pi"], "--x", docs["x"],
        "--sub", "a+b|c+d", "--suite",
    )
    out = json.loads(proc.stdout)
    suite = out["suite"]
    for key in ("defining", "characterization", "monotone", "scaling", "tower", "total"):
        assert suite[key] is True, key


# A table operation acts through its class, whatever its document names it:
# the suite probes it on its grid, so min on 13 grid points passes named as
# a builtin or not. The shift of the monotone law is x's lower median, 2.
@pytest.mark.parametrize("name", ["min", "times", "grid-min"])
def test_condition_suite_probes_a_table_operation_on_its_grid(name, docs, capsys):
    grid = [0, 0.125, 0.25, 0.5, 0.75, 1, 1.5, 2, 3, 4, 5, 8, "inf"]
    op = write_doc(docs["tmp"] / "op.json", {
        "name": name, "grid": grid, "left_identity": "inf",
        "values": [[grid[min(i, j)] for j in range(13)] for i in range(13)],
    })
    argv = ["condition", "--op", op, "--pi", docs["pi"], "--x", docs["x"], "--sub", "a+b|c+d"]
    out = []
    for extra in ([], ["--suite"]):
        assert cli.main(argv + extra) == 0
        out.append(json.loads(capsys.readouterr().out))
    assert [o.pop("op") for o in out] == [name, name]
    suite = out[1].pop("suite")
    assert suite.pop("y") == out[0]["conditional"]
    assert suite == {
        "defining": True, "characterization": True, "monotone": True, "scaling": True,
        "tower": True, "total": True, "measurable_fixed": True, "details": {},
    }


def test_residual_command():
    proc = run_cli("residual", "times", "5", "3")
    out = json.loads(proc.stdout)
    assert out["residual"] == pytest.approx(5 / 3)
    assert out["recovers"] is True
    proc2 = run_cli("residual", "times", "1", "0")
    out2 = json.loads(proc2.stdout)
    assert out2["abs_cont"] is False
    assert "residual" not in out2
    proc3 = run_cli("residual", "plus", "5", "3")
    assert json.loads(proc3.stdout)["residual"] == 2.0


def test_simulate_inline_atoms(tmp_path):
    csv_path = str(tmp_path / "draws.csv")
    proc = run_cli(
        "simulate", "--atoms", "a:0.5,b:0.5", "--p", "2", "--n", "5",
        "--seed", "42", "--csv", csv_path,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert len(out["draws"]) == 5
    assert out["total_mass"] == 0.5 + 0.5
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "a,b,value"
    assert len(lines) == 6


def test_simulate_quantiles_for_large_n(docs):
    proc = run_cli(
        "simulate", "--m", docs["m"], "--p", "2", "--n", "2000", "--seed", "1"
    )
    out = json.loads(proc.stdout)
    assert "draws" not in out
    assert "0.5" in out["quantiles"]
    assert out["mean"] > 0


# 10^12 cells are refused by the sampler before anything is drawn
@pytest.mark.parametrize("flag, p, n", [
    ("--p", "nan", "5"), ("--p", "inf", "5"), ("--n", "2", "-1"), ("--n", "2", str(10**12)),
])
def test_simulate_rejects_bad_flag_values(flag, p, n):
    proc = run_cli("simulate", "--atoms", "a:1", "--p", p, "--n", n)
    assert proc.returncode == 1
    # the refusal names the rejected value
    assert (p if flag == "--p" else n) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# a zero cutoff, an oversized sample, and Poisson rates above numpy's limit
# (1e300 * 0.001^-2, and 1e-300^-2 which overflows a float)
@pytest.mark.parametrize("atoms, extra", [
    ("a:1,b:0.5", ["--mode", "poisson", "--eps", "0", "--n", "5000"]),
    ("a:1,b:0.5", ["--n", str(10**12)]),
    ("a:1e300,b:0.5", ["--mode", "poisson", "--n", "5000"]),
    ("a:1,b:0.5", ["--mode", "poisson", "--eps", "1e-300", "--n", "5000"]),
])
def test_simulate_refuses_before_opening_the_csv(atoms, extra, tmp_path, capsys):
    csv_path = tmp_path / "draws.csv"
    argv = ["simulate", "--atoms", atoms, "--p", "2", *extra, "--csv", str(csv_path)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not csv_path.exists()


def test_pooled_simulate_leaves_no_process_behind(tmp_path, capfd):
    csv_path = tmp_path / "draws.csv"
    argv = ["simulate", "--atoms", "a:1,b:0.5,c:2", "--p", "2", "--n", "20000",
            "--seed", "3", "--csv", str(csv_path)]
    assert cli.main(argv) == 0
    assert multiprocessing.active_children() == []
    assert capfd.readouterr().err == ""
    assert len(csv_path.read_text().splitlines()) == 20_001


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_pooled_simulate_on_a_full_device_exits_one_and_leaves_no_process(capsys):
    argv = ["simulate", "--atoms", "a:1,b:0.5,c:2", "--p", "2", "--n", "20000",
            "--seed", "3", "--csv", "/dev/full"]
    assert cli.main(argv) == 1
    assert multiprocessing.active_children() == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


def test_simulate_refuses_a_set_naming_no_atom():
    proc = run_cli("simulate", "--atoms", "a:0.5,b:0.5", "--p", "2", "--n", "5",
                   "--set", " ")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: --set ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_simulate_refuses_blank_set_text(capsys):
    argv = ["simulate", "--atoms", "a:0.5,b:0.5", "--p", "2", "--n", "5", "--set", ""]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --set '' names no atom; pass labels like a+b\n"


def test_seeded_commands_are_byte_identical(docs):
    args = ("simulate", "--atoms", "a:1", "--p", "2", "--n", "50", "--seed", "9")
    a, b = run_cli(*args), run_cli(*args)
    assert a.stdout == b.stdout
    assert a.stdout != ""


def test_suite_command():
    proc = run_cli("suite", "--seed", "0", "--ids", "integral-fixtures,residual-galois")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["ok"] is True
    assert out["results"]["integral-fixtures"] == "pass"
    proc2 = run_cli("suite", "--ids", "no-such-invariant")
    assert proc2.returncode == 1


# Runs one statement in a fresh interpreter; the last stdout line is the
# exit code of main (or null) and the modules of the named packages then
# loaded. It is written at exit, so a statement that ends the process (as
# python -m maxitive does) is probed too.
MODULE_PROBE = """
import atexit, contextlib, io, json, sys
rc = None

@atexit.register
def report():
    loaded = sorted(m for m in sys.modules if m.split(".")[0] in {!r})
    sys.__stdout__.write(json.dumps([rc, loaded]) + "\\n")
    sys.__stdout__.flush()

with contextlib.redirect_stdout(io.StringIO()):
    {}
"""


def module_probe(statement, *packages):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE.format(packages, statement)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_runtime_never_imports_scipy(docs):
    main = "import maxitive.cli; rc = maxitive.cli.main({!r})"
    for statement in (
        "import maxitive",
        "import maxitive.cli",
        main.format(["check", "--measure", docs["nu"], "--order", "0"]),
        main.format(["simulate", "--m", docs["m"], "--p", "2", "--n", "1000"]),
        # every invariant, the KS and Lambert W checks included
        main.format(["suite", "--seed", "0"]),
    ):
        rc, loaded = module_probe(statement, "scipy")
        assert rc in (None, 0), statement
        assert loaded == [], statement


# No command starts a process: simulate writes its --csv rows in this
# process. python -m maxitive ends with os._exit on that ground.
def test_short_commands_never_import_multiprocessing(docs):
    main = "import maxitive.cli; rc = maxitive.cli.main({!r})"
    csv_path = str(docs["tmp"] / "draws.csv")
    for statement in (
        "import maxitive.cli",
        main.format(["check", "--measure", docs["nu"], "--order", "0"]),
        main.format(["simulate", "--m", docs["m"], "--p", "2", "--n", "1000"]),
        main.format(["simulate", "--m", docs["m"], "--p", "2", "--n", "1000",
                     "--csv", csv_path]),
    ):
        rc, loaded = module_probe(statement, "multiprocessing")
        assert rc in (None, 0), statement
        assert loaded == [], statement
    assert len(Path(csv_path).read_text().splitlines()) == 1001


# Atom vectors are tuples of floats, so only a command that builds a table,
# a sample or a random stream imports numpy.
def test_numpy_is_loaded_only_where_a_table_sample_or_stream_is_built(docs):
    sf = write_doc(docs["tmp"] / "sf.json", {
        "schema": "1", "kind": "set_function",
        "space": {"ground": ["a", "b"], "blocks": [["a"], ["b"]]},
        "table": {"a": 1, "b": 2, "a+b": 2.5},
    })
    nu, tau, m, f, pi, x = (docs[k] for k in ("nu", "tau", "m", "f", "pi", "x"))
    atoms = [
        ["residual", "times", "5", "3"],
        ["check", "--measure", nu],
        ["check", "--measure", nu, "--order", "0"],
        ["check", "--measure", nu, "--op", "times"],
        ["integrate", "--op", "times", "--measure", nu, "--fn", f],
        ["integrate", "--op", "times", "--measure", m, "--fn", f],
        ["integrate", "--op", "times", "--measure", nu, "--fn", f, "--crosscheck"],
        ["integrate", "--op", "times", "--measure", m, "--fn", f, "--crosscheck"],
        ["esssup", "--measure", nu, "--fn", f],
        ["esssup", "--measure", m, "--fn", f],
        ["density", "--method", "residual", "--nu", nu, "--tau", tau],
        ["density", "--method", "envelope", "--nu", nu, "--m", m],
        ["density", "--method", "associated", "--mu", nu, "--c1", f, "--c2", f],
        ["density", "--method", "associated", "--mu", m, "--c1", f, "--c2", f],
        ["decompose", "--nu", nu],
        ["variation", "--nu", nu],
        ["condition", "--op", "times", "--pi", pi, "--x", x, "--sub", "a+b|c+d", "--suite"],
        ["suite", "--seed", "0", "--ids", "integral-fixtures"],
    ]
    tables = [
        ["check", "--measure", sf, "--order", "0"],
        ["simulate", "--m", m, "--p", "2", "--n", "10"],
        ["suite", "--seed", "0", "--ids", "integral-three-routes"],
    ]
    entry = ("sys.argv = ['maxitive', *{!r}]; import runpy; "
             "runpy.run_module('maxitive', run_name='__main__')")
    for statement in ("import maxitive", "import maxitive.cli"):
        assert module_probe(statement, "numpy")[1] == [], statement
    for argv in atoms + tables:
        _, loaded = module_probe(entry.format(argv), "numpy")
        assert bool(loaded) == (argv in tables), argv


def test_usage_errors_exit_two():
    assert run_cli("integrate").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli().returncode == 2


def test_the_entry_point_loads_no_dataclasses_csv_or_string(docs):
    entry = ("sys.argv = ['maxitive', *{!r}]; import runpy; "
             "runpy.run_module('maxitive', run_name='__main__')")
    for statement in (
        "import maxitive.cli",
        entry.format(["check", "--measure", docs["nu"]]),
    ):
        rc, loaded = module_probe(statement, "dataclasses", "csv", "string")
        assert loaded == [], statement
    # bench/layers.py wraps the functions of these modules after importing cli
    _, loaded = module_probe("import maxitive.cli", "maxitive")
    traced = ("cli", "modelio", "measures", "integral", "density", "additive",
              "possibility", "semigroup", "supmeasure", "suites")
    assert {f"maxitive.{m}" for m in traced} <= set(loaded)


# main builds only the named verb's subparser; its texts are those of all ten
@pytest.mark.parametrize("verb", cli.VERBS)
def test_a_parser_of_one_verb_reads_as_the_full_parser(verb, capsys):
    assert cli.build_parser(verb).format_usage() == cli.build_parser().format_usage()
    helps = []
    for parser in (cli.build_parser(verb), cli.build_parser()):
        with pytest.raises(SystemExit):
            parser.parse_args([verb, "-h"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and helps[0].startswith(f"usage: maxitive {verb} ")


def in_process(argv, capsys):
    """Exit code, stdout and stderr of cli.main(argv) in this process."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# python -m maxitive ends the process itself once the report is out; what
# it prints and its exit code are those of cli.main. The child's stdout is
# block-buffered, as it is for a user, so a report it failed to flush would
# be lost.
@pytest.mark.parametrize("argv", [
    ["residual", "times", "5", "3"],
    ["decompose", "--nu", "/nonexistent/nu.json"],
    ["integrate", "--op", "times"],
    ["check", "--measure", "nu.json", "--bogus"],
    ["-h"],
], ids=["success", "refusal", "usage", "unknown-option", "help"])
def test_the_entry_point_prints_and_exits_as_main_does(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped at the terminal's width
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    proc = run_cli(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process(argv, capsys)


def test_the_entry_point_writes_every_csv_row(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    csv_path = tmp_path / "draws.csv"
    argv = ["simulate", "--atoms", "a:1,b:0.5,c:2", "--p", "2", "--n", "10000",
            "--seed", "3", "--csv", str(csv_path)]
    proc = run_cli(*argv)
    written = csv_path.read_bytes()
    assert (proc.returncode, proc.stdout, proc.stderr) == in_process(argv, capsys)
    assert csv_path.read_bytes() == written
    assert written.count(b"\r\n") == 10_001  # three blocks of rows and a header


def test_atexit_handlers_registered_before_the_entry_point_run(capsys):
    argv = ["residual", "times", "5", "3"]
    code = ("import atexit, runpy, sys; atexit.register(print, 'atexit ran'); "
            f"sys.argv = ['maxitive', *{argv!r}]; "
            "runpy.run_module('maxitive', run_name='__main__')")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    rc, out, err = in_process(argv, capsys)
    assert (proc.returncode, proc.stdout, proc.stderr) == (rc, out + "atexit ran\n", err)


class _FullDevice:
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _to_full_device(head, env):
    with open("/dev/full", "w") as full:
        return subprocess.run([sys.executable, *head, "residual", "times", "5", "3"],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=300)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_unbuffered_report_to_a_full_device_is_one_error_line(monkeypatch, capsys):
    proc = _to_full_device(["-m", "maxitive"], dict(os.environ, PYTHONUNBUFFERED="1"))
    monkeypatch.setattr(sys, "stdout", _FullDevice())
    rc, _, err = in_process(["residual", "times", "5", "3"], capsys)
    assert (proc.returncode, proc.stderr) == (rc, err)
    assert rc == 1 and err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


# A buffered report fails only when it is flushed at exit; the entry point
# reports that flush as main reports a failed write, and drops the buffer.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_buffered_report_to_a_full_device_is_one_error_line(monkeypatch, capsys):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = _to_full_device(["-m", "maxitive"], env)
    monkeypatch.setattr(sys, "stdout", _FullDevice())
    rc, _, err = in_process(["residual", "times", "5", "3"], capsys)
    assert (proc.returncode, proc.stderr) == (rc, err)
    assert rc == 1 and err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


TOLERANT_COMMANDS = ("check", "integrate", "esssup", "density", "decompose", "variation",
                     "condition", "suite")


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "1", "2"])
@pytest.mark.parametrize("command", TOLERANT_COMMANDS)
def test_tolerance_outside_zero_one_is_a_usage_error(command, value, capsys):
    # at 1 or more every two finite values are close, so no verdict means anything
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--tolerance", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --tolerance: must be a number in [0, 1), got '{value}'" in err


@pytest.mark.parametrize("argv", [
    ["suite", "--seed", "-1"],
    ["simulate", "--atoms", "a:1", "--p", "1", "--seed", "-1"],
    ["simulate", "--atoms", "a:1", "--p", "1", "--stream", "-1"],
    ["check", "--measure", "{nu}", "--order", "-3"],
], ids=["suite-seed", "simulate-seed", "simulate-stream", "check-order"])
def test_negative_integer_option_is_a_usage_error(argv, docs, capsys):
    # refused at the parser, before a seed reaches numpy or an order reads as 0
    with pytest.raises(SystemExit) as exc:
        cli.main([arg.format(**docs) for arg in argv])
    assert exc.value.code == 2
    flag = argv[-2]
    assert f"argument {flag}: must be a nonnegative integer, got '{argv[-1]}'" in capsys.readouterr().err


@pytest.mark.parametrize("field, kind, want", [
    ("space", "maxitive", "a maxitive document has no 'space' field"),
    ("atoms", "function", "a function document has no 'atoms' field"),
    ("table", "set_function", "a set_function document has no 'table' field"),
    ("ground", "additive", "a space has no 'ground' field"),
    ("blocks", "possibility", "a space has no 'blocks' field"),
    ("grid", "op", "a table operation has no 'grid' field"),
    ("values", "op", "a table operation has no 'values' field"),
], ids=["space", "atoms", "table", "ground", "blocks", "grid", "values"])
def test_a_missing_field_is_named(field, kind, want, docs, capsys):
    if kind == "op":
        doc = {"grid": [0.0, "inf"], "values": [[0.0, 0.0], [0.0, "inf"]]}
    else:
        doc = measure_doc(kind, ["a", "b", "c"], [1, 0.5, 0.25])
        if kind == "set_function":
            doc["table"] = doc.pop("atoms")
    del (doc["space"] if field in ("ground", "blocks") else doc)[field]
    path = write_doc(docs["tmp"] / "doc.json", doc)
    if kind == "op":
        argv = ["check", "--order", "0", "--measure", docs["nu"], "--op", path]
    elif kind == "function":
        argv = ["esssup", "--measure", docs["nu"], "--fn", path]
    else:
        argv = ["check", "--order", "0", "--measure", path]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {want}\n"


@pytest.mark.parametrize("value", ["0", "1e-9"])
def test_tolerance_in_zero_one_still_runs(value, docs, capsys):
    assert cli.main(["check", "--measure", docs["nu"], "--tolerance", value]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "check"
    assert cli.main(["suite", "--ids", "kyfan-metric", "--tolerance", value]) == 0


def test_unknown_operation_exits_one(docs):
    proc = run_cli(
        "integrate", "--op", "sum", "--measure", docs["nu"], "--fn", docs["f"]
    )
    assert proc.returncode == 1
    assert "unknown operation" in proc.stderr


def test_missing_file_exits_one(docs):
    proc = run_cli("decompose", "--nu", "/nonexistent/nu.json")
    assert proc.returncode == 1
