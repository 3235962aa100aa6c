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


@pytest.mark.parametrize("k, witness", [(10, [list(range(10))]), (11, 1024)])
def test_bounded_variation_witness_is_a_partition_up_to_ten_atoms(k, witness, tmp_path, capsys):
    # the witness format, not the variation budget, sets this edge: above 10
    # atoms an infinite sup is witnessed by the first infinite mask
    labels = [f"x{i}" for i in range(k)]
    path = write_doc(tmp_path / "nu.json", measure_doc("maxitive", labels, [1.0] * (k - 1) + ["inf"]))
    assert cli.main(["check", "--order", "0", "--measure", path]) == 0
    rep = json.loads(capsys.readouterr().out)["properties"]
    assert rep["of_bounded_variation"] is False
    assert rep["witnesses"]["of_bounded_variation"] == witness


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


def test_condition_suite(docs):
    proc = run_cli(
        "condition", "--op", "min", "--pi", docs["pi"], "--x", docs["x"],
        "--sub", "a+b|c+d", "--suite",
    )
    out = json.loads(proc.stdout)
    suite = out["suite"]
    for key in ("defining", "characterization", "monotone", "scaling", "tower", "total"):
        assert suite[key] is True, key


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
    ("--p", "nan", "5"), ("--n", "2", "-1"), ("--n", "2", str(10**12)),
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
# exit code of main (or null) and the modules of one package then loaded.
MODULE_PROBE = """
import contextlib, io, json, sys
rc = None
with contextlib.redirect_stdout(io.StringIO()):
    {}
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == {!r})]))
"""


def module_probe(statement, package):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE.format(statement, package)],
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


# multiprocessing is imported only to format the rows of more than one
# block of --csv output
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


def test_usage_errors_exit_two():
    assert run_cli("integrate").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli().returncode == 2


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
