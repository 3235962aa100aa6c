"""The command line interface, exercised through real subprocesses."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import measure_doc, write_doc
from maxitive import cli


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
    assert "submask maximization needs 2^24 sets; budget is 20 atoms" in out.err
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["result"]["value"] == 2.5


def test_check(docs):
    proc = run_cli("check", "--measure", docs["nu"], "--order", "3", "--op", "times")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["properties"]["maxitive"] is True
    assert out["alternation"]["ok"] is True
    assert out["axioms"]["pseudo_multiplication"] is True
    assert out["finiteness"]["odot_finite"] is True


def test_check_prints_a_signed_zero_as_zero(tmp_path):
    path = write_doc(tmp_path / "z.json", measure_doc("maxitive", ["a", "b"], [-0.0, 2.0]))
    proc = run_cli("check", "--measure", path, "--order", "0")
    assert proc.returncode == 0, proc.stderr
    vals = json.loads(proc.stdout)["properties"]["atom_values"]
    assert vals == [0.0, 2.0] and math.copysign(1.0, vals[0]) == 1.0
    assert "-0.0" not in proc.stdout


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


def test_decompose_and_variation(docs):
    proc = run_cli("decompose", "--nu", docs["nu"])
    out = json.loads(proc.stdout)
    assert out["decomposition"]["values"] == [2.0, 1.0, 0.5]
    proc2 = run_cli("variation", "--nu", docs["nu"])
    assert json.loads(proc2.stdout)["value"] == 3.5


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
# exit code of main (or null) and the scipy modules then loaded.
SCIPY_PROBE = """
import contextlib, io, json, sys
rc = None
with contextlib.redirect_stdout(io.StringIO()):
    {}
print(json.dumps([rc, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def scipy_probe(statement):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE.format(statement)],
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
        rc, loaded = scipy_probe(statement)
        assert rc in (None, 0), statement
        assert loaded == [], statement


def test_usage_errors_exit_two():
    assert run_cli("integrate").returncode == 2
    assert run_cli("frobnicate").returncode == 2
    assert run_cli().returncode == 2


def test_unknown_operation_exits_one(docs):
    proc = run_cli(
        "integrate", "--op", "sum", "--measure", docs["nu"], "--fn", docs["f"]
    )
    assert proc.returncode == 1
    assert "unknown operation" in proc.stderr


def test_missing_file_exits_one(docs):
    proc = run_cli("decompose", "--nu", "/nonexistent/nu.json")
    assert proc.returncode == 1
