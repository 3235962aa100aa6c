"""Seeded input documents, command lists and output checks per workload.

Everything here is computed with numpy from the seed alone; nothing imports
``maxitive``. Each workload writes its JSON documents into a work directory
and returns a fixed list of commands (argv after ``python -m maxitive``),
each paired with a check that compares the command's JSON report against a
closed form computed from the same generated values.

Values are drawn so that the amount of work does not depend on the seed:
every document of a given role has the same atom count, the same number of
zero atoms and the same number of infinite atoms; only the positions and
magnitudes of the values change.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

LABELS = "abcdefghijkl"

# Budgets the program enforces today or that its roadmap plans. The
# generator refuses to emit a command outside them, so that a later budget
# change cannot turn a benchmark command into an expected refusal.
MAX_TABLE_ATOMS = 12
MAX_VARIATION_ATOMS = 10
MAX_ORDER2_ATOMS = 7
MAX_STRUCTURE_ATOMS = 12  # decompose, condition
MAX_SIMULATE_N = 1_000_000

# `suite` runs the registered invariants at one fixed seed. Its statistical
# invariants (KS tests at level 0.01) reject at about 1% of seeds by design,
# so a seed taken from the benchmark seed would fail a correct program now
# and then. The invariants do the same work at every seed.
SUITE_SEED = 0

SIM_SUITE_IDS = (
    "marginal-ks,mode-agreement,scale-recovery,tail-ratio,extremal-integral-form"
)


@dataclass
class Command:
    """One CLI invocation, its atom count and the check of its report."""

    name: str
    argv: list
    k: int
    check: object  # callable(report dict) -> list of problem strings
    files: list = field(default_factory=list)  # (path, callable(path) -> problems)


# ---------------------------------------------------------------------------
# value and document generation
# ---------------------------------------------------------------------------


def _values(rng, k, zeros=0, infs=0):
    """k values 10^U(-2, 2) rounded to 6 digits, with fixed zero/inf counts."""
    vals = np.round(10.0 ** rng.uniform(-2.0, 2.0, size=k), 6)
    pos = rng.permutation(k)
    vals[pos[:zeros]] = 0.0
    vals[pos[zeros:zeros + infs]] = np.inf
    return vals


def _masses(rng, k):
    """Strictly positive finite masses in [0.1, 5]."""
    return np.round(rng.uniform(0.1, 5.0, size=k), 6)


def _possibility(rng, k, zeros):
    """Possibility values in [0.05, 1] with one exact 1 and fixed zeros."""
    vals = np.round(rng.uniform(0.05, 1.0, size=k), 6)
    pos = rng.permutation(k)
    vals[pos[:zeros]] = 0.0
    vals[pos[zeros]] = 1.0
    return vals


def _monotone_table(rng, k):
    """A monotone set function on 2^k sets with no zero besides the empty set.

    Each set takes the larger of a fresh positive draw and the values of its
    maximal proper subsets, so the table is monotone and, with probability
    one, not maxitive.
    """
    n = 1 << k
    base = np.round(10.0 ** rng.uniform(-2.0, 2.0, size=n), 6)
    table = np.zeros(n)
    for b in range(1, n):
        best = base[b]
        sub = b
        while sub:
            low = sub & -sub
            best = max(best, table[b ^ low])
            sub ^= low
        table[b] = best
    return table


def _enc(v):
    return "inf" if math.isinf(v) else float(v)


def _dec(v):
    return math.inf if v == "inf" else float(v)


def _space(k):
    return {"ground": list(LABELS[:k]), "blocks": [[c] for c in LABELS[:k]]}


def _atoms_doc(kind, vals):
    k = len(vals)
    return {
        "schema": "1",
        "kind": kind,
        "space": _space(k),
        "atoms": {LABELS[i]: _enc(vals[i]) for i in range(k)},
    }


def _set_key(mask, k):
    return "+".join(LABELS[i] for i in range(k) if mask >> i & 1)


def _table_doc(table, k):
    return {
        "schema": "1",
        "kind": "set_function",
        "space": _space(k),
        "table": {_set_key(b, k): _enc(table[b]) for b in range(1, 1 << k)},
    }


def _blocks(rng, k, n_blocks):
    """A partition of the k atoms into n_blocks nearly equal random blocks."""
    order = rng.permutation(k)
    return [sorted(int(i) for i in part) for part in np.array_split(order, n_blocks)]


def _blocks_arg(blocks):
    return "|".join("+".join(LABELS[i] for i in b) for b in blocks)


def _subset(rng, k, size):
    return sorted(int(i) for i in rng.choice(k, size=size, replace=False))


def _set_arg(idx):
    return "+".join(LABELS[i] for i in idx)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _close(a, b, rel=1e-9):
    a, b = _dec(a) if isinstance(a, str) else float(a), float(b)
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _atoms_of(doc, k):
    """Atom values of a function/measure document in label order."""
    return [_dec(doc["atoms"][LABELS[i]]) for i in range(k)]


def _expect(problems, ok, what):
    if not ok:
        problems.append(what)


def _mul(a, b):
    """Product with 0 * inf = 0."""
    return 0.0 if a == 0.0 or b == 0.0 else a * b


def _check_properties(rep, nu=None, table=None):
    """Flags of `check` on a maxitive atom document or a non-maxitive table."""
    p = []
    props = rep["properties"]
    _expect(p, props["monotone"] is True, "monotone flag is not true")
    if nu is not None:
        _expect(p, props["maxitive"] is True, "maxitive flag is not true")
        _expect(p, props["completely_maxitive"] is True, "completely_maxitive is not true")
        got = props.get("atom_values") or []
        _expect(
            p,
            len(got) == len(nu) and all(_close(g, v) for g, v in zip(got, nu)),
            "atom_values differ from the document",
        )
        _expect(p, props["finite"] is bool(np.isfinite(nu).all()), "finite flag wrong")
    else:
        _expect(p, props["maxitive"] is False, "maxitive flag is not false")
        wit = props.get("witnesses", {}).get("maxitive")
        if not wit or len(wit) < 2:
            p.append("no maxitivity witness")
        else:
            b1, b2 = int(wit[0]), int(wit[1])
            union, parts = table[b1 | b2], max(table[b1], table[b2])
            _expect(p, not _close(union, parts), f"witness {b1},{b2} is not a violation")
    return p


def _check_check(nu=None, table=None, order=0, finiteness=False):
    def check(rep):
        p = _check_properties(rep, nu=nu, table=table)
        if order:
            alt = rep.get("alternation") or {}
            _expect(p, alt.get("ok") is True and alt.get("order") == order,
                    "alternation of a maxitive measure not confirmed")
        if finiteness:
            fin = rep.get("finiteness") or {}
            finite = bool(np.isfinite(nu).all())
            _expect(p, fin.get("odot_finite") is finite, "odot_finite wrong")
            _expect(p, fin.get("semi_odot_finite") is finite, "semi_odot_finite wrong")
            _expect(p, (rep.get("axioms") or {}).get("pseudo_multiplication") is True,
                    "operation axioms not confirmed")
        return p

    return check


def _check_integral(op, f, nu, idx):
    if op == "times":
        want = max((_mul(f[i], nu[i]) for i in idx), default=0.0)
    else:
        want = max((min(f[i], nu[i]) for i in idx), default=0.0)

    def check(rep):
        p = []
        _expect(p, _close(rep["result"]["value"], want),
                f"{op} integral {rep['result']['value']} != {want}")
        return p

    return check


def _check_esssup(f, tau):
    want = max((f[i] for i in range(len(f)) if tau[i] > 0), default=0.0)

    def check(rep):
        p = []
        _expect(p, _close(rep["value"], want), f"esssup {rep['value']} != {want}")
        return p

    return check


def _check_residual_density(nu, tau):
    k = len(nu)
    want = [0.0 if nu[i] == 0.0 else nu[i] / tau[i] for i in range(k)]

    def check(rep):
        got = _atoms_of(rep["density"], k)
        ok = all(_close(g, w) for g, w in zip(got, want))
        return [] if ok else ["residual density differs from nu/tau"]

    return check


def _check_envelope(nu, m):
    k = len(nu)
    env = [_mul(nu[i], m[i]) for i in range(k)]

    def check(rep):
        p = []
        _expect(p, all(_close(g, w) for g, w in zip(_atoms_of(rep["density"], k), nu)),
                "envelope density differs from nu")
        _expect(p, all(_close(g, w) for g, w in zip(_atoms_of(rep["envelope"], k), env)),
                "envelope masses differ from nu*m")
        _expect(p, rep["reconstruction_ok"] is True, "reconstruction_ok is not true")
        _expect(p, rep["transformed"] is bool(np.isinf(nu).any()), "transformed flag wrong")
        return p

    return check


def _check_decompose(nu):
    k = len(nu)
    order = sorted((i for i in range(k) if nu[i] > 0), key=lambda i: (-nu[i], i))

    def check(rep):
        dec = rep["decomposition"]
        p = []
        _expect(p, len(dec["values"]) == len(order)
                and all(_close(g, nu[i]) for g, i in zip(dec["values"], order)),
                "decomposition values are not the positive atoms, descending")
        _expect(p, dec["atoms"] == [LABELS[i] for i in order],
                "decomposition atoms out of order")
        null = _set_key(sum(1 << i for i in range(k) if nu[i] == 0), k)
        _expect(p, dec["residual_null"] == null, "residual null set wrong")
        return p

    return check


def _check_variation(nu):
    want = float(sum(nu))

    def check(rep):
        return [] if _close(rep["value"], want) else [f"variation {rep['value']} != {want}"]

    return check


def _check_condition(op, x, pi, blocks):
    k = len(x)
    want = [0.0] * k
    for b in blocks:
        pb = max(pi[i] for i in b)
        if op == "times":
            val = 0.0 if pb == 0 else max(_mul(x[i], pi[i]) for i in b) / pb
        else:
            val = 0.0 if pb == 0 else max(min(x[i], pi[i]) for i in b)
        for i in b:
            want[i] = val
    flags = ("defining", "characterization", "monotone", "scaling", "tower",
             "total", "measurable_fixed")

    def check(rep):
        suite = rep["suite"]
        p = [f"conditional law {f} does not hold" for f in flags if suite.get(f) is not True]
        got = _atoms_of(suite["y"], k)
        _expect(p, all(_close(g, w) for g, w in zip(got, want)),
                f"{op} conditional differs from the block closed form")
        return p

    return check


def _check_residual_scalar(rep):
    p = []
    _expect(p, rep["abs_cont"] is True and _close(rep["residual"], 5.0 / 3.0),
            "residual times 5 3 is not 5/3")
    return p


def _median_ok(qs, mass, pw, rel=0.05):
    want = (mass / math.log(2.0)) ** (1.0 / pw)
    return abs(qs["0.5"] - want) <= rel * want


def _check_simulate(mass_total, mass_set, pw, n):
    def check(rep):
        p = []
        _expect(p, rep["n"] == n, "sample size echoed wrong")
        _expect(p, _close(rep["total_mass"], mass_total), "total mass wrong")
        if n <= 1000:
            draws = rep.get("draws") or []
            _expect(p, len(draws) == n and all(_dec(d) > 0 for d in draws),
                    "draws missing or not positive")
            return p
        qs = {key: _dec(v) for key, v in rep["quantiles"].items()}
        ordered = [qs[key] for key in sorted(qs, key=float)]
        _expect(p, all(a <= b for a, b in zip(ordered, ordered[1:])),
                "quantiles are not nondecreasing")
        _expect(p, _median_ok(qs, mass_set, pw),
                "median is not within 5% of (m(B)/ln 2)^(1/p)")
        return p

    return check


def _check_csv(k, idx, n):
    labels = [LABELS[i] for i in range(k)]

    def check(path):
        p = []
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            _expect(p, header == labels + ["value"], "csv header wrong")
            count = 0
            bad = None
            for row in rows:
                if count < 1000 and bad is None:
                    vals = [float(v) for v in row]
                    if vals[-1] != max(vals[i] for i in idx):
                        bad = count
                count += 1
        if bad is not None:
            p.append(f"csv row {bad} value is not the max over the set")
        _expect(p, count == n, f"csv has {count} rows, expected {n}")
        return p

    return check


def _check_suite(rep):
    bad = [key for key, v in rep["results"].items() if v != "pass"]
    if rep["ok"] is not True or bad:
        return [f"suite not ok: {bad}"]
    return []


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class _Writer:
    def __init__(self, work, rel):
        self.work = Path(work)
        self.rel = Path(rel)
        self.work.mkdir(parents=True, exist_ok=True)

    def __call__(self, name, doc):
        (self.work / name).write_text(json.dumps(doc, sort_keys=True))
        return str(self.rel / name)


def _small_k(rng, put, rel, seed):
    k4, k8 = 4, 8
    max4 = _values(rng, k4, zeros=1)
    max8 = _values(rng, k8, zeros=1)
    fn4 = _values(rng, k4)
    fn8 = _values(rng, k8)
    nu8 = _values(rng, k8, zeros=2)
    tau8 = _values(rng, k8)
    add4 = _masses(rng, k4)
    poss8 = _possibility(rng, k8, zeros=1)
    x8 = _values(rng, k8)
    blocks8 = _blocks(rng, k8, 3)
    set8 = _subset(rng, k8, 4)
    pw = float(np.round(rng.uniform(1.5, 3.0), 1))

    f_max4 = put("max4.json", _atoms_doc("maxitive", max4))
    f_max8 = put("max8.json", _atoms_doc("maxitive", max8))
    f_fn4 = put("fn4.json", _atoms_doc("function", fn4))
    f_fn8 = put("fn8.json", _atoms_doc("function", fn8))
    f_nu8 = put("nu8.json", _atoms_doc("maxitive", nu8))
    f_tau8 = put("tau8.json", _atoms_doc("maxitive", tau8))
    f_add4 = put("add4.json", _atoms_doc("additive", add4))
    f_poss8 = put("poss8.json", _atoms_doc("possibility", poss8))
    f_x8 = put("x8.json", _atoms_doc("function", x8))

    return [
        Command("check-k4-order2", ["check", "--measure", f_max4, "--order", "2"], k4,
                _check_check(nu=max4, order=2)),
        Command("check-k8-min", ["check", "--measure", f_max8, "--order", "0", "--op", "min"],
                k8, _check_check(nu=max8, finiteness=True)),
        Command("integrate-k4-times",
                ["integrate", "--op", "times", "--measure", f_max4, "--fn", f_fn4], k4,
                _check_integral("times", fn4, max4, range(k4))),
        Command("integrate-k8-min-set",
                ["integrate", "--op", "min", "--measure", f_max8, "--fn", f_fn8,
                 "--set", _set_arg(set8)], k8,
                _check_integral("min", fn8, max8, set8)),
        Command("esssup-k8", ["esssup", "--measure", f_max8, "--fn", f_fn8], k8,
                _check_esssup(fn8, max8)),
        Command("density-residual-k8",
                ["density", "--method", "residual", "--op", "times", "--nu", f_nu8,
                 "--tau", f_tau8], k8, _check_residual_density(nu8, tau8)),
        Command("density-envelope-k4",
                ["density", "--method", "envelope", "--nu", f_max4, "--m", f_add4], k4,
                _check_envelope(max4, add4)),
        Command("decompose-k8", ["decompose", "--nu", f_max8], k8, _check_decompose(max8)),
        Command("variation-k8", ["variation", "--nu", f_max8], k8, _check_variation(max8)),
        Command("condition-k8-min-suite",
                ["condition", "--op", "min", "--pi", f_poss8, "--x", f_x8,
                 "--sub", _blocks_arg(blocks8), "--suite"], k8,
                _check_condition("min", x8, poss8, blocks8)),
        Command("residual-times", ["residual", "times", "5", "3"], 0, _check_residual_scalar),
        Command("simulate-k4-n1000",
                ["simulate", "--m", f_add4, "--p", repr(pw), "--n", "1000",
                 "--seed", str(seed)], k4,
                _check_simulate(float(add4.sum()), float(add4.sum()), pw, 1000)),
        Command("suite", ["suite", "--seed", str(SUITE_SEED)], 0, _check_suite),
    ]


def _large_k(rng, put, rel, seed):
    k, k10 = 12, 10
    max12 = _values(rng, k, zeros=2)
    max10 = _values(rng, k10, zeros=1)
    maxinf12 = _values(rng, k, zeros=1, infs=1)
    table = _monotone_table(rng, k)
    fn12 = _values(rng, k)
    nu12 = _values(rng, k, zeros=2)
    tau12 = _values(rng, k)
    add12 = _masses(rng, k)
    poss12 = _possibility(rng, k, zeros=2)
    x12 = _values(rng, k)
    blocks12 = _blocks(rng, k, 4)

    f_max12 = put("max12.json", _atoms_doc("maxitive", max12))
    f_max10 = put("max10.json", _atoms_doc("maxitive", max10))
    f_maxinf = put("maxinf12.json", _atoms_doc("maxitive", maxinf12))
    f_table = put("table12.json", _table_doc(table, k))
    f_fn12 = put("fn12.json", _atoms_doc("function", fn12))
    f_nu12 = put("nu12.json", _atoms_doc("maxitive", nu12))
    f_tau12 = put("tau12.json", _atoms_doc("maxitive", tau12))
    f_add12 = put("add12.json", _atoms_doc("additive", add12))
    f_poss12 = put("poss12.json", _atoms_doc("possibility", poss12))
    f_x12 = put("x12.json", _atoms_doc("function", x12))

    return [
        Command("check-k12-atoms", ["check", "--measure", f_max12, "--order", "0"], k,
                _check_check(nu=max12)),
        Command("check-k12-table", ["check", "--measure", f_table, "--order", "0"], k,
                _check_check(table=table)),
        Command("check-k12-times",
                ["check", "--measure", f_max12, "--order", "0", "--op", "times"], k,
                _check_check(nu=max12, finiteness=True)),
        Command("check-k10-atoms", ["check", "--measure", f_max10, "--order", "0"], k10,
                _check_check(nu=max10)),
        Command("variation-k10", ["variation", "--nu", f_max10], k10,
                _check_variation(max10)),
        Command("decompose-k12", ["decompose", "--nu", f_max12], k, _check_decompose(max12)),
        Command("density-residual-k12",
                ["density", "--method", "residual", "--op", "times", "--nu", f_nu12,
                 "--tau", f_tau12], k, _check_residual_density(nu12, tau12)),
        Command("density-envelope-k12",
                ["density", "--method", "envelope", "--nu", f_max12, "--m", f_add12], k,
                _check_envelope(max12, add12)),
        Command("density-envelope-inf-k12",
                ["density", "--method", "envelope", "--nu", f_maxinf, "--m", f_add12], k,
                _check_envelope(maxinf12, add12)),
        Command("condition-k12-times-suite",
                ["condition", "--op", "times", "--pi", f_poss12, "--x", f_x12,
                 "--sub", _blocks_arg(blocks12), "--suite"], k,
                _check_condition("times", x12, poss12, blocks12)),
        Command("integrate-k12-crosscheck",
                ["integrate", "--op", "times", "--measure", f_max12, "--fn", f_fn12,
                 "--crosscheck"], k,
                _check_integral("times", fn12, max12, range(k))),
        Command("esssup-k12", ["esssup", "--measure", f_max12, "--fn", f_fn12], k,
                _check_esssup(fn12, max12)),
    ]


def _monte_carlo(rng, put, rel, seed):
    k = 12
    ctl = _masses(rng, k)
    pw = float(np.round(rng.uniform(1.5, 3.0), 1))
    set_idx = _subset(rng, k, 6)
    f_ctl = put("ctl12.json", _atoms_doc("additive", ctl))
    csv_path = str(Path(rel) / "draws.csv")
    total = float(ctl.sum())
    on_set = float(ctl[set_idx].sum())
    common = ["--m", f_ctl, "--p", repr(pw), "--seed", str(seed)]
    return [
        Command("simulate-exact-n1e6", ["simulate", *common, "--n", "1000000"], k,
                _check_simulate(total, total, pw, 1_000_000)),
        Command("simulate-poisson-n1e6",
                ["simulate", *common, "--mode", "poisson", "--n", "1000000"], k,
                _check_simulate(total, total, pw, 1_000_000)),
        Command("simulate-csv-n1e5",
                ["simulate", *common, "--n", "100000", "--set", _set_arg(set_idx),
                 "--csv", csv_path], k,
                _check_simulate(total, on_set, pw, 100_000),
                files=[(csv_path, _check_csv(k, set_idx, 100_000))]),
        Command("suite-supmeasure", ["suite", "--ids", SIM_SUITE_IDS,
                                     "--seed", str(SUITE_SEED)], 0, _check_suite),
    ]


# name -> (builder, index that separates the workloads' seed sequences)
WORKLOADS = {
    "small-k": (_small_k, 1),
    "large-k": (_large_k, 2),
    "monte-carlo": (_monte_carlo, 3),
}


def guard(cmd):
    """Raise if a command leaves today's or the planned budgets."""
    verb, argv = cmd.argv[0], cmd.argv
    problems = []
    if cmd.k > MAX_TABLE_ATOMS:
        problems.append(f"{cmd.k} atoms exceed the {MAX_TABLE_ATOMS}-atom table budget")
    if verb == "variation" and cmd.k > MAX_VARIATION_ATOMS:
        problems.append(f"variation at {cmd.k} atoms exceeds {MAX_VARIATION_ATOMS}")
    if verb == "check":
        order = int(argv[argv.index("--order") + 1]) if "--order" in argv else 2
        if order >= 2 and cmd.k > MAX_ORDER2_ATOMS:
            problems.append(f"--order {order} at {cmd.k} atoms exceeds {MAX_ORDER2_ATOMS}")
    if verb in ("decompose", "condition") and cmd.k > MAX_STRUCTURE_ATOMS:
        problems.append(f"{verb} at {cmd.k} atoms exceeds {MAX_STRUCTURE_ATOMS}")
    if verb == "simulate" and int(argv[argv.index("--n") + 1]) > MAX_SIMULATE_N:
        problems.append(f"simulate n exceeds {MAX_SIMULATE_N}")
    if problems:
        raise ValueError(f"{cmd.name}: " + "; ".join(problems))


def generate(workload, seed, work, rel):
    """Write the workload's documents into ``work`` and return its commands.

    ``rel`` is the same directory relative to the checkout root; commands
    name their files through it so that reports do not depend on where the
    checkout lives.
    """
    builder, index = WORKLOADS[workload]
    rng = np.random.default_rng([int(seed), index])
    cmds = builder(rng, _Writer(work, rel), rel, int(seed))
    for cmd in cmds:
        guard(cmd)
    return cmds
