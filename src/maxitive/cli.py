"""Command line front end.

Every command reads measures and functions from JSON documents (see
modelio), prints exactly one JSON report to stdout with sorted keys, and
exits 0 on success, 1 on a domain refusal (no density, budget exceeded,
bad input values), 2 on usage errors. Seeded commands are byte-identical
across runs. No command starts a process: simulate formats the rows of its
--csv file block by block in this process, as it draws them.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import modelio, sampling
from .additive import AdditiveMeasure
from .density import density_from_associated, envelope_density, rn_density
from .errors import MaxitiveError
from .integral import idempotent_integral
from .measures import (
    MaxitiveMeasure,
    atom_decomposition,
    choquet_alternating,
    classify,
    disjoint_variation,
    essential_supremum,
    finiteness_suite,
)
from .possibility import PossibilitySpace, conditional, conditional_suite
from .semigroup import TableOp, by_name, builtin_names, verify_axioms
from .spaces import DEFAULT_TOL, MeasurableFn, SetFunction, as_table, build_space
from .supmeasure import sample_blocks
from .suites import INVARIANTS, run_all


def _resolve_op(text):
    """A builtin operation name, or a path to a table-operation document."""
    if text in builtin_names():
        return by_name(text)
    if text.endswith(".json"):
        return TableOp.from_json(modelio.load_document(text))
    raise ValueError(
        f"unknown operation {text!r}; builtins are {', '.join(builtin_names())} "
        "(or pass a .json table document)"
    )


def _parse_atoms_spec(text):
    """Inline measure spec like a:0.5,b:1 -> (space, values)."""
    labels = []
    values = []
    for part in text.split(","):
        if ":" not in part:
            raise ValueError(f"bad atom entry {part!r}; expected label:value")
        lab, val = part.split(":", 1)
        lab = lab.strip()
        if lab in labels:
            raise ValueError(f"duplicate atom label {lab!r}")
        labels.append(lab)
        values.append(modelio.decode_value(val.strip()))
    space = build_space(labels, [[l] for l in labels])
    return space, values


def _load(path):
    return modelio.load_measure(path)


def _need_fn(obj, what):
    if not isinstance(obj, MeasurableFn):
        raise ValueError(f"{what} must be a function document (kind 'function')")
    return obj


def _need_measure(obj, what):
    if isinstance(obj, PossibilitySpace):
        return obj.measure
    if isinstance(obj, (MaxitiveMeasure, AdditiveMeasure, SetFunction)):
        return obj
    raise ValueError(f"{what} must be a measure document, not a function")


def _need_maxitive(obj, what, tol):
    obj = _need_measure(obj, what)
    if isinstance(obj, MaxitiveMeasure):
        return obj
    if isinstance(obj, SetFunction):
        return MaxitiveMeasure.from_set_function(obj, tol)
    raise ValueError(f"{what} must be maxitive")


def _need_additive(obj, what, tol=DEFAULT_TOL):
    obj = _need_measure(obj, what)
    if isinstance(obj, AdditiveMeasure):
        return obj
    if isinstance(obj, SetFunction):
        return AdditiveMeasure.from_set_function(obj, tol)
    raise ValueError(f"{what} must be additive")


def _emit(command, payload):
    doc = {"schema": modelio.SCHEMA, "command": command}
    doc.update(payload)
    sys.stdout.write(modelio.dumps_report(doc))


# ---------------------------------------------------------------------------


def _cmd_check(args):
    obj = _need_measure(_load(args.measure), "--measure")
    w = as_table(obj)
    rep = classify(w, tol=args.tolerance)
    payload = {"properties": rep}
    if args.order > 0:
        payload["alternation"] = choquet_alternating(
            w, order=args.order, tol=args.tolerance
        )
    if args.op is not None:
        op = _resolve_op(args.op)
        payload["axioms"] = verify_axioms(op)
        if rep.maxitive:
            payload["finiteness"] = finiteness_suite(
                op, MaxitiveMeasure(w.space, rep.atom_values)
            )
    _emit("check", payload)
    return 0


def _cmd_integrate(args):
    op = _resolve_op(args.op)
    nu = _need_measure(_load(args.measure), "--measure")
    f = _need_fn(_load(args.fn), "--fn")
    space = nu.space
    bset = modelio.parse_set(space, args.set) if args.set else space.full()
    res = idempotent_integral(
        op, f, nu, bset, tol=args.tolerance, crosscheck=args.crosscheck
    )
    _emit("integrate", {"result": res, "set": bset, "op": op.name})
    return 0


def _cmd_esssup(args):
    tau = _need_measure(_load(args.measure), "--measure")
    f = _need_fn(_load(args.fn), "--fn")
    w = as_table(tau)
    bset = modelio.parse_set(w.space, args.set) if args.set else w.space.full()
    val = essential_supremum(w, f, bset, tol=args.tolerance)
    _emit("esssup", {"value": val, "set": bset})
    return 0


def _cmd_density(args):
    if args.method == "residual":
        op = _resolve_op(args.op)
        nu = _need_maxitive(_load(args.nu), "--nu", args.tolerance)
        tau = _need_maxitive(_load(args.tau), "--tau", args.tolerance)
        c = rn_density(op, nu, tau, tol=args.tolerance)
        _emit("density", {"method": "residual", "op": op.name, "density": c})
        return 0
    if args.method == "envelope":
        nu = _need_maxitive(_load(args.nu), "--nu", args.tolerance)
        m = _need_additive(_load(args.tau), "--tau", args.tolerance)
        rep = envelope_density(nu, m, tol=args.tolerance)
        _emit(
            "density",
            {
                "method": "envelope",
                "density": rep.density,
                "envelope": rep.envelope,
                "transformed": rep.transformed,
                "reconstruction_ok": rep.reconstruction_ok,
            },
        )
        return 0
    if args.method == "associated":
        op = _resolve_op(args.op)
        mu = _need_measure(_load(args.mu), "--mu")
        c1 = _need_fn(_load(args.c1), "--c1")
        c2 = _need_fn(_load(args.c2), "--c2")
        c = density_from_associated(op, mu, c1, c2, tol=args.tolerance)
        _emit("density", {"method": "associated", "op": op.name, "density": c})
        return 0
    raise ValueError(f"unknown method {args.method!r}")


def _cmd_decompose(args):
    nu = _need_maxitive(_load(args.nu), "--nu", args.tolerance)
    dec = atom_decomposition(nu)
    _emit("decompose", {"decomposition": dec})
    return 0


def _cmd_variation(args):
    nu = _need_maxitive(_load(args.nu), "--nu", args.tolerance)
    val = disjoint_variation(nu)
    _emit("variation", {"value": val})
    return 0


def _cmd_condition(args):
    op = _resolve_op(args.op)
    pi = _load(args.pi)
    if isinstance(pi, MaxitiveMeasure):
        pi = PossibilitySpace(pi, tol=args.tolerance)
    if not isinstance(pi, PossibilitySpace):
        raise ValueError("--pi must be a possibility (or normed maxitive) document")
    x = _need_fn(_load(args.x), "--x")
    sub = modelio.parse_subalgebra(pi.space, args.sub)
    if args.suite:
        rep = conditional_suite(op, x, pi, sub, tol=args.tolerance)
        _emit("condition", {"op": op.name, "suite": rep, "blocks": sub})
    else:
        y = conditional(op, x, pi, sub, tol=args.tolerance)
        _emit("condition", {"op": op.name, "conditional": y, "blocks": sub})
    return 0


def _cmd_residual(args):
    op = _resolve_op(args.op)
    r = modelio.decode_value(args.r)
    s = modelio.decode_value(args.s)
    defined = bool(op.residual_defined(r, s))
    abs_cont = bool(op.abs_cont(r, s))
    payload = {
        "op": op.name,
        "r": r,
        "s": s,
        "abs_cont": abs_cont,
        "residual_defined": defined,
    }
    if abs_cont:
        c = op.residual(r, s)
        payload["residual"] = c
        payload["recovers"] = bool(op(c, s) == r)
    _emit("residual", payload)
    return 0


def _csv_rows(rows):
    """CSV text of a 2-d float64 array: the shortest repr of each float joined
    by commas, which is what csv.writer writes for such fields, CRLF-terminated.

    orjson writes a float with Ryu, the same shortest round-trip digits as
    repr, and in the same notation for zero and for magnitudes in
    [1e-4, 1e16). Every other cell (inf, nan, tiny or huge values) goes to
    orjson as nan, which it writes as null, and the pieces of its text
    between the nulls are joined with the repr of those cells, in order.
    """
    # imported here: at import it would cost every other command its load time
    import orjson

    mag = np.abs(rows)
    odd = ~((mag < 1e16) & ((mag >= 1e-4) | (mag == 0.0)))
    text = orjson.dumps(np.where(odd, np.nan, rows), option=orjson.OPT_SERIALIZE_NUMPY)
    # [[1.0,2.0],[3.0,4.0]] -> 1.0,2.0\r\n3.0,4.0\r\n
    pieces = (text[2:-2].replace(b"],[", b"\r\n").decode() + "\r\n").split("null")
    out = [None] * (2 * len(pieces) - 1)
    out[::2] = pieces
    out[1::2] = map(repr, rows[odd].tolist())
    return "".join(out)


def _quantiles(draws, qs):
    """np.quantile's linear interpolation, taken to its limit at inf draws.

    Where an inf order statistic has positive weight the quantile is inf,
    and where its weight is 0 it is the lower order statistic; numpy forms
    inf - inf or inf * 0 there and returns NaN. Other quantiles are numpy's.
    """
    with np.errstate(invalid="ignore"):
        out = np.quantile(draws, qs)
    nan = np.isnan(out)
    if nan.any():
        at = (len(draws) - 1) * np.asarray(qs)
        lower = np.quantile(draws, qs, method="lower")
        out[nan] = np.where(at == np.floor(at), lower, math.inf)[nan]
    return out


def _cmd_simulate(args):
    if not args.p > 0:
        raise ValueError(f"--p must be a positive tail index, got {args.p}")
    if args.n < 0:
        raise ValueError(f"--n must be a nonnegative sample count, got {args.n}")
    if args.m is not None:
        m = _need_additive(_load(args.m), "--m")
    elif args.atoms is not None:
        space, values = _parse_atoms_spec(args.atoms)
        m = AdditiveMeasure(space, values)
    else:
        raise ValueError("pass --m FILE or --atoms label:value,...")
    bset = modelio.parse_set(m.space, args.set) if args.set else m.space.full()
    if not bset.mask:
        if args.set:
            raise ValueError(f"--set {args.set!r} names no atom; pass labels like a+b")
        raise ValueError("the control measure has no atoms")
    rng = sampling.rng_for(args.seed, args.stream)
    blocks = sample_blocks(m, args.p, rng, args.n, mode=args.mode, eps=args.eps)
    cols = bset.atom_indices()
    draws = np.empty(args.n)

    def set_values():
        # each block with its rows' values on the set, which land in draws
        for start, block in blocks:
            out = draws[start : start + len(block)]
            np.copyto(out, block[:, cols[0]])
            for c in cols[1:]:
                np.maximum(out, block[:, c], out=out)
            yield block, out

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            # csv.writer quotes the labels as needed
            csv.writer(fh).writerow(list(m.space.atom_labels()) + ["value"])
            for pair in set_values():
                fh.write(_csv_rows(np.column_stack(pair)))
    else:
        for _ in set_values():
            pass
    payload = {
        "mode": args.mode,
        "p": args.p,
        "n": args.n,
        "seed": args.seed,
        "stream": args.stream,
        "set": bset,
        "total_mass": m.total(),
    }
    if args.mode == "poisson":
        payload["eps"] = args.eps
    if args.n <= 1000:
        payload["draws"] = [float(v) for v in draws]
    else:
        qs = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
        payload["quantiles"] = {str(q): float(v) for q, v in zip(qs, _quantiles(draws, qs))}
        # inf at an inf draw; where only a finite sum overflows, sum draws / n
        with np.errstate(over="ignore"):
            mean = float(draws.mean())
        if math.isinf(mean) and np.isfinite(draws).all():
            mean = float(np.sum(draws / args.n))
        payload["mean"] = mean
    if args.csv:
        payload["csv"] = args.csv
    _emit("simulate", payload)
    return 0


def _cmd_suite(args):
    ids = None
    if args.ids:
        ids = [s.strip() for s in args.ids.split(",") if s.strip()]
        unknown = [i for i in ids if i not in INVARIANTS]
        if unknown:
            raise ValueError(f"unknown invariant ids: {unknown}")
    rep = run_all(seed=args.seed, tol=args.tolerance, ids=ids)
    _emit("suite", {"ok": rep.ok, "results": rep.results, "seed": args.seed})
    return 0 if rep.ok else 1


# ---------------------------------------------------------------------------


def _tolerance(text):
    """A --tolerance in [0, 1); at 1 or more every two finite values are close."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in [0, 1), got {text!r}")
    return tol


def build_parser():
    parser = argparse.ArgumentParser(
        prog="maxitive",
        description="Maxitive measures: integrals, densities, conditioning, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--tolerance", type=_tolerance, default=1e-9,
                       help="numeric comparison tolerance in [0, 1) (default 1e-9)")

    p = sub.add_parser("check", help="classify a set function and test alternation")
    p.add_argument("--measure", required=True, help="measure JSON document")
    p.add_argument("--order", type=int, default=2,
                   help="alternation order to verify (0 skips; default 2)")
    p.add_argument("--op", default=None,
                   help="also verify operation axioms and finiteness under this operation")
    add_tol(p)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("integrate", help="idempotent integral of a function")
    p.add_argument("--op", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--set", default=None, help="restrict to a set like a+b")
    p.add_argument("--crosscheck", action="store_true",
                   help="also run the exponential submask oracle")
    add_tol(p)
    p.set_defaults(run=_cmd_integrate)

    p = sub.add_parser("esssup", help="essential supremum of a function")
    p.add_argument("--measure", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--set", default=None)
    add_tol(p)
    p.set_defaults(run=_cmd_esssup)

    p = sub.add_parser("density", help="extract and verify a density")
    p.add_argument("--method", choices=("residual", "envelope", "associated"),
                   default="residual")
    p.add_argument("--op", default="times")
    p.add_argument("--nu", help="numerator measure (residual, envelope)")
    p.add_argument("--tau", "--m", dest="tau",
                   help="reference measure (residual: maxitive; envelope: additive)")
    p.add_argument("--mu", help="background measure (associated)")
    p.add_argument("--c1", help="numerator density document (associated)")
    p.add_argument("--c2", help="reference density document (associated)")
    add_tol(p)
    p.set_defaults(run=_cmd_density)

    p = sub.add_parser("decompose", help="optimal-measure atom decomposition")
    p.add_argument("--nu", required=True)
    add_tol(p)
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("variation", help="disjoint variation of a maxitive measure")
    p.add_argument("--nu", required=True)
    add_tol(p)
    p.set_defaults(run=_cmd_variation)

    p = sub.add_parser("condition", help="conditional variable on a sub-algebra")
    p.add_argument("--op", required=True)
    p.add_argument("--pi", required=True, help="possibility document")
    p.add_argument("--x", required=True, help="variable document")
    p.add_argument("--sub", required=True, help="blocks like a+b|c+d")
    p.add_argument("--suite", action="store_true",
                   help="verify the conditioning laws, not just the value")
    add_tol(p)
    p.set_defaults(run=_cmd_condition)

    p = sub.add_parser("residual", help="scalar residual r / s under an operation")
    p.add_argument("op", help="operation name or table document")
    p.add_argument("r")
    p.add_argument("s")
    p.set_defaults(run=_cmd_residual)

    p = sub.add_parser("simulate", help="sample a Frechet sup-measure")
    p.add_argument("--m", default=None, help="additive control measure document")
    p.add_argument("--atoms", default=None,
                   help="inline control measure like a:0.5,b:0.5")
    p.add_argument("--p", type=float, required=True, help="tail index")
    p.add_argument("--mode", choices=("exact", "poisson"), default="exact")
    p.add_argument("--eps", type=float, default=1e-3,
                   help="point-process truncation (poisson mode)")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--set", default=None, help="evaluate the measure on this set")
    p.add_argument("--csv", default=None, help="also write per-atom draws to this file")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("suite", help="run the registered invariants")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ids", default=None, help="comma-separated invariant ids")
    add_tol(p)
    p.set_defaults(run=_cmd_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (MaxitiveError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
