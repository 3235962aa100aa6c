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
import math
import sys

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
from .spaces import DEFAULT_TOL, MeasurableFn, SetFunction, build_space, np
from .supmeasure import fold_columns, sample_blocks, sample_set_values
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
    w = _need_measure(modelio.load_measure(args.measure), "--measure")
    rep = classify(w, tol=args.tolerance)
    payload = {"properties": rep}
    if args.order > 0:
        payload["alternation"] = choquet_alternating(w, args.order, args.tolerance)
    if args.op is not None:
        op = _resolve_op(args.op)
        payload["axioms"] = verify_axioms(op)
        if rep.maxitive:
            payload["finiteness"] = finiteness_suite(op, MaxitiveMeasure(w.space, rep.atom_values))
    _emit("check", payload)
    return 0


def _cmd_integrate(args):
    op = _resolve_op(args.op)
    nu = _need_measure(modelio.load_measure(args.measure), "--measure")
    f = _need_fn(modelio.load_measure(args.fn), "--fn")
    space = nu.space
    bset = modelio.parse_set(space, args.set) if args.set else space.full()
    res = idempotent_integral(
        op, f, nu, bset, tol=args.tolerance, crosscheck=args.crosscheck
    )
    _emit("integrate", {"result": res, "set": bset, "op": op.name})
    return 0


def _cmd_esssup(args):
    tau = _need_measure(modelio.load_measure(args.measure), "--measure")
    f = _need_fn(modelio.load_measure(args.fn), "--fn")
    bset = modelio.parse_set(tau.space, args.set) if args.set else tau.space.full()
    val = essential_supremum(tau, f, bset, tol=args.tolerance)
    _emit("esssup", {"value": val, "set": bset})
    return 0


# the documents each density method reads: option dest -> its name in usage
DENSITY_INPUTS = {
    "residual": {"nu": "--nu", "tau": "--tau/--m"},
    "envelope": {"nu": "--nu", "tau": "--tau/--m"},
    "associated": {"mu": "--mu", "c1": "--c1", "c2": "--c2"},
}


def _cmd_density(args):
    missing = [name for dest, name in DENSITY_INPUTS[args.method].items()
               if getattr(args, dest) is None]
    if missing:
        args.usage_error(f"the following arguments are required for --method "
                         f"{args.method}: {', '.join(missing)}")
    if args.method == "residual":
        op = _resolve_op(args.op)
        nu = _need_maxitive(modelio.load_measure(args.nu), "--nu", args.tolerance)
        tau = _need_maxitive(modelio.load_measure(args.tau), "--tau", args.tolerance)
        c = rn_density(op, nu, tau, tol=args.tolerance)
        _emit("density", {"method": "residual", "op": op.name, "density": c})
        return 0
    if args.method == "envelope":
        nu = _need_maxitive(modelio.load_measure(args.nu), "--nu", args.tolerance)
        m = _need_additive(modelio.load_measure(args.tau), "--tau", args.tolerance)
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
        mu = _need_measure(modelio.load_measure(args.mu), "--mu")
        c1 = _need_fn(modelio.load_measure(args.c1), "--c1")
        c2 = _need_fn(modelio.load_measure(args.c2), "--c2")
        c = density_from_associated(op, mu, c1, c2, tol=args.tolerance)
        _emit("density", {"method": "associated", "op": op.name, "density": c})
        return 0
    raise ValueError(f"unknown method {args.method!r}")


def _cmd_decompose(args):
    nu = _need_maxitive(modelio.load_measure(args.nu), "--nu", args.tolerance)
    dec = atom_decomposition(nu)
    _emit("decompose", {"decomposition": dec})
    return 0


def _cmd_variation(args):
    nu = _need_maxitive(modelio.load_measure(args.nu), "--nu", args.tolerance)
    val = disjoint_variation(nu)
    _emit("variation", {"value": val})
    return 0


def _cmd_condition(args):
    op = _resolve_op(args.op)
    pi = modelio.load_measure(args.pi)
    if isinstance(pi, MaxitiveMeasure):
        pi = PossibilitySpace(pi, tol=args.tolerance)
    if not isinstance(pi, PossibilitySpace):
        raise ValueError("--pi must be a possibility (or normed maxitive) document")
    x = _need_fn(modelio.load_measure(args.x), "--x")
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
    """CSV bytes of a 2-d float64 array: the shortest repr of each float
    joined by commas, which is what csv.writer writes for such fields,
    CRLF-terminated.

    orjson writes a float with Ryu, the same shortest round-trip digits as
    repr, and in the same notation for zero and for magnitudes in
    [1e-4, 1e16). Every other cell (inf, nan, tiny or huge values) goes to
    orjson as nan, which it writes as null, and the pieces of its text
    between the nulls are joined with the repr of those cells, in order.
    Without such a cell the rows go to orjson as they are, and its text is
    only cut at the row brackets.
    """
    # imported here: at import it would cost every other command its load time
    import orjson

    mag = np.abs(rows)
    odd = ~((mag < 1e16) & ((mag >= 1e-4) | (mag == 0.0)))
    any_odd = odd.any()
    text = orjson.dumps(np.where(odd, np.nan, rows) if any_odd else rows,
                        option=orjson.OPT_SERIALIZE_NUMPY)
    # [[1.0,2.0],[3.0,4.0]] -> 1.0,2.0\r\n3.0,4.0\r\n
    lines = text[2:-2].split(b"],[")
    lines.append(b"")
    body = b"\r\n".join(lines)
    if not any_odd:
        return body
    pieces = body.split(b"null")
    out = [None] * (2 * len(pieces) - 1)
    out[::2] = pieces
    out[1::2] = (repr(x).encode() for x in rows[odd].tolist())
    return b"".join(out)


def _quantiles(draws, qs):
    """np.quantile's linear interpolation, taken to its limit at inf draws.

    Where an inf order statistic has positive weight the quantile is inf,
    and where its weight is 0 it is the lower order statistic; numpy forms
    inf - inf or inf * 0 there and returns NaN. Other quantiles are numpy's.
    The draws are partitioned in place, not copied: take what depends on
    their order first.
    """
    with np.errstate(invalid="ignore"):
        out = np.quantile(draws, qs, overwrite_input=True)
    nan = np.isnan(out)
    if nan.any():
        at = (len(draws) - 1) * np.asarray(qs)
        lower = np.quantile(draws, qs, method="lower", overwrite_input=True)
        out[nan] = np.where(at == np.floor(at), lower, math.inf)[nan]
    return out


def _cmd_simulate(args):
    if not args.p > 0:
        raise ValueError(f"--p must be a positive tail index, got {args.p}")
    if args.n < 0:
        raise ValueError(f"--n must be a nonnegative sample count, got {args.n}")
    if args.m is not None:
        m = _need_additive(modelio.load_measure(args.m), "--m")
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
    if args.csv:
        # every atom's maximum is written, so the power is taken per cell
        blocks = sample_blocks(m, args.p, rng, args.n, mode=args.mode, eps=args.eps)
        cols = bset.atom_indices()
        draws = np.empty(args.n)
        # imported here: at import it would cost every other command its load time
        import csv

        with open(args.csv, "w", newline="") as fh:
            # csv.writer quotes the labels as needed; the rows go to the
            # bytes below it
            csv.writer(fh).writerow(list(m.space.atom_labels()) + ["value"])
            fh.flush()
            for start, block in blocks:
                out = fold_columns(block, cols, np.maximum, draws[start : start + len(block)])
                fh.buffer.write(_csv_rows(np.column_stack((block, out))))
    else:
        draws = sample_set_values(m, args.p, rng, args.n, bset, mode=args.mode, eps=args.eps)
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
        payload["draws"] = draws.tolist()
    else:
        # the mean first, on the draws in order: _quantiles reorders them.
        # inf at an inf draw; where only a finite sum overflows, sum draws / n
        with np.errstate(over="ignore"):
            mean = float(draws.mean())
        if math.isinf(mean) and np.isfinite(draws).all():
            mean = float(np.sum(draws / args.n))
        payload["mean"] = mean
        qs = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
        payload["quantiles"] = {str(q): float(v) for q, v in zip(qs, _quantiles(draws, qs))}
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


def _add_tol(p):
    p.add_argument("--tolerance", type=_tolerance, default=1e-9,
                   help="numeric comparison tolerance in [0, 1) (default 1e-9)")


def _check_args(p):
    p.add_argument("--measure", required=True, help="measure JSON document")
    p.add_argument("--order", type=int, default=2,
                   help="alternation order to verify (0 skips; default 2)")
    p.add_argument("--op", default=None,
                   help="also verify operation axioms and finiteness under this operation")
    _add_tol(p)


def _integrate_args(p):
    p.add_argument("--op", required=True)
    p.add_argument("--measure", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--set", default=None, help="restrict to a set like a+b")
    p.add_argument("--crosscheck", action="store_true",
                   help="also run the exponential submask oracle")
    _add_tol(p)


def _esssup_args(p):
    p.add_argument("--measure", required=True)
    p.add_argument("--fn", required=True)
    p.add_argument("--set", default=None)
    _add_tol(p)


def _density_args(p):
    p.add_argument("--method", choices=("residual", "envelope", "associated"),
                   default="residual")
    p.add_argument("--op", default="times")
    p.add_argument("--nu", help="numerator measure (residual, envelope)")
    p.add_argument("--tau", "--m", dest="tau",
                   help="reference measure (residual: maxitive; envelope: additive)")
    p.add_argument("--mu", help="background measure (associated)")
    p.add_argument("--c1", help="numerator density document (associated)")
    p.add_argument("--c2", help="reference density document (associated)")
    _add_tol(p)
    # which documents are required depends on --method; a missing one is a
    # usage error, exit 2, as a missing required option is
    p.set_defaults(usage_error=p.error)


def _nu_args(p):
    p.add_argument("--nu", required=True)
    _add_tol(p)


def _condition_args(p):
    p.add_argument("--op", required=True)
    p.add_argument("--pi", required=True, help="possibility document")
    p.add_argument("--x", required=True, help="variable document")
    p.add_argument("--sub", required=True, help="blocks like a+b|c+d")
    p.add_argument("--suite", action="store_true",
                   help="verify the conditioning laws, not just the value")
    _add_tol(p)


def _residual_args(p):
    p.add_argument("op", help="operation name or table document")
    p.add_argument("r")
    p.add_argument("s")


def _simulate_args(p):
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


def _suite_args(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ids", default=None, help="comma-separated invariant ids")
    _add_tol(p)


# verb -> (help, adds its arguments, runs it), in the order usage lists them
VERBS = {
    "check": ("classify a set function and test alternation", _check_args, _cmd_check),
    "integrate": ("idempotent integral of a function", _integrate_args, _cmd_integrate),
    "esssup": ("essential supremum of a function", _esssup_args, _cmd_esssup),
    "density": ("extract and verify a density", _density_args, _cmd_density),
    "decompose": ("optimal-measure atom decomposition", _nu_args, _cmd_decompose),
    "variation": ("disjoint variation of a maxitive measure", _nu_args, _cmd_variation),
    "condition": ("conditional variable on a sub-algebra", _condition_args, _cmd_condition),
    "residual": ("scalar residual r / s under an operation", _residual_args, _cmd_residual),
    "simulate": ("sample a Frechet sup-measure", _simulate_args, _cmd_simulate),
    "suite": ("run the registered invariants", _suite_args, _cmd_suite),
}


def build_parser(verb=None):
    """The command line parser; with a known verb, only that verb's subparser.

    The top-level usage line names every verb either way, so a usage error
    reads the same. Without a known verb (a missing or unknown one, or a
    top-level -h) every subparser is built, for the help and error texts.
    """
    parser = argparse.ArgumentParser(
        prog="maxitive",
        description="Maxitive measures: integrals, densities, conditioning, simulation.",
    )
    if verb in VERBS:
        # the metavar argparse would write for the full set of choices
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(VERBS) + "}")
        names = (verb,)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = VERBS
    for name in names:
        help_text, add_args, run = VERBS[name]
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(run=run)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.run(args)
    except (MaxitiveError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
