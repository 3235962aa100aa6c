"""Per-layer timing of the maxitive modules, recorded from outside the program.

``install`` wraps the public functions of each module in a span recorder
and rebinds every name under which a ``maxitive.*`` module holds them, so a
call is timed whichever namespace it goes through (``atom_integral`` is
bound in ``integral``, ``density`` and ``possibility``; ``classify`` reads
the ``is_*`` predicates through the ``measures`` globals). ``uninstall``
puts the originals back. Nothing in the program changes.

Spans are kept in memory: name, parent span, start, end and self time (the
span minus the time its child spans cover, tracked with a parent stack).
A function that re-enters itself counts its outermost span only in its
total, so totals never double count; self times always add up to the time
of the outermost ``cli.main`` spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

PREDICATES = (
    "is_monotone",
    "is_normed",
    "is_null_additive",
    "is_finite_valued",
    "is_sigma_finite",
    "is_maxitive",
    "is_completely_maxitive",
    "is_continuous_from_above",
    "is_exhaustive",
    "is_ccc",
    "is_sigma_principal",
    "is_autocontinuous",
    "is_of_bounded_variation",
    "is_essential",
)

# module -> traced module-level functions
FUNCTIONS = {
    "cli": ("main",),
    "modelio": ("load_measure", "dumps_report"),
    "measures": (
        "classify",
        *PREDICATES,
        "finiteness_suite",
        "atom_decomposition",
        "total_variation",
        "disjoint_variation",
        "essential_supremum",
        "choquet_alternating",
    ),
    "integral": ("idempotent_integral", "gerritse_integral", "atom_integral"),
    "density": ("rn_density", "verify_density", "envelope_measure", "envelope_density"),
    "additive": ("classical_density",),
    "possibility": ("conditional", "conditional_suite"),
    "semigroup": ("verify_axioms",),
    "supmeasure": (
        "sample_matrix",
        "frechet_marginal_check",
        "compare_modes_check",
        "scale_recovery_check",
        "tail_ratio_check",
    ),
    "suites": ("run_all",),
}

# (module, class, method, span name)
METHODS = (
    ("spaces", "SetFunction", "__init__", "spaces.SetFunction"),
    ("measures", "MaxitiveMeasure", "to_set_function", "measures.to_set_function"),
    ("additive", "AdditiveMeasure", "to_set_function", "additive.to_set_function"),
)

# registry areas of maxitive.suites, one span per invariant call
AREAS = (
    "space_core",
    "pseudo_mul",
    "maxitive",
    "integral",
    "radon_nikodym",
    "possibility",
    "supmeasure_sim",
    "classical_bridge",
    "cli",
)


def _count_bytes_in(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return "modelio.bytes_in", os.path.getsize(path)


def _count_build(args, kwargs):
    return "measures.to_set_function_builds", int(args[0]._table is None)


def _count_draws(args, kwargs):
    m, n = args[0], args[3] if len(args) > 3 else kwargs["n"]
    return "supmeasure.draws", int(n) * m.space.n_atoms


def _count_bytes_out(result):
    return "modelio.bytes_out", len(result.encode())


# span name -> counter taken from the arguments before the call
PRE = {
    "modelio.load_measure": _count_bytes_in,
    "measures.to_set_function": _count_build,
    "supmeasure.sample_matrix": _count_draws,
}
# span name -> counter taken from the result
POST = {"modelio.dumps_report": _count_bytes_out}


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        # one [name, parent, start, end, self_s] per span, in opening order
        self.spans = []
        self.totals = Counter()  # outermost inclusive time per name
        self.selfs = Counter()
        self.calls = Counter()
        self.counters = Counter()
        self._stack = []  # [span index, time covered by children]
        self._depth = Counter()

    def wrap(self, name, fn):
        pre, post = PRE.get(name), POST.get(name)
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                key, amount = pre(args, kwargs)
                self.counters[key] += amount
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - start
                own = dur - frame[1]
                spans[index] = [name, parent, start, end, own]
                if stack:
                    stack[-1][1] += dur
                if depth[name] == 0:
                    self.totals[name] += dur
                self.selfs[name] += own
                self.calls[name] += 1
            if post is not None:
                key, amount = post(result)
                self.counters[key] += amount
            return result

        return traced


def _modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "maxitive" or name.startswith("maxitive."))
    ]


def install(tracer):
    """Wrap every traced function under every binding; return the undo list.

    Raises if a binding of a traced function survives, since its calls would
    go untimed.
    """
    modules = _modules()
    undo = []
    originals = []
    for short, names in FUNCTIONS.items():
        home = sys.modules[f"maxitive.{short}"]
        for fname in names:
            orig = getattr(home, fname)
            traced = tracer.wrap(f"{short}.{fname}", orig)
            originals.append(orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, traced)
    for short, cls_name, meth, span in METHODS:
        cls = getattr(sys.modules[f"maxitive.{short}"], cls_name)
        orig = cls.__dict__[meth]
        originals.append(orig)
        undo.append((cls, meth, orig))
        setattr(cls, meth, tracer.wrap(span, orig))
    for inv in sys.modules["maxitive.suites"].INVARIANTS.values():
        undo.append((inv, "fn", inv.fn))
        inv.fn = tracer.wrap(f"suites.area.{inv.area}", inv.fn)
    ids = {id(orig) for orig in originals}
    missed = [
        f"{mod.__name__}.{attr}"
        for mod in modules
        for attr, value in vars(mod).items()
        if id(value) in ids
    ]
    if missed:
        uninstall(undo)
        raise RuntimeError(f"untraced bindings remain: {missed}")
    return undo


def uninstall(undo):
    for obj, attr, orig in reversed(undo):
        setattr(obj, attr, orig)


# spans reported as `<span>_s`, their outermost inclusive time per pass
TIME_SPANS = (
    "modelio.load_measure",
    "modelio.dumps_report",
    "spaces.SetFunction",
    "measures.to_set_function",
    "measures.classify",
    *(f"measures.{p}" for p in PREDICATES),
    "measures.finiteness_suite",
    "measures.atom_decomposition",
    "measures.total_variation",
    "measures.disjoint_variation",
    "measures.essential_supremum",
    "measures.choquet_alternating",
    "integral.idempotent_integral",
    "integral.gerritse_integral",
    "integral.atom_integral",
    "density.rn_density",
    "density.verify_density",
    "density.envelope_measure",
    "additive.to_set_function",
    "additive.classical_density",
    "possibility.conditional",
    "possibility.conditional_suite",
    "semigroup.verify_axioms",
    "supmeasure.sample_matrix",
    "supmeasure.frechet_marginal_check",
    "supmeasure.compare_modes_check",
    "supmeasure.scale_recovery_check",
    "supmeasure.tail_ratio_check",
    "suites.run_all",
    *(f"suites.area.{a}" for a in AREAS),
)


def span_metrics(tracer, passes):
    """Per-layer figures of the traced passes, averaged per pass."""
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value / passes, "unit": unit}

    put("cli.main_s", tracer.totals["cli.main"], "s")
    put("cli.main_self_s", tracer.selfs["cli.main"], "s")
    put("modelio.bytes_in", tracer.counters["modelio.bytes_in"], "B")
    put("modelio.bytes_out", tracer.counters["modelio.bytes_out"], "B")
    put("measures.to_set_function_calls", tracer.calls["measures.to_set_function"], "count")
    put("measures.to_set_function_builds",
        tracer.counters["measures.to_set_function_builds"], "count")
    put("integral.atom_integral_calls", tracer.calls["integral.atom_integral"], "count")
    put("possibility.conditional_calls", tracer.calls["possibility.conditional"], "count")
    put("density.envelope_density_self_s", tracer.selfs["density.envelope_density"], "s")
    for span in TIME_SPANS:
        put(f"{span}_s", tracer.totals[span], "s")
    sampling = tracer.totals["supmeasure.sample_matrix"]
    draws = tracer.counters["supmeasure.draws"]
    out["supmeasure.draws_per_s"] = {
        "value": draws / sampling if sampling > 0 else 0.0, "unit": "1/s"
    }
    return out


def self_by_module(tracer):
    """Self time per module (first part of the span name)."""
    agg = Counter()
    for name, own in tracer.selfs.items():
        agg[name.split(".")[0]] += own
    return agg
