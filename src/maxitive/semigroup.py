"""Ordered semigroup operations on [0, inf] and their residuals.

Builtin operations: ``times`` and ``min`` are pseudo-multiplications
(associative, monotone, continuous where required, with a left identity,
0 as annihilator and no zero divisors); ``plus`` and ``max`` are ordered
semigroups with a left identity but fail the annihilator axiom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NotAbsolutelyContinuous
from .spaces import DEFAULT_TOL, INF, close, esub, le


def _times(s, t):
    # 0 * inf = inf * 0 = 0 by convention
    if s == 0.0 or t == 0.0:
        return 0.0
    return s * t


def _plus(s, t):
    return s + t


def _min(s, t):
    return s if s <= t else t


def _max(s, t):
    return s if s >= t else t


class SemigroupOp:
    """An ordered semigroup operation with optional residuation data.

    ``residual_defined(r, s)`` delimits the region where the Galois
    equivalence  r <= t (.) s  <=>  residual(r, s) <= t  is guaranteed.
    ``abs_cont(r, s)`` is the scalar relation r << s, i.e. r <= inf (.) s.
    """

    def __init__(
        self,
        name,
        eval_fn,
        left_identity=None,
        exact=False,
        abs_cont=None,
        residual=None,
        residual_defined=None,
        omap=None,
    ):
        self.name = name
        self._eval = eval_fn
        self.left_identity = left_identity
        self.exact = exact
        self._abs_cont = abs_cont
        self._residual = residual
        self._residual_defined = residual_defined
        self._omap = omap

    def __call__(self, s, t):
        return self._eval(float(s), float(t))

    def abs_cont(self, r, s):
        """Scalar relation r << s: some t has r <= t (.) s."""
        return self._abs_cont(float(r), float(s))

    def residual(self, r, s):
        """(r / s) for this operation; raises outside the admissible region."""
        r, s = float(r), float(s)
        if not self._abs_cont(r, s):
            raise NotAbsolutelyContinuous(
                f"{r} is not absolutely continuous with respect to {s} under {self.name}"
            )
        return self._residual(r, s)

    def residual_defined(self, r, s):
        return self._residual_defined(float(r), float(s))

    def omap(self, t):
        """O(t) = inf over s > 0 of s (.) t."""
        return self._omap(float(t))

    def finite_element(self, t):
        """Whether t is op-finite, i.e. O(t) = 0."""
        return self.omap(t) == 0.0

    def nondegenerate(self):
        """A pseudo-multiplication is non-degenerate when its identity is op-finite."""
        if self.left_identity is None:
            return False
        return self.finite_element(self.left_identity)

    def __repr__(self):
        return f"SemigroupOp({self.name!r})"


def _times_abs_cont(r, s):
    return r == 0.0 or s != 0.0


def _times_residual(r, s):
    if r == 0.0:
        return 0.0
    if math.isinf(s):
        # (inf/inf) := inf is an exactness witness; finite r has no witness
        return INF if math.isinf(r) else 0.0
    return r / s


def _times_residual_defined(r, s):
    # no Galois element exists at (r, inf) for r > 0: {t : r <= t*inf} = (0, inf]
    return r == 0.0 or (0.0 < s < INF)


def _min_abs_cont(r, s):
    return r <= s


def _min_residual(r, s):
    return r


def _plus_residual(r, s):
    return max(0.0, esub(r, s))


def _max_residual(r, s):
    return 0.0 if r <= s else r


TIMES = SemigroupOp(
    "times",
    _times,
    left_identity=1.0,
    exact=True,
    abs_cont=_times_abs_cont,
    residual=_times_residual,
    residual_defined=_times_residual_defined,
    omap=lambda t: INF if math.isinf(t) else 0.0,
)

MIN = SemigroupOp(
    "min",
    _min,
    left_identity=INF,
    exact=True,
    abs_cont=_min_abs_cont,
    residual=_min_residual,
    residual_defined=_min_abs_cont,
    omap=lambda t: 0.0,
)

PLUS = SemigroupOp(
    "plus",
    _plus,
    left_identity=0.0,
    exact=False,
    abs_cont=lambda r, s: True,
    residual=_plus_residual,
    residual_defined=lambda r, s: True,
    omap=lambda t: t,
)

MAX = SemigroupOp(
    "max",
    _max,
    left_identity=0.0,
    exact=False,
    abs_cont=lambda r, s: True,
    residual=_max_residual,
    residual_defined=lambda r, s: True,
    omap=lambda t: t,
)

_BUILTINS = {"times": TIMES, "min": MIN, "plus": PLUS, "max": MAX}


def by_name(name):
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown operation {name!r}; builtins: {sorted(_BUILTINS)}")


def builtin_names():
    return tuple(sorted(_BUILTINS))


class TableOp(SemigroupOp):
    """An operation given by a value table over a declared grid.

    Evaluation is exact-lookup only; residuation takes the least grid t with
    r <= t (.) s. The ``exact`` flag is set by checking every admissible grid
    pair for an exactness witness.
    """

    def __init__(self, name, grid, values, left_identity=None):
        grid = [float(g) for g in grid]
        if sorted(grid) != grid or len(set(grid)) != len(grid):
            raise ValueError("grid must be strictly increasing")
        self.grid = grid
        self._index = {g: i for i, g in enumerate(grid)}
        vals = [[float(v) for v in row] for row in values]
        if len(vals) != len(grid) or any(len(row) != len(grid) for row in vals):
            raise ValueError("values must be a square table over the grid")
        self._values = vals

        def at(v):
            try:
                return self._index[v]
            except KeyError:
                raise ValueError(f"{v} is off the declared grid of {name!r}") from None

        def eval_fn(s, t):
            return self._values[at(s)][at(t)]

        def abs_cont(r, s):
            col = at(s)
            return any(self._values[i][col] >= r for i in range(len(grid)))

        def residual(r, s):
            col = at(s)
            cands = [grid[i] for i in range(len(grid)) if self._values[i][col] >= r]
            return min(cands)

        def omap(t):
            col = at(t)
            pos = [self._values[i][col] for i in range(len(grid)) if grid[i] > 0]
            return min(pos) if pos else INF

        super().__init__(
            name,
            eval_fn,
            left_identity=left_identity,
            exact=False,
            abs_cont=abs_cont,
            residual=residual,
            residual_defined=abs_cont,
            omap=omap,
        )
        self.exact = self._check_exact()

    def _check_exact(self):
        for r in self.grid:
            for s in self.grid:
                if not self._abs_cont(r, s):
                    continue
                c = self._residual(r, s)
                if self(c, s) != r:
                    return False
        return True

    @classmethod
    def from_json(cls, doc):
        # local: modelio imports additive, which imports this module
        from .modelio import decode_value

        grid = [decode_value(g) for g in doc["grid"]]
        values = [[decode_value(v) for v in row] for row in doc["values"]]
        ident = doc.get("left_identity")
        ident = decode_value(ident) if ident is not None else None
        return cls(doc.get("name", "custom"), grid, values, left_identity=ident)


def default_grid():
    """Axiom-check grid: 0, inf, and twenty finite positive points."""
    finite = [
        1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.2, 0.5, 0.7, 1.0, 1.5,
        2.0, math.e, 3.0, 5.0, 7.0, 10.0, 30.0, 100.0, 300.0, 1e3,
    ]
    return [0.0] + finite + [INF]


@dataclass
class AxiomReport:
    """One boolean per semigroup axiom plus a sampled continuity verdict."""

    op: str
    associative: bool
    monotone: bool
    left_identity: bool
    annihilator: bool
    no_zero_divisors: bool
    continuity_sampled: bool
    pseudo_multiplication: bool
    witnesses: dict = field(default_factory=dict)


def _atan_gap(a, b):
    return abs(math.atan(a) - math.atan(b))


def _refines_away(f, a, b, jump_tol, rounds=80):
    """Bisect a flagged jump of f on (a, b); True when it shrinks below tol.

    A continuous f sheds its gap geometrically under bisection toward the
    steeper side; a genuine jump keeps its size while the interval collapses.
    Infinite right endpoints are probed by growing arguments toward the
    limit value instead of bisecting.
    """
    fa, fb = f(a), f(b)
    if math.isinf(b):
        x = max(1.0, a)
        for _ in range(25):
            x *= 10.0
            if _atan_gap(f(x), fb) <= jump_tol:
                return True
        return False
    if a == 0.0:
        x = b
        for _ in range(25):
            x /= 10.0
            if _atan_gap(f(x), fa) <= jump_tol:
                return True
        return False
    lo, hi, flo, fhi = a, b, fa, fb
    for _ in range(rounds):
        if _atan_gap(flo, fhi) <= jump_tol:
            return True
        if hi - lo <= 1e-12 * max(1.0, abs(lo)):
            return False
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if _atan_gap(flo, fmid) >= _atan_gap(fmid, fhi):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return _atan_gap(flo, fhi) <= jump_tol


def _continuity_scan(op, finite_pos, jump_tol, refine):
    """The first grid jump above jump_tol, bisected away first when refine."""
    first_args = finite_pos + [INF]
    second_args = [0.0] + finite_pos + [INF]
    for t in second_args:
        for a, b in zip(first_args, first_args[1:]):
            if _atan_gap(op(a, t), op(b, t)) > jump_tol:
                if not (refine and _refines_away(lambda s: op(s, t), a, b, jump_tol)):
                    return False, {"axis": "left", "segment": (a, b), "at": t}
    for s in finite_pos:
        for a, b in zip(second_args, second_args[1:]):
            if _atan_gap(op(s, a), op(s, b)) > jump_tol:
                if not (refine and _refines_away(lambda t: op(s, t), a, b, jump_tol)):
                    return False, {"axis": "right", "segment": (a, b), "at": s}
    return True, None


def _sampled_continuity(op, grid, jump_tol=0.2):
    """Check continuity on (0, inf) x [0, inf] and of s -> s (.) t on (0, inf].

    Statistical: jumps are measured on the arctan-compactified value scale
    between adjacent grid points and refined near flagged pairs. A pass is a
    grid-level verdict, not a proof.
    """
    finite_pos = sorted(g for g in grid if 0.0 < g < INF)
    try:
        return _continuity_scan(op, finite_pos, jump_tol, refine=True)
    except ValueError:
        # table ops cannot evaluate off-grid; fall back to the grid verdict
        return _continuity_scan(op, finite_pos, jump_tol, refine=False)


def verify_axioms(op, grid=None, tol=DEFAULT_TOL, jump_tol=0.2):
    """Check the semigroup axioms on a grid and report one boolean each."""
    if grid is None:
        grid = default_grid()
    if isinstance(op, TableOp):
        grid = list(op.grid)
    wit = {}

    associative = True
    for s in grid:
        for t in grid:
            st = op(s, t)
            for u in grid:
                left = op(st, u)
                right = op(s, op(t, u))
                if not close(left, right, tol):
                    associative = False
                    wit["associative"] = (s, t, u, left, right)
                    break
            if not associative:
                break
        if not associative:
            break

    monotone = True
    svals = sorted(grid)
    for t in grid:
        prev_l = prev_r = -INF
        for s in svals:
            l, r = op(s, t), op(t, s)
            if not (le(prev_l, l, tol) and le(prev_r, r, tol)):
                monotone = False
                wit["monotone"] = (s, t)
                break
            prev_l, prev_r = l, r
        if not monotone:
            break

    if op.left_identity is None:
        left_identity = False
        wit["left_identity"] = "no identity declared"
    else:
        left_identity = True
        for t in grid:
            if not close(op(op.left_identity, t), t, tol):
                left_identity = False
                wit["left_identity"] = (op.left_identity, t, op(op.left_identity, t))
                break

    annihilator = True
    for t in grid:
        if op(0.0, t) != 0.0 or op(t, 0.0) != 0.0:
            annihilator = False
            wit["annihilator"] = (t, op(0.0, t), op(t, 0.0))
            break

    no_zero_divisors = True
    for s in grid:
        for t in grid:
            if s != 0.0 and t != 0.0 and op(s, t) == 0.0:
                no_zero_divisors = False
                wit["no_zero_divisors"] = (s, t)
                break
        if not no_zero_divisors:
            break

    continuity, cwit = _sampled_continuity(op, grid, jump_tol)
    if cwit is not None:
        wit["continuity"] = cwit

    return AxiomReport(
        op=op.name,
        associative=associative,
        monotone=monotone,
        left_identity=left_identity,
        annihilator=annihilator,
        no_zero_divisors=no_zero_divisors,
        continuity_sampled=continuity,
        pseudo_multiplication=(
            associative
            and monotone
            and left_identity
            and annihilator
            and no_zero_divisors
            and continuity
        ),
        witnesses=wit,
    )


def galois_holds(op, r, s, t, tol=DEFAULT_TOL):
    """Whether  r <= t (.) s  <=>  residual(r, s) <= t  at one triple.

    Values within tolerance count as below; infinities compare exactly.
    """
    return le(r, op(t, s), tol) == le(op.residual(r, s), t, tol)


def exactness_holds(op, r, s, tol=DEFAULT_TOL):
    """Whether residual(r, s) (.) s recovers r."""
    return close(op(op.residual(r, s), s), r, tol)


def inf_distributes(op, values, s, tol=DEFAULT_TOL):
    """Whether inf over t in values of t (.) s equals (inf values) (.) s."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("need a nonempty family")
    lhs = min(op(t, s) for t in values)
    rhs = op(min(values), s)
    return close(lhs, rhs, tol)
