"""Ordered semigroup operations on [0, inf] and their residuals.

Builtin operations: ``times`` and ``min`` are pseudo-multiplications
(associative, monotone, continuous where required, with a left identity,
0 as annihilator and no zero divisors); ``plus`` and ``max`` are ordered
semigroups with a left identity but fail the annihilator axiom.

Each operation is a subclass of ``SemigroupOp`` that sets its name, left
identity and exactness and defines its value, residual and O map on floats.
r << s defaults to r <= inf (.) s, and the residual is defined where
r << s; ``Times`` narrows the latter at s = inf.

A table operation reads its residuals and its exactness off the running
maximum of each column down its grid (see ``TableOp``).

An operation also carries the probes the conditional suite puts to it:
``perturbations`` for the uniqueness law and ``scalars`` for homogeneity.
A table operation draws both from its grid, where all its values lie.

``verify_axioms`` checks a table operation on its own grid, and its
continuity is the grid verdict. A builtin is checked on ``default_grid()``,
and each jump between adjacent grid points is bisected off the grid.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain

from .errors import NotAbsolutelyContinuous
from .records import Record
from .spaces import DEFAULT_TOL, INF, close, esub, le


class SemigroupOp:
    """An ordered semigroup operation on [0, inf] with its residuation data.

    A subclass sets ``name``, ``left_identity`` (None when there is none)
    and ``exact``, and defines three methods on floats: ``_eval(s, t)`` is
    s (.) t, ``_residual(r, s)`` is r / s and ``_omap(t)`` is O(t).
    ``abs_cont(r, s)`` is the scalar relation r << s, which by default is
    r <= inf (.) s. ``residual_defined(r, s)`` delimits the region where the
    Galois equivalence  r <= t (.) s  <=>  residual(r, s) <= t  is
    guaranteed; by default it is the region of r << s.
    """

    #: the constants lambda of the homogeneity law
    #: E(lambda (.) X | A) = lambda (.) E(X | A)
    scalars = (0.5, 2.0)

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

    def perturbations(self, y, p):
        """Values to put in place of y, the conditional on a block of
        possibility p, for the uniqueness law: a distinct one should change
        the block's integral. Under times any distinct value does."""
        return [2.0 * y + 0.1, y / 2.0 + 0.05, y + 1.0, 1.0, 7.0]

    def _abs_cont(self, r, s):
        return r <= self._eval(INF, s)

    def _residual_defined(self, r, s):
        return self._abs_cont(r, s)

    def __repr__(self):
        return f"SemigroupOp({self.name!r})"


class Times(SemigroupOp):
    name, left_identity, exact = "times", 1.0, True

    def _eval(self, s, t):
        # 0 * inf = inf * 0 = 0 by convention
        if s == 0.0 or t == 0.0:
            return 0.0
        return s * t

    def _residual(self, r, s):
        if r == 0.0:
            return 0.0
        if math.isinf(s):
            # (inf/inf) := inf is an exactness witness; finite r has no witness
            return INF if math.isinf(r) else 0.0
        return r / s

    def _residual_defined(self, r, s):
        # no Galois element exists at (r, inf) for r > 0: {t : r <= t*inf} = (0, inf]
        return r == 0.0 or (0.0 < s < INF)

    def _omap(self, t):
        return INF if math.isinf(t) else 0.0


class Min(SemigroupOp):
    name, left_identity, exact = "min", INF, True

    def _eval(self, s, t):
        return s if s <= t else t

    def _residual(self, r, s):
        return r

    def _omap(self, t):
        return 0.0

    def perturbations(self, y, p):
        # the block integral sees values only up to p, so the probes stay below it
        return [p / 2.0, p / 4.0, 3.0 * p / 4.0]


class Plus(SemigroupOp):
    name, left_identity, exact = "plus", 0.0, False

    def _eval(self, s, t):
        return s + t

    def _residual(self, r, s):
        return max(0.0, esub(r, s))

    def _omap(self, t):
        return t


class Max(SemigroupOp):
    name, left_identity, exact = "max", 0.0, False

    def _eval(self, s, t):
        return s if s >= t else t

    def _residual(self, r, s):
        return 0.0 if r <= s else r

    def _omap(self, t):
        return t


TIMES, MIN, PLUS, MAX = Times(), Min(), Plus(), Max()

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

    Evaluation is exact-lookup only. Residuation takes the least grid t with
    r <= t (.) s, and the grid is strictly increasing, so everything is read
    off the running maximum of column s down the grid: r << s iff its last
    entry is >= r, and r / s is the grid point at ``bisect_left(column, r)``.
    The operation is exact iff, in every column, the first row whose running
    maximum reaches a grid value r holds r (or no row reaches r).
    """

    def __init__(self, name, grid, values, left_identity=None):
        grid = [float(g) for g in grid]
        vals = [[float(v) for v in row] for row in values]
        # first, since one NaN cell would spoil a running maximum; a -0.0
        # cell is kept as given, as the loader keeps it
        for v in chain(grid, *vals):
            if not v >= 0.0:
                raise ValueError(f"grid and cells of {name!r} must lie in [0, inf], got {v}")
        if sorted(grid) != grid or len(set(grid)) != len(grid):
            raise ValueError("grid must be strictly increasing")
        if len(vals) != len(grid) or any(len(row) != len(grid) for row in vals):
            raise ValueError("values must be a square table over the grid")
        self.name = name
        self.grid = grid
        self.left_identity = left_identity
        self._index = {g: i for i, g in enumerate(grid)}
        self._values = vals
        self._tops = [list(accumulate(col, max)) for col in zip(*vals)]
        self.exact = all(
            top[bisect_left(top, r)] == r for top in self._tops for r in grid if r <= top[-1]
        )
        # the finite positive grid points: a table has values on its grid alone
        self.scalars = tuple(g for g in grid if 0.0 < g < INF)

    def perturbations(self, y, p):
        """The grid, the only values the table is defined at."""
        return self.grid

    def _at(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise ValueError(f"{v} is off the declared grid of {self.name!r}") from None

    def _eval(self, s, t):
        return self._values[self._at(s)][self._at(t)]

    def _abs_cont(self, r, s):
        # the grid may lack inf, so r << s is read off the column
        return self._tops[self._at(s)][-1] >= r

    def _residual(self, r, s):
        return self.grid[bisect_left(self._tops[self._at(s)], r)]

    def _omap(self, t):
        col = self._at(t)
        positive = self._values[bisect_right(self.grid, 0.0):]
        return min((row[col] for row in positive), default=INF)

    @classmethod
    def from_json(cls, doc):
        # local: modelio imports additive, which imports this module
        from .modelio import decode_value, required

        if not isinstance(doc, dict):
            raise ValueError(f"a table operation must be an object with grid and values, got {doc!r}")
        grid, rows = required(doc, "grid", "a table operation"), required(doc, "values", "a table operation")
        if not isinstance(grid, list):
            raise ValueError(f"grid must be a list of values, got {grid!r}")
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("values must be a square table over the grid")
        # a JSON float literal goes to __init__ as it is, which range-checks
        # every entry; only the other spellings (a string such as "inf", an
        # integer, a bool, null) are decoded here
        def read(v):
            return v if type(v) is float else decode_value(v)

        grid = [read(g) for g in grid]
        values = [[read(v) for v in row] for row in rows]
        ident = doc.get("left_identity")
        ident = decode_value(ident) if ident is not None else None
        name = doc.get("name", "custom")
        if not isinstance(name, str):
            raise ValueError(f"a table operation's name must be a string, got {name!r}")
        return cls(name, grid, values, left_identity=ident)


def default_grid():
    """Axiom-check grid: 0, inf, and twenty finite positive points."""
    finite = [
        1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.2, 0.5, 0.7, 1.0, 1.5,
        2.0, math.e, 3.0, 5.0, 7.0, 10.0, 30.0, 100.0, 300.0, 1e3,
    ]
    return [0.0] + finite + [INF]


class AxiomReport(Record):
    """One boolean per semigroup axiom plus a sampled continuity verdict."""

    op: str
    associative: bool
    monotone: bool
    left_identity: bool
    annihilator: bool
    no_zero_divisors: bool
    continuity_sampled: bool
    pseudo_multiplication: bool
    witnesses: dict = {}


#: the largest gap between adjacent grid values, on the arctan-compactified
#: value scale, that the continuity scan lets pass
JUMP_TOL = 0.2


def _atan_gap(a, b):
    return abs(math.atan(a) - math.atan(b))


def _refines_away(f, a, b):
    """Bisect a flagged jump of f on (a, b); True when it shrinks below JUMP_TOL.

    A continuous f sheds its gap geometrically under bisection toward the
    steeper side; a genuine jump keeps its size while the interval collapses.
    An infinite right end is probed by growing arguments and a zero left end
    by shrinking ones, toward the value there, instead of bisecting.
    """
    fa, fb = f(a), f(b)
    if math.isinf(b) or a == 0.0:
        grow = math.isinf(b)
        x, limit = (max(1.0, a), fb) if grow else (b, fa)
        for _ in range(25):
            x = x * 10.0 if grow else x / 10.0
            if _atan_gap(f(x), limit) <= JUMP_TOL:
                return True
        return False
    lo, hi, flo, fhi = a, b, fa, fb
    for _ in range(80):
        if _atan_gap(flo, fhi) <= JUMP_TOL:
            return True
        if hi - lo <= 1e-12 * max(1.0, abs(lo)):
            return False
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if _atan_gap(flo, fmid) >= _atan_gap(fmid, fhi):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return _atan_gap(flo, fhi) <= JUMP_TOL


def _associativity_faults(op, grid, tol):
    for s in grid:
        for t in grid:
            st = op(s, t)
            for u in grid:
                left = op(st, u)
                right = op(s, op(t, u))
                if not close(left, right, tol):
                    yield (s, t, u, left, right)


def monotonicity_faults(op, grid, tol):
    """The pairs (s, t) of the grid, in scan order, where s (.) t or
    t (.) s drops below its value at the grid point before s."""
    for t in grid:
        prev_l = prev_r = -INF
        for s in grid:
            l, r = op(s, t), op(t, s)
            if not (le(prev_l, l, tol) and le(prev_r, r, tol)):
                yield (s, t)
            prev_l, prev_r = l, r


def _jumps(op, grid, refine):
    """Jumps above JUMP_TOL of s (.) t in s on (0, inf] and in t on [0, inf].

    A jump is the gap between the values at adjacent grid points on the
    arctan-compactified scale. With ``refine`` a flagged jump is bisected off
    the grid first and dropped when it shrinks away. A pass is a grid-level
    verdict, not a proof.
    """
    finite_pos = [g for g in grid if 0.0 < g < INF]
    first_args = finite_pos + [INF]
    second_args = [0.0] + first_args
    sections = [("left", t, lambda s, t=t: op(s, t), first_args) for t in second_args]
    sections += [("right", s, lambda t, s=s: op(s, t), second_args) for s in finite_pos]
    for axis, at, f, args in sections:
        for a, b in zip(args, args[1:]):
            if _atan_gap(f(a), f(b)) > JUMP_TOL and not (refine and _refines_away(f, a, b)):
                yield {"axis": axis, "segment": (a, b), "at": at}


def verify_axioms(op, tol=DEFAULT_TOL):
    """Check the semigroup axioms on a grid and report one boolean each.

    A table operation is checked on its own grid, and its continuity is the
    grid verdict, since it has no values off the grid. A builtin is checked on
    ``default_grid()``, and each jump is bisected off the grid before it
    counts. Each axiom's witness is its first counterexample in scan order.
    """
    table = isinstance(op, TableOp)
    grid = op.grid if table else default_grid()
    one = op.left_identity
    witnesses = {}
    for axiom, scan in (
        ("associative", _associativity_faults(op, grid, tol)),
        ("monotone", monotonicity_faults(op, grid, tol)),
        ("left_identity", iter(["no identity declared"]) if one is None else (
            (one, t, op(one, t)) for t in grid if not close(op(one, t), t, tol))),
        ("annihilator", ((t, op(0.0, t), op(t, 0.0)) for t in grid
                         if op(0.0, t) != 0.0 or op(t, 0.0) != 0.0)),
        ("no_zero_divisors", ((s, t) for s in grid for t in grid
                              if s != 0.0 and t != 0.0 and op(s, t) == 0.0)),
        ("continuity", _jumps(op, grid, refine=not table)),
    ):
        witness = next(scan, None)
        if witness is not None:
            witnesses[axiom] = witness
    return AxiomReport(
        op=op.name,
        associative="associative" not in witnesses,
        monotone="monotone" not in witnesses,
        left_identity="left_identity" not in witnesses,
        annihilator="annihilator" not in witnesses,
        no_zero_divisors="no_zero_divisors" not in witnesses,
        continuity_sampled="continuity" not in witnesses,
        pseudo_multiplication=not witnesses,
        witnesses=witnesses,
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
