"""The idempotent integral: max over levels of level (op) measure-of-level-set.

Three evaluators are provided. The level sweep works for any monotone set
function; the submask maximization is an independent route that agrees with
the sweep when the measure is maxitive; the atom form is the closed formula
for maxitive measures. Tests and the crosscheck flag hold them against each
other. The level sweep and ky_fan_distance evaluate the measure they are
given on one set per level, so they build no table and have no atom cap; an
additive measure's atom sums are its table's entries bit for bit. The
submask maximization folds a maxitive or additive measure, and f, over the
atoms of the set only, into Python lists, so it loads no numpy; on another
set function it gathers from the whole 2^k table. density_measure takes a
maxitive measure only and reads its atoms.
"""

from __future__ import annotations

import operator

from .additive import AdditiveMeasure
from .errors import MaxitiveError, OracleMismatch
from .measures import MaxitiveMeasure
from .records import Record
from .semigroup import TableOp, monotonicity_faults
from .spaces import (
    DEFAULT_TOL,
    INF,
    MeasurableFn,
    as_table,
    atom_folds,
    atom_table,
    close,
    esub,
    np,
    per_distinct,
)


class IntegralResult(Record):
    value: float
    level: float
    strict_boundary: bool


def _fullset(nu, bset):
    if bset is not None:
        return bset
    return nu.space.full()


def idempotent_integral(op, f, nu, bset=None, tol=DEFAULT_TOL, crosscheck=False):
    """Integral of f over bset against nu under the operation.

    Sweeps the distinct values of f, evaluating the operation against the
    measure of both the strict and the weak level set; continuity of the
    operation in its first argument makes the max over these candidates equal
    the sup over all positive levels. With crosscheck=True the submask
    maximization is run as well (the measure must be maxitive for the two to
    agree) and disagreement raises OracleMismatch.

    The sweep is the integral, and agrees with the submask maximization, only
    under a monotone operation. A table operation is checked on its grid
    first, in O(n^2) calls, and the first pair (s, t) where it decreases is
    refused with MaxitiveError; the builtins are monotone.
    """
    if isinstance(op, TableOp):
        witness = next(monotonicity_faults(op, op.grid, tol), None)
        if witness is not None:
            raise MaxitiveError(
                f"the integral needs a monotone operation; {op.name!r} is not monotone "
                f"on its grid at (s, t) = {witness}"
            )
    bset = _fullset(nu, bset)
    best = IntegralResult(value=0.0, level=0.0, strict_boundary=False)
    for v in [0.0] + f.distinct_values(bset):
        strict = nu(bset.mask & f.level_set(v).mask)
        weak = nu(bset.mask & f.level_set_ge(v).mask)
        for meas, is_strict in ((weak, False), (strict, True)):
            cand = op(v, meas)
            if cand > best.value:
                best = IntegralResult(value=cand, level=v, strict_boundary=is_strict)
    if crosscheck:
        other = gerritse_integral(op, f, nu, bset)
        if not close(best.value, other, tol):
            raise OracleMismatch(
                f"level sweep {best.value} vs submask maximization {other}"
            )
    return best


def gerritse_integral(op, f, nu, bset=None):
    """Max over nonempty subsets A of op(min of f on A, nu(A)).

    Lists f's minimum and nu over every submask of bset, folded over the
    set's atoms in plain Python (``spaces.atom_folds``), and applies the
    operation once per submask; a ``SetFunction`` is gathered from its
    table instead. Priced as an atom table, which admits 21 atoms: at 21,
    about 2 s and 150 MB on a maxitive or additive measure. Intended as an
    independent oracle.
    """
    bset = _fullset(nu, bset)
    idx = bset.atom_indices()
    low = atom_folds([f.atom_values[i] for i in idx], min, INF)
    if isinstance(nu, MaxitiveMeasure):
        meas = atom_folds([nu.atom_values[i] for i in idx], max, 0.0)
    elif isinstance(nu, AdditiveMeasure):
        meas = atom_folds([nu.atom_masses[i] for i in idx], operator.add, 0.0)
    else:
        sets = atom_table(1 << np.array(idx, dtype=np.int64), np.add, 0)
        meas = as_table(nu).table[sets].tolist()
    # nonempty submasks from bset down: an operation off its grid raises at
    # the largest submask where it is off; the sup starts from 0.0, so a
    # -0.0 from a table operation never shows
    return max((c for c in map(op, low[:0:-1], meas[:0:-1]) if c > 0.0), default=0.0)


def atom_integral(op, f, nu, bset=None):
    """Closed atom form for maxitive nu: max over atoms of op(f_i, nu_i)."""
    if not isinstance(nu, MaxitiveMeasure):
        raise TypeError("atom form needs a MaxitiveMeasure")
    bset = _fullset(nu, bset)
    best = 0.0
    for i in bset.atom_indices():
        cand = op(f.atom_values[i], nu.atom_values[i])
        if cand > best:
            best = cand
    return best


def density_measure(op, f, nu):
    """The measure B -> integral of f over B, written tau = f (op) nu.

    For a maxitive nu the result is again maxitive, with atom values
    op(f_i, nu_i). Any other nu raises TypeError.
    """
    if not isinstance(nu, MaxitiveMeasure):
        raise TypeError("density_measure needs a MaxitiveMeasure")
    return MaxitiveMeasure(nu.space, per_distinct(op, f.atom_values, nu.atom_values))


def ky_fan_distance(nu, f, g, bset=None):
    """inf of t > 0 with nu(|f - g| > t) <= t, by segment analysis.

    On each segment between consecutive distinct values of |f - g| the
    survival value phi = nu(|f - g| > left endpoint) is constant, so the
    least admissible t in the segment is the left endpoint when phi is below
    it, phi itself when phi falls inside, and nothing otherwise.
    """
    bset = _fullset(nu, bset)
    # |f - g|, equal infinities at distance zero
    d = MeasurableFn(f.space, [abs(esub(a, b)) for a, b in zip(f.atom_values, g.atom_values)])
    vs = [0.0] + d.distinct_values(bset)
    if vs[-1] != INF:
        vs = vs + [INF]
    best = INF
    for i in range(len(vs) - 1):
        lo, hi = vs[i], vs[i + 1]
        phi = nu(bset.mask & d.level_set(lo).mask)
        if phi <= lo:
            cand = lo
        elif phi < hi:
            cand = phi
        else:
            continue
        if cand < best:
            best = cand
    # best stays infinite only when |f - g| is infinite on a set whose
    # survival measure is infinite at every level; no finite t works then
    return best


def sugeno_norm(nu, f, bset=None):
    """Distance from f to the zero function in the nu metric."""
    zero = MeasurableFn.constant(f.space, 0.0)
    return ky_fan_distance(nu, f, zero, bset)
