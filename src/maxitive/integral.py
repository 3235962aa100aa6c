"""The idempotent integral: max over levels of level (op) measure-of-level-set.

Three evaluators are provided. The level sweep works for any monotone set
function; the submask maximization is an independent route that agrees with
the sweep when the measure is maxitive; the atom form is the closed formula
for maxitive measures. Tests and the crosscheck flag hold them against each
other. The level sweep and ky_fan_distance evaluate the measure they are
given on one set per level, so they build no table and have no atom cap; an
additive measure's atom sums are its table's entries bit for bit. The
submask maximization and density_measure on a general set function read
whole 2^k tables through the kernels of ``spaces``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OracleMismatch
from .measures import MaxitiveMeasure
from .spaces import (
    DEFAULT_TOL,
    INF,
    MeasurableFn,
    SetFunction,
    as_table,
    atom_table,
    close,
    per_distinct,
    require_budget,
    vsub,
)


@dataclass
class IntegralResult:
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
    """
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

    Tabulates f's minimum and nu over every submask of bset and applies the
    operation once per distinct pair; priced as its atom tables, which admit
    21 atoms (about 0.4 s and 180 MB). Intended as an independent oracle.
    """
    bset = _fullset(nu, bset)
    idx = np.array(bset.atom_indices(), dtype=np.int64)
    low = atom_table(f.atom_values[idx], np.minimum, INF)
    if isinstance(nu, MaxitiveMeasure):
        meas = atom_table(nu.atom_values[idx], np.maximum, 0.0)
    else:
        meas = as_table(nu).table[atom_table(1 << idx, np.add, 0)]
    # nonempty submasks from bset down: an operation off its grid raises at
    # the largest submask where it is off
    cand = per_distinct(op, low[:0:-1], meas[:0:-1])
    # the sup starts from 0.0, so a -0.0 from a table operation never shows
    return float(np.where(cand > 0.0, cand, 0.0).max(initial=0.0))


def atom_integral(op, f, nu, bset=None):
    """Closed atom form for maxitive nu: max over atoms of op(f_i, nu_i)."""
    if not isinstance(nu, MaxitiveMeasure):
        raise TypeError("atom form needs a MaxitiveMeasure")
    bset = _fullset(nu, bset)
    best = 0.0
    for i in bset.atom_indices():
        cand = op(float(f.atom_values[i]), float(nu.atom_values[i]))
        if cand > best:
            best = cand
    return best


def density_measure(op, f, nu):
    """The measure B -> integral of f over B, written tau = f (op) nu.

    For a maxitive nu the result is again maxitive with atom values
    op(f_i, nu_i); for a general set function the level sweep of
    idempotent_integral is run on every set at once. Its gather holds about
    14 cells per level and set (measured), so it is priced at 16.
    """
    if isinstance(nu, MaxitiveMeasure):
        return MaxitiveMeasure(nu.space, per_distinct(op, f.atom_values, nu.atom_values))
    w = as_table(nu)
    levels = np.unique(np.append(f.atom_values, 0.0))
    k = w.space.n_atoms
    require_budget(16 * len(levels) << k, f"level sweep of {len(levels)} levels on {k} atoms")
    cut = np.array([[f.level_set_ge(v).mask, f.level_set(v).mask] for v in levels])
    sets = np.arange(w.space.n_sets)[:, None, None]
    meas = w.table[sets & cut]  # by set, level, then weak or strict level set
    # the sweep on a set reads level 0 and each value f takes on it, the weak
    # level set before the strict; the calls below go set by set in that order
    taken = (levels[:, None] == 0.0) | ((sets & cut[:, :1] & ~cut[:, 1:]) != 0)
    swept = np.broadcast_to(taken, meas.shape)
    level = np.broadcast_to(levels[:, None], meas.shape)
    cand = np.zeros(meas.shape)
    cand[swept] = per_distinct(op, level[swept], meas[swept])
    return SetFunction(w.space, cand.max(axis=(1, 2)))


def ky_fan_distance(nu, f, g, bset=None):
    """inf of t > 0 with nu(|f - g| > t) <= t, by segment analysis.

    On each segment between consecutive distinct values of |f - g| the
    survival value phi = nu(|f - g| > left endpoint) is constant, so the
    least admissible t in the segment is the left endpoint when phi is below
    it, phi itself when phi falls inside, and nothing otherwise.
    """
    bset = _fullset(nu, bset)
    # |f - g|, equal infinities at distance zero
    d = MeasurableFn(f.space, np.abs(vsub(f.atom_values, g.atom_values)))
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
