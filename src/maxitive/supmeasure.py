"""Simulation of independently scattered Frechet sup-measures.

A sample assigns each atom an independent Frechet maximum; the value on a
set is the max over its atoms, a completely maxitive random measure with
marginal P[M(B) <= x] = exp(-m(B) x^(-p)). Two samplers are provided: exact
inversion of the marginal, and a truncated Poisson point process above a
cutoff. For the point process the per-atom maximum is drawn in one shot
(Poisson count, then the minimum of that many uniforms via expm1), which is
distribution-identical to materializing the points and keeps large
intensities cheap. One realization, sample_supmeasure, is a MaxitiveMeasure
on the atom maxima of one replicate.

Both samplers draw rows in blocks of at most BLOCK_ROWS and evaluate their
formula in place on one reused block of uniforms, ufunc by ufunc in the
order the formula reads, so a sampler holds one block of floats and no
temporaries. The formula is a score, then a monotone finishing power: the
score m / -log U and its power ** (1/p) in exact mode, and the smallest
point uniform w and eps * w ** (-1/p) in Poisson mode. sample_blocks takes
the power once per cell, for every atom maximum. sample_set_values folds
each block's scores over a set's atoms (a max under the increasing power, a
min under the decreasing one) and takes the power once per row, which gives
the same bits as the max of the per-cell maxima while numpy's float64 power
is monotone for a fixed exponent. The order of the generator calls is part
of the seeded-output contract: row blocks drawn in row order give the same
bits as one (n, k) draw, so the block size changes no output, and Poisson
mode draws every (n, k) count before any uniform. Poisson mode therefore
also holds all the counts, each as its offset from the block's per-atom
minimum in the narrowest unsigned integer the block needs, 2 or 4 bytes at
most rates instead of 8. A sample is priced at n * k cells of the ``spaces``
budget, and refused above it before anything is drawn. The simulate command
reports sample_set_values, and with --csv formats the rows of sample_blocks
one block at a time, as the blocks are drawn.

The checks at the end hold the samplers against the theory: marginal
distribution (one-sample KS), agreement of the two modes (two-sample KS),
recovery of the extremal integral as a Frechet scale (maximum likelihood),
and regularly varying tails with a slowly varying factor (survival ratio at
a high quantile, with the log factor inverted through the lower branch
W_{-1} of the Lambert W). All of it is numpy: the one-sample statistic
is a sort plus the CDF, the two-sample statistic a count by searchsorted
with Smirnov's exact p-value for equal sample sizes, and W_{-1} a Halley
iteration. The tests hold each, bit for bit or to a few ulp, against the
reference implementations of a statistics library.
"""

from __future__ import annotations

import math

from .errors import InvalidTruncation
from .measures import MaxitiveMeasure
from .records import Record
from .spaces import INF, np, require_budget

# Rows drawn and evaluated per step: a block of 4096 rows of 12 atoms is
# 384 KB of float64, whatever the sample size.
BLOCK_ROWS = 4096


def _poisson_rate(masses, p, eps):
    """Per-atom intensity m * eps^(-p) of the points above the cutoff eps."""
    if not (0.0 < eps < INF):
        raise InvalidTruncation(f"cutoff must be positive and finite, got {eps}")
    try:
        scale = eps ** (-p)
    except OverflowError:
        scale = INF
    with np.errstate(over="ignore", invalid="ignore"):
        lam = masses * scale
    # the largest rate numpy's Generator.poisson accepts; checked up front so
    # a refusal comes before anything is drawn
    rate_max = np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10
    if not (lam <= rate_max).all():
        raise InvalidTruncation(
            f"cutoff {eps} at tail index {p} gives an atom more than "
            f"{rate_max} expected points; raise eps"
        )
    return lam


def _uniform_blocks(rng, n, k):
    """(start, u): row blocks of n x k uniforms, drawn in row order into one
    reused buffer. rng.random fills it with the doubles rng.uniform returns."""
    buf = np.empty((min(n, BLOCK_ROWS), k))
    for start in range(0, n, BLOCK_ROWS):
        u = buf[: min(BLOCK_ROWS, n - start)]
        rng.random(out=u)
        yield start, u


def _exact_scores(masses, rng, n):
    """Per-atom scores masses / -log U, evaluated in place on each block of
    uniforms, with 0 on null atoms. The atom maximum is score ** (1/p)."""
    null = ~(masses > 0)
    for start, u in _uniform_blocks(rng, n, len(masses)):
        with np.errstate(divide="ignore", over="ignore"):
            np.log(u, out=u)
            np.negative(u, out=u)
            np.divide(masses, u, out=u)
        u[:, null] = 0.0
        yield start, u


def _column_min(block):
    """block.min(axis=0), as a new array, for a block of at least one row.

    numpy's reduction runs a k-long inner loop per row; folding the block in
    halves first runs rows/2, rows/4, ... long loops, two to three times
    faster at k = 12. For an odd row count the halves share the middle row.
    """
    while len(block) > 1:
        half = (len(block) + 1) // 2
        block = np.minimum(block[:half], block[-half:])
    return block.min(axis=0)


def _poisson_scores(masses, rng, n, lam):
    """Same distribution through the truncated point process, batched.

    Per atom: the point count above eps is Poisson(lam = m * eps^(-p));
    given the count, point values are eps * U^(-1/p), so the maximum is
    eps * w^(-1/p) for the minimum w of that many uniforms, drawn as
    1 - V^(1/N) = -expm1(log(V)/N). The score is w, evaluated in place on
    each block of uniforms, and inf where N = 0, which the finishing map
    sends to the maximum 0 of an atom without points. All n x k counts are
    drawn, a block at a time, before the first uniform.

    A block of counts is kept as its per-atom minimum (k int64) and its
    offsets from that minimum in the narrowest unsigned dtype that holds
    them: within a block the counts of an atom spread over a few standard
    deviations, sqrt(lam), while the counts themselves reach lam. Each block
    is rebuilt exactly into one reused int64 buffer when its uniforms come.
    """
    k = len(masses)
    encoded = []
    for start in range(0, n, BLOCK_ROWS):
        block = rng.poisson(lam, size=(min(BLOCK_ROWS, n - start), k))
        lo = _column_min(block)
        block -= lo
        encoded.append((lo, block.astype(np.min_scalar_type(block.max(initial=0)))))
        # freed before the next draw: two live draws would leave holes
        # between the kept offsets, about 10 MB of heap at 10^6 x 12
        del block
    counts = np.empty((min(n, BLOCK_ROWS), k), dtype=np.int64)
    for (start, v), (lo, offsets) in zip(_uniform_blocks(rng, n, k), encoded):
        c = counts[: len(v)]
        # in int64: uint64 offsets plus int64 would promote to float64
        np.add(offsets, lo, out=c, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(v, out=v)
            np.divide(v, c, out=v)
            np.expm1(v, out=v)
            np.negative(v, out=v)
        v[~(c > 0)] = INF
        yield start, v


def _power(exponent, scale=None):
    """The finishing map x -> scale * x ** exponent, applied in place."""

    def finish(x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x **= exponent
            if scale is not None:
                x *= scale

    return finish


def _score_blocks(m, p, rng, n, mode, eps):
    """(blocks, reduce, finish) of a sample, checked and priced first.

    The blocks hold the scores; finish maps scores to atom maxima in place,
    and reduce is the ufunc whose fold over a set's scores finish maps to
    the max of their maxima: np.maximum under the increasing power of exact
    mode, np.minimum under the decreasing one of Poisson mode.
    """
    if not 0 < p < INF:
        raise ValueError(f"tail index p must be positive and finite, got {p}")
    masses = np.asarray(m.atom_masses, dtype=float)
    if not np.isfinite(masses).all():
        raise ValueError("control measure must be finite")
    require_budget(n * len(masses), f"sample of {n} replicates of {len(masses)} atoms")
    if mode == "exact":
        return _exact_scores(masses, rng, n), np.maximum, _power(1.0 / p)
    if mode == "poisson":
        lam = _poisson_rate(masses, p, eps)
        return _poisson_scores(masses, rng, n, lam), np.minimum, _power(-1.0 / p, eps)
    raise ValueError(f"unknown mode {mode!r}; use 'exact' or 'poisson'")


def fold_columns(block, cols, ufunc, out):
    """ufunc folded over the columns cols of a block, into out, one column
    at a time: a strided pass per column, not a k-long loop per row."""
    np.copyto(out, block[:, cols[0]])
    for c in cols[1:]:
        ufunc(out, block[:, c], out=out)
    return out


def sample_blocks(m, p, rng, n, mode="exact", eps=1e-3):
    """n replicates of the per-atom maxima as (start, block) row blocks.

    Each block holds rows start .. start + len(block) - 1, at most
    BLOCK_ROWS of them, and is overwritten by the next step: copy what must
    outlive it. The arguments are checked here, before anything is drawn;
    the draws happen as the blocks are taken.
    """
    blocks, _, finish = _score_blocks(m, p, rng, n, mode, eps)
    return _finished(blocks, finish)


def _finished(blocks, finish):
    for start, scores in blocks:
        finish(scores)
        yield start, scores


def sample_set_values(m, p, rng, n, bset, mode="exact", eps=1e-3):
    """n replicates of the sample's value on bset, the max of its atoms'
    maxima, as one array.

    The same bits as sample_blocks followed by the max over the set's
    columns, with the power taken once per row: each block's scores are
    folded over the set's columns, and the finishing map, monotone, is
    applied to the n folds. The arguments are checked and the sample priced
    before anything is allocated.
    """
    cols = bset.atom_indices()
    if not cols:
        raise ValueError("the set names no atom")
    blocks, reduce, finish = _score_blocks(m, p, rng, n, mode, eps)
    out = np.empty(n)
    for start, scores in blocks:
        fold_columns(scores, cols, reduce, out[start : start + len(scores)])
    finish(out)
    return out


def sample_matrix(m, p, rng, n, mode="exact", eps=1e-3):
    """n replicates of the per-atom maxima, one row per replicate."""
    blocks = sample_blocks(m, p, rng, n, mode, eps)
    out = np.empty((n, len(m.atom_masses)))
    for start, block in blocks:
        out[start : start + len(block)] = block
    return out


def sample_supmeasure(m, p, rng, mode="exact", eps=1e-3):
    """One realization: a maxitive measure on the atom maxima of one replicate."""
    return MaxitiveMeasure(m.space, sample_matrix(m, p, rng, 1, mode, eps)[0])


def _scale_p(f, m, p):
    """The sum of f_i^p m_i over the atoms where both are positive, in order."""
    total = 0.0
    for i in range(m.space.n_atoms):
        fi = float(f.atom_values[i])
        mi = float(m.atom_masses[i])
        if fi > 0 and mi > 0:
            total += fi**p * mi
    return total


def extremal_integral(f, m, p):
    """The Frechet scale of M(f): the p-norm of f against the control mass."""
    return _scale_p(f, m, p) ** (1.0 / p)


# ---------------------------------------------------------------------------
# statistical checks
# ---------------------------------------------------------------------------


class KSReport(Record):
    statistic: float
    threshold: float
    n: int
    passed: bool


class TwoSampleReport(Record):
    statistic: float
    pvalue: float
    n: int
    passed: bool


class ScaleReport(Record):
    estimated: float
    predicted: float
    rel_err: float
    n: int
    passed: bool


class TailReport(Record):
    quantile: float
    level: float
    empirical_survival: float
    predicted_survival: float
    ratio: float
    passed: bool


#: the Kolmogorov critical value at level 0.01, times sqrt(n)
KS_COEFF = 1.628
#: the level of the two-sample test between the sampling modes
MODES_LEVEL = 0.01


def frechet_marginal_check(m, p, rng, n, bset=None):
    """One-sample KS of M(B) against exp(-m(B) x^(-p)).

    The threshold is KS_COEFF / sqrt(n), the critical value at level 0.01.
    """
    if bset is None:
        bset = m.space.full()
    x = np.sort(sample_set_values(m, p, rng, n, bset, mode="exact"))
    mb = m(bset)
    # the CDF at the sorted draws; 0 * inf at x = 0 when m(B) = 0 is masked
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(x > 0, np.exp(-mb * x ** (-p)), 0.0)
    # sup |F_n - F| is attained at a draw, just after it (D+) or just before
    d_plus = (np.arange(1.0, n + 1) / n - c).max()
    d_minus = (c - np.arange(0.0, n) / n).max()
    stat = float(max(d_plus, d_minus))
    thr = KS_COEFF / math.sqrt(n)
    return KSReport(statistic=stat, threshold=thr, n=n, passed=stat < thr)


def _ks_2samp_equal(a, b):
    """Two-sided two-sample KS statistic and exact p-value, len(a) == len(b).

    The statistic is h/n, where h is the largest gap between the counts of a
    and of b at or below a pooled value (searchsorted handles ties). The
    p-value P(D >= h/n) is Smirnov's alternating sum
        2 * (C(2n, n-h) - C(2n, n-2h) + ...) / C(2n, n),
    each ratio of binomials written as a product of h factors and nested
    Horner-wise to avoid cancellation. The exact sum is used at every n, and
    a sum that rounds above 1 is clipped to 1.
    """
    n = len(a)
    a = np.sort(a)
    b = np.sort(b)
    both = np.concatenate([a, b])
    gaps = np.searchsorted(a, both, side="right") - np.searchsorted(b, both, side="right")
    h = int(np.abs(gaps).max())
    if h == 0:
        return 0.0, 1.0
    prob = 0.0
    k = math.floor(n / h)
    while k >= 0:
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        prob = term * (1.0 - prob)
        k -= 1
    return h / n, min(max(2 * prob, 0.0), 1.0)


def compare_modes_check(m, p, rng, n, eps=1e-3, bset=None):
    """Two-sample KS between exact-mode and point-process-mode draws."""
    if bset is None:
        bset = m.space.full()
    a = sample_set_values(m, p, rng, n, bset, mode="exact")
    b = sample_set_values(m, p, rng, n, bset, mode="poisson", eps=eps)
    stat, pvalue = _ks_2samp_equal(a, b)
    return TwoSampleReport(statistic=stat, pvalue=pvalue, n=n, passed=pvalue > MODES_LEVEL)


def scale_recovery_check(f, m, p, rng, n, rel_tol=0.05):
    """MLE of the Frechet scale of M(f) against the extremal integral.

    For known p the likelihood in sigma^p is exponential-family with
    sigma_hat^p = n / sum x_j^(-p).
    """
    mat = sample_matrix(m, p, rng, n, mode="exact")
    fv = np.asarray(f.atom_values, dtype=float)
    draws = (mat * fv).max(axis=1)
    if (draws <= 0).any():
        raise ValueError("scale recovery needs positive draws; check f and m")
    est_p = n / float(np.sum(draws ** (-p)))
    est = est_p ** (1.0 / p)
    pred = extremal_integral(f, m, p)
    rel = abs(est - pred) / pred
    return ScaleReport(
        estimated=est, predicted=pred, rel_err=rel, n=n, passed=rel < rel_tol
    )


# ---------------------------------------------------------------------------
# regularly varying tails with a slowly varying factor
# ---------------------------------------------------------------------------


def _tail_draws_const(mass, p, rng, n):
    """Survival exactly mass * x^(-p) for x >= mass^(1/p)."""
    u = rng.uniform(size=n)
    return (mass / u) ** (1.0 / p)


def _lambert_wm1(z):
    """The lower Lambert branch W_{-1} on [-1/e, 0), elementwise.

    Halley's iteration on w e^w = z (Corless et al., "On the Lambert W
    function", Adv. Comput. Math. 5, 1996), started from the branch-point
    series -1 - sqrt(2 (1 + e z)) near -1/e and from the asymptotic
    L1 - log(-L1), L1 = log(-z), elsewhere. At the rounded branch point the
    start is -1, where the step's denominator vanishes; the step is dropped
    and -1 returned. W_{-1}(0) is -inf.
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        near = np.sqrt(np.maximum(2.0 * (1.0 + math.e * z), 0.0))
        l1 = np.log(-z)
        w = np.where(z < -0.25, -1.0 - near, l1 - np.log(-l1))
        # four steps reach machine precision from either start; convergence
        # is cubic, so a step below 1e-8 |w| leaves an error near 1 ulp
        for _ in range(10):
            ew = np.exp(w)
            wew = w * ew
            f = wew - z
            step = f / (wew + ew - (w + 2.0) * f / (2.0 * w + 2.0))
            step = np.where(np.isfinite(step), step, 0.0)
            w = w - step
            if not (np.abs(step) > 1e-8 * np.abs(w)).any():
                break
    return w


def _tail_draws_log(mass, p, rng, n):
    """Survival exactly mass * x^(-p) * log(x) for x >= e^(1/p).

    Inverting u = mass * exp(-y) * y / p at y = p log x needs the lower
    Lambert branch: y = -W_{-1}(-p u / mass). The inversion exists for
    u <= mass/(p e); larger u collapses to the left endpoint x0 = e^(1/p),
    an atom that does not affect the tail.
    """
    u = rng.uniform(size=n)
    u0 = min(1.0, mass / (p * math.e))
    x0 = math.exp(1.0 / p)
    out = np.full(n, x0)
    inv = u <= u0
    if inv.any():
        arg = -p * u[inv] / mass
        y = -_lambert_wm1(arg)
        out[inv] = np.exp(y / p)
    return out


def _slowly_varying(slowly, x):
    if slowly == "const":
        return 1.0
    if slowly == "log":
        return math.log(x)
    raise ValueError(f"unknown slowly varying factor {slowly!r}")


def tail_ratio_check(f, m, p, rng, n, slowly="const", level=0.999, band=(0.9, 1.1)):
    """Empirical vs predicted survival of max_i f_i X_i at a high quantile.

    Each X_i has survival m_i x^(-p) L(x); the maximum then has survival
    asymptotic to (sum f_i^p m_i) x^(-p) L(x). The empirical quantile at the
    requested level pins the empirical survival at 1 - level exactly, so the
    reported ratio is (1 - level) / predicted(x_q).
    """
    space = m.space
    draws = np.zeros(n)
    for i in range(space.n_atoms):
        fi = float(f.atom_values[i])
        mi = float(m.atom_masses[i])
        if fi <= 0 or mi <= 0:
            continue
        if slowly == "const":
            xi = _tail_draws_const(mi, p, rng, n)
        else:
            xi = _tail_draws_log(mi, p, rng, n)
        np.maximum(draws, fi * xi, out=draws)
    if not (draws > 0).any():
        raise ValueError("no positive draws; f or m is identically zero")
    xq = float(np.quantile(draws, level))
    predicted = _scale_p(f, m, p) * xq ** (-p) * _slowly_varying(slowly, xq)
    empirical = 1.0 - level
    ratio = empirical / predicted
    return TailReport(
        quantile=xq,
        level=level,
        empirical_survival=empirical,
        predicted_survival=predicted,
        ratio=ratio,
        passed=band[0] <= ratio <= band[1],
    )
