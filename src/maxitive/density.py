"""Density extraction for the idempotent integral.

Three routes to a density are implemented: residuation atom by atom (the
exact-operation theorem), the additive envelope with atoms nu_i m_i (whose
classical density recovers the maxitive measure by one closed form, infinite
atoms included), and residuation of two given densities over a common
background measure. Extraction always ends with a verification of the
candidate; one that fails it raises NoDensity rather than being returned.
A density of a maxitive measure is verified on the k atoms, and so is the
absolute continuity of a maxitive pair under every operation: the
representation nu(B) = max of nu_i over the atoms of B carries both to
every set. With maxitive measures the residual and associated routes build
no table; the associated route reads the negligible atoms of its
background measure off its ``support_mask()``, of whatever kind it is.
The envelope is the closed atom sum nu_i m_i, the minimum over partitions
by the product inequality; its steps loop over the atom tuples,
and the classical density's check on every set sums them in plain Python
(``spaces.atom_folds``, k 2^k cells, which admit 21 atoms). So none of
these routes imports numpy on atom measures; only a table input does.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .additive import AdditiveMeasure, classical_density
from .errors import (
    MaxitiveError,
    NegligibilityViolation,
    NoDensity,
    NonExactOperation,
    NotOdotAbsolutelyContinuous,
)
from .measures import MaxitiveMeasure, esssup_measure, negligible
from .records import Record
from .semigroup import TIMES
from .spaces import (
    DEFAULT_TOL,
    INF,
    MeasurableFn,
    close,
    first_atom,
    le,
    mask_of,
    per_distinct,
)


class AbsContReport(Record):
    holds: bool
    op: str
    witness: int | None = None


def odot_abs_continuous(op, nu, tau, tol=DEFAULT_TOL):
    """nu(B) <= inf (.) tau(B) on every set; the witness is the least failing mask.

    Both measures are maxitive; anything else raises TypeError. Write
    g(v) = inf (.) v. A set B fails iff one of its atoms j fails against
    g(tau(B)), and tau(B) = tau_a for an atom a of B with tau_a >= tau_j, so
    the check holds on every set iff nu_j <= g(tau_a) for every pair of
    atoms with tau_j <= tau_a (a = j included); the empty set passes, as an
    operation takes values in [0, inf]. ``le`` is monotone in each argument,
    so atom j fails with some pair iff it fails against the least g(tau_a)
    over the atoms with tau_a >= tau_j, a suffix minimum over the sorted
    values of tau. g is called once per distinct value of (0, tau_0, tau_1,
    ...), the order in which a sweep over every set first meets them, so a
    table operation off its grid raises where that sweep would. The least
    failing set is a pair {x, h}: h is the least atom whose prefix 0..h
    already fails, found by bisection, and x the first of h, 0, 1, ...,
    h - 1 that fails with it (x = h is the singleton). Under a builtin, g is
    monotone, so the witness is the singleton of the least failing atom.
    """
    if not (isinstance(nu, MaxitiveMeasure) and isinstance(tau, MaxitiveMeasure)):
        raise TypeError("odot_abs_continuous needs two MaxitiveMeasures")
    if nu.space is not tau.space and nu.space != tau.space:
        raise ValueError("measures live on different spaces")
    nu_a, tau_a = nu.atom_values, tau.atom_values
    values = (0.0, *tau_a)
    g = dict(zip(values, per_distinct(lambda v: op(INF, v), values)))

    def fails(n):
        # whether an atom among the first n fails against its bound
        bound, low = {}, INF
        for t in sorted(set(tau_a[:n]), reverse=True):
            low = bound[t] = min(low, g[t])
        return any(not le(v, bound[t], tol) for v, t in zip(nu_a[:n], tau_a[:n]))

    k = len(nu_a)
    if not fails(k):
        return AbsContReport(holds=True, op=op.name)
    h = bisect_left(range(1, k + 1), True, key=fails)
    x = next(x for x in (h, *range(h))
             if not le(max(nu_a[x], nu_a[h]), g[max(tau_a[x], tau_a[h])], tol))
    return AbsContReport(holds=False, op=op.name, witness=mask_of((x, h)))


def verify_density(op, f, nu, tau, tol=DEFAULT_TOL):
    """Whether integrating f against tau reproduces nu on every set.

    Both measures are maxitive, so on a set b the atom-form integral is the
    max of op(f_i, tau_i) over the atoms i of b and nu(b) is the max of
    nu_i there. Maxima of pairwise close values are close at the same
    tolerance scale (and equal at inf), so the check runs on the k atoms,
    and the least failing set is the singleton of the least failing atom.
    """
    if not (isinstance(nu, MaxitiveMeasure) and isinstance(tau, MaxitiveMeasure)):
        raise TypeError("atom form needs a MaxitiveMeasure")
    got = per_distinct(op, f.atom_values, tau.atom_values)
    i = first_atom(not close(g, v, tol) for g, v in zip(got, nu.atom_values))
    return i is None, None if i is None else mask_of([i])


def _residuals(op, num, den):
    """The scalar residuals num_i / den_i, zero where num vanishes."""
    return per_distinct(lambda r, s: 0.0 if r == 0.0 else op.residual(r, s), num, den)


def rn_density(op, nu, tau, tol=DEFAULT_TOL):
    """Density of nu with respect to tau under an exact operation.

    Candidate atoms are residuals nu_i / tau_i (zero where nu vanishes); the
    candidate is verified on every measurable set before being returned.
    Exactness of the operation is required because the residual must
    actually attain the value it dominates.
    """
    if not op.exact:
        raise NonExactOperation(
            f"{op.name} is not exact; residuals only dominate, never attain"
        )
    rep = odot_abs_continuous(op, nu, tau, tol)
    if not rep.holds:
        raise NotOdotAbsolutelyContinuous(
            f"nu is not {op.name}-absolutely continuous; witness mask {rep.witness}"
        )
    c = MeasurableFn(nu.space, _residuals(op, nu.atom_values, tau.atom_values))
    ok, wit = verify_density(op, c, nu, tau, tol)
    if not ok:
        raise NoDensity(f"residual candidate fails on mask {wit}")
    return c


def ae_equal(w, f, g, tol=DEFAULT_TOL):
    """Whether f and g agree outside a w-negligible set."""
    pairs = enumerate(zip(f.atom_values, g.atom_values))
    diff = mask_of(i for i, (a, b) in pairs if not close(a, b, tol))
    return negligible(w, diff)


# ---------------------------------------------------------------------------
# the additive envelope
# ---------------------------------------------------------------------------


def envelope_measure(nu, m):
    """min over partitions of B of the sum of nu(block) * m(block).

    nu is a MaxitiveMeasure and m an AdditiveMeasure. The minimum is the
    closed atom sum, the all-singletons partition: the product inequality
    max_{i in b} nu_i * sum_{i in b} m_i >= sum_{i in b} nu_i m_i holds on
    every set b, so no block costs less than its singletons and no
    partition does. It is not checked in floats, where rounding can put a
    block one ulp below its singleton sum. A product nu_i m_i of two finite
    factors that overflows is refused. The result is additive, so it is
    returned as an AdditiveMeasure, whose atom sums are inf where they
    overflow.
    """
    nu_a, m_a = nu.atom_values, m.atom_masses
    masses = list(map(TIMES, nu_a, m_a))  # 0 * inf is 0; an overflow is inf
    i = first_atom(
        math.isinf(p) and math.isfinite(v) and math.isfinite(w)
        for p, v, w in zip(masses, nu_a, m_a)
    )
    if i is not None:
        raise MaxitiveError(f"product nu * m overflows on atom {i}: {nu_a[i]} * {m_a[i]}")
    return AdditiveMeasure(nu.space, masses)


class EnvelopeReport(Record):
    envelope: AdditiveMeasure
    density: MeasurableFn
    transformed: bool  # nu has an infinite atom
    reconstruction_ok: bool


def envelope_density(nu, m, tol=DEFAULT_TOL):
    """Density of the envelope with respect to m; equals nu atom by atom.

    The envelope's atoms are nu_i m_i, infinite ones included, so its
    classical density is nu on every atom m charges. An atom of infinite
    m-mass where nu is positive leaves the density undetermined there and
    raises NoDensity. When m is finite-valued, the reconstruction of nu(b)
    as the sup of env(S) / m(S) over the subsets S of b of positive mass is
    checked. By the mediant inequality that sup is attained at an atom of b
    that m charges, where the ratio is the density just checked against nu.
    So it is nu(b) on every set b iff nu is 0, within tolerance, on every
    atom that m does not charge.
    """
    nu_a, m_a = nu.atom_values, m.atom_masses
    i = first_atom(math.isinf(w) and v > 0 for v, w in zip(nu_a, m_a))
    if i is not None:
        raise NoDensity(
            f"m has infinite mass on atom {i} where nu is positive, "
            "so the density is not determined there"
        )
    env = envelope_measure(nu, m)
    c = classical_density(env, m, tol)
    # the density must agree with nu on every atom m charges
    i = first_atom(
        w > 0.0 and not close(g, v, tol) for g, v, w in zip(c.atom_values, nu_a, m_a)
    )
    if i is not None:
        raise NoDensity(
            f"envelope density {c.atom_values[i]} differs from "
            f"nu {nu.atom_values[i]} on atom {i}"
        )
    recon = True
    if all(map(math.isfinite, m_a)):
        recon = all(close(v, 0.0, tol) for v, w in zip(nu_a, m_a) if w == 0.0)
    has_inf = any(map(math.isinf, nu_a))
    return EnvelopeReport(
        envelope=env, density=c, transformed=has_inf, reconstruction_ok=recon
    )


# ---------------------------------------------------------------------------
# densities over an associated background measure
# ---------------------------------------------------------------------------


def density_from_associated(op, mu, c1, c2, tol=DEFAULT_TOL):
    """Density of esssup(c1) with respect to esssup(c2) over the measure mu.

    The set A where c1 escapes the scalar bound inf (.) c2 must be
    mu-negligible (NegligibilityViolation otherwise). The candidate is the
    scalar residual of esssup(c1) by c2 atom by atom: c1 / c2 on the
    support of mu, and 0 off it, which holds A. The candidate is verified
    against the two essential-supremum measures and NoDensity is raised on
    failure, which happens in particular when the operation is not exact at
    the needed pairs.
    """
    nu = esssup_measure(mu, c1, tol)
    tau = esssup_measure(mu, c2, tol)
    bound = per_distinct(lambda v: op(INF, v), c2.atom_values)
    pairs = enumerate(zip(c1.atom_values, bound))
    bad = mask_of(i for i, (v, c) in pairs if not le(v, c, tol))
    if not negligible(mu, bad):
        raise NegligibilityViolation(
            f"c1 escapes the scalar bound on a non-negligible set, mask {bad}"
        )
    c = MeasurableFn(mu.space, _residuals(op, nu.atom_values, c2.atom_values))
    ok, wit = verify_density(op, c, nu, tau, tol)
    if not ok:
        raise NoDensity(f"associated-density candidate fails on mask {wit}")
    return c
