"""Density extraction for the idempotent integral.

Three routes to a density are implemented: residuation atom by atom (the
exact-operation theorem), the additive envelope with atoms nu_i m_i (whose
classical density recovers the maxitive measure by one closed form, infinite
atoms included), and residuation of two given densities over a common
background measure. Extraction always ends with a verification of the
candidate; one that fails it raises NoDensity rather than being returned.
A density of a maxitive measure is verified on the k atoms, which the
representation nu(B) = max of nu_i over the atoms of B carries to every
set. The envelope is the closed atom sum nu_i m_i, the minimum over
partitions by the product inequality, and builds no table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .additive import AdditiveMeasure, classical_density
from .errors import (
    MaxitiveError,
    NegligibilityViolation,
    NoDensity,
    NonExactOperation,
    NotOdotAbsolutelyContinuous,
)
from .measures import MaxitiveMeasure, _null_atoms, esssup_measure, negligible
from .spaces import (
    DEFAULT_TOL,
    INF,
    MeasurableFn,
    as_table,
    atom_flags,
    first_flagged,
    mask_of,
    per_distinct,
    vclose,
    vle,
)


@dataclass
class AbsContReport:
    holds: bool
    op: str
    witness: int | None = None


def odot_abs_continuous(op, nu, tau, tol=DEFAULT_TOL):
    """nu(B) <= inf (.) tau(B) on every set; the witness is a failing mask.

    The bound inf (.) tau(B) is computed once per distinct value of tau.
    """
    nu_t = as_table(nu)
    tau_t = as_table(tau)
    if nu_t.space is not tau_t.space and nu_t.space != tau_t.space:
        raise ValueError("measures live on different spaces")
    bound = per_distinct(lambda v: op(INF, v), tau_t.table)
    b = first_flagged(~vle(nu_t.table, bound, tol))
    if b is not None:
        return AbsContReport(holds=False, op=op.name, witness=b)
    return AbsContReport(holds=True, op=op.name)


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
    i = first_flagged(~vclose(got, nu.atom_values, tol))
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
    diff = mask_of(np.flatnonzero(~vclose(f.atom_values, g.atom_values, tol)))
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
    # 0 * inf is nan and replaced by 0; an overflow is inf
    with np.errstate(invalid="ignore", over="ignore"):
        masses = np.where((nu_a == 0.0) | (m_a == 0.0), 0.0, nu_a * m_a)
    i = first_flagged(np.isinf(masses) & np.isfinite(nu_a) & np.isfinite(m_a))
    if i is not None:
        raise MaxitiveError(f"product nu * m overflows on atom {i}: {nu_a[i]} * {m_a[i]}")
    return AdditiveMeasure(nu.space, masses)


@dataclass
class EnvelopeReport:
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
    i = first_flagged(np.isinf(m.atom_masses) & (nu.atom_values > 0))
    if i is not None:
        raise NoDensity(
            f"m has infinite mass on atom {i} where nu is positive, "
            "so the density is not determined there"
        )
    env = envelope_measure(nu, m)
    with np.errstate(over="ignore"):  # an atom sum that overflows is inf
        c = classical_density(env, m, tol)
    # the density must agree with nu on every atom m charges
    i = first_flagged((m.atom_masses > 0) & ~vclose(c.atom_values, nu.atom_values, tol))
    if i is not None:
        raise NoDensity(
            f"envelope density {float(c.atom_values[i])} differs from "
            f"nu {float(nu.atom_values[i])} on atom {i}"
        )
    recon = True
    if np.isfinite(m.atom_masses).all():
        recon = bool(vclose(nu.atom_values[m.atom_masses == 0.0], 0.0, tol).all())
    has_inf = bool(np.isinf(nu.atom_values).any())
    return EnvelopeReport(
        envelope=env, density=c, transformed=has_inf, reconstruction_ok=recon
    )


# ---------------------------------------------------------------------------
# densities over an associated background measure
# ---------------------------------------------------------------------------


def density_from_associated(op, mu, c1, c2, tol=DEFAULT_TOL):
    """Density of esssup(c1) with respect to esssup(c2) over the measure mu.

    The set A where c1 escapes the scalar bound inf (.) c2 must be
    mu-negligible (NegligibilityViolation otherwise); off A the candidate is
    the scalar residual c1 / c2. The candidate is verified against the two
    essential-supremum measures and NoDensity is raised on failure, which
    happens in particular when the operation is not exact at the needed
    pairs.
    """
    mu_t = as_table(mu)
    space = mu_t.space
    nu = esssup_measure(mu_t, c1, tol)
    tau = esssup_measure(mu_t, c2, tol)
    bound = per_distinct(lambda v: op(INF, v), c2.atom_values)
    bad = mask_of(np.flatnonzero(~vle(c1.atom_values, bound, tol)))
    if bad and not negligible(mu_t, bad):
        raise NegligibilityViolation(
            f"c1 escapes the scalar bound on a non-negligible set, mask {bad}"
        )
    dead = atom_flags(bad | _null_atoms(mu_t.table), space.n_atoms)
    live = np.where(dead, 0.0, c1.atom_values)
    c = MeasurableFn(space, _residuals(op, live, c2.atom_values))
    ok, wit = verify_density(op, c, nu, tau, tol)
    if not ok:
        raise NoDensity(f"associated-density candidate fails on mask {wit}")
    return c
