"""Density extraction for the idempotent integral.

Three routes to a density are implemented: residuation atom by atom (the
exact-operation theorem), the additive envelope built from partition sums
(whose classical density recovers the maxitive measure, through a bounded
transform when infinite values are present), and residuation of two given
densities over a common background measure. Extraction always ends with a
full verification sweep; a candidate that fails it raises NoDensity rather
than being returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .additive import AdditiveMeasure, classical_density
from .errors import (
    NegligibilityViolation,
    NoDensity,
    NonExactOperation,
    NotOdotAbsolutelyContinuous,
    OracleMismatch,
)
from .measures import MaxitiveMeasure, _as_table, _null_atoms, esssup_measure, negligible
from .spaces import (
    DEFAULT_TOL,
    INF,
    MeasurableFn,
    atom_table,
    close,
    first_flagged,
    max_over_submasks,
    partition_dp,
    vclose,
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
    nu_t = _as_table(nu)
    tau_t = _as_table(tau)
    if nu_t.space is not tau_t.space and nu_t.space != tau_t.space:
        raise ValueError("measures live on different spaces")
    values, where = np.unique(tau_t.table, return_inverse=True)
    bound = np.array([op(INF, float(v)) for v in values])[where]
    with np.errstate(invalid="ignore"):  # tol = 0 times an infinite bound
        b = first_flagged(nu_t.table > bound + tol * np.maximum(1.0, np.abs(bound)))
    if b is not None:
        return AbsContReport(holds=False, op=op.name, witness=b)
    return AbsContReport(holds=True, op=op.name)


def verify_density(op, f, nu, tau, tol=DEFAULT_TOL):
    """Whether integrating f against tau reproduces nu on every set.

    The integral table is atom_integral's sup from 0.0 on every mask at
    once; the witness is the least mask where it is not close to nu's.
    """
    if not isinstance(tau, MaxitiveMeasure):
        raise TypeError("atom form needs a MaxitiveMeasure")
    got = atom_table(
        [
            op(float(f.atom_values[i]), float(tau.atom_values[i]))
            for i in range(tau.space.n_atoms)
        ],
        np.maximum,
    )
    b = first_flagged(~vclose(got, _as_table(nu).table, tol))
    return b is None, b


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
    space = nu.space
    vals = []
    for i in range(space.n_atoms):
        ni = float(nu.atom_values[i])
        ti = float(tau.atom_values[i])
        vals.append(0.0 if ni == 0.0 else op.residual(ni, ti))
    c = MeasurableFn(space, vals)
    ok, wit = verify_density(op, c, nu, tau, tol)
    if not ok:
        raise NoDensity(f"residual candidate fails on mask {wit}")
    return c


def ae_equal(w, f, g, tol=DEFAULT_TOL):
    """Whether f and g agree outside a w-negligible set."""
    w = _as_table(w)
    diff = 0
    for i in range(w.space.n_atoms):
        if not close(float(f.atom_values[i]), float(g.atom_values[i]), tol):
            diff |= 1 << i
    return negligible(w, diff)


# ---------------------------------------------------------------------------
# the additive envelope
# ---------------------------------------------------------------------------


def envelope_measure(nu, m, tol=DEFAULT_TOL):
    """min over partitions of B of the sum of nu(block) * m(block).

    Computed two ways: a partition DP over submasks, and the closed atom sum
    (the all-singletons partition, which the product inequality shows is
    always optimal). Disagreement raises OracleMismatch. The result is
    additive, so it is returned as an AdditiveMeasure.
    """
    space = nu.space
    nu_t = _as_table(nu).table
    m_t = _as_table(m).table
    with np.errstate(invalid="ignore"):  # 0 * inf, replaced by 0
        cost = np.where((nu_t == 0.0) | (m_t == 0.0), 0.0, nu_t * m_t)
    dp = partition_dp(cost, np.minimum)
    closed = atom_table(cost[1 << np.arange(space.n_atoms)])
    b = first_flagged(~vclose(dp, closed, tol))
    if b is not None:
        raise OracleMismatch(
            f"partition DP {dp[b]} vs singleton sum {closed[b]} at mask {b}"
        )
    masses = [float(closed[1 << i]) for i in range(space.n_atoms)]
    return AdditiveMeasure(space, masses)


@dataclass
class EnvelopeReport:
    envelope: AdditiveMeasure
    density: MeasurableFn
    transformed: bool
    reconstruction_ok: bool


def _reconstruct(nu, m, env, tol):
    """nu(B) as the sup of envelope/m ratios over subsets of positive mass."""
    mass = atom_table(m.atom_masses)
    env_t = atom_table(env.atom_masses)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(np.isinf(env_t), INF, env_t / mass)
    charged = (0.0 < mass) & (mass < INF)
    best = max_over_submasks(np.where(charged, ratio, 0.0))
    return bool(vclose(_as_table(nu).table, best, tol).all())


def envelope_density(nu, m, tol=DEFAULT_TOL, force_transform=False):
    """Density of the envelope with respect to m; equals nu atom by atom.

    Infinite nu values are routed through the arctan transform: the envelope
    is built for the bounded measure arctan(nu), its density extracted, and
    tan applied back, mapping pi/2 to infinity exactly. Reconstruction of nu
    from envelope ratios is verified when m is finite-valued.
    """
    space = nu.space
    has_inf = bool(np.isinf(nu.atom_values).any())
    transformed = has_inf or force_transform
    if transformed:
        base = MaxitiveMeasure(space, [math.atan(float(v)) for v in nu.atom_values])
    else:
        base = nu
    env1 = envelope_measure(base, m, tol)
    c1 = classical_density(env1, m, tol)
    if transformed:
        # the classical division puts the transform value a few ulp off
        # pi/2 on infinite atoms; anything that close can only be infinity
        half_pi = math.atan(INF)
        vals = [
            INF if close(float(v), half_pi, 1e-12) else math.tan(float(v))
            for v in c1.atom_values
        ]
        c = MeasurableFn(space, vals)
        env = envelope_measure(nu, m, tol)
    else:
        c = c1
        env = env1
    # the density must agree with nu on every atom m charges
    for i in range(space.n_atoms):
        if float(m.atom_masses[i]) > 0 and not close(
            float(c.atom_values[i]), float(nu.atom_values[i]), tol
        ):
            raise NoDensity(
                f"envelope density {float(c.atom_values[i])} differs from "
                f"nu {float(nu.atom_values[i])} on atom {i}"
            )
    recon = True
    if np.isfinite(m.atom_masses).all():
        recon = _reconstruct(nu, m, env, tol)
    return EnvelopeReport(
        envelope=env, density=c, transformed=transformed, reconstruction_ok=recon
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
    mu_t = _as_table(mu)
    space = mu_t.space
    nu = esssup_measure(mu_t, c1, tol)
    tau = esssup_measure(mu_t, c2, tol)
    bad = 0
    for i in range(space.n_atoms):
        bound = op(INF, float(c2.atom_values[i]))
        if float(c1.atom_values[i]) > bound + tol * max(1.0, abs(bound)):
            bad |= 1 << i
    if bad and not negligible(mu_t, bad):
        raise NegligibilityViolation(
            f"c1 escapes the scalar bound on a non-negligible set, mask {bad}"
        )
    dead = bad | _null_atoms(mu_t.table)
    vals = []
    for i in range(space.n_atoms):
        if dead & (1 << i):
            vals.append(0.0)
        else:
            r = float(c1.atom_values[i])
            vals.append(0.0 if r == 0.0 else op.residual(r, float(c2.atom_values[i])))
    c = MeasurableFn(space, vals)
    ok, wit = verify_density(op, c, nu, tau, tol)
    if not ok:
        raise NoDensity(f"associated-density candidate fails on mask {wit}")
    return c
