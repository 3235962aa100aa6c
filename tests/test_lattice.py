"""The subset-lattice kernels against the brute-force loops they replaced.

Every routine routed through the whole-table primitives of ``spaces`` is
compared, on random spaces of up to six atoms, with the per-mask Python
loop it replaced (negligibility, the essential supremum, autocontinuity,
essentiality, odot-absolute continuity and the associated density among
them): the same flags and witnesses, the same raised errors,
and bit-identical tables wherever the arithmetic is unchanged. Sums over
partitions are associated differently by the DP, so those values are
compared with a relative tolerance of 1e-12 (six float64 additions).
The envelope reconstruction's closed form over the atoms is held against
the subset sweep it replaced, with the sweep's ratios taken exactly.
The sweeps over every set that the atom decomposition, the disjoint
variation, the essential witness and the density check no longer run,
because a maxitive measure's atom values make their claims true, are kept
as oracles: on every maxitive measure, extreme values and tolerances
included, each passes and returns the atom form. So are the sweeps of the
finiteness suite, under builtin and table operations, and of the additive
finiteness chain and family essential supremum, which the atom values and
masses decide.
The sigma-ideal and essential-supremum enumerations live here too, as the
oracles for the sigma-principality and the localizability that a finite
algebra gives every set function and every additive measure, so does the
set-partition enumeration that total_variation is held against, and so does
the sweep over every union of blocks that the conditional's block-only
check is held against. Then come the per-atom bit loops that decoded and
built masks before ``spaces.atoms_of`` and ``mask_of`` did, held against
them on spaces of up to 200 atoms. Last, the integral's submask walk and
its per-set level sweeps are held against the tables that replaced them,
bit for bit and raising where they raise, under every builtin operation and
a table operation whose grid may miss some inputs; so are the level sweep,
the Ky Fan distance and the Choquet integral, which evaluate an additive or
maxitive measure on a few sets, against the same calls on its table.
"""

import math
import operator
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxitive.additive import (
    AdditiveMeasure,
    choquet_integral,
    classical_density,
    family_essential_supremum,
    is_localizable_measure,
)
from maxitive.additive import is_semi_finite_measure, is_sigma_finite_measure
from maxitive.density import (
    AbsContReport,
    ae_equal,
    density_from_associated,
    envelope_density,
    envelope_measure,
    odot_abs_continuous,
    verify_density,
)
from maxitive.errors import (
    DefiningPropertyFailed,
    MaxitiveError,
    NegligibilityViolation,
    NoDensity,
    NonExactOperation,
    NotAbsolutelyContinuous,
    NotNullAdditive,
    OracleMismatch,
)
from maxitive.integral import (
    IntegralResult,
    _fullset,
    atom_integral,
    density_measure,
    gerritse_integral,
    idempotent_integral,
    ky_fan_distance,
)
from maxitive.modelio import _set_key, parse_set
from maxitive.measures import (
    AtomDecomposition,
    FinitenessReport,
    MaxitiveMeasure,
    _require_fuzzy,
    _zero_masks,
    atom_decomposition,
    classify,
    delta_measure,
    disjoint_variation,
    essential_supremum,
    essential_witness,
    esssup_measure,
    finiteness_suite,
    is_autocontinuous,
    is_completely_maxitive,
    is_essential,
    is_maxitive,
    is_monotone,
    is_null_additive,
    is_of_bounded_variation,
    is_sigma_finite,
    is_sigma_principal,
    negligible,
    total_variation,
)
from maxitive.possibility import (
    ConditionalSuiteReport,
    Law,
    PossibilitySpace,
    SubAlgebra,
    _perturbations,
    as_possibility,
    conditional,
    conditional_suite,
    law,
)
from maxitive.sampling import random_non_maxitive, random_subalgebra
from maxitive.semigroup import (
    MAX,
    MIN,
    PLUS,
    TIMES,
    SemigroupOp,
    TableOp,
    _times,
    _times_abs_cont,
    _times_residual,
    _times_residual_defined,
)
from maxitive.spaces import (
    DEFAULT_TOL,
    INF,
    MeasurableFn,
    MeasurableSet,
    SetFunction,
    as_table,
    atom_flags,
    atoms_of,
    build_space,
    close,
    first_flagged,
    fold_atoms,
    le,
    mask_of,
    max_over_submasks,
    partition_dp,
    require_budget,
    submasks,
    vclose,
)

REL = 1e-12
LABELS = "abcdef"

values = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.just(INF),
    st.sampled_from([0.5, 1.0, 2.0]),  # ties between atoms
    st.floats(0.01, 100.0),
)


@st.composite
def atom_values(draw, finite=False, k=None):
    k = draw(st.integers(0, 6)) if k is None else k
    pool = st.floats(0.0, 100.0) if finite else values
    return draw(st.lists(pool, min_size=k, max_size=k))


def space_of(k):
    return build_space(LABELS[:k], [[c] for c in LABELS[:k]])


@st.composite
def tables(draw, k=None):
    """Maxitive or additive tables, ulp-perturbed or not, or arbitrary ones."""
    vals = draw(atom_values(k=k))
    space = space_of(len(vals))
    kind = draw(st.sampled_from(["maxitive", "additive", "arbitrary"]))
    if kind == "arbitrary":
        table = [0.0] + draw(
            st.lists(values, min_size=space.n_sets - 1, max_size=space.n_sets - 1)
        )
        return SetFunction(space, table)
    measure = MaxitiveMeasure if kind == "maxitive" else AdditiveMeasure
    table = np.array(measure(space, vals).to_set_function().table)
    if draw(st.booleans()):
        b = draw(st.integers(0, space.n_sets - 1))
        if 0.0 < table[b] < INF:
            table[b] = np.nextafter(table[b], INF)
    return SetFunction(space, table)


# ---------------------------------------------------------------------------
# the brute-force references
# ---------------------------------------------------------------------------


def ref_is_maxitive(w, tol=1e-9):
    table = w.table
    masks = np.arange(w.space.n_sets)
    for b1 in range(w.space.n_sets):
        union = table[b1 | masks]
        expect = np.maximum(table[b1], table)
        agree = vclose(union, expect, tol)
        if not agree.all():
            b2 = int(np.nonzero(~agree)[0][0])
            return False, (b1, b2, float(table[b1 | b2]), float(expect[b2]))
    return True, None


def ref_is_completely_maxitive(w, tol=1e-9):
    table = w.table
    amax = np.zeros_like(table)
    for m in range(1, w.space.n_sets):
        low = m & -m
        amax[m] = max(amax[m ^ low], table[low])
    agree = vclose(table, amax, tol)
    if agree.all():
        return True, None
    return False, int(np.nonzero(~agree)[0][0])


def ref_is_monotone(w, tol=1e-9):
    for i in range(w.space.n_atoms):
        for b in range(w.space.n_sets):
            if not le(float(w.table[b]), float(w.table[b | (1 << i)]), tol):
                return False, (b, b | (1 << i))
    return True, None


def _principal_ideal(u):
    return frozenset(int(s) for s in submasks(u))


def enumerate_sigma_ideals(space, discover_atoms=3, verify_atoms=4):
    """All sigma-ideals of the algebra, as frozensets of masks.

    For k <= discover_atoms every family of sets is tested against the
    definition (downward closed, closed under unions), confirming that the
    ideals are exactly the principal ones. Above that the principal ideals
    are constructed directly; closure is verified pairwise up to
    verify_atoms.
    """
    k = space.n_atoms
    n = space.n_sets
    principal = [_principal_ideal(u) for u in range(n)]
    if k <= discover_atoms:
        found = []
        all_masks = list(range(n))
        for fam_bits in range(1, 1 << n):
            fam = frozenset(m for m in all_masks if fam_bits & (1 << m))
            ok = True
            for a in fam:
                for b in fam:
                    if (a | b) not in fam:
                        ok = False
                        break
                if not ok:
                    break
                for s in submasks(a):
                    if s not in fam:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.append(fam)
        if sorted(found, key=sorted) != sorted(set(principal), key=sorted):
            raise OracleMismatch("ideal discovery disagrees with principal ideals")
        return found
    if k <= verify_atoms:
        for ideal in principal:
            for a in ideal:
                for b in ideal:
                    if (a | b) not in ideal:
                        raise OracleMismatch("constructed ideal not union-closed")
    return principal


def ref_is_localizable_measure(m, family_atoms=3):
    """Every family of sets has an essential supremum, built and verified.

    Up to family_atoms atoms all 2^(2^k) - 1 nonempty families are tried;
    above that the canonical ones (all sets, all singletons, and up to six
    atoms all pairs of sets).
    """
    n = m.space.n_sets
    if m.space.n_atoms <= family_atoms:
        families = [
            [b for b in range(n) if bits & (1 << b)] for bits in range(1, 1 << n)
        ]
    else:
        families = [list(range(n)), [1 << i for i in range(m.space.n_atoms)]]
        if m.space.n_atoms <= 6:
            families += [[a, b] for a in range(n) for b in range(a + 1, n)]
    for fam in families:
        family_essential_supremum(m, fam)
    return True


def ref_is_sigma_principal(w, ideal_atoms=4):
    for ideal in enumerate_sigma_ideals(w.space, verify_atoms=ideal_atoms):
        winner = None
        for cand in sorted(ideal, key=lambda m: -bin(m).count("1")):
            if all(negligible(w, s & ~cand) for s in ideal):
                winner = cand
                break
        if winner is None:
            return False, sorted(ideal)
    return True, None


def set_partitions(items):
    """Yield all partitions of ``items`` (a sequence) as lists of lists."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def ref_total_variation(w):
    k = w.space.n_atoms
    best = 0.0
    best_part = None
    for part in set_partitions(range(k)) if k else [[]]:
        total = 0.0
        for block in part:
            total += float(w.table[sum(1 << i for i in block)])
        if total > best or best_part is None:
            best = total
            best_part = part
    return best, best_part


def ref_first_infinite_block(w):
    """The first partition in set_partitions order with an infinite block."""
    return next(
        part
        for part in set_partitions(range(w.space.n_atoms))
        if any(math.isinf(w.table[mask_of(block)]) for block in part)
    )


def ref_finiteness_suite(op, nu):
    space = nu.space
    odot = op.finite_element(nu(space.full_mask))
    sigma = all(op.finite_element(float(v)) for v in nu.atom_values)
    semi = True
    for b in range(space.n_sets):
        best = 0.0
        for a in submasks(b):
            if op.finite_element(nu(a)):
                best = max(best, nu(a))
        if best != nu(b):
            semi = False
            break
    if semi != odot:
        raise OracleMismatch("semi-finiteness must match op-finiteness here")
    return FinitenessReport(odot_finite=odot, sigma_odot_finite=sigma, semi_odot_finite=semi)


def _mul(a, b):
    return 0.0 if a == 0.0 or b == 0.0 else a * b


def ref_envelope_dp(nu, m):
    n = nu.space.n_sets
    dp = np.zeros(n)
    for b in range(1, n):
        low = b & -b
        best = INF
        for sub in submasks(b ^ low):
            blk = low | sub
            cand = _mul(nu(blk), m(blk)) + dp[b ^ blk]
            if cand < best:
                best = cand
        dp[b] = best
    return dp


def ref_reconstruct(nu, m, env, tol):
    """Whether nu(b) is the sup of env(S) / m(S) over the subsets S of b of
    positive m-mass, on every set b: the subset sweep that envelope_density's
    closed form replaced, for a finite m. Each ratio is taken exactly and
    rounded once, so no sum overflows and no mediant of two atoms rounds
    above the larger of their ratios, as it could in float64."""
    for b in range(nu.space.n_sets):
        best = 0.0
        for sub in submasks(b):
            atoms = atoms_of(sub)
            mass = sum(Fraction(float(m.atom_masses[i])) for i in atoms)
            if mass == 0:
                continue
            if any(math.isinf(env.atom_masses[i]) for i in atoms):
                ratio = INF
            else:
                q = sum(Fraction(float(env.atom_masses[i])) for i in atoms) / mass
                try:
                    ratio = float(q)
                except OverflowError:
                    ratio = INF
            best = max(best, ratio)
        if not close(nu(b), best, tol):
            return False
    return True


def ref_atom_decomposition(nu, tol=1e-9):
    space = nu.space
    order = sorted(
        (i for i in range(space.n_atoms) if nu.atom_values[i] > 0),
        key=lambda i: (-float(nu.atom_values[i]), i),
    )
    hs = tuple(space.atom_block(i) for i in order)
    values = tuple(float(nu.atom_values[i]) for i in order)
    null_mask = space.full_mask
    for i in order:
        null_mask &= ~(1 << i)
    residual = MeasurableSet(space, null_mask)
    assert nu(residual) == 0.0, "leftover set has positive measure"
    for h in hs:
        assert nu(h) > 0, "candidate atom is null"
        for b in range(space.n_sets):
            assert nu(h.mask & b) == 0.0 or nu(h.mask & ~b) == 0.0, (
                f"{h!r} splits into two non-null parts at mask {b}"
            )
    for b in range(space.n_sets):
        best = 0.0
        for h in hs:
            best = max(best, nu(b & h.mask))
        assert close(nu(b), best, tol), f"max over atoms misses nu at mask {b}"
    return AtomDecomposition(atoms=hs, values=values, residual_null=residual)


def ref_disjoint_variation(nu, tol=1e-9):
    for b in range(nu.space.n_sets):
        atom_sum = sum(float(nu.atom_values[i]) for i in atoms_of(b))
        assert le(nu(b), atom_sum, tol), f"block value above atom sum at mask {b}"
    return float(sum(ref_atom_decomposition(nu, tol).values))


def ref_verify_density(op, f, nu, tau, tol=1e-9):
    for b in range(nu.space.n_sets):
        got = atom_integral(op, f, tau, MeasurableSet(tau.space, b))
        if not close(got, nu(b), tol):
            return False, b
    return True, None


def ref_classical_density(nu, m, tol=1e-9):
    space = nu.space
    dens = []
    for i in range(space.n_atoms):
        mi = float(m.atom_masses[i])
        ni = float(nu.atom_masses[i])
        if mi == 0.0:
            if ni != 0.0:
                raise NotAbsolutelyContinuous(
                    f"atom {i} is m-null but carries nu-mass {ni}"
                )
            dens.append(0.0)
        elif math.isinf(mi):
            if ni == 0.0:
                dens.append(0.0)
            elif math.isinf(ni):
                dens.append(1.0)
            else:
                raise NoDensity(
                    f"atom {i} has infinite m-mass and finite nu-mass {ni}"
                )
        else:
            dens.append(ni / mi)
    c = MeasurableFn(space, dens)
    for b in range(space.n_sets):
        total = 0.0
        for i in MeasurableSet(space, b).atom_indices():
            total += _times(float(c.atom_values[i]), float(m.atom_masses[i]))
        if not close(total, nu(b), tol):
            raise NoDensity(f"candidate density fails on mask {b}")
    return c


def ref_negligible(w, bset, _zeros=None):
    w = as_table(w)
    mask = bset.mask if isinstance(bset, MeasurableSet) else int(bset)
    zeros = _zeros if _zeros is not None else _zero_masks(w.table)
    for g in zeros:
        if (int(g) & mask) == mask:
            return True
    return False


def ref_is_null_additive(w, tol=1e-9):
    w = as_table(w)
    table = w.table
    masks = np.arange(w.space.n_sets)
    for n in _zero_masks(table):
        b = first_flagged(~vclose(table[masks | int(n)], table, tol))
        if b is not None:
            return False, (b, int(n))
    return True, None


def ref_is_sigma_finite(w):
    w = as_table(w)
    covered = 0
    for m in np.nonzero(np.isfinite(w.table))[0]:
        covered |= int(m)
    if covered == w.space.full_mask:
        return True, None
    missing = next(
        i for i in range(w.space.n_atoms) if not covered & (1 << i)
    )
    return False, missing


def ref_is_autocontinuous(w, tol=1e-9):
    w = as_table(w)
    ok, wit = is_null_additive(w, tol)
    if not ok:
        return False, {"null_additive": wit}
    ok, wit = is_monotone(w, tol)
    if not ok:
        return False, {"monotone": wit}
    zeros = _zero_masks(w.table)
    k = w.space.n_atoms
    live = [
        i for i in range(k) if not ref_negligible(w, 1 << i, _zeros=zeros)
    ]
    f = [float(w.table[1 << i]) for i in range(k)]
    for b in range(w.space.n_sets):
        ess = 0.0
        for i in live:
            if b & (1 << i) and f[i] > ess:
                ess = f[i]
        if not close(float(w.table[b]), ess, tol):
            return False, b
    return True, None


def ref_is_essential(w):
    w = as_table(w)
    support = 0
    for i in range(w.space.n_atoms):
        if w.table[1 << i] > 0:
            support |= 1 << i
    for b in range(w.space.n_sets):
        if (float(w.table[b]) > 0) != bool(b & support):
            return False, b
    return True, None


def ref_essential_supremum(tau, f, bset=None, tol=1e-9):
    tau = as_table(tau)
    _require_fuzzy(tau, tol)
    if bset is None:
        bset = tau.space.full()
    zeros = _zero_masks(tau.table)

    def neg(mask):
        return ref_negligible(tau, mask, _zeros=zeros)

    candidates = [0.0] + f.distinct_values(bset)
    result = None
    for t in candidates:
        if neg(bset.mask & f.level_set(t).mask):
            result = t
            break
    if result is None:
        result = INF

    # independent route: max of f over non-negligible atoms inside B
    oracle = 0.0
    for i in range(tau.space.n_atoms):
        if bset.mask & (1 << i) and not neg(1 << i):
            oracle = max(oracle, float(f.atom_values[i]))
    if not close(result, oracle, tol):
        raise OracleMismatch(
            f"essential supremum sweep {result} vs atom oracle {oracle}"
        )
    return result


def ref_esssup_measure(tau, f, tol=1e-9):
    tau = as_table(tau)
    _require_fuzzy(tau, tol)
    zeros = _zero_masks(tau.table)
    vals = [
        0.0 if ref_negligible(tau, 1 << i, _zeros=zeros) else float(f.atom_values[i])
        for i in range(tau.space.n_atoms)
    ]
    return MaxitiveMeasure(tau.space, vals)


def ref_delta_measure(w, tol=1e-9):
    if isinstance(w, MaxitiveMeasure):
        vals = [1.0 if v > 0 else 0.0 for v in w.atom_values]
        return MaxitiveMeasure(w.space, vals)
    w = as_table(w)
    _require_fuzzy(w, tol)
    vals = [1.0 if w.table[1 << i] > 0 else 0.0 for i in range(w.space.n_atoms)]
    delta = MaxitiveMeasure(w.space, vals)
    # the two-valued companion must reproduce positivity on every set
    for b in range(w.space.n_sets):
        if (w.table[b] > 0) != (delta(b) > 0):
            raise NotNullAdditive(f"positivity not atom-determined at mask {b}")
    return delta


def ref_essential_witness(nu, tol=1e-9):
    if not np.isfinite(nu.atom_values).all():
        raise ValueError("essential witness needs finite values; transform first")
    dec = ref_atom_decomposition(nu, tol)
    masses = np.zeros(nu.space.n_atoms)
    for h, v in zip(dec.atoms, dec.values):
        masses[h.atom_indices()[0]] = v
    m = AdditiveMeasure(nu.space, masses)
    for b in range(nu.space.n_sets):
        assert (m(b) > 0) == (nu(b) > 0), f"null sets differ at mask {b}"
    return m


def ref_odot_abs_continuous(op, nu, tau, tol=1e-9):
    nu_t = as_table(nu)
    tau_t = as_table(tau)
    if nu_t.space is not tau_t.space and nu_t.space != tau_t.space:
        raise ValueError("measures live on different spaces")
    for b in range(nu_t.space.n_sets):
        bound = op(INF, float(tau_t.table[b]))
        val = float(nu_t.table[b])
        if val > bound + tol * max(1.0, abs(bound)):
            return AbsContReport(holds=False, op=op.name, witness=b)
    return AbsContReport(holds=True, op=op.name)


def ref_density_from_associated(op, mu, c1, c2, tol=1e-9):
    mu_t = as_table(mu)
    zeros = _zero_masks(mu_t.table)
    space = mu_t.space
    nu = ref_esssup_measure(mu_t, c1, tol)
    tau = ref_esssup_measure(mu_t, c2, tol)
    bad = 0
    for i in range(space.n_atoms):
        bound = op(INF, float(c2.atom_values[i]))
        if float(c1.atom_values[i]) > bound + tol * max(1.0, abs(bound)):
            bad |= 1 << i
    if bad and not ref_negligible(mu_t, bad, _zeros=zeros):
        raise NegligibilityViolation(
            f"c1 escapes the scalar bound on a non-negligible set, mask {bad}"
        )
    vals = []
    for i in range(space.n_atoms):
        if bad & (1 << i) or ref_negligible(mu_t, 1 << i, _zeros=zeros):
            vals.append(0.0)
        else:
            r = float(c1.atom_values[i])
            vals.append(0.0 if r == 0.0 else op.residual(r, float(c2.atom_values[i])))
    c = MeasurableFn(space, vals)
    ok, wit = ref_verify_density(op, c, nu, tau, tol)
    if not ok:
        raise NoDensity(f"associated-density candidate fails on mask {wit}")
    return c


def ref_additive_from_set_function(w, tol=1e-9):
    masses = [w.table[1 << i] for i in range(w.space.n_atoms)]
    m = AdditiveMeasure(w.space, masses)
    for b in range(w.space.n_sets):
        if not close(float(w.table[b]), m(b), tol):
            raise ValueError(f"table is not additive; witness mask {b}")
    return m


def ref_is_sigma_finite_measure(m):
    covered = 0
    for b in range(m.space.n_sets):
        if math.isfinite(m(b)):
            covered |= b
    return covered == m.space.full_mask


def ref_is_semi_finite_measure(m):
    for b in range(m.space.n_sets):
        if math.isinf(m(b)):
            sub = b
            found = False
            while sub:
                v = m(sub)
                if 0.0 < v < INF:
                    found = True
                    break
                sub = (sub - 1) & b
            if not found:
                return False
    return True


def ref_conditional(op, x, pi, sub, tol=DEFAULT_TOL):
    """The block-measurable function with the same integrals on the algebra.

    Per block: integrate x over the block, then residuate by the block's
    possibility; null blocks carry zero. The operation must be exact, and
    the defining property is re-verified on every set of the sub-algebra
    before the result is returned.
    """
    if not op.exact:
        raise NonExactOperation(f"{op.name} cannot attain its residuals")
    pi = as_possibility(pi, tol)
    block_vals = []
    for b in sub.blocks:
        pb = pi.measure(b)
        kappa = atom_integral(op, x, pi.measure, MeasurableSet(pi.space, b))
        block_vals.append(0.0 if pb == 0.0 else op.residual(kappa, pb))
    y = sub.spread(block_vals)
    for a in sub.generated():
        aset = MeasurableSet(pi.space, a)
        lhs = atom_integral(op, y, pi.measure, aset)
        rhs = atom_integral(op, x, pi.measure, aset)
        if not close(lhs, rhs, tol):
            raise DefiningPropertyFailed(
                f"conditional integrates to {lhs}, variable to {rhs}, on mask {a}"
            )
    return y


def ref_conditional_suite(op, x, pi, sub, tol=DEFAULT_TOL):
    """Verify the textbook properties of the conditional on one instance."""
    pi = as_possibility(pi, tol)
    space = pi.space
    y = ref_conditional(op, x, pi, sub, tol)
    details = {}

    defining = True
    for a in sub.generated():
        aset = MeasurableSet(space, a)
        if not close(
            atom_integral(op, y, pi.measure, aset),
            atom_integral(op, x, pi.measure, aset),
            tol,
        ):
            defining = False
            details["defining_witness"] = a

    total = close(
        atom_integral(op, y, pi.measure, space.full()),
        atom_integral(op, x, pi.measure, space.full()),
        tol,
    )

    # uniqueness: any distinguishable change on a non-null block must break
    # the defining property on that block
    characterization = True
    for j, b in enumerate(sub.blocks):
        pb = pi.measure(b)
        if pb == 0.0:
            continue
        bset = MeasurableSet(space, b)
        target = atom_integral(op, x, pi.measure, bset)
        y_b = float(y.atom_values[bset.atom_indices()[0]])
        broke = False
        for z in _perturbations(op, y_b, pb):
            vals = list(map(float, y.atom_values))
            for i in bset.atom_indices():
                vals[i] = z
            zfn = MeasurableFn(space, vals)
            if not close(atom_integral(op, zfn, pi.measure, bset), target, tol):
                broke = True
                break
        if not broke:
            characterization = False
            details["characterization_block"] = j

    # raising the variable can only raise the conditional
    shift = float(np.median([v for v in x.atom_values if math.isfinite(v)] or [1.0]))
    x_up = x.pointwise(max, MeasurableFn.constant(space, shift))
    y_up = ref_conditional(op, x_up, pi, sub, tol)
    monotone = True
    for i in range(space.n_atoms):
        if float(y_up.atom_values[i]) < float(y.atom_values[i]) - tol:
            monotone = False
            details["monotone_atom"] = i
            break
    if monotone and op.name in ("times", "min"):
        # envelope: the conditional stays inside the block's value range,
        # floored at the block possibility for min
        for j, b in enumerate(sub.blocks):
            if pi.measure(b) == 0.0:
                continue
            idx = MeasurableSet(space, b).atom_indices()
            xs = [float(x.atom_values[i]) for i in idx]
            y_b = float(y.atom_values[idx[0]])
            hi = max(xs)
            lo = min(xs) if op.name == "times" else min(min(xs), pi.measure(b))
            if y_b > hi + tol * max(1.0, hi) or y_b < lo - tol * max(1.0, abs(lo)):
                monotone = False
                details["envelope_block"] = j
                break

    scaling = True
    for lam in (0.5, 2.0):
        lam_fn = MeasurableFn.constant(space, lam)
        xs = lam_fn.pointwise(op, x)
        ys = ref_conditional(op, xs, pi, sub, tol)
        expect = lam_fn.pointwise(op, y)
        for i in range(space.n_atoms):
            if not close(float(ys.atom_values[i]), float(expect.atom_values[i]), tol):
                scaling = False
                details["scaling"] = (lam, i)
                break
        if not scaling:
            break

    tower = True
    if len(sub.blocks) >= 2:
        coarse = sub.coarsened()
        direct = ref_conditional(op, x, pi, coarse, tol)
        two_step = ref_conditional(op, y, pi, coarse, tol)
        for i in range(space.n_atoms):
            if not close(
                float(direct.atom_values[i]), float(two_step.atom_values[i]), tol
            ):
                tower = False
                details["tower_atom"] = i
                break

    # conditioning a block-measurable function returns a version of it
    ym = ref_conditional(op, y, pi, sub, tol)
    measurable_fixed = True
    for a in sub.generated():
        aset = MeasurableSet(space, a)
        if not close(
            atom_integral(op, ym, pi.measure, aset),
            atom_integral(op, y, pi.measure, aset),
            tol,
        ):
            measurable_fixed = False
            details["measurable_fixed_witness"] = a
            break
    if measurable_fixed and op.name == "times":
        for j, b in enumerate(sub.blocks):
            if pi.measure(b) == 0.0:
                continue
            i = MeasurableSet(space, b).atom_indices()[0]
            if not close(float(ym.atom_values[i]), float(y.atom_values[i]), tol):
                measurable_fixed = False
                details["measurable_fixed_block"] = j
                break

    return ConditionalSuiteReport(
        y=y,
        defining=defining,
        characterization=characterization,
        monotone=monotone,
        scaling=scaling,
        tower=tower,
        total=total,
        measurable_fixed=measurable_fixed,
        details=details,
    )


def perturbed(draw, vals):
    """vals with at most one finite positive entry moved up by one ulp."""
    vals = list(vals)
    if vals and draw(st.booleans()):
        i = draw(st.integers(0, len(vals) - 1))
        if 0.0 < vals[i] < INF:
            vals[i] = float(np.nextafter(vals[i], INF))
    return vals


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (MaxitiveError, ValueError) as exc:
        return type(exc), str(exc)


def settled(fn, *args):
    """outcome(), with a returned float, measure or function as its type and bytes."""
    out = outcome(fn, *args)
    if isinstance(out, float):
        return float, bits(out)
    for attr in ("atom_values", "atom_masses", "table"):
        if hasattr(out, attr):
            return type(out), getattr(out, attr).tobytes()
    return out


# ---------------------------------------------------------------------------
# the primitives
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(tables())
def test_primitives_match_their_definitions(w):
    n = w.space.n_sets
    table = w.table
    best = max_over_submasks(table)
    for b in range(n):
        assert best[b] == max(table[s] for s in submasks(b))


@settings(max_examples=60, deadline=None)
@given(atom_values())
def test_to_set_function_tables_are_bit_identical(vals):
    space = space_of(len(vals))
    for measure in (MaxitiveMeasure(space, vals), AdditiveMeasure(space, vals)):
        table = measure.to_set_function().table
        each = np.array([measure(b) for b in range(space.n_sets)], dtype=float)
        assert table.tobytes() == each.tobytes()


# ---------------------------------------------------------------------------
# the routed routines
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(tables())
# within tol of its value at the union of the null atoms, not at each null set
@example(SetFunction(space_of(3), [0, 0, 0, 0, 1, 1 + 1.8e-9, 1, 1 + 0.9e-9]))
def test_predicates_match_brute_force(w):
    assert is_maxitive(w) == ref_is_maxitive(w)
    for tol in (0.0, 1e-9):
        assert is_null_additive(w, tol) == ref_is_null_additive(w, tol)
        assert is_monotone(w, tol) == ref_is_monotone(w, tol)
    assert is_completely_maxitive(w) == ref_is_completely_maxitive(w)
    assert is_sigma_principal(w) == ref_is_sigma_principal(w)
    assert is_sigma_principal(w) == ref_is_sigma_principal(w, ideal_atoms=2)

    val, part = total_variation(w)
    ref_val, ref_part = ref_total_variation(w)
    assert math.isclose(val, ref_val, rel_tol=REL)
    assert sorted(i for block in part for i in block) == list(range(w.space.n_atoms))
    assert math.isclose(
        val, math.fsum(w.table[sum(1 << i for i in b)] for b in part), rel_tol=REL
    )
    if math.isinf(ref_val):
        assert part == ref_part
        assert is_of_bounded_variation(w) == (False, ref_part)
    else:
        assert is_of_bounded_variation(w) == (True, None)

    # the predicates a finite algebra decides hold with no witness
    rep = classify(w)
    for key in ("continuous_from_above", "exhaustive", "ccc", "sigma_principal"):
        assert getattr(rep, key) is True
        assert key not in rep.witnesses
    assert rep.of_bounded_variation == rep.finite


# the sums of two of these overflow, and a sum of one and any moderate values does not
huge = st.sampled_from([9e307, 1.7e308])


@st.composite
def variation_tables(draw):
    """Tables on up to 8 atoms: arbitrary, finite with huge values, or mostly zero."""
    k = draw(st.integers(0, 8))
    n = 1 << k
    moderate = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 100.0))
    kind = draw(st.sampled_from(["any", "finite", "sparse"]))
    if kind == "sparse":
        table = [0.0] * n
        pool = st.one_of(moderate, huge, st.just(INF))
        for b, v in draw(st.dictionaries(st.integers(0, n - 1), pool, max_size=4)).items():
            table[b] = v
        table[0] = 0.0
    else:
        pool = st.one_of(moderate, huge) if kind == "finite" else st.one_of(moderate, huge, st.just(INF))
        table = [0.0] + draw(st.lists(pool, min_size=n - 1, max_size=n - 1))
    labs = [f"g{i}" for i in range(k)]
    return SetFunction(build_space(labs, [[l] for l in labs]), table)


@settings(max_examples=60, deadline=None)
@given(variation_tables())
def test_total_variation_matches_enumeration_up_to_eight_atoms(w):
    val, part = total_variation(w)
    ref_val, ref_part = ref_total_variation(w)
    assert sorted(i for block in part for i in block) == list(range(w.space.n_atoms))
    if np.isinf(w.table).any():
        # the search finds the first partition with an infinite block; the
        # enumeration stops at the first infinite sum, which is that one
        # unless finite blocks overflow earlier
        assert val == INF
        assert part == ref_first_infinite_block(w)
        if any(math.isinf(w.table[mask_of(block)]) for block in ref_part):
            assert part == ref_part
        assert is_of_bounded_variation(w) == (False, part)
    elif math.isinf(ref_val):
        # the best sum overflows: the witness is best on the scaled table
        assert val == INF
        scaled = SetFunction(w.space, w.table / w.table.max())
        got = math.fsum(scaled.table[mask_of(block)] for block in part)
        assert math.isclose(got, ref_total_variation(scaled)[0], rel_tol=REL)
    else:
        assert math.isclose(val, ref_val, rel_tol=REL)
        got = math.fsum(w.table[mask_of(block)] for block in part)
        assert math.isclose(val, got, rel_tol=REL)


#: a table operation's grid holds 0 and inf and some of the rest
TABLE_GRID = [0.0, 0.5, 1.0, 2.0, INF]


@st.composite
def table_ops(draw):
    """A table operation with random values on a grid that holds 0 and inf."""
    grid = sorted({0.0, INF, *draw(st.sets(st.sampled_from(TABLE_GRID)))})
    row = st.lists(st.sampled_from(TABLE_GRID), min_size=len(grid), max_size=len(grid))
    return TableOp("drawn", grid, draw(st.lists(row, min_size=len(grid), max_size=len(grid))))


@st.composite
def on_grid(draw):
    """A table operation and up to six atom values on its grid."""
    op = draw(table_ops())
    return op, draw(st.lists(st.sampled_from(op.grid), max_size=6))


@settings(max_examples=100, deadline=None)
@given(atom_values(), on_grid())
# 1 is not op-finite and inf is, so semi- and op-finiteness differ
@example([], (TableOp("gap", [0.0, 1.0, INF], [[0.0] * 3, [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]), [1.0, INF]))
def test_finiteness_suite_matches_brute_force(vals, case):
    nu = MaxitiveMeasure(space_of(len(vals)), vals)
    for op in (TIMES, MIN, PLUS, MAX):
        assert outcome(finiteness_suite, op, nu) == outcome(ref_finiteness_suite, op, nu)
    # a table operation's op-finite values need not lie below one another,
    # so the OracleMismatch can fire
    op, grid_vals = case
    nu = MaxitiveMeasure(space_of(len(grid_vals)), grid_vals)
    assert outcome(finiteness_suite, op, nu) == outcome(ref_finiteness_suite, op, nu)


@settings(max_examples=60, deadline=None)
@given(st.lists(values, max_size=4))
def test_localizability_matches_family_enumeration(vals):
    # every family of sets, zero and infinite atoms included, has an
    # essential supremum that passes its verification
    m = AdditiveMeasure(space_of(len(vals)), vals)
    assert is_localizable_measure(m) is ref_is_localizable_measure(m) is True


@settings(max_examples=100, deadline=None)
@given(atom_values(), st.data())
def test_envelope_matches_brute_force(vals, data):
    space = space_of(len(vals))
    nu = MaxitiveMeasure(space, vals)
    m = AdditiveMeasure(space, data.draw(st.lists(values, min_size=space.n_atoms,
                                                  max_size=space.n_atoms)))
    nu_t, m_t = nu.to_set_function().table, m.to_set_function().table
    with np.errstate(invalid="ignore"):
        cost = np.where((nu_t == 0.0) | (m_t == 0.0), 0.0, nu_t * m_t)
    dp = partition_dp(cost, np.minimum)
    assert dp.tobytes() == ref_envelope_dp(nu, m).tobytes()
    # the closed atom sum is the minimum over partitions
    assert vclose(envelope_measure(nu, m).to_set_function().table, dp, REL).all()

    if np.isfinite(m.atom_masses).all():
        rep = envelope_density(nu, m)
        assert rep.reconstruction_ok == ref_reconstruct(nu, m, rep.envelope, 1e-9)


wide = st.one_of(st.just(0.0), st.sampled_from([1e-300, 1e308]), st.floats(1e-3, 1e3))


@st.composite
def envelope_inputs(draw):
    """nu and a finite m on up to five atoms, with inf, huge and tiny values."""
    k = draw(st.integers(1, 5))
    nu = draw(st.lists(st.one_of(wide, st.just(INF)), min_size=k, max_size=k))
    return nu, draw(st.lists(wide, min_size=k, max_size=k))


@settings(max_examples=300, deadline=None)
@given(envelope_inputs(), st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 0.1]))
# at tolerance 0 the float64 sweep rounded the mediant of atoms c and d one
# ulp above 1e-10 and reported a failure
@example(([0.0, 0.0, 1e-10, 1e-10], [26.389728284, 0.0, 750.565338406, 0.083029034]), 0.0)
def test_reconstruction_closed_form_matches_the_subset_sweep(inputs, tol):
    # the closed form holds exactly once the per-atom check has passed
    nu_vals, m_vals = inputs
    space = space_of(len(nu_vals))
    nu, m = MaxitiveMeasure(space, nu_vals), AdditiveMeasure(space, m_vals)
    try:
        rep = envelope_density(nu, m, tol)
    except MaxitiveError:  # an overflowing product or a failed atom check
        return
    assert rep.reconstruction_ok == ref_reconstruct(nu, m, rep.envelope, tol)


@settings(max_examples=100, deadline=None)
@given(atom_values())
def test_atom_decomposition_matches_brute_force(vals):
    nu = MaxitiveMeasure(space_of(len(vals)), vals)
    assert atom_decomposition(nu) == ref_atom_decomposition(nu)


extreme = st.one_of(values, st.sampled_from([1e308, 1.7e308, 1e-300, 5e-324]))


@settings(max_examples=200, deadline=None)
@given(st.lists(extreme, max_size=6), st.sampled_from([0.0, 1e-12, 1e-9, 0.1]), st.data())
def test_atom_results_pass_their_sweeps_on_extreme_values(vals, tol, data):
    # on a maxitive measure no sweep ever fails, and each returns the atom form
    space = space_of(len(vals))
    k = space.n_atoms
    nu = MaxitiveMeasure(space, vals)
    assert atom_decomposition(nu) == ref_atom_decomposition(nu, tol)
    var = disjoint_variation(nu)
    assert bits(var) == bits(ref_disjoint_variation(nu, tol))
    assert math.isclose(var, total_variation(nu.to_set_function())[0], rel_tol=REL)
    assert settled(essential_witness, nu) == settled(ref_essential_witness, nu, tol)

    tau = MaxitiveMeasure(space, data.draw(st.lists(extreme, min_size=k, max_size=k)))
    f = MeasurableFn(space, data.draw(st.lists(extreme, min_size=k, max_size=k)))
    op = data.draw(st.sampled_from([TIMES, MIN, PLUS, MAX]))
    exact = [op(float(f.atom_values[i]), float(tau.atom_values[i])) for i in range(k)]
    for target in (MaxitiveMeasure(space, perturbed(data.draw, exact)), nu):
        assert verify_density(op, f, target, tau, tol) == ref_verify_density(
            op, f, target, tau, tol
        )


@settings(max_examples=150, deadline=None)
@given(atom_values(), st.data())
def test_verify_density_matches_brute_force(vals, data):
    space = space_of(len(vals))
    k = space.n_atoms
    tau = MaxitiveMeasure(space, vals)
    f = MeasurableFn(space, data.draw(st.lists(values, min_size=k, max_size=k)))
    op = data.draw(st.sampled_from([TIMES, MIN, PLUS, MAX]))
    tol = data.draw(st.sampled_from([0.0, 1e-9]))
    exact = [op(float(f.atom_values[i]), float(tau.atom_values[i])) for i in range(k)]
    nu = MaxitiveMeasure(space, perturbed(data.draw, exact))
    table = np.array(nu.to_set_function().table)
    b = data.draw(st.integers(0, space.n_sets - 1))
    if 0.0 < table[b] < INF:
        table[b] = np.nextafter(table[b], INF)
    assert verify_density(op, f, nu, tau, tol) == ref_verify_density(op, f, nu, tau, tol)
    # the atom form reads nu's atoms, so a table is refused
    with pytest.raises(TypeError, match="atom form needs a MaxitiveMeasure"):
        verify_density(op, f, SetFunction(space, table), tau, tol)


@settings(max_examples=150, deadline=None)
@given(atom_values(), st.data())
def test_classical_density_matches_brute_force(vals, data):
    space = space_of(len(vals))
    k = space.n_atoms
    m = AdditiveMeasure(space, vals)
    kind = data.draw(st.sampled_from(["density", "arbitrary", "generic"]))
    if kind == "density":
        dens = data.draw(st.lists(values, min_size=k, max_size=k))
        masses = [_times(float(d), float(v)) for d, v in zip(dens, m.atom_masses)]
    elif kind == "arbitrary":
        masses = data.draw(st.lists(values, min_size=k, max_size=k))
    else:
        # generic floats; on about half the atoms the density n / m times m
        # misses n by an ulp, so tol = 0 must name the least such mask
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = AdditiveMeasure(space, 10.0 ** rng.uniform(-2, 2, k))
        masses = []
        for mi in m.atom_masses:
            n = 10.0 ** rng.uniform(-2, 2)
            if rng.random() < 0.5:
                for _ in range(1000):
                    if (n / mi) * mi != n:
                        break
                    n = float(np.nextafter(n, INF))
            masses.append(n)
    nu = AdditiveMeasure(space, perturbed(data.draw, masses))
    tol = data.draw(st.sampled_from([0.0, 1e-9]))
    got = outcome(classical_density, nu, m, tol)
    want = outcome(ref_classical_density, nu, m, tol)
    if isinstance(want, MeasurableFn):
        assert got.atom_values.tobytes() == want.atom_values.tobytes()
    else:
        assert got == want


# ---------------------------------------------------------------------------
# negligibility, the essential supremum and the Radon-Nikodym checks
# ---------------------------------------------------------------------------


def fn_of(data, space):
    return MeasurableFn(
        space, data.draw(st.lists(values, min_size=space.n_atoms, max_size=space.n_atoms))
    )


@settings(max_examples=100, deadline=None)
@given(tables(), st.data())
def test_null_set_checks_match_brute_force(w, data):
    # arbitrary, non-monotone and non-null-additive tables included: ae_equal
    # reads negligible, and odot_abs_continuous and density_from_associated
    # take them, unchecked or up to the raise that the reference also makes
    space = w.space
    for b in range(space.n_sets):
        assert negligible(w, b) is ref_negligible(w, b)
    assert is_sigma_finite(w) == ref_is_sigma_finite(w)
    assert is_autocontinuous(w) == ref_is_autocontinuous(w)
    assert is_essential(w) == ref_is_essential(w)
    assert settled(delta_measure, w) == settled(ref_delta_measure, w)
    assert settled(AdditiveMeasure.from_set_function, w) == settled(
        ref_additive_from_set_function, w
    )

    f, g = fn_of(data, space), fn_of(data, space)
    bset = MeasurableSet(space, data.draw(st.integers(0, space.n_sets - 1)))
    assert settled(esssup_measure, w, f) == settled(ref_esssup_measure, w, f)
    assert outcome(essential_supremum, w, f, bset) == outcome(
        ref_essential_supremum, w, f, bset
    )
    diff = sum(1 << i for i in range(space.n_atoms) if not close(f(i), g(i)))
    assert ae_equal(w, f, g) is ref_negligible(w, diff)

    op = data.draw(st.sampled_from([TIMES, MIN, PLUS, MAX]))
    tol = data.draw(st.sampled_from([0.0, 1e-9]))
    # near is within the relative tolerance of w but not the absolute one
    near = SetFunction(space, w.table * (1 + 5e-10))
    for nu in (data.draw(tables(k=space.n_atoms)), near):
        assert odot_abs_continuous(op, nu, w, tol) == ref_odot_abs_continuous(
            op, nu, w, tol
        )
    assert settled(density_from_associated, op, w, f, g) == settled(
        ref_density_from_associated, op, w, f, g
    )


@settings(max_examples=60, deadline=None)
@given(atom_values(finite=True))
def test_essential_witness_matches_brute_force(vals):
    nu = MaxitiveMeasure(space_of(len(vals)), vals)
    assert settled(essential_witness, nu) == settled(ref_essential_witness, nu)


@settings(max_examples=60, deadline=None)
@given(st.lists(values, max_size=6))
def test_finiteness_chain_matches_brute_force(vals):
    m = AdditiveMeasure(space_of(len(vals)), vals)
    assert is_sigma_finite_measure(m) is ref_is_sigma_finite_measure(m)
    assert is_semi_finite_measure(m) is ref_is_semi_finite_measure(m)


# ---------------------------------------------------------------------------
# the conditional, checked on its blocks against the sweep over every union
# ---------------------------------------------------------------------------


def skewed_times(eps, above):
    """An "exact" times whose residual overshoots by 1 + eps above a level."""

    def residual(r, s):
        t = _times_residual(r, s)
        return t * (1.0 + eps) if r > above else t

    return SemigroupOp(
        "skew",
        _times,
        left_identity=1.0,
        exact=True,
        abs_cont=_times_abs_cont,
        residual=residual,
        residual_defined=_times_residual_defined,
        omap=TIMES.omap,
    )


@st.composite
def conditionings(draw):
    """A possibility, a variable and a partition of up to six atoms."""
    k = draw(st.integers(1, 6))
    space = space_of(k)
    poss = draw(st.lists(
        st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0]), st.floats(0.01, 1.0)),
        min_size=k, max_size=k,
    ))
    poss[draw(st.integers(0, k - 1))] = 1.0
    x = MeasurableFn(space, draw(st.lists(values, min_size=k, max_size=k)))
    blocks = {}
    for i, label in enumerate(draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))):
        blocks[label] = blocks.get(label, 0) | 1 << i
    return PossibilitySpace.from_values(space, poss), x, SubAlgebra(space, blocks.values())


def reported(fn, *args):
    """settled(), with a suite report as its conditional's bytes and its fields."""
    out = settled(fn, *args)
    if isinstance(out, ConditionalSuiteReport):
        fields = {k: v for k, v in vars(out).items() if k != "y"}
        return out.y.atom_values.tobytes(), fields
    return out


@settings(max_examples=100, deadline=None)
@given(conditionings(), st.data())
def test_conditional_matches_the_sweep_over_every_union(case, data):
    pi, x, sub = case
    op = data.draw(st.sampled_from([TIMES, MIN, None]))
    if op is None:
        eps = data.draw(st.sampled_from([1e-15, 1e-12, 1e-10, 1e-8, 1e-3]))
        op = skewed_times(eps, data.draw(st.sampled_from([0.0, 0.5, 2.0])))
    tol = data.draw(st.sampled_from([0.0, 1e-9]))
    args = (op, x, pi, sub, tol)
    assert reported(conditional, *args) == reported(ref_conditional, *args)
    assert reported(conditional_suite, *args) == reported(ref_conditional_suite, *args)


def test_conditional_names_the_lowest_failing_block():
    # the residual overshoots only on block integrals above 0.9: block a
    # (0.5) passes, b+c (1.0) and d (4.0) fail, and the sweep over every
    # union meets b+c first
    space = space_of(4)
    pi = PossibilitySpace.from_values(space, [1.0, 0.5, 0.25, 1.0])
    x = MeasurableFn(space, [0.5, 2.0, 3.0, 4.0])
    sub = SubAlgebra(space, [0b0001, 0b0110, 0b1000])
    args = (skewed_times(1e-3, 0.9), x, pi, sub, 1e-9)
    raised = outcome(conditional, *args)
    assert raised == outcome(ref_conditional, *args)
    assert raised[0] is DefiningPropertyFailed and raised[1].endswith("on mask 6")


# ---------------------------------------------------------------------------
# the mask codec: the per-atom bit loops that atoms_of and mask_of replaced
# ---------------------------------------------------------------------------


def ref_atom_indices(bset):
    return tuple(i for i in range(bset.space.n_atoms) if bset.mask & (1 << i))


def ref_fold_atoms(values, mask, combine, start):
    out = start
    i = 0
    while mask:
        if mask & 1:
            out = combine(out, float(values[i]))
        mask >>= 1
        i += 1
    return out


def ref_block_mask(block):
    m = 0
    for i in block:
        m |= 1 << i
    return m


def ref_atom_flags(mask, n_atoms):
    return ((mask >> np.arange(n_atoms)) & 1).astype(bool)


def ref_level_set(f, t):
    mask = 0
    for i, v in enumerate(f.atom_values):
        if v > t:
            mask |= 1 << i
    return MeasurableSet(f.space, mask)


def ref_level_set_ge(f, t):
    mask = 0
    for i, v in enumerate(f.atom_values):
        if v >= t:
            mask |= 1 << i
    return MeasurableSet(f.space, mask)


def ref_distinct_values(f, bset=None):
    if bset is None:
        vals = set(float(v) for v in f.atom_values)
    else:
        vals = set(
            float(f.atom_values[i])
            for i in range(f.space.n_atoms)
            if bset.mask & (1 << i)
        )
    return sorted(vals)


def ref_indicator(space, bset, one=1.0):
    vals = [one if (bset.mask >> i) & 1 else 0.0 for i in range(space.n_atoms)]
    return MeasurableFn(space, vals)


def ref_support_mask(nu):
    mask = 0
    for i, v in enumerate(nu.atom_values):
        if v > 0:
            mask |= 1 << i
    return mask


def ref_set_of_labels(space, labels):
    mask = 0
    chosen = set()
    for lab in labels:
        if lab not in space._label_index:
            raise ValueError(f"unknown ground element: {lab!r}")
        chosen.add(lab)
        mask |= 1 << space._atom_of[space._label_index[lab]]
    covered = set()
    for i in range(space.n_atoms):
        if mask & (1 << i):
            covered.update(space.atom_members(i))
    if covered != chosen:
        raise ValueError(
            f"labels {sorted(map(str, chosen))} do not form a measurable set; "
            f"atoms force {sorted(map(str, covered))}"
        )
    return MeasurableSet(space, mask)


def ref_set_key(space, mask):
    labels = space.atom_labels()
    return "+".join(labels[i] for i in range(space.n_atoms) if mask & (1 << i))


def ref_parse_set(space, text):
    text = text.strip()
    if not text:
        return space.empty()
    labels = [p.strip() for p in text.split("+")]
    mask = 0
    index = {l: i for i, l in enumerate(space.atom_labels())}
    for l in labels:
        if l not in index:
            raise ValueError(f"unknown atom label {l!r}")
        mask |= 1 << index[l]
    return MeasurableSet(space, mask)


def ref_ae_equal(w, f, g, tol=DEFAULT_TOL):
    w = as_table(w)
    diff = 0
    for i in range(w.space.n_atoms):
        if not close(float(f.atom_values[i]), float(g.atom_values[i]), tol):
            diff |= 1 << i
    return negligible(w, diff)


def ref_law(x, pi, tol=DEFAULT_TOL):
    pi = as_possibility(pi, tol)
    space = pi.space
    values = sorted({float(v) for v in x.atom_values})
    poss = []
    for v in values:
        mask = 0
        for i in range(space.n_atoms):
            if float(x.atom_values[i]) == v:
                mask |= 1 << i
        poss.append(pi.measure(mask))
    if not close(max(poss), 1.0, tol):
        raise OracleMismatch("law does not reach possibility one")
    return Law(values, poss)


def ref_generated(sub):
    out = []
    for bits in range(1 << len(sub.blocks)):
        m = 0
        for j, b in enumerate(sub.blocks):
            if bits & (1 << j):
                m |= b
        out.append(m)
    return out


def ref_family_essential_supremum(m, masks):
    space = m.space
    union = 0
    for b in masks:
        union |= int(b)
    h = 0
    for i in range(space.n_atoms):
        if union & (1 << i) and m(1 << i) > 0:
            h |= 1 << i
    for b in masks:
        if m(int(b) & ~h) != 0.0:
            raise OracleMismatch(f"candidate misses member mask {b}")
    for g in range(space.n_sets):
        if all(m(int(b) & ~g) == 0.0 for b in masks):
            if m(h & ~g) != 0.0:
                raise OracleMismatch(f"candidate is not least at competitor {g}")
    return MeasurableSet(space, h)


def ref_random_subalgebra(rng, space):
    order = list(rng.permutation(space.n_atoms))
    n_blocks = int(rng.integers(1, space.n_atoms + 1))
    cuts = sorted(rng.choice(range(1, space.n_atoms), size=n_blocks - 1, replace=False)) if n_blocks > 1 else []
    blocks = []
    prev = 0
    for c in list(cuts) + [space.n_atoms]:
        m = 0
        for i in order[prev:c]:
            m |= 1 << int(i)
        blocks.append(m)
        prev = c
    return SubAlgebra(space, blocks)


def ref_random_non_maxitive_table(rng, space):
    masses = [float(round(rng.uniform(0.1, 5.0), 6)) for _ in range(space.n_atoms)]
    table = [0.0] * space.n_sets
    for b in range(space.n_sets):
        table[b] = sum(masses[i] for i in range(space.n_atoms) if b & (1 << i))
    return SetFunction(space, table)


def wide_space(k):
    """k atoms; every third one has a second member that a set may split."""
    blocks = [[f"a{i}", f"b{i}"] if i % 3 == 0 else [f"a{i}"] for i in range(k)]
    return build_space([lab for blk in blocks for lab in blk], blocks)


def bits(x):
    return struct.pack("<d", x)


def law_outcome(x, pi):
    out = outcome(law, x, pi)
    return (out.values, out.possibilities) if isinstance(out, Law) else out


def ref_law_outcome(x, pi):
    out = outcome(ref_law, x, pi)
    return (out.values, out.possibilities) if isinstance(out, Law) else out


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(0, 6), st.integers(0, 200)), st.data())
def test_mask_codec_matches_the_bit_loops(k, data):
    # half the spaces are small enough for a table, so ae_equal is compared
    space = wide_space(k)
    vals = data.draw(st.lists(values, min_size=k, max_size=k))
    f = MeasurableFn(space, vals)
    g = MeasurableFn(space, perturbed(data.draw, vals))
    mask = data.draw(st.integers(0, space.full_mask))
    bset = MeasurableSet(space, mask)

    assert atoms_of(mask) == list(ref_atom_indices(bset))
    assert bset.atom_indices() == ref_atom_indices(bset)
    assert len(bset) == len(ref_atom_indices(bset))
    idx = data.draw(st.lists(st.integers(0, k - 1), max_size=k)) if k else []
    assert mask_of(idx) == ref_block_mask(idx)
    assert mask_of(np.array(idx, dtype=np.int64)) == ref_block_mask(idx)
    assert mask_of(atoms_of(mask)) == mask
    if k < 63:  # the reference shifts in int64
        assert np.array_equal(atom_flags(mask, k), ref_atom_flags(mask, k))

    for t in [0.0, INF, *vals[:3], data.draw(values)]:
        assert f.level_set(t) == ref_level_set(f, t)
        assert f.level_set_ge(t) == ref_level_set_ge(f, t)
    assert f.distinct_values() == ref_distinct_values(f)
    assert f.distinct_values(bset) == ref_distinct_values(f, bset)
    for combine, start in ((max, 0.0), (min, INF), (operator.add, 0.0)):
        assert bits(fold_atoms(f.atom_values, mask, combine, start)) == bits(
            ref_fold_atoms(f.atom_values, mask, combine, start)
        )
    one = data.draw(values)
    assert MeasurableFn.indicator(space, bset, one).atom_values.tobytes() == (
        ref_indicator(space, bset, one).atom_values.tobytes()
    )
    assert MaxitiveMeasure(space, vals).support_mask() == ref_support_mask(f)

    key = _set_key(space, mask)
    assert key == ref_set_key(space, mask)
    assert parse_set(space, key) == ref_parse_set(space, key) == bset
    text = "+".join(data.draw(st.lists(st.sampled_from([*space.atom_labels(), "q"]))))
    assert outcome(parse_set, space, text) == outcome(ref_parse_set, space, text)
    labels = data.draw(st.lists(st.sampled_from(space.ground))) if k else []
    assert outcome(space.set_of_labels, labels) == outcome(ref_set_of_labels, space, labels)

    if k:
        pi = PossibilitySpace.from_values(space, [1.0, *np.minimum(g.atom_values[1:], 1.0)])
        assert law_outcome(f, pi) == ref_law_outcome(f, pi)
    if k <= 6:
        w = data.draw(tables(k=k))
        for tol in (0.0, 1e-9):
            assert ae_equal(w, f, g, tol) is ref_ae_equal(w, f, g, tol)
    seed = data.draw(st.integers(0, 2**32 - 1))
    if k:
        sub = random_subalgebra(np.random.default_rng(seed), space)
        assert sub.blocks == ref_random_subalgebra(np.random.default_rng(seed), space).blocks
        if len(sub.blocks) <= 8:
            assert sub.generated() == ref_generated(sub)
    if 2 <= k <= 8:
        w, _ = random_non_maxitive(np.random.default_rng(seed), space)
        ref = ref_random_non_maxitive_table(np.random.default_rng(seed), space)
        assert w.table.tobytes() == ref.table.tobytes()


@settings(max_examples=60, deadline=None)
@given(atom_values(), st.data())
def test_family_essential_supremum_matches_the_bit_loop(vals, data):
    space = space_of(len(vals))
    m = AdditiveMeasure(space, vals)
    masks = data.draw(st.lists(st.integers(0, space.full_mask), max_size=4))
    assert outcome(family_essential_supremum, m, masks) == outcome(
        ref_family_essential_supremum, m, masks
    )


# ---------------------------------------------------------------------------
# the integral's submask walk and per-set level sweeps, as tables replace them
# ---------------------------------------------------------------------------


def ref_gerritse_integral(op, f, nu, bset=None):
    bset = _fullset(nu, bset)
    require_budget(len(bset) << len(bset), f"atom table on {len(bset)} atoms")
    best = 0.0
    sub = bset.mask
    while True:
        if sub:
            cand = op(fold_atoms(f.atom_values, sub, min, INF), nu(sub))
            if cand > best:
                best = cand
        if sub == 0:
            break
        sub = (sub - 1) & bset.mask
    return best


def ref_density_measure(op, f, nu):
    if isinstance(nu, MaxitiveMeasure):
        vals = [
            op(float(f.atom_values[i]), float(nu.atom_values[i]))
            for i in range(nu.space.n_atoms)
        ]
        return MaxitiveMeasure(nu.space, vals)
    w = as_table(nu)
    table = [
        idempotent_integral(op, f, w, MeasurableSet(w.space, b)).value
        for b in range(w.space.n_sets)
    ]
    return SetFunction(w.space, table)


#: a table operation's grid is drawn from these, and so are its inputs; its
#: values may also be -0.0, which a table document can hold
GRID = [0.0, 0.5, 1.0, 2.0, INF]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.sampled_from([TIMES, MIN, PLUS, MAX, None]), st.data())
def test_integral_tables_match_the_submask_walk_and_level_sweeps(k, op, data):
    # a table operation on part of GRID raises on the pairs off its grid
    pool = values
    if op is None:
        grid = sorted(data.draw(st.sets(st.sampled_from(GRID))))
        row = st.lists(st.sampled_from([-0.0, *GRID]), min_size=len(grid), max_size=len(grid))
        op = TableOp("drawn", grid, data.draw(st.lists(row, min_size=len(grid), max_size=len(grid))))
        pool = st.sampled_from(GRID)
    space = space_of(k)
    f = MeasurableFn(space, data.draw(st.lists(pool, min_size=k, max_size=k)))
    nu = MaxitiveMeasure(space, data.draw(st.lists(pool, min_size=k, max_size=k)))
    n = space.n_sets - 1
    w = SetFunction(space, [0.0] + data.draw(st.lists(pool, min_size=n, max_size=n)))
    bset = MeasurableSet(space, data.draw(st.integers(0, space.full_mask)))
    for measure in (nu, w, data.draw(tables(k=k))):
        assert settled(gerritse_integral, op, f, measure, bset) == settled(
            ref_gerritse_integral, op, f, measure, bset
        )
        assert settled(density_measure, op, f, measure) == settled(
            ref_density_measure, op, f, measure
        )


def test_gerritse_integral_of_signed_zeros_is_zero():
    space = space_of(2)
    op = TableOp("zero", [0.0, 1.0], [[-0.0, -0.0], [-0.0, -0.0]])
    f = MeasurableFn(space, [1.0, 1.0])
    nu = MaxitiveMeasure(space, [1.0, 1.0])
    assert bits(gerritse_integral(op, f, nu)) == bits(ref_gerritse_integral(op, f, nu)) == bits(0.0)


#: values whose sums overflow or underflow, with 0 and inf
EXTREME = [0.0, INF, 1e308, 1.7e308, 1e-300, 5e-324]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6), st.one_of(st.sampled_from([TIMES, MIN, PLUS, MAX]), table_ops()), st.data())
def test_point_evaluations_match_the_measure_table(k, op, data):
    # the level sweep, the Ky Fan distance and the Choquet integral evaluate
    # the measure on a few sets; on the measure's table they read the same
    # values, bit for bit, and raise where the table route raises
    space = space_of(k)
    pool = st.one_of(values, st.sampled_from([*EXTREME, *TABLE_GRID]))

    def draw_values():
        return data.draw(st.lists(pool, min_size=k, max_size=k))

    f, g = MeasurableFn(space, draw_values()), MeasurableFn(space, draw_values())
    bset = MeasurableSet(space, data.draw(st.integers(0, space.full_mask)))
    tol = data.draw(st.sampled_from([0.0, 1e-12, 1e-9, 0.1]))
    crosscheck = data.draw(st.booleans())

    def evaluations(nu):
        res = outcome(idempotent_integral, op, f, nu, bset, tol, crosscheck)
        if isinstance(res, IntegralResult):
            res = bits(res.value), bits(res.level), res.strict_boundary
        return (
            res,
            settled(ky_fan_distance, nu, f, g, bset),
            settled(choquet_integral, f, nu, bset),
        )

    for measure in (AdditiveMeasure(space, draw_values()), MaxitiveMeasure(space, draw_values())):
        assert evaluations(measure) == evaluations(measure.to_set_function())
