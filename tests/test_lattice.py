"""The subset-lattice kernels against the brute-force loops they replaced.

Every routine routed through the whole-table primitives of ``spaces`` is
compared, on random spaces of up to six atoms, with the per-mask Python
loop it replaced (negligibility, the essential supremum, autocontinuity,
essentiality, odot-absolute continuity and the associated density among
them): the same flags and witnesses, the same raised errors,
and bit-identical tables wherever the arithmetic is unchanged. A set is
negligible iff it lies in the ideal the zero sets generate; the sweep's
notion, a set inside one zero set, is the same ideal on an exactly
null-additive table, and is held against it there. Sums over
partitions are associated differently by the enumerations, so those values
are compared with a relative tolerance of 1e-12 (six float64 additions).
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
set-partition enumeration that the disjoint variation and total_variation's
least infinite mask are held against, and so does the sweep over every
union of blocks that the conditional's block-only check is held against.
Then come the per-atom bit loops that decoded and built masks before
``spaces.atoms_of`` and ``mask_of`` did, held against them on spaces of up
to 200 atoms. Then the integral's submask walk is held against the per-mask
loop it replaced, and density_measure against its atom form, bit for bit and
raising where they raise, under every builtin operation and a table
operation whose grid may miss some inputs; so are the level sweep, the Ky
Fan distance and the Choquet integral, which evaluate an additive or
maxitive measure on a few sets, against the same calls on its table. Then
the atom tuples against the arrays they replaced. Last, the envelope
density, the classical density and the submask maximization, which sweep
every set over Python lists, against their numpy bodies, and an additive
measure's negligibility, read off its zero-mass atoms, against its table.
Last of all, the axiom check's one scan per axiom against the flag-and-break
loops and the retry of the continuity scan that it replaced, and a table
operation's absolute continuity, residuals, O map and exactness, read off
its columns' running maxima, against the column scans they replaced, on
grids of up to 60 points. Then the four builtins, each a subclass of
``SemigroupOp``, against the closure-built operations they replaced. And
the possibility space, a ``MaxitiveMeasure`` subclass, against the wrapper
it replaced, ``RefPossibilitySpace``, which the oracles of the conditional
and the law read through its ``measure``.
"""

import json
import math
import operator
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import measure_doc
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxitive.additive import (
    AdditiveMeasure,
    choquet_integral,
    classical_density,
    family_essential_supremum,
    implication_chain,
    is_sigma_finite_measure,
)
from maxitive.density import (
    AbsContReport,
    EnvelopeReport,
    ae_equal,
    density_from_associated,
    envelope_density,
    envelope_measure,
    odot_abs_continuous,
    verify_density,
)
from maxitive.errors import (
    DefiningPropertyFailed,
    ExplicitBudgetExceeded,
    MaxitiveError,
    NegligibilityViolation,
    NoDensity,
    NonExactOperation,
    NotAbsolutelyContinuous,
    NotNullAdditive,
    NotProbability,
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
from maxitive.modelio import encode_value, measure_from_json, measure_to_json
from maxitive.measures import (
    AtomDecomposition,
    FinitenessReport,
    MaxitiveMeasure,
    PropertyReport,
    _require_fuzzy,
    atom_decomposition,
    choquet_alternating,
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
    is_finite_valued,
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
    as_possibility,
    conditional,
    conditional_suite,
    expectation,
    law,
)
from maxitive.sampling import random_non_maxitive, random_subalgebra
from maxitive.semigroup import (
    MAX,
    MIN,
    PLUS,
    TIMES,
    AxiomReport,
    TableOp,
    Times,
    _atan_gap,
    default_grid,
    verify_axioms,
)
from maxitive.spaces import (
    BUDGET_CELLS,
    DEFAULT_TOL,
    INF,
    MeasurableFn,
    MeasurableSet,
    SetFunction,
    as_atoms,
    as_table,
    atom_flags,
    atom_folds,
    atom_table,
    atoms_of,
    build_space,
    close,
    esub,
    first_atom,
    first_flagged,
    fold_atoms,
    le,
    mask_of,
    max_over_submasks,
    per_distinct,
    require_budget,
    union_of,
    vclose,
    vle,
    vsub,
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


def submasks(mask):
    """Yield all submasks of ``mask``, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


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


def ref_least_infinite_mask(w):
    """The least mask whose value is inf, or None, by a loop over every mask."""
    return next((b for b in range(w.space.n_sets) if math.isinf(w.table[b])), None)


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
    if semi != odot and op in (TIMES, MIN, PLUS, MAX):
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
            total += ref_times(float(c.atom_values[i]), float(m.atom_masses[i]))
        if not close(total, nu(b), tol):
            raise NoDensity(f"candidate density fails on mask {b}")
    return c


def zero_masks(table):
    """The masks whose value is 0, ascending."""
    return np.nonzero(table == 0.0)[0]


def ref_negligible(w, bset, _zeros=None):
    """Whether the set lies inside one zero set, by a loop over them. On an
    exactly null-additive table the union of two zero sets is one, so this
    is the ideal the zero sets generate, ``ref_in_zero_ideal``."""
    w = as_table(w)
    mask = bset.mask if isinstance(bset, MeasurableSet) else int(bset)
    zeros = _zeros if _zeros is not None else zero_masks(w.table)
    for g in zeros:
        if (int(g) & mask) == mask:
            return True
    return False


def ref_in_zero_ideal(w, bset):
    """Whether the set lies inside the OR of the zero masks, by a loop over
    them: each of its atoms lies in some zero set."""
    mask = bset.mask if isinstance(bset, MeasurableSet) else int(bset)
    union = 0
    for g in zero_masks(as_table(w).table):
        union |= int(g)
    return (mask & ~union) == 0


def ref_is_null_additive(w, tol=1e-9):
    w = as_table(w)
    table = w.table
    masks = np.arange(w.space.n_sets)
    for n in zero_masks(table):
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
    zeros = zero_masks(w.table)
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
    zeros = zero_masks(tau.table)

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
    zeros = zero_masks(tau.table)
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
    """The bound inf (.) tau(b) of every set b, in mask order, then the least
    mask where nu(b) is not below it in the tolerant order."""
    nu_t = as_table(nu)
    tau_t = as_table(tau)
    if nu_t.space is not tau_t.space and nu_t.space != tau_t.space:
        raise ValueError("measures live on different spaces")
    bounds = [op(INF, float(t)) for t in tau_t.table]
    for b, bound in enumerate(bounds):
        if not le(float(nu_t.table[b]), bound, tol):
            return AbsContReport(holds=False, op=op.name, witness=b)
    return AbsContReport(holds=True, op=op.name)


def ref_density_from_associated(op, mu, c1, c2, tol=1e-9):
    mu_t = as_table(mu)
    zeros = zero_masks(mu_t.table)
    space = mu_t.space
    nu = ref_esssup_measure(mu_t, c1, tol)
    tau = ref_esssup_measure(mu_t, c2, tol)
    bad = 0
    for i in range(space.n_atoms):
        bound = op(INF, float(c2.atom_values[i]))
        if float(c1.atom_values[i]) > bound + tol * max(1.0, abs(bound)):
            bad |= 1 << i
    if bad and not ref_in_zero_ideal(mu_t, bad):
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


class RefPossibilitySpace:
    """A maxitive measure with maximum value one, as the wrapper it was: the
    measure in a slot, with its space, atom values and calls forwarded."""

    __slots__ = ("measure",)

    def __init__(self, measure, tol=DEFAULT_TOL):
        top = max(measure.atom_values, default=0.0)
        if not close(top, 1.0, tol):
            raise NotProbability(f"maximum possibility is {top}, not 1")
        self.measure = measure

    @classmethod
    def from_values(cls, space, values, tol=DEFAULT_TOL):
        return cls(MaxitiveMeasure(space, values), tol)

    @property
    def space(self):
        return self.measure.space

    @property
    def atom_values(self):
        return self.measure.atom_values

    def __call__(self, bset):
        return self.measure(bset)

    def delta(self):
        """The two-valued companion possibility."""
        return RefPossibilitySpace(delta_measure(self.measure))

    def __repr__(self):
        return f"PossibilitySpace({list(self.atom_values)})"


def ref_as_possibility(obj, tol=DEFAULT_TOL):
    if isinstance(obj, RefPossibilitySpace):
        return obj
    return RefPossibilitySpace(obj, tol)


def ref_conditional(op, x, pi, sub, tol=DEFAULT_TOL):
    """The block-measurable function with the same integrals on the algebra.

    Per block: integrate x over the block, then residuate by the block's
    possibility; null blocks carry zero. The operation must be exact, and
    the defining property is re-verified on every set of the sub-algebra
    before the result is returned.
    """
    if not op.exact:
        raise NonExactOperation(f"{op.name} cannot attain its residuals")
    pi = ref_as_possibility(pi, tol)
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


def ref_perturbations(op, y_b, p_b):
    """Candidate replacement values that a true version must be unable to take.

    For min the block integral only sees values up to the block possibility,
    so candidates stay strictly below it; for times any distinct value on a
    non-null block changes the integral.
    """
    if op.name == "min":
        cands = [p_b / 2.0, p_b / 4.0, 3.0 * p_b / 4.0]
    else:
        cands = [2.0 * y_b + 0.1, y_b / 2.0 + 0.05, y_b + 1.0, 1.0, 7.0]
    return [c for c in cands if math.isfinite(c) and not close(c, y_b)]


def ref_conditional_suite(op, x, pi, sub, tol=DEFAULT_TOL):
    """Verify the textbook properties of the conditional on one instance."""
    pi = ref_as_possibility(pi, tol)
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
        for z in ref_perturbations(op, y_b, pb):
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

    # raising the variable, to its lower median of finite values, can only
    # raise the conditional
    finite = sorted(float(v) for v in x.atom_values if math.isfinite(v)) or [1.0]
    shift = finite[(len(finite) - 1) // 2]
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
            return type(out), np.asarray(getattr(out, attr)).tobytes()
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

    b = ref_least_infinite_mask(w)
    if b is not None:
        assert total_variation(w) == (ref_total_variation(w)[0], b) == (INF, b)
        assert is_of_bounded_variation(w) == (False, b)
    else:
        with pytest.raises(ValueError, match="disjoint_variation"):
            total_variation(w)
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
    assert is_of_bounded_variation(w) == is_finite_valued(w)
    b = ref_least_infinite_mask(w)
    if b is None:
        # a finite table, its sum overflowing or not, has no infinite mask
        with pytest.raises(ValueError, match="disjoint_variation"):
            total_variation(w)
        return
    # some partition has an infinite block, so the enumerated sup is inf,
    # and the witness is a block of {b, S \ b}, whose sum is inf
    assert any(math.isinf(w.table[mask_of(block)]) for block in ref_first_infinite_block(w))
    assert total_variation(w) == (ref_total_variation(w)[0], b) == (INF, b)
    assert math.isinf(w.table[b] + w.table[w.space.full_mask & ~b])


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
    # so semi- and op-finiteness can differ, and both flags are returned
    op, grid_vals = case
    nu = MaxitiveMeasure(space_of(len(grid_vals)), grid_vals)
    assert outcome(finiteness_suite, op, nu) == outcome(ref_finiteness_suite, op, nu)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.7e308, INF]) | st.floats(0.0, 1e308), max_size=6))
def test_semi_finiteness_is_op_finiteness_under_every_builtin(vals):
    # finiteness_suite holds no oracle for this: under times O(t) = 0 iff t
    # is finite, under min O = 0, and under plus and max O(t) = t, so both
    # flags say every positive atom, or the largest, is op-finite
    nu = MaxitiveMeasure(space_of(len(vals)), vals)
    for op in (TIMES, MIN, PLUS, MAX):
        rep = finiteness_suite(op, nu)
        assert rep.semi_odot_finite is rep.odot_finite is op.finite_element(max(vals, default=0.0))


@settings(max_examples=60, deadline=None)
@given(st.lists(values, max_size=4))
def test_localizability_matches_family_enumeration(vals):
    # every family of sets, zero and infinite atoms included, has an
    # essential supremum that passes its verification
    m = AdditiveMeasure(space_of(len(vals)), vals)
    assert implication_chain(m).localizable is ref_is_localizable_measure(m) is True


@settings(max_examples=100, deadline=None)
@given(atom_values(), st.data())
def test_envelope_matches_brute_force(vals, data):
    space = space_of(len(vals))
    nu = MaxitiveMeasure(space, vals)
    m = AdditiveMeasure(space, data.draw(st.lists(values, min_size=space.n_atoms,
                                                  max_size=space.n_atoms)))
    # the closed atom sum is the minimum over partitions
    dp = ref_envelope_dp(nu, m)
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
    assert math.isclose(var, ref_total_variation(nu.to_set_function())[0], rel_tol=REL)
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
        masses = [ref_times(float(d), float(v)) for d, v in zip(dens, m.atom_masses)]
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
        got_bytes = np.asarray(got.atom_values).tobytes()
        assert got_bytes == np.asarray(want.atom_values).tobytes()
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
    # reads negligible, and density_from_associated takes them, unchecked or
    # up to the raise that the reference also makes; odot_abs_continuous
    # refuses them and is held against the reference on maxitive pairs. A
    # set is negligible iff it lies in the ideal the zero sets generate; on
    # an exactly null-additive table that is one zero set, the sweep's notion
    space = w.space
    exact = ref_is_null_additive(w, 0.0)[0]
    for b in range(space.n_sets):
        assert negligible(w, b) is ref_in_zero_ideal(w, b)
        if exact:
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
        lambda: ref_esssup_measure(w, f)(bset)
    )
    if exact:
        assert outcome(essential_supremum, w, f, bset) == outcome(
            ref_essential_supremum, w, f, bset
        )
    diff = sum(1 << i for i in range(space.n_atoms) if not close(f(i), g(i)))
    assert ae_equal(w, f, g) is ref_in_zero_ideal(w, diff)
    if exact:
        assert ae_equal(w, f, g) is ref_negligible(w, diff)

    op = data.draw(st.sampled_from([TIMES, MIN, PLUS, MAX]))
    tol = data.draw(st.sampled_from([0.0, 1e-9]))
    for nu in (data.draw(tables(k=space.n_atoms)), w):
        with pytest.raises(TypeError):
            odot_abs_continuous(op, nu, w, tol)
    tau = MaxitiveMeasure(space, f.atom_values)
    # near is within the relative tolerance of tau but not the absolute one
    near = MaxitiveMeasure(space, [v * (1 + 5e-10) for v in f.atom_values])
    for nu in (MaxitiveMeasure(space, g.atom_values), near):
        assert odot_abs_continuous(op, nu, tau, tol) == ref_odot_abs_continuous(
            op, nu, tau, tol
        )
    assert settled(density_from_associated, op, w, f, g) == settled(
        ref_density_from_associated, op, w, f, g
    )


@st.composite
def fuzzy_tables(draw):
    """Maxitive or additive tables, and the same tables with some unions of
    zero sets raised to at most 1e-10: null-additive only within tolerance,
    as a union of two zero sets need not be one."""
    vals = draw(atom_values(k=draw(st.integers(2, 6))))
    space = space_of(len(vals))
    measure = draw(st.sampled_from([MaxitiveMeasure, AdditiveMeasure]))
    table = np.array(measure(space, vals).to_set_function().table)
    zero = union_of(table == 0.0)
    for b in draw(st.lists(st.sampled_from(range(space.n_sets)), max_size=4)):
        if b & ~zero == 0 and bin(b).count("1") > 1:
            table[b] = draw(st.sampled_from([1e-10, 1e-12, 5e-324]))
    return SetFunction(space, table)


@settings(max_examples=100, deadline=None)
@given(fuzzy_tables(), st.data())
def test_essential_supremum_reads_the_measure_it_builds(w, data):
    # one definition of a negligible set: the essential supremum over every
    # set is the value there of esssup_measure, and with f positive the
    # atoms esssup_measure zeroes are the negligible ones
    assert _require_fuzzy(w) is None
    k = w.space.n_atoms
    f = MeasurableFn(w.space, data.draw(st.lists(
        st.floats(0.01, 100.0) | st.just(INF), min_size=k, max_size=k)))
    ess = esssup_measure(w, f)
    dead = mask_of(i for i, v in enumerate(ess.atom_values) if v == 0.0)
    for b in range(w.space.n_sets):
        assert essential_supremum(w, f, MeasurableSet(w.space, b)) == ess(b)
        assert negligible(w, b) is (b & ~dead == 0)


@settings(max_examples=150, deadline=None)
@given(
    # near 1, normedness turns on the tolerance
    st.lists(extreme | st.sampled_from([1.0 + 1e-10, 1.05]), max_size=6),
    st.sampled_from([0.0, 1e-12, 1e-9, 0.1]),
    st.data(),
)
def test_maxitive_verdicts_match_the_table_route(vals, tol, data):
    # classify, alternation, negligibility, the essential supremum and the
    # associated density read a maxitive measure's atoms; on its table they
    # take the table route, the oracle. The absolute continuity refuses the
    # tables and is held against the sweep over every set
    space = space_of(len(vals))
    k = space.n_atoms
    nu = MaxitiveMeasure(space, vals)
    w = nu.to_set_function()
    assert classify(nu, tol) == classify(w, tol)
    for order in range(1, 5):
        if 3 * space.n_sets ** (order + 1) > BUDGET_CELLS:
            break
        got, want = choquet_alternating(nu, order, tol), choquet_alternating(w, order, tol)
        assert got == want
        assert math.copysign(1.0, got.min_signed_value) == math.copysign(1.0, want.min_signed_value)
    for b in range(space.n_sets):
        assert negligible(nu, b) is negligible(w, b)

    def draw_fn():
        return MeasurableFn(space, data.draw(st.lists(extreme, min_size=k, max_size=k)))

    f, g = draw_fn(), draw_fn()
    bset = MeasurableSet(space, data.draw(st.integers(0, space.full_mask)))
    assert settled(essential_supremum, nu, f, bset, tol) == settled(essential_supremum, w, f, bset, tol)
    assert settled(esssup_measure, nu, f, tol) == settled(esssup_measure, w, f, tol)
    assert settled(delta_measure, nu, tol) == settled(delta_measure, w, tol)
    op = data.draw(st.sampled_from([TIMES, MIN, PLUS, MAX]))
    tau = MaxitiveMeasure(space, draw_fn().atom_values)
    for a, b in ((nu, tau), (tau, nu)):
        assert odot_abs_continuous(op, a, b, tol) == ref_odot_abs_continuous(op, a, b, tol)
        with pytest.raises(TypeError):
            odot_abs_continuous(op, a.to_set_function(), b.to_set_function(), tol)
    assert settled(density_from_associated, op, nu, f, g, tol) == settled(
        density_from_associated, op, w, f, g, tol
    )


#: the grid points and cells of the drawn operations of the absolute continuity
ABS_GRID = [0.0, 0.5, 1.0, 2.0, 3.0, INF]


@st.composite
def abs_cont_ops(draw):
    """A table operation on part of ABS_GRID, 0 and inf held or not, whose
    cells may lie off its grid or be -0.0."""
    ends = draw(st.booleans())
    grid = [v for v in ABS_GRID if ends and v in (0.0, INF) or draw(st.booleans())]
    n = len(grid)
    cell = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, INF])
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    return TableOp("drawn", grid, rows)


def near_bounds(op, taus, tol):
    """Each bound inf (.) t, the edges of its tolerance, and the values one
    ulp around them."""
    out = []
    for t in taus:
        try:
            c = op(INF, t)
        except ValueError:
            continue
        for e in (c, c + tol, c * (1 + tol), c / (1 - tol)):
            out += [e, math.nextafter(e, -INF), math.nextafter(e, INF)]
    return [v for v in out if v >= 0.0]


@settings(max_examples=300, deadline=None)
@given(abs_cont_ops(), st.sampled_from([TIMES, MIN, PLUS, MAX]),
       st.sampled_from([0.0, 1e-12, 1e-9, 0.1]), st.integers(1, 8), st.data())
def test_abs_continuity_matches_the_sweep_over_every_set(table_op, builtin, tol, k, data):
    # the atom route against the bound on every set, under a drawn table
    # operation and a builtin: the same report, or the same error and
    # message where inf or a value of tau lies off the table's grid; nu sits
    # at, near and one ulp around the bounds, where the monotone order of
    # spaces.le decides
    labs = [f"g{i}" for i in range(k)]
    space = build_space(labs, [[lab] for lab in labs])
    for op in (table_op, builtin):
        on = st.sampled_from(op.grid if isinstance(op, TableOp) and op.grid else ABS_GRID)
        taus = data.draw(st.lists(on, min_size=k, max_size=k))
        if data.draw(st.booleans()):  # one value of tau on or off the grid
            taus[data.draw(st.integers(0, k - 1))] = data.draw(st.sampled_from(ABS_GRID))
        near = st.sampled_from(ABS_GRID + near_bounds(op, taus, tol))
        nus = data.draw(st.lists(near, min_size=k, max_size=k))
        nu, tau = MaxitiveMeasure(space, nus), MaxitiveMeasure(space, taus)
        assert outcome(odot_abs_continuous, op, nu, tau, tol) == outcome(
            ref_odot_abs_continuous, op, nu, tau, tol
        )


@settings(max_examples=60, deadline=None)
@given(atom_values(finite=True))
def test_essential_witness_matches_brute_force(vals):
    nu = MaxitiveMeasure(space_of(len(vals)), vals)
    assert settled(essential_witness, nu) == settled(ref_essential_witness, nu)


@settings(max_examples=60, deadline=None)
@given(st.lists(values | huge, max_size=6))
def test_finiteness_chain_matches_brute_force(vals):
    # huge masses make sums overflow: an infinite set then holds no infinite atom
    m = AdditiveMeasure(space_of(len(vals)), vals)
    rep = implication_chain(m)
    assert rep.sigma_finite is is_sigma_finite_measure(m) is ref_is_sigma_finite_measure(m)
    assert rep.semi_finite is ref_is_semi_finite_measure(m)
    assert rep.localizable is ref_is_localizable_measure(m)


# ---------------------------------------------------------------------------
# the conditional, checked on its blocks against the sweep over every union
# ---------------------------------------------------------------------------


class SkewedTimes(Times):
    """An "exact" times whose residual overshoots by 1 + eps above a level."""

    name = "skew"

    def __init__(self, eps, above):
        self.eps, self.above = eps, above

    def _residual(self, r, s):
        t = super()._residual(r, s)
        return t * (1.0 + self.eps) if r > self.above else t


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
    return PossibilitySpace(space, poss), x, SubAlgebra(space, blocks.values())


def reported(fn, *args):
    """settled(), with a suite report as its conditional's bytes and its fields."""
    out = settled(fn, *args)
    if isinstance(out, ConditionalSuiteReport):
        fields = {k: v for k, v in vars(out).items() if k != "y"}
        return np.asarray(out.y.atom_values).tobytes(), fields
    return out


def envelope_cleared(out):
    """A suite report's outcome with its envelope refusal taken back."""
    if len(out) != 2 or not isinstance(out[1], dict) or "envelope_block" not in out[1]["details"]:
        return out
    details = {k: v for k, v in out[1]["details"].items() if k != "envelope_block"}
    return out[0], {**out[1], "monotone": True, "details": details}


def rounding_refusal(want, x, pi, sub, tol):
    """Whether the oracle's times envelope refusal is one of float rounding.

    The oracle bounds y_b on a block of possibility p by [min x, max x]
    there; the suite by the conditionals of those values, (m * p) / p. They
    part only where that quotient leaves m: by the two roundings of a normal
    product, at most two ulps, which only tolerance 0 sees; or by far more
    where m * p falls below the normal range, as it does at a subnormal p.
    """
    if len(want) != 2 or not isinstance(want[1], dict) or "envelope_block" not in want[1]["details"]:
        return False
    b = sub.blocks[want[1]["details"]["envelope_block"]]
    idx = MeasurableSet(x.space, b).atom_indices()
    xs = [float(x.atom_values[i]) for i in idx]
    p = float(ref_as_possibility(pi, tol).measure(b))
    y_b = float(np.frombuffer(want[0])[idx[0]])
    m = min(xs) if y_b < min(xs) else max(xs)
    if m * p < sys.float_info.min:
        return True
    lo = hi = m
    for _ in range(2):
        lo, hi = math.nextafter(lo, -INF), math.nextafter(hi, INF)
    return tol == 0.0 and lo <= y_b <= hi


def suite_agrees(op, args, ref_args):
    """The suite equals its oracle, but under times, where it may take back
    an envelope refusal of the oracle's that rounding alone made: at
    tolerance 0 within two ulps of [min x, max x], or where min x * p or
    max x * p underflows."""
    got, want = reported(conditional_suite, *args), reported(ref_conditional_suite, *ref_args)
    if got == want:
        return True
    _, x, pi, sub, tol = ref_args
    return op is TIMES and rounding_refusal(want, x, pi, sub, tol) and got == envelope_cleared(want)


@settings(max_examples=100, deadline=None)
@given(conditionings(), st.data())
def test_conditional_matches_the_sweep_over_every_union(case, data):
    pi, x, sub = case
    op = data.draw(st.sampled_from([TIMES, MIN, None]))
    if op is None:
        eps = data.draw(st.sampled_from([1e-15, 1e-12, 1e-10, 1e-8, 1e-3]))
        op = SkewedTimes(eps, data.draw(st.sampled_from([0.0, 0.5, 2.0])))
    tol = data.draw(st.sampled_from([0.0, 1e-9]))
    args = (op, x, pi, sub, tol)
    assert reported(conditional, *args) == reported(ref_conditional, *args)
    assert suite_agrees(op, args, args)


@pytest.mark.parametrize("pi_b, x_b, tol", [
    # y_b = (0.1 * 0.1) / 0.1 is 0.10000000000000002, one ulp above max x
    (0.1, 0.1, 0.0),
    # 0.5 * 5e-324 underflows to 0, so y_b = 0 lies below min x = 0.5
    (5e-324, 0.5, 1e-9),
])
def test_times_envelope_takes_back_refusals_of_a_rounded_conditional(pi_b, x_b, tol):
    # on block b the conditional of x_b is y_b itself, so the suite's
    # envelope holds where the oracle's [min x, max x] refuses it
    space = space_of(2)
    pi, x = PossibilitySpace(space, [1.0, pi_b]), MeasurableFn(space, [1.0, x_b])
    args = (TIMES, x, pi, SubAlgebra.atoms(space), tol)
    got, want = reported(conditional_suite, *args), reported(ref_conditional_suite, *args)
    assert (want[1]["monotone"], want[1]["details"]["envelope_block"]) == (False, 1)
    assert got[1]["monotone"] and "envelope_block" not in got[1]["details"]
    assert got == envelope_cleared(want) and suite_agrees(TIMES, args, args)
    # a refusal one ulp outside counts as rounding at tolerance 0 alone
    if x_b * pi_b >= sys.float_info.min:
        assert not rounding_refusal(want, x, pi, args[3], 1e-9)


def test_conditional_names_the_lowest_failing_block():
    # the residual overshoots only on block integrals above 0.9: block a
    # (0.5) passes, b+c (1.0) and d (4.0) fail, and the sweep over every
    # union meets b+c first
    space = space_of(4)
    pi = PossibilitySpace(space, [1.0, 0.5, 0.25, 1.0])
    x = MeasurableFn(space, [0.5, 2.0, 3.0, 4.0])
    sub = SubAlgebra(space, [0b0001, 0b0110, 0b1000])
    args = (SkewedTimes(1e-3, 0.9), x, pi, sub, 1e-9)
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


def ref_set_key(space, mask):
    labels = space.atom_labels()
    return "+".join(labels[i] for i in range(space.n_atoms) if mask & (1 << i))


def ref_parse_set(space, text):
    text = text.strip()
    if not text:
        return 0
    labels = [p.strip() for p in text.split("+")]
    mask = 0
    index = {l: i for i, l in enumerate(space.atom_labels())}
    for l in labels:
        if l not in index:
            raise ValueError(f"unknown atom label {l!r}")
        mask |= 1 << index[l]
    return mask


def ref_ae_equal(w, f, g, tol=DEFAULT_TOL):
    w = as_table(w)
    diff = 0
    for i in range(w.space.n_atoms):
        if not close(float(f.atom_values[i]), float(g.atom_values[i]), tol):
            diff |= 1 << i
    return negligible(w, diff)


def ref_law(x, pi, tol=DEFAULT_TOL):
    pi = ref_as_possibility(pi, tol)
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
    return Law(tuple(values), tuple(poss))


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
    indicator = MeasurableFn.indicator(space, bset, one)
    assert np.asarray(indicator.atom_values).tobytes() == (
        np.asarray(ref_indicator(space, bset, one).atom_values).tobytes()
    )
    assert MaxitiveMeasure(space, vals).support_mask() == ref_support_mask(f)

    key = space.set_name(mask)
    assert key == ref_set_key(space, mask)
    assert space.mask_named(key) == ref_parse_set(space, key) == mask
    text = "+".join(data.draw(st.lists(st.sampled_from([*space.ground, "q", " "]))))
    assert outcome(space.mask_named, text) == outcome(ref_parse_set, space, text)

    if k:
        pi = PossibilitySpace(space, [1.0, *np.minimum(g.atom_values[1:], 1.0)])
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


def nameable(label):
    """The label rule of build_space: a set name can carry the label."""
    return (
        isinstance(label, str) and label != "" and label == label.strip()
        and "+" not in label and "|" not in label
    )


# labels from an alphabet with both separators and whitespace, the empty
# string and numbers; distinct, so no label is refused as a duplicate
ground_labels = st.lists(
    st.one_of(st.text(alphabet="ab+| \t", max_size=3), st.integers(-1, 2), st.floats(0.0, 2.0)),
    unique=True,
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(ground_labels, st.data())
def test_set_names_read_back_on_every_space_build_space_accepts(ground, data):
    # atoms of one or two members, as in wide_space; an atom is named by
    # its first member
    blocks = []
    while len(ground) > sum(map(len, blocks)):
        start = sum(map(len, blocks))
        blocks.append(ground[start : start + data.draw(st.integers(1, 2))])
    bad = [lab for lab in ground if not nameable(lab)]
    if bad:
        with pytest.raises(ValueError, match=r"^a label must be a nonempty string") as exc:
            build_space(ground, blocks)
        assert str(exc.value).endswith(f"got {bad[0]!r}")
        return
    space = build_space(ground, blocks)
    assert all(space.mask_named(space.set_name(mask)) == mask for mask in space.masks())

    w = MaxitiveMeasure(space, data.draw(st.lists(values, min_size=space.n_atoms, max_size=space.n_atoms)))
    table = w.to_set_function()
    back = measure_from_json(json.loads(json.dumps(measure_to_json(table))))
    assert type(back) is SetFunction and back.space == space
    assert back.table.tobytes() == table.table.tobytes()

    if space.n_atoms:
        sub = random_subalgebra(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), space)
        text = "|".join(map(space.set_name, sub.blocks))
        assert SubAlgebra.from_string(space, text).blocks == sub.blocks


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
    vals = [
        op(float(f.atom_values[i]), float(nu.atom_values[i]))
        for i in range(nu.space.n_atoms)
    ]
    return MaxitiveMeasure(nu.space, vals)


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
        if measure is not nu:
            with pytest.raises(TypeError, match="needs a MaxitiveMeasure"):
                density_measure(op, f, measure)
    assert settled(density_measure, op, f, nu) == settled(ref_density_measure, op, f, nu)


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
    # the measure on a few sets, and the submask walk tables its atoms in the
    # set; on the measure's table they read the same values, bit for bit,
    # and raise where the table route raises
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
            settled(gerritse_integral, op, f, nu, bset),
        )

    for measure in (AdditiveMeasure(space, draw_values()), MaxitiveMeasure(space, draw_values())):
        assert evaluations(measure) == evaluations(measure.to_set_function())


# ---------------------------------------------------------------------------
# atom vectors as tuples of floats, against the array routes they replaced
# ---------------------------------------------------------------------------


def array_as_values(values):
    """The read-only float array an atom vector was before it became a tuple."""
    arr = np.asarray(values, dtype=float) + 0.0
    arr.setflags(write=False)
    return arr


def array_per_distinct(fn, *arrays):
    """per_distinct on float arrays: the tuples ranked by ``np.unique``, the
    ranks keyed as one int64, ``fn`` called once per distinct tuple in the
    order the tuples first occur, and an array back."""
    key = np.zeros(len(arrays[0]), dtype=np.int64)
    for a in arrays:
        values, rank = np.unique(a, return_inverse=True)
        key = key * len(values) + rank
    _, first, where = np.unique(key, return_index=True, return_inverse=True)
    args = [np.asarray(a)[first].tolist() for a in arrays]
    out = [None] * len(first)
    for j in np.argsort(first):
        out[j] = fn(*(arg[j] for arg in args))
    return np.array(out)[where]


def array_classify(vals, tol):
    """classify's maxitive branch on the atom array."""
    top = float(np.max(vals, initial=0.0))
    wit = {} if close(top, 1.0, tol) else {"normed": top}
    i = first_flagged(np.isinf(vals))
    if i is not None:
        b = mask_of([i])
        wit.update(finite=b, sigma_finite=i, of_bounded_variation=b)
    flags = {name: name not in wit for name, t in PropertyReport._fields.items() if t == "bool"}
    return PropertyReport(atom_values=tuple(vals.tolist()), witnesses=wit, **flags)


def array_odot_abs_continuous(op, nu, tau, tol):
    bound = array_per_distinct(lambda v: op(INF, v), tau)
    i = first_flagged(~vle(nu, bound, tol))
    if i is not None:
        return AbsContReport(holds=False, op=op.name, witness=mask_of([i]))
    return AbsContReport(holds=True, op=op.name)


def array_verify_density(op, f, nu, tau, tol):
    i = first_flagged(~vclose(array_per_distinct(op, f, tau), nu, tol))
    return i is None, None if i is None else mask_of([i])


def array_residuals(op, num, den):
    return array_per_distinct(lambda r, s: 0.0 if r == 0.0 else op.residual(r, s), num, den)


def array_density_from_associated(op, space, null, c1, c2, tol):
    """density_from_associated on a maxitive mu with null atoms ``null``."""
    nu = MaxitiveMeasure(space, np.where(ref_atom_flags(null, space.n_atoms), 0.0, c1))
    tau = MaxitiveMeasure(space, np.where(ref_atom_flags(null, space.n_atoms), 0.0, c2))
    bound = array_per_distinct(lambda v: op(INF, v), c2)
    bad = mask_of(np.flatnonzero(~vle(c1, bound, tol)))
    if bad & ~null:
        raise NegligibilityViolation(
            f"c1 escapes the scalar bound on a non-negligible set, mask {bad}"
        )
    live = np.where(ref_atom_flags(bad | null, space.n_atoms), 0.0, c1)
    c = array_residuals(op, live, c2)
    ok, wit = array_verify_density(
        op, c, array_as_values(nu.atom_values), array_as_values(tau.atom_values), tol
    )
    if not ok:
        raise NoDensity(f"associated-density candidate fails on mask {wit}")
    return MeasurableFn(space, c)


def array_ky_fan_distance(nu, f, g, bset):
    """ky_fan_distance with |f - g| taken on the arrays."""
    d = MeasurableFn(f.space, np.abs(vsub(array_as_values(f.atom_values),
                                          array_as_values(g.atom_values))))
    vs = [0.0] + sorted(set(np.asarray(d.atom_values)[atoms_of(bset.mask)].tolist()))
    if vs[-1] != INF:
        vs = vs + [INF]
    best = INF
    for lo, hi in zip(vs, vs[1:]):
        phi = nu(bset.mask & mask_of(np.flatnonzero(np.asarray(d.atom_values) > lo)))
        cand = lo if phi <= lo else phi if phi < hi else None
        if cand is not None and cand < best:
            best = cand
    return best


def array_law(x, pi, tol):
    pi = ref_as_possibility(pi, tol)
    arr = array_as_values(x.atom_values)
    values = sorted({float(v) for v in arr})
    poss = [pi.measure(mask_of(np.flatnonzero(arr == v))) for v in values]
    if not close(max(poss), 1.0, tol):
        raise OracleMismatch("law does not reach possibility one")
    return Law(tuple(values), tuple(poss))


def tuple_bits(vals):
    assert type(vals) is tuple and all(type(v) is float for v in vals)
    return np.asarray(vals).tobytes()


#: atom values with 0, inf, the largest finite magnitudes and the least subnormal
ATOM_POOL = st.one_of(values, st.sampled_from([0.0, INF, 1e308, 5e-324]))


def atom_doc(kind, k, vals):
    labels = list(LABELS[:k])
    return measure_doc(kind, labels, [encode_value(v) for v in vals])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6), st.sampled_from([0.0, 1e-12, 1e-9, 0.1]),
       st.sampled_from([TIMES, MIN, PLUS, MAX]), st.data())
def test_atom_tuples_match_the_array_routes_they_replaced(k, tol, op, data):
    # documents of every atom kind load as tuples of Python floats, and what
    # the atom routes read off them is, bit for bit, what the array routes
    # read off the same values as a float64 array
    space = space_of(k)

    def draw(kind):
        vals = data.draw(st.lists(ATOM_POOL, min_size=k, max_size=k))
        obj = measure_from_json(atom_doc(kind, k, vals))
        vec = obj.atom_masses if kind == "additive" else obj.atom_values
        assert tuple_bits(vec) == array_as_values(vals).tobytes()
        return obj, array_as_values(vals)

    (nu, nu_a), (tau, tau_a), (m, m_a) = draw("maxitive"), draw("maxitive"), draw("additive")
    (f, f_a), (g, g_a) = draw("function"), draw("function")
    bset = MeasurableSet(space, data.draw(st.integers(0, space.full_mask)))

    # the space layer
    assert nu.support_mask() == mask_of(np.flatnonzero(nu_a > 0))
    for t in [0.0, INF, *f_a.tolist()[:2]]:
        assert f.level_set(t).mask == mask_of(np.flatnonzero(f_a > t))
        assert f.level_set_ge(t).mask == mask_of(np.flatnonzero(f_a >= t))
    for b in (None, bset):
        arr = f_a if b is None else f_a[atoms_of(b.mask)]
        assert list(map(bits, f.distinct_values(b))) == list(map(bits, sorted(set(arr.tolist()))))
    assert bits(nu(bset)) == bits(fold_atoms(nu_a, bset.mask, max, 0.0))
    assert bits(m(bset)) == bits(fold_atoms(m_a, bset.mask, operator.add, 0.0))
    assert tuple_bits(f.pointwise(op, g).atom_values) == array_per_distinct(op, f_a, g_a).tobytes()
    # both routes call once per distinct pair, in the order the pairs first occur
    calls = [], []
    for log, route, args in zip(calls, (per_distinct, array_per_distinct),
                                ((f.atom_values, g.atom_values), (f_a, g_a))):
        route(lambda x, y, log=log: log.append(bits(x) + bits(y)) or op(x, y), *args)
    assert calls[0] == calls[1]
    for a, b in ((f, g), (nu, tau), (f, f)):
        a_a, b_a = array_as_values(a.atom_values), array_as_values(b.atom_values)
        pairs = list(zip(a.atom_values, b.atom_values))
        assert first_atom(not le(x, y, tol) for x, y in pairs) == first_flagged(~vle(a_a, b_a, tol))
        assert first_atom(not close(x, y, tol) for x, y in pairs) == first_flagged(~vclose(a_a, b_a, tol))

    # measures: verdicts, null sets and essential suprema
    assert classify(nu, tol) == array_classify(nu_a, tol)
    assert bits(essential_supremum(nu, f, bset, tol)) == bits(
        float(np.max(f_a[ref_atom_flags(bset.mask & nu.support_mask(), k)], initial=0.0))
    )
    dead = ref_atom_flags(space.full_mask & ~nu.support_mask(), k)
    assert tuple_bits(esssup_measure(nu, f, tol).atom_values) == np.where(dead, 0.0, f_a).tobytes()
    assert tuple_bits(delta_measure(nu, tol).atom_values) == np.where(nu_a > 0, 1.0, 0.0).tobytes()
    assert settled(essential_witness, nu)[0] is (
        AdditiveMeasure if np.isfinite(nu_a).all() else ValueError
    )
    assert is_sigma_finite_measure(m) is implication_chain(m).semi_finite is (not np.isinf(m_a).any())
    assert family_essential_supremum(m, [bset.mask]).mask == bset.mask & mask_of(np.flatnonzero(m_a > 0))

    # densities
    assert odot_abs_continuous(op, nu, tau, tol) == array_odot_abs_continuous(op, nu_a, tau_a, tol)
    target = MaxitiveMeasure(space, perturbed(data.draw, array_per_distinct(op, f_a, tau_a).tolist()))
    assert verify_density(op, f, target, tau, tol) == array_verify_density(
        op, f_a, array_as_values(target.atom_values), tau_a, tol
    )
    assert settled(density_from_associated, op, nu, f, g, tol) == settled(
        array_density_from_associated, op, space, space.full_mask & ~nu.support_mask(), f_a, g_a, tol
    )
    diff = mask_of(np.flatnonzero(~vclose(f_a, g_a, tol)))
    assert ae_equal(nu, f, g, tol) is negligible(nu, diff)
    assert bits(ky_fan_distance(nu, f, g, bset)) == bits(array_ky_fan_distance(nu, f, g, bset))

    # possibility: the law
    if k:
        pi = PossibilitySpace(space, [1.0, *np.minimum(nu_a[1:], 1.0)])
        got, want = outcome(law, f, pi, tol), outcome(array_law, f, pi, tol)
        if isinstance(want, Law):
            assert (tuple_bits(got.values), tuple_bits(got.possibilities)) == (
                tuple_bits(want.values), tuple_bits(want.possibilities))
        else:
            assert got == want


# ---------------------------------------------------------------------------
# the per-set sweeps of the envelope and the crosscheck, in plain Python,
# against the numpy bodies they replaced
# ---------------------------------------------------------------------------


def array_classical_density(nu, m, tol=DEFAULT_TOL):
    """classical_density with its check on numpy tables."""
    space = nu.space
    dens = []
    for i in range(space.n_atoms):
        mi = m.atom_masses[i]
        ni = nu.atom_masses[i]
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
    with np.errstate(over="ignore"):
        got = atom_table(per_distinct(ref_times, c.atom_values, m.atom_masses))
        want = atom_table(np.asarray(nu.atom_masses))
    b = first_flagged(~vclose(got, want, tol))
    if b is not None:
        raise NoDensity(f"candidate density fails on mask {b}")
    return c


def array_envelope_measure(nu, m):
    """envelope_measure on the atom arrays."""
    nu_a, m_a = np.asarray(nu.atom_values), np.asarray(m.atom_masses)
    with np.errstate(invalid="ignore", over="ignore"):
        masses = np.where((nu_a == 0.0) | (m_a == 0.0), 0.0, nu_a * m_a)
    i = first_flagged(np.isinf(masses) & np.isfinite(nu_a) & np.isfinite(m_a))
    if i is not None:
        raise MaxitiveError(f"product nu * m overflows on atom {i}: {nu_a[i]} * {m_a[i]}")
    return AdditiveMeasure(nu.space, masses)


def array_envelope_density(nu, m, tol=DEFAULT_TOL):
    """envelope_density on the atom arrays, with the numpy classical density."""
    nu_a, m_a = np.asarray(nu.atom_values), np.asarray(m.atom_masses)
    i = first_flagged(np.isinf(m_a) & (nu_a > 0))
    if i is not None:
        raise NoDensity(
            f"m has infinite mass on atom {i} where nu is positive, "
            "so the density is not determined there"
        )
    env = array_envelope_measure(nu, m)
    c = array_classical_density(env, m, tol)
    i = first_flagged((m_a > 0) & ~vclose(c.atom_values, nu_a, tol))
    if i is not None:
        raise NoDensity(
            f"envelope density {c.atom_values[i]} differs from "
            f"nu {nu.atom_values[i]} on atom {i}"
        )
    recon = True
    if np.isfinite(m_a).all():
        recon = bool(vclose(nu_a[m_a == 0.0], 0.0, tol).all())
    has_inf = bool(np.isinf(nu_a).any())
    return EnvelopeReport(
        envelope=env, density=c, transformed=has_inf, reconstruction_ok=recon
    )


def array_gerritse_integral(op, f, nu, bset=None):
    """gerritse_integral on numpy tables, once per distinct pair."""
    bset = _fullset(nu, bset)
    idx = np.array(bset.atom_indices(), dtype=np.int64)
    low = atom_table(np.asarray(f.atom_values)[idx], np.minimum, INF)
    if isinstance(nu, MaxitiveMeasure):
        meas = atom_table(np.asarray(nu.atom_values)[idx], np.maximum, 0.0)
    elif isinstance(nu, AdditiveMeasure):
        with np.errstate(over="ignore"):
            meas = atom_table(np.asarray(nu.atom_masses)[idx], np.add, 0.0)
    else:
        meas = as_table(nu).table[atom_table(1 << idx, np.add, 0)]
    cand = array_per_distinct(op, low[:0:-1], meas[:0:-1])
    return float(np.where(cand > 0.0, cand, 0.0).max(initial=0.0))


def envelope_outcome(fn, nu, m, tol):
    """outcome() of an envelope density, its report as the bytes of its vectors."""
    rep = outcome(fn, nu, m, tol)
    if not isinstance(rep, EnvelopeReport):
        return rep
    return (tuple_bits(rep.envelope.atom_masses), tuple_bits(rep.density.atom_values),
            rep.transformed, rep.reconstruction_ok)


#: atom values with 0, inf, sums that overflow and the least subnormal
SWEEP_POOL = st.one_of(values, st.sampled_from(EXTREME))


@settings(max_examples=150, deadline=None)
@given(st.lists(SWEEP_POOL, max_size=8))
def test_atom_folds_are_the_atom_tables_bit_for_bit(vals):
    vals = as_atoms(vals, len(vals), "atom values")
    for combine, ufunc, start in ((operator.add, np.add, 0.0), (max, np.maximum, 0.0),
                                  (min, np.minimum, INF)):
        got = atom_folds(vals, combine, start)
        assert type(got) is list and all(type(x) is float for x in got)
        with np.errstate(over="ignore"):  # a sum that overflows is inf
            want = atom_table(vals, ufunc, start)
        assert np.asarray(got).tobytes() == want.tobytes()


def test_atom_folds_refuse_22_atoms_as_atom_tables_do():
    msgs = []
    for build in (lambda: atom_folds([1.0] * 22, operator.add, 0.0), lambda: atom_table([1.0] * 22)):
        with pytest.raises(ExplicitBudgetExceeded) as exc:
            build()
        msgs.append(str(exc.value))
    assert msgs[0] == msgs[1]
    assert msgs[0].startswith("atom table on 22 atoms needs 92274688 cells")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(SWEEP_POOL, SWEEP_POOL, SWEEP_POOL), max_size=6),
    st.sampled_from([0.0, 1e-12, 1e-9, 0.1]),
    st.data(),
)
def test_envelope_and_classical_density_match_the_numpy_bodies(atoms, tol, data):
    space = space_of(len(atoms))
    nu_vals, m_vals, x_vals = (list(col) for col in zip(*atoms)) if atoms else ([], [], [])
    nu, m = MaxitiveMeasure(space, nu_vals), AdditiveMeasure(space, m_vals)
    assert settled(envelope_measure, nu, m) == settled(array_envelope_measure, nu, m)
    assert envelope_outcome(envelope_density, nu, m, tol) == envelope_outcome(
        array_envelope_density, nu, m, tol
    )
    # the classical density of an additive measure: a density times m, one
    # ulp off or not, or masses of their own
    dens = [ref_times(d, w) for d, w in zip(nu_vals, m_vals)]
    for masses in (perturbed(data.draw, dens), x_vals):
        n = AdditiveMeasure(space, masses)
        assert settled(classical_density, n, m, tol) == settled(array_classical_density, n, m, tol)


def test_the_envelope_refusal_at_tolerance_zero_keeps_its_message():
    # at tolerance 0, (nu_0 m_0) / m_0 misses nu_0 by an ulp
    space = space_of(1)
    nu, m = MaxitiveMeasure(space, [2.4815]), AdditiveMeasure(space, [6.77])
    want = (NoDensity, "envelope density 2.4814999999999996 differs from nu 2.4815 on atom 0")
    assert outcome(envelope_density, nu, m, 0.0) == outcome(array_envelope_density, nu, m, 0.0) == want
    assert envelope_outcome(envelope_density, nu, m, 1e-12) == envelope_outcome(
        array_envelope_density, nu, m, 1e-12
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6), st.one_of(st.sampled_from([TIMES, MIN, PLUS, MAX]), table_ops()), st.data())
def test_gerritse_integral_matches_the_numpy_body(k, op, data):
    # every operation is called on each nonempty submask from bset down, so
    # an operation off its grid raises at the submask where the numpy body,
    # which calls it once per distinct pair, first raises
    space = space_of(k)
    pool = st.one_of(values, st.sampled_from([*EXTREME, *TABLE_GRID]))

    def draw_values():
        return data.draw(st.lists(pool, min_size=k, max_size=k))

    f = MeasurableFn(space, draw_values())
    bset = MeasurableSet(space, data.draw(st.integers(0, space.full_mask)))
    n = space.n_sets - 1
    table = SetFunction(space, [0.0] + data.draw(st.lists(pool, min_size=n, max_size=n)))
    for nu in (MaxitiveMeasure(space, draw_values()), AdditiveMeasure(space, draw_values()), table):
        assert settled(gerritse_integral, op, f, nu, bset) == settled(
            array_gerritse_integral, op, f, nu, bset
        )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, INF, 1e308, 1.7e308, 5e-324]) | values, max_size=6),
    st.sampled_from([0.0, 1e-12, 1e-9, 0.1]),
    st.data(),
)
def test_additive_null_sets_match_the_table_route(masses, tol, data):
    # an additive measure's float table is monotone and null-additive bit
    # for bit, and its zero sets are the sets of zero-mass atoms, so the
    # negligibility routes read its masses; its table takes the table route
    space = space_of(len(masses))
    k = space.n_atoms
    m = AdditiveMeasure(space, masses)
    w = m.to_set_function()
    assert is_monotone(w, 0.0) == (True, None)
    assert is_null_additive(w, 0.0) == (True, None)
    _require_fuzzy(m, tol)
    for b in range(space.n_sets):
        assert negligible(m, b) is negligible(w, b)

    def draw_fn():
        pool = st.one_of(values, st.sampled_from(EXTREME))
        return MeasurableFn(space, data.draw(st.lists(pool, min_size=k, max_size=k)))

    f, g = draw_fn(), draw_fn()
    bset = MeasurableSet(space, data.draw(st.integers(0, space.full_mask)))
    assert settled(essential_supremum, m, f, bset, tol) == settled(essential_supremum, w, f, bset, tol)
    assert settled(esssup_measure, m, f, tol) == settled(esssup_measure, w, f, tol)
    op = data.draw(st.sampled_from([TIMES, MIN, PLUS, MAX]))
    assert settled(density_from_associated, op, m, f, g, tol) == settled(
        density_from_associated, op, w, f, g, tol
    )


# ---------------------------------------------------------------------------
# the axiom check
# ---------------------------------------------------------------------------


def ref_refines_away(f, a, b, jump_tol, rounds=80):
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


def ref_continuity_scan(op, finite_pos, jump_tol, refine):
    first_args = finite_pos + [INF]
    second_args = [0.0] + finite_pos + [INF]
    for t in second_args:
        for a, b in zip(first_args, first_args[1:]):
            if _atan_gap(op(a, t), op(b, t)) > jump_tol:
                if not (refine and ref_refines_away(lambda s: op(s, t), a, b, jump_tol)):
                    return False, {"axis": "left", "segment": (a, b), "at": t}
    for s in finite_pos:
        for a, b in zip(second_args, second_args[1:]):
            if _atan_gap(op(s, a), op(s, b)) > jump_tol:
                if not (refine and ref_refines_away(lambda t: op(s, t), a, b, jump_tol)):
                    return False, {"axis": "right", "segment": (a, b), "at": s}
    return True, None


def ref_sampled_continuity(op, grid, jump_tol=0.2):
    finite_pos = sorted(g for g in grid if 0.0 < g < INF)
    try:
        return ref_continuity_scan(op, finite_pos, jump_tol, refine=True)
    except ValueError:
        # table ops cannot evaluate off-grid; fall back to the grid verdict
        return ref_continuity_scan(op, finite_pos, jump_tol, refine=False)


def ref_verify_axioms(op, grid=None, tol=DEFAULT_TOL, jump_tol=0.2):
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

    continuity, cwit = ref_sampled_continuity(op, grid, jump_tol)
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


def axiom_outcome(fn, op, tol):
    """The report's repr, which shows the sign of a zero, or what was raised."""
    out = outcome(lambda: fn(op, tol=tol))
    return out if isinstance(out, tuple) else repr(out)


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 0.1])
@pytest.mark.parametrize("op", [TIMES, MIN, PLUS, MAX], ids=lambda op: op.name)
def test_axiom_scan_of_a_builtin_matches_the_reference(op, tol):
    assert axiom_outcome(verify_axioms, op, tol) == axiom_outcome(ref_verify_axioms, op, tol)


#: a table operation's grid is drawn from these, 0 and inf included or not;
#: 1.000001 puts a jump a hair right of 1. Grid points below 2.5e-323 or
#: above 1.79e307 are left out: there the old scan's first probe off the
#: grid lands back on 0 or inf, which counted a jump as refined away (see
#: test_semigroup.py's test_a_table_jump_at_a_subnormal_grid_point_is_reported)
AXIOM_GRID = [0.0, 1e-300, 0.5, 1.0, 1.000001, 2.0, 3.0, 1e300, INF]


@st.composite
def axiom_table_ops(draw):
    """A table operation whose cells and identity may lie off its grid."""
    # an operation off 0 or inf raises by the annihilator or continuity scan,
    # so half the grids hold both
    ends = draw(st.just({0.0, INF}) | st.sets(st.sampled_from([0.0, INF])))
    grid = sorted(ends | draw(st.sets(st.sampled_from(AXIOM_GRID), min_size=1)))
    n = len(grid)
    shape = draw(st.sampled_from(["min", "times", "drawn"]))
    if shape == "min":
        rows = [[min(a, b) for b in grid] for a in grid]
    elif shape == "times":
        rows = [[ref_times(a, b) for b in grid] for a in grid]
    else:
        cell = st.sampled_from(grid) | st.sampled_from([-0.0, 0.25, 7.0, *AXIOM_GRID])
        rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.sampled_from([-0.0, 7.0, *grid]))
    identity = draw(st.none() | st.sampled_from(grid) | st.sampled_from([0.25, INF]))
    return TableOp("drawn", grid, rows, left_identity=identity)


@settings(max_examples=400, deadline=None)
@given(axiom_table_ops(), st.sampled_from([0.0, 1e-9, 1e-3, 0.5]))
def test_axiom_scan_of_a_table_matches_the_reference(op, tol):
    # the same report, witnesses and zero signs included, or the same
    # off-grid error raised at the same call
    assert axiom_outcome(verify_axioms, op, tol) == axiom_outcome(ref_verify_axioms, op, tol)


# ---------------------------------------------------------------------------
# a table operation's residuals and exactness, read off its columns' running
# maxima, against the column scans they replaced
# ---------------------------------------------------------------------------


def ref_column(op, v):
    """The grid index of v, or the off-grid error."""
    try:
        return op.grid.index(v)
    except ValueError:
        raise ValueError(f"{v} is off the declared grid of {op.name!r}") from None


def ref_abs_cont(op, r, s):
    """r << s: some cell of column s is >= r."""
    r, s = float(r), float(s)
    col = ref_column(op, s)
    return any(op._values[i][col] >= r for i in range(len(op.grid)))


def ref_residual(op, r, s):
    """The least grid t whose cell in column s is >= r."""
    r, s = float(r), float(s)
    if not ref_abs_cont(op, r, s):
        raise NotAbsolutelyContinuous(
            f"{r} is not absolutely continuous with respect to {s} under {op.name}"
        )
    col = ref_column(op, s)
    return min(op.grid[i] for i in range(len(op.grid)) if op._values[i][col] >= r)


def ref_omap(op, t):
    """The least cell of column t over the rows of a positive grid point."""
    col = ref_column(op, float(t))
    pos = [op._values[i][col] for i in range(len(op.grid)) if op.grid[i] > 0]
    return min(pos) if pos else INF


def ref_check_exact(op):
    """Every grid pair (r, s) with r << s recovers r from its residual."""
    for r in op.grid:
        for s in op.grid:
            if not ref_abs_cont(op, r, s):
                continue
            c = ref_residual(op, r, s)
            if op._values[ref_column(op, c)][ref_column(op, s)] != r:
                return False
    return True


#: 0, inf, the powers of two from 2^-30 to 2^30, so that products of grid
#: points land on the grid, and two points between them
EXACT_POOL = [0.0, INF, 0.75, 3.0, *(2.0 ** e for e in range(-30, 31))]

#: probes and cells off every grid, -0.0 and a subnormal among them
OFF_POOL = [-0.0, 5e-324, 0.3, 7.5, 1e300]


@st.composite
def running_max_ops(draw):
    """A table operation on up to 60 grid points: min, product or random
    cells, up to three of them replaced by -0.0, a grid point or an off-grid
    value."""
    n = draw(st.integers(0, 60))
    grid = sorted(draw(st.lists(st.sampled_from(EXACT_POOL), min_size=n, max_size=n, unique=True)))
    shape = draw(st.sampled_from(["min", "times", "drawn"]))
    if shape == "min":
        rows = [[min(a, b) for b in grid] for a in grid]
    elif shape == "times":
        rows = [[ref_times(a, b) for b in grid] for a in grid]
    else:
        # a seeded stream, since n^2 drawn cells would outgrow hypothesis's buffer
        rnd = draw(st.randoms(use_true_random=False))
        cells = grid + OFF_POOL[:-1]
        rows = [[rnd.choice(cells) for _ in grid] for _ in grid]
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.sampled_from([*OFF_POOL, *grid]))
    return TableOp("drawn", grid, rows)


@settings(max_examples=150, deadline=None)
@given(running_max_ops(), st.data())
def test_running_maxima_match_the_column_scans(op, data):
    # the exactness flag, and at probes on and off the grid the outcome of
    # r << s, r / s and O(t): the same value, zero signs included, or the
    # same error and message
    assert op.exact == ref_check_exact(op)
    probe = st.sampled_from(op.grid or [0.0]) | st.sampled_from(OFF_POOL + EXACT_POOL[:4])
    for _ in range(10):
        r, s = data.draw(probe), data.draw(probe)
        assert settled(op.abs_cont, r, s) == settled(ref_abs_cont, op, r, s)
        assert settled(op.residual_defined, r, s) == settled(ref_abs_cont, op, r, s)
        assert settled(op.residual, r, s) == settled(ref_residual, op, r, s)
        assert settled(op.omap, s) == settled(ref_omap, op, s)


# ---------------------------------------------------------------------------
# the builtins, each a SemigroupOp subclass, against the operations built
# from closures that they replaced
# ---------------------------------------------------------------------------


class RefSemigroupOp:
    """An operation built from a value closure and optional residuation closures."""

    def __init__(self, name, eval_fn, left_identity=None, exact=False, abs_cont=None,
                 residual=None, residual_defined=None, omap=None):
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
        return self._abs_cont(float(r), float(s))

    def residual(self, r, s):
        r, s = float(r), float(s)
        if not self._abs_cont(r, s):
            raise NotAbsolutelyContinuous(
                f"{r} is not absolutely continuous with respect to {s} under {self.name}"
            )
        return self._residual(r, s)

    def residual_defined(self, r, s):
        return self._residual_defined(float(r), float(s))

    def omap(self, t):
        return self._omap(float(t))

    def finite_element(self, t):
        return self.omap(t) == 0.0

    def nondegenerate(self):
        if self.left_identity is None:
            return False
        return self.finite_element(self.left_identity)


def ref_times(s, t):
    # 0 * inf = inf * 0 = 0 by convention
    if s == 0.0 or t == 0.0:
        return 0.0
    return s * t


def ref_times_abs_cont(r, s):
    return r == 0.0 or s != 0.0


def ref_times_residual(r, s):
    if r == 0.0:
        return 0.0
    if math.isinf(s):
        return INF if math.isinf(r) else 0.0
    return r / s


def ref_times_residual_defined(r, s):
    return r == 0.0 or (0.0 < s < INF)


def ref_min_abs_cont(r, s):
    return r <= s


REF_BUILTINS = {
    "times": RefSemigroupOp(
        "times", ref_times, left_identity=1.0, exact=True, abs_cont=ref_times_abs_cont,
        residual=ref_times_residual, residual_defined=ref_times_residual_defined,
        omap=lambda t: INF if math.isinf(t) else 0.0,
    ),
    "min": RefSemigroupOp(
        "min", lambda s, t: s if s <= t else t, left_identity=INF, exact=True,
        abs_cont=ref_min_abs_cont, residual=lambda r, s: r,
        residual_defined=ref_min_abs_cont, omap=lambda t: 0.0,
    ),
    "plus": RefSemigroupOp(
        "plus", lambda s, t: s + t, left_identity=0.0, exact=False,
        abs_cont=lambda r, s: True, residual=lambda r, s: max(0.0, esub(r, s)),
        residual_defined=lambda r, s: True, omap=lambda t: t,
    ),
    "max": RefSemigroupOp(
        "max", lambda s, t: s if s >= t else t, left_identity=0.0, exact=False,
        abs_cont=lambda r, s: True, residual=lambda r, s: 0.0 if r <= s else r,
        residual_defined=lambda r, s: True, omap=lambda t: t,
    ),
}

#: [0, inf] with -0.0, subnormals, the largest finite doubles and inf
BUILTIN_ARGS = st.sampled_from(
    [0.0, -0.0, 5e-324, 2.2e-308, 0.5, 1.0, 3.0, 1.7e308, 1.7976931348623157e308, INF]
) | st.floats(min_value=0.0)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([TIMES, MIN, PLUS, MAX]), BUILTIN_ARGS, BUILTIN_ARGS)
def test_builtins_match_their_closure_built_references(op, r, s):
    # the value's bits, r << s, the residual region, the residual's bits
    # or its error and message, O and op-finiteness at both arguments
    ref = REF_BUILTINS[op.name]
    assert bits(op(r, s)) == bits(ref(r, s))
    assert op.abs_cont(r, s) is ref.abs_cont(r, s)
    assert op.residual_defined(r, s) is ref.residual_defined(r, s)
    assert settled(op.residual, r, s) == settled(ref.residual, r, s)
    for t in (r, s):
        assert bits(op.omap(t)) == bits(ref.omap(t))
        assert op.finite_element(t) is ref.finite_element(t)
    assert op.nondegenerate() is ref.nondegenerate()
    assert (op.left_identity, op.exact) == (ref.left_identity, ref.exact)


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.1])
@pytest.mark.parametrize("op", [TIMES, MIN, PLUS, MAX], ids=lambda op: op.name)
def test_builtin_axiom_reports_match_their_closure_built_references(op, tol):
    ref = REF_BUILTINS[op.name]
    assert axiom_outcome(verify_axioms, op, tol) == axiom_outcome(verify_axioms, ref, tol)


# ---------------------------------------------------------------------------
# the possibility space: a MaxitiveMeasure subclass against the wrapper it
# replaced, RefPossibilitySpace above
# ---------------------------------------------------------------------------

#: maxima at, just off and far from 1
TOPS = [1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-10, 1.0 - 1e-8, 0.95, 0.5, 0.0, INF]


@st.composite
def possibility_cases(draw):
    """Atom values with a top near 1, now and then one that is not a value,
    a variable and a partition of up to five atoms."""
    k = draw(st.integers(0, 5))
    space = space_of(k)
    poss = draw(st.lists(st.sampled_from(TOPS) | st.floats(0.0, 1.0), min_size=k, max_size=k))
    if k:
        poss[draw(st.integers(0, k - 1))] = draw(st.sampled_from(TOPS))
    if k and draw(st.integers(0, 9)) == 0:
        # an atom the atom checks refuse, before the norm is checked
        poss[draw(st.integers(0, k - 1))] = draw(st.sampled_from([-0.5, math.nan]))
    x = MeasurableFn(space, draw(st.lists(values, min_size=k, max_size=k)))
    blocks = {}
    for i, label in enumerate(draw(st.lists(st.integers(0, max(k - 1, 0)), min_size=k, max_size=k))):
        blocks[label] = blocks.get(label, 0) | 1 << i
    return space, poss, x, blocks.values()


def law_bits(out):
    if isinstance(out, Law):
        return tuple_bits(out.values), tuple_bits(out.possibilities)
    return out


@settings(max_examples=300, deadline=None)
@given(possibility_cases(), st.sampled_from([0.0, 1e-12, 1e-9, 0.1]), st.sampled_from([TIMES, MIN]))
def test_possibility_space_matches_the_wrapper(case, tol, op):
    space, poss, x, blocks = case
    pi = outcome(PossibilitySpace, space, poss, tol)
    ref = outcome(RefPossibilitySpace.from_values, space, poss, tol)
    # a plain measure becomes a possibility space as it was wrapped
    got = outcome(lambda: as_possibility(MaxitiveMeasure(space, poss), tol))
    if isinstance(ref, tuple):
        # the atom checks first, then the norm check, with the same message
        assert pi == got == ref
        return
    assert type(got) is PossibilitySpace
    assert tuple_bits(got.atom_values) == tuple_bits(ref.atom_values)
    assert isinstance(pi, MaxitiveMeasure) and repr(pi) == repr(ref)
    assert tuple_bits(pi.atom_values) == tuple_bits(ref.atom_values)
    assert all(bits(pi(b)) == bits(ref(b)) for b in range(space.n_sets))
    assert tuple_bits(pi.delta().atom_values) == tuple_bits(ref.delta().atom_values)
    assert as_possibility(pi, 0.0) is pi
    doc = measure_to_json(ref.measure)
    assert measure_to_json(pi) == {**doc, "kind": "possibility"}

    sub = SubAlgebra(space, blocks)
    args, ref_args = (op, x, pi, sub, tol), (op, x, ref, sub, tol)
    assert reported(conditional, *args) == reported(ref_conditional, *ref_args)
    assert suite_agrees(op, args, ref_args)
    assert law_bits(outcome(law, x, pi, tol)) == law_bits(outcome(ref_law, x, ref, tol))
    assert settled(expectation, op, x, pi, None, tol) == settled(
        lambda: idempotent_integral(op, x, ref.measure, None, tol).value
    )
