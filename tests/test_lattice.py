"""The subset-lattice kernels against the brute-force loops they replaced.

Every routine routed through the whole-table primitives of ``spaces`` is
compared, on random spaces of up to six atoms, with the per-mask Python
loop it replaced (negligibility, the essential supremum, autocontinuity,
essentiality, odot-absolute continuity and the associated density among
them): the same flags and witnesses, the same raised errors,
and bit-identical tables wherever the arithmetic is unchanged. Sums over
partitions are associated differently by the DP, so those values are
compared with a relative tolerance of 1e-12 (six float64 additions).
The sigma-ideal and essential-supremum enumerations live here too, as the
oracles for the sigma-principality and the localizability that a finite
algebra gives every set function and every additive measure.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from maxitive.additive import (
    AdditiveMeasure,
    classical_density,
    family_essential_supremum,
    is_localizable_measure,
)
from maxitive.additive import is_semi_finite_measure, is_sigma_finite_measure
from maxitive.density import (
    AbsContReport,
    _reconstruct,
    ae_equal,
    density_from_associated,
    envelope_measure,
    odot_abs_continuous,
    verify_density,
)
from maxitive.errors import (
    DecompositionVerificationFailed,
    MaxitiveError,
    NegligibilityViolation,
    NoDensity,
    NotAbsolutelyContinuous,
    NotNullAdditive,
    OracleMismatch,
)
from maxitive.integral import atom_integral
from maxitive.measures import (
    AtomDecomposition,
    FinitenessReport,
    MaxitiveMeasure,
    _as_table,
    _require_fuzzy,
    _zero_masks,
    atom_decomposition,
    classify,
    delta_measure,
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
from maxitive.semigroup import MAX, MIN, PLUS, TIMES, _times
from maxitive.spaces import (
    INF,
    MeasurableFn,
    MeasurableSet,
    SetFunction,
    build_space,
    close,
    max_over_submasks,
    partition_dp,
    set_partitions,
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
    for b in range(nu.space.n_sets):
        best = 0.0
        for sub in submasks(b):
            mb = m(sub)
            if 0.0 < mb < INF:
                ratio = env(sub) / mb if not math.isinf(env(sub)) else INF
                if ratio > best:
                    best = ratio
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
    if nu(residual) != 0.0:
        raise DecompositionVerificationFailed("leftover set has positive measure")
    for h in hs:
        if nu(h) <= 0:
            raise DecompositionVerificationFailed("candidate atom is null")
        for b in range(space.n_sets):
            if nu(h.mask & b) != 0.0 and nu(h.mask & ~b) != 0.0:
                raise DecompositionVerificationFailed(
                    f"{h!r} splits into two non-null parts at mask {b}"
                )
    for b in range(space.n_sets):
        best = 0.0
        for h in hs:
            best = max(best, nu(b & h.mask))
        if not close(nu(b), best, tol):
            raise DecompositionVerificationFailed(f"max over atoms misses nu at mask {b}")
    return AtomDecomposition(atoms=hs, values=values, residual_null=residual)


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
    w = _as_table(w)
    mask = bset.mask if isinstance(bset, MeasurableSet) else int(bset)
    zeros = _zeros if _zeros is not None else _zero_masks(w.table)
    for g in zeros:
        if (int(g) & mask) == mask:
            return True
    return False


def ref_is_sigma_finite(w):
    w = _as_table(w)
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
    w = _as_table(w)
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
    w = _as_table(w)
    support = 0
    for i in range(w.space.n_atoms):
        if w.table[1 << i] > 0:
            support |= 1 << i
    for b in range(w.space.n_sets):
        if (float(w.table[b]) > 0) != bool(b & support):
            return False, b
    return True, None


def ref_essential_supremum(tau, f, bset=None, tol=1e-9):
    tau = _as_table(tau)
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
    tau = _as_table(tau)
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
    w = _as_table(w)
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
    dec = atom_decomposition(nu, tol)
    masses = np.zeros(nu.space.n_atoms)
    for h, v in zip(dec.atoms, dec.values):
        masses[h.atom_indices()[0]] = v
    m = AdditiveMeasure(nu.space, masses)
    for b in range(nu.space.n_sets):
        if (m(b) > 0) != (nu(b) > 0):
            raise OracleMismatch(f"null sets differ at mask {b}")
    return m


def ref_odot_abs_continuous(op, nu, tau, tol=1e-9):
    nu_t = _as_table(nu)
    tau_t = _as_table(tau)
    if nu_t.space is not tau_t.space and nu_t.space != tau_t.space:
        raise ValueError("measures live on different spaces")
    for b in range(nu_t.space.n_sets):
        bound = op(INF, float(tau_t.table[b]))
        val = float(nu_t.table[b])
        if val > bound + tol * max(1.0, abs(bound)):
            return AbsContReport(holds=False, op=op.name, witness=b)
    return AbsContReport(holds=True, op=op.name)


def ref_density_from_associated(op, mu, c1, c2, tol=1e-9):
    mu_t = _as_table(mu)
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


def perturbed(draw, vals):
    """vals with at most one finite positive entry moved up by one ulp."""
    vals = list(vals)
    if vals and draw(st.booleans()):
        i = draw(st.integers(0, len(vals) - 1))
        if 0.0 < vals[i] < INF:
            vals[i] = float(np.nextafter(vals[i], INF))
    return vals


class TableMeasure:
    """A set-function table posing as a measure stored by its atom values."""

    def __init__(self, w):
        self.space = w.space
        self.atom_values = np.array([w.table[1 << i] for i in range(w.space.n_atoms)])
        self._w = w

    def __call__(self, bset):
        return self._w(bset)

    def to_set_function(self):
        return self._w


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (MaxitiveError, ValueError) as exc:
        return type(exc), str(exc)


def settled(fn, *args):
    """outcome(), with a returned measure or function as its type and bytes."""
    out = outcome(fn, *args)
    for attr in ("atom_values", "atom_masses"):
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
def test_predicates_match_brute_force(w):
    assert is_maxitive(w) == ref_is_maxitive(w)
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


@settings(max_examples=100, deadline=None)
@given(atom_values())
def test_finiteness_suite_matches_brute_force(vals):
    nu = MaxitiveMeasure(space_of(len(vals)), vals)
    for op in (TIMES, MIN, PLUS, MAX):
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

    env = envelope_measure(nu, m)
    assert _reconstruct(nu, m, env, 1e-9) == ref_reconstruct(nu, m, env, 1e-9)
    # a measure the envelope does not come from
    other = MaxitiveMeasure(space, [v / 2 for v in vals])
    assert _reconstruct(other, m, env, 1e-9) == ref_reconstruct(other, m, env, 1e-9)


@settings(max_examples=100, deadline=None)
@given(atom_values())
def test_atom_decomposition_matches_brute_force(vals):
    nu = MaxitiveMeasure(space_of(len(vals)), vals)
    assert atom_decomposition(nu) == ref_atom_decomposition(nu)


@settings(max_examples=100, deadline=None)
@given(tables())
def test_atom_decomposition_raises_as_brute_force(w):
    nu = TableMeasure(w)
    assert outcome(atom_decomposition, nu) == outcome(ref_atom_decomposition, nu)


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
    for target in (nu, SetFunction(space, table)):
        assert verify_density(op, f, target, tau, tol) == ref_verify_density(
            op, f, target, tau, tol
        )


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
@given(atom_values(finite=True), st.data())
def test_essential_witness_matches_brute_force(vals, data):
    w = data.draw(tables(k=len(vals)))
    for nu in (MaxitiveMeasure(space_of(len(vals)), vals), TableMeasure(w)):
        assert settled(essential_witness, nu) == settled(ref_essential_witness, nu)


@settings(max_examples=60, deadline=None)
@given(st.lists(values, max_size=6))
def test_finiteness_chain_matches_brute_force(vals):
    m = AdditiveMeasure(space_of(len(vals)), vals)
    assert is_sigma_finite_measure(m) is ref_is_sigma_finite_measure(m)
    assert is_semi_finite_measure(m) is ref_is_semi_finite_measure(m)
