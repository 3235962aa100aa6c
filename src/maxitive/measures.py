"""Maxitive measures on finite spaces: classification and structure theory.

A maxitive measure is stored by its atom values; its value on a set is the
max over the atoms inside. General set functions are classified by a battery
of named predicates, each of which returns a witness when it fails. On a
finite algebra four textbook properties (continuity along decreasing chains,
exhaustivity, the countable chain condition, sigma-principality) hold for
every set function, so their predicates return True with the one-line
reason in their docstrings, and bounded variation is plain finiteness. The
other checks, negligibility, the essential supremum, autocontinuity and
essentiality among them, read whole 2^k tables through the subset-lattice
kernels of ``spaces`` (k 2^k transforms, a 3^k partition DP) instead of
looping over sets in Python. Only the witness scan of ``is_maxitive`` still
loops, and only on a table that is not maxitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .additive import AdditiveMeasure
from .errors import (
    DecompositionVerificationFailed,
    ExplicitBudgetExceeded,
    NotMonotone,
    NotNullAdditive,
    OracleMismatch,
)
from .spaces import (
    DEFAULT_TOL,
    INF,
    MeasurableSet,
    SetFunction,
    as_value,
    atom_flags,
    atom_table,
    close,
    first_flagged,
    fold_atoms,
    max_over_submasks,
    partition_dp,
    set_partitions,
    submasks,
    union_of,
    vclose,
)

#: largest atom count whose set partitions total_variation sweeps
VARIATION_ATOMS = 10

#: largest table of iterated differences choquet_alternating builds
MAX_ALTERNATION_CELLS = 1 << 21


class MaxitiveMeasure:
    """A measure with nu(B1 | B2) = max(nu(B1), nu(B2)) and nu(empty) = 0."""

    __slots__ = ("space", "atom_values", "_table")

    def __init__(self, space, atom_values):
        vals = np.asarray([as_value(v) for v in atom_values], dtype=float)
        if len(vals) != space.n_atoms:
            raise ValueError(f"expected {space.n_atoms} atom values, got {len(vals)}")
        vals.setflags(write=False)
        self.space = space
        self.atom_values = vals
        self._table = None

    def __call__(self, bset):
        mask = bset.mask if isinstance(bset, MeasurableSet) else int(bset)
        return fold_atoms(self.atom_values, mask, max, 0.0)

    def to_set_function(self):
        if self._table is None:
            table = atom_table(self.atom_values, np.maximum)
            self._table = SetFunction(self.space, table)
        return self._table

    @classmethod
    def from_set_function(cls, w, tol=DEFAULT_TOL):
        ok, wit = is_maxitive(w, tol)
        if not ok:
            raise ValueError(f"table is not maxitive; witness masks {wit[:2]}")
        vals = [w.table[1 << i] for i in range(w.space.n_atoms)]
        return cls(w.space, vals)

    def support_mask(self):
        mask = 0
        for i, v in enumerate(self.atom_values):
            if v > 0:
                mask |= 1 << i
        return mask

    def power(self, alpha):
        """Atomwise power; inf**a = inf and 0**a = 0 for a > 0."""
        if alpha <= 0:
            raise ValueError("power must be positive")
        vals = [
            INF if math.isinf(v) else float(v) ** alpha for v in self.atom_values
        ]
        return MaxitiveMeasure(self.space, vals)

    def __repr__(self):
        return f"MaxitiveMeasure({list(map(float, self.atom_values))})"


def _as_table(w):
    """Accept a SetFunction or anything with to_set_function()."""
    if isinstance(w, SetFunction):
        return w
    return w.to_set_function()


def _zero_masks(table):
    return np.nonzero(table == 0.0)[0]


def _null_atoms(table):
    """Bit i is set iff {i} is negligible: the OR of the zero masks."""
    return union_of(table == 0.0)


def _block_mask(block):
    m = 0
    for i in block:
        m |= 1 << i
    return m


def negligible(w, bset):
    """Whether the set is contained in some measurable zero set of ``w``."""
    w = _as_table(w)
    mask = bset.mask if isinstance(bset, MeasurableSet) else int(bset)
    return bool(((_zero_masks(w.table) & mask) == mask).any())


# ---------------------------------------------------------------------------
# named predicates; each returns (bool, witness_or_None)
# ---------------------------------------------------------------------------


def is_monotone(w, tol=DEFAULT_TOL):
    w = _as_table(w)
    table = w.table
    masks = np.arange(w.space.n_sets)
    for i in range(w.space.n_atoms):
        bigger = table[masks | (1 << i)]
        slack = tol * np.maximum(1.0, np.maximum(np.abs(table), np.abs(bigger)))
        with np.errstate(invalid="ignore"):
            b = first_flagged(bigger < table - slack)
        if b is not None:
            return False, (b, b | (1 << i))
    return True, None


def is_normed(w, tol=DEFAULT_TOL):
    w = _as_table(w)
    top = float(np.max(w.table))
    return (close(top, 1.0, tol), None if close(top, 1.0, tol) else top)


def is_null_additive(w, tol=DEFAULT_TOL):
    w = _as_table(w)
    table = w.table
    masks = np.arange(w.space.n_sets)
    for n in _zero_masks(table):
        b = first_flagged(~vclose(table[masks | int(n)], table, tol))
        if b is not None:
            return False, (b, int(n))
    return True, None


def is_finite_valued(w):
    b = first_flagged(~np.isfinite(_as_table(w).table))
    return b is None, b


def is_sigma_finite(w):
    """Some countable cover by finite-value sets exists."""
    w = _as_table(w)
    covered = union_of(np.isfinite(w.table))
    if covered == w.space.full_mask:
        return True, None
    missing = next(
        i for i in range(w.space.n_atoms) if not covered & (1 << i)
    )
    return False, missing


def _atom_sup(table):
    """The maxitive table generated by the singleton values of ``table``."""
    k = len(table).bit_length() - 1
    return atom_table(table[1 << np.arange(k)], np.maximum)


def is_maxitive(w, tol=DEFAULT_TOL):
    """nu(B1 | B2) = max(nu(B1), nu(B2)) on every pair of sets.

    A table equal to its atom-sup table bit for bit passes every pair, so
    only a table that differs pays for the 4^k scan that finds the witness.
    """
    w = _as_table(w)
    table = w.table
    if np.array_equal(table, _atom_sup(table)):
        return True, None
    masks = np.arange(w.space.n_sets)
    for b1 in range(w.space.n_sets):
        union = table[b1 | masks]
        expect = np.maximum(table[b1], table)
        b2 = first_flagged(~vclose(union, expect, tol))
        if b2 is not None:
            return False, (b1, b2, float(table[b1 | b2]), float(expect[b2]))
    return True, None


def is_completely_maxitive(w, tol=DEFAULT_TOL):
    """Same as maxitivity on a finite algebra; checked by the atom-sup route."""
    table = _as_table(w).table
    b = first_flagged(~vclose(table, _atom_sup(table), tol))
    return b is None, b


def is_continuous_from_above(w):
    """Continuity along decreasing chains.

    Every decreasing chain of sets in a finite algebra is eventually
    constant, so its limit value is the value at its intersection.
    """
    return True, None


def is_exhaustive(w):
    """nu(B_n) -> 0 along every infinite pairwise-disjoint sequence.

    A disjoint sequence of sets in a finite algebra is eventually empty, and
    every set function vanishes at the empty set.
    """
    return True, None


def is_ccc(w):
    """Every pairwise-disjoint family of non-negligible sets is countable.

    A disjoint family of nonempty sets in a finite algebra has at most k
    members.
    """
    return True, None


def is_sigma_principal(w):
    """Every sigma-ideal has a member L with S \\ L negligible for all members.

    The sigma-ideals of a finite algebra are the principal ones, and the top
    member u of each leaves S \\ u empty, which is negligible because every
    set function vanishes at the empty set.
    """
    return True, None


def is_autocontinuous(w, tol=DEFAULT_TOL):
    """Whether w has a relative density with respect to itself.

    Requires null-additivity and monotonicity (the notions underlying
    negligibility); the canonical candidate density is the atom map
    x -> w(atom of x), whose integral on b is the max of w over the
    non-negligible atoms of b.
    """
    w = _as_table(w)
    ok, wit = is_null_additive(w, tol)
    if not ok:
        return False, {"null_additive": wit}
    ok, wit = is_monotone(w, tol)
    if not ok:
        return False, {"monotone": wit}
    table = w.table
    k = w.space.n_atoms
    dead = atom_flags(_null_atoms(table), k)
    ess = atom_table(np.where(dead, 0.0, table[1 << np.arange(k)]), np.maximum)
    b = first_flagged(~vclose(table, ess, tol))
    return b is None, b


def _enumerated_variation(table, n_atoms):
    """total_variation by brute force over the Bell(k) set partitions.

    Returns the first partition reaching the best left-to-right block sum;
    the scan stops at an infinite sum, which nothing can beat.
    """
    best = 0.0
    best_part = None
    for part in set_partitions(range(n_atoms)) if n_atoms else [[]]:
        total = 0.0
        for block in part:
            total += float(table[_block_mask(block)])
        if total > best or best_part is None:
            best = total
            best_part = part
        if math.isinf(best):
            break
    return best, best_part


def total_variation(w):
    """sup over partitions of the whole space of the block-value sum.

    Returns the sup and a partition attaining it, from the partition DP.
    An infinite sup is witnessed, as by the brute-force enumeration, by the
    first partition in set_partitions order with an infinite sum.
    """
    w = _as_table(w)
    k = w.space.n_atoms
    if k > VARIATION_ATOMS:
        raise ExplicitBudgetExceeded(
            f"partition enumeration needs Bell({k}); budget is {VARIATION_ATOMS} atoms"
        )
    table = w.table
    dp = partition_dp(table, np.maximum)
    if math.isinf(dp[-1]):
        return _enumerated_variation(table, k)
    part = []
    rest = w.space.full_mask
    while rest:
        low = rest & -rest
        block = next(
            low | s
            for s in submasks(rest ^ low)
            if table[low | s] + dp[rest ^ low ^ s] == dp[rest]
        )
        part.append([i for i in range(k) if block >> i & 1])
        rest ^= block
    return float(dp[-1]), part


def is_of_bounded_variation(w):
    """The sup over partitions of the block-value sum is finite.

    Finitely many partitions exist, and every set is a block of one, so the
    sup is finite iff every value is. An infinite sup is witnessed by the
    partition of total_variation within its budget, and by the first
    infinite mask beyond.
    """
    w = _as_table(w)
    ok, wit = is_finite_valued(w)
    if not ok and w.space.n_atoms <= VARIATION_ATOMS:
        wit = total_variation(w)[1]
    return ok, wit


def is_essential(w):
    """Some sigma-additive measure has exactly the same null structure.

    On singletons the candidate support is forced, so only one candidate
    needs checking: a set must be positive iff it holds a positive atom,
    which is where the atom-sup table is positive.
    """
    table = _as_table(w).table
    b = first_flagged((table > 0) != (_atom_sup(table) > 0))
    return b is None, b


@dataclass
class PropertyReport:
    """Classification booleans; every False has a witness under the same key."""

    monotone: bool
    normed: bool
    null_additive: bool
    finite: bool
    sigma_finite: bool
    maxitive: bool
    completely_maxitive: bool
    continuous_from_above: bool
    exhaustive: bool
    ccc: bool
    sigma_principal: bool
    autocontinuous: bool
    of_bounded_variation: bool
    essential: bool
    atom_values: tuple | None = None
    witnesses: dict = field(default_factory=dict)

    def flags(self):
        return {
            k: getattr(self, k)
            for k in (
                "monotone",
                "normed",
                "null_additive",
                "finite",
                "sigma_finite",
                "maxitive",
                "completely_maxitive",
                "continuous_from_above",
                "exhaustive",
                "ccc",
                "sigma_principal",
                "autocontinuous",
                "of_bounded_variation",
                "essential",
            )
        }


def classify(w, tol=DEFAULT_TOL):
    """Run every named predicate on a set function and collect the report."""
    w = _as_table(w)
    wit = {}
    out = {}
    checks = {
        "monotone": lambda: is_monotone(w, tol),
        "normed": lambda: is_normed(w, tol),
        "null_additive": lambda: is_null_additive(w, tol),
        "finite": lambda: is_finite_valued(w),
        "sigma_finite": lambda: is_sigma_finite(w),
        "maxitive": lambda: is_maxitive(w, tol),
        "completely_maxitive": lambda: is_completely_maxitive(w, tol),
        "continuous_from_above": lambda: is_continuous_from_above(w),
        "exhaustive": lambda: is_exhaustive(w),
        "ccc": lambda: is_ccc(w),
        "sigma_principal": lambda: is_sigma_principal(w),
        "autocontinuous": lambda: is_autocontinuous(w, tol),
        "of_bounded_variation": lambda: is_of_bounded_variation(w),
        "essential": lambda: is_essential(w),
    }
    for name, fn in checks.items():
        ok, witness = fn()
        out[name] = bool(ok)
        if witness is not None and not ok:
            wit[name] = witness
    atom_values = None
    if out["maxitive"]:
        atom_values = tuple(float(w.table[1 << i]) for i in range(w.space.n_atoms))
    return PropertyReport(atom_values=atom_values, witnesses=wit, **out)


# ---------------------------------------------------------------------------
# alternation of arbitrary order
# ---------------------------------------------------------------------------


@dataclass
class AlternationReport:
    ok: bool
    order: int
    witness: tuple | None
    min_signed_value: float


def _vsub(a, b):
    """Vectorized extended subtraction: equal-signed infinities cancel."""
    with np.errstate(invalid="ignore"):
        d = a - b
    bad = np.isnan(d)
    if bad.any():
        d = np.where(bad, 0.0, d)
    return d


def choquet_alternating(w, order, tol=DEFAULT_TOL):
    """Check the alternating sign of iterated successive differences.

    For each n <= order and every tuple (G, G1..Gn) of measurable sets the
    signed iterated difference (-1)^(n+1) * D_{G1} ... D_{Gn} w(G) must be
    nonnegative, where D_{G1} f(G) = f(G | G1) - f(G) and equal infinities
    cancel to zero.
    """
    w = _as_table(w)
    n = w.space.n_sets
    if order < 1:
        raise ValueError("order must be at least 1")
    cells = n ** (order + 1)
    if cells > MAX_ALTERNATION_CELLS:
        raise ExplicitBudgetExceeded(
            f"alternation of order {order} on {w.space.n_atoms} atoms needs "
            f"{cells} cells; budget is {MAX_ALTERNATION_CELLS}"
        )
    masks = np.arange(n)
    or_tab = np.bitwise_or.outer(masks, masks)
    cur = w.table.astype(float)
    ok = True
    witness = None
    min_signed = INF
    for depth in range(1, order + 1):
        cur = _vsub(cur[or_tab], cur[:, None])
        sign = 1.0 if depth % 2 == 1 else -1.0
        signed = sign * cur
        m = float(np.min(signed))
        if m < min_signed:
            min_signed = m
        if ok and m < -tol:
            flat = int(np.argmin(signed))
            idx = np.unravel_index(flat, signed.shape)
            witness = tuple(int(i) for i in idx)
            ok = False
    return AlternationReport(ok=ok, order=order, witness=witness, min_signed_value=min_signed)


# ---------------------------------------------------------------------------
# essential supremum and the two-valued measure
# ---------------------------------------------------------------------------


def _require_fuzzy(w, tol=DEFAULT_TOL):
    ok, wit = is_monotone(w, tol)
    if not ok:
        raise NotMonotone(f"witness masks {wit}")
    ok, wit = is_null_additive(w, tol)
    if not ok:
        raise NotNullAdditive(f"witness masks {wit}")


def essential_supremum(tau, f, bset=None, tol=DEFAULT_TOL):
    """inf of t > 0 such that B & {f > t} is tau-negligible.

    tau must be monotone and null-additive so that negligibility behaves.
    Swept over the distinct values of f and cross-checked against the max of
    f over the non-negligible atoms of B.
    """
    tau = _as_table(tau)
    _require_fuzzy(tau, tol)
    if bset is None:
        bset = tau.space.full()
    candidates = [0.0] + f.distinct_values(bset)
    result = None
    for t in candidates:
        if negligible(tau, bset.mask & f.level_set(t).mask):
            result = t
            break
    if result is None:
        result = INF

    # independent route: max of f over non-negligible atoms inside B
    live = atom_flags(bset.mask & ~_null_atoms(tau.table), tau.space.n_atoms)
    oracle = float(np.max(f.atom_values[live], initial=0.0))
    if not close(result, oracle, tol):
        raise OracleMismatch(
            f"essential supremum sweep {result} vs atom oracle {oracle}"
        )
    return result


def esssup_measure(tau, f, tol=DEFAULT_TOL):
    """The maxitive measure B -> essential supremum of f over B."""
    tau = _as_table(tau)
    _require_fuzzy(tau, tol)
    dead = atom_flags(_null_atoms(tau.table), tau.space.n_atoms)
    return MaxitiveMeasure(tau.space, np.where(dead, 0.0, f.atom_values))


def delta_measure(w, tol=DEFAULT_TOL):
    """The two-valued companion: 1 exactly on the sets of positive value."""
    if isinstance(w, MaxitiveMeasure):
        vals = [1.0 if v > 0 else 0.0 for v in w.atom_values]
        return MaxitiveMeasure(w.space, vals)
    w = _as_table(w)
    _require_fuzzy(w, tol)
    # the two-valued companion must reproduce positivity on every set
    ok, b = is_essential(w)
    if not ok:
        raise NotNullAdditive(f"positivity not atom-determined at mask {b}")
    vals = [1.0 if w.table[1 << i] > 0 else 0.0 for i in range(w.space.n_atoms)]
    return MaxitiveMeasure(w.space, vals)


def counting_delta(space):
    """The set-counting companion: 1 on every nonempty set."""
    return MaxitiveMeasure(space, [1.0] * space.n_atoms)


# ---------------------------------------------------------------------------
# atoms, variation, essential witness, finiteness
# ---------------------------------------------------------------------------


@dataclass
class AtomDecomposition:
    atoms: tuple
    values: tuple
    residual_null: MeasurableSet


def atom_decomposition(nu, tol=DEFAULT_TOL):
    """Pairwise disjoint measure atoms H_n with nu(B) = max_n nu(B & H_n).

    Ordered by decreasing value, ties by atom index; the leftover union is
    null. Every claim is verified exhaustively before returning.
    """
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

    table = nu.to_set_function().table
    masks = np.arange(space.n_sets)
    if table[null_mask] != 0.0:
        raise DecompositionVerificationFailed("leftover set has positive measure")
    best = np.zeros(space.n_sets)
    for h in hs:
        if table[h.mask] <= 0:
            raise DecompositionVerificationFailed("candidate atom is null")
        inside = table[masks & h.mask]
        b = first_flagged((inside != 0.0) & (table[h.mask & ~masks] != 0.0))
        if b is not None:
            raise DecompositionVerificationFailed(
                f"{h!r} splits into two non-null parts at mask {b}"
            )
        np.maximum(best, inside, out=best)
    b = first_flagged(~vclose(table, best, tol))
    if b is not None:
        raise DecompositionVerificationFailed(f"max over atoms misses nu at mask {b}")
    return AtomDecomposition(atoms=hs, values=values, residual_null=residual)


def disjoint_variation(nu, tol=DEFAULT_TOL):
    """|nu| as a sup over partitions, cross-checked against the atom sum."""
    w = nu.to_set_function()
    brute, part = total_variation(w)
    dec = atom_decomposition(nu, tol)
    closed = float(sum(dec.values)) if dec.values else 0.0
    # both sides as exactly rounded sums, so tol = 0 compares the values
    # and not the order in which they were added
    blocks = math.fsum(w.table[_block_mask(block)] for block in part)
    if not close(blocks, math.fsum(dec.values), tol):
        raise OracleMismatch(f"partition sup {brute} vs atom sum {closed}")
    return closed


def essential_witness(nu, tol=DEFAULT_TOL):
    """A sigma-additive measure with the same null sets, from the atom masses.

    Requires finite atom values; transform infinite measures (for instance
    atomwise arctan) before asking for a witness.
    """
    if not np.isfinite(nu.atom_values).all():
        raise ValueError("essential witness needs finite values; transform first")
    dec = atom_decomposition(nu, tol)
    masses = np.zeros(nu.space.n_atoms)
    for h, v in zip(dec.atoms, dec.values):
        masses[h.atom_indices()[0]] = v
    b = first_flagged((atom_table(masses) > 0) != (nu.to_set_function().table > 0))
    if b is not None:
        raise OracleMismatch(f"null sets differ at mask {b}")
    return AdditiveMeasure(nu.space, masses)


@dataclass
class FinitenessReport:
    odot_finite: bool
    sigma_odot_finite: bool
    semi_odot_finite: bool


def finiteness_suite(op, nu):
    """The three finiteness notions for nu under the operation.

    On a finite algebra the max is attained, so semi-finiteness collapses to
    plain op-finiteness; the sweep computes both independently and insists
    they agree.
    """
    space = nu.space
    odot = op.finite_element(nu(space.full_mask))
    sigma = all(op.finite_element(float(v)) for v in nu.atom_values)
    table = nu.to_set_function().table
    values, where = np.unique(table, return_inverse=True)
    finite = np.array([op.finite_element(float(v)) for v in values])[where]
    semi = bool(np.array_equal(max_over_submasks(np.where(finite, table, 0.0)), table))
    if semi != odot:
        raise OracleMismatch("semi-finiteness must match op-finiteness here")
    return FinitenessReport(
        odot_finite=odot, sigma_odot_finite=sigma, semi_odot_finite=semi
    )
