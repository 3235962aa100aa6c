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
looping over sets in Python. The witness scans of ``is_monotone``,
``is_maxitive`` and ``is_null_additive`` run only on a table that fails
their bit-for-bit test, and the last two price their scans when they start.
The results that the atoms of a maxitive measure determine (the atom
decomposition, the disjoint variation, the essential witness and the
finiteness suite) are read off the atom values: the representation nu(B) =
max of nu_i over the atoms of B makes each of their claims true, so they
build no table and have no atom cap, and the sweeps over every set that
restate them are oracles in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .additive import AdditiveMeasure
from .errors import NotMonotone, NotNullAdditive, OracleMismatch
from .spaces import (
    DEFAULT_TOL,
    INF,
    MeasurableSet,
    SetFunction,
    as_mask,
    as_table,
    as_values,
    atom_flags,
    atom_table,
    atoms_of,
    close,
    first_flagged,
    fold_atoms,
    le,
    mask_of,
    max_over_submasks,
    partition_dp,
    require_budget,
    singletons,
    submasks,
    union_of,
    vclose,
    vle,
    vsub,
)

class MaxitiveMeasure:
    """A measure with nu(B1 | B2) = max(nu(B1), nu(B2)) and nu(empty) = 0."""

    __slots__ = ("space", "atom_values", "_table")

    def __init__(self, space, atom_values):
        self.space = space
        self.atom_values = as_values(atom_values, space.n_atoms, "atom values")
        self._table = None

    def __call__(self, bset):
        return fold_atoms(self.atom_values, as_mask(bset), max, 0.0)

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
        return cls(w.space, singletons(w.table))

    def support_mask(self):
        return mask_of(np.flatnonzero(self.atom_values > 0))

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


def _zero_masks(table):
    return np.nonzero(table == 0.0)[0]


def _null_atoms(table):
    """Bit i is set iff {i} is negligible: the OR of the zero masks."""
    return union_of(table == 0.0)


def negligible(w, bset):
    """Whether the set is contained in some measurable zero set of ``w``."""
    w = as_table(w)
    mask = as_mask(bset)
    return bool(((_zero_masks(w.table) & mask) == mask).any())


# ---------------------------------------------------------------------------
# named predicates; each returns (bool, witness_or_None)
# ---------------------------------------------------------------------------


def is_monotone(w, tol=DEFAULT_TOL):
    """nu(B) <= nu(B | {i}) for every set B and atom i.

    A table equal to its max over submasks bit for bit is monotone, so only
    a table that differs pays for the per-atom tolerant scan that finds the
    witness, or accepts a table that is monotone within tolerance.
    """
    w = as_table(w)
    table = w.table
    if np.array_equal(max_over_submasks(table), table):
        return True, None
    masks = np.arange(w.space.n_sets)
    for i in range(w.space.n_atoms):
        bigger = table[masks | (1 << i)]
        b = first_flagged(~vle(table, bigger, tol))
        if b is not None:
            return False, (b, b | (1 << i))
    return True, None


def is_normed(w, tol=DEFAULT_TOL):
    w = as_table(w)
    top = float(np.max(w.table))
    return (close(top, 1.0, tol), None if close(top, 1.0, tol) else top)


def is_null_additive(w, tol=DEFAULT_TOL):
    """nu(B | N) = nu(B) for every set B and every zero set N.

    Every zero set lies inside their union U, and (B | N) | U = B | U, so a
    table with nu(B | U) = nu(B) bit for bit passes every zero set; only a
    table that differs pays for the per-zero-set scan that finds the witness,
    priced at 2^k cells per zero set.
    """
    w = as_table(w)
    table = w.table
    masks = np.arange(w.space.n_sets)
    if np.array_equal(table[masks | _null_atoms(table)], table):
        return True, None
    zeros, k = _zero_masks(table), w.space.n_atoms
    require_budget(len(zeros) << k, f"scan of {len(zeros)} zero sets on {k} atoms")
    for n in zeros:
        b = first_flagged(~vclose(table[masks | int(n)], table, tol))
        if b is not None:
            return False, (b, int(n))
    return True, None


def is_finite_valued(w):
    b = first_flagged(~np.isfinite(as_table(w).table))
    return b is None, b


def is_sigma_finite(w):
    """Some countable cover by finite-value sets exists."""
    w = as_table(w)
    covered = union_of(np.isfinite(w.table))
    if covered == w.space.full_mask:
        return True, None
    return False, atoms_of(w.space.full_mask & ~covered)[0]


def _atom_sup(table):
    """The maxitive table generated by the singleton values of ``table``."""
    return atom_table(singletons(table), np.maximum)


def is_maxitive(w, tol=DEFAULT_TOL):
    """nu(B1 | B2) = max(nu(B1), nu(B2)) on every pair of sets.

    A table equal to its atom-sup table bit for bit passes every pair, so
    only a table that differs pays for the 4^k scan that finds the witness,
    priced when it starts.
    """
    w = as_table(w)
    table = w.table
    if np.array_equal(table, _atom_sup(table)):
        return True, None
    require_budget(len(table) ** 2, f"pair scan on {w.space.n_atoms} atoms")
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
    table = as_table(w).table
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
    w = as_table(w)
    ok, wit = is_null_additive(w, tol)
    if not ok:
        return False, {"null_additive": wit}
    ok, wit = is_monotone(w, tol)
    if not ok:
        return False, {"monotone": wit}
    table = w.table
    k = w.space.n_atoms
    dead = atom_flags(_null_atoms(table), k)
    ess = atom_table(np.where(dead, 0.0, singletons(table)), np.maximum)
    b = first_flagged(~vclose(table, ess, tol))
    return b is None, b


def _first_infinite_partition(table, n_atoms):
    """The first partition with an infinite block, in enumeration order.

    Partitions are built by placing atoms k - 1 down to 0 in turn: each
    atom joins one of the blocks so far, in block order, or else opens a
    new first block. The order is lexicographic in these choices, the
    highest atom's first. reach[j] flags the sets b for which b plus some
    atoms below j is infinite, so a choice can still be completed iff one
    of its blocks, or the empty set, is flagged there; one greedy choice
    per atom then finds the partition. Priced at k 2^k cells, the k
    superset-OR tables.
    """
    require_budget(n_atoms << n_atoms, f"infinite-block search on {n_atoms} atoms")
    reach = [np.isinf(table)]
    for j in range(n_atoms - 1):
        r = reach[-1].copy()
        halves = r.reshape(-1, 2, 1 << j)
        halves[:, 0] |= halves[:, 1]
        reach.append(r)
    blocks = []
    for j in reversed(range(n_atoms)):
        bit = 1 << j
        choices = [blocks[:i] + [b | bit] + blocks[i + 1 :] for i, b in enumerate(blocks)]
        choices.append([bit] + blocks)
        blocks = next(c for c in choices if reach[j][0] or reach[j][c].any())
    return [atoms_of(b) for b in blocks]


def total_variation(w):
    """sup over partitions of the whole space of the block-value sum.

    Returns the sup and a partition attaining it. On a finite table both
    come from the partition DP, since the optimum can lie away from the
    singletons; a best sum that overflows is inf, witnessed by the DP's
    partition of the table scaled by its largest value. An infinite value
    makes the sup infinite, witnessed by the first partition with an
    infinite block (see _first_infinite_partition).
    """
    w = as_table(w)
    table = w.table
    if np.isinf(table).any():
        return INF, _first_infinite_partition(table, w.space.n_atoms)
    with np.errstate(over="ignore"):
        dp = partition_dp(table, np.maximum)
    total = float(dp[-1])
    if math.isinf(total):
        table = table / table.max()
        dp = partition_dp(table, np.maximum)
    part = []
    rest = w.space.full_mask
    while rest:
        low = rest & -rest
        block = next(
            low | s
            for s in submasks(rest ^ low)
            if table[low | s] + dp[rest ^ low ^ s] == dp[rest]
        )
        part.append(atoms_of(block))
        rest ^= block
    return total, part


def is_of_bounded_variation(w):
    """The sup over partitions of the block-value sum is finite.

    Finitely many partitions exist, and every set is a block of one, so the
    sup is finite iff every value is. An infinite sup is witnessed by the
    partition of total_variation up to 10 atoms, and by the first infinite
    mask above.
    """
    w = as_table(w)
    ok, wit = is_finite_valued(w)
    # 10 atoms is a rule of the witness format, not a budget: check's
    # witnesses keep the form they had when variation was capped there
    if not ok and w.space.n_atoms <= 10:
        wit = total_variation(w)[1]
    return ok, wit


def is_essential(w):
    """Some sigma-additive measure has exactly the same null structure.

    On singletons the candidate support is forced, so only one candidate
    needs checking: a set must be positive iff it holds a positive atom,
    which is where the atom-sup table is positive.
    """
    table = as_table(w).table
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
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("atom_values", "witnesses")
        }


def classify(w, tol=DEFAULT_TOL):
    """Run every named predicate on a set function and collect the report."""
    w = as_table(w)
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
        atom_values = tuple(singletons(w.table).tolist())
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


def choquet_alternating(w, order, tol=DEFAULT_TOL):
    """Check the alternating sign of iterated successive differences.

    For each n <= order and every tuple (G, G1..Gn) of measurable sets the
    signed iterated difference (-1)^(n+1) * D_{G1} ... D_{Gn} w(G) must be
    nonnegative, where D_{G1} f(G) = f(G | G1) - f(G) and equal infinities
    cancel to zero.
    """
    w = as_table(w)
    n = w.space.n_sets
    if order < 1:
        raise ValueError("order must be at least 1")
    # three arrays of the deepest table's n^(order+1) cells are held at once:
    # the gather, the difference and the signed copy
    require_budget(3 * n ** (order + 1), f"alternation of order {order} on {w.space.n_atoms} atoms")
    masks = np.arange(n)
    or_tab = np.bitwise_or.outer(masks, masks)
    cur = w.table.astype(float)
    ok = True
    witness = None
    min_signed = INF
    for depth in range(1, order + 1):
        cur = vsub(cur[or_tab], cur[:, None])
        sign = 1.0 if depth % 2 == 1 else -1.0
        signed = sign * cur
        m = float(np.min(signed))
        if m < min_signed:
            min_signed = m
        if ok and not le(0.0, m, tol):
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
    tau = as_table(tau)
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
    tau = as_table(tau)
    _require_fuzzy(tau, tol)
    dead = atom_flags(_null_atoms(tau.table), tau.space.n_atoms)
    return MaxitiveMeasure(tau.space, np.where(dead, 0.0, f.atom_values))


def delta_measure(w, tol=DEFAULT_TOL):
    """The two-valued companion: 1 exactly on the sets of positive value."""
    if isinstance(w, MaxitiveMeasure):
        vals = [1.0 if v > 0 else 0.0 for v in w.atom_values]
        return MaxitiveMeasure(w.space, vals)
    w = as_table(w)
    _require_fuzzy(w, tol)
    # the two-valued companion must reproduce positivity on every set
    ok, b = is_essential(w)
    if not ok:
        raise NotNullAdditive(f"positivity not atom-determined at mask {b}")
    return MaxitiveMeasure(w.space, np.where(singletons(w.table) > 0, 1.0, 0.0))


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


def atom_decomposition(nu):
    """Pairwise disjoint measure atoms H_n with nu(B) = max_n nu(B & H_n).

    The atoms of the space that nu charges, ordered by decreasing value,
    ties by atom index; the leftover union is null. Since nu(B) is the max
    of nu_i over the atoms i of B, each claim holds by construction: a
    singleton cannot split into two non-null parts, since one part is empty
    and nu(empty) = 0; nu on the leftover is a max of zeros; nu({i}) = nu_i
    > 0 on every kept atom; and the max over the atoms of nu(B & {i}) is
    nu(B) itself. So this is a sort of the atom values, with no table
    and no atom cap; the tests hold it against the sweep over every set.
    """
    space = nu.space
    order = sorted(
        (i for i in range(space.n_atoms) if nu.atom_values[i] > 0),
        key=lambda i: (-float(nu.atom_values[i]), i),
    )
    hs = tuple(space.atom_block(i) for i in order)
    values = tuple(float(nu.atom_values[i]) for i in order)
    residual = MeasurableSet(space, space.full_mask & ~mask_of(order))
    return AtomDecomposition(atoms=hs, values=values, residual_null=residual)


def disjoint_variation(nu):
    """|nu|, the sup over partitions of the block-value sum, as the atom sum.

    The all-singletons partition sums the atom values, and no partition
    sums more: a block's value is one of its atom values, and a float sum
    of nonnegative values, rounded at each step, is at least each of its
    addends. The sum runs in the decomposition's order (decreasing value,
    ties by index) and is inf where it overflows.
    """
    return float(sum(atom_decomposition(nu).values))


def essential_witness(nu):
    """A sigma-additive measure with the same null sets: masses nu_i.

    A set is nu-null iff its atom values are all 0, and a float sum of
    nonnegative values is positive exactly when one of its addends is, so
    the witness has the null sets of nu on every set. Requires finite atom
    values; transform infinite measures (for instance atomwise arctan)
    before asking for a witness.
    """
    if not np.isfinite(nu.atom_values).all():
        raise ValueError("essential witness needs finite values; transform first")
    return AdditiveMeasure(nu.space, nu.atom_values)


@dataclass
class FinitenessReport:
    odot_finite: bool
    sigma_odot_finite: bool
    semi_odot_finite: bool


def finiteness_suite(op, nu):
    """The three finiteness notions for nu under the operation.

    The values of nu on the subsets of a set b are 0 and the atom values in
    b, so nu is semi-finite iff every positive atom is op-finite, and it is
    checked on the atoms with no table. It collapses to plain op-finiteness,
    finiteness of the max atom, when the op-finite elements are 0 and every
    value below an op-finite one, as under each builtin operation. A table
    operation need not be so, and where the two differ OracleMismatch is
    raised.
    """
    odot = op.finite_element(nu(nu.space.full_mask))
    sigma = all(op.finite_element(float(v)) for v in nu.atom_values)
    # a list, not a generator: every positive atom is evaluated, so a table
    # operation raises on the first one off its grid
    semi = all([op.finite_element(float(v)) for v in nu.atom_values if v > 0])
    if semi != odot:
        raise OracleMismatch("semi-finiteness must match op-finiteness here")
    return FinitenessReport(
        odot_finite=odot, sigma_odot_finite=sigma, semi_odot_finite=semi
    )
