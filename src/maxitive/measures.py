"""Maxitive measures on finite spaces: classification and structure theory.

A maxitive measure is stored by its atom values, a tuple of Python floats;
its value on a set is the max over the atoms inside. That representation
decides its classification, alternation, atom decomposition, disjoint
variation, essential witness and finiteness suite, so these are read off
the atom values in plain Python, build no table, import no numpy and have
no atom cap, and the table routes that restate them are oracles in the
tests. A set is negligible iff each of its atoms lies in a zero set, that
is iff it misses the ``support_mask()`` that every measure kind has, so the
null-set routines read that mask alone. Other set functions are
classified by a battery of named predicates, each returning a witness when
it fails. On a finite algebra four textbook properties (continuity along
decreasing chains, exhaustivity, the countable chain condition,
sigma-principality) hold for every set function, so their predicates
return True with the one-line reason in their docstrings, and bounded
variation is finiteness, witness and all. The other checks read whole 2^k
numpy tables through the k 2^k subset-lattice kernels of ``spaces``; the
witness scans of ``is_monotone``, ``is_maxitive`` and ``is_null_additive``
run only on a table that fails their bit-for-bit test, and the last two
price their scans when they start.
"""

from __future__ import annotations

import math

from .additive import AdditiveMeasure
from .errors import NotMonotone, NotNullAdditive
from .records import Record
from .spaces import (
    DEFAULT_TOL,
    INF,
    MeasurableSet,
    SetFunction,
    as_atoms,
    as_mask,
    as_table,
    atom_flags,
    atom_table,
    atoms_of,
    close,
    first_atom,
    first_flagged,
    fold_atoms,
    le,
    mask_of,
    max_over_submasks,
    np,
    require_budget,
    singletons,
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
        self.atom_values = as_atoms(atom_values, space.n_atoms, "atom values")
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
        return mask_of(i for i, v in enumerate(self.atom_values) if v > 0)

    def power(self, alpha):
        """Atomwise power; inf**a = inf and 0**a = 0 for a > 0."""
        if alpha <= 0:
            raise ValueError("power must be positive")
        vals = [INF if math.isinf(v) else v ** alpha for v in self.atom_values]
        return MaxitiveMeasure(self.space, vals)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.atom_values)})"


def negligible(w, bset):
    """Whether every atom of the set lies in a zero set of ``w``: the
    negligible sets are the ideal the zero sets generate, the sets that miss
    ``w.support_mask()``."""
    return (as_mask(bset) & w.support_mask()) == 0


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
    if np.array_equal(table[masks | (w.space.full_mask & ~w.support_mask())], table):
        return True, None
    zeros, k = np.flatnonzero(table == 0.0), w.space.n_atoms
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
    live = atom_flags(w.support_mask(), w.space.n_atoms)
    ess = atom_table(np.where(live, singletons(table), 0.0), np.maximum)
    b = first_flagged(~vclose(table, ess, tol))
    return b is None, b


def total_variation(w):
    """sup over partitions of the whole space of the block-value sum, on a
    table with an infinite value: inf, witnessed by the least infinite mask
    b, a block of the partition {b, S \\ b}. A finite table raises
    ValueError: the variation of a maxitive measure is its atom sum,
    disjoint_variation.
    """
    ok, b = is_finite_valued(w)
    if ok:
        raise ValueError("total_variation needs an infinite value; use disjoint_variation")
    return INF, b


def is_of_bounded_variation(w):
    """The sup over partitions of the block-value sum is finite.

    Finitely many partitions exist, and every set is a block of one, so the
    sup is finite iff every value is, with the same witness.
    """
    return is_finite_valued(w)


def is_essential(w):
    """Some sigma-additive measure has exactly the same null structure.

    On singletons the candidate support is forced, so only one candidate
    needs checking: a set must be positive iff it holds a positive atom,
    which is where the atom-sup table is positive.
    """
    table = as_table(w).table
    b = first_flagged((table > 0) != (_atom_sup(table) > 0))
    return b is None, b


class PropertyReport(Record):
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
    witnesses: dict = {}

    def flags(self):
        return {
            name: getattr(self, name)
            for name in self._fields
            if name not in ("atom_values", "witnesses")
        }


def classify(w, tol=DEFAULT_TOL):
    """Run every named predicate on a set function and collect the report.

    A maxitive measure's table, the max of nu_i over the atoms of each set,
    passes every bitwise test by construction, so only its top value (the
    max atom) and its infinite sets (those with an infinite atom, the least
    being the singleton of the least such atom i) are read off the atoms.
    """
    if isinstance(w, MaxitiveMeasure):
        vals = w.atom_values
        top = max(vals, default=0.0)
        wit = {} if close(top, 1.0, tol) else {"normed": top}
        i = first_atom(map(math.isinf, vals))
        if i is not None:
            b = mask_of([i])
            wit.update(finite=b, sigma_finite=i, of_bounded_variation=b)
        flags = {name: name not in wit for name, t in PropertyReport._fields.items() if t == "bool"}
        return PropertyReport(atom_values=vals, witnesses=wit, **flags)
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
    atom_values = tuple(singletons(w.table).tolist()) if out["maxitive"] else None
    return PropertyReport(atom_values=atom_values, witnesses=wit, **out)


# ---------------------------------------------------------------------------
# alternation of arbitrary order
# ---------------------------------------------------------------------------


class AlternationReport(Record):
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
    if order < 1:
        raise ValueError("order must be at least 1")
    if isinstance(w, MaxitiveMeasure):
        # a possibility measure is the plausibility of a consonant belief
        # function, alternating of every order (Shafer 1976, ch. 10); the
        # least signed difference is the 0.0 at G1 = empty
        return AlternationReport(ok=True, order=order, witness=None, min_signed_value=0.0)
    w = as_table(w)
    n = w.space.n_sets
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
    """Refuse a w that is not monotone and null-additive.

    A maxitive or additive w is both, exactly, on its float table: a max,
    and a rounded sum of nonnegative terms, does not decrease when a term is
    added, and adding the zero terms of a zero set leaves it unchanged.
    """
    if not isinstance(w, SetFunction):
        return
    ok, wit = is_monotone(w, tol)
    if not ok:
        raise NotMonotone(f"witness masks {wit}")
    ok, wit = is_null_additive(w, tol)
    if not ok:
        raise NotNullAdditive(f"witness masks {wit}")


def essential_supremum(tau, f, bset=None, tol=DEFAULT_TOL):
    """inf of t > 0 such that B & {f > t} is tau-negligible: its value on B
    (the whole space by default) of ``esssup_measure``."""
    return esssup_measure(tau, f, tol)(tau.space.full_mask if bset is None else bset)


def esssup_measure(tau, f, tol=DEFAULT_TOL):
    """The maxitive measure B -> essential supremum of f over B.

    tau must be monotone and null-additive so that negligibility behaves.
    A set is negligible iff it misses the support of tau, so B & {f > t} is
    negligible iff f <= t on the atoms of B in the support: the measure is
    f on the support and 0 off it.
    """
    _require_fuzzy(tau, tol)
    live = atom_flags(tau.support_mask(), tau.space.n_atoms)
    vals = [v if a else 0.0 for a, v in zip(live, f.atom_values)]
    return MaxitiveMeasure(tau.space, vals)


def delta_measure(w, tol=DEFAULT_TOL):
    """The two-valued companion: 1 exactly on the sets of positive value.

    A table must show that its positivity is determined by its atoms, as a
    maxitive measure's is by construction.
    """
    if not isinstance(w, MaxitiveMeasure):
        _require_fuzzy(w, tol)
        ok, b = is_essential(w)
        if not ok:
            raise NotNullAdditive(f"positivity not atom-determined at mask {b}")
        w = MaxitiveMeasure(w.space, singletons(as_table(w).table))
    return MaxitiveMeasure(w.space, [1.0 if v > 0 else 0.0 for v in w.atom_values])


def counting_delta(space):
    """The set-counting companion: 1 on every nonempty set."""
    return MaxitiveMeasure(space, [1.0] * space.n_atoms)


# ---------------------------------------------------------------------------
# atoms, variation, essential witness, finiteness
# ---------------------------------------------------------------------------


class AtomDecomposition(Record):
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
        key=lambda i: (-nu.atom_values[i], i),
    )
    hs = tuple(space.atom_block(i) for i in order)
    values = tuple(nu.atom_values[i] for i in order)
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
    if not all(map(math.isfinite, nu.atom_values)):
        raise ValueError("essential witness needs finite values; transform first")
    return AdditiveMeasure(nu.space, nu.atom_values)


class FinitenessReport(Record):
    odot_finite: bool
    sigma_odot_finite: bool
    semi_odot_finite: bool


def finiteness_suite(op, nu):
    """The three finiteness notions for nu under the operation.

    The values of nu on the subsets of a set b are 0 and the atom values in
    b, so nu is semi-finite iff every positive atom is op-finite, and it is
    checked on the atoms with no table. Under each builtin this is plain
    op-finiteness, finiteness of the max atom, by construction: under
    ``times`` O(t) = 0 iff t is finite; under ``min`` O = 0; under ``plus``
    and ``max`` O(t) = t, so both flags say no atom is positive. A table
    operation need not be so, and its three flags are returned as computed.
    """
    odot = op.finite_element(nu(nu.space.full_mask))
    sigma = all(op.finite_element(v) for v in nu.atom_values)
    # a list, not a generator: every positive atom is evaluated, so a table
    # operation raises on the first one off its grid
    semi = all([op.finite_element(v) for v in nu.atom_values if v > 0])
    return FinitenessReport(
        odot_finite=odot, sigma_odot_finite=sigma, semi_odot_finite=semi
    )
