"""Finite measurable spaces.

A space is a finite ground set together with a partition into atoms. The
generated sigma-algebra is the set of all unions of atoms, so a measurable
set is a bitmask over atom indices and a measurable function is constant on
atoms. Values live on the extended half-line [0, inf], represented as plain
floats with math.inf; the arithmetic conventions 0*inf = 0 and inf - inf = 0
are applied by the operation evaluators and by :func:`esub`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    EmptyBlock,
    ExplicitBudgetExceeded,
    OverlappingBlocks,
    UncoveredElement,
)

INF = math.inf

#: default comparison tolerance
DEFAULT_TOL = 1e-9

#: largest atom count accepted by exhaustive (all 2^k sets) oracles
MAX_EXHAUSTIVE_ATOMS = 12


def close(a, b, tol=DEFAULT_TOL):
    """Tolerant equality on the extended half-line.

    Exact at equal values (hence at 0 and inf); otherwise absolute for
    values of order one and relative above, so products of moderate grid
    values remain comparable.
    """
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def vclose(a, b, tol=DEFAULT_TOL):
    """Vectorized :func:`close` on numpy arrays. Returns a boolean array."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    eq = a == b
    both_finite = np.isfinite(a) & np.isfinite(b)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    # inf - inf and 0 * inf are nan here; both_finite masks them out
    with np.errstate(invalid="ignore"):
        near = both_finite & (np.abs(a - b) <= tol * scale)
    return eq | near


def esub(a, b):
    """Extended subtraction: same-signed infinities cancel to 0."""
    if math.isinf(a) and math.isinf(b) and a == b:
        return 0.0
    return a - b


def as_value(x):
    """Coerce and validate a scalar in [0, inf]; a signed zero becomes 0.0."""
    v = float(x)
    if math.isnan(v) or v < 0:
        raise ValueError(f"not a value in [0, inf]: {x!r}")
    return 0.0 if v == 0.0 else v


def require_budget(n_atoms, limit=MAX_EXHAUSTIVE_ATOMS, what="exhaustive enumeration"):
    if n_atoms > limit:
        raise ExplicitBudgetExceeded(
            f"{what} needs 2^{n_atoms} sets; budget is {limit} atoms"
        )


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


# ---------------------------------------------------------------------------
# subset-lattice kernels over whole tables indexed by mask
# ---------------------------------------------------------------------------


def atom_table(values, combine=np.add):
    """The table b -> 0.0 combined with the values of the atoms of b.

    Atoms are folded in ascending index order, so ``np.add`` gives every
    left-to-right float sum bit for bit and ``np.maximum`` gives the
    atom-sup table of a maxitive measure.
    """
    k = len(values)
    require_budget(k, what="set-function table")
    table = np.zeros(1 << k)
    for i, v in enumerate(values):
        combine(table[: 1 << i], v, out=table[1 << i : 2 << i])
    return table


def fold_atoms(values, mask, combine, start):
    """``start`` combined with the values of the atoms of one mask.

    The single-mask counterpart of :func:`atom_table`: atoms are folded in
    ascending index order, so ``operator.add`` gives the table's
    left-to-right float sum bit for bit.
    """
    out = start
    i = 0
    while mask:
        if mask & 1:
            out = combine(out, float(values[i]))
        mask >>= 1
        i += 1
    return out


def first_flagged(flags):
    """The least mask whose flag is set, or None when none is."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else None


def union_of(flags):
    """The OR of the masks whose flag is set (0 when none is)."""
    return int(np.bitwise_or.reduce(np.flatnonzero(flags)))


def atom_flags(mask, n_atoms):
    """A boolean array over the atom indices, set at the atoms of ``mask``."""
    return ((mask >> np.arange(n_atoms)) & 1).astype(bool)


def max_over_submasks(table):
    """The table b -> max of ``table`` over the submasks of b (k 2^k work)."""
    out = np.array(table, dtype=float)
    step = 1
    while step < len(out):
        halves = out.reshape(-1, 2, step)
        np.maximum(halves[:, 1], halves[:, 0], out=halves[:, 1])
        step <<= 1
    return out


def submask_pairs(n_atoms):
    """Every pair (b, s) of masks with s a submask of b, as two arrays.

    There are 3^k pairs over k atoms: each atom is outside b, in b only,
    or in both.
    """
    sup = np.zeros(1, dtype=np.int64)
    sub = sup
    for i in range(n_atoms):
        bit = 1 << i
        sup = np.concatenate([sup, sup | bit, sup | bit])
        sub = np.concatenate([sub, sub, sub | bit])
    return sup, sub


def partition_dp(cost, combine):
    """The best block-cost sum over the partitions of every mask.

    ``combine`` is ``np.minimum`` or ``np.maximum``. Entry b combines, over
    the blocks c of b that hold the lowest atom of b, cost[c] plus entry
    b \\ c. Masks are scored a size at a time, so the 3^k / 2 block choices
    take k vectorized steps.
    """
    k = len(cost).bit_length() - 1
    sup, block = submask_pairs(k)
    keep = (block & sup & -sup) != 0
    sup, block = sup[keep], block[keep]
    size = atom_table(np.ones(k))[sup]
    dp = np.array(cost, dtype=float)  # the one-block partitions
    dp[0] = 0.0
    for p in range(2, k + 1):
        at = size == p
        b, c = sup[at], block[at]
        combine.at(dp, b, cost[c] + dp[b ^ c])
    return dp


class Space:
    """A finite ground set with a fixed atom partition.

    Instances are immutable and hashable; two spaces are equal when their
    ground tuples and atom partitions coincide.
    """

    __slots__ = ("ground", "atoms", "_label_index", "_atom_of", "_hash")

    def __init__(self, ground, atoms):
        self.ground = tuple(ground)
        self.atoms = tuple(tuple(a) for a in atoms)
        self._label_index = {lab: i for i, lab in enumerate(self.ground)}
        atom_of = {}
        for ai, members in enumerate(self.atoms):
            for el in members:
                atom_of[el] = ai
        self._atom_of = atom_of
        self._hash = hash((self.ground, self.atoms))

    # -- basic geometry ----------------------------------------------------

    @property
    def n_atoms(self):
        return len(self.atoms)

    @property
    def n_sets(self):
        return 1 << len(self.atoms)

    @property
    def full_mask(self):
        return (1 << len(self.atoms)) - 1

    def atom_labels(self):
        """One representative label per atom: its first member."""
        return tuple(self.ground[a[0]] for a in self.atoms)

    def atom_members(self, i):
        """Ground labels of atom ``i``."""
        return tuple(self.ground[j] for j in self.atoms[i])

    # -- set constructors ---------------------------------------------------

    def empty(self):
        return MeasurableSet(self, 0)

    def full(self):
        return MeasurableSet(self, self.full_mask)

    def atom_block(self, i):
        return MeasurableSet(self, 1 << i)

    def set_of_labels(self, labels):
        """Smallest measurable set containing the given ground labels.

        Raises if a label names only part of an atom it would split.
        """
        mask = 0
        chosen = set()
        for lab in labels:
            if lab not in self._label_index:
                raise ValueError(f"unknown ground element: {lab!r}")
            chosen.add(lab)
            mask |= 1 << self._atom_of[self._label_index[lab]]
        # the request must be a union of atoms, not a fragment of one
        covered = set()
        for i in range(self.n_atoms):
            if mask & (1 << i):
                covered.update(self.atom_members(i))
        if covered != chosen:
            raise ValueError(
                f"labels {sorted(map(str, chosen))} do not form a measurable set; "
                f"atoms force {sorted(map(str, covered))}"
            )
        return MeasurableSet(self, mask)

    def masks(self):
        return range(self.n_sets)

    def sets(self):
        for m in range(self.n_sets):
            yield MeasurableSet(self, m)

    def __eq__(self, other):
        return (
            isinstance(other, Space)
            and self.ground == other.ground
            and self.atoms == other.atoms
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Space({len(self.ground)} elements, {self.n_atoms} atoms)"


def build_space(ground, blocks):
    """Build a :class:`Space` from ground labels and a partition into blocks.

    Raises :class:`EmptyBlock`, :class:`OverlappingBlocks` or
    :class:`UncoveredElement` when ``blocks`` is not a partition of ``ground``.
    """
    ground = list(ground)
    index = {}
    for i, lab in enumerate(ground):
        if lab in index:
            raise OverlappingBlocks(f"duplicate ground element: {lab!r}")
        index[lab] = i
    seen = set()
    atoms = []
    for blk in blocks:
        blk = list(blk)
        if not blk:
            raise EmptyBlock("empty partition block")
        members = []
        for lab in blk:
            if lab not in index:
                raise ValueError(f"block element {lab!r} is not in the ground set")
            if lab in seen:
                raise OverlappingBlocks(f"element {lab!r} appears in two blocks")
            seen.add(lab)
            members.append(index[lab])
        atoms.append(tuple(members))
    missing = [lab for lab in ground if lab not in seen]
    if missing:
        raise UncoveredElement(f"elements not covered by any block: {missing}")
    return Space(ground, atoms)


class MeasurableSet:
    """A union of atoms, stored as a bitmask over atom indices."""

    __slots__ = ("space", "mask")

    def __init__(self, space, mask):
        if not 0 <= mask < space.n_sets:
            raise ValueError(f"mask {mask} out of range for {space!r}")
        self.space = space
        self.mask = int(mask)

    def _check(self, other):
        if self.space != other.space:
            raise ValueError("sets live on different spaces")

    def __or__(self, other):
        self._check(other)
        return MeasurableSet(self.space, self.mask | other.mask)

    def __and__(self, other):
        self._check(other)
        return MeasurableSet(self.space, self.mask & other.mask)

    def __sub__(self, other):
        self._check(other)
        return MeasurableSet(self.space, self.mask & ~other.mask)

    def __invert__(self):
        return MeasurableSet(self.space, self.space.full_mask & ~self.mask)

    def __le__(self, other):
        self._check(other)
        return (self.mask & ~other.mask) == 0

    def __eq__(self, other):
        return (
            isinstance(other, MeasurableSet)
            and self.space == other.space
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.space, self.mask))

    @property
    def is_empty(self):
        return self.mask == 0

    def atom_indices(self):
        return tuple(i for i in range(self.space.n_atoms) if self.mask & (1 << i))

    def labels(self):
        out = []
        for i in self.atom_indices():
            out.extend(self.space.atom_members(i))
        return tuple(out)

    def __len__(self):
        return bin(self.mask).count("1")

    def __repr__(self):
        return f"MeasurableSet({sorted(map(str, self.labels()))})"


class MeasurableFn:
    """An atom-constant function into [0, inf]."""

    __slots__ = ("space", "atom_values")

    def __init__(self, space, atom_values):
        vals = np.asarray([as_value(v) for v in atom_values], dtype=float)
        if len(vals) != space.n_atoms:
            raise ValueError(
                f"expected {space.n_atoms} atom values, got {len(vals)}"
            )
        vals.setflags(write=False)
        self.space = space
        self.atom_values = vals

    @classmethod
    def from_labels(cls, space, label_values):
        """Build from a mapping keyed by each atom's first-member label."""
        vals = []
        for i, lab in enumerate(space.atom_labels()):
            if lab not in label_values:
                raise ValueError(f"missing value for atom {lab!r}")
            vals.append(label_values[lab])
        return cls(space, vals)

    @classmethod
    def constant(cls, space, value):
        return cls(space, [value] * space.n_atoms)

    @classmethod
    def indicator(cls, space, bset, one=1.0):
        """``one`` on the set, 0 off it. Pass an op identity for op-integrals."""
        vals = [one if (bset.mask >> i) & 1 else 0.0 for i in range(space.n_atoms)]
        return cls(space, vals)

    def __call__(self, atom_index):
        return float(self.atom_values[atom_index])

    def level_set(self, t):
        """The strict level set {f > t}."""
        mask = 0
        for i, v in enumerate(self.atom_values):
            if v > t:
                mask |= 1 << i
        return MeasurableSet(self.space, mask)

    def level_set_ge(self, t):
        """The non-strict level set {f >= t}."""
        mask = 0
        for i, v in enumerate(self.atom_values):
            if v >= t:
                mask |= 1 << i
        return MeasurableSet(self.space, mask)

    def distinct_values(self, bset=None):
        """Sorted distinct values taken on ``bset`` (default: everywhere)."""
        if bset is None:
            vals = set(float(v) for v in self.atom_values)
        else:
            vals = set(
                float(self.atom_values[i])
                for i in range(self.space.n_atoms)
                if bset.mask & (1 << i)
            )
        return sorted(vals)

    def min_on(self, mask):
        """Infimum over the atoms of ``mask``; inf on the empty set."""
        return fold_atoms(self.atom_values, mask, min, INF)

    def pointwise(self, fn, other=None):
        """Apply ``fn`` atomwise, optionally zipped with another function."""
        if other is None:
            vals = [fn(float(v)) for v in self.atom_values]
        else:
            if other.space != self.space:
                raise ValueError("functions live on different spaces")
            vals = [
                fn(float(a), float(b))
                for a, b in zip(self.atom_values, other.atom_values)
            ]
        return MeasurableFn(self.space, vals)

    def __repr__(self):
        return f"MeasurableFn({list(map(float, self.atom_values))})"


class SetFunction:
    """An explicit table over every measurable set, vanishing at the empty set."""

    __slots__ = ("space", "table")

    def __init__(self, space, table):
        require_budget(space.n_atoms, what="set-function table")
        arr = np.asarray([as_value(v) for v in table], dtype=float)
        if len(arr) != space.n_sets:
            raise ValueError(f"expected {space.n_sets} table entries, got {len(arr)}")
        if arr[0] != 0.0:
            raise ValueError("a set function must vanish at the empty set")
        arr.setflags(write=False)
        self.space = space
        self.table = arr

    def __call__(self, bset):
        mask = bset.mask if isinstance(bset, MeasurableSet) else int(bset)
        return float(self.table[mask])

    def __repr__(self):
        return f"SetFunction(on {self.space!r})"
