"""Finite measurable spaces.

A space is a finite ground set together with a partition into atoms. The
generated sigma-algebra is the set of all unions of atoms, so a measurable
set is a bitmask over atom indices (a Python int, so any atom count fits) and
a measurable function is constant on atoms. Masks are decoded into atom
indices only through :func:`atoms_of` and built from them only through
:func:`mask_of`; both cost a step per atom in the set. Values live on the
extended half-line [0, inf], represented as plain floats with math.inf.

A set's name is the labels of its atoms joined with "+" in atom order, an
atom's label being its first ground element; :meth:`Space.set_name` writes
it and :meth:`Space.mask_named` reads it, and nothing else in the package
does either. :func:`build_space` refuses a label that a name could not
carry, so every set's name reads back as the set.

The atom vector of a function or a measure (``MeasurableFn.atom_values``,
``MaxitiveMeasure.atom_values``, ``AdditiveMeasure.atom_masses``) is a tuple
of Python floats, checked by :func:`as_atoms`, and the routines on atoms
loop over it; a sweep that checks an atom measure on every set reads the
list of its folds from :func:`atom_folds`, also in plain Python. A table
over every set is a read-only numpy array, checked by
:func:`as_values`, and the subset-lattice kernels below work on whole
tables. Every module reads numpy through :data:`np`, which imports it on
first use, so a command that builds no table, sample or random stream never
imports numpy.

Each convention on values has one home:

- tolerant equality is :func:`close` (and :func:`vclose` on arrays): exact
  at equal values, so at 0 and inf, and otherwise within
  ``tol * max(1, |a|, |b|)``;
- the tolerant order is :func:`le` (and :func:`vle`): a <= b, or a and b
  are close; a drop from inf is never within tolerance;
- inf - inf = 0 is :func:`esub` (and :func:`vsub`);
- 0 * inf = 0 is applied by the operation evaluators of ``semigroup``;
- a set is negligible iff it misses the measure's ``support_mask()``, the
  atoms in no zero set; :meth:`SetFunction.support_mask` reads a table's
  off the OR of its zero masks, as a maxitive or additive measure reads
  its own off its positive atoms;
- the work budget of every exponential routine is :data:`BUDGET_CELLS`,
  against which :func:`require_budget` refuses a priced cost; each routine
  prices the work it runs when it starts, and a whole table what it holds.
"""

from __future__ import annotations

import math

from .errors import (
    EmptyBlock,
    ExplicitBudgetExceeded,
    OverlappingBlocks,
    UncoveredElement,
)

INF = math.inf


class _Numpy:
    """numpy, imported when the first of its names is read.

    Every module of the package reads numpy through the one instance
    :data:`np`, so a command that builds no table, sample or random stream
    never imports it. A name, once read, is kept on the instance, and later
    reads are plain attribute lookups.
    """

    def __getattr__(self, name):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()

#: default comparison tolerance
DEFAULT_TOL = 1e-9

#: the one work budget of every exponential routine, in cells: a cell is one
#: 8-byte element held at one time, or one element-step of a scan
BUDGET_CELLS = 50_000_000


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


def le(a, b, tol=DEFAULT_TOL):
    """Tolerant order: a <= b, or :func:`close`; inf stays above every finite value."""
    return a <= b or close(a, b, tol)


def vle(a, b, tol=DEFAULT_TOL):
    """Vectorized :func:`le` on numpy arrays. Returns a boolean array."""
    return (np.asarray(a) <= np.asarray(b)) | vclose(a, b, tol)


def esub(a, b):
    """Extended subtraction: same-signed infinities cancel to 0."""
    if math.isinf(a) and math.isinf(b) and a == b:
        return 0.0
    return a - b


def vsub(a, b):
    """Vectorized :func:`esub` on NaN-free arrays: equal infinities cancel,
    and a difference that overflows is an infinity of its sign."""
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.subtract(a, b)
    bad = np.isnan(d)
    if bad.any():
        d = np.where(bad, 0.0, d)
    return d


def as_value(x):
    """Coerce and validate a scalar in [0, inf]; a signed zero becomes 0.0."""
    v = float(x)
    if math.isnan(v) or v < 0:
        raise ValueError(f"not a value in [0, inf]: {x!r}")
    return 0.0 if v == 0.0 else v


def as_atoms(values, length, what):
    """A tuple of ``length`` Python floats in [0, inf], in one Python pass.

    The first NaN or negative entry raises as :func:`as_value` raises on it,
    before the length is checked; a signed zero becomes 0.0. ``what`` names
    the entries in the length error. The atom vectors of measures and
    functions are these tuples.
    """
    out = []
    for x in values:
        v = float(x)
        if not v >= 0.0:
            as_value(x)  # raises on a NaN or negative entry
        out.append(v + 0.0)  # -0.0 + 0.0 is +0.0
    if len(out) != length:
        raise ValueError(f"expected {length} {what}, got {len(out)}")
    return tuple(out)


def as_values(values, length, what):
    """A new read-only float array of ``length`` values in [0, inf].

    One numpy pass. The first NaN or negative entry raises as :func:`as_value`
    raises on it, before the length is checked; a signed zero becomes 0.0.
    ``what`` names the entries in the length error.
    """
    arr = np.asarray(values, dtype=float) + 0.0  # a new array; -0.0 + 0.0 is +0.0
    bad = first_flagged(~(arr >= 0.0))
    if bad is not None:
        as_value(values[bad])  # raises on the first NaN or negative entry
    if len(arr) != length:
        raise ValueError(f"expected {length} {what}, got {len(arr)}")
    arr.setflags(write=False)
    return arr


def require_budget(cells, what):
    """Refuse ``what`` above BUDGET_CELLS; each exponential entry point
    prices itself with this before it allocates or draws anything."""
    if cells > BUDGET_CELLS:
        raise ExplicitBudgetExceeded(f"{what} needs {cells} cells; budget is {BUDGET_CELLS}")


def require_table(n_atoms):
    """Price a table that arrives whole at k 2^k cells, as :func:`atom_table`
    prices one: the table and one subset transform of it."""
    require_budget(n_atoms << n_atoms, f"set-function table on {n_atoms} atoms")


def as_table(w):
    """A SetFunction as it is, or anything else through its to_set_function()."""
    if isinstance(w, SetFunction):
        return w
    return w.to_set_function()


def as_mask(bset):
    """The mask of a MeasurableSet, or an int-like mask as an int."""
    return bset.mask if isinstance(bset, MeasurableSet) else int(bset)


def atoms_of(mask):
    """The atom indices of a mask, ascending; one step per atom in it."""
    mask = int(mask)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(indices):
    """The mask of the given atom indices, as a Python int of any width."""
    mask = 0
    for i in indices:
        mask |= 1 << int(i)
    return mask


# ---------------------------------------------------------------------------
# subset-lattice kernels over whole tables indexed by mask
# ---------------------------------------------------------------------------


def atom_table(values, combine=None, start=0.0):
    """The table b -> ``start`` combined with the values of the atoms of b.

    Atoms are folded in ascending index order, so ``np.add`` (the default)
    gives every left-to-right float sum bit for bit, ``np.maximum`` gives
    the atom-sup table of a maxitive measure, and ``np.minimum`` from
    ``INF`` gives the minimum on each set. The table takes the dtype of ``start``. It is
    priced at k 2^k cells, the table and one subset transform of it.
    """
    k = len(values)
    require_budget(k << k, f"atom table on {k} atoms")
    if combine is None:
        combine = np.add
    table = np.full(1 << k, start)
    for i, v in enumerate(values):
        combine(table[: 1 << i], v, out=table[1 << i : 2 << i])
    return table


def singletons(table):
    """The values of a table on the k singletons, in atom order."""
    k = len(table).bit_length() - 1
    return table[1 << np.arange(k)]


def fold_atoms(values, mask, combine, start):
    """``start`` combined with the values of the atoms of one mask.

    The single-mask counterpart of :func:`atom_table`: atoms are folded in
    ascending index order, so ``operator.add`` gives the table's
    left-to-right float sum bit for bit.
    """
    out = start
    for i in atoms_of(mask):
        out = combine(out, float(values[i]))
    return out


def atom_folds(values, combine, start):
    """:func:`fold_atoms` on every mask at once, as a list indexed by mask.

    The list counterpart of :func:`atom_table`, in its order: the folds of
    the masks below 2^i, each combined with atom i, give the masks from 2^i
    up, so ``operator.add`` gives its sums bit for bit (inf where they
    overflow), ``max`` from 0.0 its maxima and ``min`` from ``INF`` its
    minima. Priced as :func:`atom_table`, at k 2^k cells.
    """
    k = len(values)
    require_budget(k << k, f"atom table on {k} atoms")
    table = [start]
    for v in values:
        table += [combine(x, v) for x in table]
    return table


def per_distinct(fn, *vectors):
    """``fn`` applied elementwise to equal-length atom vectors, once per
    distinct tuple, as a tuple.

    The calls go in the order their tuples first occur, so ``fn`` raises
    where a loop over the elements would first raise.
    """
    memo = {}
    for key in zip(*vectors):
        if key not in memo:
            memo[key] = fn(*key)
    return tuple(memo[key] for key in zip(*vectors))


def first_flagged(flags):
    """The least mask whose flag is set, or None when none is."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else None


def first_atom(flags):
    """The least index whose flag is set, or None: the loop form of
    :func:`first_flagged` for the flags of an atom vector or of a list
    indexed by mask."""
    return next((i for i, flag in enumerate(flags) if flag), None)


def union_of(flags):
    """The OR of the masks whose flag is set (0 when none is)."""
    return int(np.bitwise_or.reduce(np.flatnonzero(flags)))


def atom_flags(mask, n_atoms):
    """A list of booleans over the atom indices, set at the atoms of ``mask``."""
    flags = [False] * n_atoms
    for i in atoms_of(mask):
        flags[i] = True
    return flags


def max_over_submasks(table):
    """The table b -> max of ``table`` over the submasks of b (k 2^k work)."""
    out = np.array(table, dtype=float)
    step = 1
    while step < len(out):
        halves = out.reshape(-1, 2, step)
        np.maximum(halves[:, 1], halves[:, 0], out=halves[:, 1])
        step <<= 1
    return out


class Space:
    """A finite ground set with a fixed atom partition.

    Instances are immutable and hashable; two spaces are equal when their
    ground tuples and atom partitions coincide.
    """

    __slots__ = ("ground", "atoms", "_labels", "_bits", "_hash")

    def __init__(self, ground, atoms):
        self.ground = tuple(ground)
        self.atoms = tuple(tuple(a) for a in atoms)
        self._labels = tuple(self.ground[a[0]] for a in self.atoms)
        self._bits = {lab: mask_of((i,)) for i, lab in enumerate(self._labels)}
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
        return self._labels

    def atom_members(self, i):
        """Ground labels of atom ``i``."""
        return tuple(self.ground[j] for j in self.atoms[i])

    # -- set names ----------------------------------------------------------

    def set_name(self, mask):
        """The name of a set: its atoms' labels joined with "+" in atom
        order, and "" for the empty set. :meth:`mask_named` reads it back."""
        labels = self._labels
        return "+".join(labels[i] for i in atoms_of(mask))

    def mask_named(self, text):
        """The mask of the set named by atom labels joined with "+".

        Blank text names the empty set. Each label is stripped of
        surrounding whitespace; one that labels no atom raises ValueError.
        """
        if not text.strip():
            return 0
        mask = 0
        for lab in text.split("+"):
            bit = self._bits.get(lab.strip())
            if bit is None:
                raise ValueError(f"unknown atom label {lab.strip()!r}")
            mask |= bit
        return mask

    # -- set constructors ---------------------------------------------------

    def empty(self):
        return MeasurableSet(self, 0)

    def full(self):
        return MeasurableSet(self, self.full_mask)

    def atom_block(self, i):
        return MeasurableSet(self, 1 << i)

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


def _check_label(lab):
    """Refuse a label that a set name could not carry: anything but a
    nonempty string with no "+", no "|" and no surrounding whitespace."""
    if not (isinstance(lab, str) and lab and lab == lab.strip() and "+" not in lab and "|" not in lab):
        raise ValueError(
            f"a label must be a nonempty string with no '+', '|' or surrounding "
            f"whitespace, got {lab!r}"
        )


def build_space(ground, blocks):
    """Build a :class:`Space` from ground labels and a partition into blocks.

    Every label must pass :func:`_check_label`, so each set has a name that
    :meth:`Space.mask_named` reads back. Raises :class:`EmptyBlock`,
    :class:`OverlappingBlocks` or :class:`UncoveredElement` when ``blocks``
    is not a partition of ``ground``.
    """
    ground = list(ground)
    index = {}
    for i, lab in enumerate(ground):
        _check_label(lab)
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
            _check_label(lab)
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
        return tuple(atoms_of(self.mask))

    def labels(self):
        out = []
        for i in self.atom_indices():
            out.extend(self.space.atom_members(i))
        return tuple(out)

    def __len__(self):
        return self.mask.bit_count()

    def __repr__(self):
        return f"MeasurableSet({sorted(map(str, self.labels()))})"


class MeasurableFn:
    """An atom-constant function into [0, inf]."""

    __slots__ = ("space", "atom_values")

    def __init__(self, space, atom_values):
        self.space = space
        self.atom_values = as_atoms(atom_values, space.n_atoms, "atom values")

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
        vals = [0.0] * space.n_atoms
        for i in atoms_of(bset.mask):
            vals[i] = one
        return cls(space, vals)

    def __call__(self, atom_index):
        return self.atom_values[atom_index]

    def level_set(self, t):
        """The strict level set {f > t}."""
        vals = self.atom_values
        return MeasurableSet(self.space, mask_of(i for i, v in enumerate(vals) if v > t))

    def level_set_ge(self, t):
        """The non-strict level set {f >= t}."""
        vals = self.atom_values
        return MeasurableSet(self.space, mask_of(i for i, v in enumerate(vals) if v >= t))

    def distinct_values(self, bset=None):
        """Sorted distinct values taken on ``bset`` (default: everywhere)."""
        if bset is None:
            return sorted(set(self.atom_values))
        return sorted({self.atom_values[i] for i in atoms_of(bset.mask)})

    def pointwise(self, fn, other=None):
        """Apply ``fn`` atomwise, optionally zipped with another function."""
        if other is None:
            return MeasurableFn(self.space, per_distinct(fn, self.atom_values))
        if other.space != self.space:
            raise ValueError("functions live on different spaces")
        return MeasurableFn(self.space, per_distinct(fn, self.atom_values, other.atom_values))

    def __repr__(self):
        return f"MeasurableFn({list(self.atom_values)})"


class SetFunction:
    """An explicit table over every measurable set, vanishing at the empty set."""

    __slots__ = ("space", "table")

    def __init__(self, space, table):
        require_table(space.n_atoms)
        arr = as_values(table, space.n_sets, "table entries")
        if arr[0] != 0.0:
            raise ValueError("a set function must vanish at the empty set")
        self.space = space
        self.table = arr

    def __call__(self, bset):
        return float(self.table[as_mask(bset)])

    def support_mask(self):
        """The atoms that lie in no zero set: a set is negligible iff it
        misses them, so the negligible sets are the ideal the zero sets
        generate."""
        return self.space.full_mask & ~union_of(self.table == 0.0)

    def __repr__(self):
        return f"SetFunction(on {self.space!r})"
