"""Possibility spaces and conditioning on finite sub-algebras.

A possibility measure is a normed maxitive measure: a PossibilitySpace is a
MaxitiveMeasure whose largest atom value is one within a tolerance, and it is
accepted wherever a maxitive measure is; :func:`as_possibility` refuses
anything else with TypeError. A sub-algebra is a partition of the atoms,
written as its blocks' set names joined with "|" (``a+b|c``, each name read
by ``Space.mask_named``). Conditioning a variable on a partition works per
block: integrate over the block, then residuate by the block's possibility.
The defining property (equal integrals on every set of the sub-algebra) is
verified on the blocks alone: the atom integral over a union of blocks is
the max of the integrals over its blocks, so blocks that agree make every
union agree. The suite functions verify the textbook laws (uniqueness
through perturbation, monotonicity, homogeneity, the tower rule, total
expectation) on concrete instances under any exact operation, reading
nothing off its name: the probes come from the operation's
``perturbations`` and ``scalars``, which a table operation draws from its
grid, and the monotone law's shift is a value of the variable. The
classical bridge realizes the conditional as a limit of conditional power
means.
"""

from __future__ import annotations

import math

from .errors import (
    DefiningPropertyFailed,
    NonExactOperation,
    NotProbability,
    OracleMismatch,
    UnmappedValue,
)
from .integral import atom_integral, idempotent_integral
from .measures import MaxitiveMeasure, delta_measure
from .records import Record
from .semigroup import TIMES
from .spaces import (
    DEFAULT_TOL,
    MeasurableFn,
    MeasurableSet,
    as_mask,
    atoms_of,
    close,
    first_atom,
    le,
    mask_of,
    np,
)


class PossibilitySpace(MaxitiveMeasure):
    """A maxitive measure with maximum value one."""

    __slots__ = ()

    def __init__(self, space, atom_values, tol=DEFAULT_TOL):
        super().__init__(space, atom_values)
        top = max(self.atom_values, default=0.0)
        if not close(top, 1.0, tol):
            raise NotProbability(f"maximum possibility is {top}, not 1")

    def delta(self):
        """The two-valued companion possibility."""
        return as_possibility(delta_measure(self))


def as_possibility(obj, tol=DEFAULT_TOL):
    """obj if it is a PossibilitySpace (checked when built), else one on the
    atoms of a MaxitiveMeasure; anything else raises TypeError."""
    if isinstance(obj, PossibilitySpace):
        return obj
    if not isinstance(obj, MaxitiveMeasure):
        raise TypeError(f"a possibility needs a MaxitiveMeasure, got {type(obj).__name__}")
    return PossibilitySpace(obj.space, obj.atom_values, tol)


class SubAlgebra:
    """A partition of the atoms; its measurable sets are unions of blocks."""

    __slots__ = ("space", "blocks")

    def __init__(self, space, blocks):
        blocks = [int(b) for b in blocks]
        seen = 0
        for b in blocks:
            if b == 0:
                raise ValueError("blocks must be nonempty")
            if b & seen:
                raise ValueError("blocks overlap")
            seen |= b
        if seen != space.full_mask:
            raise ValueError("blocks must cover every atom")
        self.space = space
        self.blocks = tuple(sorted(blocks, key=lambda b: b & -b))

    @classmethod
    def from_string(cls, space, text):
        """Parse blocks like "a+b|c": set names (see ``Space.mask_named``)
        joined with "|". A blank block is refused before any name is read."""
        parts = text.split("|")
        if not all(part.strip() for part in parts):
            raise ValueError(f"empty block in {text!r}")
        return cls(space, [space.mask_named(part) for part in parts])

    @classmethod
    def trivial(cls, space):
        return cls(space, [space.full_mask])

    @classmethod
    def atoms(cls, space):
        return cls(space, [1 << i for i in range(space.n_atoms)])

    def generated(self):
        out = []
        for bits in range(1 << len(self.blocks)):
            m = 0
            for j in atoms_of(bits):
                m |= self.blocks[j]
            out.append(m)
        return out

    def contains(self, mask):
        mask = as_mask(mask)
        for b in self.blocks:
            inter = mask & b
            if inter != 0 and inter != b:
                return False
        return True

    def block_of(self, atom_index):
        bit = 1 << atom_index
        for b in self.blocks:
            if b & bit:
                return b
        raise ValueError(f"atom {atom_index} out of range")

    def is_measurable(self, f, tol=DEFAULT_TOL):
        for b in self.blocks:
            idx = MeasurableSet(self.space, b).atom_indices()
            v0 = f.atom_values[idx[0]]
            if any(not close(f.atom_values[i], v0, tol) for i in idx[1:]):
                return False
        return True

    def refines(self, other):
        return all(other.contains(b) for b in self.blocks)

    def coarsened(self):
        """Merge the first two blocks; identity on a single block."""
        if len(self.blocks) < 2:
            return self
        merged = [self.blocks[0] | self.blocks[1], *self.blocks[2:]]
        return SubAlgebra(self.space, merged)

    def spread(self, block_values):
        """Expand one value per block into an atom-valued function."""
        vals = [0.0] * self.space.n_atoms
        for b, v in zip(self.blocks, block_values):
            for i in MeasurableSet(self.space, b).atom_indices():
                vals[i] = float(v)
        return MeasurableFn(self.space, vals)

    def __repr__(self):
        return f"SubAlgebra({'|'.join(map(self.space.set_name, self.blocks))})"


def expectation(op, x, pi, bset=None, tol=DEFAULT_TOL, crosscheck=False):
    """Integral of the variable over the whole space (or bset)."""
    pi = as_possibility(pi, tol)
    return idempotent_integral(op, x, pi, bset, tol, crosscheck).value


class Law(Record):
    """The possibility of each value the variable takes."""

    values: tuple
    possibilities: tuple

    def __call__(self, v):
        x = float(v)
        if x not in self.values:
            raise UnmappedValue(f"{v} is not a value of the variable")
        return self.possibilities[self.values.index(x)]


def law(x, pi, tol=DEFAULT_TOL):
    """Push the possibility forward through the variable."""
    pi = as_possibility(pi, tol)
    values = sorted(set(x.atom_values))
    poss = []
    for v in values:
        poss.append(pi(mask_of(i for i, xi in enumerate(x.atom_values) if xi == v)))
    if not close(max(poss), 1.0, tol):
        raise OracleMismatch("law does not reach possibility one")
    return Law(tuple(values), tuple(poss))


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------


def conditional(op, x, pi, sub, tol=DEFAULT_TOL):
    """The block-measurable function with the same integrals on the algebra.

    Per block: integrate x over the block, then residuate by the block's
    possibility; null blocks carry zero. The operation must be exact, and
    the defining property is verified on every block before the result is
    returned. That covers every set of the sub-algebra. On a union of
    blocks both integrals are maxes over its blocks; if the larger one is
    block j's, the union's gap is at most block j's gap, at the same
    tolerance scale, and an inf side agrees only with inf. A failure names
    the lowest failing block, which is also the first failing set in
    ``sub.generated()`` order.
    """
    if not op.exact:
        raise NonExactOperation(f"{op.name} cannot attain its residuals")
    pi = as_possibility(pi, tol)
    kappas = []
    block_vals = []
    for b in sub.blocks:
        pb = pi(b)
        kappa = atom_integral(op, x, pi, MeasurableSet(pi.space, b))
        kappas.append(kappa)
        block_vals.append(0.0 if pb == 0.0 else op.residual(kappa, pb))
    y = sub.spread(block_vals)
    for b, kappa in zip(sub.blocks, kappas):
        lhs = atom_integral(op, y, pi, MeasurableSet(pi.space, b))
        if not close(lhs, kappa, tol):
            raise DefiningPropertyFailed(
                f"conditional integrates to {lhs}, variable to {kappa}, on mask {b}"
            )
    return y


class ConditionalSuiteReport(Record):
    y: MeasurableFn
    defining: bool
    characterization: bool
    monotone: bool
    scaling: bool
    tower: bool
    total: bool
    measurable_fixed: bool
    details: dict = {}

    def all_hold(self):
        return (
            self.defining
            and self.characterization
            and self.monotone
            and self.scaling
            and self.tower
            and self.total
            and self.measurable_fixed
        )


def conditional_suite(op, x, pi, sub, tol=DEFAULT_TOL):
    """Verify the textbook properties of the conditional on one instance."""
    pi = as_possibility(pi, tol)
    space = pi.space
    # conditional has verified the defining property on every set with
    # this op and tol, the full set (total expectation) included
    y = conditional(op, x, pi, sub, tol)
    details = {}

    # on each non-null block of possibility p, uniqueness: any distinguishable
    # change must break the defining property there; and the envelope, taken
    # from the operation to check conditional's block arithmetic: y_b lies
    # between the conditionals residual(m (.) p, p) of the block's extremes
    characterization = True
    outside = None
    for j, b in enumerate(sub.blocks):
        pb = pi(b)
        if pb == 0.0:
            continue
        bset = MeasurableSet(space, b)
        target = atom_integral(op, x, pi, bset)
        idx = bset.atom_indices()
        y_b = y.atom_values[idx[0]]
        # y set to z on the block has the block integral of the constant z,
        # which reads the block alone: max of 0 and every z (.) pi_i on it
        pis = [pi.atom_values[i] for i in idx]
        probes = [z for z in op.perturbations(y_b, pb) if math.isfinite(z) and not close(z, y_b)]
        if all(close(max([0.0] + [op(z, v) for v in pis]), target, tol) for z in probes):
            characterization = False
            details["characterization_block"] = j
        xs = [x.atom_values[i] for i in idx]
        lo, hi = (op.residual(op(m, pb), pb) for m in (min(xs), max(xs)))
        if outside is None and not (le(y_b, hi, tol) and le(lo, y_b, tol)):
            outside = j

    # raising the variable can only raise the conditional; the shift, the
    # lower median of x's finite values, is a value of x and so lies on a
    # table operation's grid
    finite = sorted(v for v in x.atom_values if math.isfinite(v)) or [1.0]
    shift = finite[(len(finite) - 1) // 2]
    x_up = x.pointwise(max, MeasurableFn.constant(space, shift))
    y_up = conditional(op, x_up, pi, sub, tol)
    drop = first_atom(not le(a, b, tol) for a, b in zip(y.atom_values, y_up.atom_values))
    monotone = drop is None and outside is None
    if drop is not None:
        details["monotone_atom"] = drop
    elif outside is not None:
        details["envelope_block"] = outside

    scaling = True
    for lam in op.scalars:
        lam_fn = MeasurableFn.constant(space, lam)
        xs = lam_fn.pointwise(op, x)
        ys = conditional(op, xs, pi, sub, tol)
        expect = lam_fn.pointwise(op, y)
        i = first_atom(not close(a, b, tol) for a, b in zip(ys.atom_values, expect.atom_values))
        if i is not None:
            scaling = False
            details["scaling"] = (lam, i)
            break

    tower = True
    if len(sub.blocks) >= 2:
        coarse = sub.coarsened()
        direct = conditional(op, x, pi, coarse, tol)
        two_step = conditional(op, y, pi, coarse, tol)
        pairs = zip(direct.atom_values, two_step.atom_values)
        i = first_atom(not close(a, b, tol) for a, b in pairs)
        if i is not None:
            tower = False
            details["tower_atom"] = i

    # conditioning a block-measurable function returns it: under an exact
    # operation residual(y_b (.) p, p) = y_b on a block of possibility p > 0
    ym = conditional(op, y, pi, sub, tol)
    firsts = [atoms_of(b)[0] for b in sub.blocks]
    j = first_atom(
        pi(b) != 0.0 and not close(ym.atom_values[i], y.atom_values[i], tol)
        for b, i in zip(sub.blocks, firsts)
    )
    measurable_fixed = j is None
    if not measurable_fixed:
        details["measurable_fixed_block"] = j

    return ConditionalSuiteReport(
        y=y,
        defining=True,
        characterization=characterization,
        monotone=monotone,
        scaling=scaling,
        tower=tower,
        total=True,
        measurable_fixed=measurable_fixed,
        details=details,
    )


# ---------------------------------------------------------------------------
# classical bridge: conditional power means
# ---------------------------------------------------------------------------


class PowerMeanReport(Record):
    ps: tuple
    max_abs_gap: tuple
    max_rel_gap: tuple
    limit: MeasurableFn
    means: dict


def power_mean_limit(m, x, sub, ps=(1, 2, 5, 10, 50, 200), tol=DEFAULT_TOL):
    """Conditional power means against a probability converge to the
    conditional against its two-valued possibility.

    The p-th mean per block is computed in log space, so p = 200 does not
    overflow; the limit object is the times-conditional of the variable
    under the companion possibility of m. Gaps are reported both absolutely
    and relative to the limit.
    """
    if not close(m.total(), 1.0, tol):
        raise NotProbability(f"total mass is {m.total()}, not 1")
    if not np.isfinite(x.atom_values).all():
        raise ValueError("power means need finite variable values")
    space = m.space
    delta = delta_measure(MaxitiveMeasure(space, m.atom_masses))
    limit = conditional(TIMES, x, delta, sub, tol)

    means = {}
    abs_gaps = []
    rel_gaps = []
    with np.errstate(divide="ignore"):
        log_x = np.log(np.asarray(x.atom_values, dtype=float))
        log_m = np.log(np.asarray(m.atom_masses, dtype=float))
    for p in ps:
        block_means = []
        worst_abs = 0.0
        worst_rel = 0.0
        for b in sub.blocks:
            idx = MeasurableSet(space, b).atom_indices()
            live = [i for i in idx if float(m.atom_masses[i]) > 0]
            if not live:
                block_means.append(0.0)
                continue
            terms = np.array([p * log_x[i] + log_m[i] for i in live])
            log_num = float(np.logaddexp.reduce(terms))
            log_den = math.log(sum(float(m.atom_masses[i]) for i in live))
            mp = math.exp((log_num - log_den) / p)
            block_means.append(mp)
            lim = float(limit.atom_values[idx[0]])
            gap = abs(mp - lim)
            worst_abs = max(worst_abs, gap)
            worst_rel = max(worst_rel, gap / lim if lim > 0 else gap)
        means[p] = tuple(block_means)
        abs_gaps.append(worst_abs)
        rel_gaps.append(worst_rel)
    return PowerMeanReport(
        ps=tuple(ps),
        max_abs_gap=tuple(abs_gaps),
        max_rel_gap=tuple(rel_gaps),
        limit=limit,
        means=means,
    )
