"""Sigma-additive measures on the same finite spaces, for comparison.

Carries the classical constructions the idempotent theory is played against:
the Lebesgue integral of simple functions, the classical density theorem
with its sigma-finiteness obstruction, and the finiteness and localizability
chain. On a finite algebra several of these notions collapse into each
other; the checkers compute each side independently so the collapse is a
verified output, not an assumption. Localizability is the exception: a
finite algebra gives it to every measure, so it is returned with its reason.
``from_set_function`` and the sigma- and semi-finiteness checks read the
whole 2^k table of atom sums, so they share the 12-atom table cap.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NoDensity, NotAbsolutelyContinuous, OracleMismatch
from .semigroup import _times
from .spaces import (
    DEFAULT_TOL,
    INF,
    MeasurableFn,
    MeasurableSet,
    SetFunction,
    as_value,
    atom_table,
    first_flagged,
    fold_atoms,
    max_over_submasks,
    union_of,
    vclose,
)


class AdditiveMeasure:
    """Nonnegative sigma-additive measure, stored by atom masses."""

    __slots__ = ("space", "atom_masses", "_table")

    def __init__(self, space, atom_masses):
        masses = np.asarray([as_value(v) for v in atom_masses], dtype=float)
        if len(masses) != space.n_atoms:
            raise ValueError(
                f"expected {space.n_atoms} atom masses, got {len(masses)}"
            )
        masses.setflags(write=False)
        self.space = space
        self.atom_masses = masses
        self._table = None

    def __call__(self, bset):
        mask = bset.mask if isinstance(bset, MeasurableSet) else int(bset)
        return fold_atoms(self.atom_masses, mask, operator.add, 0.0)

    def to_set_function(self):
        if self._table is None:
            self._table = SetFunction(self.space, atom_table(self.atom_masses))
        return self._table

    @classmethod
    def from_set_function(cls, w, tol=DEFAULT_TOL):
        m = cls(w.space, w.table[1 << np.arange(w.space.n_atoms)])
        b = first_flagged(~vclose(w.table, atom_table(m.atom_masses), tol))
        if b is not None:
            raise ValueError(f"table is not additive; witness mask {b}")
        return m

    def total(self):
        return self(self.space.full_mask)

    def __repr__(self):
        return f"AdditiveMeasure({list(map(float, self.atom_masses))})"


def lebesgue_integral(f, m, bset=None):
    """Integral of a nonnegative simple function: sum of value times mass."""
    if bset is None:
        bset = m.space.full()
    total = 0.0
    for i in bset.atom_indices():
        total += _times(float(f.atom_values[i]), float(m.atom_masses[i]))
    return total


def classical_density(nu, m, tol=DEFAULT_TOL):
    """Classical density of nu with respect to m, atom by atom.

    Raises NotAbsolutelyContinuous if some m-null atom carries nu-mass, and
    NoDensity when an atom of infinite m-mass carries finite positive
    nu-mass (the sigma-finiteness obstruction: c * inf is 0 or inf, never in
    between). The candidate is verified on every measurable set.
    """
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
    # lebesgue_integral's left-to-right sum on every mask at once
    got = atom_table(
        [
            _times(float(c.atom_values[i]), float(m.atom_masses[i]))
            for i in range(space.n_atoms)
        ]
    )
    b = first_flagged(~vclose(got, nu.to_set_function().table, tol))
    if b is not None:
        raise NoDensity(f"candidate density fails on mask {b}")
    return c


# ---------------------------------------------------------------------------
# finiteness and localizability chain
# ---------------------------------------------------------------------------


def is_finite_measure(m):
    return math.isfinite(m.total())


def is_sigma_finite_measure(m):
    """Countable cover by finite-mass sets; needs every atom mass finite."""
    covered = union_of(np.isfinite(atom_table(m.atom_masses)))
    return covered == m.space.full_mask


def is_semi_finite_measure(m):
    """Every set of infinite mass contains a part of positive finite mass."""
    table = atom_table(m.atom_masses)
    charged = max_over_submasks((0.0 < table) & (table < INF))
    return not (np.isinf(table) & (charged == 0.0)).any()


def family_essential_supremum(m, masks):
    """Least upper bound of a family of sets modulo m-null sets.

    The union with its m-null atoms removed is the candidate; both defining
    properties (it almost contains every member; anything that almost
    contains every member almost contains it) are verified against all
    competitors.
    """
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


def is_localizable_measure(m):
    """Every family of measurable sets has an essential supremum.

    A family in a finite algebra is finite, and its union with the m-null
    atoms removed is its essential supremum (family_essential_supremum).
    """
    return True


@dataclass
class ImplicationReport:
    finite: bool
    sigma_finite: bool
    semi_finite: bool
    localizable: bool
    chain_holds: bool
    details: dict = field(default_factory=dict)


def implication_chain(m):
    """finite => sigma-finite => semi-finite, sigma-finite => localizable.

    Each property is computed from its own definition and the implications
    are then checked on the instance.
    """
    fin = is_finite_measure(m)
    sig = is_sigma_finite_measure(m)
    semi = is_semi_finite_measure(m)
    loc = is_localizable_measure(m)
    chain = (
        (not fin or sig)
        and (not sig or semi)
        and (not sig or loc)
    )
    return ImplicationReport(
        finite=fin,
        sigma_finite=sig,
        semi_finite=semi,
        localizable=loc,
        chain_holds=chain,
        details={"total_mass": m.total()},
    )


def choquet_integral(f, w, bset=None):
    """Survival-function integral of a simple function against a monotone w.

    Riemann sum of w(bset & {f > t}) over the segments between consecutive
    values of f; reduces to the Lebesgue integral when w is additive.
    """
    w = w if isinstance(w, SetFunction) else w.to_set_function()
    if bset is None:
        bset = w.space.full()
    vs = [0.0] + f.distinct_values(bset)
    total = 0.0
    for lo, hi in zip(vs, vs[1:]):
        surv = float(w.table[bset.mask & f.level_set(lo).mask])
        width = hi - lo
        total += _times(width, surv)
        if math.isinf(total):
            return INF
    return total
