"""Sigma-additive measures on the same finite spaces, for comparison.

Carries the classical constructions the idempotent theory is played against:
the Lebesgue integral of simple functions, the classical density theorem
with its sigma-finiteness obstruction, and the finiteness and localizability
chain. On a finite algebra several of these notions collapse into each
other, and the atom masses decide them: sigma- and semi-finiteness both
mean that no atom mass is inf, the essential supremum of a family is its
union less its null atoms, and localizability, which a finite algebra gives
to every measure, is returned with its reason. Each docstring says why, and
the sweeps over every set that restate them are oracles in the tests. So
these and ``choquet_integral``, which evaluates the measure on one set per
level, build no table and have no atom cap. ``from_set_function`` and
``classical_density`` read the whole 2^k table of atom sums, priced as an
atom table: k 2^k cells, which admit 21 atoms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NoDensity, NotAbsolutelyContinuous
from .semigroup import _times
from .spaces import (
    DEFAULT_TOL,
    INF,
    MeasurableFn,
    MeasurableSet,
    SetFunction,
    as_mask,
    as_values,
    atom_table,
    first_flagged,
    fold_atoms,
    mask_of,
    per_distinct,
    singletons,
    vclose,
)


class AdditiveMeasure:
    """Nonnegative sigma-additive measure, stored by atom masses."""

    __slots__ = ("space", "atom_masses", "_table")

    def __init__(self, space, atom_masses):
        self.space = space
        self.atom_masses = as_values(atom_masses, space.n_atoms, "atom masses")
        self._table = None

    def __call__(self, bset):
        return fold_atoms(self.atom_masses, as_mask(bset), operator.add, 0.0)

    def to_set_function(self):
        if self._table is None:
            with np.errstate(over="ignore"):  # a mass sum that overflows is inf
                self._table = SetFunction(self.space, atom_table(self.atom_masses))
        return self._table

    @classmethod
    def from_set_function(cls, w, tol=DEFAULT_TOL):
        m = cls(w.space, singletons(w.table))
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
    got = atom_table(per_distinct(_times, c.atom_values, m.atom_masses))
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
    """Countable cover by finite-mass sets: no atom mass is inf.

    An atom of infinite mass makes every set that holds it infinite, and
    the singletons of finite-mass atoms cover the rest.
    """
    return not np.isinf(m.atom_masses).any()


def is_semi_finite_measure(m):
    """Every set of infinite mass contains a part of positive finite mass.

    An atom of infinite mass has no such part, since its only parts are
    itself and the empty set. When no atom mass is inf, a set of infinite
    mass (a sum that overflows) holds a positive atom, which is that part.
    """
    return not np.isinf(m.atom_masses).any()


def family_essential_supremum(m, masks):
    """Least upper bound of a family of sets modulo m-null sets.

    The union of the family with its m-null atoms removed. It almost
    contains every member: the part of a member outside it holds only null
    atoms, so its mass is a sum of zeros. It is least: a positive atom of it
    that a competitor g misses lies in some member b, so m(b - g) > 0 and g
    does not almost contain b. So neither property is checked on a table.
    A member mask outside [0, 2^k) raises ValueError.
    """
    union = 0
    for b in masks:
        union |= MeasurableSet(m.space, b).mask
    return MeasurableSet(m.space, union & mask_of(np.flatnonzero(m.atom_masses > 0)))


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

    Each property is read off the atom masses, for the reason in its
    docstring, and the implications are then checked on the instance.
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
    if bset is None:
        bset = w.space.full()
    vs = [0.0] + f.distinct_values(bset)
    total = 0.0
    for lo, hi in zip(vs, vs[1:]):
        surv = w(bset.mask & f.level_set(lo).mask)
        width = hi - lo
        total += _times(width, surv)
        if math.isinf(total):
            return INF
    return total
