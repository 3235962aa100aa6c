"""Seeded random instances for property sweeps and the command line.

All draws go through numpy Generators built from a SeedSequence with an
explicit spawn key, so (seed, stream) pairs give reproducible, independent
streams and every randomized check in the test suite can name the exact
generator it used.
"""

from __future__ import annotations

import string

import numpy as np

from .additive import AdditiveMeasure
from .measures import MaxitiveMeasure, is_maxitive
from .possibility import PossibilitySpace, SubAlgebra
from .spaces import (
    INF,
    MeasurableFn,
    MeasurableSet,
    SetFunction,
    atom_table,
    build_space,
    mask_of,
)


def rng_for(seed, stream=0):
    """Independent generator for (seed, stream), bit-exact across runs."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
    return np.random.default_rng(ss)


def random_space(rng, n_atoms):
    if not 1 <= n_atoms <= 12:
        raise ValueError("atom count must be between 1 and 12")
    ground = list(string.ascii_lowercase[:n_atoms])
    return build_space(ground, [[g] for g in ground])


def random_value(rng, allow_zero=True, allow_inf=False, scale=2.0):
    r = rng.uniform()
    if allow_zero and r < 0.15:
        return 0.0
    if allow_inf and r > 0.92:
        return INF
    return float(round(10 ** rng.uniform(-scale, scale), 6))


def random_values(rng, k, allow_zero=True, allow_inf=False, scale=2.0):
    return [random_value(rng, allow_zero, allow_inf, scale) for _ in range(k)]


def random_maxitive(rng, space, allow_zero=True, allow_inf=False):
    return MaxitiveMeasure(
        space, random_values(rng, space.n_atoms, allow_zero, allow_inf)
    )


def random_fn(rng, space, allow_zero=True, allow_inf=False):
    return MeasurableFn(
        space, random_values(rng, space.n_atoms, allow_zero, allow_inf)
    )


def random_additive(rng, space, allow_zero=True, allow_inf=False):
    return AdditiveMeasure(
        space, random_values(rng, space.n_atoms, allow_zero, allow_inf)
    )


def random_probability(rng, space):
    masses = rng.dirichlet(np.ones(space.n_atoms))
    return AdditiveMeasure(space, [float(v) for v in masses])


def random_possibility(rng, space, allow_zero=True):
    vals = [
        0.0 if (allow_zero and rng.uniform() < 0.2) else float(round(rng.uniform(0.05, 1.0), 6))
        for _ in range(space.n_atoms)
    ]
    vals[int(rng.integers(space.n_atoms))] = 1.0
    return PossibilitySpace(MaxitiveMeasure(space, vals))


def random_set(rng, space, nonempty=True):
    lo = 1 if nonempty else 0
    return MeasurableSet(space, int(rng.integers(lo, space.n_sets)))


def random_subalgebra(rng, space):
    order = list(rng.permutation(space.n_atoms))
    n_blocks = int(rng.integers(1, space.n_atoms + 1))
    cuts = sorted(rng.choice(range(1, space.n_atoms), size=n_blocks - 1, replace=False)) if n_blocks > 1 else []
    blocks = []
    prev = 0
    for c in list(cuts) + [space.n_atoms]:
        blocks.append(mask_of(order[prev:c]))
        prev = c
    return SubAlgebra(space, blocks)


def random_non_maxitive(rng, space):
    """A strictly additive table with at least two charged atoms.

    Additivity with two positive atoms breaks maxitivity at their union;
    the returned witness is that pair of singleton masks. The construction
    is re-checked against the maxitivity predicate before returning.
    """
    if space.n_atoms < 2:
        raise ValueError("need at least two atoms to break maxitivity")
    masses = [float(round(rng.uniform(0.1, 5.0), 6)) for _ in range(space.n_atoms)]
    w = SetFunction(space, atom_table(masses))
    ok, wit = is_maxitive(w)
    if ok:
        raise AssertionError("additive table unexpectedly maxitive")
    return w, (1, 2)
