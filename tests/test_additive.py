"""Classical sigma-additive measures and the comparison bridge."""

import math
import warnings

import pytest

from maxitive.additive import (
    AdditiveMeasure,
    choquet_integral,
    classical_density,
    family_essential_supremum,
    implication_chain,
    is_finite_measure,
    is_localizable_measure,
    is_semi_finite_measure,
    is_sigma_finite_measure,
    lebesgue_integral,
)
from maxitive.errors import NoDensity, NotAbsolutelyContinuous
from maxitive.measures import MaxitiveMeasure
from maxitive.sampling import random_additive, random_fn, random_space, rng_for
from maxitive.spaces import INF, MeasurableFn, SetFunction, build_space, close


def test_additive_measure_basics(abc):
    m = AdditiveMeasure(abc, [1, 2, 0.5])
    assert m(abc.full()) == 3.5
    assert m.total() == 3.5
    assert m(abc.set_of_labels(["a", "c"])) == 1.5
    assert m(0) == 0.0
    back = AdditiveMeasure.from_set_function(m.to_set_function())
    assert list(back.atom_masses) == [1.0, 2.0, 0.5]
    with pytest.raises(ValueError):
        AdditiveMeasure.from_set_function(
            MaxitiveMeasure(abc, [1, 2, 0.5]).to_set_function()
        )


@pytest.mark.parametrize("k", [22, 200])
def test_finiteness_chain_has_no_atom_cap(k):
    # the chain and the essential supremum read the atom masses, and the
    # Choquet integral evaluates the measure on one set per level
    labs = [f"g{i}" for i in range(k)]
    space = build_space(labs, [[l] for l in labs])
    m = AdditiveMeasure(space, [0.0] + [1.0] * (k - 2) + [INF])
    assert not is_sigma_finite_measure(m) and not is_semi_finite_measure(m)
    rep = implication_chain(m)
    assert (rep.finite, rep.chain_holds) == (False, True)
    assert family_essential_supremum(m, [0b1, 0b10, 1 << (k - 1)]).mask == 0b10 | 1 << (k - 1)
    finite = AdditiveMeasure(space, [1.0] * k)
    assert is_sigma_finite_measure(finite) and is_semi_finite_measure(finite)
    f = MeasurableFn(space, [1.0 + i % 3 for i in range(k)])
    assert choquet_integral(f, finite) == lebesgue_integral(f, finite)


def test_finiteness_chain_of_an_overflowing_mass_sum_warns_nothing(abc):
    # no table of the mass sums is formed, so no sum overflows
    m = AdditiveMeasure(abc, [1e308, 1e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_sigma_finite_measure(m) and is_semi_finite_measure(m)
        rep = implication_chain(m)
        h = family_essential_supremum(m, [0b001, 0b110])
    assert (rep.finite, rep.chain_holds, h.mask) == (False, True, 0b011)


@pytest.mark.parametrize("mask", [-1, -4, 1 << 3])
def test_family_essential_supremum_rejects_masks_out_of_range(abc, mask):
    m = AdditiveMeasure(abc, [1, 0, 2])
    with pytest.raises(ValueError, match=f"mask {mask} out of range"):
        family_essential_supremum(m, [0b001, mask])


def test_lebesgue_fixture(abc):
    f = MeasurableFn(abc, [3, 1, 4])
    m = AdditiveMeasure(abc, [1, 2, 0.5])
    assert lebesgue_integral(f, m) == 7.0
    assert lebesgue_integral(f, m, abc.set_of_labels(["b"])) == 2.0
    # 0 * inf = 0 on both sides
    g = MeasurableFn(abc, [0, 1, INF])
    mm = AdditiveMeasure(abc, [INF, 2, 0])
    assert lebesgue_integral(g, mm) == 2.0


def test_classical_density_roundtrip(abc):
    nu = AdditiveMeasure(abc, [2, 0, 3])
    m = AdditiveMeasure(abc, [1, 2, 0.5])
    c = classical_density(nu, m)
    assert list(c.atom_values) == [2.0, 0.0, 6.0]
    for b in abc.sets():
        assert close(lebesgue_integral(c, m, b), nu(b))


def test_classical_density_random():
    rng = rng_for(41)
    for _ in range(60):
        space = random_space(rng, int(rng.integers(1, 6)))
        m = random_additive(rng, space)
        dens = random_fn(rng, space)
        nu = AdditiveMeasure(
            space,
            [
                0.0 if float(m.atom_masses[i]) == 0.0
                else float(dens.atom_values[i]) * float(m.atom_masses[i])
                for i in range(space.n_atoms)
            ],
        )
        c = classical_density(nu, m)
        for b in space.sets():
            assert close(lebesgue_integral(c, m, b), nu(b))


def test_density_obstructions(abc):
    m_null = AdditiveMeasure(abc, [0, 2, 0.5])
    nu = AdditiveMeasure(abc, [2, 0, 3])
    with pytest.raises(NotAbsolutelyContinuous):
        classical_density(nu, m_null)
    # finite mass on an infinite-mass atom: the sigma-finiteness wall
    m_inf = AdditiveMeasure(abc, [INF, 2, 0.5])
    with pytest.raises(NoDensity):
        classical_density(AdditiveMeasure(abc, [2, 0, 3]), m_inf)
    # but infinite nu-mass there is fine, with density one
    c = classical_density(AdditiveMeasure(abc, [INF, 0, 3]), m_inf)
    assert list(c.atom_values) == [1.0, 0.0, 6.0]


def test_finiteness_chain_finite(abc):
    m = AdditiveMeasure(abc, [1, 2, 0.5])
    rep = implication_chain(m)
    assert rep.finite and rep.sigma_finite and rep.semi_finite and rep.localizable
    assert rep.chain_holds


def test_finiteness_chain_infinite_atom(abc):
    m = AdditiveMeasure(abc, [INF, 2, 0.5])
    assert not is_finite_measure(m)
    assert not is_sigma_finite_measure(m)
    # the infinite atom has no smaller positive part
    assert not is_semi_finite_measure(m)
    assert is_localizable_measure(m)
    rep = implication_chain(m)
    assert rep.chain_holds  # implications hold vacuously


def test_family_essential_supremum(abc):
    m = AdditiveMeasure(abc, [1, 1, 0])
    fam = [0b001, 0b011, 0b100]
    h = family_essential_supremum(m, fam)
    # the null atom c is stripped from the union
    assert h.mask == 0b011
    # least upper bounds modulo null sets are unique up to null sets
    h2 = family_essential_supremum(m, [0b001, 0b010])
    assert m(h.mask ^ h2.mask) == 0.0


def test_localizable_exhaustive_small():
    sp = build_space("ab", [["a"], ["b"]])
    assert is_localizable_measure(AdditiveMeasure(sp, [1, 0]))
    assert is_localizable_measure(AdditiveMeasure(sp, [INF, 2]))


def _choquet_oracle(f, w, bmask):
    # telescope over the decreasing rearrangement
    pairs = sorted(
        ((float(f.atom_values[i]), i) for i in range(f.space.n_atoms) if bmask & (1 << i)),
        reverse=True,
    )
    total = 0.0
    seen = 0
    prev = None
    for v, i in pairs:
        if prev is not None and prev > v:
            total += (prev - v) * w(seen)
        seen |= 1 << i
        prev = v
    if prev is not None and prev > 0:
        total += prev * w(seen) if not math.isinf(prev) else INF if w(seen) > 0 else 0.0
    return total


def test_choquet_reduces_to_lebesgue():
    rng = rng_for(47)
    for _ in range(50):
        space = random_space(rng, int(rng.integers(1, 6)))
        m = random_additive(rng, space)
        f = random_fn(rng, space)
        b = space.full()
        assert close(
            choquet_integral(f, m.to_set_function(), b), lebesgue_integral(f, m, b)
        )


def test_choquet_against_telescope_oracle(abc):
    w = SetFunction(abc, [0, 1, 2, 2.5, 0.5, 1.2, 2.1, 3])
    rng = rng_for(53)
    for _ in range(40):
        f = MeasurableFn(abc, rng.uniform(0, 5, size=3))
        got = choquet_integral(f, w)
        want = _choquet_oracle(f, w, abc.full_mask)
        assert close(got, want), (got, want)
