"""Density extraction: residual route, additive envelope, associated pairs."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxitive.additive import AdditiveMeasure
from maxitive.density import (
    ae_equal,
    density_from_associated,
    envelope_density,
    envelope_measure,
    odot_abs_continuous,
    rn_density,
    verify_density,
)
from maxitive.errors import (
    NegligibilityViolation,
    NoDensity,
    NonExactOperation,
    NotOdotAbsolutelyContinuous,
)
from maxitive.integral import density_measure
from maxitive.measures import MaxitiveMeasure
from maxitive.sampling import random_fn, random_maxitive, random_space, rng_for
from maxitive.semigroup import MIN, PLUS, TIMES
from maxitive.spaces import INF, MeasurableFn, build_space, close


def test_rn_density_times_fixture(abc):
    tau = MaxitiveMeasure(abc, [1, 2, 0.5])
    c = MeasurableFn(abc, [3, 1, 4])
    nu = density_measure(TIMES, c, tau)
    assert list(nu.atom_values) == [3.0, 2.0, 2.0]
    got = rn_density(TIMES, nu, tau)
    assert list(got.atom_values) == [3.0, 1.0, 4.0]
    assert verify_density(TIMES, got, nu, tau)[0]


def test_rn_density_min_fixture(abc):
    tau = MaxitiveMeasure(abc, [1, 2, 0.5])
    c = MeasurableFn(abc, [3, 1, 4])
    nu = density_measure(MIN, c, tau)
    assert list(nu.atom_values) == [1.0, 1.0, 0.5]
    got = rn_density(MIN, nu, tau)
    # a version, not necessarily the generator we started from
    assert verify_density(MIN, got, nu, tau)[0]
    assert list(got.atom_values) == [1.0, 1.0, 0.5]


def test_rn_density_roundtrip_random():
    rng = rng_for(61)
    for _ in range(120):
        space = random_space(rng, int(rng.integers(1, 6)))
        tau = random_maxitive(rng, space, allow_inf=True)
        f = random_fn(rng, space, allow_inf=True)
        for op in (TIMES, MIN):
            nu = density_measure(op, f, tau)
            c = rn_density(op, nu, tau)
            ok, wit = verify_density(op, c, nu, tau)
            assert ok, (op.name, wit)


def test_times_uniqueness_where_tau_is_finite_positive():
    rng = rng_for(67)
    for _ in range(60):
        space = random_space(rng, int(rng.integers(1, 5)))
        tau = random_maxitive(rng, space, allow_zero=False)
        f = random_fn(rng, space)
        nu = density_measure(TIMES, f, tau)
        c = rn_density(TIMES, nu, tau)
        assert ae_equal(tau, c, f), (list(c.atom_values), list(f.atom_values))


def test_counterexample_dirac_against_infinite_dirac():
    sp = build_space("ab", [["a"], ["b"]])
    nu = MaxitiveMeasure(sp, [1, 0])
    tau = MaxitiveMeasure(sp, [INF, 0])
    # abs continuity holds, yet no density exists: c * inf is never 1
    assert odot_abs_continuous(TIMES, nu, tau).holds
    with pytest.raises(NoDensity):
        rn_density(TIMES, nu, tau)


def test_abs_continuity_gate(abc):
    nu = MaxitiveMeasure(abc, [1, 0, 0])
    tau = MaxitiveMeasure(abc, [0, 1, 1])
    rep = odot_abs_continuous(TIMES, nu, tau)
    assert not rep.holds and rep.witness is not None
    with pytest.raises(NotOdotAbsolutelyContinuous):
        rn_density(TIMES, nu, tau)


def test_non_exact_operations_are_refused(abc):
    nu = MaxitiveMeasure(abc, [1, 2, 0.5])
    with pytest.raises(NonExactOperation):
        rn_density(PLUS, nu, nu)


def test_ae_equal(abc):
    w = MaxitiveMeasure(abc, [1, 0, 1])
    f = MeasurableFn(abc, [1, 5, 2])
    g = MeasurableFn(abc, [1, 9, 2])
    assert ae_equal(w, f, g)
    assert not ae_equal(w, f, MeasurableFn(abc, [1, 5, 3]))


# the additive envelope


def _canonical_partitions(k):
    # restricted growth strings; independent of the library recursion
    for word in itertools.product(range(k), repeat=k):
        top = -1
        ok = True
        for w in word:
            if w > top + 1:
                ok = False
                break
            top = max(top, w)
        if not ok:
            continue
        blocks = {}
        for i, w in enumerate(word):
            blocks.setdefault(w, []).append(i)
        yield list(blocks.values())


def _envelope_oracle(nu, m, bmask):
    idx = [i for i in range(nu.space.n_atoms) if bmask & (1 << i)]
    if not idx:
        return 0.0
    best = INF
    for part in _canonical_partitions(len(idx)):
        total = 0.0
        for blk in part:
            sub = 0
            for j in blk:
                sub |= 1 << idx[j]
            v, mass = nu(sub), m(sub)
            if v != 0.0 and mass != 0.0:
                total += v * mass
        best = min(best, total)
    return best


def test_envelope_fixture():
    sp = build_space("ab", [["a"], ["b"]])
    nu = MaxitiveMeasure(sp, [1, 2])
    m = AdditiveMeasure(sp, [1, 1])
    env = envelope_measure(nu, m)
    assert [env(b) for b in sp.masks()] == [0.0, 1.0, 2.0, 3.0]
    rep = envelope_density(nu, m)
    assert list(rep.density.atom_values) == [1.0, 2.0]
    assert not rep.transformed
    assert rep.reconstruction_ok


def test_envelope_against_partition_oracle():
    rng = rng_for(71)
    for _ in range(60):
        space = random_space(rng, int(rng.integers(1, 5)))
        nu = random_maxitive(rng, space)
        m = AdditiveMeasure(space, rng.uniform(0.1, 3.0, size=space.n_atoms))
        env = envelope_measure(nu, m)
        for b in space.masks():
            assert close(env(b), _envelope_oracle(nu, m, b)), b


def test_envelope_is_dominated_additive():
    rng = rng_for(73)
    for _ in range(40):
        space = random_space(rng, int(rng.integers(1, 5)))
        nu = random_maxitive(rng, space)
        m = AdditiveMeasure(space, rng.uniform(0.1, 2.0, size=space.n_atoms))
        env = envelope_measure(nu, m)
        for b in space.masks():
            atom_sum = sum(env(1 << i) for i in range(space.n_atoms) if b & (1 << i))
            assert close(env(b), atom_sum)
            # dominated by the one-block partition
            assert env(b) <= nu(b) * m(b) + 1e-9


def test_envelope_density_infinite_values():
    sp = build_space("ab", [["a"], ["b"]])
    nu = MaxitiveMeasure(sp, [INF, 2])
    m = AdditiveMeasure(sp, [1, 1])
    rep = envelope_density(nu, m)
    assert rep.transformed
    assert rep.density.atom_values[0] == INF
    assert rep.density.atom_values[1] == 2.0
    assert rep.reconstruction_ok
    assert rep.envelope(0b01) == INF


def test_envelope_density_of_finite_atoms_whose_sum_overflows():
    # the atom sum is inf, with no overflow warning (an error under pytest)
    sp = build_space("ab", [["a"], ["b"]])
    rep = envelope_density(MaxitiveMeasure(sp, [1e308, 1e308]), AdditiveMeasure(sp, [1, 1]))
    assert list(rep.density.atom_values) == [1e308, 1e308]
    assert rep.envelope(0b11) == INF


@pytest.mark.parametrize("nu, m", [
    ([1e308, 1e308], [1, 1]),
    # a tiny atom that underflows when the atoms are scaled by 1e308
    ([1e308, 1e308, 1e-300], [1, 1, 1]),
    ([INF, 1e308, 1e308, 2.0], [1, 1.5, 0.5, 3]),
    ([8e307, 0.0, 9e307], [2, 0, 1.5]),
])
def test_reconstruction_holds_where_the_envelope_sum_overflows(nu, m):
    # the full set's envelope sum is inf; its ratio env / m is not
    labels = "abcd"[: len(nu)]
    sp = build_space(labels, [[l] for l in labels])
    rep = envelope_density(MaxitiveMeasure(sp, nu), AdditiveMeasure(sp, m))
    assert rep.envelope((1 << len(nu)) - 1) == INF
    assert rep.reconstruction_ok


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_an_infinite_atom_leaves_the_other_envelope_densities_unchanged(data):
    # the envelope density is nu_i m_i / m_i atom by atom, so an inf atom
    # takes the finite route's closed form and moves no other atom's value
    k = data.draw(st.integers(1, 6))
    finite = st.one_of(st.just(0.0), st.floats(1e-3, 1e13))
    vals = data.draw(st.lists(finite, min_size=k, max_size=k))
    masses = data.draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0.1, 10.0)), min_size=k, max_size=k)
    )
    j = data.draw(st.integers(0, k - 1))
    labels = [f"x{i}" for i in range(k)]
    space = build_space(labels, [[lab] for lab in labels])
    m = AdditiveMeasure(space, masses)
    finite_rep = envelope_density(MaxitiveMeasure(space, vals), m)
    vals[j] = INF
    inf_rep = envelope_density(MaxitiveMeasure(space, vals), m)
    assert inf_rep.transformed and not finite_rep.transformed
    assert inf_rep.density.atom_values[j] == (INF if masses[j] > 0 else 0.0)
    for i in range(k):
        if i != j:
            assert inf_rep.density.atom_values[i] == finite_rep.density.atom_values[i]


def test_envelope_uncharged_support_breaks_reconstruction():
    sp = build_space("ab", [["a"], ["b"]])
    nu = MaxitiveMeasure(sp, [1, 2])
    m = AdditiveMeasure(sp, [0, 1])
    rep = envelope_density(nu, m)
    # nothing charges atom a, so nu cannot be rebuilt from ratios
    assert not rep.reconstruction_ok
    assert rep.density.atom_values[1] == 2.0


# densities through an associated background measure


def test_associated_times(abc):
    mu = AdditiveMeasure(abc, [0.4, 0.3, 0.3])
    c1 = MeasurableFn(abc, [3, 1, 4])
    c2 = MeasurableFn(abc, [1, 2, 2])
    c = density_from_associated(TIMES, mu, c1, c2)
    assert [round(v, 12) for v in c.atom_values] == [3.0, 0.5, 2.0]


def test_associated_min(abc):
    mu = AdditiveMeasure(abc, [0.4, 0.3, 0.3])
    c2 = MeasurableFn(abc, [1, 2, 0.5])
    c1 = MeasurableFn(abc, [1, 1.5, 0.25])  # forced below c2
    c = density_from_associated(MIN, mu, c1, c2)
    assert list(c.atom_values) == [1.0, 1.5, 0.25]


def test_associated_negligibility(abc):
    c1 = MeasurableFn(abc, [3, 1, 2])
    c2 = MeasurableFn(abc, [1, 2, 2])
    # min bounds c1 by c2 pointwise; only atom a escapes
    mu = AdditiveMeasure(abc, [0.5, 0.25, 0.25])
    with pytest.raises(NegligibilityViolation):
        density_from_associated(MIN, mu, c1, c2)
    # the same escape on a mu-null atom is forgiven
    mu0 = AdditiveMeasure(abc, [0, 0.5, 0.5])
    c = density_from_associated(MIN, mu0, c1, c2)
    assert list(c.atom_values) == [0.0, 1.0, 2.0]


def test_associated_no_density_at_infinite_reference():
    sp = build_space("ab", [["a"], ["b"]])
    mu = AdditiveMeasure(sp, [0.5, 0.5])
    c1 = MeasurableFn(sp, [5, 1])
    c2 = MeasurableFn(sp, [INF, 1])
    with pytest.raises(NoDensity):
        density_from_associated(TIMES, mu, c1, c2)


def test_associated_agrees_with_residual_route():
    rng = rng_for(79)
    for _ in range(50):
        space = random_space(rng, int(rng.integers(1, 5)))
        mu = AdditiveMeasure(space, rng.uniform(0.2, 1.0, size=space.n_atoms))
        c2 = random_fn(rng, space, allow_zero=False)
        c1 = random_fn(rng, space)
        # build the esssup measures the associated route sees
        from maxitive.measures import esssup_measure

        nu_m = esssup_measure(mu.to_set_function(), c1)
        tau_m = esssup_measure(mu.to_set_function(), c2)
        via_assoc = density_from_associated(TIMES, mu, c1, c2)
        via_resid = rn_density(TIMES, nu_m, tau_m)
        ok, _ = verify_density(TIMES, via_assoc, nu_m, tau_m)
        assert ok
        assert ae_equal(tau_m, via_assoc, via_resid)
