"""Registry of executable invariants, one named entry per claim.

Every invariant is a seeded function that raises AssertionError (or a
domain error) when its claim fails; run_all collects pass/fail text per id.
The registry doubles as a coverage map: each entry declares which capability
area it exercises, and assert_complete() fails if an area goes dark. Counts
here are sized for an interactive run; the heavy sweeps live in the test
suite.
"""

from __future__ import annotations

import contextlib
import io
import math

from . import sampling
from .additive import (
    AdditiveMeasure,
    choquet_integral,
    classical_density,
    implication_chain,
    lebesgue_integral,
)
from .density import (
    ae_equal,
    density_from_associated,
    envelope_density,
    odot_abs_continuous,
    rn_density,
    verify_density,
)
from .errors import NoDensity, NotOdotAbsolutelyContinuous
from .integral import (
    atom_integral,
    density_measure,
    gerritse_integral,
    idempotent_integral,
    ky_fan_distance,
)
from .measures import (
    MaxitiveMeasure,
    atom_decomposition,
    choquet_alternating,
    classify,
    delta_measure,
    disjoint_variation,
    essential_supremum,
    essential_witness,
    finiteness_suite,
    is_maxitive,
)
from .possibility import (
    PossibilitySpace,
    SubAlgebra,
    conditional,
    conditional_suite,
    law,
    power_mean_limit,
)
from .records import Record
from .semigroup import (
    MIN,
    PLUS,
    TIMES,
    by_name,
    default_grid,
    exactness_holds,
    galois_holds,
    inf_distributes,
    verify_axioms,
)
from .spaces import INF, MeasurableFn, MeasurableSet, build_space, close, le, np
from .supmeasure import (
    compare_modes_check,
    extremal_integral,
    frechet_marginal_check,
    scale_recovery_check,
    tail_ratio_check,
)

AREAS = (
    "space_core",
    "pseudo_mul",
    "maxitive",
    "integral",
    "radon_nikodym",
    "possibility",
    "supmeasure_sim",
    "classical_bridge",
    "cli",
)


class Invariant(Record):
    id: str
    area: str
    summary: str
    fn: object


INVARIANTS = {}


def _register(id, area, summary):
    if area not in AREAS:
        raise ValueError(f"unknown area {area}")

    def deco(fn):
        INVARIANTS[id] = Invariant(id=id, area=area, summary=summary, fn=fn)
        return fn

    return deco


def _space4():
    return build_space(list("abcd"), [["a"], ["b"], ["c"], ["d"]])


# --------------------------------------------------------------- space_core


@_register("set-algebra-laws", "space_core", "complement and de Morgan laws on random sets")
def _inv_set_algebra(seed, tol):
    rng = sampling.rng_for(seed, 1)
    for k in (1, 3, 5):
        space = sampling.random_space(rng, k)
        for _ in range(20):
            a = sampling.random_set(rng, space, nonempty=False)
            b = sampling.random_set(rng, space, nonempty=False)
            assert (~(a | b)).mask == ((~a) & (~b)).mask
            assert (~(a & b)).mask == ((~a) | (~b)).mask
            assert (a - b).mask == (a & ~b).mask
            assert (a <= (a | b)) and ((a & b) <= a)


@_register("label-set-roundtrip", "space_core", "sets survive label naming and back")
def _inv_labels(seed, tol):
    rng = sampling.rng_for(seed, 2)
    space = sampling.random_space(rng, 5)
    for _ in range(20):
        s = sampling.random_set(rng, space, nonempty=False)
        assert space.mask_named(space.set_name(s.mask)) == s.mask


# --------------------------------------------------------------- pseudo_mul


@_register("axioms-builtin", "pseudo_mul", "times and min are pseudo-multiplications; plus and max are not")
def _inv_axioms(seed, tol):
    for name in ("times", "min"):
        rep = verify_axioms(by_name(name))
        assert rep.pseudo_multiplication, (name, rep.witnesses)
    for name in ("plus", "max"):
        rep = verify_axioms(by_name(name))
        assert rep.associative and rep.monotone and rep.left_identity
        assert not rep.annihilator


@_register("residual-galois", "pseudo_mul", "r <= t.s iff r/s <= t on the residual-defined region")
def _inv_galois(seed, tol):
    grid = default_grid()
    for op in (TIMES, MIN):
        for r in grid:
            for s in grid:
                if not op.residual_defined(r, s):
                    continue
                for t in grid:
                    assert galois_holds(op, r, s, t, tol), (op.name, r, s, t)


@_register("residual-exactness", "pseudo_mul", "residuals attain their value for exact operations")
def _inv_exact(seed, tol):
    grid = default_grid()
    for op in (TIMES, MIN):
        for r in grid:
            for s in grid:
                if op.residual_defined(r, s) and op.abs_cont(r, s):
                    assert exactness_holds(op, r, s, tol), (op.name, r, s)
    # plus only dominates: 5 = (5 - 3) + 3 is exact, but under min no
    # residual recovers r when r > s, and under plus when s > r > 0
    assert PLUS.residual(3.0, 5.0) == 0.0 and PLUS(0.0, 5.0) != 3.0


@_register("inf-distributivity", "pseudo_mul", "inf over a finite family distributes over the operation")
def _inv_inf_dist(seed, tol):
    rng = sampling.rng_for(seed, 3)
    grid = default_grid()
    for op in (TIMES, MIN):
        for _ in range(50):
            vals = [float(rng.choice(grid)) for _ in range(3)]
            s = float(rng.choice(grid))
            assert inf_distributes(op, vals, s, tol)


@_register("omap-limits", "pseudo_mul", "the O map matches the small-argument limit of the operation")
def _inv_omap(seed, tol):
    for op in (TIMES, MIN):
        for t in default_grid():
            probe = op(1e-12, t)
            target = op.omap(t)
            assert abs(math.atan(probe) - math.atan(target)) < 1e-6, (op.name, t)


# ----------------------------------------------------------------- maxitive


@_register("classify-maxitive", "maxitive", "random maxitive measures wear every expected flag")
def _inv_classify(seed, tol):
    rng = sampling.rng_for(seed, 4)
    for k in (2, 3, 4):
        space = sampling.random_space(rng, k)
        for _ in range(5):
            nu = sampling.random_maxitive(rng, space, allow_inf=True)
            rep = classify(nu.to_set_function(), tol)
            for flag in ("monotone", "null_additive", "maxitive",
                         "completely_maxitive", "continuous_from_above",
                         "exhaustive", "ccc", "sigma_principal",
                         "autocontinuous", "essential"):
                assert getattr(rep, flag), (flag, rep.witnesses)
            assert rep.finite == bool(np.isfinite(nu.atom_values).all())
            assert rep.of_bounded_variation == rep.finite


@_register("non-maxitive-witness", "maxitive", "additive tables fail maxitivity with a checkable witness")
def _inv_non_max(seed, tol):
    rng = sampling.rng_for(seed, 5)
    for _ in range(10):
        space = sampling.random_space(rng, int(rng.integers(2, 5)))
        w, _ = sampling.random_non_maxitive(rng, space)
        ok, wit = is_maxitive(w, tol)
        assert not ok
        b1, b2, got, expected = wit
        assert not close(got, expected, tol)
        assert float(w.table[b1 | b2]) == got


@_register("alternation", "maxitive", "maxitive measures are alternating of every checked order")
def _inv_alternation(seed, tol):
    rng = sampling.rng_for(seed, 6)
    for _ in range(10):
        space = sampling.random_space(rng, 3)
        nu = sampling.random_maxitive(rng, space)
        rep = choquet_alternating(nu.to_set_function(), order=3, tol=tol)
        assert rep.ok, rep.witness


@_register("atom-decomposition", "maxitive", "single-atom blocks decompose the measure; leftovers are null")
def _inv_decomposition(seed, tol):
    rng = sampling.rng_for(seed, 7)
    for _ in range(10):
        space = sampling.random_space(rng, int(rng.integers(1, 7)))
        nu = sampling.random_maxitive(rng, space, allow_inf=True)
        dec = atom_decomposition(nu)
        vals = list(dec.values)
        assert vals == sorted(vals, reverse=True)
        assert nu(dec.residual_null) == 0.0


@_register("disjoint-variation", "maxitive", "partition sup equals the atom-value sum")
def _inv_variation(seed, tol):
    rng = sampling.rng_for(seed, 8)
    for _ in range(10):
        space = sampling.random_space(rng, int(rng.integers(1, 6)))
        nu = sampling.random_maxitive(rng, space, allow_inf=True)
        var = disjoint_variation(nu)
        # a drawn partition sums to at most |nu|, the singletons to |nu|
        sub = sampling.random_subalgebra(rng, space)
        assert le(sum(map(nu, sub.blocks)), var, tol), (sub, var)
        assert close(sum(map(nu, SubAlgebra.atoms(space).blocks)), var, tol), var


@_register("essential-witness", "maxitive", "an additive measure shares the null sets of a finite maxitive one")
def _inv_essential(seed, tol):
    rng = sampling.rng_for(seed, 9)
    for _ in range(10):
        space = sampling.random_space(rng, int(rng.integers(1, 6)))
        nu = sampling.random_maxitive(rng, space)
        w = essential_witness(nu)
        for b in space.sets():
            assert (w(b) == 0.0) == (nu(b) == 0.0), b


@_register("finiteness-notions", "maxitive", "semi-finiteness collapses to plain op-finiteness")
def _inv_finiteness(seed, tol):
    rng = sampling.rng_for(seed, 10)
    for _ in range(10):
        space = sampling.random_space(rng, int(rng.integers(1, 6)))
        nu = sampling.random_maxitive(rng, space, allow_inf=True)
        for op in (TIMES, MIN):
            rep = finiteness_suite(op, nu)
            assert rep.semi_odot_finite == rep.odot_finite
            if op is MIN:
                assert rep.odot_finite and rep.sigma_odot_finite


@_register("esssup-dual-route", "maxitive", "level sweep and atom max agree on essential suprema")
def _inv_esssup(seed, tol):
    rng = sampling.rng_for(seed, 11)
    for _ in range(20):
        space = sampling.random_space(rng, int(rng.integers(1, 6)))
        nu = sampling.random_maxitive(rng, space)
        f = sampling.random_fn(rng, space, allow_inf=True)
        b = sampling.random_set(rng, space, nonempty=False)
        essential_supremum(nu.to_set_function(), f, b, tol)


# ----------------------------------------------------------------- integral


@_register("integral-fixtures", "integral", "hand-checked integrals hit exactly")
def _inv_fixtures(seed, tol):
    space = build_space(list("abc"), [["a"], ["b"], ["c"]])
    f = MeasurableFn(space, [3.0, 1.0, 4.0])
    nu = MaxitiveMeasure(space, [1.0, 2.0, 0.5])
    assert idempotent_integral(TIMES, f, nu, crosscheck=True).value == 3.0
    assert idempotent_integral(MIN, f, nu, crosscheck=True).value == 1.0


@_register("integral-three-routes", "integral", "sweep, submask oracle, and atom form agree")
def _inv_three_routes(seed, tol):
    rng = sampling.rng_for(seed, 12)
    for _ in range(30):
        space = sampling.random_space(rng, int(rng.integers(1, 6)))
        nu = sampling.random_maxitive(rng, space, allow_inf=True)
        f = sampling.random_fn(rng, space, allow_inf=True)
        b = sampling.random_set(rng, space, nonempty=False)
        op = TIMES if rng.uniform() < 0.5 else MIN
        a = idempotent_integral(op, f, nu, b, tol).value
        g = gerritse_integral(op, f, nu, b)
        c = atom_integral(op, f, nu, b)
        assert close(a, g, tol) and close(a, c, tol), (a, g, c)


@_register("integral-homogeneity", "integral", "scalars pull out of the integral")
def _inv_homogeneity(seed, tol):
    rng = sampling.rng_for(seed, 13)
    for _ in range(20):
        space = sampling.random_space(rng, int(rng.integers(1, 5)))
        nu = sampling.random_maxitive(rng, space)
        f = sampling.random_fn(rng, space)
        for op in (TIMES, MIN):
            for lam in (0.25, 3.0):
                lam_fn = MeasurableFn.constant(space, lam)
                lhs = idempotent_integral(op, lam_fn.pointwise(op, f), nu).value
                rhs = op(lam, idempotent_integral(op, f, nu).value)
                assert close(lhs, rhs, tol), (op.name, lam, lhs, rhs)


@_register("integral-indicator", "integral", "integrating the unit indicator returns the measure")
def _inv_indicator(seed, tol):
    rng = sampling.rng_for(seed, 14)
    for _ in range(20):
        space = sampling.random_space(rng, int(rng.integers(1, 5)))
        nu = sampling.random_maxitive(rng, space, allow_inf=True)
        b = sampling.random_set(rng, space, nonempty=False)
        for op in (TIMES, MIN):
            one = MeasurableFn.indicator(space, b, one=op.left_identity)
            got = idempotent_integral(op, one, nu).value
            assert close(got, nu(b), tol), (op.name, got, nu(b))


@_register("integral-domain-maxitive", "integral", "the integral is maxitive in its domain")
def _inv_domain(seed, tol):
    rng = sampling.rng_for(seed, 15)
    for _ in range(20):
        space = sampling.random_space(rng, int(rng.integers(1, 5)))
        nu = sampling.random_maxitive(rng, space, allow_inf=True)
        f = sampling.random_fn(rng, space, allow_inf=True)
        b1 = sampling.random_set(rng, space, nonempty=False)
        b2 = sampling.random_set(rng, space, nonempty=False)
        for op in (TIMES, MIN):
            u = idempotent_integral(op, f, nu, b1 | b2).value
            m = max(
                idempotent_integral(op, f, nu, b1).value,
                idempotent_integral(op, f, nu, b2).value,
            )
            assert close(u, m, tol)


@_register("density-composition", "integral", "integrating against f.nu is integrating f-scaled")
def _inv_composition(seed, tol):
    rng = sampling.rng_for(seed, 16)
    for _ in range(20):
        space = sampling.random_space(rng, int(rng.integers(1, 5)))
        nu = sampling.random_maxitive(rng, space)
        f = sampling.random_fn(rng, space)
        g = sampling.random_fn(rng, space)
        tau = density_measure(TIMES, f, nu)
        lhs = idempotent_integral(TIMES, g, tau).value
        rhs = idempotent_integral(TIMES, g.pointwise(TIMES, f), nu).value
        assert close(lhs, rhs, tol)
        # under min the same identity needs values inside [0, 1]
        h = MeasurableFn(space, [min(1.0, v) for v in map(float, g.atom_values)])
        fc = MeasurableFn(space, [min(1.0, v) for v in map(float, f.atom_values)])
        tau2 = density_measure(MIN, fc, nu)
        lhs2 = idempotent_integral(MIN, h, tau2).value
        rhs2 = idempotent_integral(MIN, h.pointwise(MIN, fc), nu).value
        assert close(lhs2, rhs2, tol)


@_register("kyfan-metric", "integral", "the possibility distance is a pseudometric with the right fixture")
def _inv_kyfan(seed, tol):
    space = build_space(list("ab"), [["a"], ["b"]])
    nu = MaxitiveMeasure(space, [0.2, 1.0])
    f = MeasurableFn(space, [5.0, 0.0])
    zero = MeasurableFn.constant(space, 0.0)
    assert close(ky_fan_distance(nu, f, zero), 0.2, tol)
    rng = sampling.rng_for(seed, 17)
    for _ in range(20):
        sp = sampling.random_space(rng, int(rng.integers(1, 5)))
        m = sampling.random_maxitive(rng, sp)
        a = sampling.random_fn(rng, sp)
        b = sampling.random_fn(rng, sp)
        c = sampling.random_fn(rng, sp)
        dab = ky_fan_distance(m, a, b)
        assert close(dab, ky_fan_distance(m, b, a), tol)
        assert ky_fan_distance(m, a, a) == 0.0
        assert le(dab, ky_fan_distance(m, a, c) + ky_fan_distance(m, c, b), tol)


# ------------------------------------------------------------ radon_nikodym


@_register("density-roundtrip", "radon_nikodym", "build nu = c.tau, recover a density, rebuild nu")
def _inv_roundtrip(seed, tol):
    rng = sampling.rng_for(seed, 18)
    for _ in range(20):
        space = sampling.random_space(rng, int(rng.integers(1, 6)))
        tau = sampling.random_maxitive(rng, space, allow_inf=True)
        for op in (TIMES, MIN):
            c = sampling.random_fn(rng, space)
            nu = density_measure(op, c, tau)
            got = rn_density(op, nu, tau, tol)
            ok, wit = verify_density(op, got, nu, tau, tol)
            assert ok, wit
            if op is TIMES and np.isfinite(tau.atom_values).all():
                assert ae_equal(tau.to_set_function(), got, c, tol)


@_register("density-counterexample", "radon_nikodym", "point mass against its infinite double has no density")
def _inv_counterexample(seed, tol):
    space = build_space(list("ab"), [["a"], ["b"]])
    nu = MaxitiveMeasure(space, [1.0, 0.0])
    tau = MaxitiveMeasure(space, [INF, 0.0])
    rep = odot_abs_continuous(TIMES, nu, tau, tol)
    assert rep.holds
    try:
        rn_density(TIMES, nu, tau, tol)
    except NoDensity:
        return
    raise AssertionError("a density came back where none can exist")


@_register("envelope-density", "radon_nikodym", "the partition envelope is additive with density nu")
def _inv_envelope(seed, tol):
    rng = sampling.rng_for(seed, 19)
    for _ in range(15):
        space = sampling.random_space(rng, int(rng.integers(1, 6)))
        nu = sampling.random_maxitive(rng, space)
        # reconstruction needs the control mass to charge the support
        m = AdditiveMeasure(
            space,
            [float(round(rng.uniform(0.5, 2.0), 6)) for _ in range(space.n_atoms)],
        )
        rep = envelope_density(nu, m, tol)
        assert rep.reconstruction_ok
        for i in range(space.n_atoms):
            if float(m.atom_masses[i]) > 0:
                assert close(
                    float(rep.density.atom_values[i]), float(nu.atom_values[i]), tol
                )


@_register("envelope-inf-transform", "radon_nikodym", "an infinite atom takes the finite atoms' closed form and comes back exactly")
def _inv_envelope_inf(seed, tol):
    rng = sampling.rng_for(seed, 20)
    for _ in range(10):
        space = sampling.random_space(rng, int(rng.integers(2, 6)))
        vals = sampling.random_values(rng, space.n_atoms)
        vals[int(rng.integers(space.n_atoms))] = INF
        nu = MaxitiveMeasure(space, vals)
        m = AdditiveMeasure(space, [float(round(rng.uniform(0.5, 2.0), 6)) for _ in vals])
        rep = envelope_density(nu, m, tol)
        assert rep.transformed
        for d, v in zip(rep.density.atom_values, nu.atom_values):
            assert close(float(d), float(v), tol)


@_register("associated-density", "radon_nikodym", "densities over a background measure residuate correctly")
def _inv_associated(seed, tol):
    rng = sampling.rng_for(seed, 21)
    for _ in range(15):
        space = sampling.random_space(rng, int(rng.integers(1, 6)))
        mu = sampling.random_additive(rng, space)
        c2 = MeasurableFn(space, [float(round(rng.uniform(0.1, 9.0), 6)) for _ in range(space.n_atoms)])
        for op in (TIMES, MIN):
            raw = sampling.random_fn(rng, space)
            if op is MIN:
                c1 = raw.pointwise(min, c2)
            else:
                c1 = raw
            density_from_associated(op, mu, c1, c2, tol)


@_register("abs-continuity-gates", "radon_nikodym", "extraction refuses pairs that are not absolutely continuous")
def _inv_abs_cont_gate(seed, tol):
    space = build_space(list("ab"), [["a"], ["b"]])
    nu = MaxitiveMeasure(space, [1.0, 2.0])
    tau = MaxitiveMeasure(space, [1.0, 0.0])
    try:
        rn_density(TIMES, nu, tau, tol)
    except NotOdotAbsolutelyContinuous:
        return
    raise AssertionError("missing absolute continuity was not detected")


# -------------------------------------------------------------- possibility


@_register("conditional-fixture", "possibility", "the worked conditioning example lands exactly")
def _inv_cond_fixture(seed, tol):
    space = _space4()
    pi = PossibilitySpace(space, [1.0, 0.5, 0.25, 1.0])
    x = MeasurableFn(space, [2.0, 5.0, 3.0, 1.0])
    sub = SubAlgebra.from_string(space, "a+b|c+d")
    y = conditional(TIMES, x, pi, sub, tol)
    assert [float(v) for v in y.atom_values] == [2.5, 2.5, 1.0, 1.0]


@_register("conditional-laws", "possibility", "uniqueness, monotonicity, homogeneity, tower, and totals hold")
def _inv_cond_laws(seed, tol):
    rng = sampling.rng_for(seed, 22)
    for _ in range(10):
        space = sampling.random_space(rng, int(rng.integers(2, 6)))
        pi = sampling.random_possibility(rng, space)
        x = sampling.random_fn(rng, space)
        sub = sampling.random_subalgebra(rng, space)
        for op in (TIMES, MIN):
            rep = conditional_suite(op, x, pi, sub, tol)
            assert rep.all_hold(), (op.name, rep.details)


@_register("law-pushforward", "possibility", "the law is a possibility distribution on the range")
def _inv_law(seed, tol):
    rng = sampling.rng_for(seed, 23)
    for _ in range(10):
        space = sampling.random_space(rng, int(rng.integers(1, 6)))
        pi = sampling.random_possibility(rng, space)
        x = sampling.random_fn(rng, space)
        l = law(x, pi, tol)
        assert close(max(l.possibilities), 1.0, tol)
        for v, p in zip(l.values, l.possibilities):
            assert l(v) == p


@_register("power-mean-limit", "possibility", "conditional power means approach the maxitive conditional")
def _inv_power_mean(seed, tol):
    space = _space4()
    m = AdditiveMeasure(space, [0.25] * 4)
    x = MeasurableFn(space, [2.0, 5.0, 3.0, 1.0])
    sub = SubAlgebra.from_string(space, "a+b|c+d")
    rep = power_mean_limit(m, x, sub)
    gaps = rep.max_rel_gap
    assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-2


# ------------------------------------------------------------ supmeasure_sim


@_register("marginal-ks", "supmeasure_sim", "exact-mode marginals pass a one-sample KS test")
def _inv_marginal(seed, tol):
    space = _space4()
    m = AdditiveMeasure(space, [0.25] * 4)
    rep = frechet_marginal_check(m, 2.0, sampling.rng_for(seed, 24), n=2000)
    assert rep.passed, rep


@_register("mode-agreement", "supmeasure_sim", "point-process mode matches exact mode in distribution")
def _inv_modes(seed, tol):
    space = _space4()
    m = AdditiveMeasure(space, [0.4, 0.3, 0.2, 0.1])
    rep = compare_modes_check(m, 2.0, sampling.rng_for(seed, 25), n=2000, eps=1e-2)
    assert rep.passed, rep


@_register("scale-recovery", "supmeasure_sim", "the extremal integral is the fitted Frechet scale")
def _inv_scale(seed, tol):
    space = _space4()
    m = AdditiveMeasure(space, [0.4, 0.3, 0.2, 0.1])
    f = MeasurableFn(space, [1.0, 2.0, 0.5, 3.0])
    rep = scale_recovery_check(f, m, 2.0, sampling.rng_for(seed, 26), n=4000, rel_tol=0.1)
    assert rep.passed, rep


@_register("tail-ratio", "supmeasure_sim", "survival at high quantiles tracks the regular-variation formula")
def _inv_tail(seed, tol):
    space = build_space(["a"], [["a"]])
    m = AdditiveMeasure(space, [1.0])
    f = MeasurableFn(space, [1.0])
    for slowly in ("const", "log"):
        rep = tail_ratio_check(
            f, m, 2.0, sampling.rng_for(seed, 27), n=100_000,
            slowly=slowly, level=0.995, band=(0.85, 1.15),
        )
        assert rep.passed, (slowly, rep)


@_register("extremal-integral-form", "supmeasure_sim", "the scale formula is the p-norm against the control mass")
def _inv_extremal(seed, tol):
    rng = sampling.rng_for(seed, 28)
    space = _space4()
    for _ in range(10):
        m = sampling.random_additive(rng, space)
        f = sampling.random_fn(rng, space)
        p = float(rng.uniform(0.5, 4.0))
        direct = sum(
            float(f.atom_values[i]) ** p * float(m.atom_masses[i])
            for i in range(4)
            if float(f.atom_values[i]) > 0 and float(m.atom_masses[i]) > 0
        ) ** (1.0 / p)
        assert close(extremal_integral(f, m, p), direct, tol)


# ---------------------------------------------------------- classical_bridge


@_register("classical-density", "classical_bridge", "additive densities extract and verify, or refuse honestly")
def _inv_classical(seed, tol):
    rng = sampling.rng_for(seed, 29)
    for _ in range(15):
        space = sampling.random_space(rng, int(rng.integers(1, 6)))
        m = sampling.random_additive(rng, space)
        c = sampling.random_fn(rng, space)
        masses = [
            float(c.atom_values[i]) * float(m.atom_masses[i])
            if float(m.atom_masses[i]) > 0 and float(c.atom_values[i]) > 0
            else 0.0
            for i in range(space.n_atoms)
        ]
        nu = AdditiveMeasure(space, masses)
        got = classical_density(nu, m, tol)
        for b in range(space.n_sets):
            assert close(
                lebesgue_integral(got, m, MeasurableSet(space, b)), nu(b), tol
            )


@_register("sigma-finite-obstruction", "classical_bridge", "an infinite atom blocks the classical density")
def _inv_obstruction(seed, tol):
    space = build_space(list("ab"), [["a"], ["b"]])
    m = AdditiveMeasure(space, [INF, 1.0])
    nu = AdditiveMeasure(space, [1.0, 1.0])
    try:
        classical_density(nu, m, tol)
    except NoDensity:
        pass
    else:
        raise AssertionError("expected the infinite-mass refusal")
    rep = implication_chain(m)
    assert rep.chain_holds and not rep.sigma_finite and rep.localizable


@_register("implication-chain", "classical_bridge", "finite, sigma-finite, semi-finite, localizable line up")
def _inv_chain(seed, tol):
    rng = sampling.rng_for(seed, 30)
    for _ in range(10):
        space = sampling.random_space(rng, int(rng.integers(1, 5)))
        m = sampling.random_additive(rng, space, allow_inf=True)
        rep = implication_chain(m)
        assert rep.chain_holds
        assert rep.finite == rep.sigma_finite == rep.semi_finite


@_register("choquet-reduces", "classical_bridge", "the survival integral of an additive measure is Lebesgue")
def _inv_choquet(seed, tol):
    rng = sampling.rng_for(seed, 31)
    for _ in range(15):
        space = sampling.random_space(rng, int(rng.integers(1, 5)))
        m = sampling.random_additive(rng, space)
        f = sampling.random_fn(rng, space)
        assert close(
            choquet_integral(f, m.to_set_function()),
            lebesgue_integral(f, m),
            tol,
        )


@_register("esssup-as-conditional", "classical_bridge", "the two-valued conditional is the blockwise essential sup")
def _inv_esssup_cond(seed, tol):
    rng = sampling.rng_for(seed, 32)
    for _ in range(10):
        space = sampling.random_space(rng, 4)
        m = sampling.random_probability(rng, space)
        x = sampling.random_fn(rng, space)
        sub = sampling.random_subalgebra(rng, space)
        delta = delta_measure(MaxitiveMeasure(space, m.atom_masses))
        y = conditional(TIMES, x, delta, sub, tol)
        for b in sub.blocks:
            idx = MeasurableSet(space, b).atom_indices()
            ess = max(
                (float(x.atom_values[i]) for i in idx if float(m.atom_masses[i]) > 0),
                default=0.0,
            )
            assert close(float(y.atom_values[idx[0]]), ess, tol)


# ------------------------------------------------------------------- cli


@_register("cli-deterministic", "cli", "a seeded command prints byte-identical output twice")
def _inv_cli(seed, tol):
    # local: cli imports this module for INVARIANTS and run_all
    from . import cli

    argv = [
        "simulate", "--atoms", "a:0.5,b:0.5", "--p", "2", "--n", "5",
        "--seed", str(int(seed) + 7), "--mode", "exact",
    ]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        assert rc == 0
        outs.append(buf.getvalue())
    assert outs[0] == outs[1] and outs[0].strip()


# ---------------------------------------------------------------------------


class SuiteReport(Record):
    results: dict
    ok: bool


def run_all(seed=0, tol=1e-9, ids=None):
    """Run the registered invariants; collect per-id pass/fail text."""
    chosen = sorted(INVARIANTS) if ids is None else list(ids)
    results = {}
    ok = True
    for id in chosen:
        inv = INVARIANTS[id]
        try:
            inv.fn(seed, tol)
            results[id] = "pass"
        except Exception as exc:  # report, keep going
            results[id] = f"fail: {type(exc).__name__}: {exc}"
            ok = False
    return SuiteReport(results=results, ok=ok)


def assert_complete():
    """Every capability area must keep at least two invariants (cli: one)."""
    counts = {a: 0 for a in AREAS}
    for inv in INVARIANTS.values():
        counts[inv.area] += 1
    thin = [a for a, c in counts.items() if c < (1 if a == "cli" else 2)]
    if thin:
        raise AssertionError(f"areas without enough invariants: {thin}")
    return counts
