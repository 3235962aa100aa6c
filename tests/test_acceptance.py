"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "ACCEPTANCE n: PASS/FAIL - ..." line (run pytest
with -s to see them) and then asserts, so a red criterion is visible both in
the line and in the pytest report. Random material is drawn from fixed seeds;
the statistical criteria use margins of three-plus standard deviations.
"""

import math
import subprocess
import sys
import time

import numpy as np

from maxitive.additive import AdditiveMeasure
from maxitive.density import (
    ae_equal,
    density_from_associated,
    envelope_density,
    odot_abs_continuous,
    rn_density,
)
from maxitive.errors import NoDensity
from maxitive.integral import (
    atom_integral,
    density_measure,
    gerritse_integral,
    idempotent_integral,
)
from maxitive.measures import (
    MaxitiveMeasure,
    atom_decomposition,
    choquet_alternating,
    classify,
    counting_delta,
    disjoint_variation,
    is_maxitive,
)
from maxitive.possibility import SubAlgebra, conditional, conditional_suite, power_mean_limit
from maxitive.sampling import (
    random_fn,
    random_maxitive,
    random_non_maxitive,
    random_possibility,
    random_set,
    random_space,
    random_subalgebra,
    rng_for,
)
from maxitive.semigroup import (
    MAX,
    MIN,
    PLUS,
    TIMES,
    default_grid,
    galois_holds,
    inf_distributes,
)
from maxitive.spaces import INF, MeasurableFn, MeasurableSet, build_space, close
from maxitive.supmeasure import (
    compare_modes_check,
    extremal_integral,
    frechet_marginal_check,
    sample_matrix,
    scale_recovery_check,
    tail_ratio_check,
)


def _check(num, desc, fn):
    """Run fn; print one PASS/FAIL line for the criterion, then re-raise."""
    try:
        extra = fn()
    except BaseException as exc:
        print(f"ACCEPTANCE {num}: FAIL - {desc} [{type(exc).__name__}: {exc}]")
        raise
    line = f"ACCEPTANCE {num}: PASS - {desc}"
    if extra:
        line = f"{line} ({extra})"
    print(line)


def _abc():
    return build_space("abc", [["a"], ["b"], ["c"]])


def _abcd():
    return build_space("abcd", [["a"], ["b"], ["c"], ["d"]])


def test_criterion_01_alternation():
    def body():
        t0 = time.monotonic()
        rng = rng_for(20240819, 1)
        for i in range(200):
            space = random_space(rng, int(rng.integers(2, 5)))
            nu = random_maxitive(rng, space, allow_inf=(i % 5 == 0))
            rep = choquet_alternating(nu, order=4)
            assert rep.ok, (i, rep.witness, rep.min_signed_value)
        for i in range(50):
            space = random_space(rng, int(rng.integers(2, 5)))
            w, _ = random_non_maxitive(rng, space)
            rep = classify(w)
            assert not rep.maxitive
            b1, b2, got, expect = rep.witnesses["maxitive"]
            # re-derive the violation straight from the table
            assert got == float(w.table[b1 | b2])
            assert expect == max(float(w.table[b1]), float(w.table[b2]))
            assert not close(got, expect, 1e-9)
        dt = time.monotonic() - t0
        assert dt < 10.0, f"took {dt:.2f}s"
        return f"{dt:.2f}s"

    _check(1, "order-4 alternation on 200 maxitive measures, 50 verified counterexamples", body)


def test_criterion_02_integral_oracles():
    def body():
        rng = rng_for(20240819, 2)
        for i in range(1000):
            space = random_space(rng, int(rng.integers(1, 6)))
            op = TIMES if i % 2 == 0 else MIN
            f = random_fn(rng, space, allow_inf=True)
            nu = random_maxitive(rng, space, allow_inf=True)
            b = random_set(rng, space, nonempty=False)
            sweep = idempotent_integral(op, f, nu, b).value
            ger = gerritse_integral(op, f, nu, b)
            atom = atom_integral(op, f, nu, b)
            assert close(sweep, ger, 1e-12), (i, op.name, sweep, ger)
            assert close(sweep, atom, 1e-12), (i, op.name, sweep, atom)
        space = _abc()
        f = MeasurableFn(space, [3.0, 1.0, 4.0])
        nu = MaxitiveMeasure(space, [1.0, 2.0, 0.5])
        assert idempotent_integral(TIMES, f, nu).value == 3.0
        assert idempotent_integral(MIN, f, nu).value == 1.0

    _check(2, "sweep, submask and atom evaluators agree on 1000 tuples; fixtures 3.0 and 1.0 exact", body)


def test_criterion_03_integral_calculus():
    def body():
        rng = rng_for(20240819, 3)
        lambdas = [0.0, 0.5, 1.0, 2.5, 7.0, INF]
        for i in range(100):
            space = random_space(rng, int(rng.integers(1, 6)))
            op = TIMES if i % 2 == 0 else MIN
            allow_inf = i % 5 == 0
            nu = random_maxitive(rng, space, allow_inf=allow_inf)
            f = random_fn(rng, space, allow_inf=allow_inf)

            # indicator recovers the measure on every set
            one = op.left_identity
            for b in range(space.n_sets):
                ind = MeasurableFn.indicator(space, MeasurableSet(space, b), one=one)
                got = idempotent_integral(op, ind, nu).value
                assert close(got, nu(b), 1e-9), (i, op.name, b, got)

            # homogeneity in a scalar factor
            lam = lambdas[i % len(lambdas)]
            scaled = f.pointwise(lambda v: op(lam, v))
            lhs = idempotent_integral(op, scaled, nu).value
            rhs = op(lam, idempotent_integral(op, f, nu).value)
            assert close(lhs, rhs, 1e-9), (i, op.name, lam, lhs, rhs)

            # maxitivity in the integrand over a finite family
            g = random_fn(rng, space, allow_inf=allow_inf)
            h = random_fn(rng, space, allow_inf=allow_inf)
            fam_max = f.pointwise(max, g).pointwise(max, h)
            lhs = idempotent_integral(op, fam_max, nu).value
            rhs = max(
                idempotent_integral(op, q, nu).value for q in (f, g, h)
            )
            assert close(lhs, rhs, 1e-9), (i, op.name, lhs, rhs)

            # the restriction map is itself a maxitive measure
            restriction = density_measure(op, f, nu)
            assert restriction(0) == 0.0
            ok, wit = is_maxitive(restriction)
            assert ok, (i, op.name, wit)

    _check(3, "indicator, homogeneity, integrand maxitivity and domain maxitivity on 100 instances each", body)


def test_criterion_04_density_round_trip():
    def body():
        rng = rng_for(20240819, 4)
        for op in (TIMES, MIN):
            for i in range(500):
                space = random_space(rng, int(rng.integers(1, 6)))
                tau = random_maxitive(rng, space, allow_inf=True)
                c = random_fn(rng, space, allow_inf=True)
                nu = density_measure(op, c, tau)
                d = rn_density(op, nu, tau)
                back = density_measure(op, d, tau)
                for b in range(space.n_sets):
                    assert close(back(b), nu(b), 1e-9), (op.name, i, b)
                # second extraction route through a common background measure
                mu = AdditiveMeasure(space, [1.0] * space.n_atoms)
                c1 = MeasurableFn(space, [float(v) for v in nu.atom_values])
                c2 = MeasurableFn(space, [float(v) for v in tau.atom_values])
                d2 = density_from_associated(op, mu, c1, c2)
                assert ae_equal(tau, d, d2, 1e-9), (op.name, i)
        # point mass against its infinite scaling: absolutely continuous,
        # yet no density exists under the product operation
        space = _abc()
        nu = MaxitiveMeasure(space, [1.0, 0.0, 0.0])
        tau = MaxitiveMeasure(space, [INF, 0.0, 0.0])
        assert odot_abs_continuous(TIMES, nu, tau).holds
        refused = False
        try:
            rn_density(TIMES, nu, tau)
        except NoDensity:
            refused = True
        assert refused

    _check(4, "500 density round trips per operation, extraction routes agree a.e., point-mass refusal", body)


def test_criterion_05_additive_envelope():
    def body():
        rng = rng_for(20240819, 5)
        for i in range(100):
            space = random_space(rng, int(rng.integers(1, 6)))
            nu = random_maxitive(rng, space)
            m = AdditiveMeasure(
                space, [float(rng.uniform(0.2, 3.0)) for _ in range(space.n_atoms)]
            )
            rep = envelope_density(nu, m)
            assert rep.reconstruction_ok, i
            assert not rep.transformed
            # the envelope is the additive measure with atom masses nu_i m_i
            for b in range(space.n_sets):
                atom_sum = sum(
                    float(nu.atom_values[j]) * float(m.atom_masses[j])
                    for j in MeasurableSet(space, b).atom_indices()
                )
                assert close(rep.envelope(b), atom_sum, 1e-9), (i, b)
            # density agrees with the residual extraction against delta_m
            other = rn_density(TIMES, nu, counting_delta(space))
            assert ae_equal(counting_delta(space), rep.density, other, 1e-9), i
        for i in range(20):
            space = random_space(rng, int(rng.integers(1, 6)))
            vals = [float(rng.uniform(0.1, 4.0)) for _ in range(space.n_atoms)]
            vals[int(rng.integers(space.n_atoms))] = INF
            nu = MaxitiveMeasure(space, vals)
            m = AdditiveMeasure(
                space, [float(rng.uniform(0.2, 3.0)) for _ in range(space.n_atoms)]
            )
            rep = envelope_density(nu, m)
            assert rep.transformed and rep.reconstruction_ok, i
            assert rep.envelope(space.full_mask) == INF
            for j in range(space.n_atoms):
                assert close(float(rep.density.atom_values[j]), vals[j], 1e-9), (i, j)

    _check(5, "additive envelope reconstructs 100 finite measures and 20 infinite ones by the same closed form", body)


def test_criterion_06_decomposition_and_variation():
    def body():
        rng = rng_for(20240819, 6)
        for i in range(200):
            space = random_space(rng, int(rng.integers(2, 9)))
            nu = random_maxitive(rng, space, allow_inf=(i % 4 == 0))
            dec = atom_decomposition(nu)
            assert nu(dec.residual_null) == 0.0
            for b in range(space.n_sets):
                best = 0.0
                for h in dec.atoms:
                    best = max(best, nu(b & h.mask))
                assert close(nu(b), best, 1e-9), (i, b)
            total = disjoint_variation(nu)
            closed = float(sum(dec.values)) if dec.values else 0.0
            assert close(total, closed, 1e-9), (i, total, closed)

    _check(6, "atom decomposition verified exhaustively and variation matches the atom sum on 200 measures", body)


def test_criterion_07_conditioning():
    def body():
        rng = rng_for(20240819, 7)
        for i in range(300):
            space = random_space(rng, int(rng.integers(2, 6)))
            pi = random_possibility(rng, space)
            x = random_fn(rng, space)
            sub = random_subalgebra(rng, space)
            for op in (TIMES, MIN):
                rep = conditional_suite(op, x, pi, sub)
                assert rep.all_hold(), (i, op.name, rep.details)
        space = _abcd()
        pi = MaxitiveMeasure(space, [1.0, 0.5, 0.25, 1.0])
        x = MeasurableFn(space, [2.0, 5.0, 3.0, 1.0])
        sub = SubAlgebra.from_string(space, "a+b|c+d")
        y = conditional(TIMES, x, pi, sub)
        assert [float(v) for v in y.atom_values] == [2.5, 2.5, 1.0, 1.0]
        # power means against the uniform probability collapse to the
        # two-valued conditional; gaps measured relative to the limit
        m = AdditiveMeasure(space, [0.25] * 4)
        rep = power_mean_limit(m, x, sub)
        assert rep.ps[-1] == 200
        assert rep.max_rel_gap[-1] < 1e-2, rep.max_rel_gap
        for a, b in zip(rep.max_rel_gap, rep.max_rel_gap[1:]):
            assert b <= a + 1e-12, rep.max_rel_gap
        assert [float(v) for v in rep.limit.atom_values] == [5.0, 5.0, 3.0, 3.0]

    _check(7, "defining property and full law suite on 300 fixtures per operation; power-mean collapse", body)


def test_criterion_08_frechet_simulation():
    def body():
        t0 = time.monotonic()
        space = build_space(["e"], [["e"]])
        m1 = AdditiveMeasure(space, [1.0])
        n = 100_000

        draws = sample_matrix(m1, 2.0, rng_for(20240819, 80), n)[:, 0]
        phat = float(np.mean(draws <= 1.0))
        target = math.exp(-1.0)
        assert abs(phat - target) < 0.005, (phat, target)

        ks = frechet_marginal_check(m1, 2.0, rng_for(20240819, 81), n)
        assert ks.passed, ks
        assert close(ks.threshold, 1.628 / math.sqrt(n), 1e-12)

        two = compare_modes_check(m1, 2.0, rng_for(20240819, 82), n, eps=1e-3)
        assert two.passed, two

        sp3 = _abc()
        m3 = AdditiveMeasure(sp3, [0.5, 0.25, 0.25])
        f = MeasurableFn(sp3, [1.0, 2.0, 0.5])
        sc = scale_recovery_check(f, m3, 2.0, rng_for(20240819, 83), n, rel_tol=0.05)
        assert sc.passed, sc
        assert close(sc.predicted, extremal_integral(f, m3, 2.0), 1e-12)

        dt = time.monotonic() - t0
        assert dt < 60.0, f"took {dt:.2f}s"
        return f"P[M<=1]={phat:.4f} vs {target:.4f}, KS {ks.statistic:.5f} < {ks.threshold:.5f}, {dt:.2f}s"

    _check(8, "exact-mode marginal, mode agreement and scale recovery at n=100000", body)


def test_criterion_09_regular_variation():
    def body():
        t0 = time.monotonic()
        space = build_space(["e"], [["e"]])
        m1 = AdditiveMeasure(space, [1.0])
        f = MeasurableFn(space, [1.0])
        rep = tail_ratio_check(
            f, m1, 2.0, rng_for(20240819, 9), 1_000_000,
            slowly="const", level=0.999, band=(0.9, 1.1),
        )
        assert rep.passed, rep
        dt = time.monotonic() - t0
        assert dt < 120.0, f"took {dt:.2f}s"
        return f"ratio {rep.ratio:.4f} at x={rep.quantile:.2f}, {dt:.2f}s"

    _check(9, "tail survival ratio at the 99.9th percentile within [0.9, 1.1] at n=1000000", body)


def test_criterion_10_residuation():
    def body():
        grid = default_grid()
        for op in (TIMES, MIN, PLUS, MAX):
            for r in grid:
                for s in grid:
                    if not op.residual_defined(r, s):
                        continue
                    for t in grid:
                        assert galois_holds(op, r, s, t), (op.name, r, s, t)
        assert PLUS.residual(5.0, 3.0) == 2.0
        assert PLUS.residual(3.0, 5.0) == 0.0
        assert MAX.residual(5.0, 3.0) == 5.0
        assert MAX.residual(3.0, 5.0) == 0.0
        assert TIMES.residual(2.0, 4.0) == 0.5
        assert MIN.residual(3.0, 5.0) == 3.0
        assert TIMES.exact and MIN.exact
        assert not PLUS.exact and not MAX.exact
        rng = rng_for(20240819, 10)
        pool = [0.0, 0.3, 1.0, 2.0, 7.0, INF]
        ops = (TIMES, MIN, PLUS, MAX)
        for i in range(100):
            op = ops[int(rng.integers(len(ops)))]
            k = int(rng.integers(1, 5))
            values = [pool[int(rng.integers(len(pool)))] for _ in range(k)]
            s = pool[int(rng.integers(len(pool)))]
            assert inf_distributes(op, values, s), (op.name, values, s)

    _check(10, "Galois equivalence on the full grid, frozen residual table, inf-distributivity", body)


def test_criterion_11_determinism(tmp_path):
    def body():
        commands = [
            ["simulate", "--atoms", "a:0.6,b:0.4", "--p", "2", "--n", "400", "--seed", "11"],
            ["simulate", "--atoms", "a:1", "--p", "1.5", "--n", "100", "--seed", "3",
             "--mode", "poisson", "--eps", "0.01"],
            ["simulate", "--atoms", "a:0.5,b:0.5", "--p", "2", "--n", "5", "--seed", "9",
             "--stream", "2"],
            ["suite", "--seed", "5", "--ids", "integral-fixtures,residual-galois"],
        ]
        for cmd in commands:
            runs = []
            for _ in range(2):
                r = subprocess.run(
                    [sys.executable, "-m", "maxitive", *cmd],
                    capture_output=True, timeout=300,
                )
                assert r.returncode == 0, (cmd, r.stderr)
                runs.append(r.stdout)
            assert runs[0] == runs[1], cmd
            assert runs[0].endswith(b"\n")

    _check(11, "seeded commands emit byte-identical JSON across repeated runs", body)
