"""The idempotent integral and the Ky Fan metric."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxitive.errors import MaxitiveError, OracleMismatch
from maxitive.integral import (
    atom_integral,
    density_measure,
    gerritse_integral,
    idempotent_integral,
    ky_fan_distance,
    sugeno_norm,
)
from maxitive.measures import MaxitiveMeasure, is_maxitive
from maxitive.sampling import random_fn, random_maxitive, random_set, random_space, rng_for
from maxitive.semigroup import MIN, TIMES, TableOp, verify_axioms
from maxitive.spaces import INF, MeasurableFn, SetFunction, build_space, close


def _hand_atom_value(op_name, fi, ni):
    # closed forms written out independently of the op objects
    if op_name == "times":
        if fi == 0.0 or ni == 0.0:
            return 0.0
        return fi * ni
    if op_name == "min":
        return min(fi, ni)
    raise AssertionError(op_name)


def _hand_integral(op_name, f, nu, bmask):
    best = 0.0
    for i in range(f.space.n_atoms):
        if bmask & (1 << i):
            best = max(
                best,
                _hand_atom_value(op_name, float(f.atom_values[i]), float(nu.atom_values[i])),
            )
    return best


def test_fixture_values_exact(abc):
    f = MeasurableFn(abc, [3, 1, 4])
    nu = MaxitiveMeasure(abc, [1, 2, 0.5])
    assert idempotent_integral(TIMES, f, nu, crosscheck=True).value == 3.0
    assert idempotent_integral(MIN, f, nu, crosscheck=True).value == 1.0
    assert atom_integral(TIMES, f, nu) == 3.0
    assert atom_integral(MIN, f, nu) == 1.0


def test_result_reports_its_maximizer(abc):
    f = MeasurableFn(abc, [3, 1, 4])
    nu = MaxitiveMeasure(abc, [1, 2, 0.5])
    res = idempotent_integral(TIMES, f, nu)
    level_set = f.level_set(res.level) if res.strict_boundary else f.level_set_ge(res.level)
    assert TIMES(res.level, nu(level_set)) == res.value


def test_three_routes_agree_randomly():
    rng = rng_for(21)
    for _ in range(150):
        space = random_space(rng, int(rng.integers(1, 6)))
        nu = random_maxitive(rng, space, allow_inf=True)
        f = random_fn(rng, space, allow_inf=True)
        b = random_set(rng, space, nonempty=False)
        for op in (TIMES, MIN):
            sweep = idempotent_integral(op, f, nu, b, crosscheck=True).value
            sub = gerritse_integral(op, f, nu, b)
            atom = atom_integral(op, f, nu, b)
            hand = _hand_integral(op.name, f, nu, b.mask)
            assert close(sweep, sub), (op.name, sweep, sub)
            assert close(sweep, atom)
            assert close(sweep, hand)


def test_sweep_dominates_every_level():
    # the sweep value is the sup over all levels, not only the candidates
    rng = rng_for(8)
    for _ in range(40):
        space = random_space(rng, int(rng.integers(1, 5)))
        nu = random_maxitive(rng, space)
        f = random_fn(rng, space)
        val = idempotent_integral(TIMES, f, nu).value
        top = max(float(v) for v in f.atom_values) if space.n_atoms else 0.0
        for t in rng.uniform(0.0, max(top, 1.0) * 1.5, size=25):
            assert TIMES(t, nu(f.level_set(t))) <= val + 1e-9 * max(1.0, val)


def test_indicator_recovers_measure(abc):
    nu = MaxitiveMeasure(abc, [1, 2, 0.5])
    for op in (TIMES, MIN):
        for b in abc.sets():
            ind = MeasurableFn.indicator(abc, b, one=op.left_identity)
            assert close(idempotent_integral(op, ind, nu).value, nu(b))


def test_homogeneity():
    rng = rng_for(13)
    for _ in range(60):
        space = random_space(rng, int(rng.integers(1, 5)))
        nu = random_maxitive(rng, space)
        f = random_fn(rng, space)
        lam = float(10 ** rng.uniform(-1, 1))
        for op in (TIMES, MIN):
            scaled = f.pointwise(lambda v: op(lam, v))
            lhs = idempotent_integral(op, scaled, nu).value
            rhs = op(lam, idempotent_integral(op, f, nu).value)
            assert close(lhs, rhs), (op.name, lhs, rhs)


def test_restriction_is_maxitive():
    rng = rng_for(17)
    for _ in range(30):
        space = random_space(rng, int(rng.integers(1, 5)))
        nu = random_maxitive(rng, space, allow_inf=True)
        f = random_fn(rng, space, allow_inf=True)
        for op in (TIMES, MIN):
            tau = density_measure(op, f, nu)
            assert is_maxitive(tau.to_set_function())[0]
            for b in space.sets():
                assert close(tau(b), idempotent_integral(op, f, nu, b).value)


def test_density_measure_on_set_function(abc):
    w = SetFunction(abc, [0, 1, 2, 2, 0.5, 1, 2, 2])
    f = MeasurableFn(abc, [3, 1, 4])
    # f (.) nu is read off the atoms of a maxitive nu; a table is refused
    with pytest.raises(TypeError, match="density_measure needs a MaxitiveMeasure"):
        density_measure(TIMES, f, w)


def test_crosscheck_flags_bad_input(abc):
    # for monotone tables the sweep and the submask route agree, so the
    # mismatch needs a non-monotone one: a singleton worth more than any
    # superset is invisible to level sets but not to submasks
    spiked = SetFunction(abc, [0, 5, 0, 0, 0, 0, 0, 0])
    f = MeasurableFn(abc, [1, 1, 1])
    with pytest.raises(OracleMismatch):
        idempotent_integral(TIMES, f, spiked, crosscheck=True)


@settings(max_examples=200, deadline=None)
@given(st.sets(st.sampled_from([0.5, 1.0, 2.0])), st.integers(1, 5),
       st.sampled_from([0.0, 1e-12, 1e-9, 0.1]), st.data())
def test_an_integral_under_a_table_operation_is_refused_or_crosschecks(inner, k, tol, data):
    # the sweep and the submask maximization agree under a monotone
    # operation; one that is not monotone on its grid is refused first, so
    # the crosscheck never ends in OracleMismatch
    grid = [0.0, *sorted(inner), INF]
    on_grid = st.sampled_from(grid)
    rows = data.draw(st.lists(st.lists(on_grid, min_size=len(grid), max_size=len(grid)),
                              min_size=len(grid), max_size=len(grid)))
    op = TableOp("drawn", grid, rows)
    sp = build_space([f"a{i}" for i in range(k)], [[f"a{i}"] for i in range(k)])
    f = MeasurableFn(sp, data.draw(st.lists(on_grid, min_size=k, max_size=k)))
    nu = MaxitiveMeasure(sp, data.draw(st.lists(on_grid, min_size=k, max_size=k)))
    if verify_axioms(op, tol).monotone:
        idempotent_integral(op, f, nu, tol=tol, crosscheck=True)
    else:
        with pytest.raises(MaxitiveError, match="^the integral needs a monotone operation; ") as exc:
            idempotent_integral(op, f, nu, tol=tol, crosscheck=True)
        assert exc.type is MaxitiveError


# the Ky Fan pseudometric


def _kyfan_oracle(nu, f, g, bmask, hi=1e12):
    # bisection on the monotone feasibility t -> nu(|f-g| > t) <= t
    def phi(t):
        mask = 0
        for i in range(f.space.n_atoms):
            a, b = float(f.atom_values[i]), float(g.atom_values[i])
            d = 0.0 if (math.isinf(a) and math.isinf(b)) else abs(a - b)
            if d > t and (bmask & (1 << i)):
                mask |= 1 << i
        return nu(mask)

    if phi(hi) > hi:
        return INF
    lo = 0.0
    if phi(lo) <= lo:
        return 0.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if phi(mid) <= mid:
            hi = mid
        else:
            lo = mid
    return hi


def test_ky_fan_fixture():
    space = build_space("ab", [["a"], ["b"]])
    nu = MaxitiveMeasure(space, [0.2, 1.0])
    f = MeasurableFn(space, [5, 0])
    g = MeasurableFn.constant(space, 0.0)
    assert ky_fan_distance(nu, f, g) == 0.2
    assert sugeno_norm(nu, f) == 0.2


def test_ky_fan_against_bisection():
    rng = rng_for(29)
    for _ in range(120):
        space = random_space(rng, int(rng.integers(1, 6)))
        nu = random_maxitive(rng, space, allow_inf=True)
        f = random_fn(rng, space, allow_inf=True)
        g = random_fn(rng, space, allow_inf=True)
        b = random_set(rng, space)
        got = ky_fan_distance(nu, f, g, b)
        want = _kyfan_oracle(nu, f, g, b.mask)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert abs(got - want) <= 1e-6 * max(1.0, want), (got, want)


def test_ky_fan_metric_laws():
    rng = rng_for(31)
    for _ in range(60):
        space = random_space(rng, int(rng.integers(1, 5)))
        nu = random_maxitive(rng, space)
        f = random_fn(rng, space)
        g = random_fn(rng, space)
        h = random_fn(rng, space)
        dfg = ky_fan_distance(nu, f, g)
        assert ky_fan_distance(nu, f, f) == 0.0
        assert dfg == ky_fan_distance(nu, g, f)
        # triangle inequality for the max metric
        assert dfg <= ky_fan_distance(nu, f, h) + ky_fan_distance(nu, h, g) + 1e-9


def test_ky_fan_infinite_gap_cases():
    space = build_space("ab", [["a"], ["b"]])
    f = MeasurableFn(space, [INF, 0])
    g = MeasurableFn.constant(space, 0.0)
    # infinite gap on a small-possibility set: the crossing is at nu(a)
    nu_small = MaxitiveMeasure(space, [0.3, 1.0])
    assert ky_fan_distance(nu_small, f, g) == 0.3
    # infinite gap on an infinite-measure set: no finite level works
    nu_inf = MaxitiveMeasure(space, [INF, 1.0])
    assert ky_fan_distance(nu_inf, f, g) == INF
    # equal infinities count as zero distance
    assert ky_fan_distance(nu_inf, f, f) == 0.0
