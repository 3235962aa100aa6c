"""Possibility spaces, sub-algebras, conditioning, power-mean limits."""

import math

import pytest

from maxitive import possibility
from maxitive.additive import AdditiveMeasure
from maxitive.errors import NonExactOperation, NotProbability, UnmappedValue
from maxitive.integral import atom_integral
from maxitive.measures import MaxitiveMeasure
from maxitive.possibility import (
    PossibilitySpace,
    SubAlgebra,
    conditional,
    conditional_suite,
    expectation,
    law,
    power_mean_limit,
)
from maxitive.sampling import random_fn, random_possibility, random_space, random_subalgebra, rng_for
from maxitive.semigroup import MIN, PLUS, TIMES
from maxitive.spaces import INF, MeasurableFn, MeasurableSet, build_space, close


def _fixture():
    sp = build_space("abcd", [["a"], ["b"], ["c"], ["d"]])
    pi = PossibilitySpace.from_values(sp, [1, 0.5, 0.25, 1])
    x = MeasurableFn(sp, [2, 5, 3, 1])
    sub = SubAlgebra.from_string(sp, "a+b|c+d")
    return sp, pi, x, sub


def test_possibility_requires_norming(abc):
    with pytest.raises(NotProbability):
        PossibilitySpace.from_values(abc, [0.5, 0.2, 0.9])
    pi = PossibilitySpace.from_values(abc, [1, 0.2, 0])
    assert pi(abc.full()) == 1.0
    d = pi.delta()
    assert list(d.atom_values) == [1.0, 1.0, 0.0]


def test_subalgebra_parsing_and_structure():
    sp, pi, x, sub = _fixture()
    assert sub.blocks == (0b0011, 0b1100)
    assert len(sub.generated()) == 4
    assert sub.contains(0b1100) and not sub.contains(0b0110)
    assert sub.block_of(1) == 0b0011
    assert SubAlgebra.trivial(sp).blocks == (sp.full_mask,)
    # refinement is algebra inclusion: the coarse algebra's sets are all
    # measurable for the discrete one, not the other way round
    assert sub.refines(SubAlgebra.atoms(sp))
    assert not SubAlgebra.atoms(sp).refines(sub)
    co = sub.coarsened()
    assert co.blocks == (sp.full_mask,)
    with pytest.raises(ValueError):
        SubAlgebra(sp, [0b0011, 0b0110])
    with pytest.raises(ValueError):
        SubAlgebra(sp, [0b0011])
    with pytest.raises(ValueError):
        SubAlgebra.from_string(sp, "a+b||c+d")


def test_spread_and_measurability():
    sp, pi, x, sub = _fixture()
    y = sub.spread([7, 9])
    assert list(y.atom_values) == [7.0, 7.0, 9.0, 9.0]
    assert sub.is_measurable(y)
    assert not sub.is_measurable(x)


def test_conditional_fixture_times():
    sp, pi, x, sub = _fixture()
    y = conditional(TIMES, x, pi, sub)
    assert list(y.atom_values) == [2.5, 2.5, 1.0, 1.0]


def test_conditional_fixture_min():
    sp, pi, x, sub = _fixture()
    y = conditional(MIN, x, pi, sub)
    # block integrals saturate at the block possibilities
    assert list(y.atom_values) == [1.0, 1.0, 1.0, 1.0]


def test_conditional_defining_property():
    sp, pi, x, sub = _fixture()
    for op in (TIMES, MIN):
        y = conditional(op, x, pi, sub)
        for a in sub.generated():
            aset = MeasurableSet(sp, a)
            assert close(
                atom_integral(op, y, pi.measure, aset),
                atom_integral(op, x, pi.measure, aset),
            )


def test_conditional_requires_exactness():
    sp, pi, x, sub = _fixture()
    with pytest.raises(NonExactOperation):
        conditional(PLUS, x, pi, sub)


def test_expectation(abc):
    pi = PossibilitySpace.from_values(abc, [1, 0.5, 0.25])
    x = MeasurableFn(abc, [2, 5, 3])
    assert expectation(TIMES, x, pi) == 2.5
    assert expectation(MIN, x, pi) == 1.0


def test_tower_property():
    sp, pi, x, sub = _fixture()
    for op in (TIMES, MIN):
        y = conditional(op, x, pi, sub)
        z = conditional(op, y, pi, sub.coarsened())
        w = conditional(op, x, pi, sub.coarsened())
        for a in sub.coarsened().generated():
            aset = MeasurableSet(sp, a)
            assert close(
                atom_integral(op, z, pi.measure, aset),
                atom_integral(op, w, pi.measure, aset),
            )


def test_scaling_law():
    sp, pi, x, sub = _fixture()
    for op in (TIMES, MIN):
        for lam in (0.25, 3.0):
            scaled = x.pointwise(lambda v: op(lam, v))
            lhs = conditional(op, scaled, pi, sub)
            rhs = conditional(op, x, pi, sub).pointwise(lambda v: op(lam, v))
            for a, b in zip(lhs.atom_values, rhs.atom_values):
                assert close(float(a), float(b)), (op.name, lam)


def test_measurable_variable_is_fixed():
    sp = build_space("abcd", [["a"], ["b"], ["c"], ["d"]])
    pi = PossibilitySpace.from_values(sp, [1, 0.5, 0.25, 1])
    sub = SubAlgebra.from_string(sp, "a+b|c+d")
    x = sub.spread([4, 2])
    y = conditional(TIMES, x, pi, sub)
    assert list(y.atom_values) == [4.0, 4.0, 2.0, 2.0]
    y2 = conditional(MIN, x, pi, sub)
    # a version: same integrals on every sub-algebra set
    for a in sub.generated():
        aset = MeasurableSet(sp, a)
        assert close(
            atom_integral(MIN, y2, pi.measure, aset),
            atom_integral(MIN, x, pi.measure, aset),
        )


def test_conditional_suite_fixture():
    sp, pi, x, sub = _fixture()
    for op in (TIMES, MIN):
        rep = conditional_suite(op, x, pi, sub)
        assert rep.all_hold(), rep.details


def test_conditional_suite_random():
    rng = rng_for(83)
    for _ in range(60):
        space = random_space(rng, int(rng.integers(2, 6)))
        pi = random_possibility(rng, space)
        x = random_fn(rng, space)
        sub = random_subalgebra(rng, space)
        for op in (TIMES, MIN):
            rep = conditional_suite(op, x, pi, sub)
            assert rep.all_hold(), (op.name, rep.details)


def test_conditional_null_blocks_carry_zero():
    sp = build_space("abcd", [["a"], ["b"], ["c"], ["d"]])
    pi = PossibilitySpace.from_values(sp, [1, 0.5, 0, 0])
    x = MeasurableFn(sp, [2, 5, 3, 1])
    sub = SubAlgebra.from_string(sp, "a+b|c+d")
    y = conditional(TIMES, x, pi, sub)
    assert list(y.atom_values)[2:] == [0.0, 0.0]


def test_law_pushforward():
    sp, pi, x, sub = _fixture()
    l = law(x, pi)
    assert l.values == (1.0, 2.0, 3.0, 5.0)
    assert l(2.0) == 1.0
    assert l(5.0) == 0.5
    assert l(3.0) == 0.25
    assert l.as_dict()[1.0] == 1.0
    with pytest.raises(UnmappedValue):
        l(7.0)


def test_law_respects_integral():
    # integrating through the law equals integrating the variable
    rng = rng_for(89)
    for _ in range(40):
        space = random_space(rng, int(rng.integers(1, 6)))
        pi = random_possibility(rng, space)
        x = random_fn(rng, space)
        l = law(x, pi)
        for op in (TIMES, MIN):
            via_law = max(op(v, p) for v, p in zip(l.values, l.possibilities))
            direct = expectation(op, x, pi)
            assert close(via_law, direct)


def test_power_mean_fixture():
    sp = build_space("abcd", [["a"], ["b"], ["c"], ["d"]])
    m = AdditiveMeasure(sp, [0.25, 0.25, 0.25, 0.25])
    x = MeasurableFn(sp, [2, 5, 3, 1])
    sub = SubAlgebra.from_string(sp, "a+b|c+d")
    rep = power_mean_limit(m, x, sub)
    assert list(rep.limit.atom_values) == [5.0, 5.0, 3.0, 3.0]
    assert rep.means[1] == (3.5, 2.0)
    # uniform two-point blocks: the tail gap is 1 - 2^(-1/p) up to a
    # correction of order (x_min/x_max)^p, invisible at p = 200
    assert close(rep.max_rel_gap[-1], 1 - 2 ** (-1.0 / 200), 1e-9)
    assert rep.max_rel_gap[-1] < 1e-2
    assert all(a >= b - 1e-15 for a, b in zip(rep.max_rel_gap, rep.max_rel_gap[1:]))


def test_power_mean_gates(abc):
    m = AdditiveMeasure(abc, [0.5, 0.25, 0.5])
    x = MeasurableFn(abc, [1, 2, 3])
    sub = SubAlgebra.trivial(abc)
    with pytest.raises(NotProbability):
        power_mean_limit(m, x, sub)
    good = AdditiveMeasure(abc, [0.5, 0.25, 0.25])
    with pytest.raises(ValueError):
        power_mean_limit(good, MeasurableFn(abc, [1, INF, 3]), sub)


def test_power_mean_converges_randomly():
    rng = rng_for(97)
    for _ in range(25):
        space = random_space(rng, int(rng.integers(2, 6)))
        weights = rng.dirichlet([1.0] * space.n_atoms)
        m = AdditiveMeasure(space, weights)
        x = MeasurableFn(space, 10 ** rng.uniform(-1, 1, size=space.n_atoms))
        sub = random_subalgebra(rng, space)
        rep = power_mean_limit(m, x, sub, ps=(1, 5, 25, 125, 625))
        assert rep.max_rel_gap[-1] < 2e-2, rep.max_rel_gap


@pytest.mark.parametrize("op", [TIMES, MIN])
def test_conditional_suite_builds_no_function_per_block(op, monkeypatch):
    # the characterization law perturbs every block; each perturbed version
    # is read on its block alone, so the functions built stay as many at
    # 1600 one-atom blocks as at 200
    init = MeasurableFn.__init__
    built = []

    def counting_init(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(MeasurableFn, "__init__", counting_init)
    counts = {}
    for n in (200, 1600):
        labels = [f"x{i}" for i in range(n)]
        sp = build_space(labels, [[l] for l in labels])
        pi = PossibilitySpace.from_values(sp, [1.0] + [(i % 9 + 1) / 10 for i in range(n - 1)])
        x = MeasurableFn(sp, [(i % 7) / 2 for i in range(n)])
        sub = SubAlgebra.from_string(sp, "|".join(labels))
        built.clear()
        rep = conditional_suite(op, x, pi, sub)
        assert rep.all_hold(), rep.details
        counts[n] = len(built)
    assert counts[1600] == counts[200], counts


def test_conditional_suite_envelope_sees_a_drop_below_an_infinite_block(monkeypatch):
    # on a block where x is inf the envelope's lower bound is inf, and a
    # finite conditional there must be flagged rather than compared with nan
    sp = build_space("abc", [["a"], ["b"], ["c"]])
    pi = PossibilitySpace.from_values(sp, [1, 0.5, 1])
    x = MeasurableFn(sp, [INF, INF, 2])
    sub = SubAlgebra.from_string(sp, "a+b|c")
    real = possibility.conditional
    calls = []

    def first_call_wrong(*args):
        y = real(*args)
        calls.append(None)
        if len(calls) > 1:
            return y
        assert list(y.atom_values[:2]) == [INF, INF]
        return MeasurableFn(sp, [5.0, 5.0, float(y.atom_values[2])])

    monkeypatch.setattr(possibility, "conditional", first_call_wrong)
    rep = conditional_suite(TIMES, x, pi, sub)
    assert rep.monotone is False
    assert rep.details["envelope_block"] == 0
