"""Maxitive measures: predicates, alternation, decomposition, variation."""

import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from maxitive import measures
from maxitive.additive import AdditiveMeasure
from maxitive.errors import ExplicitBudgetExceeded
from maxitive.measures import (
    MaxitiveMeasure,
    atom_decomposition,
    choquet_alternating,
    classify,
    counting_delta,
    delta_measure,
    disjoint_variation,
    essential_supremum,
    essential_witness,
    esssup_measure,
    finiteness_suite,
    is_autocontinuous,
    is_completely_maxitive,
    is_essential,
    is_maxitive,
    is_monotone,
    is_null_additive,
    is_of_bounded_variation,
    is_sigma_finite,
    is_sigma_principal,
    negligible,
    total_variation,
)
from maxitive.sampling import random_maxitive, random_non_maxitive, random_space, rng_for
from maxitive.semigroup import MIN, TIMES, TableOp
from maxitive.spaces import INF, MeasurableFn, SetFunction, build_space, close, mask_of

from test_lattice import enumerate_sigma_ideals


def test_measure_evaluates_as_a_max(abc):
    nu = MaxitiveMeasure(abc, [1, 2, 0.5])
    assert nu(0) == 0.0
    assert nu(abc.set_of_labels(["a", "c"])) == 1.0
    assert nu(abc.full()) == 2.0
    tab = nu.to_set_function()
    for b in abc.masks():
        assert tab(b) == nu(b)


def test_set_function_round_trip(abc):
    nu = MaxitiveMeasure(abc, [1, 2, 0.5])
    back = MaxitiveMeasure.from_set_function(nu.to_set_function())
    assert list(back.atom_values) == [1.0, 2.0, 0.5]
    additive = SetFunction(abc, [0, 1, 2, 3, 4, 5, 6, 7])
    with pytest.raises(ValueError):
        MaxitiveMeasure.from_set_function(additive)


def test_support_and_power(abc):
    nu = MaxitiveMeasure(abc, [0, 2, INF])
    assert nu.support_mask() == 0b110
    sq = nu.power(2.0)
    assert list(sq.atom_values) == [0.0, 4.0, INF]
    with pytest.raises(ValueError):
        nu.power(0.0)


def test_negligible(abc):
    nu = MaxitiveMeasure(abc, [0, 2, 0])
    assert negligible(nu, abc.set_of_labels(["a", "c"]))
    assert not negligible(nu, abc.set_of_labels(["b"]))
    assert negligible(nu, abc.empty())


def test_predicates_on_hand_fixtures(abc):
    nu = MaxitiveMeasure(abc, [1, 2, 0.5]).to_set_function()
    assert is_monotone(nu)[0]
    assert is_maxitive(nu)[0]
    assert is_completely_maxitive(nu)[0]
    assert is_sigma_finite(MaxitiveMeasure(abc, [1, 2, 0.5]).to_set_function())[0]
    ok, wit = is_sigma_finite(MaxitiveMeasure(abc, [1, INF, 0.5]).to_set_function())
    assert not ok
    additive = SetFunction(abc, [0, 1, 2, 3, 4, 5, 6, 7])
    ok, wit = is_maxitive(additive)
    assert not ok and wit is not None
    b1, b2 = wit[0], wit[1]
    assert additive(b1 | b2) > max(additive(b1), additive(b2))


@pytest.mark.parametrize("tol", [0.0, 1e-9])
def test_is_monotone_sees_a_drop_from_inf(tol):
    # w({a}) = inf > w({a, b}) = 1; an inf value makes a relative slack
    # inf or nan, so the drop is read off the order and close() alone
    w = SetFunction(build_space("ab", [["a"], ["b"]]), [0, INF, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert is_monotone(w, tol) == (False, (1, 3))


def test_is_monotone_skips_the_scan_on_an_exactly_monotone_table(monkeypatch):
    # the bitwise test accepts at once; only a table that differs is scanned
    calls = []
    vle = measures.vle
    monkeypatch.setattr(measures, "vle", lambda *a: calls.append(1) or vle(*a))
    labs = [f"g{i}" for i in range(12)]
    sp = build_space(labs, [[l] for l in labs])
    w = MaxitiveMeasure(sp, np.linspace(0.0, 3.0, 12)).to_set_function()
    assert is_monotone(w) == (True, None)
    assert calls == []
    table = np.array(w.table)
    table[-1] = np.nextafter(table[-1], 0.0)
    assert is_monotone(SetFunction(sp, table)) == (True, None)
    assert is_monotone(SetFunction(sp, table), 0.0) == (False, (sp.n_sets - 2, sp.n_sets - 1))
    assert calls


def test_classify_flags(abc):
    nu = MaxitiveMeasure(abc, [1, 0.4, 0.5])
    rep = classify(nu.to_set_function())
    flags = rep.flags()
    for key in ("monotone", "maxitive", "completely_maxitive", "normed",
                "null_additive", "autocontinuous", "essential"):
        assert flags[key], (key, rep.witnesses)
    rep2 = classify(SetFunction(abc, [0, 1, 2, 3, 4, 5, 6, 7]))
    assert not rep2.flags()["maxitive"]


# alternation: independent recursive oracle on small spaces


def _succ_diff(table, g, hs):
    if not hs:
        return float(table[g])
    a = _succ_diff(table, g | hs[0], hs[1:])
    b = _succ_diff(table, g, hs[1:])
    if math.isinf(a) and math.isinf(b) and a == b:
        return 0.0
    return a - b


def _oracle_min_signed(table, n_sets, order):
    worst = INF
    for depth in range(1, order + 1):
        sign = 1.0 if depth % 2 == 1 else -1.0
        for tup in itertools.product(range(n_sets), repeat=depth + 1):
            g, hs = tup[0], list(tup[1:])
            v = sign * _succ_diff(table, g, hs)
            if v < worst:
                worst = v
    return worst


def test_alternation_oracle_random():
    rng = rng_for(11)
    for _ in range(25):
        space = random_space(rng, int(rng.integers(2, 4)))
        nu = random_maxitive(rng, space, allow_inf=True)
        tab = nu.to_set_function()
        rep = choquet_alternating(tab, order=3)
        assert rep.ok, rep
        worst = _oracle_min_signed(tab.table, space.n_sets, 3)
        assert close(rep.min_signed_value, worst, 1e-9) or (
            rep.min_signed_value >= 0 and worst >= 0
        )


def test_alternation_rejects_unanimity():
    sp = build_space("ab", [["a"], ["b"]])
    w = SetFunction(sp, [0, 0, 0, 1])  # monotone but not 2-alternating
    rep = choquet_alternating(w, order=2)
    assert not rep.ok
    assert rep.witness is not None
    assert rep.min_signed_value < 0
    g, h1, h2 = rep.witness
    direct = _succ_diff(w.table, g, [h1, h2])
    assert -direct == rep.min_signed_value


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5])
def test_alternation_passes_a_drop_of_exactly_tol_and_fails_one_ulp_more(tol):
    sp = build_space("ab", [["a"], ["b"]])
    # the least signed difference is w({a, b}) - w({a}) = -w({a})
    edge = choquet_alternating(SetFunction(sp, [0, tol, 0, 0]), order=1, tol=tol)
    assert edge.ok and edge.min_signed_value == -tol
    below = math.nextafter(tol, INF)
    over = choquet_alternating(SetFunction(sp, [0, below, 0, 0]), order=1, tol=tol)
    assert not over.ok and over.min_signed_value == -below
    assert over.witness == (1, 2)


def test_alternation_budget():
    sp = build_space("abcdefgh", [[c] for c in "abcdefgh"])
    nu = MaxitiveMeasure(sp, range(1, 9))
    with pytest.raises(ExplicitBudgetExceeded):
        choquet_alternating(nu.to_set_function(), order=7)
    # three arrays of (2^8)^3 cells: order 2 stops at 7 atoms, as it did
    with pytest.raises(ExplicitBudgetExceeded, match="order 2 on 8 atoms needs 50331648 cells"):
        choquet_alternating(nu.to_set_function(), order=2)
    with pytest.raises(ValueError):
        choquet_alternating(nu.to_set_function(), order=0)


def test_essential_supremum(abc):
    tau = MaxitiveMeasure(abc, [1, 0, 2]).to_set_function()
    f = MeasurableFn(abc, [3, 9, 4])
    assert essential_supremum(tau, f) == 4.0
    assert essential_supremum(tau, f, abc.set_of_labels(["a", "b"])) == 3.0
    assert essential_supremum(tau, f, abc.set_of_labels(["b"])) == 0.0
    ess = esssup_measure(tau, f)
    assert ess(abc.full()) == 4.0


def test_delta_measures(abc):
    nu = MaxitiveMeasure(abc, [0, 2, 0.5])
    d = delta_measure(nu)
    assert list(d.atom_values) == [0.0, 1.0, 1.0]
    cd = counting_delta(abc)
    assert list(cd.atom_values) == [1.0, 1.0, 1.0]


def test_atom_decomposition_fixture(abc):
    nu = MaxitiveMeasure(abc, [1, 2, 0.5])
    dec = atom_decomposition(nu)
    assert dec.values == (2.0, 1.0, 0.5)
    assert [h.labels() for h in dec.atoms] == [("b",), ("a",), ("c",)]
    assert dec.residual_null.is_empty
    nu2 = MaxitiveMeasure(abc, [0, 2, 0.5])
    dec2 = atom_decomposition(nu2)
    assert dec2.residual_null.labels() == ("a",)
    assert dec2.values == (2.0, 0.5)


def test_decomposition_reconstructs_measure():
    rng = rng_for(5)
    for _ in range(40):
        space = random_space(rng, int(rng.integers(1, 7)))
        nu = random_maxitive(rng, space, allow_inf=True)
        dec = atom_decomposition(nu)
        for b in space.masks():
            best = 0.0
            for h, v in zip(dec.atoms, dec.values):
                if h.mask & b:
                    best = max(best, v)
            assert nu(b) == best


def test_disjoint_variation(abc):
    nu = MaxitiveMeasure(abc, [1, 2, 0.5])
    assert disjoint_variation(nu) == 3.5
    val, part = total_variation(nu.to_set_function())
    assert val == 3.5
    assert sorted(len(b) for b in part) == [1, 1, 1]


def test_disjoint_variation_exact_at_zero_tolerance():
    # the partition sup and the atom sum agree as exactly rounded sums
    rng = np.random.default_rng(1)
    for _ in range(300):
        k = int(rng.integers(2, 8))
        vals = 10 ** rng.uniform(-2, 2, k)
        labs = [f"g{i}" for i in range(k)]
        nu = MaxitiveMeasure(build_space(labs, [[l] for l in labs]), vals)
        assert disjoint_variation(nu) == float(sum(sorted(vals, reverse=True)))


def test_variation_budget():
    # an infinite sup is found at 21 atoms, the table's edge, by a search
    # over 21 superset-OR tables; 22 atoms are refused at the table
    labs = [f"g{i}" for i in range(21)]
    sp = build_space(labs, [[l] for l in labs])
    w = MaxitiveMeasure(sp, [1.0] * 20 + [INF]).to_set_function()
    start = time.perf_counter()
    assert total_variation(w) == (INF, [list(range(21))])
    # the finite sum that overflows only at the all-singletons partition
    labs = [f"g{i}" for i in range(12)]
    sp = build_space(labs, [[l] for l in labs])
    table = np.zeros(sp.n_sets)
    table[1 << np.arange(12)] = 1.7e307
    assert total_variation(SetFunction(sp, table)) == (INF, [[i] for i in range(12)])
    assert time.perf_counter() - start < 5.0
    labs = [f"g{i}" for i in range(22)]
    sp = build_space(labs, [[l] for l in labs])
    tracemalloc.start()
    try:
        with pytest.raises(ExplicitBudgetExceeded, match="atom table on 22 atoms needs 92274688 cells"):
            MaxitiveMeasure(sp, [1.0] * 21 + [INF]).to_set_function()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # refused before its table is built
    assert peak < 2**20, peak


def test_partition_dp_runs_at_14_atoms_and_refuses_15():
    # the DP holds about 30 bytes per submask pair and is priced at 4 3^k
    # cells; its table is priced at only k 2^k
    rng = np.random.default_rng(5)
    for k in (14, 15):
        labs = [f"g{i}" for i in range(k)]
        sp = build_space(labs, [[l] for l in labs])
        w = SetFunction(sp, np.append(0.0, rng.uniform(0.0, 1.0, sp.n_sets - 1)))
        if k == 14:
            start = time.perf_counter()
            total, part = total_variation(w)
            assert time.perf_counter() - start < 5.0
            assert sorted(i for block in part for i in block) == list(range(k))
            assert total == pytest.approx(sum(w(mask_of(block)) for block in part), rel=1e-12)
            continue
        tracemalloc.start()
        try:
            with pytest.raises(ExplicitBudgetExceeded, match="partition DP on 15 atoms needs 57395628 cells"):
                total_variation(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak


def test_zero_set_scan_is_priced_by_its_zero_sets():
    # positive only on the sets that hold atoms 0 and 1: {0} and {1} are
    # null and their union is not, so the bitwise test fails and the scan
    # over the zero sets runs, at 2^k cells per zero set
    for k, zeros in ((12, 3072), (13, 6144)):
        labs = [f"g{i}" for i in range(k)]
        sp = build_space(labs, [[l] for l in labs])
        w = SetFunction(sp, (np.arange(sp.n_sets) & 0b11 == 0b11).astype(float))
        if k == 12:
            assert is_null_additive(w) == (False, (2, 1))
            continue
        with pytest.raises(ExplicitBudgetExceeded, match=f"scan of {zeros} zero sets on 13 atoms needs 50331648 cells"):
            is_null_additive(w)
    # three zero sets cost 3 2^13 cells, so 13 atoms run
    w = SetFunction(sp, np.where(np.isin(np.arange(sp.n_sets), (0, 1, 2)), 0.0, 1.0))
    assert is_null_additive(w) == (False, (2, 1))


def test_to_set_function_is_priced_before_its_table():
    labs = [f"g{i}" for i in range(22)]
    sp = build_space(labs, [[l] for l in labs])
    for measure in (MaxitiveMeasure(sp, [1.0] * 22), AdditiveMeasure(sp, [1.0] * 22)):
        tracemalloc.start()
        try:
            with pytest.raises(ExplicitBudgetExceeded, match="atom table on 22 atoms"):
                measure.to_set_function()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the atom table alone would take 32 MB
        assert peak < 2**20, peak


def test_bounded_variation(abc):
    assert is_of_bounded_variation(MaxitiveMeasure(abc, [1, 2, 3]).to_set_function())[0]
    w = MaxitiveMeasure(abc, [1, INF, 3]).to_set_function()
    ok, part = is_of_bounded_variation(w)
    assert not ok and part == total_variation(w)[1]
    # above 10 atoms the witness is the first infinite mask
    labs = [f"g{i}" for i in range(11)]
    sp = build_space(labs, [[l] for l in labs])
    w = MaxitiveMeasure(sp, [1, INF, 3] + [1] * 8).to_set_function()
    assert is_of_bounded_variation(w) == (False, 0b010)


def test_essential_witness(abc):
    nu = MaxitiveMeasure(abc, [1, 0, 0.5])
    m = essential_witness(nu)
    for b in abc.masks():
        assert (m(b) > 0) == (nu(b) > 0)
    with pytest.raises(ValueError):
        essential_witness(MaxitiveMeasure(abc, [INF, 1, 1]))
    assert is_essential(nu.to_set_function())[0]


def test_essential_witness_of_an_overflowing_atom_sum_warns_nothing():
    # the witness is read off the atoms; no table of their sums is formed
    sp = build_space("ab", [["a"], ["b"]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = essential_witness(MaxitiveMeasure(sp, [1e308, 1.7e308]))
    assert list(m.atom_masses) == [1e308, 1.7e308]


def test_atom_results_have_no_atom_cap():
    # no table is built, so 200 atoms take a sort and a sum
    labs = [f"g{i}" for i in range(200)]
    sp = build_space(labs, [[l] for l in labs])
    vals = [0.0, INF] + [1.0 + i % 7 for i in range(198)]
    nu = MaxitiveMeasure(sp, vals)
    dec = atom_decomposition(nu)
    assert dec.values[0] == INF and len(dec.values) == 199
    assert dec.residual_null.mask == 1
    assert disjoint_variation(nu) == INF
    finite = MaxitiveMeasure(sp, vals[:1] + vals[2:] + [2.0])
    assert disjoint_variation(finite) == float(sum(sorted(vals[2:] + [2.0], reverse=True)))
    assert essential_witness(finite).atom_masses.tolist() == finite.atom_values.tolist()


def test_essentiality_witness_is_the_least_mismatch(abc):
    # {a, b} is null though a is charged, and {b, c} is charged though b
    # and c are null; both are mismatches, and the least is named
    assert is_essential(SetFunction(abc, [0, 1, 0, 0, 0, 1, 1, 1])) == (False, 0b011)
    assert is_essential(SetFunction(abc, [0, 1, 0, 1, 0, 1, 1, 1])) == (False, 0b110)


def test_autocontinuity(abc):
    assert is_autocontinuous(MaxitiveMeasure(abc, [1, 2, 0]).to_set_function())[0]
    additive = SetFunction(abc, [0, 1, 2, 3, 4, 5, 6, 7])
    ok, _ = is_autocontinuous(additive)
    assert not ok


def test_finiteness_suite(abc):
    nu = MaxitiveMeasure(abc, [1, 2, 0.5])
    rep = finiteness_suite(TIMES, nu)
    assert rep.odot_finite and rep.sigma_odot_finite and rep.semi_odot_finite
    nu_inf = MaxitiveMeasure(abc, [1, INF, 0.5])
    rep2 = finiteness_suite(TIMES, nu_inf)
    assert not rep2.odot_finite and not rep2.sigma_odot_finite
    # under min everything is finite: O(t) = 0 for every t
    rep3 = finiteness_suite(MIN, nu_inf)
    assert rep3.odot_finite and rep3.sigma_odot_finite and rep3.semi_odot_finite


def test_finiteness_suite_evaluates_every_positive_atom(abc):
    # under min on this grid only 0 is op-finite; the first atom already
    # settles every notion, and the atom off the grid still raises
    grid = [0.0, 0.5, 1.0, 2.0, INF]
    op = TableOp("grid-min", grid, [[min(s, t) for t in grid] for s in grid])
    with pytest.raises(ValueError, match="5e-324 is off the declared grid"):
        finiteness_suite(op, MaxitiveMeasure(abc, [1.0, 0.0, 5e-324]))
    rep = finiteness_suite(op, MaxitiveMeasure(abc, [1.0, 0.0, 2.0]))
    assert not (rep.odot_finite or rep.sigma_odot_finite or rep.semi_odot_finite)


def test_sigma_ideals_are_principal(abc):
    ideals = enumerate_sigma_ideals(abc)
    assert len(ideals) == abc.n_sets
    nu = MaxitiveMeasure(abc, [1, 0, 0.5])
    ok, wit = is_sigma_principal(nu.to_set_function())
    assert ok, wit


def test_random_non_maxitive_has_verified_witness():
    rng = rng_for(3)
    for _ in range(30):
        space = random_space(rng, int(rng.integers(2, 5)))
        w, pair = random_non_maxitive(rng, space)
        ok, wit = is_maxitive(w)
        assert not ok
        b1, b2 = wit[0], wit[1]
        assert not close(w(b1 | b2), max(w(b1), w(b2)))
        # the advertised singleton pair breaks maxitivity too
        assert not close(w(pair[0] | pair[1]), max(w(pair[0]), w(pair[1])))
