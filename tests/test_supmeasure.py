"""Frechet sup-measure simulation and its statistical checks.

The in-place samplers and the simulate command's draws, quantiles and CSV
are also held against the plain expressions they replaced, in the style of
``test_lattice.py``: the same generator stream must give the same bytes.
"""

import csv
import io
import json
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import lambertw

from maxitive import cli, supmeasure
from maxitive.additive import AdditiveMeasure
from maxitive.errors import ExplicitBudgetExceeded, InvalidTruncation
from maxitive.measures import is_completely_maxitive, is_maxitive
from maxitive.sampling import rng_for
from maxitive.spaces import INF, MeasurableFn, MeasurableSet, build_space, close
from maxitive.supmeasure import (
    BLOCK_ROWS,
    MAX_SAMPLE_CELLS,
    _ks_2samp_equal,
    _lambert_wm1,
    compare_modes_check,
    extremal_integral,
    frechet_marginal_check,
    sample_blocks,
    sample_matrix,
    sample_supmeasure,
    scale_recovery_check,
    tail_ratio_check,
)


def test_extremal_integral_closed_form():
    sp = build_space("ab", [["a"], ["b"]])
    m = AdditiveMeasure(sp, [0.5, 0.25])
    f = MeasurableFn(sp, [1, 2])
    got = extremal_integral(f, m, 2.0)
    assert close(got, math.sqrt(1 * 0.5 + 4 * 0.25))
    # null atoms and zero values drop out
    g = MeasurableFn(sp, [1, 0])
    assert close(extremal_integral(g, m, 2.0), math.sqrt(0.5))


def test_sample_matrix_shapes_and_modes():
    sp = build_space("abc", [["a"], ["b"], ["c"]])
    m = AdditiveMeasure(sp, [0.5, 0.25, 0])
    rng = rng_for(0)
    mat = sample_matrix(m, 2.0, rng, 50)
    assert mat.shape == (50, 3)
    assert (mat[:, 2] == 0.0).all()  # null atom never fires
    assert (mat[:, :2] > 0).all()
    pmat = sample_matrix(m, 2.0, rng_for(0, 1), 50, mode="poisson", eps=1e-2)
    assert pmat.shape == (50, 3)
    with pytest.raises(ValueError):
        sample_matrix(m, 0.0, rng, 5)
    with pytest.raises(ValueError):
        sample_matrix(m, 2.0, rng, 5, mode="other")
    with pytest.raises(InvalidTruncation):
        sample_matrix(m, 2.0, rng, 5, mode="poisson", eps=0.0)
    with pytest.raises(ValueError):
        sample_matrix(AdditiveMeasure(sp, [INF, 1, 1]), 2.0, rng, 5)


def test_sampling_is_seed_deterministic():
    sp = build_space("ab", [["a"], ["b"]])
    m = AdditiveMeasure(sp, [0.5, 0.5])
    a = sample_matrix(m, 2.0, rng_for(7), 20)
    b = sample_matrix(m, 2.0, rng_for(7), 20)
    c = sample_matrix(m, 2.0, rng_for(7, 1), 20)
    assert (a == b).all()
    assert not (a == c).all()


def test_realization_is_a_maxitive_measure():
    sp = build_space("abc", [["a"], ["b"], ["c"]])
    m = AdditiveMeasure(sp, [0.5, 0.25, 0.25])
    s = sample_supmeasure(m, 2.0, rng_for(3))
    for b1 in sp.sets():
        for b2 in sp.sets():
            assert s(b1 | b2) == max(s(b1), s(b2))
    nu = s.as_measure()
    assert is_maxitive(nu.to_set_function())[0]
    assert is_completely_maxitive(nu.to_set_function())[0]
    f = MeasurableFn(sp, [2, 1, 3])
    want = max(2 * s.atom_maxima[0], 1 * s.atom_maxima[1], 3 * s.atom_maxima[2])
    assert close(s.of_variable(f), want)


def test_poisson_keep_points():
    sp = build_space("abcd", [["a"], ["b"], ["c"], ["d"]])
    m = AdditiveMeasure(sp, [0.5, 0.5, 0.0, 0.01])
    for seed in range(8):
        s = sample_supmeasure(
            m, 2.0, rng_for(seed), mode="poisson", eps=0.05, keep_points=True
        )
        cfg = s.config
        assert cfg is not None and cfg.eps == 0.05
        assert (cfg.values >= 0.05).all()
        # the per-atom maxima, bit for bit, against a scan of the points per
        # atom; an atom without points (c, and d now and then) keeps 0
        want = []
        for i in range(4):
            sel = cfg.values[cfg.atom_indices == i]
            want.append(float(sel.max()) if len(sel) else 0.0)
        assert s.atom_maxima.tobytes() == np.array(want).tobytes()
        assert s.atom_maxima[2] == 0.0
    with pytest.raises(ExplicitBudgetExceeded):
        sample_supmeasure(m, 2.0, rng_for(5), mode="poisson", eps=1e-4, keep_points=True)
    # the cutoff check and the rate limit, shared with the block sampler
    for eps in (0.0, 1e-300):
        with pytest.raises(InvalidTruncation):
            sample_supmeasure(m, 2.0, rng_for(5), mode="poisson", eps=eps, keep_points=True)


def test_marginal_distribution():
    sp = build_space("abcd", [[c] for c in "abcd"])
    m = AdditiveMeasure(sp, [0.25] * 4)
    rep = frechet_marginal_check(m, 2.0, rng_for(11), 4000)
    assert rep.passed, rep
    assert rep.threshold == pytest.approx(1.628 / math.sqrt(4000))
    # point probability P[M(E) <= 1] = exp(-1) for unit total mass
    mat = sample_matrix(m, 2.0, rng_for(13), 4000)
    frac = float((mat.max(axis=1) <= 1.0).mean())
    assert abs(frac - math.exp(-1)) < 0.03


def test_marginal_on_subset():
    sp = build_space("ab", [["a"], ["b"]])
    m = AdditiveMeasure(sp, [0.3, 0.7])
    rep = frechet_marginal_check(m, 1.5, rng_for(17), 3000, bset=sp.set_of_labels(["b"]))
    assert rep.passed, rep


def test_modes_agree():
    sp = build_space("ab", [["a"], ["b"]])
    m = AdditiveMeasure(sp, [0.5, 0.5])
    rep = compare_modes_check(m, 2.0, rng_for(19), 3000, eps=1e-3)
    assert rep.passed, rep
    assert rep.pvalue > 0.01


def test_scale_recovery():
    sp = build_space("abc", [["a"], ["b"], ["c"]])
    m = AdditiveMeasure(sp, [0.5, 0.25, 0.25])
    f = MeasurableFn(sp, [1, 2, 0.5])
    rep = scale_recovery_check(f, m, 2.0, rng_for(23), 5000)
    assert rep.passed, rep
    assert close(rep.predicted, extremal_integral(f, m, 2.0))


def test_tail_ratio_const():
    sp = build_space("ab", [["a"], ["b"]])
    m = AdditiveMeasure(sp, [0.6, 0.4])
    f = MeasurableFn(sp, [1, 2])
    rep = tail_ratio_check(f, m, 2.0, rng_for(29), 50_000, level=0.995, band=(0.8, 1.2))
    assert rep.passed, rep
    assert rep.empirical_survival == pytest.approx(0.005)


def test_tail_ratio_log():
    sp = build_space("a", [["a"]])
    m = AdditiveMeasure(sp, [1.0])
    f = MeasurableFn(sp, [1.0])
    rep = tail_ratio_check(
        f, m, 2.0, rng_for(31), 50_000, slowly="log", level=0.995, band=(0.8, 1.2)
    )
    assert rep.passed, rep
    with pytest.raises(ValueError):
        tail_ratio_check(f, m, 2.0, rng_for(31), 100, slowly="exp")


def test_lambert_inversion_identity():
    # the log-tail sampler inverts u = m x^(-p) log x through W_{-1}
    m, p = 1.0, 2.0
    for u in (0.01, 0.05, 0.1):
        y = -float(_lambert_wm1(-p * u / m))
        x = math.exp(y / p)
        assert close(m * x ** (-p) * math.log(x), u, 1e-9)


def test_budget_is_enforced_not_advisory():
    sp = build_space("a", [["a"]])
    m = AdditiveMeasure(sp, [1.0])
    # eps chosen so the expected point count crosses ten million
    with pytest.raises(ExplicitBudgetExceeded):
        sample_supmeasure(m, 1.0, rng_for(1), mode="poisson", eps=5e-8, keep_points=True)


def test_sample_matrix_refuses_oversized_n_before_drawing():
    sp = build_space("ab", [["a"], ["b"]])
    m = AdditiveMeasure(sp, [0.5, 0.5])
    rng = rng_for(3)
    state = rng.bit_generator.state
    # 2 * 10^12 cells would be 16 TB; the refusal comes before any draw, and
    # the block sampler refuses when called, not at its first block
    for sampler in (sample_matrix, sample_blocks):
        with pytest.raises(ExplicitBudgetExceeded):
            sampler(m, 2.0, rng, 10**12, mode="poisson")
        with pytest.raises(InvalidTruncation):
            sampler(m, 2.0, rng, 10, mode="poisson", eps=0.0)
        with pytest.raises(InvalidTruncation):
            sampler(AdditiveMeasure(sp, [1e300, 1]), 2.0, rng, 10, mode="poisson")
        with pytest.raises(ValueError):
            sampler(m, -1.0, rng, 10)
        with pytest.raises(ValueError):
            sampler(AdditiveMeasure(sp, [INF, 1]), 2.0, rng, 10)
        with pytest.raises(ValueError):
            sampler(m, 2.0, rng, 10, mode="other")
    assert rng.bit_generator.state == state
    # the benchmark's largest sample, 10^6 replicates of 12 atoms, fits
    assert 10**6 * 12 <= MAX_SAMPLE_CELLS


# ---------------------------------------------------------------------------
# the samplers and the simulate command against the expressions they replaced
# ---------------------------------------------------------------------------


def ref_exact_matrix(masses, p, rng, n):
    k = len(masses)
    u = rng.uniform(size=(n, k))
    with np.errstate(divide="ignore", over="ignore"):
        out = (masses / (-np.log(u))) ** (1.0 / p)
    return np.where(masses > 0, out, 0.0)


def ref_poisson_matrix(masses, p, rng, n, eps):
    k = len(masses)
    lam = masses * eps ** (-p)
    counts = rng.poisson(lam, size=(n, k))
    v = rng.uniform(size=(n, k))
    with np.errstate(divide="ignore", invalid="ignore"):
        u_min = -np.expm1(np.log(v) / counts)
        m = eps * u_min ** (-1.0 / p)
    return np.where(counts > 0, m, 0.0)


def ref_csv(labels, mat, draws):
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(list(labels) + ["value"])
    for row, v in zip(mat, draws):
        writer.writerow([repr(float(x)) for x in row] + [repr(float(v))])
    return out.getvalue()


def assert_same_text(got, want):
    # names the first differing line; pytest's diff of two CSVs of several
    # hundred KB takes minutes to build
    if got != want:
        g, w = got.splitlines(True), want.splitlines(True)
        i = next((i for i, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i} of {len(g)} (want {len(w)}): {g[i:i + 1]} != {w[i:i + 1]}")


LABELS = "abcdefghijkl"
QS = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


def space_of(k):
    return build_space(LABELS[:k], [[c] for c in LABELS[:k]])


masses_st = st.integers(1, 12).flatmap(
    lambda k: st.lists(
        st.one_of(
            st.just(0.0),
            st.just(-0.0),
            st.sampled_from([0.5, 1.0]),
            st.floats(1e-3, 10.0),
        ),
        min_size=k,
        max_size=k,
    )
)
# p = 0.5, 1 and 2 send ** 1/p or ** -1/p down numpy's scalar-power fast
# paths (square, identity, reciprocal, sqrt)
tail_st = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.3, 4.0))


# a block size and a sample size reaching past several blocks of it
blocks_st = st.sampled_from([1, 7, BLOCK_ROWS]).flatmap(
    lambda rows: st.tuples(st.just(rows), st.integers(0, 4 * rows + 100))
)


@settings(max_examples=80, deadline=None)
@given(
    masses_st,
    tail_st,
    blocks_st,
    st.floats(1e-3, 1.0),
    st.integers(0, 2**32 - 1),
)
@example(masses=[1.0, 0.0, 2.0], p=2.0, blocks=(BLOCK_ROWS, 3 * BLOCK_ROWS),
         eps=1e-3, seed=0)  # ends on a block boundary
def test_samplers_are_bit_identical_to_the_reference_expressions(
    masses, p, blocks, eps, seed
):
    rows, n = blocks
    m = AdditiveMeasure(space_of(len(masses)), masses)
    arr = np.asarray(m.atom_masses, dtype=float)
    # the samplers also on raw masses, where a -0.0 (which the measure
    # normalizes away) must still come out as +0.0 through the mask
    raw = SimpleNamespace(atom_masses=masses)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(supmeasure, "BLOCK_ROWS", rows)
        for mm, ma in ((m, arr), (raw, np.asarray(masses, dtype=float))):
            got = sample_matrix(mm, p, rng_for(seed), n)
            want = ref_exact_matrix(ma, p, rng_for(seed), n)
            assert got.tobytes() == want.tobytes()
            got = sample_matrix(mm, p, rng_for(seed), n, mode="poisson", eps=eps)
            want = ref_poisson_matrix(ma, p, rng_for(seed), n, eps)
            assert got.tobytes() == want.tobytes()


# a draw that overflows to inf is the formula's value, reported without a
# numpy warning on stderr, in both modes
@pytest.mark.parametrize("atoms, p, mode, total_mass", [
    ("a:1e300,b:1", "0.5", "exact", 1e300),
    ("a:1000,b:1", "0.005", "poisson", 1001.0),
])
def test_simulate_overflow_to_inf_warns_nothing(atoms, p, mode, total_mass, capsys):
    argv = ["simulate", "--atoms", atoms, "--p", p, "--n", "2", "--mode", mode]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 0
    assert [str(w.message) for w in caught] == []
    want = {"command": "simulate", "draws": ["inf", "inf"], "mode": mode, "n": 2,
            "p": float(p), "schema": "1", "seed": 0, "set": "a+b", "stream": 0,
            "total_mass": total_mass}
    if mode == "poisson":
        want["eps"] = 0.001
    assert json.loads(capsys.readouterr().out) == want


@pytest.mark.parametrize("block_rows", [1, 7, BLOCK_ROWS])
def test_csv_rows_match_csv_writer(block_rows, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(supmeasure, "BLOCK_ROWS", block_rows)
    # the 1e300 atom's maxima overflow to inf at p = 0.5, and b never fires
    masses = [0.5, 0.0, 2.0, 1e300, 1.0]
    space = space_of(len(masses))
    atoms = ",".join(f"{l}:{v!r}" for l, v in zip(space.atom_labels(), masses))
    csv_path = tmp_path / "draws.csv"
    argv = ["simulate", "--atoms", atoms, "--p", "0.5", "--n", "60", "--seed", "41",
            "--set", "a+c+d", "--csv", str(csv_path)]
    assert cli.main(argv) == 0
    mat = ref_exact_matrix(np.asarray(masses), 0.5, rng_for(41), 60)
    assert (mat == 0.0).any() and (mat > 0).any() and (mat == INF).any()
    draws = mat[:, [0, 2, 3]].max(axis=1)
    assert json.loads(capsys.readouterr().out)["draws"] == ["inf"] * 60
    with open(csv_path, newline="") as fh:
        text = fh.read()
    assert_same_text(text, ref_csv(space.atom_labels(), mat, draws))
    assert "\r\n" in text and ",inf," in text


@pytest.mark.parametrize("mode", ["exact", "poisson"])
def test_simulate_report_and_csv_match_the_reference(mode, tmp_path, capsys):
    masses = [0.5, 0.0, 2.0, 0.25, 1.0]
    space = space_of(len(masses))
    atoms = ",".join(f"{l}:{v}" for l, v in zip(space.atom_labels(), masses))
    csv_path = tmp_path / "draws.csv"
    # n reaches past two blocks
    n, p, eps, seed, stream = 9000, 1.5, 0.05, 17, 2
    argv = ["simulate", "--atoms", atoms, "--p", str(p), "--n", str(n),
            "--mode", mode, "--eps", str(eps), "--seed", str(seed),
            "--stream", str(stream), "--set", "b+c+e", "--csv", str(csv_path)]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    rng = rng_for(seed, stream)
    arr = np.asarray(masses)
    if mode == "exact":
        mat = ref_exact_matrix(arr, p, rng, n)
    else:
        mat = ref_poisson_matrix(arr, p, rng, n, eps)
    draws = mat[:, [1, 2, 4]].max(axis=1)
    assert out["quantiles"] == {str(q): float(np.quantile(draws, q)) for q in QS}
    assert out["mean"] == float(draws.mean())
    with open(csv_path, newline="") as fh:
        assert_same_text(fh.read(), ref_csv(space.atom_labels(), mat, draws))


@pytest.mark.parametrize("mode, bound_cells", [("exact", 0.5), ("poisson", 1.5)])
def test_simulate_streams_without_an_n_by_k_matrix(mode, bound_cells, capsys):
    # tracemalloc sees numpy's buffers. Exact mode holds one block and the n
    # set values; Poisson mode adds the n x k int64 counts. A float64 n x k
    # matrix (8 bytes a cell) breaks either bound.
    n, k = 200_000, 12
    atoms = ",".join(f"{l}:{0.1 * (i + 1)!r}" for i, l in enumerate(LABELS[:k]))
    argv = ["simulate", "--atoms", atoms, "--p", "2", "--n", str(n), "--mode", mode]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "quantiles" in json.loads(capsys.readouterr().out)
    assert peak < bound_cells * n * k * 8, peak


# ---------------------------------------------------------------------------
# the numpy statistics against scipy, which the runtime no longer imports
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    masses_st.filter(lambda ms: any(x > 0 for x in ms)),
    tail_st,
    st.integers(1, 3000),
    st.integers(1, 2**12 - 1),
    st.integers(0, 2**32 - 1),
)
def test_one_sample_ks_statistic_is_scipys(masses, p, n, mask, seed):
    space = space_of(len(masses))
    m = AdditiveMeasure(space, masses)
    bset = MeasurableSet(space, mask & (space.n_sets - 1) or 1)
    rep = frechet_marginal_check(m, p, rng_for(seed), n, bset=bset)
    draws = sample_matrix(m, p, rng_for(seed), n)[:, bset.atom_indices()].max(axis=1)
    mb = m(bset)

    def cdf(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0, np.exp(-mb * x ** (-p)), 0.0)

    assert rep.statistic == float(stats.kstest(draws, cdf).statistic)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3000),
    st.integers(1, 5000),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
@example(n=1, levels=1, shift=0, seed=0)  # one tie, h = 0
@example(n=2000, levels=1, shift=0, seed=0)  # all tied, h = 0
@example(n=2000, levels=2000, shift=3, seed=1)  # half of b shifted: p tiny
@example(n=5, levels=1, shift=1, seed=0)  # a tied at 0, b at 0 or 1
def test_two_sample_ks_is_scipys_exact_path(n, levels, shift, seed):
    # integer values from `levels` levels: few levels give many ties and
    # small h, many levels give a continuous-looking sample
    rng = rng_for(seed)
    a = rng.integers(0, levels, n).astype(float)
    b = rng.integers(0, levels, n).astype(float) + shift * rng.uniform(0, 1, n).round()
    stat, pvalue = _ks_2samp_equal(a, b)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = stats.ks_2samp(a, b)
    assert stat == float(res.statistic)
    if any("Exact calculation unsuccessful" in str(w.message) for w in caught):
        # scipy's exact sum rounded above 1 (true value 1 up to rounding) and
        # it fell back to its asymptotic form; the exact sum is clipped here
        assert pvalue == 1.0
    else:
        assert pvalue == float(res.pvalue)


def test_two_sample_ks_clips_a_sum_that_rounds_above_one():
    # h = 1 at n = 5: P(D >= 1/5) = 1, and the Horner sum gives 1 + 2^-52
    a = np.arange(5.0)
    b = np.array([0.0, 1.0, 2.0, 3.0, 5.0])
    assert _ks_2samp_equal(a, b) == (0.2, 1.0)


def test_lambert_wm1_is_scipys_to_8_ulp():
    # log grid in |z| from the branch point down to 1e-300, where W = -697;
    # at the rounded branch point itself scipy returns nan
    z = -np.logspace(math.log10(1 / math.e), -300, 20_001)[1:]
    want = lambertw(z, -1).real
    assert np.isfinite(want).all()
    ulps = np.abs(_lambert_wm1(z) - want) / np.spacing(np.abs(want))
    assert ulps.max() <= 8
    assert _lambert_wm1(-1 / math.e) == -1.0
    assert _lambert_wm1(np.array([-1e-300, 0.0]))[1] == -INF
