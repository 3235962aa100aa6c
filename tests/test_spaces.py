"""Finite spaces, bitmask sets, atom-constant functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxitive.additive import AdditiveMeasure
from maxitive.errors import (
    EmptyBlock,
    ExplicitBudgetExceeded,
    OverlappingBlocks,
    UncoveredElement,
)
from maxitive.measures import MaxitiveMeasure
from maxitive.spaces import (
    INF,
    MeasurableFn,
    MeasurableSet,
    SetFunction,
    as_value,
    build_space,
    close,
    esub,
    le,
    vclose,
    vle,
    vsub,
)
from test_lattice import set_partitions, submasks


def test_build_space_basic(abc):
    assert abc.n_atoms == 3
    assert abc.n_sets == 8
    assert abc.full_mask == 7
    assert abc.atom_labels() == ("a", "b", "c")


def test_build_space_grouped_atoms():
    sp = build_space("abcd", [["a", "b"], ["c"], ["d"]])
    assert sp.n_atoms == 3
    assert sp.atom_labels() == ("a", "c", "d")
    assert sp.atom_members(0) == ("a", "b")


def test_build_space_rejects_bad_partitions():
    with pytest.raises(EmptyBlock):
        build_space("ab", [["a"], [], ["b"]])
    with pytest.raises(OverlappingBlocks):
        build_space("ab", [["a"], ["a", "b"]])
    with pytest.raises(UncoveredElement):
        build_space("abc", [["a"], ["b"]])
    with pytest.raises(OverlappingBlocks):
        # duplicate ground element
        build_space("aab", [["a"], ["b"]])
    with pytest.raises(ValueError):
        build_space("ab", [["a"], ["b"], ["z"]])


def test_set_names_use_atom_labels():
    # an atom is named by its first member alone, in reading and in writing
    sp = build_space("abcd", [["a", "b"], ["c"], ["d"]])
    assert sp.mask_named("a+d") == sp.mask_named(" d + a ") == 0b101
    assert sp.set_name(0b101) == "a+d"
    assert sp.mask_named("") == sp.mask_named("  ") == 0 and sp.set_name(0) == ""
    for text, label in (("a+b", "b"), ("q", "q"), ("a++c", ""), ("+", "")):
        with pytest.raises(ValueError, match=f"^unknown atom label {label!r}$"):
            sp.mask_named(text)


def test_set_operations(abc):
    a = MeasurableSet(abc, abc.mask_named("a"))
    ab = MeasurableSet(abc, abc.mask_named("a+b"))
    c = MeasurableSet(abc, abc.mask_named("c"))
    assert (a | c).mask == 0b101
    assert (ab & a) == a
    assert (ab - a).labels() == ("b",)
    assert (~a).mask == 0b110
    assert a <= ab
    assert not ab <= a
    assert len(ab) == 2
    assert ab.atom_indices() == (0, 1)
    assert abc.empty().is_empty
    assert abc.full().mask == 7


def test_sets_on_different_spaces_do_not_mix(abc, abcd):
    with pytest.raises(ValueError):
        abc.full() | abcd.full()


MASKS = st.integers(min_value=0, max_value=31)


@settings(deadline=None, max_examples=200)
@given(MASKS, MASKS, MASKS)
def test_set_algebra_laws(x, y, z):
    sp = build_space("pqrst", [["p"], ["q"], ["r"], ["s"], ["t"]])
    a, b, c = (MeasurableSet(sp, m) for m in (x, y, z))
    assert ~(a | b) == (~a) & (~b)
    assert ~(a & b) == (~a) | (~b)
    assert (a | (b & c)) == (a | b) & (a | c)
    assert (a - b) == a & ~b
    assert a | a == a
    if a <= b and b <= a:
        assert a == b


def test_submasks_enumerates_all_subsets():
    got = sorted(submasks(0b1011))
    want = sorted(
        m for m in range(16) if m & ~0b1011 == 0
    )
    assert got == want
    assert list(submasks(0)) == [0]


def test_set_partitions_counts_are_bell_numbers():
    bell = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52}
    for n, count in bell.items():
        parts = list(set_partitions(range(n)))
        assert len(parts) == count
        for part in parts:
            flat = sorted(x for blk in part for x in blk)
            assert flat == list(range(n))


def test_close_and_esub():
    assert close(1.0, 1.0 + 1e-12)
    assert not close(1.0, 1.01)
    assert close(INF, INF)
    assert not close(INF, 1e300)
    assert close(1e6, 1e6 * (1 + 1e-10))
    assert esub(INF, INF) == 0.0
    assert esub(5.0, 2.0) == 3.0
    assert esub(INF, 3.0) == INF
    assert list(vclose([1.0, INF], [1.0 + 1e-12, INF])) == [True, True]
    assert list(vclose([INF], [1e300])) == [False]


def ref_le(a, b, tol):
    """a <= b, or a - b within tol * max(1, |a|, |b|); an infinite drop never is."""
    if a <= b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return a - b <= tol * max(1.0, abs(a), abs(b))


TOLS = st.sampled_from([0.0, 1e-9, 0.5])
SPECIAL = st.sampled_from([0.0, -0.0, INF, -INF, 1.0])
SIGNED = st.one_of(SPECIAL, st.floats(-1e12, 1e12), st.floats(0.0, 2.0))


@st.composite
def order_pairs(draw):
    """(a, b, tol) with b often at the slack edge below a, give or take an ulp."""
    tol = draw(TOLS)
    a = draw(SIGNED)
    edge = a - tol * max(1.0, abs(a)) if math.isfinite(a) else a
    b = draw(st.one_of(SIGNED, st.just(a), st.just(edge)))
    for _ in range(draw(st.integers(0, 3))):
        b = math.nextafter(b, draw(st.sampled_from([INF, -INF])))
    return a, b, tol


@settings(max_examples=400)
@given(order_pairs())
def test_le_matches_the_scalar_reference(pair):
    a, b, tol = pair
    assert le(a, b, tol) == ref_le(a, b, tol)
    assert le(a, a, tol)


@settings(max_examples=100)
@given(st.lists(order_pairs(), min_size=1, max_size=12), TOLS)
def test_vle_is_le_elementwise(pairs, tol):
    a = np.array([x for x, _, _ in pairs])
    b = np.array([y for _, y, _ in pairs])
    assert vle(a, b, tol).tolist() == [le(x, y, tol) for x, y in zip(a.tolist(), b.tolist())]


def test_le_keeps_inf_above_every_finite_value():
    for tol in (0.0, 1e-9, 0.5):
        assert le(1e300, INF, tol) and le(INF, INF, tol)
        assert not le(INF, 1e300, tol)
        assert le(1.0 + tol / 2, 1.0, tol)
    assert vle([INF, 0.0, -0.0], [1e300, -0.0, 0.0], 0.0).tolist() == [False, True, True]


@settings(max_examples=200)
@given(st.lists(st.tuples(SIGNED, SIGNED), min_size=1, max_size=12))
def test_vsub_is_esub_elementwise(pairs):
    a = np.array([x for x, _ in pairs])
    b = np.array([y for _, y in pairs])
    want = np.array([esub(x, y) for x, y in pairs])
    assert vsub(a, b).view(np.int64).tolist() == want.view(np.int64).tolist()


def test_as_value_rejects_bad_scalars():
    assert as_value("2.5") == 2.5
    assert as_value(INF) == INF
    with pytest.raises(ValueError):
        as_value(-1.0)
    with pytest.raises(ValueError):
        as_value(float("nan"))


def test_measurable_fn_constructors(abc):
    f = MeasurableFn(abc, [3, 1, 4])
    assert f(0) == 3.0 and f(2) == 4.0
    g = MeasurableFn.from_labels(abc, {"a": 1, "b": 2, "c": 3})
    assert list(g.atom_values) == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        MeasurableFn.from_labels(abc, {"a": 1, "b": 2})
    with pytest.raises(ValueError):
        MeasurableFn(abc, [1, 2])
    with pytest.raises(ValueError):
        MeasurableFn(abc, [1, -2, 3])
    k = MeasurableFn.constant(abc, 7)
    assert set(k.atom_values) == {7.0}


def test_indicator_takes_an_identity(abc):
    b = MeasurableSet(abc, abc.mask_named("a+c"))
    ind = MeasurableFn.indicator(abc, b)
    assert list(ind.atom_values) == [1.0, 0.0, 1.0]
    ind_inf = MeasurableFn.indicator(abc, b, one=INF)
    assert list(ind_inf.atom_values) == [INF, 0.0, INF]


def test_level_sets_and_values(abc):
    f = MeasurableFn(abc, [3, 1, 4])
    assert f.level_set(2.5).mask == 0b101
    assert f.level_set(3).mask == 0b100
    assert f.level_set_ge(3).mask == 0b101
    assert f.distinct_values() == [1.0, 3.0, 4.0]
    assert f.distinct_values(MeasurableSet(abc, abc.mask_named("b"))) == [1.0]


def test_pointwise(abc):
    f = MeasurableFn(abc, [3, 1, 4])
    g = MeasurableFn(abc, [1, 1, 1])
    s = f.pointwise(lambda a, b: a + b, g)
    assert list(s.atom_values) == [4.0, 2.0, 5.0]
    t = f.pointwise(lambda a: a * 2)
    assert list(t.atom_values) == [6.0, 2.0, 8.0]
    with pytest.raises(ValueError):
        f.pointwise(lambda a, b: a, MeasurableFn(build_space("xy", [["x"], ["y"]]), [1, 1]))


def test_set_function_validation(abc):
    tab = [0.0] * 8
    tab[7] = 1.0
    w = SetFunction(abc, tab)
    assert w(abc.full()) == 1.0
    assert w(0b011) == 0.0
    with pytest.raises(ValueError):
        SetFunction(abc, [1.0] * 8)  # empty set must carry 0
    with pytest.raises(ValueError):
        SetFunction(abc, [0.0] * 7)
    # the first NaN or negative entry is named
    nan = float("nan")
    with pytest.raises(ValueError, match=r"not a value in \[0, inf\]: -1\.0$"):
        SetFunction(abc, [0, 1, -1.0, 1, 1, nan, 1, 1])
    with pytest.raises(ValueError, match=r"not a value in \[0, inf\]: nan$"):
        SetFunction(abc, [0, nan, 1, -2.0, 1, 1, 1, 1])
    # a signed zero is stored as +0.0, and the caller's array is left alone
    given_table = np.array([-0.0, 1, -0.0, 1, 1, 1, 1, 1])
    w = SetFunction(abc, given_table)
    assert math.copysign(1.0, w.table[0]) == math.copysign(1.0, w.table[2]) == 1.0
    assert math.copysign(1.0, given_table[2]) == -1.0 and given_table.flags.writeable
    big = build_space([f"g{i}" for i in range(22)], [[f"g{i}"] for i in range(22)])
    with pytest.raises(ExplicitBudgetExceeded):
        SetFunction(big, [0.0] * big.n_sets)


@pytest.mark.parametrize(
    "cls, attr, what",
    [
        (MeasurableFn, "atom_values", "atom values"),
        (MaxitiveMeasure, "atom_values", "atom values"),
        (AdditiveMeasure, "atom_masses", "atom masses"),
    ],
)
def test_atom_value_validation(abc, cls, attr, what):
    # the first NaN or negative entry is named as it was passed
    nan = float("nan")
    with pytest.raises(ValueError, match=r"^not a value in \[0, inf\]: -1\.0$"):
        cls(abc, [1, -1.0, nan])
    with pytest.raises(ValueError, match=r"^not a value in \[0, inf\]: nan$"):
        cls(abc, [nan, -2.0, 1])
    # values are checked before the length
    with pytest.raises(ValueError, match=r"^not a value in \[0, inf\]: -1$"):
        cls(abc, [-1])
    with pytest.raises(ValueError, match=f"^expected 3 {what}, got 2$"):
        cls(abc, [1.0, 2.0])
    # a signed zero is stored as +0.0, in an immutable tuple of Python
    # floats, and the caller's array is left alone
    given_vals = np.array([-0.0, 1.0, -0.0])
    stored = getattr(cls(abc, given_vals), attr)
    assert [math.copysign(1.0, v) for v in stored] == [1.0, 1.0, 1.0]
    assert type(stored) is tuple and {type(v) for v in stored} == {float}
    assert math.copysign(1.0, given_vals[0]) == -1.0 and given_vals.flags.writeable


def test_space_equality_and_repr(abc):
    same = build_space("abc", [["a"], ["b"], ["c"]])
    other = build_space("abc", [["a", "b"], ["c"]])
    assert abc == same and hash(abc) == hash(same)
    assert abc != other
    assert "3 atoms" in repr(abc)
    assert "a" in repr(MeasurableSet(abc, abc.mask_named("a")))
