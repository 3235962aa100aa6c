"""Pseudo-multiplications, residuals, the Galois property."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from maxitive.errors import NotAbsolutelyContinuous
from maxitive.semigroup import (
    MAX,
    MIN,
    PLUS,
    TIMES,
    AxiomReport,
    TableOp,
    by_name,
    builtin_names,
    default_grid,
    exactness_holds,
    galois_holds,
    inf_distributes,
    verify_axioms,
)
from maxitive.spaces import INF, close

OPS = (TIMES, MIN, PLUS, MAX)


def test_by_name_and_builtins():
    assert builtin_names() == ("max", "min", "plus", "times")
    assert by_name("times") is TIMES
    with pytest.raises(ValueError):
        by_name("sum")


def test_identities_and_annihilators():
    for t in (0.0, 0.5, 1.0, 7.0, INF):
        assert TIMES(1.0, t) == t
        assert MIN(INF, t) == t
        assert TIMES(0.0, t) == 0.0  # 0 * inf = 0 by convention
        assert MIN(0.0, t) == 0.0
    # plus and max have identities but no annihilator
    assert PLUS(0.0, 3.0) == 3.0
    assert MAX(0.0, 3.0) == 3.0


def test_axiom_reports():
    for op in (TIMES, MIN):
        rep = verify_axioms(op)
        assert rep.pseudo_multiplication, rep.witnesses
        assert rep.associative and rep.monotone and rep.left_identity
        assert rep.annihilator and rep.continuity_sampled
    for op in (PLUS, MAX):
        rep = verify_axioms(op)
        assert not rep.annihilator
        assert not rep.pseudo_multiplication
        assert rep.associative and rep.monotone


def _pinned(name, witnesses=None, **failing):
    flags = dict(associative=True, monotone=True, left_identity=True, annihilator=True,
                 no_zero_divisors=True, continuity_sampled=True)
    flags.update(failing)
    return AxiomReport(op=name, **flags, pseudo_multiplication=all(flags.values()),
                       witnesses=witnesses or {})


_STEP_GRID = [0.0, 1.0, 2.0, INF]


@pytest.mark.parametrize("op, expected", [
    (TIMES, _pinned("times")),
    (MIN, _pinned("min")),
    (PLUS, _pinned("plus", {"annihilator": (0.001, 0.001, 0.001)}, annihilator=False)),
    (MAX, _pinned("max", {"annihilator": (0.001, 0.001, 0.001)}, annihilator=False)),
])
def test_axiom_reports_are_pinned(op, expected):
    assert verify_axioms(op) == expected


def test_table_op_continuity_falls_back_to_the_grid_verdict():
    # the jump of s -> min(s, 2) between grid points 1 and 2 cannot be
    # bisected off the grid, so the refined scan raises and the unrefined
    # grid scan gives the verdict
    op = TableOp("tmin", _STEP_GRID, _min_table(_STEP_GRID), left_identity=INF)
    with pytest.raises(ValueError):
        op(1.5, 2.0)
    witness = {"axis": "left", "segment": (1.0, 2.0), "at": 2.0}
    expected = _pinned("tmin", {"continuity": witness}, continuity_sampled=False)
    assert verify_axioms(op) == expected


def test_table_op_monotonicity_sees_a_drop_from_inf():
    # min over the grid, except 1 (.) 1 = inf: the scan over s at t = 1
    # reads 0, inf, 1, 1
    table = _min_table(_STEP_GRID)
    table[1][1] = INF
    op = TableOp("tbump", _STEP_GRID, table, left_identity=INF)
    for tol in (0.0, 1e-9):
        rep = verify_axioms(op, tol=tol)
        assert not rep.monotone and rep.witnesses["monotone"] == (2.0, 1.0)


def test_residual_values_frozen():
    # worked out by hand from inf{t : t (.) s >= r}
    assert PLUS.residual(5.0, 3.0) == 2.0
    assert PLUS.residual(3.0, 5.0) == 0.0
    assert MAX.residual(5.0, 3.0) == 5.0
    assert MAX.residual(3.0, 5.0) == 0.0
    assert TIMES.residual(2.0, 4.0) == 0.5
    assert TIMES.residual(0.0, 0.0) == 0.0
    assert MIN.residual(3.0, 5.0) == 3.0
    assert MIN.residual(4.0, 4.0) == 4.0


def test_residual_outside_abs_continuity_raises():
    with pytest.raises(NotAbsolutelyContinuous):
        TIMES.residual(1.0, 0.0)
    with pytest.raises(NotAbsolutelyContinuous):
        MIN.residual(5.0, 3.0)


def test_times_residual_at_infinity():
    # (inf / inf) := inf carries an exactness witness but sits outside
    # the region where the Galois equivalence is promised
    assert TIMES.residual(INF, INF) == INF
    assert TIMES(INF, INF) == INF
    assert not TIMES.residual_defined(INF, INF)
    # finite r over an infinite reference: infimum 0, never attained
    assert TIMES.residual(5.0, INF) == 0.0
    assert not TIMES.residual_defined(5.0, INF)
    assert TIMES.residual_defined(0.0, INF)


def test_exactness_split():
    assert TIMES.exact and MIN.exact
    assert not PLUS.exact and not MAX.exact
    for r, s in ((2.0, 4.0), (0.0, 3.0), (INF, INF), (6.0, 2.0)):
        assert exactness_holds(TIMES, r, s)
    assert exactness_holds(MIN, 3.0, 5.0)
    # plus only dominates: residual(3,5)=0 but 0+5=5
    assert not exactness_holds(PLUS, 3.0, 5.0)
    assert not exactness_holds(MAX, 3.0, 5.0)


def test_galois_on_grid():
    pts = [0.0, 0.3, 1.0, 2.0, 10.0, INF]
    for op in OPS:
        for r in pts:
            for s in pts:
                if not op.residual_defined(r, s):
                    continue
                for t in pts:
                    assert galois_holds(op, r, s, t), (op.name, r, s, t)


GRID_VALS = st.sampled_from([0.0, 1e-3, 0.1, 0.5, 1.0, 2.0, 7.0, 100.0, INF])


@settings(deadline=None, max_examples=300)
@given(GRID_VALS, GRID_VALS, GRID_VALS)
def test_galois_property_sampled(r, s, t):
    for op in OPS:
        if op.residual_defined(r, s):
            assert galois_holds(op, r, s, t)


@settings(deadline=None, max_examples=200)
@given(GRID_VALS, GRID_VALS)
def test_residual_dominates(r, s):
    # where the Galois equivalence holds the residual recovers at least r;
    # outside (finite r over s = inf under times) the infimum is unattained
    for op in OPS:
        if not op.residual_defined(r, s):
            continue
        c = op.residual(r, s)
        assert op(c, s) >= r or close(op(c, s), r)


def test_omap_and_finiteness():
    assert TIMES.omap(3.0) == 0.0
    assert TIMES.omap(INF) == INF
    assert MIN.omap(INF) == 0.0
    assert PLUS.omap(2.0) == 2.0
    assert MAX.omap(INF) == INF
    assert TIMES.finite_element(5.0)
    assert not TIMES.finite_element(INF)
    assert MIN.finite_element(INF)
    assert TIMES.nondegenerate() and MIN.nondegenerate()


def test_inf_distributivity():
    assert inf_distributes(TIMES, [0.5, 2.0, 3.0], 4.0)
    assert inf_distributes(TIMES, [0.0, INF], INF)
    assert inf_distributes(MIN, [1.0, 5.0, INF], 2.0)
    assert inf_distributes(MIN, [INF, 3.0], INF)
    with pytest.raises(ValueError):
        inf_distributes(TIMES, [], 1.0)


def test_default_grid_shape():
    g = default_grid()
    assert g[0] == 0.0 and g[-1] == INF
    assert len(g) == 22
    assert g == sorted(g)


def _min_table(grid):
    return [[min(a, b) for b in grid] for a in grid]


def test_table_op_min_is_exact():
    # the grid is fine enough that adjacent arctan gaps stay below the
    # continuity threshold; a table op cannot be probed off its grid
    grid = [0.0, 0.1, 0.25, 0.45, 0.7, 1.0, 1.4, 2.0, 3.0, 4.0, 5.0, 10.0, INF]
    op = TableOp("tmin", grid, _min_table(grid), left_identity=INF)
    assert op(2.0, 4.0) == 2.0
    assert op.exact
    assert op.residual(2.0, 4.0) == 2.0
    assert galois_holds(op, 2.0, 4.0, 1.0) and galois_holds(op, 2.0, 4.0, 2.0)
    rep = verify_axioms(op)
    assert rep.pseudo_multiplication, rep.witnesses


def test_table_op_detects_inexactness():
    grid = [0.0, 1.0, 2.0, 4.0]
    vals = [[a * b for b in grid] for a in grid]
    op = TableOp("tprod", grid, vals, left_identity=1.0)
    # residual(2, 4) snaps up to grid point 1 and overshoots
    assert not op.exact
    assert op.residual(2.0, 4.0) == 1.0


def test_table_op_validation_and_json():
    with pytest.raises(ValueError):
        TableOp("bad", [1.0, 0.0], [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        TableOp("bad", [0.0, 1.0], [[0, 0]])
    grid = [0.0, 1.0, 2.0]
    op = TableOp("t", grid, _min_table(grid), left_identity=2.0)
    with pytest.raises(ValueError):
        op(0.5, 1.0)  # off the declared grid
    doc = {
        "grid": [0, 1, "inf"],
        "values": [[0, 0, 0], [0, 1, 1], [0, 1, "inf"]],
        "left_identity": "inf",
        "name": "json-min",
    }
    op2 = TableOp.from_json(doc)
    assert op2(1.0, INF) == 1.0
    assert op2.left_identity == INF
    assert op2.exact
