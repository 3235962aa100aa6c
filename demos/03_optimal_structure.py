"""
Structure of maxitive set functions
===================================

Alternation of every order, atom decomposition, disjoint variation, and
the bridge back to classical additive measure theory.
"""

from maxitive import (
    AdditiveMeasure,
    MaxitiveMeasure,
    MeasurableFn,
    SetFunction,
    atom_decomposition,
    build_space,
    choquet_alternating,
    choquet_integral,
    classify,
    disjoint_variation,
    essential_witness,
    lebesgue_integral,
)
from maxitive.additive import implication_chain
from maxitive.measures import finiteness_suite
from maxitive.semigroup import MIN, TIMES
from maxitive.spaces import INF

space = build_space("abcd", [["a"], ["b"], ["c"], ["d"]])
nu = MaxitiveMeasure(space, [1, 2, 0.5, 2])

# maxitive measures alternate at every order; the report carries the
# minimum signed iterated difference actually observed
rep = choquet_alternating(nu, order=4)
print("alternating up to order 4:", rep.ok, "min signed value:", rep.min_signed_value)

# the unanimity game on two atoms fails already at order 2
pair = build_space("xy", [["x"], ["y"]])
game = SetFunction(pair, [0, 0, 0, 1])
bad = choquet_alternating(game, order=2)
print("unanimity game order 2:", bad.ok, "witness:", bad.witness)

# every predicate at once
props = classify(nu)
print("maxitive:", props.maxitive, "completely maxitive:", props.completely_maxitive)
print("atom values:", props.atom_values)

# decomposition into measure atoms, ordered by decreasing mass
dec = atom_decomposition(nu)
print("atoms:", [repr(h) for h in dec.atoms])
print("values:", dec.values)
print("variation (least additive majorant mass):", disjoint_variation(nu))

# an additive measure with the same null sets
w = essential_witness(nu)
print("essential witness masses:", [float(v) for v in w.atom_masses])

# op-finiteness depends on the operation when infinity shows up
heavy = MaxitiveMeasure(space, [INF, 2, 0.5, 2])
print("times-finiteness with an infinite atom:", finiteness_suite(TIMES, heavy))
print("min-finiteness with an infinite atom:", finiteness_suite(MIN, heavy))

# the classical chain: finite => sigma-finite => semi-finite, and
# sigma-finite => localizable. On a finite algebra semi-finiteness is
# sigma-finiteness and every measure is localizable, so only
# finite => sigma-finite is checked on the masses
m = AdditiveMeasure(space, [1, 0.5, 2, 0])
chain = implication_chain(m)
print("classical chain:", chain)

# on additive input the Choquet integral is the Lebesgue integral
f = MeasurableFn(space, [3, 1, 4, 0.5])
print("choquet:", choquet_integral(f, m.to_set_function()))
print("lebesgue:", lebesgue_integral(f, m))
