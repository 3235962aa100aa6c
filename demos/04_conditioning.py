"""
Conditioning a variable on a sub-algebra
========================================

A possibility distribution on four atoms, a variable X, and the block
algebra a+b | c+d.
"""

from maxitive import (
    AdditiveMeasure,
    MeasurableFn,
    PossibilitySpace,
    SubAlgebra,
    build_space,
    conditional,
    conditional_suite,
    expectation,
    law,
    power_mean_limit,
)
from maxitive.semigroup import MIN, TIMES

space = build_space("abcd", [["a"], ["b"], ["c"], ["d"]])
pi = PossibilitySpace(space, [1, 0.5, 0.25, 1])
x = MeasurableFn(space, [2, 5, 3, 1])
sub = SubAlgebra.from_string(space, "a+b|c+d")

print("expectation of x, times:", expectation(TIMES, x, pi))
print("expectation of x, min:", expectation(MIN, x, pi))

# per block: integrate x over the block, residuate by the block mass
for op in (TIMES, MIN):
    y = conditional(op, x, pi, sub)
    print(f"conditional under {op.name}:", [float(v) for v in y.atom_values])

# the full law suite on this instance: defining property, block
# characterization, monotonicity, scaling, tower, total, measurable fix
rep = conditional_suite(TIMES, x, pi, sub)
print("all laws hold:", rep.all_hold())

# the law of x as a possibility on its values
l = law(x, pi)
print("possibility of the value 5:", l(5))

# conditional p-means against a uniform probability collapse onto the
# conditional for the two-valued companion possibility as p grows
m = AdditiveMeasure(space, [0.25, 0.25, 0.25, 0.25])
pm = power_mean_limit(m, x, sub)
print("limit variable:", [float(v) for v in pm.limit.atom_values])
for p, rel in zip(pm.ps, pm.max_rel_gap):
    print(f"  p={p:>4}: relative gap {rel:.6f}")
