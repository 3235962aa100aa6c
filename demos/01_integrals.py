"""
Idempotent integrals on a three-point space
===========================================

The running example: f = (3, 1, 4) against nu = (1, 2, 0.5).
"""

from maxitive import (
    MaxitiveMeasure,
    MeasurableFn,
    MeasurableSet,
    build_space,
    gerritse_integral,
    idempotent_integral,
    ky_fan_distance,
    sugeno_norm,
)
from maxitive.semigroup import MIN, TIMES

space = build_space("abc", [["a"], ["b"], ["c"]])
f = MeasurableFn(space, [3, 1, 4])
nu = MaxitiveMeasure(space, [1, 2, 0.5])

# the integral sweeps the distinct values of f and keeps the best
# op(level, measure of the level set); crosscheck reruns the submask oracle
for op in (TIMES, MIN):
    res = idempotent_integral(op, f, nu, crosscheck=True)
    print(f"integral under {op.name}: {res.value}")
    print(f"  attained at level {res.level}, strict boundary: {res.strict_boundary}")

# the Gerritse form maximizes over every nonempty subset instead
print("submask route, times:", gerritse_integral(TIMES, f, nu))

# restricting the domain only looks at atoms inside the set, named by
# its atoms' labels joined with "+"
bc = MeasurableSet(space, space.mask_named("b+c"))
print("integral over b+c under min:", idempotent_integral(MIN, f, nu, bc).value)

# integrating an indicator recovers the measure, provided "one" is the
# identity of the operation (1 for times, infinity for min)
ind = MeasurableFn.indicator(space, bc, one=TIMES.left_identity)
print("indicator of b+c integrates to", idempotent_integral(TIMES, ind, nu).value)
print("nu(b+c) =", nu(bc))

# the Ky Fan construction turns nu into a distance between functions
g = MeasurableFn(space, [0, 0, 0])
print("Ky Fan distance f to 0:", ky_fan_distance(nu, f, g))
print("same thing as a norm:", sugeno_norm(nu, f))
