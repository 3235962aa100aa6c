"""
Simulating Frechet random sup-measures
======================================

A random measure M with P[M(B) <= x] = exp(-m(B) x^(-p)), independent
over disjoint sets. Exact inversion and a truncated point process give
the same law; the extremal integral shows up as a fitted scale.
"""

import math

import numpy as np

from maxitive import (
    AdditiveMeasure,
    MeasurableFn,
    build_space,
    compare_modes_check,
    extremal_integral,
    frechet_marginal_check,
    rng_for,
    sample_set_values,
    sample_supmeasure,
    scale_recovery_check,
    tail_ratio_check,
)

space = build_space("abc", [["a"], ["b"], ["c"]])
m = AdditiveMeasure(space, [0.5, 0.25, 0.25])
p = 2.0

# one realization behaves as a completely maxitive measure
sample = sample_supmeasure(m, p, rng_for(0))
print("atom maxima:", [round(float(v), 4) for v in sample.atom_values])
print("value on a+b:", round(sample(0b011), 4), "= max of the two atoms")

# the marginal on the full set: empirical frequency against the formula
n = 50_000
draws = sample_set_values(m, p, rng_for(1), n, space.full())
print("P[M(E) <= 1] empirical:", round(float(np.mean(draws <= 1.0)), 4),
      "formula:", round(math.exp(-m(space.full_mask)), 4))

# one-sample Kolmogorov-Smirnov at the 1 percent level
ks = frechet_marginal_check(m, p, rng_for(2), n)
print("KS statistic:", round(ks.statistic, 5), "threshold:", round(ks.threshold, 5),
      "passed:", ks.passed)

# the truncated point process agrees with exact inversion
two = compare_modes_check(m, p, rng_for(3), n, eps=1e-3)
print("two-sample p-value exact vs poisson:", round(two.pvalue, 4))

# M(f) is Frechet with scale equal to the extremal integral of f
f = MeasurableFn(space, [1, 2, 0.5])
print("extremal integral:", extremal_integral(f, m, p))
sc = scale_recovery_check(f, m, p, rng_for(4), n)
print("fitted scale:", round(sc.estimated, 4), "relative error:", round(sc.rel_err, 4))

# regularly varying tails, here with a logarithmic slowly varying factor
single = build_space(["e"], [["e"]])
rep = tail_ratio_check(
    MeasurableFn(single, [1.0]), AdditiveMeasure(single, [1.0]),
    p, rng_for(5), 200_000, slowly="log", level=0.999,
)
print("tail ratio with log factor:", round(rep.ratio, 4), "passed:", rep.passed)
