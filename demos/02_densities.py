"""
Densities of maxitive measures
==============================

Three extraction routes and one measure with no density at all.
"""

from maxitive import (
    AdditiveMeasure,
    MaxitiveMeasure,
    MeasurableFn,
    build_space,
    density_from_associated,
    density_measure,
    envelope_density,
    rn_density,
)
from maxitive.errors import NoDensity
from maxitive.semigroup import MIN, TIMES
from maxitive.spaces import INF

space = build_space("abc", [["a"], ["b"], ["c"]])

# start from a reference tau and a density c, build nu = integral of c,
# then ask for the density back
tau = MaxitiveMeasure(space, [1, 2, 0.5])
c = MeasurableFn(space, [3, 1, 4])
nu = density_measure(TIMES, c, tau)
print("nu on atoms:", [nu(1 << i) for i in range(3)])

d = rn_density(TIMES, nu, tau)
print("recovered density:", [float(v) for v in d.atom_values])

# under min the residual picks the smallest version, not necessarily c
nu2 = density_measure(MIN, c, tau)
d2 = rn_density(MIN, nu2, tau)
print("a min-density version:", [float(v) for v in d2.atom_values])

# a point mass is absolutely continuous with respect to its infinite
# scaling, yet no times-density exists: the residual collapses to zero
point = MaxitiveMeasure(space, [1, 0, 0])
blown = MaxitiveMeasure(space, [INF, 0, 0])
try:
    rn_density(TIMES, point, blown)
except NoDensity as exc:
    print("refused as expected:", exc)

# the additive envelope route: min over partitions of sum nu * m,
# which collapses to the singleton partition
m = AdditiveMeasure(space, [1, 0.5, 2])
rep = envelope_density(nu, m)
print("envelope on the full set:", rep.envelope(space.full_mask))
print("envelope density:", [float(v) for v in rep.density.atom_values])
print("reconstruction verified:", rep.reconstruction_ok)

# an infinite atom takes the same closed form: its density is inf / m_i = inf
big = MaxitiveMeasure(space, [INF, 2, 0.5])
rep_inf = envelope_density(big, m)
print("transformed:", rep_inf.transformed,
      "density:", [round(float(v), 12) for v in rep_inf.density.atom_values])

# the associated route: both measures given as essential suprema of
# scalar functions over one background measure
mu = AdditiveMeasure(space, [0.4, 0.3, 0.3])
c1 = MeasurableFn(space, [3, 1, 4])
c2 = MeasurableFn(space, [1, 2, 2])
d3 = density_from_associated(TIMES, mu, c1, c2)
print("associated-route density:", [round(float(v), 12) for v in d3.atom_values])
