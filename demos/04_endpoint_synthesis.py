"""Endpoint synthesis: the minimizing geodesic between two group elements.

The solver reduces to a planar target by right-invariance, locates the
unique optimal geodesic through it by a root search on the fan ordering
(Brent's zeroin; bisection for targets beyond radius 3, whose search
carries the optimality-horizon test), and conjugates the lifted curve into
place.

Run:  python demos/04_endpoint_synthesis.py
"""
import math

import numpy as np

from sl2geo import (basis, classify_cut_locus, distance_to_class, exp2, lift,
                    project, solve, verify_solution, QuotientPoint)

np.set_printoptions(precision=9, suppress=True)
A0, A1, A2 = basis()

xi = np.array([[0.0, -1.0], [1.0, 0.0]])
xf = np.array([[2.0, 1.0], [1.0, 1.0]])
print("Endpoint problem: Xi =\n", xi, "\nXf =\n", xf)

x_hat = xf @ np.array([[0.0, 1.0], [-1.0, 0.0]])
print("\nReduced target Xf Xi^-1 =\n", x_hat)
print("its class:", project(x_hat), "->", classify_cut_locus(x_hat).value)

sol = solve(xi, xf)
print("\nSolution:")
print("  c        =", sol.c)
print("  t_f      =", sol.t_f, " (the sub-Riemannian distance)")
print("  P =\n", sol.P)
print("  K =\n", sol.K)
print("  endpoint residual =", verify_solution(sol, xi, xf))

print("\nThe geodesic is t -> exp((c A0 + P) t) exp(-c A0 t) Xi; midpoint:")
from sl2geo import lift_with_direction
mid = lift_with_direction(sol.c, sol.P, 0.5 * sol.t_f) @ xi
print(mid)

print("\nDistance alone, for a planar class point (axis targets are exact):")
res = distance_to_class(QuotientPoint(math.cosh(2.0), 0.0))
print("  target (cosh 2, 0): t_f =", res.t_f, " (exact: 4)")

print("\nCut-locus targets report the ambiguity (here an entire circle of")
print("geodesics reaches the target):")
c = 1.5
t_cut = 2.0 * math.pi / math.sqrt(c * c - 1.0)
x_cut = -exp2(-c * t_cut * A0)
sol_cut = solve(np.eye(2), x_cut)
print("  c =", sol_cut.c, " flagged:", sol_cut.on_cut_locus,
      " residual:", verify_solution(sol_cut, np.eye(2), x_cut))
