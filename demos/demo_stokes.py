"""Nonlocal Stokes flow: exact per-mode solves and first-order localization.

Solves the steady nonlocal Stokes system for a smooth random forcing at a
ladder of horizons, measures the distance to the classical solution and the
local-divergence defect, and fits the convergence slopes.  Also evolves the
unsteady system and watches the kinetic energy decay.
"""

import numpy as np

from nlspectral import normalize, build_table, random_field, l2_norm
from nlspectral.experiments import fit_slope
from nlspectral.symbols import Orientation, local_table
from nlspectral import operators as ops, solvers as sol

bound = 8
forcing = random_field(2024, bound, 3.0, components=2)
orientation = Orientation.from_angle(0.7)

print("=== steady solve at delta = 0.1 ===")
kernel = normalize("constant", 2, horizon=0.1)
tab = build_table(kernel, orientation, bound)
s = sol.stokes_steady(tab, forcing)
print("per-mode residual of (-L u + G p - f):", sol.stokes_residual(tab, s, forcing))
print("nonlocal divergence of u:", l2_norm(sol.leray_project(tab, s.velocity) - s.velocity))
print("local divergence defect |div u_delta|:",
      l2_norm(ops.divergence(local_table(2, bound), s.velocity)), "(nonzero at finite delta)")

print()
print("=== horizon refinement against the classical solution ===")
deltas = [0.2, 0.1, 0.05, 0.025]
errs = {"err_u": [], "err_p": [], "err_div": []}
for delta in deltas:
    k = normalize("constant", 2, horizon=delta)
    t = build_table(k, orientation, bound)
    e = sol.stokes_errors(t, forcing)
    for key in errs:
        errs[key].append(e[key])
    print(f"delta={delta:6.3f}  err_u={e['err_u']:.3e}  err_p={e['err_p']:.3e}  "
          f"err_div={e['err_div']:.3e}")
for key, vals in errs.items():
    print(f"slope of {key}: {fit_slope(deltas, vals):.3f}  (first order)")

print()
print("=== unforced evolution: monotone energy decay ===")
u0 = sol.leray_project(tab, random_field(7, bound, 2.0, components=2))
times = np.linspace(0.0, 0.5, 11)
traj = sol.stokes_evolve(tab, u0, None, times)
for t, state in zip(times[::2], traj.states[::2]):
    print(f"t={t:4.2f}  ||u||_2 = {l2_norm(state):.6f}")
