"""One-dimensional story: one-sided energies and their bond-kernel form.

Tabulates the even kernel rho that turns the one-sided Dirichlet energy into
a two-point (bond) energy, shows the sign change for the sine profile, the
clamped construction for the non-integrable fractional profile, and the
factorization of the doubly nonlocal Laplacian.
"""

import numpy as np

from nlspectral import normalize
from nlspectral.fields import SpectralField
from nlspectral import onedim as od
from nlspectral import operators as ops

print("=== constant profile: rho(a) = 2 a^3 at unit horizon ===")
kc = normalize("constant", 1)
rho_c = od.rho_from_kernel(kc, mesh_size=512)
print("mass:", rho_c.l1_mass, " rho(0.5) =", float(rho_c.value(0.5)), "(exact 0.25)")

print()
print("=== sine profile: a genuinely sign-changing bond kernel ===")
ks = normalize("sine", 1)
rho_s = od.rho_from_kernel(ks, mesh_size=512)
points = np.array([0.05, 0.1, 0.3, 0.5])
for a, val in zip(points, od._rho_pointwise(ks, points)[0]):
    print(f"rho({a}) = {val:+.6f}")
print("mass:", rho_s.l1_mass)

print()
print("=== fractional profile via shrinking clamps ===")
kf = normalize("fractional", 1, beta=1.0)
levels, limit = od.rho_regularized(kf, mesh_size=256)
for lv in levels:
    print(f"eps={lv.epsilon:8.1e}  mass={lv.l1_mass:.9f}")
# the limit's bond symbol against |lambda^+|^2 of the uncut kernel itself
xi = np.arange(1.0, 9.0)
lam2 = np.abs(od.one_sided_symbol(kf, xi)) ** 2
gap = float(np.max(np.abs(lam2 + ops.bond_symbol(limit, xi)) / lam2))
print(f"max relative gap of -bond symbol vs |lambda+|^2 over xi = 1..8: {gap:.1e}")

print()
print("=== energy equivalence on u = sin x ===")
u = SpectralField.zeros(1, 4)
u.set_mode((1,), -0.5j)
out = od.energy_equivalence_check(kc, u, rho=rho_c)
print(f"one-sided energy {out['e_plus']:.12f}  bond energy {out['e_rho']:.12f}  "
      f"gap {out['gap']:.2e}")

print()
print("=== doubly nonlocal Laplacian factorizes through the averaging window ===")
kd = normalize("constant", 1, horizon=0.2)
gamma = od.rho_from_kernel(kd, mesh_size=256)
eta = ops.AveragingWindow(0.05)
xi = np.arange(1.0, 65.0)
direct = ops.double_symbol_direct(gamma, eta, xi)
product = ops.bond_symbol(gamma, xi) * ops.averaging_symbol(eta, xi)
print("max factorization gap over |xi| <= 64:", float(np.max(np.abs(direct - product))))
print("averaging symbol at 0:", float(ops.averaging_symbol(eta, np.array([0.0]))[0]))
