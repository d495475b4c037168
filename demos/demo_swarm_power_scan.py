"""Formation-keeping power of a grid swarm as the satellite count grows.

A square grid of (2n+1)^2 satellites with fixed total mass and fixed array
side length rides a stable relative orbit.  Each line of the grid cancels
its J2 residual disturbance pairwise (bucket brigade), every pair command is
costed by its optimal dual cost, in closed form, and the swarm totals follow.  Increasing n
shrinks both the mass prefactor chi_sys and the pair separations, so the
normalized power metric M falls steeply while the available surface area
grows as N_l^(2/3).
"""

import csv

import numpy as np

import emff

ctx = emff.make_context(altitude=500e3, incl=np.deg2rad(45.0), theta0=0.0)
plane = emff.StablePlane(theta_p=np.deg2rad(30.0), theta_z_xy=0.0, r_xyd=100.0)
field = emff.DisturbanceField.from_orbit(ctx, plane)
coil = emff.CoilDesign(turns=200, coil_radius=0.5, wire_radius=1e-3, resistivity=1.68e-8)

m_sys = 100.0  # kg, held fixed
r_l = 200.0    # m array side, held fixed
grid = emff.orbit_time_grid(ctx.period, 96)  # coarse grid for a quick demo

print(f"scenario: 500 km / 45 deg, m_sys = {m_sys} kg, r_l = {r_l} m")
print(f"{'n':>3} {'N_all':>6} {'d_sat m':>8} {'chi kg':>9} "
      f"{'W_bar W':>12} {'W_oint W':>12} {'M A^2m^4/kg':>13} {'gamma_S':>8}")

# one call costs every n: one field sample, then one table of pair costs per n
cfgs = [emff.GridConfig.from_line_length(n, m_sys, r_l) for n in range(1, 7)]
rows = emff.compute_power_reports(cfgs, field, coil, grid)
for cfg, rep in zip(cfgs, rows):
    print(f"{cfg.n:>3} {cfg.n_total:>6} {cfg.d_sat:>8.2f} {cfg.chi_sys:>9.4f} "
          f"{rep.W_bar:>12.4e} {rep.W_oint:>12.4e} {rep.M:>13.4e} {rep.gamma_S:>8.3f}")

Ms = [r.M for r in rows]
print("normalized metric strictly decreasing:", all(a > b for a, b in zip(Ms, Ms[1:])))
print("peak pair rule (w*(2) dominates) held:", all(r.peak_pair_violation <= 0 for r in rows))
# every pair cost is closed form: rows off its vertex branch carry a measured gap
print(f"pair-cost rows on the root branch: {sum(r.root_rows for r in rows)}, "
      f"largest measured gap {max(r.gap for r in rows):.1e}, "
      f"smallest vertex margin {min(r.vertex_margin for r in rows):.4f}")

with open("swarm_power_scan.csv", "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["n", "N_all", "W_bar_W", "W_oint_W", "M_A2m4_per_kg", "gamma_S"])
    for n, rep in enumerate(rows, start=1):
        writer.writerow([n, (2 * n + 1) ** 2, rep.W_bar, rep.W_oint, rep.M, rep.gamma_S])
print("wrote swarm_power_scan.csv")
