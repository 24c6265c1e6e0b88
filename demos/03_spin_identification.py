"""End-to-end nuclear-spin identification on a simulated bath.

Simulates a dynamical-decoupling trace from a 3-spin environment, fits a
10-spin ansatz with the L2-regularized ELBO, and prunes the posterior down to
the spin count and hyperfine couplings that explain the data. Reduced scale:
runs in about a minute; the full desk-scale run is acceptance criterion 6.
"""

import numpy as np

from vbi.pipeline import fit_dataset, select_spins
from vbi.simulator import ScenarioConfig, simulate_dataset, total_measurement_time

truth = np.array([-0.18, 0.32, 0.04, 0.22, 0.21, 0.40])  # (A_z, A_perp) pairs
scenario = ScenarioConfig(kind="dd", theta_true=truth, m_points=256,
                          repetitions=1024, seed=5)
records = simulate_dataset(scenario)
t_tot = total_measurement_time([r.tau_us for r in records],
                               scenario.repetitions, scenario.n_pi)
print(f"simulated {len(records)} delays, acquisition time {t_tot:.1f} s")

config = {
    "model": {"kind": "dd", "B_gauss": 403.0, "ansatz_spins": 10,
              "m_points": 256, "repetitions": 1024},
    "train": {"batch": 64, "steps": 600, "seed": 0},
    "regularizer": {"kind": "l2", "sigma": 1e-3, "trainable": True},
    "selection": {"draws": 2048},
}
params, phi, trace = fit_dataset(config, records, seed=0)
print(f"fit done, smoothed ELBO {trace.smoothed_elbo():.1f}, "
      f"T2 = {1 / max(phi.t2_inv, 1e-12) / 1000:.1f} ms")

truth_2d = truth.reshape(-1, 2)
sample_set, clusters, metrics = select_spins(config, params, 99, truth_2d)
print("class probabilities:",
      {c: round(p, 3) for c, p in sorted(sample_set.probabilities.items())})
print(f"MAP class: {sample_set.map_class} spins")
print(f"precision {metrics.precision:.2f}, recall {metrics.recall:.2f}, "
      f"F1 {metrics.f1:.2f}")
for cluster in sorted(clusters, key=lambda c: c.mu[0]):
    print(f"  cluster at A_z = {cluster.mu[0]:+.4f} MHz, "
          f"A_perp = {cluster.mu[1]:.4f} MHz, weight {cluster.weight:.2f}")
print("truth:")
for az, ap in sorted(truth_2d.tolist()):
    print(f"  spin at    A_z = {az:+.4f} MHz, A_perp = {ap:.4f} MHz")
