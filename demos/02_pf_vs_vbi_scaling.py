"""Particle filter vs variational inference as the frequency count grows.

Reduced-scale version of the scalability comparison: both methods consume the
same binomial-aggregated dataset per n, and are scored by the sorted
mean-square error against a no-measurement prior baseline. The PF holds its
own at small n and collapses to the baseline as the dimension grows; VBI does
not. (Full-scale bands run in tests/test_acceptance.py, criterion 4.)
"""

import numpy as np

from vbi import flows, smc
from vbi.pipeline import fit_dataset
from vbi.likelihoods import ToyModel
from vbi.probcore import RngStream
from vbi.simulator import ScenarioConfig, simulate_dataset
from vbi.trainer import PriorSpec

N_PARTICLES = 4096
print(f"{'n':>3} {'baseline':>10} {'PF':>10} {'VBI':>10}")
for n in (2, 4, 8):
    truth = RngStream(50000 + 1000 * n).uniform(0.0, 1.0, n)
    scenario = ScenarioConfig(kind="toy", theta_true=truth, m_points=256,
                              repetitions=1024, seed=0, log_tau_range=(-1.0, 3.5))
    records = simulate_dataset(scenario)
    model = ToyModel(n=n)

    baseline = smc.prior_mode_baseline_error(n, 5000, RngStream(90000 + n))

    ens = smc.pf_init(np.zeros(n), np.ones(n), N_PARTICLES, RngStream(7))
    ens = smc.pf_run(ens, records, model)
    pf_error = smc.sorted_square_error(smc.pf_estimate(ens), truth)

    config = {"model": {"kind": "toy", "n_frequencies": n},
              "train": {"batch": 64, "steps": 1200, "lr_start": 1e-2,
                        "lr_end": 1e-3, "seed": 0}}
    params, _, _ = fit_dataset(config, records, 0)
    prior = PriorSpec(kind="box", low=np.zeros(n), high=np.ones(n))
    draws, _, _ = flows.sample_batch(params, 2048, RngStream(13))
    vbi_error = smc.sorted_square_error(prior.transform(draws).mean(axis=0), truth)

    print(f"{n:>3} {baseline:>10.5f} {pf_error:>10.5f} {vbi_error:>10.5f}")
