import numpy as np

from vbi.pipeline import greedy_comb_init
from vbi.simulator import MODEL_DD, ScenarioConfig, simulate_dataset


def test_greedy_comb_init_finds_three_spins():
    truth = np.array([(-0.15, 0.30), (0.02, 0.25), (0.17, 0.40)])
    scenario = ScenarioConfig(kind=MODEL_DD, theta_true=truth.ravel(), m_points=256, seed=5)
    records = simulate_dataset(scenario)
    spins = np.array(sorted(greedy_comb_init(records, scenario.omega_l, 5, 32)))
    assert spins.shape == truth.shape
    assert np.all(np.abs(spins[:, 0] - truth[:, 0]) <= 1e-3)
    assert np.all(np.abs(spins[:, 1] - truth[:, 1]) <= 0.02)
