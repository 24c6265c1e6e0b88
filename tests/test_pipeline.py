import numpy as np

from vbi.pipeline import greedy_comb_init
from vbi.simulator import MODEL_DD, ScenarioConfig, simulate_dataset

TRUTH = np.array([(-0.15, 0.30), (0.02, 0.25), (0.17, 0.40)])


def assert_greedy_finds_three_spins(n_pi):
    scenario = ScenarioConfig(kind=MODEL_DD, theta_true=TRUTH.ravel(), m_points=256, seed=5,
                              n_pi=n_pi)
    records = simulate_dataset(scenario)
    spins = np.array(sorted(greedy_comb_init(records, scenario.omega_l, 5)))
    assert spins.shape == TRUTH.shape
    assert np.all(np.abs(spins[:, 0] - TRUTH[:, 0]) <= 1e-3)
    assert np.all(np.abs(spins[:, 1] - TRUTH[:, 1]) <= 0.02)


def test_greedy_comb_init_finds_three_spins():
    assert_greedy_finds_three_spins(32)


def test_greedy_comb_init_scores_at_the_records_n_pi():
    # scored at the ScenarioConfig default N_pi of 32 instead, the start is off
    # by kHz and finds a spurious fourth spin
    assert_greedy_finds_three_spins(24)
