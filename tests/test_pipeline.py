import numpy as np
import pytest

from vbi.likelihoods import DDModel, NuisanceParams
from vbi.pipeline import fit_dataset, greedy_comb_init
from vbi.probcore import RngStream
from vbi.simulator import MODEL_DD, ScenarioConfig, simulate_dataset, strongly_coupled_bath

TRUTH = np.array([(-0.15, 0.30), (0.02, 0.25), (0.17, 0.40)])


def assert_greedy_finds_three_spins(az_tol=1e-3, **scenario_keys):
    """The start, scored with the simulating scenario's T2^-1 and readout
    noise, finds the three truth spins."""
    scenario = ScenarioConfig(kind=MODEL_DD, theta_true=TRUTH.ravel(), m_points=256, seed=5,
                              **scenario_keys)
    records = simulate_dataset(scenario)
    phi = NuisanceParams(t2_inv=scenario.t2_inv, eta=scenario.eta0)
    spins = np.array(sorted(greedy_comb_init(records, DDModel(5, scenario.omega_l), phi, 5)))
    assert spins.shape == TRUTH.shape
    assert np.all(np.abs(spins[:, 0] - TRUTH[:, 0]) <= az_tol)
    assert np.all(np.abs(spins[:, 1] - TRUTH[:, 1]) <= 0.02)


def test_greedy_comb_init_finds_three_spins():
    assert_greedy_finds_three_spins(n_pi=32)


def test_greedy_comb_init_scores_at_the_records_n_pi():
    # scored at the ScenarioConfig default N_pi of 32 instead, the start is off
    # by kHz and finds a spurious fourth spin
    assert_greedy_finds_three_spins(n_pi=24)


def test_greedy_comb_init_scores_with_the_fits_t2_inv():
    # scored at T2^-1 = 1e-4 instead, the start fills two more slots
    assert_greedy_finds_three_spins(az_tol=2e-3, t2_inv=2e-3)


@pytest.mark.parametrize("seed", [5, 8])
def test_greedy_comb_init_places_every_spin_of_a_criterion_6_bath(seed):
    # refining each spin in place and pruning weak ones left seed 5 with a true
    # spin at the wrong point of its ridge, (116, 370) kHz for (131, 231), and
    # seed 8 with seven spins; placing each spin again against the others mends both
    truth = strongly_coupled_bath(6, RngStream(7000 + seed), aperp_range=(0.15, 0.5),
                                  min_delta_az=0.03)
    scenario = ScenarioConfig(kind=MODEL_DD, theta_true=truth, m_points=512, repetitions=1024,
                              n_pi=32, seed=8000 + seed)
    phi = NuisanceParams(t2_inv=1e-4, chi=1 / 1024, eta=0.01)
    spins = greedy_comb_init(simulate_dataset(scenario), DDModel(10, scenario.omega_l), phi, 10)
    spins, truth = np.array(sorted(spins)), np.array(sorted(truth.reshape(-1, 2).tolist()))
    assert spins.shape == (6, 2)
    assert np.all(np.abs(spins[:, 0] - truth[:, 0]) <= 3e-3)
    assert np.all(np.abs(spins[:, 1] - truth[:, 1]) <= 0.03)


def test_fit_dataset_starts_chi_at_the_records_repetitions():
    scenario = ScenarioConfig(kind=MODEL_DD, theta_true=TRUTH.ravel(), m_points=48,
                              repetitions=128, seed=5)
    config = {"model": {"kind": "dd", "B_gauss": scenario.b_gauss, "ansatz_spins": 3},
              "train": {"batch": 8, "steps": 2}}
    _, _, trace = fit_dataset(config, simulate_dataset(scenario), seed=0)
    assert trace.phi[0, 1] == pytest.approx(1.0 / 128, rel=1e-12)
