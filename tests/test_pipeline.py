import numpy as np
import pytest

from vbi.likelihoods import DDModel, NuisanceParams
from vbi.pipeline import AP_RIDGE, fit_dataset, greedy_comb_init
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


# greedy_comb_init's spins on the criterion-6 baths above, before the trial
# grid's terms were reused across placements
CRITERION_6_START = {
    5: [(0.21447764293036808, 0.41000000000000003), (0.12946238348291006, 0.25),
        (-0.08082766871239544, 0.25), (0.039483183739531746, 0.21),
        (0.07336430332866284, 0.42000000000000004), (0.17303411947627145, 0.18)],
    8: [(0.2326669551745022, 0.46), (0.059570707515512744, 0.26),
        (-0.10171469393177945, 0.43000000000000005), (0.09132760884072422, 0.19999999999999998),
        (-0.1472512687720866, 0.16), (-0.02800788170665225, 0.38)],
}


@pytest.mark.parametrize("seed", [5, 8])
def test_greedy_comb_init_scores_its_trial_grid_once_per_start(seed):
    truth = strongly_coupled_bath(6, RngStream(7000 + seed), aperp_range=(0.15, 0.5),
                                  min_delta_az=0.03)
    scenario = ScenarioConfig(kind=MODEL_DD, theta_true=truth, m_points=512, repetitions=1024,
                              n_pi=32, seed=8000 + seed)
    phi = NuisanceParams(t2_inv=1e-4, chi=1 / 1024, eta=0.01)
    model = DDModel(10, scenario.omega_l)
    stack_rows = []
    outcome_prob = model.outcome_prob

    def counted(tau, n_pi, couplings, phi):
        stack_rows.append(np.shape(couplings)[0] if np.ndim(couplings) == 2 else None)
        return outcome_prob(tau, n_pi, couplings, phi)

    model.outcome_prob = counted
    spins = greedy_comb_init(simulate_dataset(scenario), model, phi, 10)
    assert [tuple(map(float, s)) for s in spins] == CRITERION_6_START[seed]
    # the matched filter fills all 2 k_max = 20 comb positions on these baths,
    # each tried at 10 coarse A_perp values
    assert stack_rows.count(200) == 1
    # every place scores the others once, then two comb lines of 17 points and
    # two ridges; there is a place per spin added, and more in the exchanges
    places = stack_rows.count(None)
    assert stack_rows.count(17) == stack_rows.count(len(AP_RIDGE)) == 2 * places
    assert places > len(spins)


@pytest.mark.parametrize("n_pi", [24, 32])
def test_greedy_comb_init_adds_no_spin_to_spin_free_data(n_pi):
    # the matched filter's best score on the bare envelope stays below its floor
    scenario = ScenarioConfig(kind=MODEL_DD, theta_true=np.zeros(0), m_points=512,
                              repetitions=1024, n_pi=n_pi, seed=0)
    phi = NuisanceParams(t2_inv=1e-4, chi=1 / 1024, eta=0.01)
    assert greedy_comb_init(simulate_dataset(scenario), DDModel(10, scenario.omega_l), phi,
                            10) == []


def test_fit_dataset_starts_chi_at_the_records_repetitions():
    scenario = ScenarioConfig(kind=MODEL_DD, theta_true=TRUTH.ravel(), m_points=48,
                              repetitions=128, seed=5)
    config = {"model": {"kind": "dd", "B_gauss": scenario.b_gauss, "ansatz_spins": 3},
              "train": {"batch": 8, "steps": 2}}
    _, _, trace = fit_dataset(config, simulate_dataset(scenario), seed=0)
    assert trace.phi[0, 1] == pytest.approx(1.0 / 128, rel=1e-12)
