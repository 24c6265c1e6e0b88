import itertools

import numpy as np
import pytest
from scipy import stats

from vbi import smc
from vbi.likelihoods import GaussianLocationModel, MeasurementRecord, ToyModel
from vbi.probcore import RngStream
from vbi.simulator import sample_records


def test_pf_init_uniform():
    ens = smc.pf_init(np.zeros(1), np.ones(1), 4, RngStream(1))
    assert ens.particles.shape == (4, 1)
    assert np.allclose(ens.weights, 0.25)
    assert np.all((ens.particles >= 0) & (ens.particles <= 1))


def test_pf_init_mean_large_ensemble():
    ens = smc.pf_init(np.zeros(3), np.ones(3), 100000, RngStream(2))
    assert np.all(np.abs(ens.particles.mean(axis=0) - 0.5) <= 0.005)


def test_pf_init_needs_two_particles():
    with pytest.raises(ValueError):
        smc.pf_init(np.zeros(1), np.ones(1), 1, RngStream(0))


class _ConstantModel:
    def record_loglik(self, record, particles):
        return np.zeros(np.atleast_2d(particles).shape[0])


def test_pf_update_constant_likelihood_keeps_weights():
    ens = smc.pf_init(np.zeros(2), np.ones(2), 64, RngStream(3))
    rec = MeasurementRecord(1.0, 1, 1, 0.5)
    out = smc.pf_update(ens, rec, _ConstantModel())
    assert np.allclose(out.weights, ens.weights)
    assert np.array_equal(out.particles, ens.particles)


def test_pf_update_hand_computed_three_particles():
    # enumerate Bayes' rule by hand on three fixed hypotheses
    ens = smc.pf_init(np.zeros(1), np.ones(1), 3, RngStream(4))
    ens.particles = np.array([[0.1], [0.5], [0.9]])
    ens.weights = np.array([0.5, 0.25, 0.25])
    model = GaussianLocationModel(noise_std=0.2)
    rec = MeasurementRecord(1.0, 1, 1, 0.55)
    lik = np.exp(-0.5 * ((0.55 - ens.particles[:, 0]) / 0.2) ** 2)
    expected = ens.weights * lik
    expected /= expected.sum()
    out = smc.pf_update(ens, rec, model)
    assert np.allclose(out.weights, expected, atol=1e-12)


def test_pf_matches_truncated_conjugate_posterior():
    # uniform prior on [0,1] x Gaussian likelihood => truncated normal posterior
    noise = 0.3
    model = GaussianLocationModel(noise_std=noise)
    means, variances = [], []
    y_obs = [0.45, 0.62, 0.38]
    for seed in range(50):
        ens = smc.pf_init(np.zeros(1), np.ones(1), 4096, RngStream(100 + seed))
        for y in y_obs:
            ens = smc.pf_update(ens, MeasurementRecord(1.0, 1, 1, y), model)
        means.append(smc.pf_estimate(ens)[0])
        est_var = float(ens.weights @ (ens.particles[:, 0] - means[-1]) ** 2)
        variances.append(est_var)
    post_var = noise ** 2 / len(y_obs)
    post_mu = float(np.mean(y_obs))
    a, b = (0 - post_mu) / post_var ** 0.5, (1 - post_mu) / post_var ** 0.5
    exact = stats.truncnorm(a, b, loc=post_mu, scale=post_var ** 0.5)
    se_mean = np.std(means, ddof=1) / np.sqrt(len(means))
    se_var = np.std(variances, ddof=1) / np.sqrt(len(variances))
    assert np.mean(means) == pytest.approx(exact.mean(), abs=3 * se_mean)
    assert np.mean(variances) == pytest.approx(exact.var(), abs=3 * se_var)


def test_pf_resampling_resets_ess():
    # a sharp likelihood forces resampling; afterwards ESS equals N exactly
    model = GaussianLocationModel(noise_std=0.01)
    ens = smc.pf_init(np.zeros(1), np.ones(1), 256, RngStream(5))
    out = smc.pf_update(ens, MeasurementRecord(1.0, 1, 1, 0.5), model)
    assert out.ess() == pytest.approx(out.n_particles)


def test_pf_underflow_resets_to_uniform():
    class ImpossibleModel:
        def record_loglik(self, record, particles):
            return np.full(np.atleast_2d(particles).shape[0], -np.inf)

    ens = smc.pf_init(np.zeros(1), np.ones(1), 32, RngStream(6))
    out = smc.pf_update(ens, MeasurementRecord(1.0, 1, 1, 0.5), ImpossibleModel())
    assert out.degenerate_resets == 1
    assert np.allclose(out.weights, 1.0 / 32)


def test_pf_estimate_weighted_mean():
    ens = smc.pf_init(np.zeros(1), np.ones(1), 2, RngStream(7))
    ens.particles = np.array([[0.2], [0.4]])
    ens.weights = np.array([0.5, 0.5])
    assert smc.pf_estimate(ens)[0] == pytest.approx(0.3)


def test_pf_estimate_symmetric_ensemble():
    ens = smc.pf_init(np.zeros(1), np.ones(1), 4, RngStream(8))
    ens.particles = np.array([[0.1], [0.3], [0.7], [0.9]])
    ens.weights = np.full(4, 0.25)
    assert smc.pf_estimate(ens)[0] == pytest.approx(0.5)


# --------------------------------------------------------------------------
# sorted error and prior baseline
# --------------------------------------------------------------------------


def test_sorted_error_permutation_invariance():
    assert smc.sorted_square_error([2.0, 1.0], [1.0, 2.0]) == 0.0


def test_sorted_error_scalar_case():
    assert smc.sorted_square_error([0.1], [0.0]) == pytest.approx(0.01)


def test_sorted_error_rejects_length_mismatch():
    with pytest.raises(ValueError):
        smc.sorted_square_error([0.1, 0.2], [0.1])


def test_sorted_error_is_permutation_minimum():
    rng = RngStream(9)
    for _ in range(20):
        est = rng.uniform(0, 1, 5)
        tru = rng.uniform(0, 1, 5)
        brute = min(np.mean((est[list(perm)] - tru) ** 2)
                    for perm in itertools.permutations(range(5)))
        assert smc.sorted_square_error(est, tru) == pytest.approx(brute, abs=1e-12)


def test_baseline_closed_form_n1():
    # E[(u - v)^2] for independent uniforms = 1/6
    value = smc.prior_mode_baseline_error(1, 10000, RngStream(4))
    assert value == pytest.approx(1.0 / 6.0, rel=0.02)


def test_baseline_decreases_with_n():
    values = [smc.prior_mode_baseline_error(n, 10000, RngStream(11)) for n in (1, 2, 4, 8, 16)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    # closed form 1/(3(n+1))
    for n, v in zip((1, 2, 4, 8, 16), values):
        assert v == pytest.approx(1.0 / (3 * (n + 1)), rel=0.05)


def test_baseline_guards():
    with pytest.raises(ValueError):
        smc.prior_mode_baseline_error(0, 100, RngStream(0))
    with pytest.raises(ValueError):
        smc.prior_mode_baseline_error(2, 0, RngStream(0))


def test_pf_run_sorts_records_by_tau():
    # ascending-tau processing is deterministic regardless of input order
    model = ToyModel(n=1)
    rng = RngStream(12)
    truth = np.array([0.4])
    records = sample_records(model, rng, 10.0 ** rng.uniform(-1, 1.5, 30), 1, truth, None, 256)
    ens_a = smc.pf_run(smc.pf_init(np.zeros(1), np.ones(1), 512, RngStream(13)),
                       records, model)
    ens_b = smc.pf_run(smc.pf_init(np.zeros(1), np.ones(1), 512, RngStream(13)),
                       list(reversed(records)), model)
    assert np.array_equal(smc.pf_estimate(ens_a), smc.pf_estimate(ens_b))
    assert abs(smc.pf_estimate(ens_a)[0] - 0.4) < 0.05
