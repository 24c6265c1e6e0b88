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
    # each particle is sorted: the k-th of 3 uniform coordinates has mean k / 4
    ens = smc.pf_init(np.zeros(3), np.ones(3), 100000, RngStream(2))
    assert np.all(np.abs(ens.particles.mean(axis=0) - np.arange(1, 4) / 4) <= 0.005)


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


class _TopUniform:
    """Stub RNG whose uniform draw is the largest double below 1."""

    def uniform(self):
        return np.nextafter(1.0, 0.0)


def test_systematic_resample_clamps_to_last_index():
    n = 16384
    weights = np.full(n, 1.0 / n)
    weights[-1] -= 1.2e-15
    assert np.cumsum(weights)[-1] == 0.9999999999999988
    idx = smc._systematic_resample(weights, _TopUniform())
    assert idx.min() == 0 and idx.max() == n - 1


class _QuadraticModel:
    """log-likelihood -|theta - 0.3|^2 / 0.02, sharp enough to force resampling."""

    def record_loglik(self, record, particles):
        return -np.sum((particles - 0.3) ** 2, axis=1) / 0.02


@pytest.mark.parametrize("d", [2, 4, 8, 12])
def test_liu_west_jitter_equals_numpy_cholesky_draws(d):
    n = 2048
    ens = smc.pf_init(np.zeros(d), np.ones(d), n, RngStream(17))
    twin = RngStream(17)
    start = twin.uniform(np.zeros(d), np.ones(d), size=(n, d))   # the draws of pf_init
    assert np.array_equal(ens.particles, np.sort(start, axis=1))
    out = smc.pf_update(ens, MeasurementRecord(1.0, 1, 1, 0.5), _QuadraticModel())
    assert out.ess() == pytest.approx(n)
    log_w = np.log(ens.weights + 1e-300) + _QuadraticModel().record_loglik(None, ens.particles)
    w = np.exp(log_w - np.max(log_w))
    w /= w.sum()
    mean = w @ ens.particles
    centered = ens.particles - mean
    cov = (centered * w[:, None]).T @ centered
    idx = smc._systematic_resample(w, twin)
    shrunk = smc.LIU_WEST_A * ens.particles[idx] + (1.0 - smc.LIU_WEST_A) * mean
    h2 = 1.0 - smc.LIU_WEST_A ** 2
    jitter = twin._gen.multivariate_normal(np.zeros(d), h2 * cov + 1e-30 * np.eye(d), size=n,
                                           method="cholesky")
    assert np.array_equal(out.particles, np.sort(shrunk + jitter, axis=1))


def _row_major_record_loglik(record, omega):
    """ToyModel.record_loglik on fresh (particles, frequencies) arrays: q = 1 / (1 + t^2)
    = cos^2(x / 2) for t = tan(x / 2), the frequencies added left to right."""
    t = np.tan(omega * (0.5 * record.tau_us))
    q = 1.0 / (t * t + 1.0)
    p = np.clip(sum(q.T) / omega.shape[1], 1e-300, 1.0 - 1e-16)
    c = round(record.y * record.repetitions)
    return c * np.log(p) + (record.repetitions - c) * np.log1p(-p)


def _reference_pf_run(particles, weights, rng, records):
    """The sorted Liu-West filter on fresh arrays with searchsorted resampling;
    returns the final particles and weights and the number of resamples."""
    n, d = particles.shape
    resamples = 0
    for record in sorted(records, key=lambda r: r.tau_us):
        log_w = np.log(weights + 1e-300) + _row_major_record_loglik(record, particles)
        weights = np.exp(log_w - np.max(log_w))
        weights /= weights.sum()
        if 1.0 / float(np.sum(weights ** 2)) >= n / 2.0:
            continue
        resamples += 1
        mean = weights @ particles
        centered = particles - mean
        cov = (centered * weights[:, None]).T @ centered
        positions = (rng.uniform() + np.arange(n)) / n
        idx = np.minimum(np.searchsorted(np.cumsum(weights), positions), n - 1)
        shrunk = smc.LIU_WEST_A * particles[idx] + (1.0 - smc.LIU_WEST_A) * mean
        factor = np.linalg.cholesky((1.0 - smc.LIU_WEST_A ** 2) * cov + 1e-30 * np.eye(d))
        particles = np.sort(shrunk + rng.standard_normal((n, d)) @ factor.T, axis=1)
        weights = np.full(n, 1.0 / n)
    return particles, weights, resamples


@pytest.mark.parametrize("n", [2, 8, 12])
def test_pf_run_is_bit_identical_to_the_fresh_array_filter(n):
    model = ToyModel(n)
    rng = RngStream(40 + n)
    truth = np.sort(rng.uniform(0.0, 1.0, n))
    records = sample_records(model, rng, 10.0 ** rng.uniform(-1, 2, 40), 1, truth, None, 256)
    ens = smc.pf_run(smc.pf_init(np.zeros(n), np.ones(n), 1024, RngStream(60 + n)),
                     records, model)
    twin = RngStream(60 + n)
    start = np.sort(twin.uniform(np.zeros(n), np.ones(n), size=(1024, n)), axis=1)
    particles, weights, resamples = _reference_pf_run(start, np.full(1024, 1.0 / 1024), twin,
                                                      records)
    assert resamples >= 5
    assert np.array_equal(ens.particles, particles) and np.array_equal(ens.weights, weights)


def test_toy_filter_keeps_every_particle_sorted():
    model = ToyModel(8)
    rng = RngStream(31)
    records = sample_records(model, rng, 10.0 ** rng.uniform(-1, 2, 40), 1,
                             rng.uniform(0.0, 1.0, 8), None, 256)
    ens = smc.pf_init(np.zeros(8), np.ones(8), 1024, RngStream(32))
    assert np.all(np.diff(ens.particles, axis=1) >= 0)
    resamples = 0
    for record in sorted(records, key=lambda r: r.tau_us):
        out = smc.pf_update(ens, record, model)
        resamples += out.particles is not ens.particles
        ens = out
        assert np.all(np.diff(ens.particles, axis=1) >= 0)
    assert resamples >= 5
    # sorting keeps the toy likelihood; only the order of the frequency sum moves
    particles = RngStream(33).uniform(0.0, 1.0, (4096, 8))
    for record in records:
        assert np.allclose(model.record_loglik(record, np.sort(particles, axis=1)),
                           model.record_loglik(record, particles), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n", [1, 7, 8, 12, 16, 17, 130])
def test_toy_record_loglik_is_bit_identical_to_the_row_major_sum(n):
    model = ToyModel(n)
    rng = RngStream(70 + n)
    particles = rng.uniform(0.0, 1.0, (5000, n))    # several blocks at n >= 7
    for tau, y in ((0.3, 0.25), (7.0, 0.5), (95.0, 0.875)):
        record = MeasurementRecord(tau, 1, 256, y)
        assert np.array_equal(model.record_loglik(record, particles),
                              _row_major_record_loglik(record, particles))


@pytest.mark.parametrize("repetitions", [1, 1000])
def test_pf_update_never_writes_into_its_input(repetitions):
    # one repetition only reweights; a thousand force a resample
    ens = smc.pf_init(np.zeros(3), np.ones(3), 512, RngStream(21))
    ens.weights = RngStream(22).uniform(0.5, 1.5, 512)
    ens.weights /= ens.weights.sum()
    particles, weights = ens.particles.copy(), ens.weights.copy()
    out = smc.pf_update(ens, MeasurementRecord(5.0, 1, repetitions, 0.5), ToyModel(3))
    assert np.array_equal(ens.particles, particles) and np.array_equal(ens.weights, weights)
    assert out.weights is not ens.weights
    # benchmarks/layers.py counts resamples by this identity
    assert (out.particles is not ens.particles) == (repetitions > 1)


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
