import math

import numpy as np
import pytest

from vbi import flows, trainer
from vbi.errors import DegenerateAnsatzWarning, TrainingDiverged
from vbi.likelihoods import (DDModel, GaussianLocationModel, MeasurementRecord,
                             NuisanceParams, ToyModel)
from vbi.probcore import RngStream
from vbi.simulator import omega_larmor, sample_records
from vbi.trainer import (PriorSpec, RegularizerSpec, TrainConfig, _fitted_sigma,
                         _regularizer_terms, estimate_elbo, surrogate_information_gain,
                         train)

OMEGA_L = omega_larmor(403.0)
LOG_EVIDENCE = -0.5 * math.log(4 * math.pi)  # conjugate instance, -1.26551...


def conjugate_setup(steps=1200, seed=3):
    model = GaussianLocationModel(1.0)
    records = [MeasurementRecord(1.0, 1, 1, 0.0)]
    config = TrainConfig(batch=64, steps=steps, lr_start=2e-2, lr_end=1e-3, seed=seed,
                         prior=PriorSpec(kind="gaussian", mean=np.zeros(1), var=np.ones(1)))
    spec = flows.AnsatzSpec(d=1, family="mean-field")
    return config, records, model, spec


# --------------------------------------------------------------------------
# regularizers
# --------------------------------------------------------------------------


def test_log_regularizer_l1_at_origin():
    val, _ = _regularizer_terms(np.zeros((1, 2)), "l1", 1.0)
    assert val[0] == pytest.approx(math.log(0.25), abs=1e-12)


def test_log_regularizer_l2_at_origin():
    val, _ = _regularizer_terms(np.zeros((1, 1)), "l2", 1.0)
    assert val[0] == pytest.approx(-0.918938533, abs=1e-9)


def test_log_regularizer_l1_arithmetic():
    val, _ = _regularizer_terms(np.array([[1.0, -1.0]]), "l1", 0.5)
    assert val[0] == pytest.approx(-4.0, abs=1e-12)


def test_log_regularizer_needs_positive_scale():
    with pytest.raises(ValueError):
        RegularizerSpec("l1", 0.0)


@pytest.mark.parametrize("kind", ["l1", "l2"])
def test_fitted_sigma_maximizes_batch_regularizer(kind):
    theta = RngStream(5).normal(0.0, 0.2, (64, 6))
    sigma = _fitted_sigma(theta, kind)

    def batch_mean(s):
        return _regularizer_terms(theta, kind, s)[0].mean()

    best = batch_mean(sigma)
    assert best >= batch_mean(sigma * (1 + 1e-3))
    assert best >= batch_mean(sigma * (1 - 1e-3))


# --------------------------------------------------------------------------
# elbo estimator
# --------------------------------------------------------------------------


def test_conjugate_elbo_reaches_log_evidence():
    config, records, model, spec = conjugate_setup()
    params, _, trace = train(config, records, model, spec)
    assert trace.smoothed_elbo(100) == pytest.approx(LOG_EVIDENCE, abs=0.02)
    # exact posterior: N(0, 1/2)
    assert params.mu[0] == pytest.approx(0.0, abs=0.03)
    assert params.l_matrix()[0, 0] == pytest.approx(math.sqrt(0.5), abs=0.03)


def test_elbo_never_exceeds_log_evidence_plus_slack():
    config, records, model, spec = conjugate_setup()
    _, _, trace = train(config, records, model, spec)
    tail = trace.elbo[trace.elbo.size // 2:]
    assert np.all(tail <= LOG_EVIDENCE + 0.03)


def test_regularizer_bookkeeping_identity():
    # shared-seed ELBOs differ exactly by the regularizer term of the batch
    model = DDModel(k_spins=2, omega_l=OMEGA_L)
    rng = RngStream(4)
    records = [MeasurementRecord(float(t), 32, 1024, float(rng.uniform(0, 0.7)))
               for t in np.linspace(6.0, 8.5, 10)]
    data = model.prepare(records)
    spec = flows.AnsatzSpec(d=4, family="mean-field")
    params = flows.init_flow_parameters(spec, np.array([0.1, 0.2, -0.1, 0.3]),
                                        0.05 * np.ones(4))
    phi = NuisanceParams(t2_inv=1e-4, chi=1e-3, eta=0.01)
    sigma = 0.5
    plain = estimate_elbo(params, data, model, PriorSpec(), RegularizerSpec(), 32,
                          RngStream(99), phi=phi)
    reg = estimate_elbo(params, data, model, PriorSpec(), RegularizerSpec("l1", sigma), 32,
                        RngStream(99), phi=phi)
    theta, _, _ = flows.sample_batch(params, 32, RngStream(99))
    expected = -4 * math.log(2 * sigma) - float(np.abs(theta).sum(axis=1).mean()) / sigma
    assert reg.value - plain.value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("family", ["mean-field", "full-affine", "stacked"])
@pytest.mark.parametrize("k_spins,reg_kind", [(1, "l1"), (2, "l2"), (5, "l2")])
def test_elbo_gradients_match_finite_differences(family, k_spins, reg_kind):
    d = 2 * k_spins
    model = DDModel(k_spins=k_spins, omega_l=OMEGA_L)
    rng = RngStream(7)
    records = [MeasurementRecord(float(t), 32, 1024, float(rng.uniform(0, 0.7)))
               for t in np.linspace(6.0, 8.5, 6)]
    data = model.prepare(records)
    spec = flows.AnsatzSpec(d=d, family=family, n_layers=3, hidden_width=6)
    base = flows.init_flow_parameters(spec, np.zeros(d), 0.3 * np.ones(d), RngStream(8))
    params = base.from_vector(base.to_vector()
                              + 0.05 * RngStream(9).standard_normal(base.n_parameters))
    phi = NuisanceParams(t2_inv=3e-4, chi=1e-3, eta=0.02)
    reg = RegularizerSpec(reg_kind, 0.1)
    prior = PriorSpec()
    seed, batch = 1234, 4

    def value(vec, phi_vals=None):
        est = estimate_elbo(params.from_vector(vec), data, model, prior, reg, batch,
                            RngStream(seed),
                            phi=NuisanceParams(*(phi_vals if phi_vals is not None
                                                 else phi.as_array())))
        return est.value

    est = estimate_elbo(params, data, model, prior, reg, batch, RngStream(seed), phi=phi)
    v0 = params.to_vector()
    h = 1e-5
    for i in range(v0.size):
        up, dn = v0.copy(), v0.copy()
        up[i] += h
        dn[i] -= h
        fd = (value(up) - value(dn)) / (2 * h)
        scale = max(abs(fd), abs(est.grad_flow[i]), 1e-6)
        assert abs(est.grad_flow[i] - fd) / scale < 1e-4
    pv = phi.as_array()
    for j in range(3):
        up, dn = pv.copy(), pv.copy()
        up[j] += h
        dn[j] -= h
        fd = (value(v0, phi_vals=up) - value(v0, phi_vals=dn)) / (2 * h)
        assert abs(est.grad_phi[j] - fd) / max(abs(fd), 1e-6) < 1e-4


def test_elbo_gradients_with_box_prior_squash():
    model = ToyModel(n=2)
    rng = RngStream(12)
    records = sample_records(model, rng, [0.5, 2.0, 5.0, 11.0], 1, np.array([0.3, 0.7]),
                             None, 128)
    data = model.prepare(records)
    spec = flows.AnsatzSpec(d=2, family="mean-field")
    params = flows.init_flow_parameters(spec, np.array([0.4, 0.6]), 0.1 * np.ones(2))
    prior = PriorSpec(kind="box", low=np.zeros(2), high=np.ones(2))
    reg = RegularizerSpec()
    est = estimate_elbo(params, data, model, prior, reg, 8, RngStream(55))
    v0 = params.to_vector()
    h = 1e-5
    for i in range(v0.size):
        up, dn = v0.copy(), v0.copy()
        up[i] += h
        dn[i] -= h
        f_up = estimate_elbo(params.from_vector(up), data, model, prior, reg, 8,
                             RngStream(55)).value
        f_dn = estimate_elbo(params.from_vector(dn), data, model, prior, reg, 8,
                             RngStream(55)).value
        fd = (f_up - f_dn) / (2 * h)
        assert est.grad_flow[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------


def test_learning_rate_schedule_endpoints():
    config = TrainConfig(batch=8, steps=101, lr_start=1e-3, lr_end=1e-4)
    assert config.learning_rate(1) == pytest.approx(1e-3)
    assert config.learning_rate(101) == pytest.approx(1e-4)
    mid = config.learning_rate(51)
    assert math.sqrt(1e-3 * 1e-4) == pytest.approx(mid, rel=1e-12)


def test_train_is_bit_deterministic():
    config, records, model, spec = conjugate_setup(steps=200)
    a, _, _ = train(config, records, model, spec)
    b, _, _ = train(config, records, model, spec)
    assert np.array_equal(a.to_vector(), b.to_vector())


def test_toy_train_keeps_the_nuisances_at_zero():
    model = ToyModel(n=2)
    records = sample_records(model, RngStream(4), [0.5, 1.0, 2.0, 4.0], 1, np.array([0.3, 0.7]),
                             None, 64)
    config = TrainConfig(batch=8, steps=5, prior=PriorSpec(kind="box", low=np.zeros(2),
                                                           high=np.ones(2)),
                         phi0=NuisanceParams(t2_inv=1e-4, chi=1.0 / 64, eta=1e-2))
    _, phi, trace = train(config, records, model, flows.AnsatzSpec(d=2, family="mean-field"))
    assert phi == NuisanceParams()
    assert trace.phi.shape == (5, 3) and not trace.phi.any()


def test_toy_training_recovers_frequency():
    truth = np.array([0.5])
    model = ToyModel(n=1)
    rng = RngStream(21)
    taus = 10.0 ** rng.uniform(-1, 2.5, 256)
    records = sample_records(model, rng, taus, 1, truth, None, 1024)
    config = TrainConfig(batch=64, steps=600, lr_start=1e-2, lr_end=1e-3, seed=2,
                         prior=PriorSpec(kind="box", low=np.zeros(1), high=np.ones(1)))
    params, _, trace = train(config, records, model, flows.AnsatzSpec(d=1, family="mean-field"))
    prior = config.prior
    draws, _, _ = flows.sample_batch(params, 4096, RngStream(3))
    samples = prior.transform(draws)[:, 0]
    post_mean, post_std = samples.mean(), samples.std()
    assert abs(post_mean - 0.5) <= 3 * max(post_std, 1e-4)
    # cross-check against a dense-grid exact posterior
    grid = np.linspace(0.0, 1.0, 4001)
    log_post = np.zeros_like(grid)
    data = model.prepare(records)
    counts, reps = data.counts, data.reps
    for tau, c, r in zip(data.tau, counts, reps):
        p = np.clip(0.5 + 0.5 * np.cos(grid * tau), 1e-12, 1 - 1e-12)
        log_post += c * np.log(p) + (r - c) * np.log1p(-p)
    log_post -= log_post.max()
    w = np.exp(log_post)
    w /= w.sum()
    exact_mean = float(w @ grid)
    exact_std = float(np.sqrt(w @ (grid - exact_mean) ** 2))
    assert post_mean == pytest.approx(exact_mean, abs=3 * exact_std + 3e-4)


def test_dd_smoke_fit_residuals_within_noise():
    truth = np.array([0.05, 0.35, -0.12, 0.3])
    model = DDModel(k_spins=2, omega_l=OMEGA_L)
    taus = np.linspace(6.0, 8.5, 192)
    phi_true = NuisanceParams(t2_inv=1e-4)
    rng = RngStream(6)
    # one call per tau, so each record's binomial and noise draws interleave
    records = [sample_records(model, rng, [t], 32, truth, phi_true, 1024, eta0=0.01)[0]
               for t in taus]
    spec = flows.AnsatzSpec(d=4, family="mean-field")
    mu0 = np.array([0.04, 0.25, -0.10, 0.25])
    init = flows.init_flow_parameters(spec, mu0, np.array([0.02, 0.05, 0.02, 0.05]))
    config = TrainConfig(batch=64, steps=700, lr_start=1e-2, lr_end=3e-4, seed=1,
                         regularizer=RegularizerSpec("l2", 1e-2, trainable=True),
                         phi0=NuisanceParams(t2_inv=1e-6, chi=1.0 / 1024, eta=1e-3))
    params, phi, trace = trainer.train_from(config, records, model, init)
    y_fit = model.outcome_prob(taus, 32, params.mu, phi)
    resid = np.array([r.y for r in records]) - y_fit
    noise = np.sqrt(0.25 / 1024 + 1e-4)
    assert float(np.sqrt(np.mean(resid ** 2))) <= 3 * noise
    # training made progress in the documented monotone sense
    n = trace.elbo.size
    assert np.median(trace.elbo[n // 2:]) > np.median(trace.elbo[: max(n // 10, 1)])


def test_training_divergence_detector(monkeypatch):
    monkeypatch.setattr(trainer, "DIVERGENCE_DROP", 1e-9)
    config, records, model, spec = conjugate_setup(steps=300)
    bad = TrainConfig(batch=4, steps=300, lr_start=2e-2, lr_end=1e-3, seed=3,
                      prior=config.prior)
    with pytest.raises(TrainingDiverged) as err:
        train(bad, records, model, spec)
    assert err.value.trace is not None


def test_trace_csv_round_trip(tmp_path):
    config, records, model, spec = conjugate_setup(steps=50)
    _, _, trace = train(config, records, model, spec)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,elbo,lr,t2_inv,chi,eta,reg_sigma"
    assert len(lines) == 51


# --------------------------------------------------------------------------
# surrogate information gain
# --------------------------------------------------------------------------


def test_sig_zero_for_theta_independent_model():
    class FlatModel:
        n_nuisance = 0

        def outcome_prob(self, tau, n_pi, theta, phi):
            return np.full(np.shape(tau), 0.5)

        def record_loglik(self, record, thetas, phi):
            return np.zeros(np.atleast_2d(thetas).shape[0])

    spec = flows.AnsatzSpec(d=1, family="mean-field")
    params = flows.init_flow_parameters(spec, np.zeros(1), np.ones(1))
    sig = surrogate_information_gain((1.0, 1), params, FlatModel(), n_y=16, n_theta=32,
                                     rng=RngStream(1))
    assert sig == pytest.approx(0.0, abs=1e-12)


def test_sig_prefers_informative_controls():
    # q = N(0.5, 0.01^2); the slope |dp/domega| = tau sin(omega tau)/2 vanishes
    # at tau -> 0 and is near-maximal at tau = pi / (2 * 0.5)
    model = ToyModel(n=1)
    spec = flows.AnsatzSpec(d=1, family="mean-field")
    params = flows.init_flow_parameters(spec, np.array([0.5]), np.array([0.01]))
    rng_a = RngStream(42)
    rng_b = RngStream(42)
    sig_informative = surrogate_information_gain((np.pi, 1), params, model, n_y=64,
                                                 n_theta=256, rng=rng_a, repetitions=512)
    sig_dull = surrogate_information_gain((1e-3, 1), params, model, n_y=64, n_theta=256,
                                          rng=rng_b, repetitions=512)
    assert sig_informative > sig_dull

    # brute-force nested Monte Carlo oracle at the informative control
    rng = RngStream(7)
    thetas = 0.5 + 0.01 * rng.standard_normal(400)
    outer = []
    for _ in range(250):
        omega_star = 0.5 + 0.01 * float(rng.standard_normal())
        c = int(rng.binomial(512, model.outcome_prob(np.pi, 1, np.array([omega_star]), None)))
        rec = MeasurementRecord(np.pi, 1, 512, c / 512)
        lls = model.record_loglik(rec, thetas[:, None])
        outer.append(float(np.var(lls, ddof=1)))
    oracle = float(np.mean(outer))
    assert sig_informative == pytest.approx(oracle, rel=0.35)


def test_sig_guards():
    spec = flows.AnsatzSpec(d=1, family="mean-field")
    params = flows.init_flow_parameters(spec, np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        surrogate_information_gain((1.0, 1), params, ToyModel(1), n_y=8, n_theta=1,
                                   rng=RngStream(0))
    degenerate = flows.init_flow_parameters(spec, np.array([0.5]), np.array([1e-300]))
    with pytest.warns(DegenerateAnsatzWarning):
        sig = surrogate_information_gain((1.0, 1), degenerate, ToyModel(1), n_y=8, n_theta=8,
                                         rng=RngStream(0))
    assert sig == 0.0


@pytest.mark.parametrize("n_pi", [24, 32])
def test_sig_dd_model_equals_per_theta_loop(n_pi):
    # SIG scores all theta draws in one stacked record_loglik call, which must
    # equal scoring them one at a time, at the N_pi of the control
    model = DDModel(k_spins=2, omega_l=omega_larmor(403.0))
    spec = flows.AnsatzSpec(d=4, family="mean-field")
    params = flows.init_flow_parameters(spec, np.array([-0.1, 0.3, 0.15, 0.25]),
                                        np.full(4, 0.01))
    sig = surrogate_information_gain((7.0, n_pi), params, model, n_y=8, n_theta=64,
                                     rng=RngStream(3))

    theta_rng, y_rng = RngStream(3).split(2)
    thetas, _, _ = flows.sample_batch(params, 64, theta_rng)
    preds, _, _ = flows.sample_batch(params, 8, y_rng)
    phi = NuisanceParams()
    variances = []
    for pred in preds:
        record, = sample_records(model, y_rng, [7.0], n_pi, pred, phi, 1)
        assert record.n_pi == n_pi
        ll = np.array([model.record_loglik(record, th, phi)[0] for th in thetas])
        variances.append(float(np.var(ll, ddof=1)))
    assert sig > 0.0
    assert sig == float(np.mean(variances))
