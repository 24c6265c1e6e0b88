import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbi import likelihoods as lk
from vbi.errors import ModelError
from vbi.probcore import RngStream, log_gaussian_density
from vbi.simulator import omega_larmor, resonance_delays, sample_records

OMEGA_L = omega_larmor(403.0)


# --------------------------------------------------------------------------
# toy model
# --------------------------------------------------------------------------


def test_toy_prob_tau_zero_is_one():
    assert lk.toy_outcome_prob(0.0, np.array([0.3, 0.8, 0.1])) == pytest.approx(1.0)


def test_toy_prob_single_pi():
    assert lk.toy_outcome_prob(1.0, np.array([np.pi])) == pytest.approx(0.0, abs=1e-15)


def test_toy_prob_cancellation():
    assert lk.toy_outcome_prob(1.0, np.array([np.pi, 2 * np.pi])) == pytest.approx(0.5, abs=1e-15)


def test_toy_prob_rejects_empty():
    with pytest.raises(ModelError):
        lk.toy_outcome_prob(1.0, np.array([]))


def test_half_angle_matches_libm_cos_and_sin():
    rng = RngStream(5)
    x = np.concatenate([rng.uniform(-2e4, 2e4, 200_000),
                        np.arange(-12732, 12733) * (np.pi / 2), [0.0, -0.0]])
    sin, one_m_cos, cos = lk._half_angle(0.5 * x, np.empty_like(x), np.empty_like(x))
    assert np.max(np.abs(sin - np.sin(x))) <= 1e-15
    assert np.max(np.abs(cos - np.cos(x))) <= 1e-15
    assert np.max(np.abs(one_m_cos - (1.0 - np.cos(x)))) <= 1e-15


def _toy_data(n, m=96, seed=7):
    model = lk.ToyModel(n=n)
    rng = RngStream(seed)
    truth = rng.uniform(0.0, 1.0, n)
    records = sample_records(model, rng, 10.0 ** rng.uniform(-1, 3, m), 1, truth, None, 256)
    return model, records, rng


@pytest.mark.parametrize("weighted", [False, True])
def test_toy_batch_loglik_is_independent_of_block_size(monkeypatch, weighted):
    for n in (5, 12):
        model, records, rng = _toy_data(n)
        data = model.prepare(records)
        omega = rng.uniform(0.0, 1.0, (37, n))
        weights = rng.uniform(0.0, 1.0, len(records)) if weighted else None
        results = []
        # blocks of 1 row, of 5 rows (37 is not a multiple) and of all rows
        for elems in (1, 5 * n * len(records), 10 ** 9):
            monkeypatch.setattr(lk, "_BLOCK_ELEMS", elems)
            results.append(model.batch_loglik(data, omega, grad_weights=weights))
        for ll, grad, _ in results[:-1]:
            assert np.array_equal(ll, results[-1][0]) and np.array_equal(grad, results[-1][1])


@pytest.mark.parametrize("n", [1, 8, 12])
def test_toy_batch_loglik_equals_summed_record_logliks(n):
    # n >= 8 reaches numpy's pairwise summation of the cosines
    model, records, rng = _toy_data(n)
    data = model.prepare(records)
    omega = rng.uniform(0.0, 1.0, (9, n))
    ll, _, _ = model.batch_loglik(data, omega)
    expected = sum(model.record_loglik(r, omega) for r in records) + data.log_binom.sum()
    assert np.allclose(ll, expected, rtol=1e-12, atol=0.0)


def test_sum_rows_adds_in_numpy_row_major_order():
    # the order np.sum adds a contiguous axis: left fold, 8 partial sums, halves
    rng = np.random.default_rng(3)
    for k in [*range(1, 41), 127, 128, 129, 300]:
        x = rng.choice([-1.0, 1.0], (k, 257)) * 10.0 ** rng.uniform(-8.0, 8.0, (k, 257))
        expected = np.ascontiguousarray(x.T).sum(axis=-1)
        assert np.array_equal(lk._sum_rows(x), expected), k


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("n", [1, 2, 12])
def test_toy_batch_loglik_equals_fresh_array_expressions(n, weighted):
    # the workspace kernel runs the operations of these expressions, in order
    model, records, rng = _toy_data(n)
    data = model.prepare(records)
    omega = rng.uniform(0.0, 1.0, (70, n))
    weights = rng.uniform(0.0, 2.0, len(records)) if weighted else None
    half = omega[:, :, None] * (0.5 * data.tau)
    sin, _, cos = lk._half_angle(half, np.empty_like(half), np.empty_like(half))
    p = np.clip(0.5 + cos.sum(axis=1) / (2.0 * n), 1e-12, 1.0 - 1e-12)
    failures = data.reps - data.counts
    ll = (data.log_binom + data.counts * np.log(p) + failures * np.log1p(-p)).sum(axis=1)
    dll_dp = data.counts / p - failures / (1.0 - p)
    if weighted:
        dll_dp *= weights
    grad = np.matmul(sin * (data.tau / (-2.0 * n)), dll_dp[:, :, None])[:, :, 0]
    got_ll, got_grad, _ = model.batch_loglik(data, omega, grad_weights=weights)
    assert np.array_equal(got_ll, ll) and np.array_equal(got_grad, grad)


def test_toy_record_loglik_rows_equal_single_particle_calls():
    model, records, rng = _toy_data(4, m=8)
    particles = rng.uniform(0.0, 1.0, (300, 4))
    for record in records:
        rows = model.record_loglik(record, particles)
        singles = np.concatenate([model.record_loglik(record, w) for w in particles])
        assert np.array_equal(rows, singles)


def test_toy_batch_gradient_matches_fd():
    truth_12 = np.sort(RngStream(12).uniform(0.0, 1.0, 12))
    cases = [(np.array([0.2, 0.5, 0.9]), np.array([[0.25, 0.48, 0.85], [0.1, 0.6, 0.95]])),
             (truth_12, truth_12 + RngStream(13).uniform(-0.05, 0.05, (2, 12)))]
    for truth, omega in cases:
        n = truth.size
        model = lk.ToyModel(n=n)
        rng = RngStream(3)
        records = sample_records(model, rng, 10.0 ** rng.uniform(-1, 2, 12), 1, truth, None, 64)
        data = model.prepare(records)
        _, grad, _ = model.batch_loglik(data, omega)
        h = 1e-6
        for b in range(2):
            for i in range(n):
                up, dn = omega.copy(), omega.copy()
                up[b, i] += h
                dn[b, i] -= h
                fd = (model.batch_loglik(data, up)[0][b]
                      - model.batch_loglik(data, dn)[0][b]) / (2 * h)
                assert grad[b, i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


# --------------------------------------------------------------------------
# dd single-spin term
# --------------------------------------------------------------------------


def test_spin_term_no_coupling_is_unity():
    for tau in (0.5, 3.0, 7.7):
        for n_pi in (1, 8, 32):
            assert lk.dd_single_spin_term(0.07, 0.0, tau, n_pi, OMEGA_L) == pytest.approx(1.0)


def test_spin_term_tau_zero_limit():
    assert lk.dd_single_spin_term(0.1, 0.3, 1e-12, 32, OMEGA_L) == pytest.approx(1.0, abs=1e-9)


def test_spin_term_dips_at_predicted_resonances():
    a_z, a_perp = 0.05, 0.2
    taus = np.linspace(6.0, 8.5, 20000)
    m = lk.dd_single_spin_term(a_z, a_perp, taus, 32, OMEGA_L)
    predicted = resonance_delays(np.array([6, 7]), a_z, OMEGA_L)
    step = taus[1] - taus[0]
    for tau_m in predicted:
        window = (taus > tau_m - 0.1) & (taus < tau_m + 0.1)
        tau_min = taus[window][np.argmin(m[window])]
        assert abs(tau_min - tau_m) <= 2 * step + 0.02 * tau_m / 6.0


def test_spin_term_requires_positive_larmor():
    with pytest.raises(ModelError):
        lk.dd_single_spin_term(0.1, 0.2, 1.0, 32, 0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5), st.floats(0.01, 40.0),
       st.integers(1, 64))
def test_spin_term_bounded(a_z, a_perp, tau, n_pi):
    m = lk.dd_single_spin_term(a_z, a_perp, tau, n_pi, OMEGA_L)
    assert -1.0 <= m <= 1.0


def test_spin_term_million_draw_bounds_and_symmetries():
    rng = RngStream(17)
    n = 1_000_000
    a_z = rng.uniform(-2.0, 2.0, n)
    a_perp = rng.uniform(-2.0, 2.0, n)
    tau = rng.uniform(0.01, 50.0, n)
    n_pi = rng.integers(1, 65, n).astype(float)
    m = lk.dd_single_spin_term(a_z, a_perp, tau, n_pi, OMEGA_L)
    assert np.all(m >= -1.0) and np.all(m <= 1.0)
    flipped = lk.dd_single_spin_term(a_z, -a_perp, tau, n_pi, OMEGA_L)
    assert np.array_equal(m, flipped)


def test_unit_bloch_vector_identity():
    rng = RngStream(23)
    a_z = rng.uniform(-1, 1, 1000)
    a_perp = rng.uniform(-1, 1, 1000)
    r = a_z + OMEGA_L
    w = np.sqrt(r ** 2 + a_perp ** 2)
    assert np.max(np.abs((r / w) ** 2 + (a_perp / w) ** 2 - 1.0)) <= 1e-12


# --------------------------------------------------------------------------
# dd outcome probability
# --------------------------------------------------------------------------


def test_outcome_prob_no_transverse_coupling():
    phi = lk.NuisanceParams()
    p0 = lk.dd_outcome_prob(7.0, 32, np.array([0.1, 0.0, -0.2, 0.0]), phi, OMEGA_L)
    assert p0 == pytest.approx(1.0)


def test_outcome_prob_empty_product():
    p0 = lk.dd_outcome_prob(7.0, 32, np.array([]), lk.NuisanceParams(), OMEGA_L)
    assert p0 == pytest.approx(1.0)


def test_outcome_prob_envelope_only():
    # N_pi tau = 1/T2_inv with all M = 1: p0 = (1 + 1/e) / 2
    phi = lk.NuisanceParams(t2_inv=1.0 / (32 * 7.0))
    p0 = lk.dd_outcome_prob(7.0, 32, np.array([0.1, 0.0]), phi, OMEGA_L)
    assert p0 == pytest.approx(0.5 * (1.0 + math.exp(-1.0)), abs=1e-12)


def test_outcome_prob_permutation_symmetry():
    phi = lk.NuisanceParams(t2_inv=1e-4)
    rng = RngStream(31)
    for _ in range(50):
        a = rng.uniform(-0.4, 0.4, 6)
        perm = np.array([4, 5, 0, 1, 2, 3])
        tau = float(rng.uniform(1.0, 12.0))
        assert lk.dd_outcome_prob(tau, 32, a, phi, OMEGA_L) == pytest.approx(
            lk.dd_outcome_prob(tau, 32, a[perm], phi, OMEGA_L), abs=1e-12)


def test_outcome_prob_bounds_on_random_draws():
    rng = RngStream(37)
    n = 1_000_000
    taus = rng.uniform(0.01, 50.0, n)
    phi = lk.NuisanceParams(t2_inv=1e-3)
    a = rng.uniform(-1.0, 1.0, 8)
    p0 = lk.dd_outcome_prob(taus, 32, a, phi, OMEGA_L)
    assert np.all(p0 >= 0.0) and np.all(p0 <= 1.0)


def test_outcome_prob_blocks_the_records_of_one_long_row():
    # the call of test_outcome_prob_bounds_on_random_draws: one coupling
    # vector over a million records runs in record blocks, not in ~11 full
    # (4, 1e6) kernel buffers, and gives what calls on record chunks give
    rng = RngStream(37)
    n = 1_000_000
    taus = rng.uniform(0.01, 50.0, n)
    phi = lk.NuisanceParams(t2_inv=1e-3)
    a = rng.uniform(-1.0, 1.0, 8)
    tracemalloc.start()
    try:
        p0 = lk.dd_outcome_prob(taus, 32, a, phi, OMEGA_L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    chunks = [lk.dd_outcome_prob(taus[i:i + 125_000], 32, a, phi, OMEGA_L)
              for i in range(0, n, 125_000)]
    assert np.array_equal(p0, np.concatenate(chunks))
    # mixed N_pi: the record blocks slice the ladder masks
    n_pi = rng.integers(1, 65, 100_000)
    p0 = lk.dd_outcome_prob(taus[:100_000], n_pi, a, phi, OMEGA_L)
    chunks = [lk.dd_outcome_prob(taus[i:i + 5_000], n_pi[i:i + 5_000], a, phi, OMEGA_L)
              for i in range(0, 100_000, 5_000)]
    assert np.array_equal(p0, np.concatenate(chunks))


@pytest.mark.parametrize("n_pi", ["fixed", "mixed"])
def test_outcome_prob_stacked_couplings_equal_row_calls(n_pi):
    rng = RngStream(41)
    taus = rng.uniform(6.0, 8.5, 512)
    n_pi = 32 if n_pi == "fixed" else rng.integers(1, 40, 512)
    phi = lk.NuisanceParams(t2_inv=1e-4)
    n_0 = n_pi if np.ndim(n_pi) == 0 else n_pi[0]
    probs = [(lambda tau, n, a, phi: lk.dd_outcome_prob(tau, n, a, phi, OMEGA_L), 20),
             (lk.DDModel(k_spins=10, omega_l=OMEGA_L).outcome_prob, 20),
             (lk.ToyModel(n=4).outcome_prob, 4)]
    for prob, d in probs:
        stack = rng.uniform(-0.4, 0.4, (33, d))
        stacked = prob(taus, n_pi, stack, phi)
        assert stacked.shape == (33, 512)
        rows = np.stack([prob(taus, n_pi, a, phi) for a in stack])
        assert np.array_equal(stacked, rows)
        # one record: a stack gives (B,), a single vector a float
        stacked = prob(taus[0], n_0, stack, phi)
        assert stacked.shape == (33,)
        rows = [prob(taus[0], n_0, a, phi) for a in stack]
        assert all(isinstance(p, float) for p in rows)
        assert np.array_equal(stacked, rows)
    # the toy model takes a stack of frequency vectors on a leading axis
    omegas = rng.uniform(0.0, 1.0, (33, 4))
    rows = np.stack([lk.toy_outcome_prob(taus, w) for w in omegas])
    assert np.array_equal(lk.toy_outcome_prob(taus, omegas[:, None, :]), rows)


@pytest.mark.parametrize("n_pi", [24, 32])
def test_dd_record_loglik_stack_equals_row_calls(n_pi):
    # DDModel.record_loglik scores a (B, 2K) stack as one-row calls do, at the
    # record's N_pi
    rng = RngStream(41)
    model = lk.DDModel(k_spins=2, omega_l=OMEGA_L)
    phi = lk.NuisanceParams(t2_inv=1e-4)
    stack = rng.uniform(-0.4, 0.4, (64, 4))
    record = lk.MeasurementRecord(7.0, n_pi, 1024, float(rng.uniform(0.0, 0.8)))
    rows = np.concatenate([model.record_loglik(record, a, phi) for a in stack])
    assert np.array_equal(model.record_loglik(record, stack, phi), rows)


@pytest.mark.parametrize("eta_stretch", [1.0, 1.5])
def test_outcome_prob_factorizes_over_spins(eta_stretch):
    # 1 - 2 p_1 is the envelope times one term per spin, and a spin's term is
    # its own 1 - 2 p_1 at T2^-1 = 0: the spin start scores a candidate so
    rng = RngStream(43)
    model = lk.DDModel(k_spins=6, omega_l=OMEGA_L, eta_stretch=eta_stretch)
    taus = rng.uniform(6.0, 8.5, 256)
    n_pi = np.where(np.arange(256) % 2, 24, 32)
    phi = lk.NuisanceParams(t2_inv=2e-3, chi=1 / 1024, eta=0.01)
    others = np.column_stack([rng.uniform(-0.3, 0.3, 5), rng.uniform(0.1, 0.5, 5)]).ravel()
    candidates = np.column_stack([rng.uniform(-0.3, 0.3, 40), rng.uniform(0.0, 0.55, 40)])
    candidates[0, 1] = 0.0
    rest = 1.0 - 2.0 * model.outcome_prob(taus, n_pi, others, phi)
    own = 1.0 - 2.0 * model.outcome_prob(taus, n_pi, candidates, lk.NuisanceParams())
    joint = 1.0 - 2.0 * model.outcome_prob(
        taus, n_pi, np.column_stack([np.tile(others, (40, 1)), candidates]), phi)
    assert np.max(np.abs(joint - rest * own)) <= 1e-14
    assert np.all(own[0] == 1.0)


def test_outcome_prob_stack_memory_is_blocked():
    # 256 coupling vectors x 10 spins x 512 records: the kernel runs in row
    # blocks over one workspace instead of ~11 full (256, 10, 512) arrays
    rng = RngStream(43)
    taus = rng.uniform(6.0, 8.5, 512)
    stack = rng.uniform(-0.4, 0.4, (256, 20))
    phi = lk.NuisanceParams(t2_inv=1e-4)
    tracemalloc.start()
    try:
        lk.dd_outcome_prob(taus, 32, stack, phi, OMEGA_L)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# --------------------------------------------------------------------------
# gaussian outcome model
# --------------------------------------------------------------------------


def test_gaussian_outcome_loglik_matches_density_oracle():
    # frozen via the log_gaussian_density oracle: -0.5 ln(2 pi 0.25/1024)
    got = lk.gaussian_outcome_loglik(0.5, 0.5, 1.0 / 1024, 0.0)
    oracle = log_gaussian_density(0.5, 0.5, 0.25 / 1024)
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(3.2399445501549993, abs=1e-9)


def test_gaussian_outcome_loglik_eta_only():
    got = lk.gaussian_outcome_loglik(0.6, 0.5, 0.0, 0.1)
    assert got == pytest.approx(-0.5 * math.log(2 * math.pi * 0.01) - 0.5, abs=1e-12)


def test_gaussian_outcome_variance_floor_flagged():
    before = lk.variance_floor_count()
    val = lk.gaussian_outcome_loglik(0.3, 1.0, 0.0, 0.0)
    assert lk.variance_floor_count() == before + 1
    assert val < -1e9  # enormous penalty, not -inf


def test_gaussian_outcome_rejects_bad_probability():
    with pytest.raises(ModelError):
        lk.gaussian_outcome_loglik(0.5, 1.2, 0.0, 0.1)


# --------------------------------------------------------------------------
# joint likelihood
# --------------------------------------------------------------------------


def _dd_records(seed, count=40):
    rng = RngStream(seed)
    return [lk.MeasurementRecord(float(t), 32, 1024, float(rng.uniform(0, 0.8)))
            for t in np.linspace(6.0, 8.5, count)]


def test_log_joint_single_and_duplicate():
    model = lk.DDModel(k_spins=2, omega_l=OMEGA_L)
    phi = lk.NuisanceParams(t2_inv=1e-4, chi=1e-3, eta=0.01)
    theta = np.array([0.1, 0.3, -0.15, 0.2])
    rec = _dd_records(1, 1)
    single = lk.log_joint(rec, theta, phi, model)
    assert single == pytest.approx(model.record_loglik(rec[0], theta, phi)[0])
    assert lk.log_joint(rec * 2, theta, phi, model) == pytest.approx(2 * single, abs=1e-12)


def test_log_joint_order_independent():
    import random

    model = lk.DDModel(k_spins=2, omega_l=OMEGA_L)
    phi = lk.NuisanceParams(t2_inv=1e-4, chi=1e-3, eta=0.01)
    theta = np.array([0.1, 0.3, -0.15, 0.2])
    records = _dd_records(2, 1000)
    shuffled = list(records)
    random.Random(4).shuffle(shuffled)
    a = lk.log_joint(records, theta, phi, model)
    b = lk.log_joint(shuffled, theta, phi, model)
    assert a == pytest.approx(b, abs=1e-9)


def test_log_joint_rejects_empty():
    with pytest.raises(ValueError):
        lk.log_joint([], np.array([0.1]), lk.NuisanceParams(), lk.DDModel(1, OMEGA_L))


def test_batch_loglik_agrees_with_record_path():
    model = lk.DDModel(k_spins=3, omega_l=OMEGA_L)
    phi = lk.NuisanceParams(t2_inv=2e-4, chi=1e-3, eta=0.02)
    records = _dd_records(5, 30)
    data = model.prepare(records)
    theta = np.array([0.05, 0.25, -0.1, 0.4, 0.2, 0.15])
    batch = model.batch_loglik(data, theta[None, :], phi)[0][0]
    assert batch == pytest.approx(lk.log_joint(records, theta, phi, model), rel=1e-12)


@pytest.mark.parametrize("eta_stretch", [0.7, 1.5])
def test_stretched_envelope_gradients_match_central_differences(eta_stretch):
    model = lk.DDModel(k_spins=2, omega_l=OMEGA_L, eta_stretch=eta_stretch)
    records = _dd_records(6, 30)
    data = model.prepare(records)
    theta = [0.1, 0.3, -0.15, 0.2]
    phi_vals = [3e-3, 1e-3, 0.02]
    phi = lk.NuisanceParams(*phi_vals)
    ll, grad_a, grad_phi = model.batch_loglik(data, np.array([theta]), phi)
    assert ll[0] == pytest.approx(lk.log_joint(records, theta, phi, model), rel=1e-12)

    def central(f, x, j):
        h = 1e-5 * abs(x[j])
        up, dn = list(x), list(x)
        up[j] += h
        dn[j] -= h
        return (f(up) - f(dn)) / (2.0 * h)

    def of_a(x):
        return model.batch_loglik(data, np.array([x]), phi)[0][0]

    def of_phi(x):
        return model.batch_loglik(data, np.array([theta]), lk.NuisanceParams(*x))[0][0]

    for j in range(4):
        assert grad_a[0, j] == pytest.approx(central(of_a, theta, j), rel=1e-6), j
    for j in range(3):
        assert grad_phi[0, j] == pytest.approx(central(of_phi, phi_vals, j), rel=1e-6), j


def test_batch_loglik_weighted_gradients_equal_unweighted_gradients_of_the_subset():
    model = lk.DDModel(k_spins=2, omega_l=OMEGA_L)
    phi = lk.NuisanceParams(t2_inv=2e-4, chi=1e-3, eta=0.02)
    records = _dd_records(7, 30)
    rng = RngStream(8)
    a = np.column_stack([rng.uniform(-0.2, 0.2, 5), rng.uniform(0.1, 0.4, 5),
                         rng.uniform(-0.2, 0.2, 5), rng.uniform(0.1, 0.4, 5)])
    subset = np.arange(len(records)) % 3 == 0
    data = model.prepare(records)
    ll, _, _ = model.batch_loglik(data, a, phi)
    ll_w, grad_a_w, grad_phi_w = model.batch_loglik(data, a, phi, grad_weights=subset * 1.0)
    on_subset = model.prepare([r for r, s in zip(records, subset) if s])
    _, grad_a_s, grad_phi_s = model.batch_loglik(on_subset, a, phi)
    assert np.array_equal(ll_w, ll)
    np.testing.assert_allclose(grad_a_w, grad_a_s, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(grad_phi_w, grad_phi_s, rtol=1e-12, atol=0.0)


def test_batch_loglik_at_the_variance_floor():
    # no noise, no decay and no transverse coupling: p1 = 0 and the variance
    # is 0 on every record, so every one is floored
    model = lk.DDModel(k_spins=1, omega_l=OMEGA_L)
    phi = lk.NuisanceParams()
    records = _dd_records(9, 30)
    a = np.array([[0.1, 0.0], [-0.2, 0.0]])
    before = lk.variance_floor_count()
    ll, grad_a, grad_phi = model.batch_loglik(model.prepare(records), a, phi)
    assert lk.variance_floor_count() == before + a.shape[0] * len(records)
    assert np.all(np.isfinite(ll)) and np.all(np.isfinite(grad_a))
    assert np.all(np.isfinite(grad_phi))
    assert np.all(grad_phi[:, 1:] == 0.0)    # chi and eta
    for row, value in zip(a, ll):
        assert value == pytest.approx(lk.log_joint(records, row, phi, model), rel=1e-12)


# --------------------------------------------------------------------------
# dd kernel against a closed-form oracle, mixed N_pi and |cos phi| = 1
# --------------------------------------------------------------------------


def _oracle_spin_term(a_z, a_perp, tau, n_pi):
    """M through phi = arccos(cos phi), with 1 + cos phi in its cancellation-free
    form 2 cos^2((alpha + beta) / 2) + (1 - m_z) sin alpha sin beta."""
    if a_perp == 0.0:
        return 1.0
    r = a_z + OMEGA_L
    w = math.hypot(r, a_perp)
    alpha, beta = w * tau, OMEGA_L * tau
    m_z = r / w
    cos_phi = math.cos(alpha) * math.cos(beta) - m_z * math.sin(alpha) * math.sin(beta)
    phi = math.acos(min(1.0, max(-1.0, cos_phi)))
    one_m_mz = a_perp * a_perp / (w * (w + r))
    den = 2.0 * math.cos(0.5 * (alpha + beta)) ** 2 + one_m_mz * math.sin(alpha) * math.sin(beta)
    g = (1.0 - math.cos(alpha)) * (1.0 - math.cos(beta)) / den * math.sin(0.5 * n_pi * phi) ** 2
    return 1.0 - (a_perp / w) ** 2 * g


def _oracle_loglik(records, couplings, t2_inv, chi, eta):
    total = 0.0
    for r in records:
        prod = 1.0
        for k in range(len(couplings) // 2):
            prod *= _oracle_spin_term(couplings[2 * k], couplings[2 * k + 1], r.tau_us, r.n_pi)
        p1 = 0.5 * (1.0 - math.exp(-r.n_pi * r.tau_us * t2_inv) * prod)
        var = chi * p1 * (1.0 - p1) + eta * eta
        total += -0.5 * math.log(2.0 * math.pi * var) - (r.y - p1) ** 2 / (2.0 * var)
    return total


def test_dd_kernel_mixed_n_pi_matches_oracle_and_central_differences():
    n_pis = (1, 2, 7, 24, 32, 33)
    # row 1, spin 0: A_perp = 0, so cos phi = cos(alpha + beta) is +1 or -1 at
    # alpha + beta = k pi; odd k takes the unstable-denominator fallback
    az_flat = 0.12
    special = [k * math.pi / (az_flat + 2.0 * OMEGA_L) for k in range(10, 16)]
    # row 2, spin 0: w = omega_L, so alpha = beta and cos phi = 1 at beta = 5 pi, 7 pi
    az_res = math.sqrt(OMEGA_L ** 2 - 0.09) - OMEGA_L
    special += [5.0 * math.pi / OMEGA_L, 7.0 * math.pi / OMEGA_L]
    assert min(1.0 + math.cos((az_flat + 2.0 * OMEGA_L) * t) for t in special[1::2]) < 1e-12
    rng = RngStream(41)
    taus = [float(t) for t in np.linspace(5.5, 8.5, 18)]
    rows = [(t, n_pis[i % 6]) for i, t in enumerate(taus)] + [(t, n) for t in special for n in n_pis]
    records = [lk.MeasurementRecord(t, n, 1024, float(rng.uniform(0.05, 0.7))) for t, n in rows]
    batch = np.array([[0.05, 0.25, -0.1, 0.4, 0.2, 0.15],
                      [az_flat, 0.0, -0.15, 0.3, 0.25, 0.2],
                      [az_res, 0.3, 0.08, 0.35, -0.05, 0.45]])
    phi_vals = [3e-4, 1e-3, 0.02]
    model = lk.DDModel(k_spins=3, omega_l=OMEGA_L)
    ll, grad_a, grad_phi = model.batch_loglik(model.prepare(records), batch,
                                              lk.NuisanceParams(*phi_vals))

    def central(f, x, j, h):
        up, dn = list(x), list(x)
        up[j] += h
        dn[j] -= h
        return (f(up) - f(dn)) / (2.0 * h)

    for b, couplings in enumerate(batch.tolist()):
        assert ll[b] == pytest.approx(_oracle_loglik(records, couplings, *phi_vals), rel=1e-9)
        for j in range(6):
            fd = central(lambda x: _oracle_loglik(records, x, *phi_vals), couplings, j, 1e-6)
            assert abs(grad_a[b, j] - fd) <= 1e-4 * max(abs(fd), 1.0), (b, j, grad_a[b, j], fd)
        for j, value in enumerate(phi_vals):
            fd = central(lambda x: _oracle_loglik(records, couplings, *x), phi_vals, j, 1e-4 * value)
            assert abs(grad_phi[b, j] - fd) <= 1e-4 * max(abs(fd), 1.0), (b, j, grad_phi[b, j], fd)


def test_measurement_record_validation():
    with pytest.raises(ValueError):
        lk.MeasurementRecord(tau_us=0.0, n_pi=32, repetitions=10, y=0.5)
    with pytest.raises(ValueError):
        lk.MeasurementRecord(tau_us=1.0, n_pi=0, repetitions=10, y=0.5)
    with pytest.raises(ValueError):
        lk.MeasurementRecord(tau_us=1.0, n_pi=1, repetitions=0, y=0.5)
