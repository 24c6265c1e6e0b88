"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line.  Heavy end-to-end runs (the spin-identification scenario and
the scaling benchmark) are shared through module-scoped fixtures.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from vbi import flows, pipeline, selection, smc
from vbi.likelihoods import (DDModel, GaussianLocationModel, MeasurementRecord,
                             NuisanceParams, dd_single_spin_term)
from vbi.probcore import RngStream
from vbi.simulator import (BoundsInput, ScenarioConfig, omega_larmor,
                           rayleigh_bounds, simulate_dataset,
                           strongly_coupled_bath, total_measurement_time)
from vbi.trainer import PriorSpec, RegularizerSpec, TrainConfig, estimate_elbo, train

OMEGA_L = omega_larmor(403.0)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


# ---------------------------------------------------------------------------
# criterion 1: conjugate-Gaussian ELBO reaches the exact log evidence
# ---------------------------------------------------------------------------


def test_criterion_1_conjugate_elbo():
    target = -0.5 * math.log(4 * math.pi)
    t0 = time.perf_counter()
    config = TrainConfig(batch=64, steps=1200, lr_start=2e-2, lr_end=1e-3, seed=3,
                         prior=PriorSpec(kind="gaussian", mean=np.zeros(1), var=np.ones(1)))
    _, _, trace = train(config, [MeasurementRecord(1.0, 1, 1, 0.0)],
                        GaussianLocationModel(1.0), flows.AnsatzSpec(d=1, family="mean-field"))
    elapsed = time.perf_counter() - t0
    smoothed = trace.smoothed_elbo(100)
    ok = abs(smoothed - target) <= 0.02 and elapsed < 10.0
    report("criterion 1 (conjugate ELBO)",
           ok, f"smoothed ELBO {smoothed:.5f} vs {target:.5f}, {elapsed:.1f} s")
    assert abs(smoothed - target) <= 0.02
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: gradient suite, d in {2, 4, 10}, all families, both regularizers
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for k_spins in (1, 2, 5):
        d = 2 * k_spins
        model = DDModel(k_spins=k_spins, omega_l=OMEGA_L)
        rng = RngStream(100 + k_spins)
        records = [MeasurementRecord(float(t), 32, 1024, float(rng.uniform(0, 0.7)))
                   for t in np.linspace(6.0, 8.5, 6)]
        data = model.prepare(records)
        for family in ("mean-field", "full-affine", "stacked"):
            spec = flows.AnsatzSpec(d=d, family=family, n_layers=3, hidden_width=6)
            base = flows.init_flow_parameters(spec, np.zeros(d), 0.3 * np.ones(d),
                                              RngStream(200 + d))
            params = base.from_vector(
                base.to_vector() + 0.05 * RngStream(300 + d).standard_normal(base.n_parameters))
            phi = NuisanceParams(t2_inv=3e-4, chi=1e-3, eta=0.02)
            for reg_kind in ("l1", "l2"):
                reg = RegularizerSpec(reg_kind, 0.1)
                seed = 997 + cases

                def value(vec, phi_vals=None):
                    return estimate_elbo(
                        params.from_vector(vec), data, model, PriorSpec(), reg, 4,
                        RngStream(seed),
                        phi=NuisanceParams(*(phi_vals if phi_vals is not None
                                             else phi.as_array()))).value

                est = estimate_elbo(params, data, model, PriorSpec(), reg, 4,
                                    RngStream(seed), phi=phi)
                v0 = params.to_vector()
                h = 1e-5
                for i in range(v0.size):
                    up, dn = v0.copy(), v0.copy()
                    up[i] += h
                    dn[i] -= h
                    fd = (value(up) - value(dn)) / (2 * h)
                    rel = abs(est.grad_flow[i] - fd) / max(abs(fd), abs(est.grad_flow[i]), 1e-6)
                    worst = max(worst, rel)
                pv = phi.as_array()
                for j in range(3):
                    up, dn = pv.copy(), pv.copy()
                    up[j] += h
                    dn[j] -= h
                    fd = (value(v0, phi_vals=up) - value(v0, phi_vals=dn)) / (2 * h)
                    worst = max(worst, abs(est.grad_phi[j] - fd) / max(abs(fd), 1e-6))
                cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report("criterion 2 (gradient suite)",
           ok, f"{cases} cases, worst relative error {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 3: flow exactness
# ---------------------------------------------------------------------------


def test_criterion_3_flow_exactness():
    # inverse round trip on a stacked flow
    spec = flows.AnsatzSpec(d=4, family="stacked", n_layers=3, hidden_width=8)
    base = flows.init_flow_parameters(spec, np.zeros(4), np.ones(4), RngStream(31))
    params = base.from_vector(
        base.to_vector() + 0.3 * RngStream(32).standard_normal(base.n_parameters))
    theta = RngStream(33).standard_normal((10000, 4)) * 2.0
    back, _ = flows.flow_forward(flows.flow_inverse(theta, params), params)
    round_trip = float(np.max(np.abs(back - theta)))

    # affine family equals the closed-form multivariate Gaussian
    aff_spec = flows.AnsatzSpec(d=3, family="full-affine")
    aff = flows.init_flow_parameters(aff_spec, np.array([0.3, -0.2, 1.0]),
                                     np.array([1.2, 0.4, 0.9]))
    aff = aff.from_vector(aff.to_vector() + 0.2 * RngStream(34).standard_normal(aff.n_parameters))
    low = aff.l_matrix()
    cov = low @ low.T
    inv = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    density_err = 0.0
    for theta_i in RngStream(35).standard_normal((100, 3)) + aff.mu:
        resid = theta_i - aff.mu
        exact = -0.5 * (3 * math.log(2 * math.pi) + logdet + resid @ inv @ resid)
        density_err = max(density_err, abs(flows.ansatz_log_density(theta_i, aff) - exact))

    # 1d quadrature normalization
    one_d = flows.AnsatzSpec(d=1, family="stacked", n_layers=3, hidden_width=8)
    p1 = flows.init_flow_parameters(one_d, np.zeros(1), np.ones(1), RngStream(36))
    p1 = p1.from_vector(p1.to_vector() + 0.4 * RngStream(37).standard_normal(p1.n_parameters))
    lo, _ = flows.flow_forward(np.array([-10.0]), p1)
    hi, _ = flows.flow_forward(np.array([10.0]), p1)
    grid = np.linspace(min(lo[0], hi[0]), max(lo[0], hi[0]), 10000)
    mass = float(np.trapezoid(np.exp(flows.ansatz_log_density(grid[:, None], p1)), grid))

    ok = round_trip <= 1e-8 and density_err <= 1e-10 and abs(mass - 1) <= 1e-4
    report("criterion 3 (flow exactness)", ok,
           f"round trip {round_trip:.2e}, affine density err {density_err:.2e}, "
           f"quadrature mass {mass:.6f}")
    assert round_trip <= 1e-8
    assert density_err <= 1e-10
    assert abs(mass - 1.0) <= 1e-4


# ---------------------------------------------------------------------------
# criteria 4 and 5: scaling benchmark and prior baseline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bench_rows():
    config = {
        "model": {"kind": "toy", "m_points": 512, "repetitions": 1024,
                  "log_tau_range": [-1.0, 4.0]},
        "train": {"batch": 64, "steps": 2000},
        "bench": {"n_list": [2, 4, 8, 12], "seeds": [0], "n_particles": 16384,
                  "trials": 10000},
    }
    t0 = time.perf_counter()
    rows = pipeline.bench_pf_rows(config)
    return rows, time.perf_counter() - t0


def test_criterion_4_scaling_benchmark(bench_rows):
    rows, elapsed = bench_rows
    by_key = {(n, method): err for n, method, _, err in rows}
    details = []
    ok = elapsed < 15 * 60
    for n in (2, 4, 8, 12):
        base = by_key[(n, "baseline")]
        vbi_ratio = by_key[(n, "VBI")] / base
        pf_ratio = by_key[(n, "PF")] / base
        details.append(f"n={n}: PF/base {pf_ratio:.3f}, VBI/base {vbi_ratio:.4f}")
        ok &= vbi_ratio < 0.1
        if n <= 4:
            ok &= pf_ratio < 0.1
        else:
            ok &= 0.5 <= pf_ratio <= 2.0
    report("criterion 4 (PF vs VBI scaling)", ok,
           "; ".join(details) + f"; {elapsed / 60:.1f} min")
    for n in (2, 4, 8, 12):
        base = by_key[(n, "baseline")]
        assert by_key[(n, "VBI")] < base / 10, f"VBI at n={n}"
        if n <= 4:
            assert by_key[(n, "PF")] < base / 10, f"PF at n={n}"
        else:
            assert 0.5 * base <= by_key[(n, "PF")] <= 2.0 * base, f"PF at n={n}"
    assert elapsed < 15 * 60


def test_criterion_5_prior_baseline():
    value = smc.prior_mode_baseline_error(1, 10000, RngStream(4))
    values = [smc.prior_mode_baseline_error(n, 10000, RngStream(11))
              for n in (1, 2, 4, 8, 16)]
    monotone = all(a >= b for a, b in zip(values, values[1:]))
    ok = abs(value - 1 / 6) / (1 / 6) <= 0.02 and monotone
    report("criterion 5 (prior baseline)", ok,
           f"n=1 value {value:.5f} (exact 1/6), sequence {np.round(values, 4).tolist()}")
    assert abs(value - 1.0 / 6.0) / (1.0 / 6.0) <= 0.02
    assert monotone


# ---------------------------------------------------------------------------
# criteria 6 and 7: spin identification at desk scale (shared runs)
# ---------------------------------------------------------------------------


SPIN_ID_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def spin_identification_runs():
    runs = []
    for seed in SPIN_ID_SEEDS:
        truth = strongly_coupled_bath(6, RngStream(7000 + seed),
                                      aperp_range=(0.15, 0.5), min_delta_az=0.03)
        scenario = ScenarioConfig(kind="dd", theta_true=truth, m_points=512,
                                  repetitions=1024, seed=8000 + seed)
        records = simulate_dataset(scenario)
        config = {
            "model": {"kind": "dd", "B_gauss": 403.0, "ansatz_spins": 10,
                      "n_pi": 32, "m_points": 512, "repetitions": 1024},
            "train": {"batch": 64, "steps": 2048, "seed": seed},
            "regularizer": {"kind": "l2", "sigma": 1e-3, "trainable": True},
        }
        t0 = time.perf_counter()
        params, phi, trace = pipeline.fit_dataset(config, records, seed)
        fit_seconds = time.perf_counter() - t0
        truth_2d = np.column_stack([truth[0::2], truth[1::2]])
        sample_set, clusters, metrics = pipeline.select_spins(config, params, seed + 12000,
                                                              truth_2d)
        matches = selection._match_spins(clusters, truth_2d, 4.0)
        runs.append(dict(seed=seed, truth=truth_2d, records=records, params=params,
                         phi=phi, trace=trace, fit_seconds=fit_seconds,
                         sample_set=sample_set, clusters=clusters, metrics=metrics,
                         matches=matches))
    return runs


def test_criterion_6_table_analogue(spin_identification_runs):
    daz, dap = [], []
    f1s, times = [], []
    for run in spin_identification_runs:
        for k, j, _ in run["matches"]:
            daz.append(abs(run["clusters"][j].mu[0] - run["truth"][k][0]) * 1e3)
            dap.append(abs(run["clusters"][j].mu[1] - run["truth"][k][1]) * 1e3)
        f1s.append(run["metrics"].f1)
        times.append(run["fit_seconds"])
    mean_daz = float(np.mean(daz))
    mean_dap = float(np.mean(dap))
    mean_f1 = float(np.mean(f1s))
    ok = (mean_daz <= 10.0 and mean_dap <= 25.0 and mean_f1 >= 0.8
          and max(times) < 20 * 60)
    report("criterion 6 (desk-scale table analogue)", ok,
           f"mean |dAz| {mean_daz:.2f} kHz, mean |dAp| {mean_dap:.2f} kHz, "
           f"mean F1 {mean_f1:.3f}, per-seed F1 {np.round(f1s, 3).tolist()}, "
           f"max fit time {max(times) / 60:.1f} min")
    assert mean_daz <= 10.0
    assert mean_dap <= 25.0
    assert mean_f1 >= 0.8
    assert max(times) < 20 * 60


def test_criterion_6_goodness_of_fit(spin_identification_runs):
    # fitted signal stays within 3x the injected noise of the data
    worst = 0.0
    for run in spin_identification_runs:
        model = DDModel(10, OMEGA_L)
        taus = np.array([r.tau_us for r in run["records"]])
        ys = np.array([r.y for r in run["records"]])
        p1 = np.atleast_1d(model.outcome_prob(taus, 32, run["params"].mu, run["phi"]))
        rms = float(np.sqrt(np.mean((ys - p1) ** 2)))
        noise = math.sqrt(0.25 / 1024 + 1e-4)
        worst = max(worst, rms / noise)
    ok = worst <= 3.0
    report("criterion 6b (fit residuals)", ok, f"worst RMS/noise ratio {worst:.2f}")
    assert worst <= 3.0


def test_criterion_7_model_selection(spin_identification_runs):
    details = []
    ok = True
    for run in spin_identification_runs:
        ss = run["sample_set"]
        p6 = ss.probabilities.get(6, 0.0)
        details.append(f"seed {run['seed']}: MAP {ss.map_class}, p6 {p6:.3f}")
        ok &= ss.map_class == 6 and p6 >= 0.5
    report("criterion 7 (model selection)", ok, "; ".join(details))
    for run in spin_identification_runs:
        assert run["sample_set"].map_class == 6
        assert run["sample_set"].probabilities.get(6, 0.0) >= 0.5


# ---------------------------------------------------------------------------
# criterion 8: resolution-bound calculator
# ---------------------------------------------------------------------------


def test_criterion_8_bounds_calculator():
    bounds = rayleigh_bounds(BoundsInput(max_aperp=0.5, min_aperp=0.05,
                                         min_delta_az=1e-3, omega_l=2.7, n_pi=32))
    ok = (abs(bounds.big_m_min - 85) <= 1.0 and bounds.m_min == pytest.approx(125.0)
          and 0.3 <= bounds.t_min_s <= 30.0)
    report("criterion 8 (resolution bounds)", ok,
           f"M_min {bounds.big_m_min:.2f}, m_min {bounds.m_min:.1f}, "
           f"T_min {bounds.t_min_s:.3f} s, R_min {bounds.r_min:.2f}")
    assert abs(bounds.big_m_min - 85) <= 1.0
    assert bounds.m_min == pytest.approx(125.0)
    assert 0.3 <= bounds.t_min_s <= 30.0


# ---------------------------------------------------------------------------
# criterion 9: total measurement time
# ---------------------------------------------------------------------------


def test_criterion_9_t_tot():
    taus = np.linspace(6.0, 8.5, 512)
    t_tot = total_measurement_time(taus, repetitions=1024, n_pi=32)
    ok = 120 * 0.7 <= t_tot <= 120 * 1.3
    report("criterion 9 (T_tot)", ok, f"T_tot {t_tot:.1f} s vs 120 s +/- 30%")
    assert 120 * 0.7 <= t_tot <= 120 * 1.3


# ---------------------------------------------------------------------------
# criterion 10: exact identities and the big random symmetry suite
# ---------------------------------------------------------------------------


def test_criterion_10_identities_and_symmetries():
    t0 = time.perf_counter()
    # regularizer bookkeeping identity (exact)
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
    with_reg = estimate_elbo(params, data, model, PriorSpec(),
                             RegularizerSpec("l1", sigma), 32, RngStream(99), phi=phi)
    theta, _, _ = flows.sample_batch(params, 32, RngStream(99))
    expected = -4 * math.log(2 * sigma) - float(np.abs(theta).sum(axis=1).mean()) / sigma
    bookkeeping = abs((with_reg.value - plain.value) - expected)

    # particle filter vs truncated conjugate posterior
    from scipy import stats

    noise = 0.3
    gmodel = GaussianLocationModel(noise_std=noise)
    y_obs = [0.45, 0.62, 0.38]
    means = []
    for seed in range(50):
        ens = smc.pf_init(np.zeros(1), np.ones(1), 4096, RngStream(100 + seed))
        for y in y_obs:
            ens = smc.pf_update(ens, MeasurementRecord(1.0, 1, 1, y), gmodel)
        means.append(smc.pf_estimate(ens)[0])
    post_var = noise ** 2 / len(y_obs)
    post_mu = float(np.mean(y_obs))
    a, b = (0 - post_mu) / post_var ** 0.5, (1 - post_mu) / post_var ** 0.5
    exact = stats.truncnorm(a, b, loc=post_mu, scale=post_var ** 0.5)
    se = np.std(means, ddof=1) / math.sqrt(len(means))
    pf_dev = abs(np.mean(means) - exact.mean())

    # million-draw bounds + sign symmetry + permutation symmetry
    big = RngStream(17)
    n = 1_000_000
    a_z = big.uniform(-2.0, 2.0, n)
    a_perp = big.uniform(-2.0, 2.0, n)
    tau = big.uniform(0.01, 50.0, n)
    n_pi = big.integers(1, 65, n).astype(float)
    m = dd_single_spin_term(a_z, a_perp, tau, n_pi, OMEGA_L)
    bounds_ok = bool(np.all(m >= -1.0) and np.all(m <= 1.0))
    sign_ok = bool(np.array_equal(m, dd_single_spin_term(a_z, -a_perp, tau, n_pi, OMEGA_L)))
    perm_dev = 0.0
    phi_p = NuisanceParams(t2_inv=1e-4)
    from vbi.likelihoods import dd_outcome_prob

    prng = RngStream(31)
    for _ in range(50):
        couplings = prng.uniform(-0.4, 0.4, 6)
        perm = np.array([4, 5, 0, 1, 2, 3])
        tau_i = float(prng.uniform(1.0, 12.0))
        perm_dev = max(perm_dev, abs(
            dd_outcome_prob(tau_i, 32, couplings, phi_p, OMEGA_L)
            - dd_outcome_prob(tau_i, 32, couplings[perm], phi_p, OMEGA_L)))
    elapsed = time.perf_counter() - t0
    ok = (bookkeeping <= 1e-12 and pf_dev <= 3 * se and bounds_ok and sign_ok
          and perm_dev <= 1e-12 and elapsed < 300)
    report("criterion 10 (identities + symmetry suite)", ok,
           f"bookkeeping {bookkeeping:.1e}, PF dev {pf_dev:.2e} (3se {3 * se:.2e}), "
           f"bounds {bounds_ok}, sign {sign_ok}, perm dev {perm_dev:.1e}, {elapsed:.0f} s")
    assert bookkeeping <= 1e-12
    assert pf_dev <= 3 * se
    assert bounds_ok and sign_ok
    assert perm_dev <= 1e-12
    assert elapsed < 300
