import math

import numpy as np
import pytest

from vbi import simulator as sim
from vbi.likelihoods import DDModel, NuisanceParams
from vbi.probcore import RngStream


def dd_config(**kwargs):
    base = dict(kind="dd", theta_true=np.array([0.05, 0.25, -0.1, 0.3]),
                m_points=64, repetitions=512, seed=3)
    base.update(kwargs)
    return sim.ScenarioConfig(**base)


# --------------------------------------------------------------------------
# larmor frequency and scenario plumbing
# --------------------------------------------------------------------------


def test_omega_larmor_at_403_gauss():
    # 2 pi * 1.0705 kHz/G * 403 G = 2 pi * 0.4314 MHz within 0.1%
    assert sim.omega_larmor(403.0) == pytest.approx(2 * math.pi * 0.4314, rel=1e-3)


def test_scenario_rejects_unknown_kind():
    with pytest.raises(ValueError):
        sim.ScenarioConfig(kind="nope", theta_true=np.zeros(2))


# --------------------------------------------------------------------------
# dataset simulation
# --------------------------------------------------------------------------


def test_simulate_deterministic():
    a = sim.simulate_dataset(dd_config())
    b = sim.simulate_dataset(dd_config())
    assert all(ra == rb for ra, rb in zip(a, b))


def test_simulate_noise_free_channel_gives_zero_outcomes():
    cfg = dd_config(theta_true=np.array([0.1, 0.0, -0.2, 0.0]), t2_inv=0.0, eta0=0.0)
    records = sim.simulate_dataset(cfg)
    # p(0) = 1 means b = 0 always; y counts b = 1, so every y = 0
    assert all(r.y == 0.0 for r in records)


def test_simulate_concentrates_on_model_curve():
    cfg = dd_config(eta0=0.0, repetitions=8192, m_points=16)
    records = sim.simulate_dataset(cfg)
    model = DDModel(2, cfg.omega_l)
    for r in records:
        p1 = 1.0 - model.outcome_prob_zero(r.tau_us, r.n_pi, cfg.theta_true,
                                           NuisanceParams(t2_inv=cfg.t2_inv))
        assert abs(r.y - p1) <= 3 * math.sqrt(max(p1 * (1 - p1), 1e-12) / 8192) + 1e-9


def test_simulated_mean_converges_over_seeds():
    cfg0 = dd_config(m_points=12, repetitions=256)
    model = DDModel(2, cfg0.omega_l)
    taus = np.linspace(cfg0.tau_min_us, cfg0.tau_max_us, cfg0.m_points)
    p1 = 1.0 - np.atleast_1d(model.outcome_prob_zero(taus, cfg0.n_pi, cfg0.theta_true,
                                                     NuisanceParams(t2_inv=cfg0.t2_inv)))
    stack = []
    for seed in range(200):
        records = sim.simulate_dataset(dd_config(m_points=12, repetitions=256, seed=seed))
        stack.append([r.y for r in records])
    mean_y = np.mean(stack, axis=0)
    se = np.sqrt((p1 * (1 - p1) / 256 + cfg0.eta0 ** 2) / 200)
    assert np.all(np.abs(mean_y - p1) <= 3 * se + 1e-12)


def test_toy_simulation_fraction_outcomes():
    cfg = sim.ScenarioConfig(kind="toy", theta_true=np.array([0.3, 0.7]),
                             m_points=32, repetitions=128, seed=1)
    records = sim.simulate_dataset(cfg)
    assert all(r.n_pi == 1 for r in records)
    assert all(0.0 <= r.y <= 1.0 for r in records)
    assert all(abs(r.y * 128 - round(r.y * 128)) < 1e-9 for r in records)
    taus = np.array([r.tau_us for r in records])
    assert taus.min() >= 10 ** -1 and taus.max() <= 10 ** 4


def test_single_spin_dips_match_resonance_formula():
    truth = np.array([0.05, 0.2])
    cfg = dd_config(theta_true=truth, m_points=8000, repetitions=1, t2_inv=0.0, eta0=0.0)
    model = DDModel(1, cfg.omega_l)
    taus = np.linspace(cfg.tau_min_us, cfg.tau_max_us, cfg.m_points)
    p0 = np.atleast_1d(model.outcome_prob_zero(taus, cfg.n_pi, truth, NuisanceParams()))
    step = taus[1] - taus[0]
    for m in (6, 7):
        tau_m = sim.resonance_delays(m, truth[0], cfg.omega_l)
        window = (taus > tau_m - 0.08) & (taus < tau_m + 0.08)
        tau_dip = taus[window][np.argmin(p0[window])]
        assert abs(tau_dip - tau_m) <= step + 0.02


def test_strongly_coupled_bath_respects_separation():
    rng = RngStream(5)
    for _ in range(20):
        bath = sim.strongly_coupled_bath(6, rng, min_delta_az=0.03)
        az = np.sort(bath[0::2])
        assert np.min(np.diff(az)) >= 0.03
        assert np.all(bath[1::2] >= 0.1) and np.all(bath[1::2] <= 0.5)


# --------------------------------------------------------------------------
# measurement time
# --------------------------------------------------------------------------


def test_total_time_two_point_example():
    # signal 1024*32*(6+7) us = 0.42598 s; overhead 2*1024*(10 + 64*0.037) us
    t = sim.total_measurement_time([6.0, 7.0], 1024, 32)
    signal = 1024 * 32 * 13e-6
    overhead = 2 * 1024 * (10 + 2 * 32 * 0.037) * 1e-6
    assert t == pytest.approx(signal + overhead, rel=1e-12)
    assert t == pytest.approx(0.4513, abs=2e-4)


def test_total_time_full_grid_near_two_minutes():
    taus = np.linspace(6.0, 8.5, 512)
    t = sim.total_measurement_time(taus, 1024, 32)
    assert 120 * 0.7 <= t <= 120 * 1.3


def test_total_time_degenerate():
    assert sim.total_measurement_time([6.0], 0, 32) == 0.0


# --------------------------------------------------------------------------
# resolution bounds
# --------------------------------------------------------------------------


def test_bounds_inputs_validated():
    with pytest.raises(ValueError):
        sim.BoundsInput(max_aperp=0.5, min_aperp=0.0, min_delta_az=1e-3,
                        omega_l=2.7, n_pi=32)


def test_bounds_match_reference_numbers():
    report = sim.rayleigh_bounds(sim.BoundsInput(
        max_aperp=0.5, min_aperp=0.05, min_delta_az=1e-3, omega_l=2.7, n_pi=32))
    assert report.big_m_min == pytest.approx(85, abs=1)
    assert report.m_min == pytest.approx(125.0)
    # order of magnitude of ~3 s
    assert 0.3 <= report.t_min_s <= 30.0
    # formula value; the source text quotes ~4 for the same inputs
    assert report.r_min == pytest.approx(2.7 / (32 * 0.05), rel=1e-12)


def test_resonance_delay_formula():
    tau = sim.resonance_delays(1, 0.0, 2.7)
    assert tau == pytest.approx(math.pi / 5.4)


# --------------------------------------------------------------------------
# file formats
# --------------------------------------------------------------------------


def test_dataset_csv_roundtrip(tmp_path):
    records = sim.simulate_dataset(dd_config())
    path = tmp_path / "dataset.csv"
    sim.write_dataset_csv(path, records)
    header = path.read_text().splitlines()[0]
    assert header == "tau_s,n_pi,repetitions,y"
    loaded = sim.read_dataset_csv(path)
    assert len(loaded) == len(records)
    for a, b in zip(records, loaded):
        assert a.tau_us == pytest.approx(b.tau_us, rel=1e-12)
        assert a.y == b.y and a.n_pi == b.n_pi and a.repetitions == b.repetitions


def test_truth_json_roundtrip(tmp_path):
    path = tmp_path / "truth.json"
    couplings = np.array([0.05, 0.25, -0.1, 0.3])
    sim.write_truth_json(path, couplings, t2_inv=1e-4, b_gauss=403.0)
    spins, t2_inv, b = sim.read_truth_json(path)
    assert np.allclose(spins, [[0.05, 0.25], [-0.1, 0.3]])
    assert t2_inv == 1e-4 and b == 403.0
