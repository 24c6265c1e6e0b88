"""The paper's pipeline as library calls: the run-config format and the
fit-side algorithms behind ``vbi fit`` and ``vbi bench-pf``.

A run config is JSON with a strict schema (:func:`load_config`); unknown keys
are rejected with the offending path so typos never silently fall back to
defaults.  :func:`fit_dataset` is the config-driven fit: it builds the model,
the training settings and the initial ansatz from a config and trains the
posterior on a dataset.  Spin-identification fits start at the greedy comb
fit of the data (:func:`greedy_comb_init`).
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import flows, simulator, smc, trainer
from .likelihoods import DDModel, NuisanceParams, ToyModel
from .probcore import RngStream
from .simulator import (MODEL_DD, MODEL_TOY, ScenarioConfig, omega_larmor,
                        strongly_coupled_bath)


class ConfigError(Exception):
    """A run config, or an input that does not match it, is invalid."""


_SCHEMA = {
    "model": {
        "kind": str,
        # dd
        "ansatz_spins": int,
        "B_gauss": float,
        "n_pi": int,
        "T2_inv": float,
        "eta0": float,
        "eta_stretch": float,
        "tau_min_us": float,
        "tau_max_us": float,
        "m_points": int,
        "repetitions": int,
        "truth_spins": list,         # [[Az, Aperp], ...] explicit ground truth
        "truth_seed": int,           # or a generated strongly-coupled bath
        "truth_count": int,
        "az_range": list,
        "aperp_range": list,
        "min_delta_az": float,
        # toy
        "n_frequencies": int,
        "log_tau_range": list,
        "truth_frequencies": list,
    },
    "ansatz": {"family": str, "n_layers": int, "hidden_width": int},
    "train": {
        "batch": int, "steps": int, "lr_start": float, "lr_end": float,
        "beta1": float, "beta2": float, "eps": float, "seed": int,
        "init_spread": str,          # dd: "matched" (default, greedy comb start),
                                     # "stratified" or "uniform"
    },
    "regularizer": {"kind": str, "sigma": float, "trainable": bool},
    "selection": {
        "aperp_threshold_mhz": float, "az_max_mhz": float,
        "mahalanobis_t": float, "draws": int, "cluster_seed": int,
    },
    "bench": {"n_list": list, "seeds": list, "n_particles": int,
              "batch": int, "steps": int, "lr_start": float, "lr_end": float,
              "trials": int},
    "plot": {"draws": int},
}

_REQUIRED = {"model.kind"}
_REQUIRED_DD = {"model.B_gauss"}


def _validate(config: dict, schema=None, path="") -> None:
    schema = _SCHEMA if schema is None else schema
    if not isinstance(config, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key, value in config.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown key: {here}")
        expected = schema[key]
        if isinstance(expected, dict):
            _validate(value, expected, here)
        elif expected is float:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(f"{here} must be a number")
        elif not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
            raise ConfigError(f"{here} must be {expected.__name__}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    _validate(config)
    for field in _REQUIRED:
        section, key = field.split(".")
        if key not in config.get(section, {}):
            raise ConfigError(f"missing field: {field}")
    kind = config["model"]["kind"]
    if kind not in (MODEL_DD, MODEL_TOY):
        raise ConfigError(f"model.kind must be 'dd' or 'toy', got {kind!r}")
    if kind == MODEL_DD:
        for field in _REQUIRED_DD:
            section, key = field.split(".")
            if key not in config.get(section, {}):
                raise ConfigError(f"missing field: {field}")
    return config


def _ground_truth(model_cfg: dict, seed_override=None) -> np.ndarray:
    if model_cfg["kind"] == MODEL_TOY:
        if "truth_frequencies" in model_cfg:
            return np.asarray(model_cfg["truth_frequencies"], dtype=float)
        n = model_cfg.get("n_frequencies", 2)
        seed = seed_override if seed_override is not None else model_cfg.get("truth_seed", 0)
        return RngStream(seed).uniform(0.0, 1.0, n)
    if "truth_spins" in model_cfg:
        return np.asarray(model_cfg["truth_spins"], dtype=float).reshape(-1)
    seed = seed_override if seed_override is not None else model_cfg.get("truth_seed", 0)
    return strongly_coupled_bath(
        model_cfg.get("truth_count", 6),
        RngStream(seed),
        az_range=tuple(model_cfg.get("az_range", (-0.3, 0.3))),
        aperp_range=tuple(model_cfg.get("aperp_range", (0.1, 0.5))),
        min_delta_az=model_cfg.get("min_delta_az", 0.03),
    )


def scenario(config: dict, seed: int) -> ScenarioConfig:
    """The simulation scenario of a config's model section."""
    mc = config["model"]
    theta = _ground_truth(mc)
    common = dict(m_points=mc.get("m_points", 512), repetitions=mc.get("repetitions", 1024),
                  seed=seed)
    if mc["kind"] == MODEL_DD:
        return ScenarioConfig(kind=MODEL_DD, theta_true=theta,
                              n_pi=mc.get("n_pi", 32), b_gauss=mc["B_gauss"],
                              t2_inv=mc.get("T2_inv", 1e-4), eta0=mc.get("eta0", 1e-2),
                              eta_stretch=mc.get("eta_stretch", 1.0),
                              tau_min_us=mc.get("tau_min_us", 6.0),
                              tau_max_us=mc.get("tau_max_us", 8.5), **common)
    return ScenarioConfig(kind=MODEL_TOY, theta_true=theta,
                          log_tau_range=tuple(mc.get("log_tau_range", (-1.0, 4.0))), **common)


def build_model(config: dict):
    """The likelihood model (DDModel or ToyModel) a config fits."""
    mc = config["model"]
    if mc["kind"] == MODEL_DD:
        return DDModel(k_spins=mc.get("ansatz_spins", mc.get("truth_count", 6)),
                       omega_l=omega_larmor(mc["B_gauss"]),
                       eta_stretch=mc.get("eta_stretch", 1.0))
    return ToyModel(n=mc.get("n_frequencies", 2))


def _train_config(config: dict, seed: int, kind: str) -> trainer.TrainConfig:
    tc = config.get("train", {})
    rc = config.get("regularizer", {})
    if kind == MODEL_DD:
        reg = trainer.RegularizerSpec(kind=rc.get("kind", "l2"), sigma=rc.get("sigma", 1e-3),
                                      trainable=rc.get("trainable", True))
        prior = trainer.PriorSpec()
        lr0, lr1 = tc.get("lr_start", 1e-3), tc.get("lr_end", 1e-4)
    else:
        reg = trainer.RegularizerSpec(kind=rc.get("kind", "none"), sigma=rc.get("sigma", 1.0),
                                      trainable=rc.get("trainable", False))
        n = config["model"].get("n_frequencies", 2)
        prior = trainer.PriorSpec(kind="box", low=np.zeros(n), high=np.ones(n))
        lr0, lr1 = tc.get("lr_start", 1e-2), tc.get("lr_end", 1e-3)
    return trainer.TrainConfig(
        batch=tc.get("batch", 64), steps=tc.get("steps", 2048),
        lr_start=lr0, lr_end=lr1,
        beta1=tc.get("beta1", 0.9), beta2=tc.get("beta2", 0.999), eps=tc.get("eps", 1e-8),
        seed=tc.get("seed", seed), prior=prior, regularizer=reg,
        phi0=NuisanceParams(t2_inv=config["model"].get("T2_inv", 1e-4),
                            chi=1.0 / config["model"].get("repetitions", 1024),
                            eta=config["model"].get("eta0", 1e-2)),
    )


def _ansatz_spec(config: dict, d: int) -> flows.AnsatzSpec:
    ac = config.get("ansatz", {})
    return flows.AnsatzSpec(d=d, family=ac.get("family", "mean-field"),
                            n_layers=ac.get("n_layers", 5),
                            hidden_width=ac.get("hidden_width", 32))


def matched_filter_az_scores(records, omega_l, az_lo=-0.32, az_hi=0.32, n_grid=600):
    """Score candidate parallel couplings by the signal at their resonances.

    A weakly coupled spin at A_z produces dips at tau_m = (2m-1) pi /
    (2 omega_L + A_z); the score of a candidate A_z is the mean outcome y (dip
    amplitude) interpolated at every predicted resonance inside the measured
    window.  A strongly coupled spin scores at its comb position
    |(omega_L + A_z, A_perp)| - omega_L instead.
    """
    taus = np.array([r.tau_us for r in records])
    ys = np.array([r.y for r in records])
    order = np.argsort(taus)
    taus, ys = taus[order], ys[order]
    az_grid = np.linspace(az_lo, az_hi, n_grid)
    m_all = np.arange(1, 200)
    scores = np.zeros(n_grid)
    for i, az in enumerate(az_grid):
        tau_m = simulator.resonance_delays(m_all, az, omega_l)
        tau_m = tau_m[(tau_m >= taus[0]) & (tau_m <= taus[-1])]
        if tau_m.size:
            scores[i] = float(np.mean(np.interp(tau_m, taus, ys)))
    return az_grid, scores


def greedy_comb_init(records, omega_l, k_max, n_pi, t2_nominal=1e-4,
                     rel_floor=0.02, eta0_nominal=1e-2):
    """Forward-select spins that actually improve the fit of the signal.

    Candidates are the strongest resonance-comb scores; each round adds the
    (A_z, A_perp) pair with the largest squared-error reduction, A_z chosen
    so that the pair's dips sit at the candidate's comb position, locally grid
    refined.  Selection stops when no candidate improves the fit by
    ``rel_floor`` or the residual has reached the shot-noise floor, so noise
    wiggles never spawn spins.  Harmonic ghosts never survive: once the parent
    spin is in the active set, the ghost's dips are already explained.
    """
    taus = np.array([r.tau_us for r in records])
    ys = np.array([r.y for r in records])
    reps = np.array([r.repetitions for r in records], dtype=float)
    phi = NuisanceParams(t2_inv=t2_nominal)
    noise_sse = float(np.sum(np.clip(ys * (1 - ys), 0.0, 0.25) / reps
                             + eta0_nominal ** 2))
    az_grid, scores = matched_filter_az_scores(records, omega_l)
    candidates = []
    for i in np.argsort(scores)[::-1]:
        if scores[i] <= 0.05 or len(candidates) >= 2 * k_max:
            break
        if all(abs(az_grid[i] - az_grid[j]) > 0.012 for j in candidates):
            candidates.append(i)
    available = [float(az_grid[i]) for i in candidates]
    ap_grid = np.arange(0.10, 0.50, 0.04)

    def sse(spins):
        model = DDModel(k_spins=len(spins), omega_l=omega_l)
        flat = np.array(spins, dtype=float).ravel()
        p1 = 1.0 - np.atleast_1d(model.outcome_prob_zero(taus, n_pi, flat, phi))
        return float(np.sum((ys - p1) ** 2))

    def comb_az(spin):
        """Where the comb scores place a spin: dips sit at tau_m = (2m-1) pi /
        (omega_L + |(omega_L + A_z, A_perp)|), so a strong A_perp moves them as
        if A_z were larger by about A_perp^2 / (2 omega_L)."""
        return math.hypot(omega_l + spin[0], spin[1]) - omega_l

    def az_at(comb, ap):
        """A_z of the spin with this comb position and A_perp (comb_az inverted)."""
        return math.sqrt(max((omega_l + comb) ** 2 - ap * ap, 0.0)) - omega_l

    def polish(spins, j, reach=3e-3):
        """Coordinate refinement of spin j against the others held fixed.

        The coordinates are the comb position, which the dips pin down, and
        A_perp at fixed comb position.  Two comb passes (coarse then fine) so
        a spin first fitted against a contaminated residual can still
        relocate by a few tens of kHz.
        """
        others = spins[:j] + spins[j + 1:]
        comb_b, ap_b = comb_az(spins[j]), spins[j][1]
        for span in (8 * reach, reach):
            fine_comb = comb_b + np.linspace(-span, span, 17)
            comb_b = float(fine_comb[int(np.argmin([sse(others + [(az_at(c, ap_b), ap_b)])
                                                    for c in fine_comb]))])
            fine_ap = np.clip(ap_b + np.linspace(-0.04, 0.04, 9), 0.02, 0.55)
            ap_b = float(fine_ap[int(np.argmin([sse(others + [(az_at(comb_b, a), a)])
                                                for a in fine_ap]))])
        return az_at(comb_b, ap_b), ap_b

    active = []
    base = sse(active)
    for _ in range(k_max):
        if base <= 1.5 * noise_sse:
            break
        best = None
        for comb in available:
            for ap in ap_grid:
                spin = (az_at(comb, float(ap)), float(ap))
                val = sse(active + [spin])
                if best is None or val < best[0]:
                    best = (val, spin)
        if best is None or (base - best[0]) < rel_floor * base:
            break
        active.append(best[1])
        active[-1] = polish(active, len(active) - 1)
        base = sse(active)
        available = [a for a in available if abs(a - comb_az(active[-1])) > 0.012]

    def eliminate(spins, ap_shield=0.11):
        """Drop weak-coupling spins whose removal barely hurts the fit.

        Spins above ``ap_shield`` are never dropped: detectable couplings sit
        well above the blind zone, while comb shadows fit far below it.
        """
        kept = list(spins)
        for spin in sorted(spins, key=lambda s: s[1]):
            if len(kept) <= 1 or spin[1] >= ap_shield:
                continue
            without = [s for s in kept if s is not spin]
            if sse(without) <= max(1.15 * sse(kept), 1.5 * noise_sse):
                kept = without
        return kept

    # shadows corrupt backfitting, so prune before re-polishing each spin
    # against the final configuration, then prune again
    active = eliminate(active)
    for _ in range(2):
        for j in range(len(active)):
            active[j] = polish(active, j)
    active = eliminate(active)
    for j in range(len(active)):
        active[j] = polish(active, j)
    return active


def _dd_init_params(spec: flows.AnsatzSpec, k_spins: int, seed: int, spread: str,
                    records=None, omega_l: float = None,
                    n_pi: int = 32) -> flows.FlowParameters:
    """Initial ansatz for a spin-identification fit.

    ``matched`` (default) warm-starts at the greedy comb fit of the data,
    leaving surplus spins deep inside the blind zone so the thresholding step
    prunes them unless the data pulls them up.  ``stratified`` spreads
    locations evenly; ``uniform`` draws them blindly.
    """
    rng = RngStream(seed)
    k = k_spins
    mu = np.empty(2 * k)
    scale = np.empty(2 * k)
    if spread == "matched" and records is not None:
        spins = greedy_comb_init(records, omega_l, k, n_pi)
        for j in range(k):
            if j < len(spins):
                # start sharp: a wide initial spread smears the predicted dips
                # and the smeared objective favors splitting dips across spins
                mu[2 * j], mu[2 * j + 1] = spins[j]
                scale[2 * j], scale[2 * j + 1] = 0.004, 0.012
            else:
                # surplus spins sit at zero coupling: their gradients scale
                # with A_perp, so they stay inert in the blind zone unless the
                # data genuinely needs them
                mu[2 * j] = rng.uniform(-0.3, 0.3)
                mu[2 * j + 1] = 1e-4
                scale[2 * j], scale[2 * j + 1] = 0.01, 0.003
    else:
        if spread == "uniform":
            mu[0::2] = rng.uniform(-0.27, 0.27, k)
        else:
            mu[0::2] = np.linspace(-0.27, 0.27, k) + rng.uniform(-0.015, 0.015, k)
        mu[1::2] = rng.uniform(0.08, 0.15, k)
        scale[0::2] = 0.04
        scale[1::2] = 0.05
    return flows.init_flow_parameters(spec, mu, scale,
                                      rng if spec.effective_layers else None)


def fit_dataset(config: dict, records, seed: int):
    """Train the posterior a config describes on ``records``.

    Returns (FlowParameters, NuisanceParams, TrainTrace), as ``trainer.train``.
    """
    kind = config["model"]["kind"]
    model = build_model(config)
    tcfg = _train_config(config, seed, kind)
    d = model.dim if kind == MODEL_DD else model.n
    spec = _ansatz_spec(config, d)
    if kind == MODEL_DD:
        spread = config.get("train", {}).get("init_spread", "matched")
        init = _dd_init_params(spec, model.k_spins, tcfg.seed, spread,
                               records=records, omega_l=model.omega_l,
                               n_pi=config["model"].get("n_pi", 32))
        return trainer.train_from(tcfg, records, model, init)
    return trainer.train(tcfg, records, model, spec)


def bench_pf_rows(config: dict, n_list, seeds):
    """(n, method, seed, error) rows for methods PF, VBI, and baseline."""
    bc = config.get("bench", {})
    mc = dict(config["model"])
    rows = []
    for n in n_list:
        base_rng = RngStream(90000 + n)
        baseline = smc.prior_mode_baseline_error(n, bc.get("trials", 10000), base_rng)
        for seed in seeds:
            truth = RngStream(50000 + 1000 * n + seed).uniform(0.0, 1.0, n)
            scenario = ScenarioConfig(
                kind=MODEL_TOY, theta_true=truth, m_points=mc.get("m_points", 512),
                repetitions=mc.get("repetitions", 1024), seed=seed,
                log_tau_range=tuple(mc.get("log_tau_range", (-1.0, 4.0))))
            records = simulator.simulate_dataset(scenario)
            model = ToyModel(n=n)

            ens = smc.pf_init(np.zeros(n), np.ones(n), bc.get("n_particles", 16384),
                              RngStream(seed + 7))
            ens = smc.pf_run(ens, records, model)
            rows.append((n, "PF", seed, smc.sorted_square_error(smc.pf_estimate(ens), truth)))

            run_cfg = {"model": {"kind": MODEL_TOY, "n_frequencies": n},
                       "train": {"batch": bc.get("batch", 64),
                                 "steps": bc.get("steps", 2000),
                                 "lr_start": bc.get("lr_start", 1e-2),
                                 "lr_end": bc.get("lr_end", 1e-3),
                                 "seed": seed},
                       "ansatz": {"family": "mean-field"}}
            params, _, _ = fit_dataset(run_cfg, records, seed)
            prior = trainer.PriorSpec(kind="box", low=np.zeros(n), high=np.ones(n))
            draws, _, _ = flows.sample_batch(params, 2048, RngStream(seed + 13))
            estimate = prior.transform(draws).mean(axis=0)
            rows.append((n, "VBI", seed, smc.sorted_square_error(estimate, truth)))

            rows.append((n, "baseline", seed, baseline))
    return rows
