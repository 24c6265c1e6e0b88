"""The paper's pipeline as library calls: the run-config format and the
fit-side algorithms behind ``vbi fit`` and ``vbi bench-pf``.

A run config is JSON with a strict schema (:func:`load_config`) picked by its
``model.kind``: unknown keys, and keys only the other kind reads, are rejected
with the offending path, so neither a typo nor a key without effect passes
silently.  A key a config leaves out takes the default of the library object
it sets (``ScenarioConfig``, ``TrainConfig``, ...).  :func:`fit_dataset` is
the config-driven fit: it builds the model, the training settings and the
initial ansatz from a config and trains the posterior on a dataset.  Spin-identification fits start at the greedy comb
fit of the data (:func:`greedy_comb_init`).
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import flows, likelihoods, selection, simulator, smc, trainer
from .likelihoods import DDModel, NuisanceParams, ToyModel
from .probcore import RngStream
from .simulator import (MODEL_DD, MODEL_TOY, ScenarioConfig, omega_larmor,
                        strongly_coupled_bath)

# Defaults of the model keys that neither ScenarioConfig nor strongly_coupled_bath
# owns; each scenario or bath key defaults to that field or parameter.
DEFAULT_N_FREQUENCIES = 2        # model.n_frequencies
DEFAULT_TRUTH_COUNT = 6          # model.truth_count, and model.ansatz_spins unless set

# Model keys that set the simulated scenario; the ScenarioConfig field of each
# is the key in lower case.
_SCENARIO_KEYS = ("m_points", "repetitions", "n_pi", "B_gauss", "T2_inv", "eta0",
                  "eta_stretch", "tau_min_us", "tau_max_us", "log_tau_range")
_BATH_KEYS = ("az_range", "aperp_range", "min_delta_az")

# Greedy comb init (greedy_comb_init and matched_filter_az_scores)
GREEDY_T2_INV = 1e-4             # nominal decoherence rate of the candidate signals
GREEDY_ETA0 = 1e-2               # nominal readout noise in the shot-noise floor
GREEDY_REL_FLOOR = 0.02          # least relative error cut that admits another spin
AZ_SCAN = (-0.32, 0.32)          # A_z window of the matched-filter scan
AZ_SCAN_POINTS = 600
POLISH_REACH = 3e-3              # fine comb-position step of a spin's refinement
AP_SHIELD = 0.11                 # spins with A_perp above this are never eliminated


class ConfigError(Exception):
    """A run config, or an input that does not match it, is invalid."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_is_number, value))


# list-valued keys: (what the list must be, the check of the list)
_RANGE = ("two numbers", _is_pair)
_NUMBERS = ("a list of numbers", lambda v: all(map(_is_number, v)))
_INTS = ("a list of integers", lambda v: all(map(_is_int, v)))
_PAIRS = ("a list of [A_z, A_perp] number pairs", lambda v: all(map(_is_pair, v)))

_SHARED = {
    "model": {"kind": str, "m_points": int, "repetitions": int, "truth_seed": int},
    "ansatz": {"family": str, "n_layers": int, "hidden_width": int},
    "train": {
        "batch": int, "steps": int, "lr_start": float, "lr_end": float,
        "beta1": float, "beta2": float, "eps": float, "seed": int,
    },
    "regularizer": {"kind": str, "sigma": float, "trainable": bool},
    "plot": {"draws": int},
}
# the keys and sections only one model kind reads
_OWN = {
    MODEL_DD: {
        "model": {
            "ansatz_spins": int, "B_gauss": float, "n_pi": int, "T2_inv": float,
            "eta0": float, "eta_stretch": float, "tau_min_us": float, "tau_max_us": float,
            "truth_spins": _PAIRS,       # explicit ground truth
            "truth_count": int,          # or a generated strongly-coupled bath
            "az_range": _RANGE, "aperp_range": _RANGE, "min_delta_az": float,
        },
        "selection": {
            "aperp_threshold_mhz": float, "az_max_mhz": float,
            "mahalanobis_t": float, "draws": int, "cluster_seed": int,
        },
    },
    MODEL_TOY: {
        "model": {"n_frequencies": int, "log_tau_range": _RANGE, "truth_frequencies": _NUMBERS},
        "bench": {"n_list": _INTS, "seeds": _INTS, "n_particles": int,
                  "batch": int, "steps": int, "lr_start": float, "lr_end": float,
                  "trials": int},
    },
}
# the schema of each model kind: the shared sections and keys plus its own
_SCHEMAS = {kind: {section: {**_SHARED.get(section, {}), **own.get(section, {})}
                   for section in {**_SHARED, **own}}
            for kind, own in _OWN.items()}
# an explicit ground truth leaves the keys of the generated one without effect
_EXPLICIT_TRUTH = {"truth_spins": ("truth_seed", *_BATH_KEYS),
                   "truth_frequencies": ("truth_seed",)}


def _validate(config: dict, schema: dict, other: dict, kind: str, path="") -> None:
    """Check ``config`` against the schema of its model kind; ``other`` is the
    schema of the other kind, whose keys the error names as such."""
    if not isinstance(config, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key, value in config.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            if key not in other:
                raise ConfigError(f"unknown key: {here}")
            if isinstance(other[key], dict) and isinstance(value, dict) and value:
                _validate(value, {}, other[key], kind, here)   # names the key inside
            raise ConfigError(f"{here} does not apply to model kind {kind!r}")
        expected = schema[key]
        if isinstance(expected, dict):
            _validate(value, expected, other.get(key, {}), kind, here)
        elif isinstance(expected, tuple):
            what, check = expected
            if not (isinstance(value, list) and check(value)):
                raise ConfigError(f"{here} must be {what}")
        elif expected is float:
            if not _is_number(value):
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
    # model.kind picks the schema of the rest, so it is read and checked first
    model = config.get("model") if isinstance(config, dict) else None
    if not isinstance(model, dict) or "kind" not in model:
        raise ConfigError("missing field: model.kind")
    kind = model["kind"]
    if kind not in (MODEL_DD, MODEL_TOY):
        raise ConfigError(f"model.kind must be 'dd' or 'toy', got {kind!r}")
    other = MODEL_TOY if kind == MODEL_DD else MODEL_DD
    _validate(config, _SCHEMAS[kind], _SCHEMAS[other], kind)
    if kind == MODEL_DD and "B_gauss" not in model:
        raise ConfigError("missing field: model.B_gauss")
    for explicit, generated in _EXPLICIT_TRUTH.items():
        for key in generated:
            if explicit in model and key in model:
                raise ConfigError(f"model.{key} has no effect beside model.{explicit}")
    if model_setting(config, "repetitions") < 1:
        raise ConfigError("model.repetitions must be >= 1")
    return config


def _set_keys(section: dict, keys) -> dict:
    """The given keys a config section sets, lower-cased, list values as tuples."""
    return {key.lower(): tuple(section[key]) if isinstance(section[key], list) else section[key]
            for key in keys if key in section}


def model_setting(config: dict, key: str):
    """A scenario key of the model section, or its ScenarioConfig default."""
    return config["model"].get(key, getattr(ScenarioConfig, key.lower()))


def _ground_truth(model_cfg: dict) -> np.ndarray:
    seed = model_cfg.get("truth_seed", 0)
    if model_cfg["kind"] == MODEL_TOY:
        if "truth_frequencies" in model_cfg:
            return np.asarray(model_cfg["truth_frequencies"], dtype=float)
        n = model_cfg.get("n_frequencies", DEFAULT_N_FREQUENCIES)
        return RngStream(seed).uniform(0.0, 1.0, n)
    if "truth_spins" in model_cfg:
        return np.asarray(model_cfg["truth_spins"], dtype=float).reshape(-1)
    return strongly_coupled_bath(model_cfg.get("truth_count", DEFAULT_TRUTH_COUNT),
                                 RngStream(seed), **_set_keys(model_cfg, _BATH_KEYS))


def scenario(config: dict, seed: int) -> ScenarioConfig:
    """The simulation scenario of a config's model section.

    Keys the config does not set keep their ScenarioConfig defaults.
    """
    mc = config["model"]
    return ScenarioConfig(kind=mc["kind"], theta_true=_ground_truth(mc), seed=seed,
                          **_set_keys(mc, _SCENARIO_KEYS))


def build_model(config: dict):
    """The likelihood model (DDModel or ToyModel) a config fits."""
    mc = config["model"]
    if mc["kind"] == MODEL_DD:
        return DDModel(k_spins=mc.get("ansatz_spins", mc.get("truth_count", DEFAULT_TRUTH_COUNT)),
                       omega_l=omega_larmor(mc["B_gauss"]),
                       eta_stretch=model_setting(config, "eta_stretch"))
    return ToyModel(n=mc.get("n_frequencies", DEFAULT_N_FREQUENCIES))


def build_prior(config: dict) -> trainer.PriorSpec:
    """The prior a config fits under: the box [0, 1]^n for the toy model, else improper."""
    mc = config["model"]
    if mc["kind"] == MODEL_DD:
        return trainer.PriorSpec()
    n = mc.get("n_frequencies", DEFAULT_N_FREQUENCIES)
    return trainer.PriorSpec(kind="box", low=np.zeros(n), high=np.ones(n))


def selection_settings(config: dict) -> dict:
    """The selection section with every key it leaves unset at its default."""
    return {"aperp_threshold_mhz": selection.DEFAULT_APERP_THRESHOLD,
            "az_max_mhz": selection.DEFAULT_AZ_MAX,
            "mahalanobis_t": selection.DEFAULT_MAHALANOBIS_T,
            "draws": selection.DEFAULT_DRAWS, "cluster_seed": 0,
            **config.get("selection", {})}


def _train_config(config: dict, seed: int, kind: str) -> trainer.TrainConfig:
    """TrainConfig and RegularizerSpec defaults are the config defaults, except
    that a spin-identification fit defaults to a trainable l2 prior factor and a
    toy fit to a larger learning rate."""
    tc, rc = config.get("train", {}), config.get("regularizer", {})
    if kind == MODEL_DD:
        rc = {"kind": "l2", "sigma": 1e-3, "trainable": True, **rc}
    else:
        tc = {"lr_start": 1e-2, "lr_end": 1e-3, **tc}
    return trainer.TrainConfig(
        **{"seed": seed, **tc}, prior=build_prior(config),
        regularizer=trainer.RegularizerSpec(**rc),
        phi0=NuisanceParams(t2_inv=model_setting(config, "T2_inv"),
                            chi=1.0 / model_setting(config, "repetitions"),
                            eta=model_setting(config, "eta0")),
    )


def matched_filter_az_scores(records, omega_l):
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
    az_grid = np.linspace(*AZ_SCAN, AZ_SCAN_POINTS)
    m_all = np.arange(1, 200)
    scores = np.zeros(AZ_SCAN_POINTS)
    for i, az in enumerate(az_grid):
        tau_m = simulator.resonance_delays(m_all, az, omega_l)
        tau_m = tau_m[(tau_m >= taus[0]) & (tau_m <= taus[-1])]
        if tau_m.size:
            scores[i] = float(np.mean(np.interp(tau_m, taus, ys)))
    return az_grid, scores


def greedy_comb_init(records, omega_l, k_max, n_pi):
    """Forward-select spins that actually improve the fit of the signal.

    Candidates are the strongest resonance-comb scores; each round adds the
    (A_z, A_perp) pair with the largest squared-error reduction, A_z chosen
    so that the pair's dips sit at the candidate's comb position, locally grid
    refined.  Selection stops when no candidate improves the fit by
    ``GREEDY_REL_FLOOR`` or the residual has reached the shot-noise floor, so noise
    wiggles never spawn spins.  Harmonic ghosts never survive: once the parent
    spin is in the active set, the ghost's dips are already explained.
    """
    taus = np.array([r.tau_us for r in records])
    ys = np.array([r.y for r in records])
    reps = np.array([r.repetitions for r in records], dtype=float)
    phi = NuisanceParams(t2_inv=GREEDY_T2_INV)
    noise_sse = float(np.sum(np.clip(ys * (1 - ys), 0.0, 0.25) / reps + GREEDY_ETA0 ** 2))
    az_grid, scores = matched_filter_az_scores(records, omega_l)
    candidates = []
    for i in np.argsort(scores)[::-1]:
        if scores[i] <= 0.05 or len(candidates) >= 2 * k_max:
            break
        if all(abs(az_grid[i] - az_grid[j]) > 0.012 for j in candidates):
            candidates.append(i)
    available = [float(az_grid[i]) for i in candidates]
    ap_grid = np.arange(0.10, 0.50, 0.04)

    def sse(spin_sets):
        """Squared error of the signal under each of equal-size spin sets, in one call."""
        stack = np.array(spin_sets, dtype=float).reshape(len(spin_sets), -1)
        p1 = 1.0 - likelihoods.dd_outcome_prob(taus, n_pi, stack, phi, omega_l)
        return np.sum((ys - p1) ** 2, axis=1)

    def comb_az(spin):
        """Where the comb scores place a spin: dips sit at tau_m = (2m-1) pi /
        (omega_L + |(omega_L + A_z, A_perp)|), so a strong A_perp moves them as
        if A_z were larger by about A_perp^2 / (2 omega_L)."""
        return math.hypot(omega_l + spin[0], spin[1]) - omega_l

    def az_at(comb, ap):
        """A_z of the spin with this comb position and A_perp (comb_az inverted)."""
        return math.sqrt(max((omega_l + comb) ** 2 - ap * ap, 0.0)) - omega_l

    def polish(spins, j):
        """Coordinate refinement of spin j against the others held fixed.

        The coordinates are the comb position, which the dips pin down, and
        A_perp at fixed comb position.  Two comb passes (coarse then fine) so
        a spin first fitted against a contaminated residual can still
        relocate by a few tens of kHz.
        """
        others = spins[:j] + spins[j + 1:]
        comb_b, ap_b = comb_az(spins[j]), spins[j][1]
        for span in (8 * POLISH_REACH, POLISH_REACH):
            fine_comb = comb_b + np.linspace(-span, span, 17)
            comb_b = float(fine_comb[np.argmin(sse([others + [(az_at(c, ap_b), ap_b)]
                                                    for c in fine_comb]))])
            fine_ap = np.clip(ap_b + np.linspace(-0.04, 0.04, 9), 0.02, 0.55)
            ap_b = float(fine_ap[np.argmin(sse([others + [(az_at(comb_b, a), a)]
                                                for a in fine_ap]))])
        return az_at(comb_b, ap_b), ap_b

    active = []
    base = sse([active])[0]
    for _ in range(k_max):
        if base <= 1.5 * noise_sse or not available:
            break
        trial = [(az_at(comb, float(ap)), float(ap)) for comb in available for ap in ap_grid]
        errors = sse([active + [spin] for spin in trial])
        best = int(np.argmin(errors))          # the first minimum, as in scan order
        if (base - errors[best]) < GREEDY_REL_FLOOR * base:
            break
        active.append(polish(active + [trial[best]], len(active)))
        base = sse([active])[0]
        available = [a for a in available if abs(a - comb_az(active[-1])) > 0.012]

    def eliminate(spins):
        """Drop weak-coupling spins whose removal barely hurts the fit.

        Spins above ``AP_SHIELD`` are never dropped: detectable couplings sit
        well above the blind zone, while comb shadows fit far below it.
        """
        kept = list(spins)
        for spin in sorted(spins, key=lambda s: s[1]):
            if len(kept) <= 1 or spin[1] >= AP_SHIELD:
                continue
            without = [s for s in kept if s is not spin]
            if sse([without])[0] <= max(1.15 * sse([kept])[0], 1.5 * noise_sse):
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


def _dd_init_params(spec: flows.AnsatzSpec, k_spins: int, seed: int, records,
                    omega_l: float, n_pi: int) -> flows.FlowParameters:
    """Initial ansatz for a spin-identification fit.

    Warm-starts at the greedy comb fit of the data, leaving surplus spins
    deep inside the blind zone so the thresholding step prunes them unless
    the data pulls them up.
    """
    rng = RngStream(seed)
    k = k_spins
    mu = np.empty(2 * k)
    scale = np.empty(2 * k)
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
    return flows.init_flow_parameters(spec, mu, scale,
                                      rng if spec.effective_layers else None)


def fit_dataset(config: dict, records, seed: int):
    """Train the posterior a config describes on ``records``.

    Returns (FlowParameters, NuisanceParams, TrainTrace), as ``trainer.train``.
    """
    kind = config["model"]["kind"]
    model = build_model(config)
    tcfg = _train_config(config, seed, kind)
    spec = flows.AnsatzSpec(d=model.dim, **config.get("ansatz", {}))
    if kind == MODEL_DD:
        init = _dd_init_params(spec, model.k_spins, tcfg.seed, records, model.omega_l,
                               model_setting(config, "n_pi"))
        return trainer.train_from(tcfg, records, model, init)
    return trainer.train(tcfg, records, model, spec)


# keys of a toy config that bench_pf_rows never reads: it draws each truth and
# builds each fit's settings itself
_BENCH_PF_UNREAD = ("model.truth_seed", "model.n_frequencies", "model.truth_frequencies",
                    "ansatz", "train", "regularizer", "plot")


def bench_pf_rows(config: dict, n_list, seeds):
    """(n, method, seed, error) rows for methods PF, VBI, and baseline.

    Only ``model.m_points``, ``repetitions``, ``log_tau_range`` and the
    ``bench`` section are read; a config that sets a key of
    ``_BENCH_PF_UNREAD`` is a :class:`ConfigError`.
    """
    for path in _BENCH_PF_UNREAD:
        section, _, key = path.partition(".")
        if section in config and (not key or key in config[section]):
            raise ConfigError(f"{path} has no effect on bench-pf, which draws its own "
                              "truths and fit settings")
    bc = config.get("bench", {})
    train = {"steps": 2000,
             **{key: bc[key] for key in ("batch", "steps", "lr_start", "lr_end") if key in bc}}
    rows = []
    for n in n_list:
        base_rng = RngStream(90000 + n)
        baseline = smc.prior_mode_baseline_error(n, bc.get("trials", 10000), base_rng)
        for seed in seeds:
            truth = RngStream(50000 + 1000 * n + seed).uniform(0.0, 1.0, n)
            truth_cfg = {"model": {**config["model"], "truth_frequencies": truth.tolist()}}
            records = simulator.simulate_dataset(scenario(truth_cfg, seed))
            model = ToyModel(n=n)

            ens = smc.pf_init(np.zeros(n), np.ones(n), bc.get("n_particles", 16384),
                              RngStream(seed + 7))
            ens = smc.pf_run(ens, records, model)
            rows.append((n, "PF", seed, smc.sorted_square_error(smc.pf_estimate(ens), truth)))

            run_cfg = {"model": {"kind": MODEL_TOY, "n_frequencies": n},
                       "train": {**train, "seed": seed},
                       "ansatz": {"family": "mean-field"}}
            params, _, _ = fit_dataset(run_cfg, records, seed)
            draws, _, _ = flows.sample_batch(params, 2048, RngStream(seed + 13))
            estimate = build_prior(run_cfg).transform(draws).mean(axis=0)
            rows.append((n, "VBI", seed, smc.sorted_square_error(estimate, truth)))

            rows.append((n, "baseline", seed, baseline))
    return rows
