"""The paper's pipeline as library calls: the run-config format and the
algorithms behind ``vbi fit``, ``vbi select`` and ``vbi bench-pf``.

A run config is JSON with a strict schema (:func:`load_config`) picked by its
``model.kind``: unknown keys, and keys only the other kind reads, are rejected
with the offending path, so neither a typo nor a key without effect passes
silently.  A key a config leaves out takes the default of the library object
it sets (``ScenarioConfig``, ``TrainConfig``, ...).  :func:`fit_dataset` is
the config-driven fit: it builds the model, the training settings and the
initial ansatz from a config and trains the posterior on a dataset.  A
spin-identification fit starts at the greedy comb fit of the data under the
fit's own model and nuisances (:func:`greedy_comb_init`).  :func:`select_spins`
is its counterpart: it turns a fitted posterior into a spin count and clusters.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import flows, selection, simulator, smc, trainer
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
GREEDY_REL_FLOOR = 0.02          # least relative error cut that admits or keeps a spin
AZ_SCAN = (-0.32, 0.32)          # A_z window of the matched-filter scan
AZ_SCAN_POINTS = 600
COMB_STEP = 3e-3                 # comb-position step of a placement's coarse pass
# A_perp values along a placed spin's ridge: its dips pin its comb position only
AP_RIDGE = np.linspace(0.02, 0.55, 54)


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
    "train": {"batch": int, "steps": int, "lr_start": float, "lr_end": float, "seed": int},
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
            "mahalanobis_t": float, "draws": int,
        },
    },
    MODEL_TOY: {
        "model": {"n_frequencies": int, "log_tau_range": _RANGE, "truth_frequencies": _NUMBERS},
        "bench": {"n_list": _INTS, "seeds": _INTS, "n_particles": int, "trials": int},
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
    if {"truth_count", "truth_spins", "ansatz_spins"} <= model.keys():
        raise ConfigError("model.truth_count has no effect beside model.truth_spins "
                          "and model.ansatz_spins")
    ansatz = config.get("ansatz", {})
    for key in ("n_layers", "hidden_width"):
        if key in ansatz and ansatz.get("family") != flows.STACKED:
            raise ConfigError(f"ansatz.{key} has no effect unless ansatz.family is "
                              f"{flows.STACKED!r}")
    for key, least in (("repetitions", 1), ("n_pi", 1), ("T2_inv", 0), ("eta0", 0)):
        if model_setting(config, key) < least:
            raise ConfigError(f"model.{key} must be >= {least}")
    if model_setting(config, "eta_stretch") <= 0:
        raise ConfigError("model.eta_stretch must be > 0")
    sc = selection_settings(config)
    if sc["draws"] < 1:
        raise ConfigError("selection.draws must be >= 1")
    if sc["mahalanobis_t"] <= 0:
        raise ConfigError("selection.mahalanobis_t must be > 0")
    if any(n < 1 for n in config.get("bench", {}).get("n_list", [])):
        raise ConfigError("bench.n_list entries must be >= 1")
    if config.get("plot", {}).get("draws", 0) < 0:
        raise ConfigError("plot.draws must be >= 0")
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
            "draws": selection.DEFAULT_DRAWS,
            **config.get("selection", {})}


def _train_config(config: dict, records, seed: int) -> trainer.TrainConfig:
    """TrainConfig and RegularizerSpec defaults are the config defaults, except
    that a spin-identification fit defaults to a trainable l2 prior factor and a
    toy fit to a larger learning rate.  chi starts at 1 / the mean repetitions
    of ``records``, the shot-noise scale the data carry."""
    tc, rc = config.get("train", {}), config.get("regularizer", {})
    if config["model"]["kind"] == MODEL_DD:
        rc = {"kind": "l2", "trainable": True, **rc}
    else:
        tc = {"lr_start": 1e-2, "lr_end": 1e-3, **tc}
    return trainer.TrainConfig(
        **{**tc, "seed": seed}, prior=build_prior(config),
        regularizer=trainer.RegularizerSpec(**rc),
        phi0=NuisanceParams(t2_inv=model_setting(config, "T2_inv"),
                            chi=1.0 / float(np.mean([r.repetitions for r in records])),
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


def greedy_comb_init(records, model: DDModel, phi: NuisanceParams, k_max):
    """Select spins forward, then exchange each against the others.

    Spin sets are scored by their squared error under ``model.outcome_prob``
    at the start's nuisances ``phi`` and each record's own N_pi; ``phi.eta``
    is the readout noise in the shot-noise floor.  One move, ``place``, fits a
    spin against others held fixed: the strongest resonance-comb scores
    against a coarse A_perp grid, then the comb position, coarse and fine,
    each pass followed by A_perp over the whole ridge ``AP_RIDGE``.  One rule
    admits and keeps a spin: the error without it is above 1.5x the shot-noise
    floor, so noise wiggles never spawn spins, and the spin cuts it by
    ``GREEDY_REL_FLOOR``.  Spins are added while the rule admits them.  Two
    exchange passes then place each again against the others, drop it when
    the rule no longer keeps it and move it when the new place fits better:
    so wrong ridge points and shadows an early residual admitted go.
    """
    taus = np.array([r.tau_us for r in records])
    n_pi = np.array([r.n_pi for r in records])
    ys = np.array([r.y for r in records])
    reps = np.array([r.repetitions for r in records], dtype=float)
    noise_sse = float(np.sum(np.clip(ys * (1 - ys), 0.0, 0.25) / reps + phi.eta ** 2))
    az_grid, scores = matched_filter_az_scores(records, model.omega_l)
    combs = []
    for i in np.argsort(scores)[::-1]:
        if scores[i] <= 0.05 or len(combs) >= 2 * k_max:
            break
        if all(abs(az_grid[i] - c) > 0.012 for c in combs):
            combs.append(float(az_grid[i]))

    def az_at(comb, ap):
        """A_z of the spin with this comb position and A_perp: its dips sit at
        tau_m = (2m-1) pi / (omega_L + |(omega_L + A_z, A_perp)|)."""
        return math.sqrt(max((model.omega_l + comb) ** 2 - ap * ap, 0.0)) - model.omega_l

    def place(others):
        """The best spin to add to ``others``, held fixed, and the squared
        error with and without it.  1 - 2 p_1 is the envelope times one term
        per spin, and a spin's term is its own 1 - 2 p_1 at T2^-1 = 0, so a
        candidate is scored at one spin, not K."""
        rest = 1.0 - 2.0 * model.outcome_prob(taus, n_pi, np.ravel(others), phi)

        def errors(pairs):
            """Squared error with each (comb position, A_perp) pair added."""
            spins = np.array([(az_at(c, a), a) for c, a in pairs])
            own = 1.0 - 2.0 * model.outcome_prob(taus, n_pi, spins, NuisanceParams())
            return np.sum((ys - 0.5 * (1.0 - rest * own)) ** 2, axis=1)

        trial = [(c, a) for c in combs for a in np.arange(0.10, 0.50, 0.04)]
        comb, ap = trial[int(np.argmin(errors(trial)))]   # the first minimum, in scan order
        for span in (8 * COMB_STEP, COMB_STEP):
            line = comb + np.linspace(-span, span, 17)
            comb = float(line[np.argmin(errors([(c, ap) for c in line]))])
            err = errors([(comb, a) for a in AP_RIDGE])
            ap = float(AP_RIDGE[np.argmin(err)])
        return (az_at(comb, ap), ap), err.min(), np.sum((ys - 0.5 * (1.0 - rest)) ** 2)

    def keeps(err, without):
        return without > 1.5 * noise_sse and without - err >= GREEDY_REL_FLOOR * without

    active = []
    while combs and len(active) < k_max:
        spin, err, base = place(active)
        if not keeps(err, base):
            break
        active.append(spin)
        base = err
    for _ in range(2):
        for spin in list(active):
            j = active.index(spin)
            others = active[:j] + active[j + 1:]
            moved, err, without = place(others)
            if not keeps(min(err, base), without):
                active, base = others, without
            elif err < base:
                active[j], base = moved, err
    return active


def _dd_init_params(spec: flows.AnsatzSpec, model: DDModel, phi: NuisanceParams, seed: int,
                    records) -> flows.FlowParameters:
    """Initial ansatz for a spin-identification fit of ``model`` from ``phi``.

    Warm-starts at the greedy comb fit of the data, leaving surplus spins
    deep inside the blind zone so the thresholding step prunes them unless
    the data pulls them up.
    """
    rng = RngStream(seed)
    k = model.k_spins
    mu = np.empty(2 * k)
    scale = np.empty(2 * k)
    spins = greedy_comb_init(records, model, phi, k)
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
    return flows.init_flow_parameters(spec, mu, scale, rng)


def fit_dataset(config: dict, records, seed: int):
    """Train the posterior a config describes on ``records``.

    Returns (FlowParameters, NuisanceParams, TrainTrace), as ``trainer.train``.
    """
    model = build_model(config)
    tcfg = _train_config(config, records, seed)
    spec = flows.AnsatzSpec(d=model.dim, **config.get("ansatz", {}))
    if config["model"]["kind"] == MODEL_DD:
        init = _dd_init_params(spec, model, tcfg.phi0, tcfg.seed, records)
        return trainer.train_from(tcfg, records, model, init)
    return trainer.train(tcfg, records, model, spec)


def select_spins(config: dict, params: flows.FlowParameters, seed: int, truth=None):
    """Pick the spin count and couplings a fitted posterior supports, as ``vbi select``.

    Draws ``selection.draws`` samples from ``RngStream(seed)``, thresholds
    them to a class each, and clusters the spins of the MAP class from the
    ansatz slots they came from.  Given the (K, 2) (A_z, A_perp) ``truth``, the
    clusters are scored against (A_z, |A_perp|) with ``selection.mahalanobis_t``
    in one :func:`selection.ml_metrics` match, which also gives the coupling
    errors.  Returns (PosteriorSampleSet, clusters, MetricsReport); the report
    is None without a truth.
    """
    sc = selection_settings(config)
    theta, _, _ = flows.sample_batch(params, sc["draws"], RngStream(seed))
    sample_set = selection.build_sample_set(theta, sc["aperp_threshold_mhz"], sc["az_max_mhz"])
    n = sample_set.map_class
    clusters = []
    if n > 0:
        clusters = selection.cluster_spins(sample_set.class_points(n), sample_set.class_slots(n), n)
    metrics = None if truth is None else selection.ml_metrics(
        clusters, np.column_stack([truth[:, 0], np.abs(truth[:, 1])]), sc["mahalanobis_t"])
    return sample_set, clusters, metrics


# keys of a toy config that bench_pf_rows cannot honour: it draws one truth per
# n and takes its seeds from bench.seeds
_BENCH_PF_UNREAD = ("model.truth_seed", "model.n_frequencies", "model.truth_frequencies",
                    "train.seed", "plot")


def bench_pf_rows(config: dict):
    """(n, method, seed, error) rows for methods PF, VBI, and baseline.

    For each n of ``bench.n_list`` (default 2, 4, 8, 12) and each seed of
    ``bench.seeds`` (default 0) the run config is ``config`` with n drawn
    frequencies as its truth: ``vbi simulate`` and ``vbi fit`` on it give the
    dataset and the VBI estimate, so the ``train``, ``ansatz`` and
    ``regularizer`` sections take effect as in any toy fit.  A config that
    sets a key of ``_BENCH_PF_UNREAD`` is a :class:`ConfigError`.
    """
    for path in _BENCH_PF_UNREAD:
        section, _, key = path.partition(".")
        if section in config and (not key or key in config[section]):
            raise ConfigError(f"{path} has no effect on bench-pf, which draws its own "
                              "truths and takes its seeds from bench.seeds")
    bc = config.get("bench", {})
    rows = []
    for n in bc.get("n_list", [2, 4, 8, 12]):
        baseline = smc.prior_mode_baseline_error(n, bc.get("trials", 10000),
                                                 RngStream(90000 + n))
        for seed in bc.get("seeds", [0]):
            truth = RngStream(50000 + 1000 * n + seed).uniform(0.0, 1.0, n)
            run_cfg = {**config, "model": {**config["model"], "n_frequencies": n,
                                           "truth_frequencies": truth.tolist()}}
            records = simulator.simulate_dataset(scenario(run_cfg, seed))
            prior = build_prior(run_cfg)

            ens = smc.pf_init(prior.low, prior.high, bc.get("n_particles", 16384),
                              RngStream(seed + 7))
            ens = smc.pf_run(ens, records, build_model(run_cfg))
            rows.append((n, "PF", seed, smc.sorted_square_error(smc.pf_estimate(ens), truth)))

            params, _, _ = fit_dataset(run_cfg, records, seed)
            draws, _, _ = flows.sample_batch(params, 2048, RngStream(seed + 13))
            estimate = prior.transform(draws).mean(axis=0)
            rows.append((n, "VBI", seed, smc.sorted_square_error(estimate, truth)))

            rows.append((n, "baseline", seed, baseline))
    return rows
