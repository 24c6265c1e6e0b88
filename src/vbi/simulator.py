"""Synthetic dataset generation, measurement-time accounting, and the
resolution-bound calculator.

Scenario conventions: tau grids are uniform in [tau_min, tau_max] for the
dynamical-decoupling model and log-uniform (exponent uniform in a decade
range) for the toy model; outcomes aggregate R Bernoulli draws per tau.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .likelihoods import DDModel, MeasurementRecord, NuisanceParams, ToyModel
from .probcore import RngStream

GAMMA_C13_KHZ_PER_G = 1.0705      # 13C gyromagnetic ratio
INIT_READOUT_US = 10.0            # per-sequence initialization + readout
PI_PULSE_US = 0.037               # single pi-pulse duration
PULSES_PER_UNIT = 2               # two pi pulses per (pi - tau - pi) unit

BATH_MAX_TRIES = 10000            # rejection-sampling draws before a bath gives up

MODEL_DD = "dd"
MODEL_TOY = "toy"


def omega_larmor(b_gauss: float) -> float:
    """Angular 13C Larmor frequency 2 pi gamma_n B in rad/us."""
    if b_gauss <= 0:
        raise ValueError("field must be positive")
    return 2.0 * math.pi * GAMMA_C13_KHZ_PER_G * b_gauss * 1e-3


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to generate one synthetic dataset deterministically.

    The field defaults are also the run config's model defaults.
    """

    kind: str                         # "dd" or "toy"
    theta_true: np.ndarray            # couplings (dd) or frequencies (toy)
    m_points: int = 512
    repetitions: int = 1024
    seed: int = 0
    # dd fields
    n_pi: int = 32
    b_gauss: float = 403.0
    t2_inv: float = 1e-4              # 1/us
    eta0: float = 1e-2                # extra readout noise std
    eta_stretch: float = 1.0
    tau_min_us: float = 6.0
    tau_max_us: float = 8.5
    # toy fields: log10(tau/us) uniform in [lo, hi]
    log_tau_range: tuple = (-1.0, 4.0)

    def __post_init__(self):
        if self.kind not in (MODEL_DD, MODEL_TOY):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.m_points < 1 or self.repetitions < 1:
            raise ValueError("m_points and repetitions must be >= 1")
        object.__setattr__(self, "theta_true", np.asarray(self.theta_true, dtype=float))

    @property
    def omega_l(self) -> float:
        return omega_larmor(self.b_gauss)


def simulate_dataset(cfg: ScenarioConfig) -> list[MeasurementRecord]:
    """Draw R Bernoulli outcomes per tau; deterministic for a given seed.

    dd: y = (1/R) sum b + delta with delta ~ N(0, eta0^2), b = 1 meaning the
    electron was read outside |0> (so the plotted |0> probability is 1 - y).
    toy: y is the binomial fraction of +1 outcomes, no extra noise.
    """
    rng = RngStream(cfg.seed)
    if cfg.kind == MODEL_DD:
        model = DDModel(k_spins=cfg.theta_true.size // 2, omega_l=cfg.omega_l,
                        eta_stretch=cfg.eta_stretch)
        taus = np.linspace(cfg.tau_min_us, cfg.tau_max_us, cfg.m_points)
        n_pi, eta0 = cfg.n_pi, cfg.eta0
    else:
        model = ToyModel(n=cfg.theta_true.size)
        lo, hi = cfg.log_tau_range
        taus = 10.0 ** rng.uniform(lo, hi, cfg.m_points)
        n_pi, eta0 = 1, 0.0
    return sample_records(model, rng, taus, n_pi, cfg.theta_true,
                          NuisanceParams(t2_inv=cfg.t2_inv), cfg.repetitions, eta0=eta0)


def sample_records(model, rng: RngStream, taus, n_pi: int, theta, phi: NuisanceParams,
                   repetitions: int, eta0: float = 0.0) -> list[MeasurementRecord]:
    """One record per tau: y is the fraction of R Bernoulli draws of the model's
    recorded outcome plus N(0, eta0^2) noise.  Every count is drawn before any
    noise; array ``binomial`` draws what one call per tau would."""
    taus = np.asarray(taus, dtype=float)
    p = np.atleast_1d(model.outcome_prob(taus, n_pi, theta, phi))
    if np.any(~np.isfinite(p)) or np.any(p < 0) or np.any(p > 1):
        raise ModelError("ground truth produced probabilities outside [0, 1]")
    ys = rng.binomial(repetitions, p) / repetitions
    if eta0 > 0:
        ys = ys + rng.normal(0.0, eta0, taus.size)
    return [MeasurementRecord(float(t), n_pi, repetitions, float(y)) for t, y in zip(taus, ys)]


def strongly_coupled_bath(k: int, rng: RngStream, az_range=(-0.3, 0.3),
                          aperp_range=(0.1, 0.5), min_delta_az: float = 0.03) -> np.ndarray:
    """Random bath with a minimum parallel-coupling separation (rejection)."""
    if k < 1:
        raise ValueError("need at least one spin")
    for _ in range(BATH_MAX_TRIES):
        az = rng.uniform(az_range[0], az_range[1], k)
        if k == 1 or float(np.min(np.diff(np.sort(az)))) >= min_delta_az:
            couplings = np.empty(2 * k)
            couplings[0::2] = az
            couplings[1::2] = rng.uniform(aperp_range[0], aperp_range[1], k)
            return couplings
    raise ValueError("could not satisfy the minimum A_z separation; relax it or lower k")


def total_measurement_time(taus_us, repetitions: int, n_pi: int) -> float:
    """T_tot in seconds: signal R N_pi tau per point plus init/readout and
    pulse overhead (2 N_pi pulses per sequence)."""
    taus_us = np.asarray(taus_us, dtype=float)
    signal = repetitions * n_pi * float(taus_us.sum())
    overhead = taus_us.size * repetitions * (INIT_READOUT_US + PULSES_PER_UNIT * n_pi * PI_PULSE_US)
    return (signal + overhead) * 1e-6


def resonance_delays(m, a_z, omega_l) -> np.ndarray:
    """tau_{m,k} = (2m - 1) pi / (2 omega_L + A_z), the dip positions."""
    m = np.asarray(m, dtype=float)
    return (2.0 * m - 1.0) * math.pi / (2.0 * omega_l + np.asarray(a_z, dtype=float))


@dataclass(frozen=True)
class BoundsInput:
    max_aperp: float      # angular MHz
    min_aperp: float
    min_delta_az: float
    omega_l: float
    n_pi: int

    def __post_init__(self):
        for name in ("max_aperp", "min_aperp", "min_delta_az", "omega_l", "n_pi"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class BoundsReport:
    """Rayleigh-criterion resolution bounds.

    ``r_min`` is the formula value omega_L / (N_pi min A_perp); the source
    analysis quotes ~4 for its own numbers where the formula gives ~1.7, so
    treat it as an order-of-magnitude floor.
    """

    m_min: float          # resonance order needed to split the closest pair
    big_m_min: float      # number of distinct inter-pulse delays
    r_min: float          # repetitions per delay
    t_min_s: float        # total-time floor in seconds


def rayleigh_bounds(inp: BoundsInput) -> BoundsReport:
    m_min = inp.max_aperp / (4.0 * inp.min_delta_az)
    big_m_min = math.pi * inp.omega_l / (2.0 * inp.min_aperp)
    r_min = inp.omega_l / (inp.n_pi * inp.min_aperp)
    t_min_us = inp.omega_l * inp.max_aperp / (inp.min_delta_az * inp.min_aperp ** 2)
    return BoundsReport(m_min=m_min, big_m_min=big_m_min, r_min=r_min,
                        t_min_s=t_min_us * 1e-6)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

DATASET_HEADER = "tau_s,n_pi,repetitions,y"


def write_dataset_csv(path, records) -> None:
    with open(path, "w") as fh:
        fh.write(DATASET_HEADER + "\n")
        for r in records:
            fh.write(f"{r.tau_us * 1e-6!r},{r.n_pi},{r.repetitions},{r.y!r}\n")


def read_dataset_csv(path) -> list[MeasurementRecord]:
    records = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != DATASET_HEADER:
            raise ValueError(f"unexpected dataset header {header!r}")
        for line in fh:
            tau_s, n_pi, reps, y = line.strip().split(",")
            records.append(MeasurementRecord(float(tau_s) * 1e6, int(n_pi), int(reps), float(y)))
    return records


def write_truth_json(path, couplings, t2_inv: float, b_gauss: float) -> None:
    couplings = np.asarray(couplings, dtype=float)
    spins = [{"Az_MHz": float(couplings[2 * i]), "Aperp_MHz": float(couplings[2 * i + 1])}
             for i in range(couplings.size // 2)]
    with open(path, "w") as fh:
        json.dump({"spins": spins, "T2_inv": t2_inv, "B_gauss": b_gauss}, fh, indent=2)


def read_truth_json(path):
    """Returns ((n, 2) couplings, T2_inv, B_gauss). Raises ValueError on a
    missing field or a payload of the wrong shape."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"ground truth {path} is not a JSON object")
    try:
        if not (isinstance(payload["spins"], list)
                and all(isinstance(s, dict) for s in payload["spins"])):
            raise ValueError(f"ground truth {path}: 'spins' is not a list of objects")
        spins = np.array([[s["Az_MHz"], s["Aperp_MHz"]] for s in payload["spins"]])
        return spins, float(payload["T2_inv"]), float(payload["B_gauss"])
    except KeyError as err:
        raise ValueError(f"ground truth {path} lacks field {err.args[0]!r}") from None
