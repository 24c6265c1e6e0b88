"""Monte-Carlo ELBO estimation and stochastic training of the posterior ansatz.

One training step draws a batch of reparameterized samples from the flow,
scores prior + regularizer + likelihood - entropy on that same batch, and
follows the pathwise gradient with ADAM under an exponentially decaying
learning-rate schedule.  Nuisance parameters ride along in the same update
(maximum expected likelihood); a trainable regularizer scale sigma is set to
its maximizer on every batch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import flows
from .errors import DegenerateAnsatzWarning, TrainingDiverged
from .likelihoods import NuisanceParams
from .probcore import LOG_TWO_PI, RngStream, logistic, softplus, softplus_inv
from .simulator import sample_records

REG_NONE = "none"
REG_L1 = "l1"
REG_L2 = "l2"
_REG_KINDS = (REG_NONE, REG_L1, REG_L2)


@dataclass(frozen=True)
class RegularizerSpec:
    """Sparsifying prior factor: Laplace (l1), Gaussian (l2), or none.

    A ``trainable`` scale has no gradient and is not stepped by the
    optimizer: every ELBO batch sets it to its maximizer on that batch (see
    :func:`_fitted_sigma`), and ``sigma`` is then unused.
    """

    kind: str = REG_NONE
    sigma: float = 1.0
    trainable: bool = False

    def __post_init__(self):
        if self.kind not in _REG_KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.kind != REG_NONE and not self.sigma > 0:
            raise ValueError("regularizer scale must be positive")


def _fitted_sigma(theta2d: np.ndarray, kind: str) -> float:
    """Scale that maximizes the batch-mean log regularizer.

    l2: sigma^2 = mean |theta|_2^2 / d;  l1: sigma = mean |theta|_1 / d.
    These are where the sigma-derivative of the batch-mean log regularizer
    vanishes, so a trained scale needs no optimizer steps (from 1e-2 to its
    desk-scale optimum of about 0.2 it would have to travel 3 nats).
    """
    d = theta2d.shape[1]
    if kind == REG_L2:
        return math.sqrt(float((theta2d * theta2d).sum(axis=1).mean()) / d)
    return float(np.abs(theta2d).sum(axis=1).mean()) / d


def _regularizer_terms(theta2d: np.ndarray, kind: str, sigma: float):
    """Batched value and d/dtheta of the log regularizer."""
    b, d = theta2d.shape
    if kind == REG_NONE:
        return np.zeros(b), np.zeros_like(theta2d)
    if kind == REG_L1:
        l1 = np.abs(theta2d).sum(axis=1)
        val = -d * math.log(2.0 * sigma) - l1 / sigma
        dtheta = -np.sign(theta2d) / sigma
    else:
        l2 = (theta2d * theta2d).sum(axis=1)
        val = -0.5 * d * math.log(2.0 * math.pi * sigma ** 2) - l2 / (2.0 * sigma ** 2)
        dtheta = -theta2d / sigma ** 2
    return val, dtheta


# ---------------------------------------------------------------------------
# priors over the physical parameters
# ---------------------------------------------------------------------------

# slope of a box prior's softplus clamp; the clamp moves samples inside the
# box by at most log(2) / BOX_SHARPNESS (at the edges)
BOX_SHARPNESS = 60.0


@dataclass(frozen=True)
class PriorSpec:
    """Prior over theta plus the (optional) map from flow space to model space.

    kinds:
      * ``improper``  -- log pi = 0 everywhere, identity map.
      * ``box``       -- flat inside [low, high]; flow samples are squashed into
                         the box by a smooth softplus clamp before the model
                         sees them, so the log-prior contribution stays 0.
      * ``gaussian``  -- independent N(mean, var) factors, identity map.
    """

    kind: str = "improper"
    low: np.ndarray | None = None
    high: np.ndarray | None = None
    mean: np.ndarray | None = None
    var: np.ndarray | None = None

    def transform(self, theta: np.ndarray) -> np.ndarray:
        if self.kind != "box":
            return theta
        k = BOX_SHARPNESS
        lo, hi = np.asarray(self.low, dtype=float), np.asarray(self.high, dtype=float)
        return lo + (softplus(k * (theta - lo)) - softplus(k * (theta - hi))) / k

    def transform_grad(self, theta: np.ndarray) -> np.ndarray:
        if self.kind != "box":
            return np.ones_like(theta)
        k = BOX_SHARPNESS
        lo, hi = np.asarray(self.low, dtype=float), np.asarray(self.high, dtype=float)
        return logistic(k * (theta - lo)) - logistic(k * (theta - hi))

    def log_density_terms(self, theta2d: np.ndarray):
        """(value, d/dtheta) of log pi on the (already transformed) samples."""
        if self.kind == "gaussian":
            mean = np.asarray(self.mean, dtype=float)
            var = np.asarray(self.var, dtype=float)
            resid = theta2d - mean
            val = (-0.5 * (LOG_TWO_PI + np.log(var)) - resid * resid / (2.0 * var)).sum(axis=1)
            return val, -resid / var
        return np.zeros(theta2d.shape[0]), np.zeros_like(theta2d)

    def init_box(self, d: int):
        """Default initialization box for the flow location parameters;
        (-1, 1) in every coordinate for the improper prior."""
        if self.kind == "box":
            return np.broadcast_to(self.low, (d,)), np.broadcast_to(self.high, (d,))
        if self.kind == "gaussian":
            m = np.broadcast_to(self.mean, (d,)).astype(float)
            s = np.sqrt(np.broadcast_to(self.var, (d,)).astype(float))
            return m - 2 * s, m + 2 * s
        return -np.ones(d), np.ones(d)


# ---------------------------------------------------------------------------
# ELBO estimator
# ---------------------------------------------------------------------------


@dataclass
class ElboEstimate:
    value: float
    grad_flow: np.ndarray
    grad_phi: np.ndarray        # w.r.t. the positive nuisance values
    sigma: float                # regularizer scale used for this batch


def estimate_elbo(params: flows.FlowParameters, data, model, prior: PriorSpec,
                  reg: RegularizerSpec, batch: int, rng: RngStream, *,
                  phi: NuisanceParams | None = None,
                  record_weights: np.ndarray | None = None) -> ElboEstimate:
    """Single-batch pathwise estimate of the regularized ELBO and its gradients.

    The same theta-batch feeds likelihood, prior, regularizer and entropy
    terms.  ``data`` is the model's prepared dataset.  A trainable
    regularizer scale is fitted to the batch by :func:`_fitted_sigma` and
    gets no gradient.  ``record_weights`` (one per record) weight the
    likelihood in the gradients only; the value is always the ELBO of the
    whole dataset.
    """
    if batch < 1:
        raise ValueError("batch size must be >= 1")
    theta_raw, log_q, cache = flows.sample_batch(params, batch, rng)
    theta = prior.transform(theta_raw)
    squash_grad = prior.transform_grad(theta_raw)

    loglik, dll_dtheta, dll_dphi = model.batch_loglik(data, theta, phi,
                                                      grad_weights=record_weights)
    logpi, dpi_dtheta = prior.log_density_terms(theta)
    if reg.trainable and reg.kind != REG_NONE:
        sigma = _fitted_sigma(theta, reg.kind)
    else:
        sigma = reg.sigma
    logr, dr_dtheta = _regularizer_terms(theta, reg.kind, sigma)

    per_sample = logpi + logr + loglik - log_q
    if not np.all(np.isfinite(per_sample)):
        bad = int(np.argmax(~np.isfinite(per_sample)))
        parts = {"log_pi": logpi[bad], "log_r": logr[bad],
                 "log_lik": loglik[bad], "log_q": log_q[bad]}
        term = ", ".join(f"{k}={v!r}" for k, v in parts.items())
        raise FloatingPointError(f"non-finite ELBO for sample {bad} ({term})")
    # the regularizer enters as its own batch mean: two ELBOs of one batch that
    # differ only in it then differ by that mean up to a single rounding
    value = float((logpi + loglik - log_q).mean() + logr.mean())

    dtheta_raw = (dll_dtheta + dpi_dtheta + dr_dtheta) * squash_grad / batch
    dlogq = -np.ones(batch) / batch
    grad_flow = flows.backward_batch(cache, dtheta_raw, dlogq, params)
    return ElboEstimate(value=value, grad_flow=grad_flow, grad_phi=dll_dphi.mean(axis=0),
                        sigma=sigma)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """ELBO-ascent settings; the defaults are also the run config's train defaults."""

    batch: int = 64
    steps: int = 2048
    lr_start: float = 1e-3
    lr_end: float = 1e-4
    seed: int = 0
    prior: PriorSpec = field(default_factory=PriorSpec)
    regularizer: RegularizerSpec = field(default_factory=RegularizerSpec)
    phi0: NuisanceParams = field(default_factory=NuisanceParams)

    def __post_init__(self):
        if self.batch < 1 or self.steps < 1:
            raise ValueError("batch and steps must be >= 1")
        if not 0 < self.lr_end <= self.lr_start:
            raise ValueError("need 0 < lr_end <= lr_start")

    def learning_rate(self, step: int) -> float:
        """lr(i) = lr_start * (lr_end / lr_start)^((i-1)/(I-1)), 1-based step."""
        if self.steps == 1:
            return self.lr_start
        frac = (step - 1) / (self.steps - 1)
        return self.lr_start * (self.lr_end / self.lr_start) ** frac


@dataclass
class TrainTrace:
    elbo: np.ndarray
    lr: np.ndarray
    phi: np.ndarray              # (I, 3) transformed nuisance values
    reg_sigma: np.ndarray        # (I,)

    def smoothed_elbo(self, window: int | None = None) -> float:
        n = self.elbo.size
        w = window or max(1, n // 10)
        return float(np.mean(self.elbo[n - min(w, n):]))

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("step,elbo,lr,t2_inv,chi,eta,reg_sigma\n")
            for i in range(self.elbo.size):
                fh.write(f"{i + 1},{float(self.elbo[i])!r},{float(self.lr[i])!r},"
                         f"{float(self.phi[i, 0])!r},{float(self.phi[i, 1])!r},"
                         f"{float(self.phi[i, 2])!r},{float(self.reg_sigma[i])!r}\n")


def _phi_to_raw(phi: NuisanceParams) -> np.ndarray:
    vals = np.maximum(phi.as_array(), 1e-12)
    return np.asarray(softplus_inv(vals), dtype=float)


def _raw_to_phi(raw: np.ndarray) -> NuisanceParams:
    """The nuisances stored in ``raw``: its leading fields, the rest at zero."""
    return NuisanceParams(*softplus(raw).tolist())


def default_init(spec: flows.AnsatzSpec, low, high, rng: RngStream) -> flows.FlowParameters:
    """Spread-location, narrow-scale start inside the given box.

    Locations are drawn uniformly over the central 80% of the box (a shared
    center would be a stationary point of permutation-invariant likelihoods);
    scales start at a tenth of the box width.
    """
    low = np.broadcast_to(np.asarray(low, dtype=float), (spec.d,))
    high = np.broadcast_to(np.asarray(high, dtype=float), (spec.d,))
    width = high - low
    mu0 = rng.uniform(low + 0.1 * width, high - 0.1 * width)
    return flows.init_flow_parameters(spec, mu0, width / 10.0, rng)


def train(config: TrainConfig, dataset, model, ansatz_spec: flows.AnsatzSpec):
    """Run ADAM on (lambda, phi); deterministic given seed.

    Returns (FlowParameters, NuisanceParams, TrainTrace).  Raises
    :class:`TrainingDiverged` if the smoothed ELBO (mean of the last
    ``DIVERGENCE_WINDOW`` steps) falls more than ``DIVERGENCE_DROP``
    below the best smoothed ELBO reached so far.
    """
    rng = RngStream(config.seed)
    init_rng, _ = rng.split(2)
    params = default_init(ansatz_spec, *config.prior.init_box(ansatz_spec.d), init_rng)
    return train_from(config, dataset, model, params)


# Coarse-to-fine likelihood schedule (after Mandt et al., "Variational
# Tempering", AISTATS 2016).  A record with delay tau constrains a frequency
# only modulo 2 pi / tau, so long-tau records make the likelihood very
# multimodal.  Records enter the gradient by ascending tau: at first only those
# within SCHEDULE_SPAN of the shortest delay, then a cut-off that rises
# geometrically to the longest delay over the first SCHEDULE_FRACTION of the
# steps.  Data whose delays span less than SCHEDULE_SPAN enter all at once.
SCHEDULE_SPAN = 10.0
SCHEDULE_FRACTION = 0.5

# ADAM moves every coordinate by about lr per step.  Softplus-stored values
# (the flow's scale diagonal and the nuisances) move in log units and must
# travel many nats: a scale that shrinks from 0.1 to 2e-5 covers 8.4, while
# 600 steps at lr 1e-2 -> 1e-3 allow 2.35.  Their learning rate starts
# SOFTPLUS_STEP_SCALE times higher and decays geometrically to lr_end, so
# the budget grows about fivefold and the final step size is unchanged.
SOFTPLUS_STEP_SCALE = 10.0

# ADAM's moment decay rates and denominator guard (Kingma & Ba, ICLR 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# A location steps at most LOCATION_REACH times its current q spread: with lr
# far above the posterior width, ADAM's oscillation around a sharp mode grows
# until the mean leaves it for a neighbouring mode.
LOCATION_REACH = 0.25

# abort when the smoothed ELBO (mean of the last DIVERGENCE_WINDOW steps)
# falls DIVERGENCE_DROP below its best so far
DIVERGENCE_WINDOW = 10
DIVERGENCE_DROP = 1e6


def _record_schedule(dataset, steps: int):
    """Per-step gradient weights of the records, or None once all are in."""
    tau = np.array([r.tau_us for r in dataset], dtype=float)
    first = SCHEDULE_SPAN * tau.min()
    ramp = max(1, int(SCHEDULE_FRACTION * steps))
    if tau.max() <= first:
        return lambda step: None

    def weights(step: int):
        if step >= ramp:
            return None
        cut = first * (tau.max() / first) ** (step / ramp)
        return (tau <= cut).astype(float)

    return weights


def train_from(config: TrainConfig, dataset, model, init_params: flows.FlowParameters):
    """Training loop starting from explicit initial flow parameters.

    The model's ``n_nuisance`` leading nuisances start at ``config.phi0`` and
    train; the rest stay zero.  The reported ``trace.elbo`` is always the ELBO
    of the whole dataset; the likelihood schedule only weights the records'
    gradients.
    """
    rng = RngStream(config.seed)
    _, step_rng = rng.split(2)
    params = init_params

    data = model.prepare(dataset)
    schedule = _record_schedule(dataset, config.steps)
    n_flow, d = params.n_parameters, params.d

    phi_raw = _phi_to_raw(config.phi0)[:model.n_nuisance]
    x = np.concatenate([params.to_vector(), phi_raw])
    softplus_stored = np.concatenate([params.scale_mask(), np.ones(phi_raw.size, dtype=bool)])

    m = np.zeros_like(x)
    v = np.zeros_like(x)
    trace = TrainTrace(elbo=np.zeros(config.steps), lr=np.zeros(config.steps),
                       phi=np.zeros((config.steps, 3)), reg_sigma=np.zeros(config.steps))
    best_smoothed = -math.inf

    for i in range(1, config.steps + 1):
        params = params.from_vector(x[:n_flow])
        phi = _raw_to_phi(x[n_flow:])
        est = estimate_elbo(params, data, model, config.prior, config.regularizer,
                            config.batch, step_rng, phi=phi, record_weights=schedule(i - 1))
        # the nuisance gradient chains through softplus to their raw storage
        grad = np.concatenate([est.grad_flow, est.grad_phi * logistic(x[n_flow:])])

        lr = config.learning_rate(i)
        m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * grad
        v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * grad * grad
        mhat = m / (1.0 - ADAM_BETA1 ** i)
        vhat = v / (1.0 - ADAM_BETA2 ** i)
        boost = SOFTPLUS_STEP_SCALE ** (1.0 - (i - 1) / max(config.steps - 1, 1))
        step = lr * np.where(softplus_stored, boost, 1.0) * mhat / (np.sqrt(vhat) + ADAM_EPS)
        reach = LOCATION_REACH * np.sqrt((params.l_matrix() ** 2).sum(axis=1))
        step[:d] = np.clip(step[:d], -reach, reach)
        x = x + step  # ascent on the ELBO

        trace.elbo[i - 1] = est.value
        trace.lr[i - 1] = lr
        trace.phi[i - 1] = phi.as_array()
        trace.reg_sigma[i - 1] = est.sigma
        if i >= DIVERGENCE_WINDOW:
            smoothed = float(trace.elbo[i - DIVERGENCE_WINDOW:i].mean())
            best_smoothed = max(best_smoothed, smoothed)
            if smoothed < best_smoothed - DIVERGENCE_DROP:
                raise TrainingDiverged(i, smoothed, TrainTrace(
                    trace.elbo[:i], trace.lr[:i], trace.phi[:i], trace.reg_sigma[:i]))

    return params.from_vector(x[:n_flow]), _raw_to_phi(x[n_flow:]), trace


# ---------------------------------------------------------------------------
# surrogate information gain
# ---------------------------------------------------------------------------


def surrogate_information_gain(x_control, params: flows.FlowParameters, model,
                               n_y: int, n_theta: int, rng: RngStream, *,
                               prior: PriorSpec | None = None,
                               phi: NuisanceParams | None = None,
                               repetitions: int = 1) -> float:
    """Monte-Carlo E_y{ Var_theta[ log p(y | x, theta) ] } under the ansatz.

    Outcomes y are drawn from the posterior predictive: theta' ~ q, then one
    simulated record at the candidate control x = (tau, n_pi).  Returns 0 (with
    a DegenerateAnsatzWarning) when the ansatz has collapsed to a point.
    """
    if n_theta < 2:
        raise ValueError("variance needs n_theta >= 2")
    if n_y < 2:
        raise ValueError("need n_y >= 2 predictive draws")
    tau, n_pi = x_control
    prior = prior or PriorSpec()
    phi = phi or NuisanceParams()
    theta_rng, y_rng = rng.split(2)
    thetas, _, _ = flows.sample_batch(params, n_theta, theta_rng)
    thetas = prior.transform(thetas)
    if float(np.max(thetas.std(axis=0))) < 1e-12:
        warnings.warn("ansatz spread is numerically zero; SIG = 0", DegenerateAnsatzWarning)
        return 0.0
    pred_thetas, _, _ = flows.sample_batch(params, n_y, y_rng)
    pred_thetas = prior.transform(pred_thetas)

    variances = np.empty(n_y)
    for j in range(n_y):
        record, = sample_records(model, y_rng, [tau], n_pi, pred_thetas[j], phi, repetitions)
        variances[j] = float(np.var(model.record_loglik(record, thetas, phi), ddof=1))
    return float(variances.mean())
