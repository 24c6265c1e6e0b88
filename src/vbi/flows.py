"""Normalizing-flow posterior ansatz.

The ansatz maps z ~ N(0, I_d) through a stack of masked affine autoregressive
layers followed by one affine map theta = L u + mu (L lower triangular with a
softplus-positive diagonal), giving exact sampling, exact log-density via the
change of variables, and reverse-mode gradients w.r.t. every trainable
parameter for pathwise (reparameterization) training.

Families:
  * ``mean-field``   -- diagonal L only (independent Gaussians).
  * ``full-affine``  -- full lower-triangular L (any multivariate Gaussian).
  * ``stacked``      -- n autoregressive layers, then the affine map.

Autoregressive layers compute per-dimension shift/scale from the preceding
dimensions through a one-hidden-layer tanh conditioner with MADE-style masks:
    v_i = u_i * exp(a_i(u_<i)) + t_i(u_<i),
so the Jacobian is triangular, log|det| = sum_i a_i, and the inverse is exact,
recovered one dimension at a time.  Alternating layers reverse the dimension
ordering so every coordinate conditions on every other across the stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericOverflowError
from .probcore import LOG_TWO_PI, RngStream, softplus, softplus_inv

MEAN_FIELD = "mean-field"
FULL_AFFINE = "full-affine"
STACKED = "stacked"
FAMILIES = (MEAN_FIELD, FULL_AFFINE, STACKED)

CHECKPOINT_MAGIC = "VBIFLOW1"


@dataclass(frozen=True)
class AnsatzSpec:
    """Shape of the posterior ansatz."""

    d: int
    family: str = MEAN_FIELD
    n_layers: int = 5
    hidden_width: int = 32

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"parameter dimension must be >= 1, got {self.d}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.family == STACKED:
            if self.n_layers < 1:
                raise ValueError("stacked family needs n_layers >= 1")
            if self.hidden_width < 1:
                raise ValueError("hidden_width must be >= 1")
        else:
            object.__setattr__(self, "n_layers", 0)

    @property
    def effective_layers(self) -> int:
        return self.n_layers if self.family == STACKED else 0


@lru_cache(maxsize=None)
def _made_masks(d: int, hidden: int, reverse: bool):
    """MADE masks for one autoregressive layer.

    Input degree of dimension i is its 1-based rank in the layer ordering;
    hidden degrees cycle over 1..d-1; output i may use hidden units of strictly
    smaller degree.  d = 1 gives all-zero masks (pure bias conditioner).
    Cached; callers must treat the returned arrays as read-only.
    """
    order = np.arange(d)[::-1] if reverse else np.arange(d)
    deg_in = np.empty(d, dtype=int)
    deg_in[order] = np.arange(1, d + 1)
    if d == 1:
        m1 = np.zeros((hidden, 1))
        mo = np.zeros((1, hidden))
        return m1, mo
    deg_hidden = (np.arange(hidden) % (d - 1)) + 1
    m1 = (deg_hidden[:, None] >= deg_in[None, :]).astype(float)
    mo = (deg_in[:, None] > deg_hidden[None, :]).astype(float)
    return m1, mo


@dataclass
class _LayerParams:
    w1: np.ndarray  # (H, d) conditioner input weights
    b1: np.ndarray  # (H,)
    wa: np.ndarray  # (d, H) log-scale head
    ba: np.ndarray  # (d,)
    wt: np.ndarray  # (d, H) shift head
    bt: np.ndarray  # (d,)


class FlowParameters:
    """Trainable variables of the ansatz.

    ``l_raw`` stores the lower-triangular factor with its diagonal in
    unconstrained form (softplus applied on read), so every parameter vector
    corresponds to a bijection.
    """

    def __init__(self, spec: AnsatzSpec, mu, l_raw, layers):
        self.spec = spec
        self.mu = np.asarray(mu, dtype=float)
        self.l_raw = np.asarray(l_raw, dtype=float)
        self.layers = layers
        d = spec.d
        if self.mu.shape != (d,) or self.l_raw.shape != (d, d):
            raise ValueError("parameter shapes do not match the ansatz spec")
        self._masks = [_made_masks(d, spec.hidden_width, bool(i % 2))
                       for i in range(spec.effective_layers)]

    # -- effective affine factor ------------------------------------------

    def l_matrix(self) -> np.ndarray:
        low = np.tril(self.l_raw, -1)
        np.fill_diagonal(low, softplus(np.diag(self.l_raw)))
        return low

    @property
    def d(self) -> int:
        return self.spec.d

    # -- flat packing (order: mu, L entries, then per-layer tensors) -------

    def _l_indices(self):
        d = self.spec.d
        if self.spec.family == MEAN_FIELD:
            return np.diag_indices(d)
        return np.tril_indices(d)

    def to_vector(self) -> np.ndarray:
        parts = [self.mu, self.l_raw[self._l_indices()]]
        for lp in self.layers:
            parts.extend([lp.w1.ravel(), lp.b1, lp.wa.ravel(), lp.ba, lp.wt.ravel(), lp.bt])
        return np.concatenate(parts)

    def from_vector(self, vec: np.ndarray) -> "FlowParameters":
        """New FlowParameters with the same spec and the given flat values."""
        vec = np.asarray(vec, dtype=float)
        d, h = self.spec.d, self.spec.hidden_width
        mu, i = vec[:d].copy(), d
        idx = self._l_indices()
        l_raw = np.zeros((d, d))
        k = len(idx[0])
        l_raw[idx] = vec[i:i + k]
        i += k
        layers = []
        for _ in range(self.spec.effective_layers):
            w1 = vec[i:i + h * d].reshape(h, d).copy(); i += h * d
            b1 = vec[i:i + h].copy(); i += h
            wa = vec[i:i + d * h].reshape(d, h).copy(); i += d * h
            ba = vec[i:i + d].copy(); i += d
            wt = vec[i:i + d * h].reshape(d, h).copy(); i += d * h
            bt = vec[i:i + d].copy(); i += d
            layers.append(_LayerParams(w1, b1, wa, ba, wt, bt))
        if i != vec.size:
            raise ValueError(f"flat vector has {vec.size} entries, expected {i}")
        return FlowParameters(self.spec, mu, l_raw, layers)

    @property
    def n_parameters(self) -> int:
        return self.to_vector().size

    def scale_mask(self) -> np.ndarray:
        """Boolean mask over :meth:`to_vector` marking the softplus-stored
        diagonal of L."""
        rows, cols = self._l_indices()
        mask = np.zeros(self.n_parameters, dtype=bool)
        mask[self.spec.d:self.spec.d + rows.size] = rows == cols
        return mask


def init_flow_parameters(spec: AnsatzSpec, mu0, scale0, rng: RngStream | None = None,
                         conditioner_std: float = 1e-2) -> FlowParameters:
    """Near-identity initialization.

    mu0 and scale0 are per-dimension location and spread of the initial
    Gaussian; conditioner weights start at N(0, conditioner_std^2) so the
    autoregressive layers begin close to the identity.
    """
    d = spec.d
    mu = np.broadcast_to(np.asarray(mu0, dtype=float), (d,)).copy()
    scale = np.broadcast_to(np.asarray(scale0, dtype=float), (d,)).copy()
    if np.any(scale <= 0):
        raise ValueError("initial scales must be positive")
    l_raw = np.zeros((d, d))
    np.fill_diagonal(l_raw, softplus_inv(scale))
    layers = []
    if spec.effective_layers:
        if rng is None:
            raise ValueError("stacked family needs an RngStream for conditioner init")
        h = spec.hidden_width
        for _ in range(spec.n_layers):
            layers.append(_LayerParams(
                w1=conditioner_std * rng.standard_normal((h, d)),
                b1=np.zeros(h),
                wa=conditioner_std * rng.standard_normal((d, h)),
                ba=np.zeros(d),
                wt=conditioner_std * rng.standard_normal((d, h)),
                bt=np.zeros(d),
            ))
    return FlowParameters(spec, mu, l_raw, layers)


# ---------------------------------------------------------------------------
# forward / inverse / density
# ---------------------------------------------------------------------------


@dataclass
class _BatchCache:
    z: np.ndarray                      # (B, d)
    layer_io: list                     # per layer: (x, h, a)
    affine_in: np.ndarray              # (B, d) input of the affine map
    theta: np.ndarray                  # (B, d)
    log_det: np.ndarray                # (B,)


def _ar_apply(x, lp: _LayerParams, masks):
    m1, mo = masks
    h = np.tanh(x @ (lp.w1 * m1).T + lp.b1)
    a = h @ (lp.wa * mo).T + lp.ba
    t = h @ (lp.wt * mo).T + lp.bt
    return x * np.exp(a) + t, a, h


def _forward_batch(z: np.ndarray, params: FlowParameters) -> _BatchCache:
    x = np.atleast_2d(np.asarray(z, dtype=float))
    log_det = np.zeros(x.shape[0])
    layer_io = []
    for i, lp in enumerate(params.layers):
        y, a, h = _ar_apply(x, lp, params._masks[i])
        if not np.all(np.isfinite(y)):
            raise NumericOverflowError(i)
        layer_io.append((x, h, a))
        log_det += a.sum(axis=1)
        x = y
    low = params.l_matrix()
    theta = x @ low.T + params.mu
    if not np.all(np.isfinite(theta)):
        raise NumericOverflowError("affine")
    log_det = log_det + np.sum(np.log(np.diag(low)))
    return _BatchCache(z=np.atleast_2d(z), layer_io=layer_io, affine_in=x,
                       theta=theta, log_det=log_det)


def flow_forward(z, params: FlowParameters):
    """theta = f(z) and log|det df/dz|, accumulated layer by layer."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    if z.shape[-1] != params.d:
        raise ValueError(f"z has dimension {z.shape[-1]}, ansatz expects {params.d}")
    cache = _forward_batch(z, params)
    if single:
        return cache.theta[0], float(cache.log_det[0])
    return cache.theta, cache.log_det


def _inverse_batch(theta: np.ndarray, params: FlowParameters):
    """Exact inverse; returns (z, log_det evaluated at that z)."""
    x = np.atleast_2d(np.asarray(theta, dtype=float)).copy()
    low = params.l_matrix()
    x = np.linalg.solve(low, (x - params.mu).T).T
    log_det = np.full(x.shape[0], np.sum(np.log(np.diag(low))))
    for i in reversed(range(len(params.layers))):
        lp = params.layers[i]
        m1, mo = params._masks[i]
        order = np.arange(params.d)[::-1] if i % 2 else np.arange(params.d)
        y = x
        u = np.zeros_like(y)
        a = np.zeros_like(y)
        for j in order:
            hidden = np.tanh(u @ (lp.w1 * m1).T + lp.b1)
            a[:, j] = hidden @ (lp.wa[j] * mo[j]) + lp.ba[j]
            u[:, j] = (y[:, j] - (hidden @ (lp.wt[j] * mo[j]) + lp.bt[j])) * np.exp(-a[:, j])
        log_det += a.sum(axis=1)
        x = u
    return x, log_det


def flow_inverse(theta, params: FlowParameters):
    """z = f^{-1}(theta); exact for this layer family (no iteration)."""
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    if theta.shape[-1] != params.d:
        raise ValueError(f"theta has dimension {theta.shape[-1]}, ansatz expects {params.d}")
    z, _ = _inverse_batch(theta, params)
    return z[0] if single else z


def _log_std_normal(z: np.ndarray) -> np.ndarray:
    return -0.5 * (z.shape[-1] * LOG_TWO_PI + np.einsum("bi,bi->b", z, z))


def ansatz_log_density(theta, params: FlowParameters):
    """ln q(theta) = ln N(f^{-1}(theta)) - ln|det df/dz| at f^{-1}(theta)."""
    theta = np.asarray(theta, dtype=float)
    single = theta.ndim == 1
    z, log_det = _inverse_batch(theta, params)
    out = _log_std_normal(z) - log_det
    return float(out[0]) if single else out


def sample_batch(params: FlowParameters, batch: int, rng: RngStream):
    """Batched draw used by the trainer: (theta (B,d), log_q (B,), cache)."""
    if batch < 1:
        raise ValueError("batch must be >= 1")
    z = rng.standard_normal((batch, params.d))
    cache = _forward_batch(z, params)
    log_q = _log_std_normal(cache.z) - cache.log_det
    return cache.theta, log_q, cache


# ---------------------------------------------------------------------------
# reverse-mode gradients (pathwise / reparameterization)
# ---------------------------------------------------------------------------


def backward_batch(cache: _BatchCache, dl_dtheta: np.ndarray, dl_dlogq: np.ndarray,
                   params: FlowParameters) -> np.ndarray:
    """Accumulate dLoss/dlambda over a batch, z held fixed.

    ``dl_dtheta`` is (B, d); ``dl_dlogq`` is (B,), the coefficient on log_q of
    each sample.  Since log_q = ln N(z) - log_det at fixed z, that coefficient
    enters as -dl_dlogq on the accumulated log-determinant.  Returns a flat
    gradient aligned with ``FlowParameters.to_vector``.
    """
    dl_dtheta = np.atleast_2d(np.asarray(dl_dtheta, dtype=float))
    g_ld = -np.atleast_1d(np.asarray(dl_dlogq, dtype=float))

    low = params.l_matrix()
    diag_raw = np.diag(params.l_raw)
    x_aff = cache.affine_in

    g_mu = dl_dtheta.sum(axis=0)
    g_l = dl_dtheta.T @ x_aff
    g_l = np.tril(g_l)
    diag = np.diag(low)
    g_diag = np.diag(g_l) + g_ld.sum() / diag
    g_l_raw = g_l.copy()
    sig = 1.0 / (1.0 + np.exp(-diag_raw))  # d softplus / d raw
    np.fill_diagonal(g_l_raw, g_diag * sig)

    gx = dl_dtheta @ low

    layer_grads = []
    for i in reversed(range(len(params.layers))):
        lp = params.layers[i]
        m1, mo = params._masks[i]
        x, h, a = cache.layer_io[i]
        ea = np.exp(a)
        g_a = gx * x * ea + g_ld[:, None]
        g_t = gx
        g_wa = (g_a.T @ h) * mo
        g_ba = g_a.sum(axis=0)
        g_wt = (g_t.T @ h) * mo
        g_bt = g_t.sum(axis=0)
        g_h = g_a @ (lp.wa * mo) + g_t @ (lp.wt * mo)
        g_pre = g_h * (1.0 - h * h)
        g_w1 = (g_pre.T @ x) * m1
        g_b1 = g_pre.sum(axis=0)
        gx = gx * ea + g_pre @ (lp.w1 * m1)
        layer_grads.append([g_w1.ravel(), g_b1, g_wa.ravel(), g_ba, g_wt.ravel(), g_bt])

    idx = params._l_indices()
    parts = [g_mu, g_l_raw[idx]]
    for grads in reversed(layer_grads):
        parts.extend(grads)
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# checkpoint io
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: FlowParameters, extra: dict | None = None) -> None:
    """Versioned JSON checkpoint: spec header + flat parameter array."""
    payload = {
        "magic": CHECKPOINT_MAGIC,
        "d": params.spec.d,
        "family": params.spec.family,
        "n_layers": params.spec.n_layers,
        "hidden_width": params.spec.hidden_width,
        "params": params.to_vector().tolist(),
    }
    if extra:
        payload["extra"] = extra
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path):
    """Returns (FlowParameters, extra dict). Raises ValueError on bad files."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("magic") != CHECKPOINT_MAGIC:
        raise ValueError(f"not a {CHECKPOINT_MAGIC} checkpoint: {path}")
    spec = AnsatzSpec(d=payload["d"], family=payload["family"],
                      n_layers=payload["n_layers"], hidden_width=payload["hidden_width"])
    template = init_flow_parameters(spec, np.zeros(spec.d), np.ones(spec.d),
                                    rng=RngStream(0) if spec.effective_layers else None)
    params = template.from_vector(np.asarray(payload["params"], dtype=float))
    return params, payload.get("extra", {})
