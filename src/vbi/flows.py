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

The trainable parameters are one flat vector: mu, the stored entries of L (its
diagonal for ``mean-field``, its lower triangle row by row otherwise), then
w1, b1, wa, ba, wt, bt of each layer.  Only :func:`_layout` encodes the order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import NumericOverflowError, json_field
from .probcore import LOG_TWO_PI, RngStream, logistic, softplus, softplus_inv

MEAN_FIELD = "mean-field"
FULL_AFFINE = "full-affine"
STACKED = "stacked"
FAMILIES = (MEAN_FIELD, FULL_AFFINE, STACKED)

CHECKPOINT_MAGIC = "VBIFLOW1"
CONDITIONER_STD = 1e-2     # spread of the initial conditioner weights


@dataclass(frozen=True)
class AnsatzSpec:
    """Shape of the posterior ansatz; ``n_layers`` is 0 outside ``stacked``."""

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


@lru_cache(maxsize=None)
def _layout(spec: AnsatzSpec):
    """(start, stop, shape) of each tensor in the flat vector, the (rows, cols)
    in L of each stored entry, and the mask of the softplus-stored diagonal of
    L in the vector.  Cached per spec; the arrays are read-only."""
    d, h = spec.d, spec.hidden_width
    rows, cols = np.diag_indices(d) if spec.family == MEAN_FIELD else np.tril_indices(d)
    shapes = [(d,), (rows.size,)] + [(h, d), (h,), (d, h), (d,), (d, h), (d,)] * spec.n_layers
    stops = list(accumulate(math.prod(shape) for shape in shapes))
    scale_mask = np.zeros(stops[-1], dtype=bool)
    scale_mask[stops[0]:stops[1]] = rows == cols
    rows.flags.writeable = cols.flags.writeable = scale_mask.flags.writeable = False
    return tuple(zip([0] + stops, stops, shapes)), (rows, cols), scale_mask


@dataclass
class _LayerParams:
    w1: np.ndarray  # (H, d) conditioner input weights
    b1: np.ndarray  # (H,)
    wa: np.ndarray  # (d, H) log-scale head
    ba: np.ndarray  # (d,)
    wt: np.ndarray  # (d, H) shift head
    bt: np.ndarray  # (d,)


def _views(slots, vector: np.ndarray):
    """(mu, l_entries, [_LayerParams]) as views into a flat vector with these slots."""
    views = [vector[start:stop].reshape(shape) for start, stop, shape in slots]
    return views[0], views[1], [_LayerParams(*views[i:i + 6]) for i in range(2, len(views), 6)]


class FlowParameters:
    """Trainable variables of the ansatz: a copy of ``vector``, the flat vector
    the optimiser steps and the checkpoint stores.  It holds mu (d), the stored
    entries of L, then w1 (H, d), b1 (H), wa (d, H), ba (d), wt (d, H), bt (d)
    of each layer; ``mu``, ``l_entries`` and ``layers`` are views into it.  L's
    diagonal is stored unconstrained (softplus applied on read), so every vector
    gives a bijection."""

    def __init__(self, spec: AnsatzSpec, vector):
        self.spec = spec
        self._slots, self._l_index, self._scale_mask = _layout(spec)
        self._vector = np.array(vector, dtype=float)
        if self._vector.shape != self._scale_mask.shape:
            raise ValueError(f"flat vector has {self._vector.size} entries, "
                             f"expected {self._scale_mask.size}")
        self.mu, self.l_entries, self.layers = _views(self._slots, self._vector)
        self._masks = [_made_masks(spec.d, spec.hidden_width, bool(i % 2))
                       for i in range(spec.n_layers)]

    @property
    def l_raw(self) -> np.ndarray:
        """L with its diagonal still in unconstrained form, as a new array."""
        low = np.zeros((self.d, self.d))
        low[self._l_index] = self.l_entries
        return low

    def l_matrix(self) -> np.ndarray:
        low = self.l_raw
        np.fill_diagonal(low, softplus(np.diag(low)))
        return low

    @property
    def d(self) -> int:
        return self.spec.d

    def to_vector(self) -> np.ndarray:
        return self._vector.copy()

    def from_vector(self, vec) -> "FlowParameters":
        """New FlowParameters with the same spec and a copy of the given flat values."""
        return FlowParameters(self.spec, vec)

    @property
    def n_parameters(self) -> int:
        return self._vector.size

    def scale_mask(self) -> np.ndarray:
        """Boolean mask over :meth:`to_vector` marking the softplus-stored
        diagonal of L."""
        return self._scale_mask.copy()


def init_flow_parameters(spec: AnsatzSpec, mu0, scale0,
                         rng: RngStream | None = None) -> FlowParameters:
    """Near-identity initialization.

    mu0 and scale0 are per-dimension location and spread of the initial
    Gaussian; conditioner weights start at N(0, CONDITIONER_STD^2) so the
    autoregressive layers begin close to the identity.
    """
    scale = np.broadcast_to(np.asarray(scale0, dtype=float), (spec.d,))
    if np.any(scale <= 0):
        raise ValueError("initial scales must be positive")
    if spec.n_layers and rng is None:
        raise ValueError("stacked family needs an RngStream for conditioner init")
    _, _, scale_mask = _layout(spec)
    vector = np.zeros(scale_mask.size)
    vector[scale_mask] = softplus_inv(scale)
    params = FlowParameters(spec, vector)
    params.mu[:] = mu0
    for lp in params.layers:
        for weights in (lp.w1, lp.wa, lp.wt):
            weights[:] = CONDITIONER_STD * rng.standard_normal(weights.shape)
    return params


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

    grad = np.empty(params.n_parameters)
    g_mu, g_l, g_layers = _views(params._slots, grad)
    low = params.l_matrix()

    g_mu[:] = dl_dtheta.sum(axis=0)
    g_low = np.tril(dl_dtheta.T @ cache.affine_in)
    g_diag = np.diag(g_low) + g_ld.sum() / np.diag(low)
    np.fill_diagonal(g_low, g_diag * logistic(np.diag(params.l_raw)))  # d softplus / d raw
    g_l[:] = g_low[params._l_index]

    gx = dl_dtheta @ low

    for i in reversed(range(len(params.layers))):
        lp, gp = params.layers[i], g_layers[i]
        m1, mo = params._masks[i]
        x, h, a = cache.layer_io[i]
        ea = np.exp(a)
        g_a = gx * x * ea + g_ld[:, None]
        g_t = gx
        gp.wa[:] = (g_a.T @ h) * mo
        gp.ba[:] = g_a.sum(axis=0)
        gp.wt[:] = (g_t.T @ h) * mo
        gp.bt[:] = g_t.sum(axis=0)
        g_h = g_a @ (lp.wa * mo) + g_t @ (lp.wt * mo)
        g_pre = g_h * (1.0 - h * h)
        gp.w1[:] = (g_pre.T @ x) * m1
        gp.b1[:] = g_pre.sum(axis=0)
        gx = gx * ea + g_pre @ (lp.w1 * m1)
    return grad


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
    try:
        spec = AnsatzSpec(d=json_field(payload, "d", int), family=payload["family"],
                          n_layers=json_field(payload, "n_layers", int),
                          hidden_width=json_field(payload, "hidden_width", int))
        vector = json_field(payload, "params", list)
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in vector):
            raise ValueError("field 'params' is not a flat list of numbers")
        params = FlowParameters(spec, vector)
        extra = json_field(payload, "extra", dict) if "extra" in payload else {}
    except KeyError as err:
        raise ValueError(f"checkpoint {path} lacks field {err.args[0]!r}") from None
    except ValueError as err:
        raise ValueError(f"checkpoint {path}: {err}") from None
    return params, extra
