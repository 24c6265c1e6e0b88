"""Outcome models: multi-frequency Ramsey toy model and the nano-NMR
dynamical-decoupling model with nuisance parameters.

Units: inter-pulse delays tau are microseconds; couplings (A_z, A_perp) and
the Larmor frequency omega_L are angular, rad/us, loosely labeled "MHz"
throughout (omega_L = 2.7 "MHz" corresponds to a 0.43 MHz precession).

All evaluators are immutable; the batched entry points return analytic
gradients alongside values so the trainer never needs finite differences.

:class:`ToyModel` and :class:`DDModel` share one interface: ``prepare(records)``;
``dim``, the length of theta; ``outcome_prob(tau, n_pi, theta, phi)``, p of the
recorded outcome (+1, or b = 1 for DD), one row per vector of a (B, dim) stack;
``record_loglik(record, theta, phi)``, one record's log-likelihood per stack
row; and ``batch_loglik(data, theta, phi, grad_weights)`` with its gradients.

Every trigonometric value over a full-size array comes from one ``tan`` pass
over the half angle, t = tan(x / 2): float64 ``np.tan`` is vectorised where
``np.cos`` and ``np.sin`` may not be (about 2 against 20-30 ns per element
with numpy 2.4 on an AVX-512 Xeon).  :func:`_half_angle` forms sin x,
1 - cos x and cos x from t for the DD term; both toy kernels need only
q = cos^2(x / 2) = 1 / (1 + t^2), and ``ToyModel.batch_loglik`` also
t q = sin(x / 2) cos(x / 2).  The kernels run in blocks of about
``_BLOCK_ELEMS`` elements over one reused workspace (:func:`_row_blocks`),
laid out so that every full-size pass runs an inner loop over a long
contiguous axis, not a short one over the few frequencies or spins:

- ``ToyModel.batch_loglik`` blocks are (rows, frequencies, records): t, q, the
  sum of q over the frequencies and t q each take one pass over contiguous
  records, and its (rows, records) terms live in the workspace too;
- :func:`toy_outcome_prob` blocks are (frequencies, rows, taus): the
  particle filter's one record against many particles and a simulation's one
  vector against many taus both run over the contiguous (rows, taus) axis,
  and the frequency rows of q are added in the order ``batch_loglik`` adds
  them, so the two kernels give the same p bit for bit;
- DD blocks are (spins, rows, records): the per-spin terms run over the
  contiguous (rows, records) axis, each leave-one-out product multiplies whole
  (rows, records) slices, and a block's record sums for the spin chain rule
  land in one (3, B, K) array, so the chain rule runs once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelError
from .probcore import LOG_TWO_PI, log_gaussian_density

VARIANCE_FLOOR = 1e-12
# elements per block of _row_blocks: 256 KiB per float64 buffer, so a block's
# buffers stay in cache
_BLOCK_ELEMS = 32768
_KERNEL_BUFFERS = 12       # buffers _spin_term_core draws from a workspace
_TOY_BUFFERS = 4           # buffers ToyModel.batch_loglik draws from a workspace

_variance_floor_count = 0


def variance_floor_count() -> int:
    """How many Gaussian-outcome evaluations hit the variance floor."""
    return _variance_floor_count


@dataclass(frozen=True)
class MeasurementRecord:
    """One experiment: controls (tau, n_pi), aggregated outcome y, repetitions."""

    tau_us: float
    n_pi: int
    repetitions: int
    y: float

    def __post_init__(self):
        if not self.tau_us > 0:
            raise ValueError(f"tau must be positive, got {self.tau_us}")
        if self.n_pi < 1:
            raise ValueError(f"n_pi must be >= 1, got {self.n_pi}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")


@dataclass(frozen=True)
class NuisanceParams:
    """Decoherence / noise nuisances, all nonnegative by construction."""

    t2_inv: float = 0.0   # 1/us
    chi: float = 0.0      # shot-noise variance scale
    eta: float = 0.0      # extra Gaussian noise std

    def as_array(self) -> np.ndarray:
        return np.array([self.t2_inv, self.chi, self.eta])


def gaussian_outcome_loglik(y, p, chi, eta):
    """log N(y; p, chi*p*(1-p) + eta^2) elementwise, variance floored at 1e-12.

    Floored evaluations are tallied in :func:`variance_floor_count`.
    """
    global _variance_floor_count
    p = np.asarray(p, dtype=float)
    inside = (p >= 0.0) & (p <= 1.0)
    if not np.all(inside):
        raise ModelError(f"probability {p[~inside].ravel()[0]} outside [0, 1]")
    var = chi * p * (1.0 - p) + eta * eta
    floored = var < VARIANCE_FLOOR
    if np.any(floored):
        _variance_floor_count += int(np.count_nonzero(floored))
        var = np.maximum(var, VARIANCE_FLOOR)
    return log_gaussian_density(y, p, var)


def _half_angle(t, s, c):
    """sin x, 1 - cos x and cos x from one ``tan`` pass over t = x / 2.

    With t = tan(x / 2) and r = 2 / (1 + t^2): sin x = t r, 1 - cos x = t^2 r
    (free of cancellation) and cos x = 1 - t^2 r.  In place: ``t`` becomes
    sin x, and ``s`` and ``c``, buffers of its shape, hold 1 - cos x and cos x.
    """
    np.tan(t, out=t)
    np.multiply(t, t, out=s)
    np.add(s, 1.0, out=c)
    np.divide(2.0, c, out=c)                         # 2 / (1 + t^2)
    np.multiply(t, c, out=t)                         # sin x
    np.multiply(s, c, out=s)                         # 1 - cos x
    np.subtract(1.0, s, out=c)                       # cos x
    return t, s, c


# ---------------------------------------------------------------------------
# toy multi-frequency Ramsey model
# ---------------------------------------------------------------------------


def toy_outcome_prob(tau, omega):
    """p(+1 | tau, omega) = (1/n) sum_i cos^2(omega_i tau / 2).

    ``omega`` is one frequency vector or a (B, n) stack of them; a stack gives
    one row per vector, shaped (B,) + tau's shape.  q = cos^2(x / 2) is
    1 / (1 + t^2) for t = tan(x / 2), and the n rows of q are added by a left
    fold, in the order ``ToyModel.batch_loglik`` adds them over two or more
    records: each value equals that kernel's p bit for bit, whatever the
    block size.  (``q.sum(axis=0)``
    would not: numpy adds pairwise when a block's shape makes the frequency
    axis its inner loop.)
    """
    omega = np.asarray(omega, dtype=float)
    if omega.ndim not in (1, 2) or omega.shape[-1] == 0:
        raise ModelError("toy model needs a vector of at least one frequency, "
                         "or a stack of them")
    stack = np.atleast_2d(omega)
    n_rows, n_freq = stack.shape
    half_tau = 0.5 * np.ravel(tau)
    p = np.empty((n_rows, half_tau.size))
    for rows, cols, work in _row_blocks(n_rows, n_freq, half_tau.size, 1, split=True):
        q = work.reshape(n_freq, work.shape[1], work.shape[3])              # (n, b, t)
        np.multiply(stack[rows].T[:, :, None], half_tau[cols], out=q)
        np.tan(q, out=q)
        np.multiply(q, q, out=q)
        q += 1.0
        np.reciprocal(q, out=q)                      # cos^2(x / 2)
        for row in q[1:]:
            q[0] += row
        q[0] /= n_freq
        p[rows, cols] = q[0]
    p = p.reshape(omega.shape[:-1] + np.shape(tau))
    return float(p) if p.ndim == 0 else p


@dataclass(frozen=True)
class _ToyData:
    tau: np.ndarray        # (M,)
    counts: np.ndarray     # (M,) number of +1 outcomes
    reps: np.ndarray       # (M,)
    log_binom: np.ndarray  # (M,) log C(R, c), constant in omega


class ToyModel:
    """Ramsey probe dephasing under n unknown frequencies, binomial outcomes.

    ``outcome_prob`` is :func:`toy_outcome_prob`, and ``record_loglik`` the
    binomial density at it.  ``batch_loglik`` adds the gradient to the same
    cos^2 form: with t = tan(omega_i tau / 2) and q = 1 / (1 + t^2) =
    cos^2(omega_i tau / 2),

        p = (1/n) sum_i q_i,    dp/domega_i = -(tau / n) t_i q_i.

    p equals 1/2 + (1/2n) sum_i cos(omega_i tau), but as a mean of
    nonnegative terms it does not cancel as p -> 0, where the cosine form
    subtracts nearly equal halves.  Its blocks are (rows, frequencies,
    records), so t, q, the sum of q and t q run over contiguous records, and
    the omega-gradient is one matmul of t q against dll/dp, which carries
    the -tau / n factor and the gradient weights.  Both kernels run in the
    blocks of :func:`_row_blocks` and give the same p bit for bit.
    """

    n_nuisance = 0

    def __init__(self, n: int):
        if n < 1:
            raise ModelError("toy model needs at least one frequency")
        self.n = n

    @property
    def dim(self) -> int:
        return self.n

    def outcome_prob(self, tau, n_pi, omega, phi):
        """p(+1) of :func:`toy_outcome_prob` at the broadcast controls."""
        return toy_outcome_prob(np.broadcast_to(tau, np.broadcast(tau, n_pi).shape), omega)

    def prepare(self, records) -> _ToyData:
        tau = np.array([r.tau_us for r in records])
        reps = np.array([r.repetitions for r in records], dtype=float)
        counts = np.array([round(r.y * r.repetitions) for r in records], dtype=float)
        if np.any(counts < 0) or np.any(counts > reps):
            raise ModelError("record outcomes must be fractions of repetitions")
        log_binom = np.array([
            math.lgamma(r + 1) - math.lgamma(c + 1) - math.lgamma(r - c + 1)
            for r, c in zip(reps, counts)
        ])
        return _ToyData(tau=tau, counts=counts, reps=reps, log_binom=log_binom)

    def batch_loglik(self, data: _ToyData, omega: np.ndarray, phi=None, grad_weights=None):
        """Binomial log-likelihood and its omega-gradient for a (B, n) batch.

        ``grad_weights`` (M,) weight the records in the gradient only.
        """
        omega = np.atleast_2d(omega)
        n_rows, n_freq = omega.shape
        half_tau = 0.5 * data.tau
        dp_scale = data.tau / -n_freq                    # dp/domega_i = -(tau/n) t_i q_i
        if grad_weights is not None:
            dp_scale = dp_scale * grad_weights
        failures = data.reps - data.counts
        m = data.tau.size
        ll = np.empty(n_rows)
        grad = np.empty((n_rows, n_freq))
        for rows, _, work in _row_blocks(n_rows, n_freq, m, _TOY_BUFFERS):
            t = np.multiply(omega[rows, :, None], half_tau, out=work[0])       # (b, n, M)
            np.tan(t, out=t)
            q = np.multiply(t, t, out=work[1])
            q += 1.0
            np.reciprocal(q, out=q)                      # cos^2(x / 2)
            # the (b, M) terms take the head of a (b, n, M) buffer each: p and
            # the log terms the spare ones, dll/dp that of q, which is free
            # once summed into p and folded into t q
            p, terms, dll_dp = (buf.reshape(-1)[:t.shape[0] * m].reshape(-1, m)
                                for buf in (work[2], work[3], work[1]))
            q.sum(axis=1, out=p)
            t *= q                                       # sin(x / 2) cos(x / 2)
            p /= n_freq
            np.clip(p, 1e-12, 1.0 - 1e-12, out=p)
            np.log(p, out=terms)
            terms *= data.counts
            terms += data.log_binom
            np.log1p(np.negative(p, out=dll_dp), out=dll_dp)
            dll_dp *= failures
            terms += dll_dp
            ll[rows] = terms.sum(axis=1)
            np.divide(data.counts, p, out=terms)
            np.subtract(1.0, p, out=dll_dp)
            np.divide(failures, dll_dp, out=dll_dp)
            np.subtract(terms, dll_dp, out=dll_dp)                        # dll/dp
            dll_dp *= dp_scale
            np.matmul(t, dll_dp[:, :, None], out=grad[rows, :, None])
        return ll, grad, np.zeros((n_rows, 0))

    def record_loglik(self, record: MeasurementRecord, omega, phi=None) -> np.ndarray:
        """Binomial log-likelihood of one record at :meth:`outcome_prob`, one
        value per row of a (B, n) stack; used by the particle filter.

        It omits log C(R, c), constant in omega, which cancels in the particle
        weight normalisation.  ``benchmarks/reference.py`` pins these values.
        """
        p = self.outcome_prob(record.tau_us, record.n_pi, np.atleast_2d(omega), phi)
        np.clip(p, 1e-300, 1.0 - 1e-16, out=p)
        c = round(record.y * record.repetitions)
        return c * np.log(p) + (record.repetitions - c) * np.log1p(-p)


# ---------------------------------------------------------------------------
# dynamical-decoupling nano-NMR model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _DDRecords:
    """Per-record constants of the spin term, shaped to broadcast against the
    coupling arrays: tau, N_pi, beta = omega_L tau, cos beta, sin beta and
    1 - cos beta.

    ``ladder`` holds the bits of N_pi from the highest set one down, each
    True (every record has it), False (no record has it) or a record-shaped
    boolean mask.
    """

    tau: np.ndarray
    n_pi: np.ndarray
    beta: np.ndarray
    cb: np.ndarray
    sb: np.ndarray
    one_m_cb: np.ndarray
    ladder: tuple

    def take(self, cols: slice) -> "_DDRecords":
        """The records ``cols`` of the last axis, ladder masks included."""
        return _DDRecords(*(v[..., cols] for v in (self.tau, self.n_pi, self.beta, self.cb,
                                                  self.sb, self.one_m_cb)),
                          ladder=tuple(bit if isinstance(bit, bool) else bit[..., cols]
                                       for bit in self.ladder))


def _dd_records(tau, n_pi, omega_l) -> _DDRecords:
    if not np.all(np.asarray(omega_l) > 0):
        raise ModelError("omega_l must be positive")
    tau = np.asarray(tau, dtype=float)
    n_pi = np.asarray(n_pi, dtype=float)
    n = n_pi.astype(np.int64)
    if np.any(n != n_pi) or np.any(n < 1):
        raise ModelError(f"n_pi must be positive integers, got {n_pi}")
    ladder = []
    for j in range(int(n.max(initial=1)).bit_length() - 1, -1, -1):
        bit = ((n >> j) & 1).astype(bool)
        ladder.append(True if bit.all() else bit if bit.any() else False)
    beta = omega_l * tau
    cb = np.cos(beta)
    return _DDRecords(tau=tau, n_pi=n_pi, beta=beta, cb=cb, sb=np.sin(beta),
                      one_m_cb=1.0 - cb, ladder=tuple(ladder))


def _spin_axes(a_z, a_perp, omega_l):
    """Precession rate w = |(omega_L + A_z, A_perp)|, m_z = (omega_L + A_z) / w
    and u = m_x^2 = A_perp^2 / w^2 of each spin."""
    r = a_z + omega_l
    wsq = r * r + a_perp * a_perp
    w = np.sqrt(wsq)
    return w, r / w, (a_perp * a_perp) / wsq


def _chebyshev(c, ladder, with_u: bool, buf):
    """2 T_N(c) and U_{N-1}(c) by the binary ladder of ``_spin_term_core``.

    Every record starts from (T_0, U_{-1}) = (1, 0).  U is carried when the
    caller reads it or a step after the first reads it; otherwise None.
    """
    first = ladder[0]
    keep_u = with_u or sum(bit is not False for bit in ladder) > 1
    x = np.multiply(c, 2.0, out=next(buf))           # (2 T_1, U_0) = (2c, 1)
    u = next(buf) if keep_u else None
    if first is not True:                            # (2 T_0, U_-1) = (2, 0) below the top bit
        np.copyto(x, 2.0, where=~first)
    if u is not None and len(ladder) == 1:
        np.copyto(u, first)
    elif u is not None:                              # U_1 = 2 T_1 U_0 of the first doubling,
        np.multiply(x, first, out=u)                 # and 2 T_0 U_-1 = 0 below the top bit
    two_s2 = spare_x = spare_u = None
    for i, bit in enumerate(ladder[1:]):
        if i and u is not None:
            u *= x                                   # U_{2a-1} = 2 T_a U_{a-1}
        np.multiply(x, x, out=x)
        x -= 2.0                                     # 2 T_2a = (2 T_a)^2 - 2
        if bit is False:
            continue
        if two_s2 is None:
            two_s2 = np.multiply(c, c, out=next(buf))
            two_s2 *= -2.0
            two_s2 += 2.0                            # 2 (1 - c^2)
            spare_x, spare_u = next(buf), next(buf)
        np.multiply(c, u, out=spare_u)               # U_a = c U_{a-1} + T_a
        spare_u *= 2.0
        spare_u += x
        spare_u *= 0.5
        if bit is True:                              # 2 T_{a+1} = c 2 T_a - 2 (1 - c^2) U_{a-1}
            np.multiply(c, x, out=spare_x)
            u *= two_s2
            spare_x -= u
            x, spare_x, u, spare_u = spare_x, x, spare_u, u
        else:
            np.copyto(x, c * x - two_s2 * u, where=bit)
            np.copyto(u, spare_u, where=bit)
    return x, u


def _spin_term_core(a_z, a_perp, rec: _DDRecords, omega_l, with_grad: bool, work):
    """Single-spin modulation M = 1 - u g for every (spin, record) pair.

    With w, m_z and u = m_x^2 from :func:`_spin_axes`, alpha = w tau and
    beta = omega_L tau,

        cos phi = cos alpha cos beta - m_z sin alpha sin beta,
        g = (1 - cos alpha)(1 - cos beta) sin^2(N_pi phi / 2) / (1 + cos phi).

    The alpha terms come from one ``tan`` pass (:func:`_half_angle`), so
    1 - cos alpha is free of cancellation.  The phase enters
    only through Chebyshev polynomials of c = cos phi (Mason & Handscomb,
    2003): sin^2(N phi / 2) = (1 - T_N(c)) / 2, and its c-derivative is
    -N U_{N-1}(c) / 2, exact at |c| = 1 where sin(N phi) / sin(phi) is a
    limit.  Both come from a ladder over the bits of N, highest first:
    doubling T_2a = 2 T_a^2 - 1, U_{2a-1} = 2 T_a U_{a-1}, then, where the
    bit is set, T_{a+1} = c T_a - (1 - c^2) U_{a-1}, U_a = c U_{a-1} + T_a.
    A bit that no record has skips the step and one that every record has
    needs no mask, so any N costs O(log N) passes.

    The denominator 1 + cos phi falls back to the algebraically identical
    form 2 cos^2((alpha + beta) / 2) + (1 - m_z) sin alpha sin beta wherever
    it cancels below 1e-12.

    Returns M, or with ``with_grad`` (M, g, tau dg/dalpha, dg/dm_z): the
    rest of dM/dA = -(du/dA g + u (dg/dalpha dalpha/dA + dg/dm_z dm_z/dA))
    depends on the spin alone, so a caller sums these three record-level
    factors over records first and applies the per-spin chain rule after.
    ``work``, a (``_KERNEL_BUFFERS``, *shape) array, supplies every full-size
    temporary and holds the results.
    """
    w, m_z, u = _spin_axes(a_z, a_perp, omega_l)
    buf = iter(work)
    t = np.multiply(0.5 * w, rec.tau, out=next(buf))
    sa, numer, ca = _half_angle(t, next(buf), next(buf))   # sin, 1 - cos, cos alpha
    sasb = np.multiply(sa, rec.sb, out=next(buf))
    den = np.multiply(sasb, m_z, out=next(buf))
    c = np.multiply(ca, rec.cb, out=next(buf))
    c -= den
    np.clip(c, -1.0, 1.0, out=c)                     # cos phi
    np.add(c, 1.0, out=den)
    if den.size and den.min() < 1e-12:
        unstable = den < 1e-12
        at = lambda v: np.broadcast_to(v, den.shape)[unstable]
        half = np.cos(0.5 * (at(w) * at(rec.tau) + at(rec.beta)))
        den[unstable] = np.maximum(2.0 * half * half + (1.0 - at(m_z)) * sasb[unstable], 1e-300)
    inv_den = np.reciprocal(den, out=den)
    # (1 - cos alpha)(1 - cos beta) / 4 and 4 sin^2(N phi / 2) = 2 - 2 T_N: the
    # powers of two cancel exactly in g and in the factors below
    numer *= 0.25 * rec.one_m_cb
    h, cheb_u = _chebyshev(c, rec.ladder, with_grad, buf)
    np.subtract(2.0, h, out=h)
    h *= inv_den
    g = np.multiply(numer, h, out=c)
    m_val = np.multiply(u, g, out=next(buf))
    np.subtract(1.0, m_val, out=m_val)
    np.clip(m_val, -1.0, 1.0, out=m_val)
    if not with_grad:
        return m_val

    qn = cheb_u                                      # -dg/dcos phi =
    qn *= 2.0 * rec.n_pi                             # (g + N/2 U_{N-1} numer) / (1 + cos phi)
    qn *= numer
    qn += g
    qn *= inv_den
    dg_dmz = np.multiply(sasb, qn, out=sasb)
    np.multiply(ca, m_z, out=ca)
    ca *= rec.tau * rec.sb
    tau_dg_da = np.multiply(sa, rec.tau * rec.cb, out=numer)
    tau_dg_da += ca
    tau_dg_da *= qn                                  # through cos phi, plus
    h *= 0.25 * rec.tau * rec.one_m_cb
    h *= sa
    tau_dg_da += h                                   # through 1 - cos alpha
    return m_val, g, tau_dg_da, dg_dmz


def _row_blocks(n: int, k: int, m: int, buffers: int, split: bool = False):
    """(rows, cols, workspace) triples covering n independent rows of (k, m)
    elements in blocks of about ``_BLOCK_ELEMS`` elements, which share one
    workspace of ``buffers`` contiguous (rows, k, cols) arrays; a caller that
    wants the k axis outermost, as the DD kernels and
    :func:`toy_outcome_prob` do, reshapes each buffer to (k, rows, cols).
    Fresh multi-megabyte temporaries would be page-faulted in on every call
    and evicted from cache.  Rows are never split unless ``split``, which
    splits a row of more than ``_BLOCK_ELEMS`` elements along m as well; a
    caller that reduces over m must not ask for it.  An element's result does
    not depend on the block size."""
    width = max(1, _BLOCK_ELEMS // k) if split and k * m > _BLOCK_ELEMS else max(m, 1)
    step = max(1, _BLOCK_ELEMS // max(1, k * width))
    flat = np.empty(buffers * min(step, n) * k * width)
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        for c in range(0, max(m, 1), width):
            cols = slice(c, min(c + width, m))
            shape = (buffers, rows.stop - lo, k, cols.stop - c)
            yield rows, cols, flat[:math.prod(shape)].reshape(shape)


def dd_single_spin_term(a_z, a_perp, tau, n_pi, omega_l):
    """Coherence modulation M(A_k, tau, N_pi) of one nuclear spin, in [-1, 1]."""
    shape = np.broadcast(a_z, a_perp, tau, n_pi, omega_l).shape
    a_z, a_perp, tau, n_pi, omega_l = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel()
                                       for v in (a_z, a_perp, tau, n_pi, omega_l))
    out = _spin_term_core(a_z, a_perp, _dd_records(tau, n_pi, omega_l), omega_l, False,
                          np.empty((_KERNEL_BUFFERS, a_z.size))).reshape(shape)
    if np.any(np.isnan(out)):
        raise ModelError(f"spin term is NaN for a_z={a_z}, a_perp={a_perp}, tau={tau}, "
                         f"n_pi={n_pi}, omega_l={omega_l}")
    return float(out) if out.ndim == 0 else out


def dd_outcome_prob(tau, n_pi, couplings, phi: NuisanceParams, omega_l, eta_stretch: float = 1.0):
    """p(y=0) = (1 + exp(-(N_pi tau / T2)^eta_stretch) * prod_k M_k) / 2.

    ``couplings`` is one interleaved (A_z, A_perp) vector or a (B, 2K) stack
    of them; a stack gives one row of probabilities per vector, equal to the
    single-vector calls.  ``tau`` and ``n_pi`` broadcast against each other.
    """
    a = np.asarray(couplings, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] % 2:
        raise ModelError("couplings must be an (A_z, A_perp) interleaved vector "
                         "or a stack of them")
    shape = np.broadcast(tau, n_pi).shape
    tau, n_pi = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel() for v in (tau, n_pi))
    rec = _dd_records(tau, n_pi, omega_l)
    stack = np.atleast_2d(a)
    prod = np.empty((stack.shape[0], tau.size))
    for rows, cols, work in _row_blocks(stack.shape[0], stack.shape[1] // 2, tau.size,
                                        _KERNEL_BUFFERS, split=True):
        work = work.reshape(work.shape[0], work.shape[2], work.shape[1], work.shape[3])
        m = _spin_term_core(stack[rows, 0::2].T[:, :, None], stack[rows, 1::2].T[:, :, None],
                            rec.take(cols), omega_l, False, work)       # (K, b, cols)
        m.prod(axis=0, out=prod[rows, cols])
    if np.any(np.isnan(prod)):
        raise ModelError(f"spin term is NaN for couplings={a}, tau={tau}, n_pi={n_pi}")
    envelope = np.multiply(n_pi, tau)
    envelope *= phi.t2_inv
    np.power(envelope, eta_stretch, out=envelope)
    np.negative(envelope, out=envelope)
    np.exp(envelope, out=envelope)
    prod *= envelope
    prod += 1.0
    prod *= 0.5                                      # p0 = (1 + envelope prod) / 2
    p0 = np.clip(prod, 0.0, 1.0, out=prod).reshape(a.shape[:-1] + shape)
    return float(p0) if p0.ndim == 0 else p0


@dataclass(frozen=True)
class _DDData:
    rec: _DDRecords      # record constants shaped (1, 1, M) against (K, B, 1) couplings
    y: np.ndarray        # (M,)
    seq_time: np.ndarray  # (M,) N_pi * tau


class DDModel:
    """Gaussian outcome model for DD spin identification.

    Evaluates batches of candidate coupling vectors A (interleaved
    A_z,1, A_perp,1, ...) against a dataset, with analytic gradients w.r.t.
    A and the nuisances (T2^-1, chi, eta).  The model is exactly symmetric
    under A_perp -> -A_perp and under permutations of the spin blocks.
    """

    n_nuisance = 3

    def __init__(self, k_spins: int, omega_l: float, eta_stretch: float = 1.0):
        if k_spins < 0:
            raise ModelError("spin count must be nonnegative")
        if omega_l <= 0:
            raise ModelError("omega_l must be positive")
        self.k_spins = k_spins
        self.omega_l = float(omega_l)
        self.eta_stretch = float(eta_stretch)

    @property
    def dim(self) -> int:
        return 2 * self.k_spins

    def outcome_prob(self, tau, n_pi, couplings, phi: NuisanceParams):
        """p(b = 1) = 1 - p(y=0) of :func:`dd_outcome_prob`, shaped as it shapes p(y=0)."""
        return 1.0 - dd_outcome_prob(tau, n_pi, couplings, phi, self.omega_l, self.eta_stretch)

    def prepare(self, records) -> _DDData:
        tau = np.array([r.tau_us for r in records])
        n_pi = np.array([r.n_pi for r in records], dtype=float)
        return _DDData(
            rec=_dd_records(tau[None, None, :], n_pi[None, None, :], self.omega_l),
            y=np.array([r.y for r in records]),
            seq_time=n_pi * tau,
        )

    def batch_loglik(self, data: _DDData, a: np.ndarray, phi: NuisanceParams,
                     grad_weights=None):
        """Summed Gaussian log-likelihood, dA (B, 2K) and dphi (B, 3).

        ``grad_weights`` (M,) weight the records in both gradients only.
        The samples run in the spin-major row blocks of :func:`_row_blocks`;
        the per-spin chain rule runs once, over all rows.
        """
        a = np.atleast_2d(np.asarray(a, dtype=float))
        if a.shape[1] != self.dim:
            raise ModelError(f"expected {self.dim} couplings, got {a.shape[1]}")
        damp_arg = data.seq_time * phi.t2_inv
        envelope = np.exp(-np.power(damp_arg, self.eta_stretch))           # (M,)
        if phi.t2_inv > 0:
            denv = -envelope * self.eta_stretch * np.power(damp_arg, self.eta_stretch) / phi.t2_inv
        else:
            denv = -envelope * data.seq_time if self.eta_stretch == 1.0 else np.zeros_like(envelope)
        n = a.shape[0]
        ll = np.empty(n)
        grad_phi = np.empty((n, 3))
        sums = np.empty((3, n, self.k_spins))
        for rows, _, work in _row_blocks(n, self.k_spins, data.y.size, _KERNEL_BUFFERS + 2):
            work = work.reshape(work.shape[0], work.shape[2], work.shape[1], work.shape[3])
            self._block_loglik(data, a[rows], phi, envelope, denv, grad_weights, work,
                               ll[rows], grad_phi[rows], sums[:, rows])
        # dM/dA = -(du/dA g + u (dg/dalpha dalpha/dA + dg/dm_z dm_z/dA)) with
        # dalpha/dA = tau (m_z, A_perp / w); s_a already carries the tau
        s_g, s_a, s_z = sums
        a_z, a_perp = a[:, 0::2], a[:, 1::2]
        w, m_z, u = _spin_axes(a_z, a_perp, self.omega_l)                   # (B, K)
        wsq = w * w
        du_daz, dmz_daz = -2.0 * u * m_z / w, u / w
        du_dap, dmz_dap = 2.0 * a_perp * m_z * m_z / wsq, -m_z * a_perp / wsq
        grad_a = np.empty_like(a)
        grad_a[:, 0::2] = -(du_daz * s_g + u * (m_z * s_a + dmz_daz * s_z))
        grad_a[:, 1::2] = -(du_dap * s_g + u * (a_perp / w * s_a + dmz_dap * s_z))
        return ll, grad_a, grad_phi

    def _block_loglik(self, data: _DDData, a, phi: NuisanceParams, envelope, denv, grad_weights,
                      work, ll, grad_phi, sums):
        """Fill ``ll``, ``grad_phi`` and the record sums ``sums`` = (s_g, s_a,
        s_z) of the rows ``a`` from a spin-major (buffers, K, b, M) workspace."""
        global _variance_floor_count
        a_z, a_perp = a[:, 0::2].T[:, :, None], a[:, 1::2].T[:, :, None]        # (K, b, 1)
        m, g, tau_dg_da, dg_dmz = _spin_term_core(a_z, a_perp, data.rec, self.omega_l, True,
                                                  work[:-2])                      # (K, b, M)
        # leave-one-out products keep gradients finite when some M_k ~ 0: prefix
        # and suffix products over contiguous spin slices (np.cumprod along
        # the spin axis takes about seven times as long)
        loo, right = work[-2], work[-1]
        k = self.k_spins
        loo[:1] = 1.0
        right[-1:] = 1.0
        for j in range(1, k):
            np.multiply(loo[j - 1], m[j - 1], out=loo[j])
            np.multiply(right[k - j], m[k - j], out=right[k - j - 1])
        prod = loo[-1] * m[-1] if k else np.ones((a.shape[0], data.y.size))
        loo *= right

        # the (b, M) stage, in place: p1, its variance and the derivatives
        p1 = np.multiply(prod, envelope)
        np.subtract(1.0, p1, out=p1)
        p1 *= 0.5
        np.clip(p1, 0.0, 1.0, out=p1)
        pq = np.subtract(1.0, p1)
        pq *= p1
        var = np.multiply(pq, phi.chi)
        var += phi.eta ** 2
        floored = var < VARIANCE_FLOOR
        any_floored = floored.any()
        if any_floored:
            _variance_floor_count += int(np.count_nonzero(floored))
            np.maximum(var, VARIANCE_FLOOR, out=var)
        resid = np.subtract(data.y, p1)
        resid_sq = np.multiply(resid, resid)
        two_var = np.multiply(var, 2.0)
        terms = np.log(var)
        terms += LOG_TWO_PI
        terms *= -0.5
        quot = np.divide(resid_sq, two_var)
        terms -= quot
        terms.sum(axis=1, out=ll)

        two_var *= var
        np.divide(resid_sq, two_var, out=resid_sq)
        dll_dvar = np.divide(-0.5, var, out=quot)
        dll_dvar += resid_sq
        if any_floored:
            dll_dvar[floored] = 0.0
        if grad_weights is not None:
            resid *= grad_weights
            dll_dvar *= grad_weights
        dll_dp1 = np.divide(resid, var, out=resid)        # + dll/dvar chi (1 - 2 p1)
        np.multiply(p1, 2.0, out=p1)
        np.subtract(1.0, p1, out=p1)
        p1 *= np.multiply(dll_dvar, phi.chi, out=two_var)
        dll_dp1 += p1

        # dll/dM_k = dll/dp1 (-envelope / 2) prod_{j != k} M_j, summed over
        # records against g and its partials before the per-spin factors
        loo *= np.multiply(dll_dp1, -0.5 * envelope, out=p1)
        for s, factor in zip(sums, (g, tau_dg_da, dg_dmz)):
            np.einsum("kbm,kbm->bk", loo, factor, out=s)
        prod *= -0.5 * denv
        prod *= dll_dp1
        prod.sum(axis=1, out=grad_phi[:, 0])
        pq *= dll_dvar
        pq.sum(axis=1, out=grad_phi[:, 1])
        dll_dvar *= 2.0
        dll_dvar *= phi.eta
        dll_dvar.sum(axis=1, out=grad_phi[:, 2])

    def record_loglik(self, record: MeasurementRecord, couplings, phi) -> np.ndarray:
        """Log-likelihood of one record under each row of a (B, 2K) stack."""
        p1 = self.outcome_prob(record.tau_us, record.n_pi, np.atleast_2d(couplings), phi)
        return gaussian_outcome_loglik(record.y, p1, phi.chi, phi.eta)


class GaussianLocationModel:
    """y ~ N(theta, noise_std^2) for scalar theta; conjugate test instrument.

    With a Gaussian prior the exact posterior and evidence are closed-form,
    which makes this the oracle model for ELBO and particle-filter checks.
    """

    n_nuisance = 0

    def __init__(self, noise_std: float = 1.0):
        if noise_std <= 0:
            raise ModelError("noise_std must be positive")
        self.noise_std = float(noise_std)

    def prepare(self, records) -> np.ndarray:
        return np.array([r.y for r in records])

    def batch_loglik(self, data: np.ndarray, theta: np.ndarray, phi=None, grad_weights=None):
        theta = np.atleast_2d(theta)
        var = self.noise_std ** 2
        resid = data[None, :] - theta  # (B, M) via broadcasting, d = 1
        ll = (-0.5 * (LOG_TWO_PI + math.log(var)) - resid * resid / (2.0 * var)).sum(axis=1)
        w = 1.0 if grad_weights is None else grad_weights
        grad = (w * resid / var).sum(axis=1, keepdims=True)
        return ll, grad, np.zeros((theta.shape[0], 0))

    def record_loglik(self, record: MeasurementRecord, theta: np.ndarray) -> np.ndarray:
        theta = np.atleast_2d(theta)[:, 0]
        return log_gaussian_density(record.y, theta, self.noise_std ** 2)


def log_joint(records, theta, phi, model) -> float:
    """Compensated sum of per-record log-likelihoods (order-independent)."""
    if not records:
        raise ValueError("dataset must be non-empty")
    theta = np.asarray(theta, dtype=float)
    return math.fsum(float(model.record_loglik(r, theta, phi)[0]) for r in records)
