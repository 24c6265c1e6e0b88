"""Sequential Monte Carlo baseline and the sorted-frequency error metric.

The particle filter keeps N_p weighted hypotheses, reweights them record by
record through Bayes' rule, and fights weight degeneracy with systematic
resampling plus a Liu-West shrinkage move (a = 0.98) whenever the effective
sample size drops below N_p / 2.  An update allocates one new particle
array per resample and never writes into the ensemble it is given.

The filter is label-aware: each particle keeps its coordinates sorted
ascending, one representative per permutation class (Stephens, JRSS B 62:795,
2000).  That is exact only when the likelihood and the prior box are
symmetric under permutations of the coordinates, as the toy model's
frequencies in a box with equal sides are, and any d = 1 model; a model
whose coordinates carry distinct meanings must not be filtered here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .probcore import RngStream

LIU_WEST_A = 0.98

@dataclass
class ParticleEnsemble:
    """Weighted hypotheses over the parameter box; weights live on the simplex."""

    particles: np.ndarray            # (N_p, d)
    weights: np.ndarray              # (N_p,)
    rng: RngStream = field(repr=False, default=None)
    degenerate_resets: int = 0

    @property
    def n_particles(self) -> int:
        return self.particles.shape[0]

    def ess(self) -> float:
        return 1.0 / float(np.sum(self.weights ** 2))

def pf_init(prior_low, prior_high, n_particles: int, rng: RngStream) -> ParticleEnsemble:
    """Uniform particles over the prior box with uniform weights, each
    particle's coordinates sorted ascending (exact for a permutation-symmetric
    likelihood and box; see the module docstring)."""
    if n_particles < 2:
        raise ValueError("need at least two particles")
    low = np.atleast_1d(np.asarray(prior_low, dtype=float))
    high = np.atleast_1d(np.asarray(prior_high, dtype=float))
    particles = rng.uniform(low, high, size=(n_particles, low.size))
    particles.sort(axis=1)
    weights = np.full(n_particles, 1.0 / n_particles)
    return ParticleEnsemble(particles=particles, weights=weights, rng=rng)

def _systematic_resample(weights: np.ndarray, rng: RngStream) -> np.ndarray:
    """Indices of N systematic draws from ``weights``.

    The last position can exceed a cumulative sum that rounds below 1, so
    the indices are clamped to N - 1.
    """
    n = weights.size
    positions = (rng.uniform() + np.arange(n)) / n
    idx = np.searchsorted(np.cumsum(weights), positions)
    return np.minimum(idx, n - 1, out=idx)

def pf_update(ens: ParticleEnsemble, record, model) -> ParticleEnsemble:
    """One Bayes update; resamples with Liu-West moves when ESS < N_p / 2.

    Returns a new ensemble and never writes into ``ens``: a reweight keeps
    its ``particles`` array, and a resample allocates one new particle array
    and moves the resampled particles in place in it, then sorts each moved
    particle's coordinates in place, which is exact for a
    permutation-symmetric likelihood and box (see the module docstring).
    The temporaries of the move are reused for the jitter draws and their
    scaling.  The RNG the new ensemble carries is shared with (and advanced
    for) the parent, so updates must stay single-threaded per ensemble.
    """
    log_w = np.log(ens.weights + 1e-300)
    log_w += model.record_loglik(record, ens.particles)
    top = np.max(log_w)
    if not np.isfinite(top):
        # all weights underflowed: reset to uniform and flag it
        weights = np.full(ens.n_particles, 1.0 / ens.n_particles)
        return replace(ens, weights=weights, degenerate_resets=ens.degenerate_resets + 1)
    log_w -= top
    w = np.exp(log_w, out=log_w)
    w /= w.sum()

    reweighted = replace(ens, weights=w)
    if reweighted.ess() >= ens.n_particles / 2.0:
        return reweighted

    mean = w @ ens.particles
    centered = ens.particles - mean
    weighted = centered * w[:, None]
    cov = weighted.T @ centered
    idx = _systematic_resample(w, ens.rng)
    moved = np.take(ens.particles, idx, axis=0)
    moved *= LIU_WEST_A
    moved += (1.0 - LIU_WEST_A) * mean                     # shrunk toward the mean
    h2 = 1.0 - LIU_WEST_A ** 2
    d = ens.particles.shape[1]
    factor = np.linalg.cholesky(h2 * cov + 1e-30 * np.eye(d))
    z = ens.rng.standard_normal(out=centered)
    moved += np.matmul(z, factor.T, out=weighted)          # jitter ~ N(0, h2 cov)
    moved.sort(axis=1)
    return replace(ens, particles=moved,
                   weights=np.full(ens.n_particles, 1.0 / ens.n_particles))

def pf_run(ens: ParticleEnsemble, records, model) -> ParticleEnsemble:
    """Process records in ascending-tau order (coarse to fine)."""
    for record in sorted(records, key=lambda r: r.tau_us):
        ens = pf_update(ens, record, model)
    return ens

def pf_estimate(ens: ParticleEnsemble) -> np.ndarray:
    """Weighted posterior mean per dimension."""
    return ens.weights @ ens.particles

def sorted_square_error(estimate, truth) -> float:
    """Mean squared error after sorting both vectors ascending.

    For scalars this is the minimum over all label permutations (rearrangement
    inequality), which removes the unidentifiable labeling.
    """
    est = np.sort(np.asarray(estimate, dtype=float))
    tru = np.sort(np.asarray(truth, dtype=float))
    if est.shape != tru.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {tru.shape}")
    return float(np.mean((est - tru) ** 2))

def prior_mode_baseline_error(n: int, trials: int, rng: RngStream) -> float:
    """Expected sorted error with no data: both vectors drawn from the prior.

    Closed form is 1/(3(n+1)); the Monte-Carlo estimate decreases in n.
    """
    if n < 1:
        raise ValueError("need at least one frequency")
    if trials < 1:
        raise ValueError("need at least one trial")
    a = np.sort(rng.uniform(0.0, 1.0, (trials, n)), axis=1)
    b = np.sort(rng.uniform(0.0, 1.0, (trials, n)), axis=1)
    return float(np.mean((a - b) ** 2))
