"""Post-training model selection and reporting.

Posterior draws are thresholded and pruned to a spin count (the model class),
classes get pseudo-Bayesian probabilities from their sample fractions, the
per-class samples are marginalized to 2D (A_z, A_perp) points and clustered,
and clusters are scored against a ground truth with Mahalanobis gating.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation
from .probcore import RngStream

DEFAULT_APERP_THRESHOLD = 0.05   # angular MHz (50 kHz)
DEFAULT_AZ_MAX = 0.5             # reporting window on the parallel coupling
DEFAULT_MAHALANOBIS_T = 4.0
DEFAULT_DRAWS = 4096


def threshold_and_prune(theta, aperp_threshold: float, az_max: float = DEFAULT_AZ_MAX):
    """Drop spins with |A_perp| below threshold (or A_z >= az_max).

    ``theta`` is the interleaved (A_z, A_perp) vector of one posterior draw.
    Returns (class n, (n, 2) array of kept spins with A_perp as |A_perp|).
    Idempotent: pruning a pruned draw changes nothing.
    """
    theta = np.asarray(theta, dtype=float)
    az = theta[0::2]
    ap = np.abs(theta[1::2])
    keep = (ap >= aperp_threshold) & (az < az_max)
    spins = np.column_stack([az[keep], ap[keep]])
    return int(keep.sum()), spins


@dataclass
class PosteriorSampleSet:
    """Z thresholded draws partitioned into class sets with probabilities."""

    z: int
    raw: np.ndarray                      # (Z, 2K) unpruned draws
    classes: np.ndarray                  # (Z,) spin count per draw
    class_sets: dict                     # n -> list of (n, 2) spin arrays
    probabilities: dict                  # n -> |S_n| / Z
    map_class: int
    aperp_threshold: float
    az_max: float


def build_sample_set(raw_draws, aperp_threshold: float,
                     az_max: float = DEFAULT_AZ_MAX) -> PosteriorSampleSet:
    raw = np.atleast_2d(np.asarray(raw_draws, dtype=float))
    z = raw.shape[0]
    classes = np.empty(z, dtype=int)
    class_sets: dict = {}
    for i in range(z):
        n, spins = threshold_and_prune(raw[i], aperp_threshold, az_max)
        classes[i] = n
        class_sets.setdefault(n, []).append(spins)
    probs = class_probabilities(classes)
    return PosteriorSampleSet(z=z, raw=raw, classes=classes, class_sets=class_sets,
                              probabilities=probs, map_class=map_class(probs),
                              aperp_threshold=aperp_threshold, az_max=az_max)


def class_probabilities(classes) -> dict:
    """p_c = |S_c| / Z from a sequence of class labels."""
    classes = np.asarray(classes, dtype=int)
    if classes.size == 0:
        raise ValueError("need at least one draw")
    labels, counts = np.unique(classes, return_counts=True)
    return {int(c): int(k) / classes.size for c, k in zip(labels, counts)}


def map_class(probabilities: dict) -> int:
    """argmax p_c; ties resolved toward the smaller class."""
    best = max(probabilities.values())
    return min(c for c, p in probabilities.items() if p == best)


def marginalize_spins(samples) -> np.ndarray:
    """Break inter-spin correlations: n-spin samples -> n * |S_n| 2D points."""
    if not samples:
        raise ContractViolation("empty class set")
    n = len(samples[0])
    if any(len(s) != n for s in samples):
        raise ContractViolation("mixed classes in marginalize_spins input")
    return np.concatenate([np.asarray(s, dtype=float).reshape(n, 2) for s in samples])


# ---------------------------------------------------------------------------
# k-means with inertia-based cluster count
# ---------------------------------------------------------------------------


def _kmeans_once(points: np.ndarray, k: int, rng: RngStream, iters: int = 60):
    n = points.shape[0]
    centers = np.empty((k, 2))
    centers[0] = points[int(rng.integers(0, n))]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):  # k-means++ seeding
        total = d2.sum()
        if total <= 0:
            centers[j:] = points[int(rng.integers(0, n))]
            break
        centers[j] = points[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))
    sq_norms = np.sum(points * points, axis=1)
    labels = np.zeros(n, dtype=int)
    for _ in range(iters):
        dist = sq_norms[:, None] - 2.0 * points @ centers.T + np.sum(centers * centers, axis=1)
        new_labels = dist.argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        filled = counts > 0
        for c in range(2):
            centers[filled, c] = (np.bincount(new_labels, weights=points[:, c], minlength=k)[filled]
                                  / counts[filled])
        if not filled.all():  # re-seed empty clusters at the worst-fit point
            centers[~filled] = points[int(np.argmax(dist.min(axis=1)))]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    inertia = float(np.sum((points - centers[labels]) ** 2))
    return labels, centers, inertia


def _kmeans(points: np.ndarray, k: int, rng: RngStream, restarts: int = 20):
    best = None
    for _ in range(restarts):
        out = _kmeans_once(points, k, rng)
        if best is None or out[2] < best[2]:
            best = out
    return best


# A split that separates two distinct modes removes nearly all of their
# inertia; halving one Gaussian cloud removes at most 2/pi ~ 64% of its own
# inertia (57% measured on a desk-scale spin cloud) and less of the total.
SPLIT_IMPROVEMENT = 0.8


def _select_cluster_count(points: np.ndarray, n: int, n_max: int, rng: RngStream):
    """Cluster count and k-means result for the marginalized cloud of an n-spin class.

    Starts at one cluster per spin of the class, k = n, and adds a cluster
    while that cuts the total inertia by at least ``SPLIT_IMPROVEMENT``, so only
    mode-separating splits are taken, up to ``n_max``.  Returns
    (k, (labels, centers, inertia)).
    """
    k, best = n, _kmeans(points, n, rng)
    while k < n_max and best[2] > 1e-30:
        trial = _kmeans(points, k + 1, rng)
        if best[2] - trial[2] < SPLIT_IMPROVEMENT * best[2]:
            break
        k, best = k + 1, trial
    return k, best


@dataclass
class Cluster:
    mu: np.ndarray          # (A_z, A_perp) center
    sigma: np.ndarray       # 2x2 biased covariance
    weight: float           # average number of spins represented (#S)


def cluster_spins(points: np.ndarray, n: int, seed: int = 0) -> list[Cluster]:
    """K-means over the marginalized single-spin cloud of an n-spin class.

    Every draw of the class holds n spins, so the count starts at one cluster
    per spin, n.  It grows past n (up to 2n) only while a split cuts the
    inertia by at least ``SPLIT_IMPROVEMENT``, because a multimodal single-spin
    posterior legitimately splits into several fractional-weight clusters.
    On the desk-scale spin-identification fits every well-separated spin
    cloud gets one cluster.
    Weights are |K_j| / |S_n| so they sum to n; covariances of clusters with
    fewer than three points get a 1e-12 ridge.
    """
    points = np.asarray(points, dtype=float)
    if n < 1:
        raise ValueError("class must contain at least one spin")
    if points.shape[0] < n or points.shape[0] % n:
        raise ValueError("point count must be a positive multiple of the class size")
    n_samples = points.shape[0] // n
    rng = RngStream(seed)
    l_n, (labels, _, _) = _select_cluster_count(points, n, min(2 * n, points.shape[0]), rng)
    clusters = []
    for j in range(l_n):
        members = points[labels == j]
        mu = members.mean(axis=0)
        centered = members - mu
        sigma = centered.T @ centered / members.shape[0]
        if members.shape[0] < 3:
            sigma = sigma + 1e-12 * np.eye(2)
        clusters.append(Cluster(mu=mu, sigma=sigma, weight=members.shape[0] / n_samples))
    return clusters


# ---------------------------------------------------------------------------
# machine-learning metrics against a ground truth
# ---------------------------------------------------------------------------


def mahalanobis_distance(mu: np.ndarray, sigma: np.ndarray, point: np.ndarray) -> float:
    """sqrt((mu - point)^T Sigma^{-1} (mu - point)); ridge-regularized if singular."""
    diff = np.asarray(mu, dtype=float) - np.asarray(point, dtype=float)
    try:
        solved = np.linalg.solve(sigma, diff)
    except np.linalg.LinAlgError:
        warnings.warn("singular cluster covariance; adding 1e-12 ridge")
        solved = np.linalg.solve(sigma + 1e-12 * np.eye(sigma.shape[0]), diff)
    return float(math.sqrt(max(diff @ solved, 0.0)))


@dataclass
class MetricsReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    matches: list = field(default_factory=list)   # (spin index, cluster index, distance)


def _match_spins(clusters, truth: np.ndarray, t: float):
    """Assign each true spin to its nearest flagging cluster.

    Clusters whose weight rounds to zero represent no spins (they contribute
    no counts either way), so they cannot claim matches.
    """
    eligible = [(j, c) for j, c in enumerate(clusters) if round(c.weight) >= 1]
    matches = []
    for k, spin in enumerate(truth):
        dists = [(mahalanobis_distance(c.mu, c.sigma, spin), j) for j, c in eligible]
        if not dists:
            continue
        d, j = min(dists)
        if d <= t:
            matches.append((k, j, d))
    return matches


def ml_metrics(clusters, truth, t: float = DEFAULT_MAHALANOBIS_T) -> MetricsReport:
    """Precision/recall/F1 from Mahalanobis-gated true positives.

    Per cluster, false positives are the excess of the (half-even) rounded
    weight over its matched spins, counted only when positive; unmatched true
    spins are false negatives.
    """
    if t <= 0:
        raise ValueError("gate threshold must be positive")
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    matches = _match_spins(clusters, truth, t)
    tp_per_cluster = np.zeros(len(clusters), dtype=int)
    for _, j, _ in matches:
        tp_per_cluster[j] += 1
    tp = len(matches)
    fp = 0
    for j, cluster in enumerate(clusters):
        excess = round(cluster.weight) - int(tp_per_cluster[j])  # round() is half-even
        if excess > 0:
            fp += excess
    fn = truth.shape[0] - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    return MetricsReport(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall,
                         f1=f1, matches=matches)


@dataclass
class HyperfineErrors:
    mean_daz_khz: float
    mean_dap_khz: float
    n_matched: int


def hyperfine_errors(clusters, truth, t: float = DEFAULT_MAHALANOBIS_T) -> HyperfineErrors | None:
    """Mean absolute TP errors in kHz, spins matched to their flagging cluster.

    Returns None (flagged by a warning) when nothing was matched.
    """
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    matches = _match_spins(clusters, truth, t)
    if not matches:
        warnings.warn("no true positives; hyperfine error report absent")
        return None
    daz = [abs(clusters[j].mu[0] - truth[k][0]) for k, j, _ in matches]
    dap = [abs(clusters[j].mu[1] - truth[k][1]) for k, j, _ in matches]
    return HyperfineErrors(mean_daz_khz=1e3 * float(np.mean(daz)),
                           mean_dap_khz=1e3 * float(np.mean(dap)),
                           n_matched=len(matches))


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def selection_report(sample_set: PosteriorSampleSet, clusters,
                     metrics: MetricsReport | None = None,
                     errors: HyperfineErrors | None = None) -> dict:
    report = {
        "Z": sample_set.z,
        "p_c": {str(c): p for c, p in sorted(sample_set.probabilities.items())},
        "map_class": sample_set.map_class,
        "aperp_threshold_mhz": sample_set.aperp_threshold,
        "clusters": [
            {"mu": c.mu.tolist(), "sigma": c.sigma.tolist(), "weight": c.weight}
            for c in clusters
        ],
    }
    if metrics is not None:
        report["metrics"] = {"TP": metrics.tp, "FP": metrics.fp, "FN": metrics.fn,
                             "precision": metrics.precision, "recall": metrics.recall,
                             "F1": metrics.f1}
    if errors is not None:
        report["errors_kHz"] = {"Az": errors.mean_daz_khz, "Aperp": errors.mean_dap_khz,
                                "matched": errors.n_matched}
    return report


def write_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)


def write_samples_csv(path, sample_set: PosteriorSampleSet) -> None:
    """One row per pruned draw: n followed by its 2n coupling values."""
    with open(path, "w") as fh:
        fh.write("n,couplings\n")
        for i in range(sample_set.z):
            n, spins = threshold_and_prune(sample_set.raw[i], sample_set.aperp_threshold,
                                           sample_set.az_max)
            flat = ",".join(repr(float(v)) for v in spins.ravel())
            fh.write(f"{n}" + (f",{flat}" if flat else "") + "\n")
