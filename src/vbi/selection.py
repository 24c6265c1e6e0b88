"""Post-training model selection and reporting.

Posterior draws are thresholded, all in one pass, and pruned to a spin count
(the model class), classes get pseudo-Bayesian probabilities from their sample
fractions, the kept spins of a class are marginalized to 2D (A_z, |A_perp|)
points and clustered by Lloyd iterations started from the ansatz slots the
points were kept from, and clusters are scored against a ground truth with
Mahalanobis gating.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

DEFAULT_APERP_THRESHOLD = 0.05   # angular MHz (50 kHz)
DEFAULT_AZ_MAX = 0.5             # reporting window on the parallel coupling
DEFAULT_MAHALANOBIS_T = 4.0
DEFAULT_DRAWS = 4096


@dataclass
class PosteriorSampleSet:
    """Z thresholded draws: the spins each keeps, its class and the class probabilities.

    A draw keeps the spins with |A_perp| >= ``aperp_threshold`` and A_z below
    the ``az_max`` of :func:`build_sample_set`; its class is the number it keeps.
    """

    z: int
    spins: np.ndarray                    # (Z, K, 2) (A_z, |A_perp|) of every spin of every draw
    keep: np.ndarray                     # (Z, K) spins that survive the threshold
    classes: np.ndarray                  # (Z,) class of each draw
    probabilities: dict                  # n -> |S_n| / Z
    map_class: int
    aperp_threshold: float

    def _class_mask(self, n: int) -> np.ndarray:
        return self.keep & (self.classes == n)[:, None]

    def class_points(self, n: int) -> np.ndarray:
        """(A_z, |A_perp|) of the kept spins of the class-n draws, in draw then spin order.

        Marginalizing over spins this way breaks the inter-spin correlations:
        n * |S_n| points, the clustering input of the class.
        """
        return self.spins[self._class_mask(n)]

    def class_slots(self, n: int) -> np.ndarray:
        """The ansatz slot of each point of :meth:`class_points`, in the same order."""
        return np.nonzero(self._class_mask(n))[1]


def build_sample_set(raw_draws, aperp_threshold: float,
                     az_max: float = DEFAULT_AZ_MAX) -> PosteriorSampleSet:
    """Threshold (Z, 2K) interleaved (A_z, A_perp) draws in one pass over all of them."""
    raw = np.atleast_2d(np.asarray(raw_draws, dtype=float))
    spins = np.stack([raw[:, 0::2], np.abs(raw[:, 1::2])], axis=-1)
    keep = (spins[:, :, 1] >= aperp_threshold) & (spins[:, :, 0] < az_max)
    classes = keep.sum(axis=1)
    probs = class_probabilities(classes)
    return PosteriorSampleSet(z=raw.shape[0], spins=spins, keep=keep, classes=classes,
                              probabilities=probs, map_class=map_class(probs),
                              aperp_threshold=aperp_threshold)


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


# ---------------------------------------------------------------------------
# slot-started Lloyd clustering with inertia-based cluster count
# ---------------------------------------------------------------------------


KMEANS_ITERS = 60       # Lloyd iterations per cluster-count trial, unless labels settle first


def _lloyd(points: np.ndarray, centers: np.ndarray):
    """Refine ``centers`` in place: (labels, centers, squared residual of each point)."""
    k = centers.shape[0]
    sq_norms = np.sum(points * points, axis=1)
    labels = np.zeros(points.shape[0], dtype=int)
    for _ in range(KMEANS_ITERS):
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
    return labels, centers, np.sum((points - centers[labels]) ** 2, axis=1)


# A split that separates two distinct modes removes nearly all of their
# inertia; halving one Gaussian cloud removes at most 2/pi ~ 64% of its own
# inertia (57% measured on a desk-scale spin cloud) and less of the total.
SPLIT_IMPROVEMENT = 0.8


def _select_cluster_count(points: np.ndarray, slots: np.ndarray, n: int, n_max: int):
    """Cluster count and labels for the marginalized cloud of an n-spin class.

    Starts Lloyd at one cluster per spin of the class, k = n, from the mean
    points of the n slots kept most often (ties to the lower slot), in slot
    order.  Each trial at k + 1 starts from the current centres plus the
    current worst-fit point, and is taken while it cuts the total inertia by at
    least ``SPLIT_IMPROVEMENT``, so only mode-separating splits are taken, up
    to ``n_max``.  Returns (k, labels).
    """
    top = np.sort(np.argsort(-np.bincount(slots), kind="stable")[:n])
    start = np.stack([points[slots == j].mean(axis=0) for j in top])
    labels, centers, resid = _lloyd(points, start)
    while len(centers) < n_max and resid.sum() > 1e-30:
        trial = _lloyd(points, np.vstack([centers, points[resid.argmax()]]))
        if resid.sum() - trial[2].sum() < SPLIT_IMPROVEMENT * resid.sum():
            break
        labels, centers, resid = trial
    return len(centers), labels


@dataclass
class Cluster:
    mu: np.ndarray          # (A_z, A_perp) center
    sigma: np.ndarray       # 2x2 biased covariance
    weight: float           # average number of spins represented (#S)


def cluster_spins(points: np.ndarray, slots: np.ndarray, n: int) -> list[Cluster]:
    """Lloyd clustering of the marginalized single-spin cloud of an n-spin class.

    ``slots`` holds the ansatz slot each point was kept from.  Every draw of
    the class keeps n slots, so the clustering starts at one cluster per spin,
    k = n, from the mean points of the n slots kept most often.  It grows past
    n (up to 2n) only while a split cuts the inertia by at least
    ``SPLIT_IMPROVEMENT``, because a multimodal single-spin posterior
    legitimately splits into several fractional-weight clusters.
    On the desk-scale spin-identification fits every well-separated spin
    cloud gets one cluster.
    Weights are |K_j| / |S_n| so they sum to n; covariances of clusters with
    fewer than three points get a 1e-12 ridge.
    """
    points = np.asarray(points, dtype=float)
    slots = np.asarray(slots, dtype=int)
    if n < 1:
        raise ValueError("class must contain at least one spin")
    if points.shape[0] < n or points.shape[0] % n:
        raise ValueError("point count must be a positive multiple of the class size")
    if slots.shape != points.shape[:1] or np.count_nonzero(np.bincount(slots)) < n:
        raise ValueError("need one slot per point, from at least n slots")
    n_samples = points.shape[0] // n
    l_n, labels = _select_cluster_count(points, slots, n, min(2 * n, points.shape[0]))
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
    return MetricsReport(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1)


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
        for n, spins, keep in zip(sample_set.classes.tolist(), sample_set.spins, sample_set.keep):
            fh.write(",".join([str(n), *map(repr, spins[keep].ravel().tolist())]) + "\n")
