"""Post-training model selection and reporting.

Posterior draws are thresholded, all in one pass, and pruned to a spin count
(the model class), classes get pseudo-Bayesian probabilities from their sample
fractions, the kept spins of a class are marginalized to 2D (A_z, |A_perp|)
points and grouped into one cluster per ansatz slot the points were kept from
(more where a slot's own points are multimodal), and clusters are scored
against a ground truth with Mahalanobis gating.
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
# one cluster per kept ansatz slot, split where the slot is multimodal
# ---------------------------------------------------------------------------


KMEANS_ITERS = 60       # Lloyd iterations per split trial, unless labels settle first

# A split that separates two distinct modes removes nearly all of their
# inertia; halving one Gaussian cloud removes at most 2/pi ~ 64% of its
# inertia (57% measured on a desk-scale spin cloud).
SPLIT_IMPROVEMENT = 0.8


def _modes(points: np.ndarray) -> list[np.ndarray]:
    """One slot's points as one cloud, or split where the slot is multimodal.

    A two-centre Lloyd trial starts from the mean point and the point farthest
    from it, and the split is taken only if it removes at least
    ``SPLIT_IMPROVEMENT`` of the slot's inertia; a trial that empties a centre
    is no split.  Each half is tried again, so a slot with more than two modes
    (a stacked flow's can have them) can give more than two clouds.
    """
    mean = points.mean(axis=0)
    sq_dist = np.sum((points - mean) ** 2, axis=1)
    centers = np.stack([mean, points[sq_dist.argmax()]])
    labels = np.zeros(points.shape[0], dtype=int)
    for _ in range(KMEANS_ITERS):
        half_sq = 0.5 * np.sum(centers * centers, axis=1)   # nearer centre: argmin of |c|^2/2 - p.c
        new_labels = (points @ (centers[1] - centers[0]) > half_sq[1] - half_sq[0]).astype(int)
        counts = np.bincount(new_labels, minlength=2)
        if not counts.all():
            return [points]
        for c in range(2):
            centers[:, c] = np.bincount(new_labels, weights=points[:, c], minlength=2) / counts
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    inertia, split = sq_dist.sum(), np.sum((points - centers[new_labels]) ** 2)
    if inertia - split < SPLIT_IMPROVEMENT * inertia:
        return [points]
    return _modes(points[new_labels == 0]) + _modes(points[new_labels == 1])


@dataclass
class Cluster:
    mu: np.ndarray          # (A_z, A_perp) center
    sigma: np.ndarray       # 2x2 biased covariance
    weight: float           # average number of spins represented (#S)
    slot: int               # the ansatz slot its points were kept from


def cluster_spins(points: np.ndarray, slots: np.ndarray, n: int) -> list[Cluster]:
    """Clusters of the marginalized single-spin cloud of an n-spin class, in slot order.

    ``slots`` holds the ansatz slot each point was kept from.  In the
    mean-field and full-affine families every slot's marginal is one
    Gaussian, so each slot the class keeps is one cluster; a slot becomes
    several fractional-weight clusters only where a two-centre split of its
    own points (or of a half already split off) removes at least
    ``SPLIT_IMPROVEMENT`` of its inertia, as a multimodal single-spin
    posterior does.  A cluster therefore never holds two slots' points.
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
    clusters = []
    for slot in np.unique(slots).tolist():
        for members in _modes(points[slots == slot]):
            mu = members.mean(axis=0)
            centered = members - mu
            sigma = centered.T @ centered / members.shape[0]
            if members.shape[0] < 3:
                sigma = sigma + 1e-12 * np.eye(2)
            clusters.append(Cluster(mu=mu, sigma=sigma, weight=members.shape[0] / n_samples,
                                    slot=slot))
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
    mean_daz_khz: float | None   # mean |dA_z| of the matched spins in kHz, None without a match
    mean_dap_khz: float | None   # the same for |dA_perp|


def _match_spins(clusters, truth: np.ndarray, t: float):
    """Assign each true spin to its nearest flagging cluster.

    Clusters whose weight rounds to zero, slots (or modes) kept in at most
    half of the class's draws, cannot claim matches.
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
    """Precision/recall/F1 and the mean TP coupling errors from one Mahalanobis-gated match.

    False positives are the class's spins that no true spin accounts for: the
    weight each cluster holds beyond its matched spins, summed over clusters
    and then rounded (half-even), so a surplus spin spread over several slot
    clusters, each below one half, still counts once.  Unmatched true spins
    are false negatives.  The errors, in kHz, are between each matched spin
    and its cluster's centre; None, flagged by a warning, without a match.
    """
    if t <= 0:
        raise ValueError("gate threshold must be positive")
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    matches = _match_spins(clusters, truth, t)
    tp_per_cluster = np.zeros(len(clusters), dtype=int)
    for _, j, _ in matches:
        tp_per_cluster[j] += 1
    tp = len(matches)
    unmatched = sum(max(c.weight - int(tp_per_cluster[j]), 0.0) for j, c in enumerate(clusters))
    fp = round(unmatched)   # round() is half-even
    fn = truth.shape[0] - tp
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    if not matches:
        warnings.warn("no true positives; hyperfine error report absent")
    daz, dap = (1e3 * float(np.mean([abs(clusters[j].mu[c] - truth[k, c]) for k, j, _ in matches]))
                if matches else None for c in (0, 1))
    return MetricsReport(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall, f1=f1,
                         mean_daz_khz=daz, mean_dap_khz=dap)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def selection_report(sample_set: PosteriorSampleSet, clusters,
                     metrics: MetricsReport | None = None) -> dict:
    """The ``selection.json`` payload; given ``metrics``, also them and, when TP > 0,
    their coupling errors as ``errors_kHz`` (``matched`` is the TP count)."""
    report = {
        "Z": sample_set.z,
        "p_c": {str(c): p for c, p in sorted(sample_set.probabilities.items())},
        "map_class": sample_set.map_class,
        "aperp_threshold_mhz": sample_set.aperp_threshold,
        "clusters": [
            {"mu": c.mu.tolist(), "sigma": c.sigma.tolist(), "weight": c.weight,
             "slot": c.slot}
            for c in clusters
        ],
    }
    if metrics is not None:
        report["metrics"] = {"TP": metrics.tp, "FP": metrics.fp, "FN": metrics.fn,
                             "precision": metrics.precision, "recall": metrics.recall,
                             "F1": metrics.f1}
        if metrics.tp:
            report["errors_kHz"] = {"Az": metrics.mean_daz_khz, "Aperp": metrics.mean_dap_khz,
                                    "matched": metrics.tp}
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
