import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vbi import selection
from vbi.probcore import RngStream


def interleave(az, ap):
    theta = np.empty(2 * len(az))
    theta[0::2] = az
    theta[1::2] = ap
    return theta


# --------------------------------------------------------------------------
# thresholding and classes
# --------------------------------------------------------------------------


def test_threshold_basic_masking():
    theta = interleave([0.1, 0.2, -0.1], [0.2, 0.01, 0.07])
    ss = selection.build_sample_set(theta, 0.05)
    assert ss.classes.tolist() == [2]
    assert np.allclose(ss.class_points(2), [[0.1, 0.2], [-0.1, 0.07]])


def test_threshold_all_below_gives_class_zero():
    theta = interleave([0.1, 0.2], [0.01, 0.02])
    ss = selection.build_sample_set(theta, 0.05)
    assert ss.map_class == 0 and ss.class_points(0).shape == (0, 2)


def test_threshold_zero_keeps_everything():
    theta = interleave([0.1, 0.2, 0.3], [0.2, 0.01, 0.07])
    assert selection.build_sample_set(theta, 0.0).classes.tolist() == [3]


def test_threshold_reports_absolute_aperp():
    theta = interleave([0.1], [-0.3])
    ss = selection.build_sample_set(theta, 0.05)
    assert ss.class_points(1)[0, 1] == pytest.approx(0.3)


def test_threshold_excludes_large_az():
    theta = interleave([0.7, 0.1], [0.3, 0.3])
    ss = selection.build_sample_set(theta, 0.05)
    assert ss.classes.tolist() == [1]
    assert ss.class_points(1)[0, 0] == pytest.approx(0.1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.floats(0.0, 0.3))
def test_threshold_idempotent(k, threshold):
    rng = np.random.default_rng(k * 1000 + int(threshold * 100))
    theta = rng.uniform(-0.5, 0.5, 2 * k)
    ss = selection.build_sample_set(theta, threshold)
    n = int(ss.classes[0])
    again = selection.build_sample_set(ss.class_points(n).ravel(), threshold)
    assert again.classes.tolist() == [n]
    assert np.array_equal(again.class_points(n), ss.class_points(n))


def test_class_probabilities_counting():
    probs = selection.class_probabilities([2, 2, 3, 2])
    assert probs == {2: 0.75, 3: 0.25}
    assert selection.map_class(probs) == 2


def test_class_probabilities_unanimous():
    assert selection.class_probabilities([4, 4, 4]) == {4: 1.0}


def test_map_class_tie_breaks_to_smaller():
    assert selection.map_class({2: 0.5, 3: 0.5}) == 2


def test_probabilities_sum_to_one_exactly():
    classes = RngStream(1).integers(0, 5, 997)
    probs = selection.class_probabilities(classes)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-15)


# --------------------------------------------------------------------------
# marginalization
# --------------------------------------------------------------------------


def test_marginalize_counts():
    draws = np.array([interleave([0.1, 0.2, 0.3], [0.1 + 0.01 * i] * 3) for i in range(10)])
    points = selection.build_sample_set(draws, 0.05).class_points(3)
    assert points.shape == (30, 2)


def test_marginalize_single_spin_class():
    draws = [interleave([0.1], [0.2]), interleave([0.3], [0.4])]
    points = selection.build_sample_set(draws, 0.05).class_points(1)
    assert np.allclose(points, [[0.1, 0.2], [0.3, 0.4]])


def test_marginalize_permutation_invariant_multiset():
    pa = selection.build_sample_set(interleave([0.1, 0.3], [0.2, 0.4]), 0.05).class_points(2)
    pb = selection.build_sample_set(interleave([0.3, 0.1], [0.4, 0.2]), 0.05).class_points(2)
    assert np.array_equal(np.sort(pa, axis=0), np.sort(pb, axis=0))


def test_class_points_are_kept_pairs_in_draw_then_spin_order():
    rng = RngStream(10)
    draws = np.array([interleave(rng.uniform(-0.3, 0.7, 6), rng.uniform(-0.2, 0.2, 6))
                      for _ in range(300)])
    ss = selection.build_sample_set(draws, 0.05, az_max=0.5)
    assert len(ss.probabilities) > 3
    expected = {}
    for theta in draws:
        kept = [(az, abs(ap)) for az, ap in theta.reshape(-1, 2) if abs(ap) >= 0.05 and az < 0.5]
        expected.setdefault(len(kept), []).extend(kept)
    assert sorted(expected) == sorted(ss.probabilities)
    for n, pairs in expected.items():
        assert np.array_equal(ss.class_points(n), np.array(pairs).reshape(-1, 2))


def test_class_slots_are_the_slots_of_class_points():
    theta = np.array([interleave([0.1, 0.2, -0.1], [0.2, 0.01, 0.07]),
                      interleave([0.3, 0.2, -0.1], [0.01, 0.2, 0.07])])
    ss = selection.build_sample_set(theta, 0.05)
    assert ss.class_slots(2).tolist() == [0, 2, 1, 2]
    assert np.array_equal(ss.class_points(2), ss.spins[[0, 0, 1, 1], [0, 2, 1, 2]])


# --------------------------------------------------------------------------
# clustering
# --------------------------------------------------------------------------


def test_single_position_cluster_weight_one():
    rng = RngStream(2)
    points = np.column_stack([0.1 + 1e-4 * rng.standard_normal(200),
                              0.3 + 1e-4 * rng.standard_normal(200)])
    clusters = selection.cluster_spins(points, np.arange(len(points)) % 1, 1)
    assert len(clusters) == 1
    assert clusters[0].weight == pytest.approx(1.0)


def test_split_posterior_half_weights():
    rng = RngStream(3)
    a = np.column_stack([0.1 + 1e-3 * rng.standard_normal(100),
                         0.2 + 1e-3 * rng.standard_normal(100)])
    b = np.column_stack([0.4 + 1e-3 * rng.standard_normal(100),
                         0.35 + 1e-3 * rng.standard_normal(100)])
    points = np.concatenate([a, b])
    clusters = selection.cluster_spins(points, np.arange(len(points)) % 1, 1)
    assert len(clusters) == 2
    assert sorted(c.weight for c in clusters) == pytest.approx([0.5, 0.5])


def test_two_blob_recovery():
    rng = RngStream(4)
    n = 400
    blob_a = np.column_stack([0.05 + 0.005 * rng.standard_normal(n),
                              0.2 + 0.005 * rng.standard_normal(n)])
    blob_b = np.column_stack([0.25 + 0.005 * rng.standard_normal(n),
                              0.4 + 0.005 * rng.standard_normal(n)])
    points = np.empty((2 * n, 2))
    points[0::2] = blob_a
    points[1::2] = blob_b
    clusters = selection.cluster_spins(points, np.arange(len(points)) % 2, 2)
    assert len(clusters) == 2
    mus = sorted((c.mu.tolist() for c in clusters))
    se = 3 * 0.005 / np.sqrt(n)
    assert mus[0][0] == pytest.approx(0.05, abs=se)
    assert mus[1][0] == pytest.approx(0.25, abs=se)
    total = sum(c.weight for c in clusters)
    assert total == pytest.approx(2.0, abs=1e-9)


def test_slot_start_keeps_close_slot_clouds_apart():
    # Slots 0 and 1 are clouds 50 kHz apart; slot 2 is bimodal, its modes
    # 200 kHz apart.  Each slot is its own cluster, however close, and only
    # slot 2's own points are split, into two half-weight clusters.
    rng = RngStream(11)
    n_draws = 200
    centres = np.zeros((n_draws, 3, 2))
    centres[:, 0] = [0.0, 0.3]
    centres[:, 1] = [0.05, 0.3]
    centres[:, 2, 0] = 0.3
    centres[:, 2, 1] = np.where(np.arange(n_draws) % 2, 0.1, 0.3)
    spread = np.array([0.005, 0.015])   # (A_z, A_perp) standard deviations
    points = (centres + spread * rng.standard_normal(centres.shape)).reshape(-1, 2)
    clusters = selection.cluster_spins(points, np.arange(len(points)) % 3, 3)
    assert sorted(c.weight for c in clusters) == pytest.approx([0.5, 0.5, 1.0, 1.0])
    whole = sorted(c.mu[0] for c in clusters if c.weight == pytest.approx(1.0))
    assert whole == pytest.approx([0.0, 0.05], abs=0.005)


def test_slot_with_three_modes_gives_three_clusters():
    # A stacked flow's slot marginal can have more than two modes.  Here two
    # modes 20 kHz apart sit 400 kHz from a third: the first split takes the
    # far mode off, and the near pair is split again.
    rng = RngStream(13)
    modes = np.array([[0.0, 0.3], [0.02, 0.3], [0.4, 0.3]])
    which = np.tile([0, 0, 1, 2], 100)
    points = modes[which] + 0.002 * rng.standard_normal((400, 2))
    clusters = selection.cluster_spins(points, np.zeros(400, dtype=int), 1)
    assert sorted(c.weight for c in clusters) == pytest.approx([0.25, 0.25, 0.5])
    for c in clusters:
        assert np.abs(modes - c.mu).max(axis=1).min() < 0.002


def test_cluster_weights_sum_to_class_size():
    rng = RngStream(5)
    n_class, n_samples = 4, 300
    points = rng.uniform(0, 0.5, (n_class * n_samples, 2))
    clusters = selection.cluster_spins(points, np.arange(len(points)) % n_class, n_class)
    assert sum(c.weight for c in clusters) == pytest.approx(n_class, abs=1e-9)
    assert all(c.weight <= 1.0 for c in clusters)


SURPLUS_CENTRES = np.array([[0.181, 0.350], [-0.167, 0.333], [-0.291, 0.374], [-0.004, 0.324],
                            [0.046, 0.267], [-0.124, 0.309],
                            [-0.135, 0.052], [0.012, 0.052], [-0.111, 0.052], [0.193, 0.052]])


def surplus_class():
    # A class-7 posterior with six slots every draw keeps, some as close as
    # 50 kHz in A_z, and four narrow surplus slots near the threshold that
    # take the seventh place in 3, 2, 3 and 2 of every 10 draws.
    rng = RngStream(12)
    n_draws = 1700
    spread = np.array([[0.003, 0.0095]] * 6 + [[0.012, 0.0018]] * 4)
    surplus = np.array([6, 6, 6, 7, 7, 8, 8, 8, 9, 9])
    slots = np.column_stack([np.tile(np.arange(6), (n_draws, 1)),
                             surplus[np.arange(n_draws) % 10]]).ravel()
    points = SURPLUS_CENTRES[slots] + spread[slots] * rng.standard_normal((len(slots), 2))
    return points, slots


def test_no_cluster_mixes_two_slots():
    # Each slot is one Gaussian cloud, so each is one cluster, at its own mean point.
    points, slots = surplus_class()
    clusters = selection.cluster_spins(points, slots, 7)
    assert [c.slot for c in clusters] == list(range(10))
    for c in clusters:
        assert np.array_equal(c.mu, points[slots == c.slot].mean(axis=0))
    assert [c.weight for c in clusters] == pytest.approx([1.0] * 6 + [0.3, 0.2, 0.3, 0.2])


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def make_cluster(mu, sigma=None, weight=1.0):
    return selection.Cluster(mu=np.asarray(mu, dtype=float),
                             sigma=np.eye(2) if sigma is None else np.asarray(sigma),
                             weight=weight, slot=0)


def test_metrics_formula_arithmetic():
    # TP=8, FP=2, FN=0 -> precision 0.8, recall 1.0, F1 8/9
    clusters = [make_cluster([float(i), 0.2]) for i in range(8)]
    clusters.append(make_cluster([100.0, 100.0], weight=2.0))
    truth = [[float(i), 0.2] for i in range(8)]
    report = selection.ml_metrics(clusters, truth, t=4.0)
    assert (report.tp, report.fp, report.fn) == (8, 2, 0)
    assert report.precision == pytest.approx(0.8)
    assert report.recall == pytest.approx(1.0)
    assert report.f1 == pytest.approx(8.0 / 9.0)


def test_surplus_spin_spread_over_slots_is_one_false_positive():
    # The seventh spin's weight is spread over four slots, none above one
    # half; summed, it is one spin that no true spin accounts for.
    points, slots = surplus_class()
    clusters = selection.cluster_spins(points, slots, 7)
    report = selection.ml_metrics(clusters, SURPLUS_CENTRES[:6], t=4.0)
    assert (report.tp, report.fp, report.fn) == (6, 1, 0)
    assert report.f1 == pytest.approx(12.0 / 13.0)


def test_metrics_euclidean_gate():
    cluster = make_cluster([0.0, 0.0])
    report = selection.ml_metrics([cluster], [[3.0, 4.0]], t=4.0)
    assert report.tp == 0 and report.fn == 1  # distance 5 > 4


def test_metrics_rounding_rule():
    cluster = make_cluster([0.0, 0.0], weight=1.4)
    report = selection.ml_metrics([cluster], [[0.1, 0.1]], t=4.0)
    assert report.tp == 1 and report.fp == 0  # round(1.4) = 1


def test_mahalanobis_identity_is_euclidean():
    rng = RngStream(6)
    for _ in range(50):
        mu = rng.uniform(-1, 1, 2)
        pt = rng.uniform(-1, 1, 2)
        d = selection.mahalanobis_distance(mu, np.eye(2), pt)
        assert d == pytest.approx(float(np.linalg.norm(mu - pt)), abs=1e-12)


def test_metrics_scale_invariance():
    rng = RngStream(7)
    mu = np.array([0.2, 0.3])
    sigma = np.array([[2e-4, 5e-5], [5e-5, 1e-4]])
    truth = np.array([[0.21, 0.29], [0.5, 0.1]])
    base = selection.ml_metrics([make_cluster(mu, sigma)], truth, t=4.0)
    scale = 1e3
    scaled = selection.ml_metrics(
        [make_cluster(mu * scale, sigma * scale ** 2)], truth * scale, t=4.0)
    assert (base.tp, base.fp, base.fn) == (scaled.tp, scaled.fp, scaled.fn)


def test_hyperfine_errors_exact_match_and_offset():
    cluster = make_cluster([0.1, 0.3], sigma=1e-6 * np.eye(2))
    exact = selection.ml_metrics([cluster], [[0.1, 0.3]], t=4.0)
    assert exact.mean_daz_khz == pytest.approx(0.0, abs=1e-9)
    offset = make_cluster([0.101, 0.302], sigma=1e-4 * np.eye(2))
    got = selection.ml_metrics([offset], [[0.1, 0.3]], t=4.0)
    assert got.mean_daz_khz == pytest.approx(1.0, abs=1e-6)
    assert got.mean_dap_khz == pytest.approx(2.0, abs=1e-6)


def test_hyperfine_errors_absent_when_no_tp():
    cluster = make_cluster([10.0, 10.0], sigma=1e-6 * np.eye(2))
    with pytest.warns(UserWarning, match="no true positives"):
        got = selection.ml_metrics([cluster], [[0.1, 0.3]], t=4.0)
    assert got.tp == 0
    assert got.mean_daz_khz is None and got.mean_dap_khz is None


# --------------------------------------------------------------------------
# sample sets and reports
# --------------------------------------------------------------------------


def test_build_sample_set_partition():
    rng = RngStream(8)
    draws = np.column_stack([
        rng.uniform(-0.3, 0.3, 100), rng.uniform(0.1, 0.4, 100),   # always kept
        rng.uniform(-0.3, 0.3, 100), rng.uniform(0.0, 0.1, 100),   # sometimes kept
    ])
    ss = selection.build_sample_set(draws, 0.05)
    assert ss.z == 100
    assert sum(ss.probabilities.values()) == pytest.approx(1.0, abs=1e-15)
    for c, p in ss.probabilities.items():
        assert np.count_nonzero(ss.classes == c) == round(p * 100)
        assert ss.class_points(c).shape == (c * round(p * 100), 2)
    assert ss.map_class in ss.probabilities


def test_selection_report_and_samples_csv(tmp_path):
    rng = RngStream(9)
    draws = np.column_stack([rng.uniform(-0.2, 0.2, 50), rng.uniform(0.2, 0.4, 50)])
    ss = selection.build_sample_set(draws, 0.05)
    clusters = selection.cluster_spins(ss.class_points(1), ss.class_slots(1), 1)
    metrics = selection.ml_metrics(clusters, [[0.0, 0.3]], t=4.0)
    report = selection.selection_report(ss, clusters, metrics)
    path = tmp_path / "report.json"
    selection.write_report(path, report)
    import json

    loaded = json.loads(path.read_text())
    assert loaded["Z"] == 50
    assert loaded["map_class"] == 1
    assert set(loaded["metrics"]) == {"TP", "FP", "FN", "precision", "recall", "F1"}
    assert loaded["errors_kHz"] == {"Az": metrics.mean_daz_khz, "Aperp": metrics.mean_dap_khz,
                                    "matched": metrics.tp} and metrics.tp == 1
    assert [c["slot"] for c in loaded["clusters"]] == [c.slot for c in clusters] == [0]
    csv_path = tmp_path / "samples.csv"
    selection.write_samples_csv(csv_path, ss)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 51
    first = lines[1].split(",")
    assert int(first[0]) == 1 and len(first) == 1 + 2


def test_samples_csv_rows_are_the_kept_couplings(tmp_path):
    theta = np.array([interleave([0.1, 0.2, -0.1], [0.2, 0.01, -0.07]),
                      interleave([0.3, 0.2, -0.1], [0.01, 0.02, 0.03]),
                      interleave([0.3, 1 / 3, -0.1], [0.01, 0.2, 0.07])])
    ss = selection.build_sample_set(theta, 0.05)
    path = tmp_path / "samples.csv"
    selection.write_samples_csv(path, ss)
    assert path.read_text() == ("n,couplings\n2,0.1,0.2,-0.1,0.07\n0\n"
                                "2,0.3333333333333333,0.2,-0.1,0.07\n")
