import numpy as np
import pytest

from vbi.probcore import RngStream, log_gaussian_density, softplus, softplus_inv


def test_same_seed_same_sequence():
    a = RngStream(7).standard_normal(3)
    b = RngStream(7).standard_normal(3)
    assert np.array_equal(a, b)


def test_standard_normal_moments():
    draws = RngStream(123).standard_normal(100000)
    assert -0.02 <= draws.mean() <= 0.02
    assert 0.97 <= draws.var() <= 1.03


def test_split_streams_are_disjoint_and_deterministic():
    parent = RngStream(42)
    kids = parent.split(4)
    seqs = [k.standard_normal(2000) for k in kids]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.intersect1d(seqs[i], seqs[j]).size
    # identical derivation on a fresh parent
    again = RngStream(42).split(4)
    for k, fresh in zip(seqs, again):
        assert np.array_equal(k, fresh.standard_normal(2000))
    # parent moved past the children's windows
    assert not np.intersect1d(parent.standard_normal(2000), np.concatenate(seqs)).size


def test_split_merge_is_schedule_independent():
    # consuming children in any order yields the same per-child values,
    # so the merged batch is identical however the work was scheduled
    forward = [c.standard_normal(16) for c in RngStream(9).split(8)]
    shuffled_children = RngStream(9).split(8)
    backward = [shuffled_children[i].standard_normal(16) for i in reversed(range(8))]
    assert np.array_equal(np.concatenate(forward), np.concatenate(list(reversed(backward))))


def test_log_gaussian_known_values():
    assert log_gaussian_density(0.0, 0.0, 1.0) == pytest.approx(-0.9189385332046727, abs=1e-12)
    assert log_gaussian_density(1.0, 0.0, 1.0) == pytest.approx(-1.4189385332046727, abs=1e-12)
    # -0.5 ln(4 pi): shared with the conjugate-evidence oracle
    assert log_gaussian_density(0.0, 0.0, 2.0) == pytest.approx(-1.2655121234846454, abs=1e-12)


def test_log_gaussian_rejects_bad_variance():
    with pytest.raises(ValueError):
        log_gaussian_density(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        log_gaussian_density(0.0, 0.0, -1.0)


def test_softplus_roundtrip():
    x = np.linspace(-20, 20, 101)
    assert np.allclose(softplus_inv(softplus(x)), x, atol=1e-9)
