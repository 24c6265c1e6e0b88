import numpy as np
import pytest

from vbi import flows
from vbi.probcore import LOG_TWO_PI, RngStream


def random_params(d, family, seed, n_layers=3, hidden_width=8, jitter=0.3):
    spec = flows.AnsatzSpec(d=d, family=family, n_layers=n_layers, hidden_width=hidden_width)
    params = flows.init_flow_parameters(spec, np.zeros(d), np.ones(d), RngStream(seed))
    vec = params.to_vector() + jitter * RngStream(seed + 1).standard_normal(params.n_parameters)
    return params.from_vector(vec)


def test_identity_map_forward():
    spec = flows.AnsatzSpec(d=2, family="mean-field")
    params = flows.init_flow_parameters(spec, np.zeros(2), np.ones(2))
    theta, log_det = flows.flow_forward(np.array([0.3, -1.2]), params)
    assert np.allclose(theta, [0.3, -1.2])
    assert log_det == pytest.approx(0.0, abs=1e-12)


def test_affine_forward_algebra():
    spec = flows.AnsatzSpec(d=2, family="full-affine")
    params = flows.init_flow_parameters(spec, np.ones(2), np.array([2.0, 3.0]))
    theta, log_det = flows.flow_forward(np.ones(2), params)
    assert np.allclose(theta, [3.0, 4.0])
    assert log_det == pytest.approx(np.log(6.0), abs=1e-12)


def test_stacked_log_det_matches_fd_jacobian():
    params = random_params(3, "stacked", seed=11)
    z = RngStream(3).standard_normal(3)
    _, log_det = flows.flow_forward(z, params)
    h = 1e-6
    jac = np.zeros((3, 3))
    for i in range(3):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        jac[:, i] = (flows.flow_forward(zp, params)[0] - flows.flow_forward(zm, params)[0]) / (2 * h)
    fd = np.log(abs(np.linalg.det(jac)))
    assert log_det == pytest.approx(fd, rel=1e-5)


def test_inverse_trivial_and_affine():
    spec = flows.AnsatzSpec(d=2, family="mean-field")
    ident = flows.init_flow_parameters(spec, np.zeros(2), np.ones(2))
    assert np.allclose(flows.flow_inverse(np.array([5.0, -5.0]), ident), [5.0, -5.0])
    aff = flows.init_flow_parameters(spec, np.array([1.0, 0.0]), np.array([2.0, 1.0]))
    assert np.allclose(flows.flow_inverse(np.array([3.0, 7.0]), aff), [1.0, 7.0])


@pytest.mark.parametrize("family,n_layers", [("full-affine", 0), ("stacked", 3)])
def test_inverse_round_trip_random(family, n_layers):
    params = random_params(4, family, seed=21, n_layers=n_layers)
    theta = RngStream(4).standard_normal((100, 4)) * 2.0
    z = flows.flow_inverse(theta, params)
    back, _ = flows.flow_forward(z, params)
    assert np.max(np.abs(back - theta)) <= 1e-8


def test_bijectivity_large_cloud():
    params = random_params(3, "stacked", seed=31)
    theta = RngStream(32).standard_normal((10000, 3)) * 3.0
    back, _ = flows.flow_forward(flows.flow_inverse(theta, params), params)
    assert np.max(np.abs(back - theta)) <= 1e-8


def test_sample_determinism_and_density_consistency():
    params = random_params(2, "stacked", seed=41)
    theta_a, log_q_a, _ = flows.sample_batch(params, 1, RngStream(77))
    theta_b, log_q_b, _ = flows.sample_batch(params, 1, RngStream(77))
    assert np.array_equal(theta_a, theta_b)
    assert np.array_equal(log_q_a, log_q_b)
    theta, log_q, _ = flows.sample_batch(params, 32, RngStream(5))
    assert np.max(np.abs(log_q - flows.ansatz_log_density(theta, params))) <= 1e-9


def test_mean_field_sample_moments():
    spec = flows.AnsatzSpec(d=1, family="mean-field")
    params = flows.init_flow_parameters(spec, np.array([2.0]), np.array([0.5]))
    theta, _, _ = flows.sample_batch(params, 100000, RngStream(6))
    assert theta.mean() == pytest.approx(2.0, abs=0.01)
    assert theta.std() == pytest.approx(0.5, abs=0.01)


def test_full_affine_sample_covariance():
    spec = flows.AnsatzSpec(d=2, family="full-affine")
    params = flows.init_flow_parameters(spec, np.zeros(2), np.array([1.0, 0.5]))
    vec = params.to_vector()
    template = params.from_vector(vec)
    template.l_raw[1, 0] = 0.7
    params = template
    low = params.l_matrix()
    target = low @ low.T
    theta, _, _ = flows.sample_batch(params, 100000, RngStream(8))
    emp = np.cov(theta.T, bias=True)
    # three standard errors of a covariance entry ~ 3 * target / sqrt(n)
    tol = 3.0 * (np.abs(target) + np.outer(np.diag(target), np.diag(target)) ** 0.5) / np.sqrt(1e5)
    assert np.all(np.abs(emp - target) <= tol)


def test_identity_log_density_is_standard_normal():
    spec = flows.AnsatzSpec(d=1, family="mean-field")
    params = flows.init_flow_parameters(spec, np.zeros(1), np.ones(1))
    assert flows.ansatz_log_density(np.zeros(1), params) == pytest.approx(-0.918938533, abs=1e-9)


def test_affine_density_matches_closed_form_gaussian():
    params = random_params(3, "full-affine", seed=51, jitter=0.2)
    low = params.l_matrix()
    cov = low @ low.T
    inv = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    thetas = RngStream(52).standard_normal((100, 3)) + params.mu
    for theta in thetas:
        resid = theta - params.mu
        exact = -0.5 * (3 * LOG_TWO_PI + logdet + resid @ inv @ resid)
        assert flows.ansatz_log_density(theta, params) == pytest.approx(exact, abs=1e-10)


@pytest.mark.parametrize("family", ["mean-field", "full-affine", "stacked"])
def test_density_normalization_1d_quadrature(family):
    params = random_params(1, family, seed=61, jitter=0.4)
    lo, _ = flows.flow_forward(np.array([-10.0]), params)
    hi, _ = flows.flow_forward(np.array([10.0]), params)
    grid = np.linspace(min(lo[0], hi[0]), max(lo[0], hi[0]), 10000)
    dens = np.exp(flows.ansatz_log_density(grid[:, None], params))
    mass = np.trapezoid(dens, grid)
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_backward_linear_loss_mean_field():
    # Loss = theta_1 has d/d mu_1 = 1 and d/d sigma_1 = z_1 (pathwise)
    spec = flows.AnsatzSpec(d=2, family="mean-field")
    params = flows.init_flow_parameters(spec, np.zeros(2), np.ones(2))
    _, _, cache = flows.sample_batch(params, 1, RngStream(9))
    grad = flows.backward_batch(cache, np.array([[1.0, 0.0]]), np.zeros(1), params)
    # layout: mu (2), diagonal raw (2); softplus'(raw) at scale 1
    sig = 1.0 / (1.0 + np.exp(-np.diag(params.l_raw)))
    assert grad[0] == pytest.approx(1.0)
    assert grad[1] == pytest.approx(0.0)
    assert grad[2] == pytest.approx(cache.z[0, 0] * sig[0])
    assert grad[3] == pytest.approx(0.0)


def test_backward_entropy_gradient_full_affine():
    # Loss = -log_q: gradient w.r.t. the diagonal of L is 1/diag * softplus'
    params = random_params(3, "full-affine", seed=71, jitter=0.1)
    _, _, cache = flows.sample_batch(params, 1, RngStream(10))
    grad = flows.backward_batch(cache, np.zeros((1, 3)), np.array([-1.0]), params)
    raw = np.diag(params.l_raw)
    diag = np.diag(params.l_matrix())
    expected = (1.0 / diag) * (1.0 / (1.0 + np.exp(-raw)))
    idx = np.tril_indices(3)
    diag_positions = [3 + k for k in range(len(idx[0])) if idx[0][k] == idx[1][k]]
    assert np.allclose(grad[diag_positions], expected, rtol=1e-9)


@pytest.mark.parametrize("d", [1, 2, 6])
def test_backward_matches_fd_all_params(d):
    params = random_params(d, "stacked", seed=80 + d, n_layers=3, hidden_width=6, jitter=0.2)
    _, _, cache = flows.sample_batch(params, 1, RngStream(90 + d))
    z = cache.z[0]
    a_vec = RngStream(91 + d).standard_normal(d)
    b_coef = 0.6
    grad = flows.backward_batch(cache, a_vec[None, :], np.array([b_coef]), params)
    v0 = params.to_vector()

    def loss(v):
        p = params.from_vector(v)
        theta, log_det = flows.flow_forward(z, p)
        log_q = -0.5 * (d * LOG_TWO_PI + z @ z) - log_det
        return a_vec @ theta + b_coef * log_q

    h = 1e-5
    for i in range(v0.size):
        vp, vm = v0.copy(), v0.copy()
        vp[i] += h
        vm[i] -= h
        fd = (loss(vp) - loss(vm)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def test_checkpoint_roundtrip(tmp_path):
    params = random_params(3, "stacked", seed=101)
    path = tmp_path / "ckpt.json"
    flows.save_checkpoint(path, params, extra={"phi": [1e-4, 1e-3, 1e-2]})
    loaded, extra = flows.load_checkpoint(path)
    assert np.array_equal(loaded.to_vector(), params.to_vector())
    assert loaded.spec == params.spec
    assert extra["phi"] == [1e-4, 1e-3, 1e-2]


def test_checkpoint_rejects_corruption(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"magic": "NOPE", "params": []}')
    with pytest.raises(ValueError):
        flows.load_checkpoint(path)


def test_dimension_mismatch_rejected():
    params = random_params(3, "mean-field", seed=110)
    with pytest.raises(ValueError):
        flows.flow_forward(np.zeros(2), params)
    with pytest.raises(ValueError):
        flows.flow_inverse(np.zeros(4), params)


def test_zero_dimension_rejected():
    with pytest.raises(ValueError):
        flows.AnsatzSpec(d=0)
