"""Closed-form reference likelihoods and the kernel checks run before timing.

The references are scalar ``math`` code written from the model equations, not
from the vectorised kernels, so an optimisation of a kernel is checked
against an independent oracle:

* DD single-spin modulation (one nuclear spin under an N_pi-pulse CPMG
  block, Larmor frequency omega_L):
      alpha = w tau,  w = sqrt((A_z + omega_L)^2 + A_perp^2),  beta = omega_L tau
      m_z = (A_z + omega_L) / w,  m_x = A_perp / w
      cos phi = cos alpha cos beta - m_z sin alpha sin beta
      M = 1 - m_x^2 (1 - cos alpha)(1 - cos beta) / (1 + cos phi) sin^2(N_pi phi / 2)
  with p1 = (1 - exp(-(N_pi tau T2^-1)^eta_s) prod_k M_k) / 2 and the Gaussian
  outcome model y ~ N(p1, chi p1 (1 - p1) + eta^2).
* Toy Ramsey model: p = 1/2 + (1/2n) sum_i cos(omega_i tau) with binomial
  counts c of R repetitions.

Values must match to 1e-9 relative; analytic gradients must match central
differences of the reference at the criterion-2 tolerance of 1e-4.
"""

from __future__ import annotations

import math

import numpy as np

VALUE_RTOL = 1e-9
GRAD_RTOL = 1e-4
OMEGA_L = 2.0 * math.pi * 1.0705 * 403.0 * 1e-3   # 13C Larmor at 403 G, rad/us


def spin_term(a_z, a_perp, tau, n_pi, omega_l):
    w = math.hypot(a_z + omega_l, a_perp)
    alpha, beta = w * tau, omega_l * tau
    m_z = (a_z + omega_l) / w
    cos_phi = math.cos(alpha) * math.cos(beta) - m_z * math.sin(alpha) * math.sin(beta)
    phi = math.acos(min(1.0, max(-1.0, cos_phi)))
    g = (1.0 - math.cos(alpha)) * (1.0 - math.cos(beta)) / (1.0 + cos_phi)
    return 1.0 - (a_perp / w) ** 2 * g * math.sin(0.5 * n_pi * phi) ** 2


def dd_p1(couplings, tau, n_pi, t2_inv, omega_l=OMEGA_L, eta_stretch=1.0):
    prod = 1.0
    for k in range(len(couplings) // 2):
        prod *= spin_term(couplings[2 * k], couplings[2 * k + 1], tau, n_pi, omega_l)
    return 0.5 * (1.0 - math.exp(-(n_pi * tau * t2_inv) ** eta_stretch) * prod)


def dd_loglik(records, couplings, t2_inv, chi, eta, omega_l=OMEGA_L):
    """Summed Gaussian outcome log-likelihood over (tau, n_pi, reps, y) tuples."""
    total = 0.0
    for tau, n_pi, _, y in records:
        p1 = dd_p1(couplings, tau, n_pi, t2_inv, omega_l)
        var = chi * p1 * (1.0 - p1) + eta * eta
        total += -0.5 * math.log(2.0 * math.pi * var) - (y - p1) ** 2 / (2.0 * var)
    return total


def toy_p(tau, omega):
    return 0.5 + sum(math.cos(w * tau) for w in omega) / (2.0 * len(omega))


def toy_record_loglik(tau, reps, count, omega):
    """Binomial log-likelihood of one record without the constant log C(R, c)."""
    p = toy_p(tau, omega)
    return count * math.log(p) + (reps - count) * math.log1p(-p)


def toy_loglik(records, omega):
    total = 0.0
    for tau, _, reps, y in records:
        count = round(y * reps)
        log_binom = math.lgamma(reps + 1) - math.lgamma(count + 1) - math.lgamma(reps - count + 1)
        total += log_binom + toy_record_loglik(tau, reps, count, omega)
    return total


def _rel(a, b, floor=1e-300):
    return abs(a - b) / max(abs(a), abs(b), floor)


def _central(f, x, j, h):
    up, dn = list(x), list(x)
    up[j] += h
    dn[j] -= h
    return (f(up) - f(dn)) / (2.0 * h)


def _inputs():
    """Fixed check inputs: records as (tau_us, n_pi, reps, y) tuples."""
    rng = np.random.default_rng(20250730)
    dd_records = [(float(t), 32 if i % 2 else 24, 1024, float(rng.uniform(0.05, 0.7)))
                  for i, t in enumerate(np.linspace(6.0, 8.5, 16))]
    dd_batch = np.empty((3, 6))
    dd_batch[:, 0::2] = rng.uniform(-0.3, 0.3, (3, 3))
    dd_batch[:, 1::2] = rng.uniform(0.1, 0.5, (3, 3))
    toy_taus = 10.0 ** rng.uniform(-1.0, 2.0, 16)
    toy_records = [(float(t), 1, 1024, int(rng.integers(100, 900)) / 1024) for t in toy_taus]
    toy_batch = rng.uniform(0.05, 0.95, (4, 3))
    particles = rng.uniform(0.0, 1.0, (5, 3))
    return dd_records, dd_batch, toy_records, toy_batch, particles


def check_kernels(likelihoods) -> list[tuple[str, list[str]]]:
    """Run every kernel check; returns (check name, failure messages) pairs.

    ``likelihoods`` is the ``vbi.likelihoods`` module (or a stand-in with the
    same ``MeasurementRecord``, ``DDModel``, ``NuisanceParams`` and
    ``ToyModel``), so a test can hand in a deliberately wrong kernel.
    """
    dd_records, dd_batch, toy_records, toy_batch, particles = _inputs()
    as_records = lambda rows: [likelihoods.MeasurementRecord(*row) for row in rows]
    return [
        ("DDModel.batch_loglik", _check_dd(likelihoods, as_records(dd_records), dd_records, dd_batch)),
        ("ToyModel.batch_loglik", _check_toy_batch(likelihoods, as_records(toy_records),
                                                   toy_records, toy_batch)),
        ("ToyModel.record_loglik", _check_toy_record(likelihoods, as_records(toy_records),
                                                     toy_records, particles)),
    ]


def _check_dd(lk, records, rows, batch):
    phi_vals = [3e-4, 1e-3, 0.02]            # (T2^-1, chi, eta), away from the variance floor
    model = lk.DDModel(k_spins=batch.shape[1] // 2, omega_l=OMEGA_L)
    out = model.batch_loglik(model.prepare(records), batch, lk.NuisanceParams(*phi_vals))
    ll, grad_a, grad_phi = np.asarray(out[0]), np.asarray(out[1]), np.asarray(out[2])
    failures = []
    for b, couplings in enumerate(batch.tolist()):
        ref = dd_loglik(rows, couplings, *phi_vals)
        if _rel(float(ll[b]), ref) > VALUE_RTOL:
            failures.append(f"row {b}: loglik {float(ll[b])!r} vs reference {ref!r}")
        f_a = lambda x: dd_loglik(rows, x, *phi_vals)
        for j in range(len(couplings)):
            fd = _central(f_a, couplings, j, 1e-6)
            if _rel(float(grad_a[b, j]), fd, 1e-6) > GRAD_RTOL:
                failures.append(f"row {b}: dA[{j}] {float(grad_a[b, j])!r} vs central difference {fd!r}")
        f_phi = lambda x: dd_loglik(rows, couplings, *x)
        for j, value in enumerate(phi_vals):
            fd = _central(f_phi, phi_vals, j, 1e-4 * value)
            if _rel(float(grad_phi[b, j]), fd, 1e-6) > GRAD_RTOL:
                failures.append(f"row {b}: dphi[{j}] {float(grad_phi[b, j])!r} vs central difference {fd!r}")
    return failures


def _check_toy_batch(lk, records, rows, batch):
    model = lk.ToyModel(n=batch.shape[1])
    out = model.batch_loglik(model.prepare(records), batch)
    ll, grad = np.asarray(out[0]), np.asarray(out[1])
    failures = []
    for b, omega in enumerate(batch.tolist()):
        ref = toy_loglik(rows, omega)
        if _rel(float(ll[b]), ref) > VALUE_RTOL:
            failures.append(f"row {b}: loglik {float(ll[b])!r} vs reference {ref!r}")
        for j in range(len(omega)):
            fd = _central(lambda x: toy_loglik(rows, x), omega, j, 1e-6)
            if _rel(float(grad[b, j]), fd, 1e-6) > GRAD_RTOL:
                failures.append(f"row {b}: domega[{j}] {float(grad[b, j])!r} vs central difference {fd!r}")
    return failures


def _check_toy_record(lk, records, rows, particles):
    model = lk.ToyModel(n=particles.shape[1])
    failures = []
    for record, (tau, _, reps, y) in zip(records, rows):
        got = np.asarray(model.record_loglik(record, particles))
        for i, omega in enumerate(particles.tolist()):
            ref = toy_record_loglik(tau, reps, round(y * reps), omega)
            if _rel(float(got[i]), ref) > VALUE_RTOL:
                failures.append(f"tau {tau:.4g}, particle {i}: {float(got[i])!r} vs reference {ref!r}")
    return failures
