"""Particle filter vs variational inference as the frequency count grows.

Reduced-scale version of the scalability comparison: both methods consume the
same binomial-aggregated dataset per n, and are scored by the sorted
mean-square error against a no-measurement prior baseline. The PF holds its
own at small n and collapses to the baseline as the dimension grows; VBI does
not. (Full-scale bands run in tests/test_acceptance.py, criterion 4.)
"""

from vbi.pipeline import bench_pf_rows

config = {"model": {"kind": "toy", "m_points": 256, "repetitions": 1024,
                    "log_tau_range": [-1.0, 3.5]},
          "train": {"steps": 1200},
          "bench": {"n_list": [2, 4, 8], "seeds": [0], "n_particles": 4096, "trials": 5000}}
errors = {(n, method): error for n, method, _, error in bench_pf_rows(config)}
print(f"{'n':>3} {'baseline':>10} {'PF':>10} {'VBI':>10}")
for n in config["bench"]["n_list"]:
    print(f"{n:>3} {errors[n, 'baseline']:>10.5f} {errors[n, 'PF']:>10.5f} "
          f"{errors[n, 'VBI']:>10.5f}")
