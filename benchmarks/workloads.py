"""The benchmark's workloads: closed loop, one client, one process.

Each workload has a repeatable ``setup`` (dataset generation and warm-up), a
timed ``operation`` that returns its end-to-end timings, and a ``check`` that
validates the operation's outputs without being timed.  Every scenario seed
is ``base + seed``, so the default seed 0 reproduces the acceptance suite's
criterion-4 and criterion-6 seeds and any other seed moves truth, simulation,
training and draws together.  The program only sees the generated inputs:
JSON configs and CLI arguments, or records handed to the public API.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np
from vbi import cli, flows, likelihoods, simulator, smc, trainer
from vbi.probcore import RngStream

import reference

SPIN_STEPS = 128          # training steps per `vbi fit`; fixed on every commit
TOY_STEPS = 256           # training steps per toy `train` call
PF_PARTICLES = 16384
N_LIST = (2, 4, 8, 12)
B_GAUSS = 403.0
NO_QUALITY = {"quality.fit_rms": 0.0, "quality.f1": 0.0, "quality.error_ratio": 0.0}


def _files(directory) -> dict:
    """{name: (size, mtime)} of the regular files in a directory."""
    stats = {e.name: e.stat() for e in os.scandir(directory) if e.is_file()}
    return {name: (st.st_size, st.st_mtime_ns) for name, st in stats.items()}


class SpinId:
    """Criterion-6 desk-scale spin identification through `vbi.cli.main`:
    simulate, then fit and select --ground-truth as the timed operation."""

    quality = NO_QUALITY

    def __init__(self, name: str, base: int, n_pi: int):
        self.name, self.base, self.n_pi = name, base, n_pi

    def _config(self, s: int) -> dict:
        return {
            "model": {"kind": "dd", "B_gauss": B_GAUSS, "ansatz_spins": 10, "truth_count": 6,
                      "truth_seed": 7000 + s, "aperp_range": [0.15, 0.5],
                      "min_delta_az": 0.03, "n_pi": self.n_pi, "m_points": 512,
                      "repetitions": 1024},
            "train": {"batch": 64, "steps": SPIN_STEPS, "seed": s},
            "regularizer": {"kind": "l2", "sigma": 1e-3, "trainable": True},
            "selection": {"aperp_threshold_mhz": 0.05, "mahalanobis_t": 4.0, "draws": 4096},
        }

    def _cli(self, ctx, command: str, *args) -> int:
        before = _files(self.dir)
        with ctx.span(f"cli.{command}"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", str(self.dir / "run.json"),
                             "--out", str(self.dir), *args])
        after = _files(self.dir)
        ctx.count("cli.bytes_written", sum(size for name, (size, mtime) in after.items()
                                           if before.get(name) != (size, mtime)))
        return code

    def setup(self, ctx) -> None:
        self.s = self.base + ctx.seed
        self.dir = ctx.workdir / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        with open(self.dir / "run.json", "w") as fh:
            json.dump(self._config(self.s), fh)
        if self._cli(ctx, "simulate", "--seed", str(8000 + self.s)) != 0:
            raise RuntimeError("vbi simulate failed")
        # warm-up: three ELBO steps on the dataset through the public train API
        records = simulator.read_dataset_csv(self.dir / "dataset.csv")
        model = likelihoods.DDModel(k_spins=10, omega_l=simulator.omega_larmor(B_GAUSS))
        config = trainer.TrainConfig(batch=64, steps=3, seed=self.s,
                                     phi0=likelihoods.NuisanceParams(1e-4, 1 / 1024, 1e-2))
        trainer.train(config, records, model, flows.AnsatzSpec(d=20, family="mean-field"))
        self.first = None

    def operation(self, ctx) -> dict:
        t0 = ctx.clock()
        fit = self._cli(ctx, "fit", "--dataset", str(self.dir / "dataset.csv"))
        t1 = ctx.clock()
        select = self._cli(ctx, "select", "--checkpoint", str(self.dir / "checkpoint.json"),
                           "--ground-truth", str(self.dir / "ground_truth.json"),
                           "--seed", str(12000 + self.s))
        t2 = ctx.clock()
        return {"fit_s": t1 - t0, "select_s": t2 - t1, "codes": (fit, select)}

    def check(self, out: dict) -> list[str]:
        if out["codes"] != (0, 0):
            return [f"vbi fit / select exit codes {out['codes']}"]
        failures = []
        params, extra = flows.load_checkpoint(self.dir / "checkpoint.json")
        phi = np.asarray(extra.get("phi", [np.nan] * 3), dtype=float)
        if not (np.all(np.isfinite(params.to_vector())) and np.all(np.isfinite(phi))
                and np.all(phi >= 0)):
            failures.append("checkpoint holds non-finite or negative values")
        with open(self.dir / "selection.json") as fh:
            report = json.load(fh)
        f1 = report.get("metrics", {}).get("F1")
        if not (isinstance(report.get("map_class"), int) and f1 is not None and 0.0 <= f1 <= 1.0):
            failures.append(f"selection.json lacks a MAP class or an F1 in [0, 1]: {f1!r}")
        records = simulator.read_dataset_csv(self.dir / "dataset.csv")
        mu = params.mu.tolist()
        resid = [r.y - reference.dd_p1(mu, r.tau_us, r.n_pi, phi[0]) for r in records]
        self.quality = {"quality.fit_rms": math.sqrt(sum(d * d for d in resid) / len(resid)),
                        "quality.f1": f1 or 0.0, "quality.error_ratio": 0.0}
        if not math.isfinite(self.quality["quality.fit_rms"]):
            failures.append("fit residual RMS is not finite")
        outputs = [(self.dir / name).read_bytes() for name in ("checkpoint.json", "selection.json")]
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            failures.append("a repeated fit/select on the same inputs gave different files")
        return failures


class _Toy:
    """Criterion-4 toy datasets: n in {2, 4, 8, 12}, M = 512, R = 1024."""

    quality = NO_QUALITY

    def setup(self, ctx) -> None:
        self.s = ctx.seed
        self.truth, self.records = {}, {}
        for n in N_LIST:
            self.truth[n] = RngStream(50000 + 1000 * n + self.s).uniform(0.0, 1.0, n)
            self.records[n] = simulator.simulate_dataset(simulator.ScenarioConfig(
                kind="toy", theta_true=self.truth[n], m_points=512, repetitions=1024,
                seed=self.s, log_tau_range=(-1.0, 4.0)))
        self.warm_up()
        self.first = None

    def check_estimates(self, estimates: dict, in_box: bool) -> list[str]:
        """Score the per-n estimates; ``in_box`` requires them inside [0, 1]."""
        failures = []
        rms, ratio = [], []
        for n, est in estimates.items():
            if not np.all(np.isfinite(est)) or (in_box and not np.all((est >= 0) & (est <= 1))):
                failures.append(f"n={n}: estimate not finite or outside the prior box: {est}")
                continue
            err = float(np.mean((np.sort(est) - np.sort(self.truth[n])) ** 2))
            ratio.append(err * 3 * (n + 1))      # prior-draw baseline error is 1/(3(n+1))
            resid = [r.y - reference.toy_p(r.tau_us, est.tolist()) for r in self.records[n]]
            rms.append(math.sqrt(sum(d * d for d in resid) / len(resid)))
        self.quality = {"quality.fit_rms": float(np.mean(rms)) if rms else 0.0,
                        "quality.f1": 0.0,
                        "quality.error_ratio": float(np.mean(ratio)) if ratio else 0.0}
        if self.first is None:
            self.first = estimates
        elif any(not np.array_equal(estimates[n], self.first[n]) for n in estimates):
            failures.append("a repeated run on the same inputs gave a different estimate")
        return failures


class BenchPF(_Toy):
    """Liu-West particle filter (16384 particles) on each toy dataset."""

    def _filter(self, n, records):
        ens = smc.pf_init(np.zeros(n), np.ones(n), PF_PARTICLES, RngStream(self.s + 7))
        return smc.pf_run(ens, records, likelihoods.ToyModel(n=n))

    def warm_up(self) -> None:
        for n in N_LIST:
            self._filter(n, self.records[n][:4])

    def operation(self, ctx) -> dict:
        total, self.ensembles = 0.0, {}
        for n in N_LIST:
            t0 = ctx.clock()
            self.ensembles[n] = self._filter(n, self.records[n])
            total += ctx.clock() - t0
        return {"fit_s": total}

    def check(self, out: dict) -> list[str]:
        # Liu-West moves may carry particles past the prior box, so only the
        # weights are held to the simplex
        failures = [f"n={n}: weights off the simplex" for n, e in self.ensembles.items()
                    if not (np.all(e.weights >= 0) and abs(e.weights.sum() - 1.0) < 1e-9)]
        return failures + self.check_estimates(
            {n: smc.pf_estimate(e) for n, e in self.ensembles.items()}, in_box=False)


class BenchVBI(_Toy):
    """Mean-field VBI with the `vbi bench-pf` settings through the public `train` API."""

    def _train(self, n, steps):
        config = trainer.TrainConfig(
            batch=64, steps=steps, lr_start=1e-2, lr_end=1e-3, seed=self.s,
            prior=trainer.PriorSpec(kind="box", low=np.zeros(n), high=np.ones(n)))
        return trainer.train(config, self.records[n], likelihoods.ToyModel(n=n),
                             flows.AnsatzSpec(d=n, family="mean-field"))

    def warm_up(self) -> None:
        for n in N_LIST:
            self._train(n, 3)

    def operation(self, ctx) -> dict:
        total, self.params = 0.0, {}
        for n in N_LIST:
            t0 = ctx.clock()
            self.params[n], _, _ = self._train(n, TOY_STEPS)
            total += ctx.clock() - t0
        return {"fit_s": total}

    def check(self, out: dict) -> list[str]:
        estimates = {}
        for n, params in self.params.items():
            prior = trainer.PriorSpec(kind="box", low=np.zeros(n), high=np.ones(n))
            draws, _, _ = flows.sample_batch(params, 2048, RngStream(self.s + 13))
            estimates[n] = prior.transform(draws).mean(axis=0)
        return self.check_estimates(estimates, in_box=True)


WORKLOADS = {
    "spin-id": lambda: SpinId("spin-id", base=0, n_pi=32),
    "spin-id-n24": lambda: SpinId("spin-id-n24", base=1, n_pi=24),
    "bench-pf": BenchPF,
    "bench-vbi": BenchVBI,
}
