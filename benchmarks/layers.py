"""Which vbi functions the traced run wraps, and the per-layer metrics.

The layers are the package's modules (``errors`` does no work).  Counts and
busy times are per timed operation, so a traced run that fits in one more
operation reports the same figures; latency percentiles are over all calls.
``simulator.simulate_dataset`` runs only in set-up and is reported per set-up.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from vbi import cli, flows, likelihoods, probcore, selection, simulator, smc, trainer

from tracing import END, NAME, OP, PARENT, START, ELEMS, Tracer, percentile, self_times

N_LIST = (2, 4, 8, 12)
RNG_METHODS = ("standard_normal", "uniform", "binomial", "normal", "integers", "choice",
               "multivariate_normal")

# (name, unit, better) for every per-layer metric; BENCHMARK.json lists the same.
PER_LAYER = [
    ("likelihoods.dd_batch_loglik.calls", "count", "lower"),
    ("likelihoods.dd_batch_loglik.busy_s", "s", "lower"),
    ("likelihoods.dd_batch_loglik.p50_ms", "ms", "lower"),
    ("likelihoods.dd_batch_loglik.p90_ms", "ms", "lower"),
    ("likelihoods.dd_batch_loglik.ns_per_elem", "ns", "lower"),
    ("likelihoods.dd_outcome_prob.calls", "count", "lower"),
    ("likelihoods.dd_outcome_prob.busy_s", "s", "lower"),
    ("likelihoods.variance_floor_hits", "count", "lower"),
    ("likelihoods.toy_batch_loglik.calls", "count", "lower"),
    ("likelihoods.toy_batch_loglik.busy_s", "s", "lower"),
    ("likelihoods.toy_batch_loglik.ns_per_elem", "ns", "lower"),
    ("likelihoods.toy_record_loglik.calls", "count", "lower"),
    ("likelihoods.toy_record_loglik.busy_s", "s", "lower"),
    ("likelihoods.toy_record_loglik.ns_per_elem", "ns", "lower"),
    ("flows.sample_batch.calls", "count", "lower"),
    ("flows.sample_batch.busy_s", "s", "lower"),
    ("flows.sample_batch.p50_ms", "ms", "lower"),
    ("flows.backward_batch.calls", "count", "lower"),
    ("flows.backward_batch.busy_s", "s", "lower"),
    ("flows.backward_batch.p50_ms", "ms", "lower"),
    ("flows.checkpoint.busy_s", "s", "lower"),
    ("trainer.steps", "count", "lower"),
    ("trainer.estimate_elbo.self_p50_ms", "ms", "lower"),
    ("trainer.step_overhead.p50_ms", "ms", "lower"),
    *[(f"trainer.train.n{n}.busy_s", "s", "lower") for n in N_LIST],
    ("cli.fit.first_step_s", "s", "lower"),
    ("cli.fit.busy_s", "s", "lower"),
    ("cli.fit.residual_share", "1", "lower"),
    ("cli.select.busy_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("selection.build_sample_set.busy_s", "s", "lower"),
    ("selection.cluster_spins.busy_s", "s", "lower"),
    ("selection.ml_metrics.busy_s", "s", "lower"),
    ("selection.write.busy_s", "s", "lower"),
    ("selection.cluster_points", "count", "lower"),
    ("smc.pf_update.calls", "count", "lower"),
    ("smc.pf_update.busy_s", "s", "lower"),
    ("smc.pf_update.p50_ms", "ms", "lower"),
    ("smc.pf_update.p90_ms", "ms", "lower"),
    ("smc.pf_update.self_p50_ms", "ms", "lower"),
    ("smc.resamples", "count", "lower"),
    ("smc.resample_share", "1", "lower"),
    ("smc.degenerate_resets", "count", "lower"),
    *[(f"smc.pf_run.n{n}.busy_s", "s", "lower") for n in N_LIST],
    ("probcore.rng.calls", "count", "lower"),
    ("probcore.rng.busy_s", "s", "lower"),
    ("simulator.simulate_dataset.busy_s", "s", "lower"),
    ("simulator.read_dataset_csv.busy_s", "s", "lower"),
    ("trace.fit_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("quality.fit_rms", "1", "lower"),
    ("quality.f1", "1", "higher"),
    ("quality.error_ratio", "1", "lower"),
]


def _dd_elems(model, data, a, *args, **kwargs):
    return np.atleast_2d(a).shape[0] * len(data.y) * model.k_spins


def _toy_batch_elems(model, data, omega, *args, **kwargs):
    return np.atleast_2d(omega).shape[0] * len(data.tau) * model.n


def _toy_record_elems(model, record, omega):
    return np.atleast_2d(omega).shape[0] * model.n


def _suffixed(base):
    """Span name ``base.n<n>`` for a call whose model is a toy model with n frequencies."""
    def name(*args, **kwargs):
        model = kwargs.get("model", args[2] if len(args) > 2 else None)
        n = getattr(model, "n", None)
        return f"{base}.n{n}" if n is not None else base
    return name


def install(tracer: Tracer) -> None:
    """Wrap every traced vbi function where its callers look it up."""
    def add(key, value):
        if tracer.op_id > 0:      # count timed operations only, not the warm-up
            tracer.counts[key] += value

    def count_resample(result, ens, *args, **kwargs):
        add("smc.updates", 1)
        add("smc.resamples", result.particles is not ens.particles)

    def count_resets(result, *args, **kwargs):
        add("smc.degenerate_resets", result.degenerate_resets)

    def count_points(result, points, *args, **kwargs):
        add("selection.cluster_points", len(points))

    tracer.wrap(likelihoods.DDModel, "batch_loglik", "likelihoods.dd_batch_loglik", _dd_elems)
    tracer.wrap(likelihoods, "dd_outcome_prob", "likelihoods.dd_outcome_prob")
    tracer.wrap(likelihoods.ToyModel, "batch_loglik", "likelihoods.toy_batch_loglik",
                _toy_batch_elems)
    tracer.wrap(likelihoods.ToyModel, "record_loglik", "likelihoods.toy_record_loglik",
                _toy_record_elems)
    tracer.wrap(flows, "sample_batch", "flows.sample_batch")
    tracer.wrap(flows, "backward_batch", "flows.backward_batch")
    tracer.wrap(flows, "save_checkpoint", "flows.checkpoint")
    tracer.wrap(flows, "load_checkpoint", "flows.checkpoint")
    tracer.wrap(trainer, "estimate_elbo", "trainer.estimate_elbo")
    tracer.wrap(trainer, "train_from", "trainer.train_from")
    tracer.wrap(trainer, "train", _suffixed("trainer.train"))
    tracer.wrap(smc, "pf_init", "smc.pf_init")
    tracer.wrap(smc, "pf_update", "smc.pf_update", after=count_resample)
    tracer.wrap(smc, "pf_run", _suffixed("smc.pf_run"), after=count_resets)
    tracer.wrap(selection, "build_sample_set", "selection.build_sample_set")
    tracer.wrap(selection, "cluster_spins", "selection.cluster_spins", after=count_points)
    tracer.wrap(selection, "ml_metrics", "selection.ml_metrics")
    tracer.wrap(selection, "write_report", "selection.write")
    tracer.wrap(selection, "write_samples_csv", "selection.write")
    for owner in (simulator, cli):   # cli imported these names into its own namespace
        tracer.wrap(owner, "simulate_dataset", "simulator.simulate_dataset")
        tracer.wrap(owner, "read_dataset_csv", "simulator.read_dataset_csv")
    for method in RNG_METHODS:
        tracer.wrap(probcore.RngStream, method, "probcore.rng")


def variance_floor_count() -> int:
    """The DD kernel's variance-floor tally, 0 once the kernel no longer keeps one."""
    counter = getattr(likelihoods, "variance_floor_count", None)
    return counter() if counter is not None else 0


def layer_metrics(tracer: Tracer, n_ops: int, n_setups: int, extra: dict) -> dict:
    """Per-layer metrics from the spans of a traced run.

    ``extra`` supplies values measured outside the spans: ``trace.fit_s``,
    ``likelihoods.variance_floor_hits`` and the ``quality.*`` figures.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    timed = defaultdict(list)
    setup = defaultdict(list)
    for i, span in enumerate(spans):
        (timed if span[OP] > 0 else setup)[span[NAME]].append(i)
    per_op = 1.0 / max(n_ops, 1)

    def durations(name):
        return [spans[i][END] - spans[i][START] for i in timed[name]]

    def busy(name):
        return sum(durations(name)) * per_op

    def ms(name, q, own=False):
        values = [selfs[i] for i in timed[name]] if own else durations(name)
        return 1e3 * percentile(values, q)

    def ns_per_elem(name):
        elems = sum(spans[i][ELEMS] for i in timed[name])
        return 1e9 * sum(durations(name)) / elems if elems else 0.0

    out = {}
    for name in ("likelihoods.dd_batch_loglik", "likelihoods.toy_batch_loglik",
                 "likelihoods.toy_record_loglik", "likelihoods.dd_outcome_prob",
                 "flows.sample_batch", "flows.backward_batch", "smc.pf_update", "probcore.rng"):
        out[f"{name}.calls"] = len(timed[name]) * per_op
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.p50_ms"] = ms(name, 0.5)
        out[f"{name}.p90_ms"] = ms(name, 0.9)
        out[f"{name}.self_p50_ms"] = ms(name, 0.5, own=True)
        out[f"{name}.ns_per_elem"] = ns_per_elem(name)
    out["flows.checkpoint.busy_s"] = busy("flows.checkpoint")

    # trainer: steps, per-step overhead between consecutive ELBO estimates
    children = defaultdict(list)
    for i in timed["trainer.estimate_elbo"]:
        children[spans[i][PARENT]].append(i)
    gaps = []
    for parent in timed["trainer.train_from"]:
        kids = sorted(children.get(parent, ()), key=lambda i: spans[i][START])
        gaps += [spans[b][START] - spans[a][END] for a, b in zip(kids, kids[1:])]
    out["trainer.steps"] = len(timed["trainer.estimate_elbo"]) * per_op
    out["trainer.estimate_elbo.self_p50_ms"] = ms("trainer.estimate_elbo", 0.5, own=True)
    out["trainer.step_overhead.p50_ms"] = 1e3 * percentile(gaps, 0.5)
    for n in N_LIST:
        out[f"trainer.train.n{n}.busy_s"] = busy(f"trainer.train.n{n}")
        out[f"smc.pf_run.n{n}.busy_s"] = busy(f"smc.pf_run.n{n}")

    # cli: time to the first ELBO estimate inside each `vbi fit`, and the share
    # of `vbi fit` that no wrapped child covers
    first_step = {}
    for i in timed["trainer.estimate_elbo"]:
        j = spans[i][PARENT]
        while j >= 0 and spans[j][NAME] != "cli.fit":
            j = spans[j][PARENT]
        if j >= 0 and j not in first_step:
            first_step[j] = spans[i][START] - spans[j][START]
    fits = timed["cli.fit"]
    out["cli.fit.first_step_s"] = sum(first_step.values()) / len(first_step) if first_step else 0.0
    out["cli.fit.busy_s"] = busy("cli.fit")
    fit_total = sum(durations("cli.fit"))
    out["cli.fit.residual_share"] = sum(selfs[i] for i in fits) / fit_total if fit_total else 0.0
    out["cli.select.busy_s"] = busy("cli.select")
    out["cli.bytes_written"] = tracer.counts["cli.bytes_written"] * per_op

    for part in ("build_sample_set", "cluster_spins", "ml_metrics", "write"):
        out[f"selection.{part}.busy_s"] = busy(f"selection.{part}")
    out["selection.cluster_points"] = tracer.counts["selection.cluster_points"] * per_op

    updates = tracer.counts["smc.updates"]
    out["smc.resamples"] = tracer.counts["smc.resamples"] * per_op
    out["smc.resample_share"] = tracer.counts["smc.resamples"] / updates if updates else 0.0
    out["smc.degenerate_resets"] = tracer.counts["smc.degenerate_resets"] * per_op

    sims = setup["simulator.simulate_dataset"]
    out["simulator.simulate_dataset.busy_s"] = (
        sum(spans[i][END] - spans[i][START] for i in sims) / max(n_setups, 1))
    out["simulator.read_dataset_csv.busy_s"] = busy("simulator.read_dataset_csv")
    out["trace.spans"] = sum(len(v) for v in timed.values()) * per_op
    out.update(extra)
    return {name: out[name] for name, _, _ in PER_LAYER}
