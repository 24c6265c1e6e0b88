"""Tests of the benchmark's own code.

    python3 -m pytest benchmarks/test_benchmarks.py -q
"""

import json
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from vbi import flows, likelihoods, trainer  # noqa: E402

import layers  # noqa: E402
import provenance  # noqa: E402
import reference  # noqa: E402
from tracing import NAME, PARENT, Tracer, self_times  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 1, 0]


def test_self_time_nested_and_back_to_back_children():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),      # back to back with b
        _span("b", 3.0, 5.0, 0),
        _span("a.inner", 1.5, 2.5, 1),
        _span("c", 7.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 2.0, 1.0, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("root", 0.0, 4.0, -1), _span("a", 1.0, 3.0, 0), _span("b", 2.0, 3.5, 0)]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_span_parentage_through_wrapped_training_chain():
    originals = (trainer.estimate_elbo, vars(likelihoods.DDModel)["batch_loglik"])
    tracer = Tracer()
    layers.install(tracer)
    try:
        omega_l = reference.OMEGA_L
        records = [likelihoods.MeasurementRecord(float(t), 32, 1024, 0.3)
                   for t in np.linspace(6.0, 8.5, 8)]
        model = likelihoods.DDModel(k_spins=1, omega_l=omega_l)
        config = trainer.TrainConfig(batch=4, steps=2, seed=1,
                                     phi0=likelihoods.NuisanceParams(1e-4, 1e-3, 1e-2))
        init = flows.init_flow_parameters(flows.AnsatzSpec(d=2, family="mean-field"),
                                          np.array([0.1, 0.3]), np.array([0.01, 0.01]))
        trainer.train_from(config, records, model, init)
    finally:
        tracer.restore()
    spans = tracer.spans
    names = [s[NAME] for s in spans]
    (root,) = [i for i, n in enumerate(names) if n == "trainer.train_from"]
    elbo = [i for i, n in enumerate(names) if n == "trainer.estimate_elbo"]
    kernel = [i for i, n in enumerate(names) if n == "likelihoods.dd_batch_loglik"]
    assert len(elbo) == len(kernel) == 2
    assert all(spans[i][PARENT] == root for i in elbo)
    assert [spans[i][PARENT] for i in kernel] == elbo
    assert spans[root][PARENT] == -1
    assert (trainer.estimate_elbo, vars(likelihoods.DDModel)["batch_loglik"]) == originals


def _perturbed(method_owner, attr):
    """A subclass whose kernel output is off by 1e-6 relative."""
    original = getattr(method_owner, attr)

    def kernel(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        if isinstance(out, tuple):
            return (out[0] * (1.0 + 1e-6),) + out[1:]
        return out * (1.0 + 1e-6)

    return type(method_owner.__name__, (method_owner,), {attr: kernel})


def _stand_in(dd=likelihoods.DDModel, toy=likelihoods.ToyModel):
    return types.SimpleNamespace(MeasurementRecord=likelihoods.MeasurementRecord,
                                 NuisanceParams=likelihoods.NuisanceParams,
                                 DDModel=dd, ToyModel=toy)


def test_reference_checks_pass_on_the_shipped_kernels():
    assert [f for _, f in reference.check_kernels(likelihoods)] == [[], [], []]


@pytest.mark.parametrize("owner, attr, check", [
    (likelihoods.DDModel, "batch_loglik", "DDModel.batch_loglik"),
    (likelihoods.ToyModel, "batch_loglik", "ToyModel.batch_loglik"),
    (likelihoods.ToyModel, "record_loglik", "ToyModel.record_loglik"),
])
def test_reference_check_fails_on_output_perturbed_by_1e_6(owner, attr, check):
    bad = _perturbed(owner, attr)
    stand_in = _stand_in(**({"dd": bad} if owner is likelihoods.DDModel else {"toy": bad}))
    results = dict(reference.check_kernels(stand_in))
    assert results[check], f"{check} accepted a perturbed kernel"
    assert all(not failures for name, failures in results.items() if name != check)


def test_thread_cap_check_fails_when_a_thread_is_added():
    float((np.ones((256, 256)) @ np.ones((256, 256))).sum())   # start any BLAS pool first
    expected = provenance.thread_count()
    assert provenance.check_thread_cap(expected) == expected
    release = threading.Event()
    extra = threading.Thread(target=release.wait, args=(10.0,))
    extra.start()
    try:
        with pytest.raises(RuntimeError, match="thread cap"):
            provenance.check_thread_cap(expected)
    finally:
        release.set()
        extra.join(timeout=10.0)
    assert not extra.is_alive()


def test_benchmark_json_lists_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    tracer = Tracer()
    metrics = layers.layer_metrics(tracer, 1, 1, {"trace.fit_s": 1.0,
                                                  "likelihoods.variance_floor_hits": 0,
                                                  "quality.fit_rms": 0.0, "quality.f1": 0.0,
                                                  "quality.error_ratio": 0.0})
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
