"""vbi benchmark: one workload per process, pinned to one BLAS thread.

    python3 benchmarks/run.py --workload spin-id --seed 0 --seconds 10 --trace 0
    python3 benchmarks/run.py --compare parent.jsonl change.jsonl

A run checks the likelihood kernels against the closed-form references
(untimed), sets the workload up five times (set-up time is the import time
plus the median of the five), then repeats the workload's operation until
``--seconds`` have passed, checking every operation's outputs untimed.  The
last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
when ``--trace 0`` and the per-layer metrics of BENCHMARK.json when
``--trace 1``.  The line before it holds sample counts and provenance.
``--record FILE`` also appends both to a JSON-lines file, the input of
``--compare``.
"""

import os
import sys
import time

T_START = time.perf_counter()
# One BLAS thread; this only works before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("spin-id", "spin-id-n24", "bench-pf", "bench-vbi")


class Context:
    """What a workload needs from the runner: seed, scratch directory, clock,
    and spans and counts that cost nothing when the run is untraced."""

    clock = staticmethod(time.perf_counter)

    def __init__(self, seed: int, workdir: Path, tracer):
        self.seed, self.workdir, self.tracer = seed, workdir, tracer
        self.counts = tracer.counts if tracer else defaultdict(float)
        self.op_id = 0

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def paused(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def count(self, key: str, value: float) -> None:
        if self.op_id > 0:
            self.counts[key] += value

    def next_op(self) -> None:
        self.op_id += 1
        if self.tracer:
            self.tracer.op_id = self.op_id


def _import_vbi():
    src = ROOT / "src"
    if not (src / "vbi" / "__init__.py").is_file():
        raise SystemExit(f"error: no vbi package under {src}; run from a vbi checkout")
    sys.path.insert(0, str(src))
    import vbi

    if Path(vbi.__file__).resolve().parent != (src / "vbi").resolve():
        raise SystemExit(f"error: imported vbi from {vbi.__file__}, not from {src}")
    return vbi


def measure(args) -> tuple[dict, dict]:
    vbi = _import_vbi()
    import layers
    import provenance
    import reference
    import workloads
    from tracing import Tracer

    import_s = time.perf_counter() - T_START
    attempted = failed = 0
    for name, failures in reference.check_kernels(vbi.likelihoods):
        attempted += 1
        if failures:
            failed += 1
            print(f"reference check {name} failed: " + "; ".join(failures[:5]), file=sys.stderr)

    tracer = Tracer() if args.trace else None
    if tracer:
        layers.install(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=OUT_DIR))
    ctx = Context(args.seed, workdir, tracer)
    workload = workloads.WORKLOADS[args.workload]()
    samples = defaultdict(list)
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            threads = provenance.check_thread_cap(1)
            workload.setup(ctx)
            samples["setup_s"].append(time.perf_counter() - t0)

        floor0 = layers.variance_floor_count()
        t_loop = time.perf_counter()
        while not samples["fit_s"] or time.perf_counter() - t_loop < args.seconds:
            ctx.next_op()
            attempted += 1
            try:
                out = workload.operation(ctx)
                with ctx.paused():
                    failures = workload.check(out)
            except Exception:  # an operation that raises is a failed operation
                traceback.print_exc()
                failed += 1
                break
            for key in ("fit_s", "select_s"):
                if key in out:
                    samples[key].append(out[key])
            if failures:
                failed += 1
                print(f"operation {ctx.op_id} failed: " + "; ".join(failures), file=sys.stderr)
        floor_hits = layers.variance_floor_count() - floor0
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    fit_s = statistics.median(samples["fit_s"]) if samples["fit_s"] else 0.0
    if tracer:
        extra = {"trace.fit_s": fit_s,
                 "likelihoods.variance_floor_hits": floor_hits / max(ctx.op_id, 1),
                 **workload.quality}
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        values = layers.layer_metrics(tracer, ctx.op_id, SETUP_REPEATS, extra)
        metrics = {name: {"value": float(v), "unit": units[name]} for name, v in values.items()}
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(samples["setup_s"]), "unit": "s"},
            "fit_s": {"value": fit_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "operations": ctx.op_id, "import_s": import_s,
               "samples": {k: len(v) for k, v in samples.items()},
               "select_s": samples["select_s"],
               "provenance": provenance.provenance(ROOT, threads)}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append details and result to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two JSON-lines result sets written by --record")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    details, result = measure(args)
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({**details, "result": result}) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
