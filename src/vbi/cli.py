"""Command-line front end: simulate -> fit -> select -> report, plus the
particle-filter benchmark harness and plot-data emission.

The commands are a shell over :mod:`vbi.pipeline`: they parse arguments,
read and write files and map failures to exit codes.  Exit codes: 0
success, 2 configuration/user error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import flows, pipeline, selection
from .errors import TrainingDiverged
from .likelihoods import NuisanceParams
from .pipeline import ConfigError, load_config
from .probcore import RngStream
from .simulator import (MODEL_DD, MODEL_TOY, read_dataset_csv, read_truth_json,
                        simulate_dataset, total_measurement_time, write_dataset_csv,
                        write_truth_json)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _train_seed(args, config: dict) -> int:
    """--seed, else the config's train.seed, else 0."""
    return args.seed if args.seed is not None else config.get("train", {}).get("seed", 0)


def _load_checkpoint(path, config: dict):
    """The checkpoint at ``path``; one that records the model kind it was
    fitted with must have been fitted with the config's."""
    params, extra = flows.load_checkpoint(path)
    kind = config["model"]["kind"]
    if extra.get("kind", kind) != kind:
        raise ConfigError(f"checkpoint {path} was fitted with the {extra['kind']} model, "
                          f"not the config's {kind} model")
    return params, extra


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args)
    scenario = pipeline.scenario(config, _train_seed(args, config))
    records = simulate_dataset(scenario)
    write_dataset_csv(out / "dataset.csv", records)
    if scenario.kind == MODEL_DD:
        write_truth_json(out / "ground_truth.json", scenario.theta_true,
                         scenario.t2_inv, scenario.b_gauss)
        t_tot = total_measurement_time([r.tau_us for r in records],
                                       scenario.repetitions, scenario.n_pi)
    else:
        with open(out / "ground_truth.json", "w") as fh:
            json.dump({"frequencies": scenario.theta_true.tolist()}, fh, indent=2)
        t_tot = float(sum(r.tau_us for r in records) * scenario.repetitions * 1e-6)
    with open(out / "t_tot.json", "w") as fh:
        json.dump({"T_tot_s": t_tot, "m_points": scenario.m_points,
                   "repetitions": scenario.repetitions}, fh, indent=2)
    print(f"wrote {out / 'dataset.csv'} ({len(records)} records), T_tot = {t_tot:.4g} s")
    return EXIT_OK


def cmd_fit(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args)
    records = read_dataset_csv(args.dataset)
    kind = config["model"]["kind"]
    n_pi_expected = pipeline.model_setting(config, "n_pi") if kind == MODEL_DD else 1
    if any(r.n_pi != n_pi_expected for r in records):
        raise ConfigError(f"dataset n_pi column does not match the {kind} model "
                          f"(expected {n_pi_expected})")
    seed = _train_seed(args, config)
    try:
        params, phi, trace = pipeline.fit_dataset(config, records, seed)
    except TrainingDiverged as err:
        trace_path = out / "trace.csv"
        if err.trace is not None:
            err.trace.to_csv(trace_path)
        print(f"training diverged at step {err.step}; trace at {trace_path}", file=sys.stderr)
        return EXIT_NUMERIC
    flows.save_checkpoint(out / "checkpoint.json", params,
                          extra={"phi": list(phi.as_array()), "seed": seed,
                                 "kind": kind})
    trace.to_csv(out / "trace.csv")
    print(f"final smoothed ELBO: {trace.smoothed_elbo():.4f}")
    return EXIT_OK


def cmd_select(args) -> int:
    config = load_config(args.config)
    if config["model"]["kind"] != MODEL_DD:
        raise ConfigError("select runs on the dd model only")
    out = _out_dir(args)
    params, _ = _load_checkpoint(args.checkpoint, config)
    sc = pipeline.selection_settings(config)
    if sc["draws"] < 1:
        raise ConfigError("selection.draws must be >= 1")
    seed = args.seed if args.seed is not None else 0
    theta, _, _ = flows.sample_batch(params, sc["draws"], RngStream(seed))
    sample_set = selection.build_sample_set(theta, sc["aperp_threshold_mhz"], sc["az_max_mhz"])
    clusters = []
    if sample_set.map_class > 0:
        points = selection.marginalize_spins(sample_set.class_sets[sample_set.map_class])
        clusters = selection.cluster_spins(points, sample_set.map_class, seed=sc["cluster_seed"])
    metrics = errors = None
    if args.ground_truth:
        truth, _, _ = read_truth_json(args.ground_truth)
        truth = np.column_stack([truth[:, 0], np.abs(truth[:, 1])])
        metrics = selection.ml_metrics(clusters, truth, sc["mahalanobis_t"])
        errors = selection.hyperfine_errors(clusters, truth, sc["mahalanobis_t"])
    report = selection.selection_report(sample_set, clusters, metrics, errors)
    selection.write_report(out / "selection.json", report)
    selection.write_samples_csv(out / "samples.csv", sample_set)
    print(f"MAP class {sample_set.map_class} "
          f"(p = {sample_set.probabilities[sample_set.map_class]:.4f}), "
          f"{len(clusters)} clusters")
    return EXIT_OK


def cmd_bench_pf(args) -> int:
    config = load_config(args.config)
    if config["model"]["kind"] != MODEL_TOY:
        raise ConfigError("bench-pf runs on the toy model only")
    out = _out_dir(args)
    bc = config.get("bench", {})
    n_list = bc.get("n_list", [2, 4, 8, 12])
    seeds = bc.get("seeds", [0])
    rows = pipeline.bench_pf_rows(config, n_list, seeds)
    path = out / "bench.csv"
    with open(path, "w") as fh:
        fh.write("n,method,seed,error\n")
        for row in rows:
            fh.write("%d,%s,%d,%r\n" % row)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    config = load_config(args.config)
    run_dir = Path(args.run_dir)
    dataset_path = run_dir / "dataset.csv"
    ckpt_path = run_dir / "checkpoint.json"
    if not dataset_path.exists() or not ckpt_path.exists():
        raise ConfigError(f"incomplete run directory: {run_dir} "
                          "(needs dataset.csv and checkpoint.json)")
    records = read_dataset_csv(dataset_path)
    params, extra = _load_checkpoint(ckpt_path, config)
    phi = NuisanceParams(*extra.get("phi", [0.0, 0.0, 0.0]))
    model = pipeline.build_model(config)
    kind = config["model"]["kind"]
    n_draws = config.get("plot", {}).get("draws", 256)

    taus = np.array([r.tau_us for r in records])
    n_pi = np.array([r.n_pi for r in records])
    if n_draws > 0:
        thetas, _, _ = flows.sample_batch(params, n_draws, RngStream(args.seed or 0))
    else:  # degenerate posterior: evaluate at the flow image of z = 0
        thetas = flows.flow_forward(np.zeros(params.d), params)[0][None, :]
    thetas = pipeline.build_prior(config).transform(thetas)
    curves = model.outcome_prob(taus, n_pi, thetas, phi)
    y_fit = curves.mean(axis=0)
    y_std = curves.std(axis=0) if curves.shape[0] > 1 else np.zeros_like(y_fit)

    out = _out_dir(args)
    with open(out / "signal.csv", "w") as fh:
        fh.write("tau_s,y_data,y_fit,y_fit_std\n")
        for r, yf, ys in zip(records, y_fit, y_std):
            fh.write(f"{r.tau_us * 1e-6!r},{float(r.y)!r},{float(yf)!r},{float(ys)!r}\n")
    if kind == MODEL_DD:
        sc = pipeline.selection_settings(config)
        theta_cloud, _, _ = flows.sample_batch(params, max(n_draws, 1024),
                                               RngStream((args.seed or 0) + 1))
        with open(out / "posterior_scatter.csv", "w") as fh:
            fh.write("az_mhz,aperp_mhz\n")
            for th in theta_cloud:
                _, spins = selection.threshold_and_prune(th, sc["aperp_threshold_mhz"],
                                                         sc["az_max_mhz"])
                for az, ap in spins:
                    fh.write(f"{float(az)!r},{float(ap)!r}\n")
    print(f"wrote {out / 'signal.csv'} ({len(records)} rows)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vbi",
                                     description="Variational Bayesian spin identification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", required=True, help="JSON run configuration")
        if seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("simulate", help="write dataset.csv, ground_truth.json, t_tot.json")
    common(p)
    p = sub.add_parser("fit", help="train the posterior on a dataset")
    common(p)
    p.add_argument("--dataset", required=True)
    p = sub.add_parser("select", help="threshold, cluster, and report")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--ground-truth", default=None)
    p = sub.add_parser("bench-pf", help="particle filter vs VBI scaling benchmark")
    common(p, seed=False)      # its seeds are bench.seeds
    p = sub.add_parser("plotdata", help="emit signal and posterior scatter CSVs")
    common(p)
    p.add_argument("--run-dir", required=True)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "select": cmd_select,
    "bench-pf": cmd_bench_pf,
    "plotdata": cmd_plotdata,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
