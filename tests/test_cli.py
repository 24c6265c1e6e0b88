import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vbi
from vbi import cli, flows, pipeline, selection
from vbi.errors import TrainingDiverged
from vbi.simulator import read_dataset_csv, read_truth_json
from vbi.trainer import TrainTrace


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


def dd_config(**model_extra):
    model = {"kind": "dd", "B_gauss": 403.0, "m_points": 48, "repetitions": 128,
             "truth_count": 2, "truth_seed": 11, "ansatz_spins": 3}
    model.update(model_extra)
    return {
        "model": model,
        "train": {"batch": 16, "steps": 60, "seed": 1},
        "regularizer": {"kind": "l2", "sigma": 1e-2, "trainable": True},
        "selection": {"draws": 256, "aperp_threshold_mhz": 0.05},
    }


def toy_config():
    return {
        "model": {"kind": "toy", "n_frequencies": 1, "m_points": 32,
                  "repetitions": 256, "truth_frequencies": [0.5],
                  "log_tau_range": [-1.0, 2.0]},
        "train": {"batch": 16, "steps": 80, "seed": 2},
    }


def bench_config():
    return {
        "model": {"kind": "toy", "m_points": 24, "repetitions": 64,
                  "log_tau_range": [-1.0, 1.5]},
        "train": {"steps": 60, "batch": 16},
        "bench": {"n_list": [2], "seeds": [0], "n_particles": 256, "trials": 2000},
    }


def subprocess_env():
    """The environment with this checkout's vbi first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(vbi.__file__).resolve().parent.parent),
                                         *filter(None, env.get("PYTHONPATH", "").split(os.pathsep))])
    return env


# a valid value of every key only one model kind reads
DD_ONLY = {
    "model": {"ansatz_spins": 3, "B_gauss": 403.0, "n_pi": 7, "T2_inv": 1e-4, "eta0": 0.5,
              "eta_stretch": 1.5, "tau_min_us": 1.0, "tau_max_us": 9.0,
              "truth_spins": [[0.1, 0.2]], "truth_count": 2, "az_range": [-0.1, 0.1],
              "aperp_range": [0.1, 0.3], "min_delta_az": 0.03},
    "selection": {"aperp_threshold_mhz": 0.05, "az_max_mhz": 0.3, "mahalanobis_t": 4.0,
                  "draws": 16},
}
TOY_ONLY = {
    "model": {"n_frequencies": 2, "log_tau_range": [-1.0, 2.0], "truth_frequencies": [0.5]},
    "bench": {"n_list": [2], "seeds": [0], "n_particles": 256, "trials": 100},
}
WRONG_KIND = [(kind, section, key, value)
              for kind, own in (("toy", DD_ONLY), ("dd", TOY_ONLY))
              for section, keys in own.items() for key, value in keys.items()]


# --------------------------------------------------------------------------
# config validation
# --------------------------------------------------------------------------


@pytest.mark.parametrize("config,key", [
    ({"model": {"kind": "dd", "B_gauss": 403.0, "banana": 1}}, "model.banana"),
    ({"model": {"kind": "dd", "B_gauss": 403.0}, "train": {"init_spread": "matched"}},
     "train.init_spread"),
    ({"model": {"kind": "toy"}, "selection": {}}, "selection"),
    ({"model": {"kind": "toy"}, "selection": {"banana": 1}}, "selection.banana"),
    *[({"model": {"kind": "toy"}, "bench": {key: value}}, f"bench.{key}")
      for key, value in (("batch", 16), ("steps", 60), ("lr_start", 1e-2), ("lr_end", 1e-3))],
    ({"model": {"kind": "dd", "B_gauss": 403.0}, "selection": {"cluster_seed": 0}},
     "selection.cluster_seed"),
], ids=["model.banana", "train.init_spread", "toy-empty-selection", "toy-selection.banana",
        "bench.batch", "bench.steps", "bench.lr_start", "bench.lr_end", "selection.cluster_seed"])
def test_unknown_key_rejected(tmp_path, capsys, config, key):
    path = write_config(tmp_path, config)
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("kind,section,key,value", WRONG_KIND,
                         ids=[f"{kind}-{section}.{key}" for kind, section, key, _ in WRONG_KIND])
def test_key_of_other_kind_rejected(tmp_path, capsys, kind, section, key, value):
    config = toy_config() if kind == "toy" else dd_config()
    config.setdefault(section, {})[key] = value
    path = write_config(tmp_path, config)
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err and repr(kind) in err


@pytest.mark.parametrize("kind,explicit,key,value", [
    ("dd", "truth_spins", "truth_seed", 3),
    ("dd", "truth_spins", "az_range", [-0.1, 0.1]),
    ("dd", "truth_spins", "aperp_range", [0.1, 0.3]),
    ("dd", "truth_spins", "min_delta_az", 0.03),
    ("toy", "truth_frequencies", "truth_seed", 3),
], ids=["truth_spins-truth_seed", "truth_spins-az_range", "truth_spins-aperp_range",
        "truth_spins-min_delta_az", "truth_frequencies-truth_seed"])
def test_explicit_truth_excludes_generated_truth_keys(tmp_path, capsys, kind, explicit, key,
                                                      value):
    config = dd_config(truth_spins=[[0.1, 0.2]]) if kind == "dd" else toy_config()
    config["model"].pop("truth_seed", None)
    config["model"][key] = value
    path = write_config(tmp_path, config)
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"model.{key}" in err and f"model.{explicit}" in err


def test_truth_count_beside_explicit_truth_and_ansatz_spins_rejected(tmp_path, capsys):
    config = dd_config(truth_spins=[[0.1, 0.2]])
    config["model"].pop("truth_seed")
    path = write_config(tmp_path, config)
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "model.truth_count" in capsys.readouterr().err
    del config["model"]["ansatz_spins"]     # then it sets the ansatz size
    path = write_config(tmp_path, config)
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 0


def test_missing_b_gauss_names_field(tmp_path, capsys):
    path = write_config(tmp_path, {"model": {"kind": "dd"}})
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "B_gauss" in capsys.readouterr().err


def test_wrong_type_rejected(tmp_path, capsys):
    path = write_config(tmp_path, {"model": {"kind": "dd", "B_gauss": "strong"}})
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "B_gauss" in capsys.readouterr().err


@pytest.mark.parametrize("kind,section,key,value", [
    ("dd", "model", "az_range", [0.1]),
    ("dd", "model", "aperp_range", [0.1, "wide"]),
    ("toy", "model", "log_tau_range", [-1.0, 2.0, 4.0]),
    ("dd", "model", "truth_spins", [[0.1, 0.2], [0.3]]),
    ("dd", "model", "truth_spins", [0.1, 0.2]),
    ("toy", "model", "truth_frequencies", ["x"]),
    ("toy", "bench", "n_list", ["x"]),
    ("toy", "bench", "seeds", [0.5]),
    ("toy", "bench", "n_list", [2, 0]),
    ("toy", "ansatz", "n_layers", 9),
    ("dd", "ansatz", "hidden_width", 3),
    ("dd", "model", "repetitions", 0),
    ("dd", "model", "T2_inv", -0.001),
    ("dd", "model", "eta0", -0.02),
    ("dd", "model", "eta_stretch", 0),
    ("dd", "model", "n_pi", 0),
    ("dd", "selection", "draws", 0),
    ("dd", "selection", "mahalanobis_t", 0.0),
    ("dd", "plot", "draws", -1),
    ("dd", "model", "ansatz_spins", 0),
    ("dd", "model", "truth_count", 0),
    ("toy", "model", "n_frequencies", 0),
    ("dd", "model", "m_points", 0),
    ("dd", "model", "tau_min_us", 0.0),
    ("dd", "model", "tau_max_us", -1.0),
    ("toy", "bench", "n_particles", 1),
    ("toy", "bench", "trials", 0),
    ("toy", "bench", "seeds", []),
    ("toy", "bench", "n_list", []),
    ("toy", "model", "truth_frequencies", [0.3, 1.5]),
    ("toy", "model", "truth_frequencies", [-0.2]),
    # json.dumps writes NaN as the bare token NaN, which json.load reads back
    ("dd", "model", "T2_inv", float("nan")),
    ("dd", "train", "lr_start", float("nan")),
    ("dd", "model", "aperp_range", [float("nan"), 0.5]),
    ("dd", "model", "truth_spins", [[0.1, 0.2], [0.3, float("nan")]]),
    ("toy", "model", "truth_frequencies", [0.5, float("nan")]),
    # and Infinity as the bare token Infinity
    ("dd", "model", "tau_max_us", float("inf")),
    ("dd", "model", "T2_inv", float("inf")),
    ("dd", "model", "az_range", [float("-inf"), 0.1]),
], ids=["az_range", "aperp_range", "log_tau_range", "truth_spins-short-pair",
        "truth_spins-flat", "truth_frequencies", "n_list", "seeds", "n_list-below-1",
        "ansatz.n_layers", "ansatz.hidden_width", "repetitions", "T2_inv", "eta0",
        "eta_stretch", "n_pi", "selection.draws", "selection.mahalanobis_t", "plot.draws",
        "ansatz_spins", "truth_count", "n_frequencies", "m_points", "tau_min_us",
        "tau_max_us", "bench.n_particles", "bench.trials", "seeds-empty", "n_list-empty",
        "truth_frequencies-above-1", "truth_frequencies-below-0", "T2_inv-nan", "lr_start-nan",
        "aperp_range-nan", "truth_spins-nan", "truth_frequencies-nan", "tau_max_us-inf",
        "T2_inv-inf", "az_range-inf"])
def test_bad_config_value_rejected(tmp_path, capsys, kind, section, key, value):
    config = {"model": {"kind": "dd", "B_gauss": 403.0} if kind == "dd" else {"kind": "toy"}}
    config.setdefault(section, {})[key] = value
    path = write_config(tmp_path, config)
    code = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{section}.{key}" in capsys.readouterr().err


def test_infinity_in_a_config_file_exits_2(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"model": {"kind": "dd", "B_gauss": 403.0, "tau_max_us": Infinity}}')
    run = subprocess.run([sys.executable, "-m", "vbi.cli", "simulate", "--config", str(path),
                          "--out", str(tmp_path / "o")], env=subprocess_env(),
                         capture_output=True, text=True)
    assert run.returncode == 2
    assert "model.tau_max_us must be a number" in run.stderr


def test_missing_config_file(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert code == 2


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


def test_simulate_writes_expected_files(tmp_path):
    path = write_config(tmp_path, dd_config())
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    records = read_dataset_csv(out / "dataset.csv")
    assert len(records) == 48
    truth = json.loads((out / "ground_truth.json").read_text())
    assert len(truth["spins"]) == 2
    assert {"Az_MHz", "Aperp_MHz"} == set(truth["spins"][0])
    t_tot = json.loads((out / "t_tot.json").read_text())
    assert t_tot["T_tot_s"] > 0


def test_simulate_seed_reproducible(tmp_path):
    path = write_config(tmp_path, dd_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.main(["simulate", "--config", path, "--seed", "5", "--out", str(out_a)])
    cli.main(["simulate", "--config", path, "--seed", "5", "--out", str(out_b)])
    assert (out_a / "dataset.csv").read_bytes() == (out_b / "dataset.csv").read_bytes()


# --------------------------------------------------------------------------
# fit / select round trip (small settings, smoke scale)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fitted_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("run")
    config = dd_config()
    path = write_config(tmp_path, config)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    code = cli.main(["fit", "--config", path, "--dataset", str(out / "dataset.csv"),
                     "--out", str(out)])
    assert code == 0
    return path, out


def test_fit_outputs(fitted_run, capsys):
    _, out = fitted_run
    assert (out / "checkpoint.json").exists()
    trace_lines = (out / "trace.csv").read_text().strip().splitlines()
    assert len(trace_lines) == 61  # header + steps
    params, extra = flows.load_checkpoint(out / "checkpoint.json")
    assert params.d == 6
    assert len(extra["phi"]) == 3


def test_fit_rejects_mismatched_dataset(tmp_path, capsys):
    config = toy_config()
    path = write_config(tmp_path, config)
    out = tmp_path / "toyrun"
    cli.main(["simulate", "--config", path, "--out", str(out)])
    dd_path = write_config(tmp_path, dd_config(), name="dd.json")
    code = cli.main(["fit", "--config", dd_path, "--dataset", str(out / "dataset.csv"),
                     "--out", str(out)])
    assert code == 2


@pytest.mark.parametrize("kind", ["dd", "toy"])
def test_fit_rejects_a_dataset_without_records(tmp_path, capsys, kind):
    path = write_config(tmp_path, dd_config() if kind == "dd" else toy_config())
    dataset = tmp_path / "dataset.csv"
    dataset.write_text("tau_s,n_pi,repetitions,y\n")
    code = cli.main(["fit", "--config", path, "--dataset", str(dataset),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"dataset {dataset} has no records" in err


@pytest.mark.parametrize("row", ["", "7e-06,32,128", "7e-06,32,128,half", "-7e-06,32,128,0.5"],
                         ids=["blank", "three-fields", "not-a-number", "negative-tau"])
def test_fit_names_the_line_of_a_bad_dataset_row(tmp_path, capsys, row):
    path = write_config(tmp_path, dd_config())
    dataset = tmp_path / "dataset.csv"
    dataset.write_text(f"tau_s,n_pi,repetitions,y\n7e-06,32,128,0.5\n{row}\n7.1e-06,32,128,0.5\n")
    code = cli.main(["fit", "--config", path, "--dataset", str(dataset),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"dataset {dataset}, line 3 {row!r}: " in capsys.readouterr().err


def test_fit_divergence_leaves_the_trace_and_no_checkpoint(tmp_path, capsys, monkeypatch,
                                                          fitted_run):
    path, out = fitted_run
    steps = 12
    trace = TrainTrace(elbo=-np.arange(steps, dtype=float), lr=np.full(steps, 1e-2),
                       phi=np.zeros((steps, 3)), reg_sigma=np.ones(steps))

    def diverge(config, records, seed):
        raise TrainingDiverged(steps, -1e9, trace)

    monkeypatch.setattr(pipeline, "fit_dataset", diverge)
    code = cli.main(["fit", "--config", path, "--dataset", str(out / "dataset.csv"),
                     "--out", str(tmp_path)])
    assert code == 3
    lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert lines[0] == "step,elbo,lr,t2_inv,chi,eta,reg_sigma"
    assert len(lines) == 1 + steps
    assert f"diverged at step {steps}" in capsys.readouterr().err
    assert not (tmp_path / "checkpoint.json").exists()


def test_fit_is_byte_reproducible(fitted_run, tmp_path):
    path, out = fitted_run
    again = tmp_path / "again"
    code = cli.main(["fit", "--config", path, "--dataset", str(out / "dataset.csv"),
                     "--out", str(again)])
    assert code == 0
    for name in ("checkpoint.json", "trace.csv"):
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


def test_select_rejects_corrupt_checkpoint(tmp_path, fitted_run):
    path, _ = fitted_run
    bad = tmp_path / "bad.json"
    bad.write_text("{\"magic\": \"WRONG\"}")
    code = cli.main(["select", "--config", path, "--checkpoint", str(bad),
                     "--out", str(tmp_path)])
    assert code == 2


def test_select_rejects_checkpoint_of_wrong_length(tmp_path, capsys, fitted_run):
    path, out = fitted_run
    payload = json.loads((out / "checkpoint.json").read_text())
    n = len(payload["params"])
    payload["params"].append(0.0)
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(payload))
    code = cli.main(["select", "--config", path, "--checkpoint", str(bad),
                     "--out", str(tmp_path)])
    assert code == 2
    assert f"has {n + 1} entries, expected {n}" in capsys.readouterr().err


@pytest.mark.parametrize("name,field", [("ground_truth.json", "spins"),
                                        ("checkpoint.json", "family")])
def test_select_rejects_input_file_missing_a_field(tmp_path, capsys, fitted_run, name, field):
    path, out = fitted_run
    files = {f: out / f for f in ("checkpoint.json", "ground_truth.json")}
    payload = json.loads(files[name].read_text())
    del payload[field]
    files[name] = tmp_path / name
    files[name].write_text(json.dumps(payload))
    code = cli.main(["select", "--config", path, "--checkpoint", str(files["checkpoint.json"]),
                     "--ground-truth", str(files["ground_truth.json"]), "--out", str(tmp_path)])
    assert code == 2
    assert repr(field) in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_select_numeric_overflow_exits_3(tmp_path, capsys):
    # draws of a flow with location and scale 1e308 overflow in its affine map
    path = write_config(tmp_path, dd_config())
    spec = flows.AnsatzSpec(d=6, family="mean-field")
    params = flows.init_flow_parameters(spec, np.full(6, 1e308), np.full(6, 1e308))
    ckpt = tmp_path / "overflow.json"
    flows.save_checkpoint(ckpt, params)
    code = cli.main(["select", "--config", path, "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("payload,problem", [
    ([1, 2], "not a JSON object"),
    ({"spins": [1, 2], "T2_inv": 1e-4, "B_gauss": 403.0}, "not a list of objects"),
    ({"spins": [{"Az_MHz": "x", "Aperp_MHz": 0.2}], "T2_inv": 1e-4, "B_gauss": 403.0},
     "'Az_MHz' is not a number"),
    ({"spins": [{"Az_MHz": None, "Aperp_MHz": 0.2}], "T2_inv": 1e-4, "B_gauss": 403.0},
     "'Az_MHz' is not a number"),
    ({"spins": [{"Az_MHz": 0.1, "Aperp_MHz": True}], "T2_inv": 1e-4, "B_gauss": 403.0},
     "'Aperp_MHz' is not a number"),
    ({"spins": [{"Az_MHz": 0.1, "Aperp_MHz": 0.2}], "T2_inv": 1e-4, "B_gauss": [1]},
     "'B_gauss' is not a number"),
    ({"spins": {"Az_MHz": 0.1}, "T2_inv": 1e-4, "B_gauss": 403.0}, "'spins' is not a list"),
], ids=["top-level-list", "spins-not-objects", "az-string", "az-null", "aperp-bool",
        "b-gauss-list", "spins-object"])
def test_select_rejects_malformed_ground_truth(tmp_path, capsys, fitted_run, payload, problem):
    path, out = fitted_run
    truth = tmp_path / "ground_truth.json"
    truth.write_text(json.dumps(payload))
    code = cli.main(["select", "--config", path, "--checkpoint", str(out / "checkpoint.json"),
                     "--ground-truth", str(truth), "--out", str(tmp_path)])
    assert code == 2
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("field,value,problem", [
    ("d", "20", "'d' is not an integer"),
    ("d", 6.0, "'d' is not an integer"),
    ("n_layers", True, "'n_layers' is not an integer"),
    ("family", 5, "unknown family 5"),
    ("params", "1.0", "'params' is not a list"),
    ("params", lambda p: [[v] for v in p["params"]], "'params' is not a flat list of numbers"),
    ("extra", [1], "'extra' is not an object"),
], ids=["d-string", "d-float", "n-layers-bool", "family-number", "params-string",
        "params-nested", "extra-list"])
def test_select_rejects_malformed_checkpoint(tmp_path, capsys, fitted_run, field, value, problem):
    path, out = fitted_run
    payload = json.loads((out / "checkpoint.json").read_text())
    payload[field] = value(payload) if callable(value) else value
    bad = tmp_path / "checkpoint.json"
    bad.write_text(json.dumps(payload))
    code = cli.main(["select", "--config", path, "--checkpoint", str(bad),
                     "--out", str(tmp_path)])
    assert code == 2
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("phi,problem", [
    (5, "'phi' is not a list"),
    (None, "'phi' is not a list"),
    (["a", 1, 2], "'phi' is not three non-negative numbers"),
    ([1, 2, 3, 4], "'phi' is not three non-negative numbers"),
    ([1, 2], "'phi' is not three non-negative numbers"),
    ([-1, 0, 0], "'phi' is not three non-negative numbers"),
    ([True, 0, 0], "'phi' is not three non-negative numbers"),
], ids=["number", "null", "string-entry", "four", "two", "negative", "bool-entry"])
def test_plotdata_rejects_malformed_phi(tmp_path, capsys, fitted_run, phi, problem):
    path, out = fitted_run
    payload = json.loads((out / "checkpoint.json").read_text())
    payload["extra"]["phi"] = phi
    (tmp_path / "checkpoint.json").write_text(json.dumps(payload))
    (tmp_path / "dataset.csv").write_bytes((out / "dataset.csv").read_bytes())
    code = cli.main(["plotdata", "--config", path, "--run-dir", str(tmp_path),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert problem in capsys.readouterr().err


def test_select_scores_an_empty_ground_truth(tmp_path, fitted_run):
    # vbi simulate writes "spins": [] for a config with no truth spins
    path, out = fitted_run
    config = dd_config(truth_spins=[])
    del config["model"]["truth_count"], config["model"]["truth_seed"]
    empty = tmp_path / "empty"
    assert cli.main(["simulate", "--config", write_config(tmp_path, config),
                     "--out", str(empty)]) == 0
    assert json.loads((empty / "ground_truth.json").read_text())["spins"] == []
    with pytest.warns(UserWarning, match="no true positives"):
        code = cli.main(["select", "--config", path,
                         "--checkpoint", str(out / "checkpoint.json"),
                         "--ground-truth", str(empty / "ground_truth.json"),
                         "--out", str(empty)])
    assert code == 0
    report = json.loads((empty / "selection.json").read_text())
    assert (report["metrics"]["TP"], report["metrics"]["FN"]) == (0, 0)
    assert "errors_kHz" not in report


def test_select_rejects_toy_config(tmp_path, capsys):
    path = write_config(tmp_path, toy_config())
    spec = flows.AnsatzSpec(d=1, family="mean-field")
    ckpt = tmp_path / "toy.json"
    flows.save_checkpoint(ckpt, flows.init_flow_parameters(spec, np.full(1, 0.5), np.ones(1)))
    code = cli.main(["select", "--config", path, "--checkpoint", str(ckpt),
                     "--out", str(tmp_path)])
    assert code == 2
    assert "dd model only" in capsys.readouterr().err


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("toyrun")
    path = write_config(tmp_path, toy_config())
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    assert cli.main(["fit", "--config", path, "--dataset", str(out / "dataset.csv"),
                     "--out", str(out)]) == 0
    return out


def test_fit_seed_flag_overrides_train_seed(tmp_path, toy_run):
    # --seed 5 on a config with train.seed 2 trains as train.seed 5 would
    config = toy_config()
    flagged = write_config(tmp_path, config, name="flagged.json")
    config["train"]["seed"] = 5
    seeded = write_config(tmp_path, config, name="seeded.json")
    dataset = str(toy_run / "dataset.csv")
    assert cli.main(["fit", "--config", flagged, "--dataset", dataset, "--seed", "5",
                     "--out", str(tmp_path / "flag")]) == 0
    assert cli.main(["fit", "--config", seeded, "--dataset", dataset,
                     "--out", str(tmp_path / "config")]) == 0
    trace = (tmp_path / "flag" / "trace.csv").read_bytes()
    assert trace == (tmp_path / "config" / "trace.csv").read_bytes()
    assert trace != (toy_run / "trace.csv").read_bytes()
    assert flows.load_checkpoint(tmp_path / "flag" / "checkpoint.json")[1]["seed"] == 5


@pytest.mark.parametrize("command", ["select", "plotdata"])
def test_dd_command_rejects_toy_checkpoint(tmp_path, capsys, toy_run, command):
    path = write_config(tmp_path, dd_config())
    inputs = (["--checkpoint", str(toy_run / "checkpoint.json")] if command == "select"
              else ["--run-dir", str(toy_run)])
    code = cli.main([command, "--config", path, *inputs, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "fitted with the toy model" in capsys.readouterr().err


def test_select_report(fitted_run):
    path, out = fitted_run
    code = cli.main(["select", "--config", path, "--checkpoint", str(out / "checkpoint.json"),
                     "--ground-truth", str(out / "ground_truth.json"), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "selection.json").read_text())
    assert report["Z"] == 256
    assert sum(report["p_c"].values()) == pytest.approx(1.0, abs=1e-12)
    assert "metrics" in report
    assert {"TP", "FP", "FN", "precision", "recall", "F1"} == set(report["metrics"])
    lines = (out / "samples.csv").read_text().strip().splitlines()
    assert len(lines) == 257


def test_select_determinism(fitted_run, tmp_path):
    path, out = fitted_run
    out_a, out_b = tmp_path / "sa", tmp_path / "sb"
    for target in (out_a, out_b):
        code = cli.main(["select", "--config", path,
                         "--checkpoint", str(out / "checkpoint.json"),
                         "--seed", "3", "--out", str(target)])
        assert code == 0
    assert (out_a / "selection.json").read_bytes() == (out_b / "selection.json").read_bytes()


def test_select_writes_the_select_spins_report(fitted_run, tmp_path):
    path, out = fitted_run
    code = cli.main(["select", "--config", path, "--checkpoint", str(out / "checkpoint.json"),
                     "--ground-truth", str(out / "ground_truth.json"), "--seed", "4",
                     "--out", str(tmp_path)])
    assert code == 0
    params, _ = flows.load_checkpoint(out / "checkpoint.json")
    truth, _, _ = read_truth_json(out / "ground_truth.json")
    found = pipeline.select_spins(pipeline.load_config(path), params, 4, truth)
    selection.write_report(tmp_path / "library.json", selection.selection_report(*found))
    assert (tmp_path / "selection.json").read_bytes() == (tmp_path / "library.json").read_bytes()


def test_select_rejects_bad_draws(fitted_run, tmp_path):
    path, out = fitted_run
    bad_cfg = dd_config()
    bad_cfg["selection"]["draws"] = 0
    bad_path = write_config(tmp_path, bad_cfg, name="bad.json")
    code = cli.main(["select", "--config", bad_path,
                     "--checkpoint", str(out / "checkpoint.json"), "--out", str(tmp_path)])
    assert code == 2


def test_plotdata_outputs(fitted_run):
    path, out = fitted_run
    code = cli.main(["plotdata", "--config", path, "--run-dir", str(out), "--out", str(out)])
    assert code == 0
    lines = (out / "signal.csv").read_text().strip().splitlines()
    assert lines[0] == "tau_s,y_data,y_fit,y_fit_std"
    assert len(lines) == 49  # header + M rows
    stds = [float(l.split(",")[3]) for l in lines[1:]]
    assert all(s >= 0 for s in stds)
    assert (out / "posterior_scatter.csv").exists()


def test_plotdata_degenerate_matches_model_curve(tmp_path):
    # a checkpoint whose flow image of z=0 is the ground truth reproduces the
    # model curve exactly when sampling is disabled
    config = dd_config()
    config["plot"] = {"draws": 0}
    path = write_config(tmp_path, config)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    from vbi.simulator import omega_larmor
    from vbi.likelihoods import DDModel, NuisanceParams

    spins, t2_inv, b = read_truth_json(out / "ground_truth.json")
    truth = spins.ravel()
    spec = flows.AnsatzSpec(d=truth.size, family="mean-field")
    params = flows.init_flow_parameters(spec, truth, 1e-6 * np.ones(truth.size))
    flows.save_checkpoint(out / "checkpoint.json", params,
                          extra={"phi": [t2_inv, 0.0, 0.0]})
    cfg_eval = dd_config(ansatz_spins=2)
    cfg_eval["plot"] = {"draws": 0}
    path2 = write_config(tmp_path, cfg_eval, name="eval.json")
    assert cli.main(["plotdata", "--config", path2, "--run-dir", str(out),
                     "--out", str(out)]) == 0
    records = read_dataset_csv(out / "dataset.csv")
    model = DDModel(2, omega_larmor(b))
    lines = (out / "signal.csv").read_text().strip().splitlines()[1:]
    for rec, line in zip(records, lines):
        y_fit = float(line.split(",")[2])
        p1 = model.outcome_prob(rec.tau_us, rec.n_pi, truth, NuisanceParams(t2_inv=t2_inv))
        assert y_fit == pytest.approx(p1, abs=1e-5)


def test_plotdata_incomplete_run(tmp_path):
    path = write_config(tmp_path, dd_config())
    code = cli.main(["plotdata", "--config", path, "--run-dir", str(tmp_path / "empty"),
                     "--out", str(tmp_path)])
    assert code == 2


# --------------------------------------------------------------------------
# bench-pf plumbing (tiny settings; the real bands run in the acceptance suite)
# --------------------------------------------------------------------------


def test_bench_pf_rejects_dd_model(tmp_path):
    path = write_config(tmp_path, dd_config())
    assert cli.main(["bench-pf", "--config", path, "--out", str(tmp_path)]) == 2


def test_bench_pf_has_no_seed_flag(tmp_path, capsys):
    # its seeds are bench.seeds, so a --seed would have no effect
    path = write_config(tmp_path, bench_config())
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["bench-pf", "--config", path, "--seed", "5", "--out", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    ("model.truth_seed", 3), ("model.n_frequencies", 2), ("model.truth_frequencies", [0.5]),
    ("train.seed", 3), ("plot", {"draws": 8}),
])
def test_bench_pf_rejects_keys_it_does_not_read(tmp_path, capsys, path, value):
    config = bench_config()
    section, _, key = path.partition(".")
    if key:
        config[section][key] = value
    else:
        config[section] = value
    path_arg = write_config(tmp_path, config)
    assert cli.main(["bench-pf", "--config", path_arg, "--out", str(tmp_path / "o")]) == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "o" / "bench.csv").exists()


def test_bench_pf_rows(tmp_path):
    path = write_config(tmp_path, bench_config())
    out = tmp_path / "bench"
    assert cli.main(["bench-pf", "--config", path, "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "n,method,seed,error"
    assert len(lines) == 4  # header + PF + VBI + baseline
    methods = {line.split(",")[1] for line in lines[1:]}
    assert methods == {"PF", "VBI", "baseline"}


def test_bench_pf_fits_with_the_train_section():
    config = bench_config()
    rows = pipeline.bench_pf_rows(config)
    config["train"]["steps"] = 61
    longer = pipeline.bench_pf_rows(config)
    by_method = [{row[1]: row for row in found} for found in (rows, longer)]
    assert by_method[0]["VBI"] != by_method[1]["VBI"]
    for method in ("PF", "baseline"):
        assert by_method[0][method] == by_method[1][method]


# --------------------------------------------------------------------------
# module entry point
# --------------------------------------------------------------------------


def test_python_m_vbi_cli_runs_a_command(tmp_path):
    path = write_config(tmp_path, toy_config())
    out = tmp_path / "run"
    subprocess.run([sys.executable, "-m", "vbi.cli", "simulate", "--config", path,
                    "--out", str(out)], env=subprocess_env(), capture_output=True, check=True)
    assert (out / "dataset.csv").exists()
