import csv
import json

import numpy as np
import pytest

from snowlink.cli import main


@pytest.fixture
def population_file(tmp_path):
    obj = {
        "N": 8, "n": 3,
        "cluster_mode": {"type": "conditional_multinomial", "tau1": 400},
        "tau2": 200,
        "model1": {"family": "homogeneous", "n": 3},
        "model2": {"family": "homogeneous", "n": 3},
        "theta1": [-0.6, -0.6, -0.6],
        "theta2": [-0.8, -0.8, -0.8],
    }
    path = tmp_path / "population.json"
    path.write_text(json.dumps(obj))
    return path


def test_simulate_estimate_pipeline(tmp_path, population_file, capsys):
    sample = tmp_path / "sample.json"
    truth = tmp_path / "truth.json"
    assert main(["simulate", "--config", str(population_file), "--seed", "3",
                 "--out", str(sample), "--truth", str(truth)]) == 0
    truth_obj = json.loads(truth.read_text())
    assert truth_obj["tau1"] == 400

    model = tmp_path / "model.json"
    model.write_text(json.dumps({"family": "homogeneous", "n": 3}))
    report_path = tmp_path / "report.json"
    assert main(["estimate", "--data", str(sample), "--model", str(model),
                 "--method", "cmle", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["method"] == "cmle"
    assert report["tau"] == report["tau1"]["floor"] + report["tau2"]["floor"]
    assert "intervals" in report["variance"]


def test_matrices_command(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"family": "homogeneous", "n": 2}))
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"values": [-0.5, -0.5]}))
    out = tmp_path / "matrix.json"
    for which, dim in (("sigma1", 3), ("psi1", 2), ("sigma2", 3)):
        assert main(["matrices", "--model", str(model), "--theta", str(theta),
                     "--design", "2,6", "--which", which, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert len(obj["inverse"]) == dim
        prod = np.array(obj["inverse"]) @ np.array(obj["covariance"])
        assert np.allclose(prod, np.eye(dim), atol=1e-8)


def test_experiment_command(tmp_path, population_file):
    config = {
        "population": json.loads(population_file.read_text()),
        "replicates": 3,
        "methods": ["cmle"],
        "master_seed": 11,
    }
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    assert main(["experiment", "--config", str(cfg_path),
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "replicates.csv").exists()
    assert (out_dir / "digest.txt").exists()


def test_experiment_with_replicate_failures_still_exits_zero(tmp_path, capsys):
    # no people outside the frame: every replicate's outside fit fails, but
    # the run completes, tallies the failures, and exits 0
    config = {
        "population": {
            "N": 8, "n": 3,
            "cluster_mode": {"type": "conditional_multinomial", "tau1": 300},
            "tau2": 0,
            "model1": {"family": "homogeneous", "n": 3},
            "model2": {"family": "homogeneous", "n": 3},
            "theta1": [-0.6, -0.6, -0.6],
            "theta2": [-0.8, -0.8, -0.8],
        },
        "replicates": 2,
        "methods": ["cmle"],
        "master_seed": 1,
        "out_dir": str(tmp_path / "results"),
    }
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg_path)]) == 0
    assert "2 replicate failures" in capsys.readouterr().out


def test_bad_config_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["experiment", "--config", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_exits_nonzero(tmp_path):
    assert main(["estimate", "--data", str(tmp_path / "nope.json"),
                 "--model", str(tmp_path / "nope.json"),
                 "--method", "cmle", "--out", str(tmp_path / "r.json")]) == 1


def test_experiment_csv_cells_read_back_as_numbers(tmp_path, population_file):
    config = {
        "population": json.loads(population_file.read_text()),
        "replicates": 2,
        "master_seed": 4,
    }
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    assert main(["experiment", "--config", str(cfg_path),
                 "--out-dir", str(out_dir)]) == 0
    with open(out_dir / "replicates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 and not any(row["error"] for row in rows)
    for row in rows:
        for column, cell in row.items():
            if column not in ("method", "error"):
                float(cell)
        assert float(row["tau_lo"]) <= float(row["tau_hat"]) <= float(row["tau_hi"])


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_experiment_bad_worker_count_exits_nonzero(tmp_path, population_file,
                                                   capsys, workers):
    config = {"population": json.loads(population_file.read_text()), "replicates": 1}
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(cfg_path), "--workers", workers,
                 "--out-dir", str(tmp_path / "results")]) == 1
    assert "error: parallelism must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


def test_estimate_non_integer_count_exits_nonzero(tmp_path, capsys):
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({
        "n": 2, "N": 5, "m": [3, 4],
        "between1": [{"pattern": "10", "count": "two"}],
    }))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"family": "homogeneous", "n": 2}))
    assert main(["estimate", "--data", str(sample), "--model", str(model),
                 "--method", "cmle", "--out", str(tmp_path / "r.json")]) == 1
    assert "error: between1: malformed entry" in capsys.readouterr().err


def test_matrices_theta_without_values_exits_nonzero(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"family": "homogeneous", "n": 2}))
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"theta": [0.1, 0.2]}))
    assert main(["matrices", "--model", str(model), "--theta", str(theta),
                 "--design", "2,6", "--which", "psi1",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_matrices_bad_quadrature_node_count_exits_nonzero(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"family": "rasch", "n": 2, "quadrature_nodes": "many"}))
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps([0.1, 0.2, 0.5]))
    assert main(["matrices", "--model", str(model), "--theta", str(theta),
                 "--design", "2,6", "--which", "psi1",
                 "--out", str(tmp_path / "m.json")]) == 1
    assert "error: malformed model spec" in capsys.readouterr().err


def _error_exit(argv, capsys):
    """Run the CLI and return its stderr, asserting the configuration-error exit."""
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    return err


def test_simulate_negative_seed_exits_nonzero(tmp_path, population_file, capsys):
    err = _error_exit(["simulate", "--config", str(population_file), "--seed", "-1",
                       "--out", str(tmp_path / "sample.json")], capsys)
    assert "master_seed" in err
    assert not (tmp_path / "sample.json").exists()


def test_experiment_negative_master_seed_exits_nonzero(tmp_path, population_file,
                                                       capsys):
    config = {"population": json.loads(population_file.read_text()),
              "replicates": 1, "master_seed": -1}
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(config))
    err = _error_exit(["experiment", "--config", str(cfg_path),
                       "--out-dir", str(tmp_path / "results")], capsys)
    assert "master_seed must be >= 0" in err
    assert not (tmp_path / "results").exists()


def test_estimate_past_the_site_limit_exits_nonzero(tmp_path, capsys):
    # patterns are int64 bitmasks: a 64th site has no bit of its own
    n = 64
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({
        "n": n, "N": 80, "m": [5] * n,
        "between1": [{"pattern": "0" * (n - 1) + "1", "count": 2}],
        "between2": [{"pattern": "1" + "0" * (n - 1), "count": 3}],
    }))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"family": "homogeneous", "n": n}))
    err = _error_exit(["estimate", "--data", str(sample), "--model", str(model),
                       "--method", "cmle", "--out", str(tmp_path / "r.json")], capsys)
    assert "at most 63 sites" in err


def test_simulate_past_the_site_limit_exits_nonzero(tmp_path, capsys):
    n = 64
    population = tmp_path / "population.json"
    population.write_text(json.dumps({
        "N": 80, "n": n,
        "cluster_mode": {"type": "conditional_multinomial", "tau1": 400},
        "tau2": 200,
        "model1": {"family": "homogeneous", "n": n},
        "model2": {"family": "homogeneous", "n": n},
        "theta1": [-3.0] * n, "theta2": [-3.0] * n,
    }))
    err = _error_exit(["simulate", "--config", str(population), "--seed", "3",
                       "--out", str(tmp_path / "sample.json")], capsys)
    assert "at most 63 sites" in err
