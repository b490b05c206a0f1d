import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import logit

from snowlink import (
    ExperimentConfig,
    HomogeneousLinkModel,
    ParseError,
    emit_reports,
    experiment_config_from_dict,
    run_experiment,
)
from snowlink.experiments import csv_columns, render_digest
from snowlink.simulator import ConditionalMultinomial, PopulationConfig


def _population(n=3, N=8, tau1=400, tau2=200, p1=0.35, p2=0.3):
    model = HomogeneousLinkModel(n)
    return PopulationConfig(N=N, n=n, cluster_mode=ConditionalMultinomial(tau1),
                            tau2=tau2, model1=model,
                            model2=HomogeneousLinkModel(n),
                            theta1=np.full(n, logit(p1)),
                            theta2=np.full(n, logit(p2)))


def _config(replicates=4, **kwargs):
    return ExperimentConfig(population=_population(), replicates=replicates,
                            master_seed=kwargs.pop("master_seed", 99),
                            **kwargs)


def test_single_replicate_summary_is_that_replicate():
    summary = run_experiment(_config(replicates=1, methods=("cmle",)))
    assert len(summary.rows) == 1
    row = summary.rows[0]
    stats = summary.per_method["cmle"].targets["tau1"]
    assert stats.n == 1
    assert stats.mean == row["tau1_hat"]
    assert stats.coverage in (0.0, 1.0)
    assert summary.per_method["cmle"].successes == 1


def test_worker_count_leaves_outputs_byte_identical(tmp_path):
    outs = []
    for workers, sub in ((1, "a"), (2, "b")):
        summary = run_experiment(_config(replicates=6, parallelism=workers))
        paths = emit_reports(summary, tmp_path / sub)
        outs.append({k: pathlib.Path(p).read_bytes() for k, p in paths.items()})
    assert outs[0] == outs[1]


def test_csv_schema_and_accounting(tmp_path):
    config = _config(replicates=5)
    summary = run_experiment(config)
    paths = emit_reports(summary, tmp_path)
    with open(paths["csv"], newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == csv_columns(3, 3)
    assert all(len(r) == len(header) for r in rows)
    # each replicate appears exactly once per method
    seen = [(r[0], r[1]) for r in rows]
    assert sorted(seen) == sorted(
        (str(i), m) for i in range(5) for m in config.methods
    )


def test_summary_json_round_trip(tmp_path):
    summary = run_experiment(_config(replicates=2, methods=("umle",)))
    paths = emit_reports(summary, tmp_path)
    with open(paths["summary"]) as fh:
        obj = json.load(fh)
    assert obj["schema_version"] == 1
    assert obj["replicates"] == 2
    assert obj["csv_columns"] == summary.columns
    assert "tau" in obj["per_method"]["umle"]["targets"]
    cfg2 = experiment_config_from_dict(
        {"population": obj["population"], "replicates": obj["replicates"],
         "methods": obj["methods"], "master_seed": obj["master_seed"],
         "level": obj["level"], "variance_source": obj["variance_source"]}
    )
    assert run_experiment(cfg2).rows == summary.rows


def test_failures_are_tallied_not_fatal():
    # an uncovered part with no people makes every replicate's outside fit
    # unidentifiable; the run completes and reports the failures
    pop = _population(tau2=0)
    config = ExperimentConfig(population=pop, replicates=3, methods=("cmle",),
                              master_seed=5)
    summary = run_experiment(config)
    ms = summary.per_method["cmle"]
    assert ms.failures == 3 and ms.successes == 0
    assert all("Unidentifiable" in r["error"] for r in summary.rows)
    assert np.isnan(summary.per_method["cmle"].targets["tau"].mean)


def test_invalid_config_rejected():
    with pytest.raises(ParseError):
        experiment_config_from_dict({"population": {}, "replicates": 1})
    with pytest.raises(Exception):
        _config(replicates=0)


def test_golden_digest_bytes():
    golden = pathlib.Path(__file__).parent / "data" / "golden_digest.txt"
    summary = run_experiment(ExperimentConfig(
        population=_population(), replicates=5, master_seed=20240817))
    assert render_digest(summary) == golden.read_text()


def test_package_import_leaves_scipy_stats_unloaded():
    import snowlink

    src = pathlib.Path(snowlink.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, snowlink; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
