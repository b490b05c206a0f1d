import csv
import dataclasses
import json
import math
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
    InvariantViolation,
    ParseError,
    SampleData,
    SingularMatrix,
    emit_reports,
    experiment_config_from_dict,
    run_experiment,
)
import snowlink.estimators as estimators
import snowlink.experiments as experiments
from snowlink.experiments import (
    _format_cell,
    _replicate_rows,
    _shape_stats,
    csv_columns,
    render_digest,
)
from snowlink.link_model import model_from_spec
from snowlink.patterns import sample_from_dict, sample_to_dict
from snowlink.simulator import (
    ConditionalMultinomial,
    PoissonMean,
    PopulationConfig,
    draw_sample,
    population_config_from_dict,
    population_config_to_dict,
    replicate_rng,
)

from conftest import imported_modules


def _population(n=3, N=8, tau1=400, tau2=200, p1=0.35, p2=0.3):
    model = HomogeneousLinkModel(n)
    return PopulationConfig(N=N, n=n, cluster_mode=ConditionalMultinomial(tau1),
                            tau2=tau2, model1=model,
                            model2=HomogeneousLinkModel(n),
                            theta1=np.full(n, logit(p1)),
                            theta2=np.full(n, logit(p2)))


def _desk_population():
    # the acceptance suite's desk design
    return PopulationConfig(
        N=10, n=4, cluster_mode=ConditionalMultinomial(2000), tau2=1000,
        model1=HomogeneousLinkModel(4), model2=HomogeneousLinkModel(4),
        theta1=np.full(4, logit(0.3)), theta2=np.full(4, logit(0.25)))


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


def _not_json(token):
    raise ValueError(f"{token} is not a JSON value")


def test_summary_json_round_trip(tmp_path):
    summary = run_experiment(_config(replicates=2, methods=("umle",)))
    paths = emit_reports(summary, tmp_path)
    with open(paths["summary"]) as fh:
        obj = json.load(fh, parse_constant=_not_json)
    # two successes are too few for the shape statistics: they are null
    tau = obj["per_method"]["umle"]["targets"]["tau"]
    assert tau["skewness"] is None and tau["normality_pvalue"] is None
    assert math.isnan(summary.per_method["umle"].targets["tau"].skewness)
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


def _sample_obj():
    return {"n": 2, "N": 5, "m": [3, 4], "between1": [{"pattern": "10", "count": 2}]}


def _population_obj():
    return population_config_to_dict(_desk_population())


def _experiment_obj():
    return {"population": _population_obj(), "replicates": 3}


def _model_obj():
    return {"family": "homogeneous", "n": 4}


def _with(obj, path, value):
    """``obj`` with the entry at ``path`` (a sequence of keys) set to ``value``."""
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


@pytest.mark.parametrize("parse, make, path, value, name", [
    (sample_from_dict, _sample_obj, ("between1", 0, "count"), 2.5, "between1 count"),
    (sample_from_dict, _sample_obj, ("between1", 0, "count"), True, "between1 count"),
    (sample_from_dict, _sample_obj, ("m",), [3.7, 4], "m"),
    (population_config_from_dict, _population_obj, ("N",), 10.9, "N"),
    (population_config_from_dict, _population_obj, ("tau2",), 999.9, "tau2"),
    (experiment_config_from_dict, _experiment_obj, ("replicates",), 2.9, "replicates"),
    (model_from_spec, _model_obj, ("n",), 4.2, "n"),
])
def test_integer_fields_refuse_fractions_and_booleans(parse, make, path, value, name):
    # int() would truncate each of these to a valid integer without a word
    with pytest.raises(ParseError, match=f"^{name} must be an integer"):
        parse(_with(make(), path, value))


@pytest.mark.parametrize("parse, make, path, value, view", [
    (sample_from_dict, _sample_obj, ("between1", 0, "count"), 2.0, None),
    (sample_from_dict, _sample_obj, ("m",), [3.0, 4.0], None),
    (population_config_from_dict, _population_obj, ("N",), 10.0, population_config_to_dict),
    (experiment_config_from_dict, _experiment_obj, ("replicates",), 3.0,
     lambda config: config.replicates),
    (model_from_spec, _model_obj, ("n",), 4.0, lambda model: model.spec()),
])
def test_integer_fields_accept_integral_floats(parse, make, path, value, view):
    view = view or (lambda parsed: parsed)
    as_int = [int(v) for v in value] if isinstance(value, list) else int(value)
    assert view(parse(_with(make(), path, value))) == view(parse(_with(make(), path, as_int)))


def _population_with(**fields):
    return dataclasses.replace(_desk_population(), **fields)


_INTEGER_FIELDS = [
    pytest.param(lambda v: SampleData(n=v, N=5, m=(3, 4)), "n", id="SampleData.n"),
    pytest.param(lambda v: SampleData(n=2, N=v, m=(3, 4)), "N", id="SampleData.N"),
    pytest.param(lambda v: SampleData(n=2, N=5, m=(v, 4)), "m", id="SampleData.m"),
    pytest.param(lambda v: SampleData(n=2, N=5, m=(3, 4), between1={1: v}),
                 "between1 count", id="SampleData.between1"),
    pytest.param(lambda v: SampleData(n=2, N=5, m=(3, 4), between2={v: 1}),
                 "between2 pattern", id="SampleData.between2"),
    pytest.param(lambda v: SampleData(n=2, N=5, m=(3, 4), within=({2: v}, {})),
                 r"within\[0\] count", id="SampleData.within"),
    pytest.param(lambda v: ConditionalMultinomial(v), "tau1",
                 id="ConditionalMultinomial.tau1"),
    pytest.param(lambda v: _population_with(N=v), "N", id="PopulationConfig.N"),
    pytest.param(lambda v: _population_with(n=v), "n", id="PopulationConfig.n"),
    pytest.param(lambda v: _population_with(tau2=v), "tau2", id="PopulationConfig.tau2"),
    pytest.param(lambda v: ExperimentConfig(population=_desk_population(), replicates=v),
                 "replicates", id="ExperimentConfig.replicates"),
    pytest.param(lambda v: ExperimentConfig(population=_desk_population(), replicates=1,
                                            master_seed=v),
                 "master_seed", id="ExperimentConfig.master_seed"),
    pytest.param(lambda v: ExperimentConfig(population=_desk_population(), replicates=1,
                                            parallelism=v),
                 "parallelism", id="ExperimentConfig.parallelism"),
]


@pytest.mark.parametrize("build, name", _INTEGER_FIELDS)
@pytest.mark.parametrize("value", [2.5, True, 2**63], ids=["fraction", "bool", "2**63"])
def test_constructors_refuse_what_int_would_truncate_or_numpy_overflow(build, name, value):
    # int() would truncate 2.5 and True to a valid integer, and 2**63 fails
    # in numpy at draw time, outside a replicate's error handling
    with pytest.raises(InvariantViolation, match=f"^{name} must be"):
        build(value)


def test_constructors_read_integral_floats_and_numpy_integers():
    data = SampleData(n=np.int64(2), N=5.0, m=(np.int32(3), 4.0),
                      between1={np.int64(1): 2.0}, within=({2: np.int64(1)}, {}))
    assert data == SampleData(n=2, N=5, m=(3, 4), between1={1: 2}, within=({2: 1}, {}))
    assert type(data.n) is type(data.N) is type(data.m[0]) is int
    config = _population_with(N=10.0, n=np.int64(4), tau2=1000.0,
                              cluster_mode=ConditionalMultinomial(np.int64(2000)))
    assert (config.N, config.n, config.tau2, config.cluster_mode.tau1) == (10, 4, 1000, 2000)
    assert all(type(v) is int for v in (config.N, config.n, config.tau2))
    experiment = ExperimentConfig(population=config, replicates=3.0,
                                  master_seed=np.uint8(7), parallelism=1.0)
    assert (experiment.replicates, experiment.master_seed, experiment.parallelism) == (3, 7, 1)
    assert type(experiment.master_seed) is int


def test_poisson_mean_refuses_an_infinite_mean():
    with pytest.raises(InvariantViolation, match="finite"):
        PoissonMean(float("inf"))


def test_poisson_mean_refuses_a_mean_numpy_cannot_draw():
    from snowlink.simulator import POISSON_MEAN_MAX

    for mean in (1e19, np.nextafter(POISSON_MEAN_MAX, np.inf)):
        with pytest.raises(InvariantViolation, match=r"in \(0, 9.22337e\+18\]"):
            PoissonMean(mean)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(mean)
    # the largest mean numpy draws from is admitted
    assert PoissonMean(POISSON_MEAN_MAX).mean == POISSON_MEAN_MAX
    assert np.random.default_rng(0).poisson(POISSON_MEAN_MAX) > 0


def test_repeated_method_rejected_up_front():
    # a repeated method would double every row of a method's summary, so it is
    # a config error before any replicate runs
    with pytest.raises(InvariantViolation):
        ExperimentConfig(population=_desk_population(), replicates=1,
                         methods=("cmle", "cmle"))
    with pytest.raises(ParseError):
        experiment_config_from_dict({
            "population": population_config_to_dict(_desk_population()),
            "replicates": 1, "methods": ["umle", "cmle", "umle"]})


def test_golden_digest_bytes():
    golden = pathlib.Path(__file__).parent / "data" / "golden_digest.txt"
    summary = run_experiment(ExperimentConfig(
        population=_population(), replicates=5, master_seed=20240817))
    assert render_digest(summary) == golden.read_text()


def _package_env():
    """The environment of a subprocess that imports this package's tree."""
    import snowlink

    src = pathlib.Path(snowlink.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": str(src)}


def test_package_import_leaves_scipy_stats_unloaded():
    # nor any other scipy module, nor does a study: its moments are computed
    # with numpy, its normal quantile with the standard library
    code = (
        "import sys, numpy as np, snowlink as sl\n"
        "def scipy_loaded():\n"
        "    return any(name.partition('.')[0] == 'scipy' for name in sys.modules)\n"
        "print(scipy_loaded())\n"
        "pop = sl.PopulationConfig(N=8, n=3, cluster_mode=sl.ConditionalMultinomial(400),\n"
        "    tau2=200, model1=sl.HomogeneousLinkModel(3), model2=sl.HomogeneousLinkModel(3),\n"
        "    theta1=np.full(3, -0.6), theta2=np.full(3, -0.8))\n"
        "summary = sl.run_experiment(sl.ExperimentConfig(population=pop, replicates=9))\n"
        "print(np.isfinite(summary.per_method['umle'].targets['tau'].skewness))\n"
        "print(scipy_loaded())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_package_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "True", "False"]


def test_cli_estimate_loads_no_scipy(tmp_path):
    # the whole command, fit and variances included, as a user runs it;
    # -X importtime lists every module the process imports on stderr
    pop = _population()
    data, _ = draw_sample(pop, replicate_rng(5, 0))
    sample, model, report = tmp_path / "sample.json", tmp_path / "model.json", tmp_path / "r.json"
    sample.write_text(json.dumps(sample_to_dict(data)))
    model.write_text(json.dumps({"family": "homogeneous", "n": pop.n}))
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "snowlink.cli", "estimate",
         "--data", str(sample), "--model", str(model), "--method", "umle", "--out", str(report)],
        env=_package_env(), check=True, capture_output=True, text=True)
    imported = imported_modules(run.stderr)
    assert "snowlink.variance" in imported
    assert not [name for name in imported if name.partition(".")[0] == "scipy"]
    assert json.loads(report.read_text())["variance"]["intervals"]["tau"]


@pytest.mark.parametrize("n", [8, 20, 500])
def test_shape_stats_match_scipy(n):
    from scipy import stats

    rng = np.random.default_rng(n)
    for _ in range(50):
        z = rng.normal(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 5.0), n)
        want = (stats.skew(z), stats.kurtosis(z), *stats.jarque_bera(z))
        got = _shape_stats(z)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w)


def test_shape_stats_nan_when_few_or_constant():
    assert all(np.isnan(_shape_stats(np.arange(7.0))))
    for value in (0.0, 0.1, 3.7):
        assert all(np.isnan(_shape_stats(np.full(9, value))))


def _cells(rows):
    return [{k: _format_cell(v) for k, v in row.items()} for row in rows]


def test_two_method_replicate_matches_single_method_runs():
    pop = _desk_population()
    for index in range(3):
        single = {m: _cells(_replicate_rows(
            ExperimentConfig(population=pop, replicates=1, methods=(m,), master_seed=11),
            index)) for m in ("umle", "cmle")}
        for methods in (("umle", "cmle"), ("cmle", "umle")):
            config = ExperimentConfig(population=pop, replicates=1, methods=methods,
                                      master_seed=11)
            rows = _cells(_replicate_rows(config, index))
            assert [r["method"] for r in rows] == list(methods)
            assert rows == [single[m][0] for m in methods]
            assert not any(r["error"] for r in rows)


def test_two_method_replicate_solves_the_conditional_fit_once(monkeypatch):
    calls = []
    original = estimators.empirical_initial_theta

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimators, "empirical_initial_theta", counted)
    config = ExperimentConfig(population=_desk_population(), replicates=1,
                              methods=("umle", "cmle"), master_seed=11)
    rows = _replicate_rows(config, 0)
    assert not any(r["error"] for r in rows)
    # one conditional solve per part, shared by both methods
    assert len(calls) == 2


def test_cmle_variance_failure_still_shares_the_fit(monkeypatch):
    calls = []
    original_theta = estimators.empirical_initial_theta
    original_attach = experiments.attach_variance

    def counted(*args, **kwargs):
        calls.append(1)
        return original_theta(*args, **kwargs)

    def attach(report, *args, **kwargs):
        if report.method == "cmle":
            raise SingularMatrix("refused for the test")
        return original_attach(report, *args, **kwargs)

    monkeypatch.setattr(estimators, "empirical_initial_theta", counted)
    monkeypatch.setattr(experiments, "attach_variance", attach)
    config = ExperimentConfig(population=_desk_population(), replicates=1,
                              methods=("umle", "cmle"), master_seed=11)
    umle, cmle = _replicate_rows(config, 0)
    assert cmle["error"].startswith("SingularMatrix")
    assert not umle["error"]
    assert len(calls) == 2
