"""The benchmark's span tracer (``mcbench/tracing.py``) rebinds package names
by string at install time, and its estimate clock (``mcbench/worker.py``)
times each ``fit_total`` then ``attach_variance`` pair that
``snowlink.experiments`` makes per method.  A rename in ``src/``, or a change
to that call sequence, that breaks either fails here, in the test suite,
rather than only in a benchmark run."""

import pathlib

import numpy as np
import pytest
from scipy.special import logit

import snowlink.experiments as experiments
from snowlink import HomogeneousLinkModel, RaschLinkModel
from snowlink.link_model import MixtureLinkModel
from snowlink.experiments import ExperimentConfig, run_experiment
from snowlink.simulator import (
    ConditionalMultinomial,
    PopulationConfig,
    draw_sample,
    replicate_rng,
)

MCBENCH = pathlib.Path(__file__).resolve().parents[1] / "mcbench"


def _population(n=3):
    return PopulationConfig(
        N=8, n=n, cluster_mode=ConditionalMultinomial(300), tau2=150,
        model1=HomogeneousLinkModel(n), model2=HomogeneousLinkModel(n),
        theta1=np.full(n, logit(0.35)), theta2=np.full(n, logit(0.3)))


def _rasch_population(n=3):
    return PopulationConfig(
        N=8, n=n, cluster_mode=ConditionalMultinomial(300), tau2=150,
        model1=RaschLinkModel(n, quadrature_nodes=20),
        model2=RaschLinkModel(n, quadrature_nodes=20),
        theta1=np.append(np.full(n, logit(0.35)), 0.8),
        theta2=np.append(np.full(n, logit(0.3)), 0.8))


def test_tracer_installs_records_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(MCBENCH))
    from tracing import Tracer

    kernel = ("probs_and_grads", "zero_prob_and_grad")
    classes = (HomogeneousLinkModel, RaschLinkModel)
    # both families inherit the one kernel; the tracer rebinds it per class
    for cls in classes:
        for attr in kernel:
            assert getattr(cls, attr) is getattr(MixtureLinkModel, attr)
    tracer = Tracer()
    tracer.install()
    rebound = list(tracer._saved)
    spans = {}
    try:
        for name, population, method in (("homogeneous", _population(), "umle"),
                                         ("rasch", _rasch_population(), "cmle")):
            data, _ = draw_sample(population, replicate_rng(3, 0))
            before = len(tracer.spans)
            report = experiments.fit_total(
                data, population.model1, population.model2, method)
            assert report.tau > 0
            spans[name] = {n for n, _, _, _ in tracer.spans[before:]}
    finally:
        tracer.uninstall()
    for name in ("homogeneous", "rasch"):
        assert {"link_model.probs_and_grads",
                "link_model.zero_prob_and_grad"} <= spans[name], name
    _, calls = tracer.self_times()
    assert calls["estimators.fit_total"] == 2
    assert calls["link_model.probs_and_grads"] > 0
    assert tracer.counts["link_model.probs_and_grads.rows"] > 0
    assert tracer.counts["estimators.iterations"] > 0
    assert {(owner, attr) for owner, attr, _ in rebound} >= {
        (cls, attr) for cls in classes for attr in kernel}
    for owner, attr, original in rebound:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    for cls in classes:
        for attr in kernel:
            assert getattr(cls, attr) is getattr(MixtureLinkModel, attr)


@pytest.mark.parametrize("method", ["umle", "cmle"])
@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
def test_tracer_counts_each_precision_build_and_enumerated_pattern(monkeypatch,
                                                                   family, method):
    # attach_variance must reach the precision builders through the module
    # globals the tracer rebinds
    monkeypatch.syspath_prepend(str(MCBENCH))
    from tracing import Tracer

    n = 3
    population = _rasch_population(n) if family == "rasch" else _population(n)
    data, _ = draw_sample(population, replicate_rng(3, 0))
    report = experiments.fit_total(data, population.model1, population.model2, method)
    tracer = Tracer()
    tracer.install()
    try:
        experiments.attach_variance(report, data, population.model1, population.model2)
    finally:
        tracer.uninstall()
    assert tracer.counts["variance.precision.calls"] == 2
    # every family's information comes from link totals, not from patterns
    assert tracer.counts["patterns.enumerated"] == 0


def test_estimate_clock_times_each_method_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(MCBENCH))
    from checks import check_estimate
    from worker import EstimateClock

    config = ExperimentConfig(population=_population(), replicates=2,
                              methods=("umle", "cmle"), master_seed=3)
    originals = (experiments.fit_total, experiments.attach_variance)
    clock = EstimateClock(experiments)
    clock.install()
    try:
        summary = run_experiment(config)
    finally:
        clock.uninstall()
    assert (experiments.fit_total, experiments.attach_variance) == originals

    assert len(clock.records) == config.replicates * len(config.methods)
    spec1, spec2 = config.population.model1.spec(), config.population.model2.spec()
    per_replicate = len(config.methods)
    for k, (method, seconds, data, report) in enumerate(clock.records):
        index = k // per_replicate
        assert data is clock.records[index * per_replicate][2]
        row, = [r for r in summary.rows
                if r["replicate"] == index and r["method"] == method]
        assert not row["error"]
        assert report.method == method and row["tau1_real"] == report.tau1_real
        assert seconds > 0
        assert check_estimate(data, report, spec1, spec2, config.level) == []
    for index in range(config.replicates):
        recorded = clock.records[index * per_replicate:(index + 1) * per_replicate]
        assert sorted(r[0] for r in recorded) == sorted(config.methods)
