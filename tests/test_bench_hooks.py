"""The benchmark's span tracer (``mcbench/tracing.py``) rebinds package names
by string at install time.  A rename in ``src/`` that breaks it fails here,
in the test suite, rather than only in a traced benchmark run."""

import pathlib

import numpy as np
from scipy.special import logit

import snowlink.experiments as experiments
from snowlink import HomogeneousLinkModel
from snowlink.simulator import (
    ConditionalMultinomial,
    PopulationConfig,
    draw_sample,
    replicate_rng,
)

MCBENCH = pathlib.Path(__file__).resolve().parents[1] / "mcbench"


def test_tracer_installs_records_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(MCBENCH))
    from tracing import Tracer

    n = 3
    population = PopulationConfig(
        N=8, n=n, cluster_mode=ConditionalMultinomial(300), tau2=150,
        model1=HomogeneousLinkModel(n), model2=HomogeneousLinkModel(n),
        theta1=np.full(n, logit(0.35)), theta2=np.full(n, logit(0.3)))
    data, _ = draw_sample(population, replicate_rng(3, 0))
    tracer = Tracer()
    tracer.install()
    rebound = list(tracer._saved)
    try:
        report = experiments.fit_total(data, population.model1, population.model2, "umle")
    finally:
        tracer.uninstall()
    assert report.tau > 0
    _, calls = tracer.self_times()
    assert calls["estimators.fit_total"] == 1
    assert calls["link_model.probs_and_grads"] > 0
    assert tracer.counts["link_model.probs_and_grads.rows"] > 0
    assert tracer.counts["estimators.iterations"] > 0
    assert rebound
    for owner, attr, original in rebound:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
