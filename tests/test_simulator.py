import hashlib
import json

import numpy as np
import pytest
from scipy.special import logit
from scipy.stats import binom, chisquare

from snowlink import (
    ConditionalMultinomial,
    HomogeneousLinkModel,
    InvariantViolation,
    PoissonMean,
    PopulationConfig,
    RaschLinkModel,
    draw_cluster_sizes,
    draw_sample,
    replicate_rng,
    sample_to_dict,
)


def _config(N=10, n=4, tau1=2000, tau2=500, p1=0.3, p2=0.25, mode=None):
    return PopulationConfig(
        N=N, n=n,
        cluster_mode=mode or ConditionalMultinomial(tau1),
        tau2=tau2,
        model1=HomogeneousLinkModel(n), model2=HomogeneousLinkModel(n),
        theta1=np.full(n, logit(p1)), theta2=np.full(n, logit(p2)),
    )


def test_empty_population():
    config = _config(tau1=0, tau2=0)
    data, truth = draw_sample(config, replicate_rng(0, 0))
    assert truth.tau1 == 0 and data.m_total == 0 and data.r1 == 0 and data.r2 == 0


def test_multinomial_site_mean_matches_binomial_oracle():
    # each site size is binomial with 10^4 splits of 1000 over 10 cells
    config = _config(N=10, n=4, tau1=1000, tau2=0)
    rng = replicate_rng(1, 0)
    draws = np.array([draw_cluster_sizes(config, rng)[0] for _ in range(10_000)])
    se = np.sqrt(1000 * 0.1 * 0.9 / len(draws))
    assert abs(draws.mean() - 100.0) <= 4 * se


def test_poisson_total_mean():
    config = _config(N=10, n=4, tau1=0, tau2=0, mode=PoissonMean(50.0))
    rng = replicate_rng(2, 0)
    totals = np.array([draw_cluster_sizes(config, rng).sum() for _ in range(4000)])
    se = np.sqrt(500.0 / len(totals))
    assert abs(totals.mean() - 500.0) <= 4 * se


def test_no_links_limit():
    config = PopulationConfig(
        N=10, n=4, cluster_mode=ConditionalMultinomial(500), tau2=200,
        model1=HomogeneousLinkModel(4), model2=HomogeneousLinkModel(4),
        theta1=np.full(4, -20.0), theta2=np.full(4, -20.0),
    )
    data, truth = draw_sample(config, replicate_rng(3, 0))
    assert data.r1 == 0 and data.r2 == 0
    assert all(not w for w in data.within)
    assert data.m_total == sum(truth.site_sizes[s] for s in truth.sampled_sites)


def test_full_frame_sample():
    config = _config(N=4, n=4, tau1=300, tau2=0)
    data, truth = draw_sample(config, replicate_rng(4, 0))
    assert data.m_total == truth.tau1  # everyone is in the initial sample
    assert not data.between1


def test_escape_frequency_matches_binomial_oracle():
    # fraction of people outside the initial sample linked to at least one
    # site; 1 - 0.7**4 with shared link probability 0.3
    config = _config(N=10, n=4, tau1=2000, tau2=0)
    fractions = []
    for i in range(2000):
        data, truth = draw_sample(config, replicate_rng(5, i))
        at_risk = truth.tau1 - data.m_total
        fractions.append(data.r1 / at_risk)
    fractions = np.array(fractions)
    expected = 1.0 - 0.7**4
    se = fractions.std(ddof=1) / np.sqrt(len(fractions))
    assert abs(fractions.mean() - expected) <= 4 * se


def test_fixed_pattern_count_is_binomial():
    # goodness of fit for one fixed nonzero pattern against its marginal law
    config = _config(N=5, n=2, tau1=300, tau2=0, p1=0.35)
    x = 0b01
    counts = np.array([
        draw_sample(config, replicate_rng(6, i))[0].between1.get(x, 0)
        for i in range(400)
    ])
    p_pattern = (1.0 - 2 / 5) * 0.35 * 0.65
    grid = np.arange(binom.ppf(1e-4, 300, p_pattern),
                     binom.ppf(1 - 1e-4, 300, p_pattern) + 1)
    pmf = binom.pmf(grid, 300, p_pattern)
    # merge tail bins so every expected count is at least 5
    edges, acc = [], 0.0
    groups = []
    current = []
    for g, q in zip(grid, pmf):
        current.append(g)
        acc += q
        if acc * len(counts) >= 5:
            groups.append((list(current), acc))
            current, acc = [], 0.0
    if current:
        gs, q = groups[-1]
        groups[-1] = (gs + current, q + acc)
    observed = []
    expected = []
    lo = -np.inf
    for k, (gs, q) in enumerate(groups):
        hi = gs[-1] if k < len(groups) - 1 else np.inf
        observed.append(np.sum((counts > lo) & (counts <= hi)))
        expected.append(q * len(counts))
        lo = hi
    expected = np.array(expected) * (np.sum(observed) / np.sum(expected))
    stat, pvalue = chisquare(observed, expected)
    assert pvalue > 1e-3


def test_conservation_and_determinism():
    config = _config(tau1=800, tau2=300)
    data1, truth1 = draw_sample(config, replicate_rng(7, 42))
    data2, truth2 = draw_sample(config, replicate_rng(7, 42))
    assert data1 == data2 and truth1 == truth2
    assert truth1.tau1 == sum(truth1.site_sizes)
    assert truth1.tau == truth1.tau1 + truth1.tau2
    # people in the covered part: in-sample + linked + unobserved-by-zero
    unobserved = truth1.tau1 - data1.m_total - data1.r1
    assert unobserved >= 0
    assert data1.r2 <= truth1.tau2


def test_rasch_generative_draws():
    n = 3
    config = PopulationConfig(
        N=6, n=n, cluster_mode=ConditionalMultinomial(500), tau2=200,
        model1=RaschLinkModel(n), model2=RaschLinkModel(n),
        theta1=np.array([0.0, 0.2, -0.2, 0.8]),
        theta2=np.array([-0.5, -0.5, -0.5, 0.5]),
    )
    data, truth = draw_sample(config, replicate_rng(8, 0))
    assert data.n == n and data.r2 > 0
    # own-site bits never appear in within maps (validated on construction)
    for l, w in enumerate(data.within):
        assert all((x >> l) & 1 == 0 for x in w)


def _sample_sha256(config, seed, index):
    data, _ = draw_sample(config, replicate_rng(seed, index))
    text = json.dumps(sample_to_dict(data), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family, index, digest", [
    ("homogeneous", 0, "cde1cf2990c1c5a94b582faad964ce0ab73424911d8ae63109aecb9acfed8a8b"),
    ("homogeneous", 3, "af2eb1843acd6063fd0a67a6e1581ff5666a16314941c1c20ee7b32a31d1cbda"),
    ("rasch", 0, "384fd792fce78ebff5a647dffca62effee3680d041407c9f98eb50d9462ace66"),
    ("rasch", 3, "a15f4f8b61f4803b4144446c6880e5bec6c64cfacf9f5c4ed5f5acb0474d2ab1"),
])
def test_draw_stream_is_pinned(family, index, digest):
    # the generative draws make the same generator calls in the same order,
    # so a seeded replicate's observable counts never move
    if family == "homogeneous":
        config = _config()
    else:
        config = PopulationConfig(
            N=8, n=3, cluster_mode=PoissonMean(60.0), tau2=200,
            model1=RaschLinkModel(3), model2=RaschLinkModel(3),
            theta1=np.array([0.0, 0.2, -0.2, 0.8]),
            theta2=np.array([-0.5, -0.5, -0.5, 0.5]))
    assert _sample_sha256(config, 11, index) == digest


def test_invalid_configs_rejected():
    with pytest.raises(InvariantViolation):
        _config(N=3, n=4)
    with pytest.raises(InvariantViolation):
        PoissonMean(0.0)
    with pytest.raises(InvariantViolation):
        ConditionalMultinomial(-1)
