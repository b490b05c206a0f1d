import json

import numpy as np
import pytest
from scipy.special import expit, gammaln, logit

from snowlink import (
    DegenerateDenominator,
    DimensionMismatch,
    HomogeneousLinkModel,
    NoConvergence,
    RaschLinkModel,
    SampleData,
    Unidentifiable,
    attach_variance,
    fit_component,
    fit_total,
)
from snowlink import estimators
from snowlink.estimators import _closed_form
from snowlink.simulator import (
    ConditionalMultinomial,
    PopulationConfig,
    draw_sample,
    replicate_rng,
)

from conftest import FlatZeroPatternModel, json_field_changes, random_sample_data


# ---------------------------------------------------------------------------
# Closed form


def test_closed_form_direct_arithmetic():
    real, floor = _closed_form(50, 30, 1 - 2 / 4, 0.4)
    assert real == pytest.approx(100.0, rel=1e-14)
    assert floor == 100


def test_closed_form_everyone_observed():
    assert _closed_form(12, 5, 1 - 2 / 9, 0.0) == (17.0, 17)


def test_closed_form_full_frame():
    real, floor = _closed_form(12, 0, 1 - 4 / 4, 0.97)
    assert (real, floor) == (12.0, 12)


def test_closed_form_degenerate_denominator():
    # the denominator is at least n/N, so it can only vanish for a tiny
    # sampling fraction together with a full-mass empty pattern
    with pytest.raises(DegenerateDenominator):
        _closed_form(10, 2, 1 - 1 / 10**13, 1.0)


# ---------------------------------------------------------------------------
# Inner solver: projection onto the lower bounds


def _quadratic(center):
    """A concave quadratic with its maximum at ``center``: value and gradient."""
    def fg(theta):
        d = theta - center
        return -0.5 * float(d @ d), -d
    return fg


def test_maximize_stops_at_a_lower_bound_with_a_zero_projected_score():
    # the maximizer's second coordinate lies below its bound 0, so the solve
    # ends on the bound, where the raw gradient still points down
    fg = _quadratic(np.array([0.5, -2.0]))
    res = estimators._maximize(fg, [0.5, 1.0], lower=np.array([-np.inf, 0.0]))
    assert res.converged
    assert np.array_equal(res.theta, [0.5, 0.0])
    assert np.array_equal(fg(res.theta)[1], [0.0, -2.0])
    assert res.score == 0.0


def test_maximize_without_a_bound_reaches_the_interior_maximizer():
    res = estimators._maximize(_quadratic(np.array([0.5, -2.0])), [0.5, 1.0],
                               lower=np.full(2, -np.inf))
    assert res.converged and res.score <= estimators.SCORE_TOL
    assert np.allclose(res.theta, [0.5, -2.0], rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# Independent grid-search oracle (two sites, homogeneous links); the pattern
# probabilities and pmf pieces are written out from scratch here.


def _n2_between_probs(p1, p2):
    return {
        0b00: (1 - p1) * (1 - p2),
        0b01: p1 * (1 - p2),
        0b10: (1 - p1) * p2,
        0b11: p1 * p2,
    }


def _n2_within_value(data, p1, p2):
    # site 0 people can only link to site 1 and vice versa
    r0 = data.within[0].get(0b10, 0)
    r1w = data.within[1].get(0b01, 0)
    return (
        r0 * np.log(p2) + (data.m[0] - r0) * np.log(1 - p2)
        + r1w * np.log(p1) + (data.m[1] - r1w) * np.log(1 - p1)
    )


def _n2_conditional_value(data, p1, p2, between):
    probs = _n2_between_probs(p1, p2)
    escape = 1.0 - probs[0b00]
    val = sum(c * np.log(probs[x] / escape) for x, c in between.items())
    return val


def _grid_maximize(objective, pts=121, stages=3, lo=0.001, hi=0.999):
    lo1, hi1, lo2, hi2 = lo, hi, lo, hi
    best = None
    for _ in range(stages):
        g1 = np.linspace(lo1, hi1, pts)
        g2 = np.linspace(lo2, hi2, pts)
        vals = np.array([[objective(a, b) for b in g2] for a in g1])
        i, j = np.unravel_index(np.argmax(vals), vals.shape)
        best = (g1[i], g2[j])
        d1 = (hi1 - lo1) / (pts - 1)
        d2 = (hi2 - lo2) / (pts - 1)
        lo1, hi1 = max(lo, g1[i] - 2 * d1), min(hi, g1[i] + 2 * d1)
        lo2, hi2 = max(lo, g2[j] - 2 * d2), min(hi, g2[j] + 2 * d2)
    return best


def _integer_size_profile_argmax(m, r1, n, N, pi0, include_sites=True):
    """Integer sizes attaining the scanned pmf-product maximum (a set: exact
    likelihood ties between adjacent sizes are possible with rational
    escape probabilities)."""
    f = 1.0 - n / N if include_sites else 1.0
    lo = m + r1
    hi = int(np.ceil((m + r1) / max(1.0 - f * pi0, 1e-3))) * 3 + 50
    taus = np.arange(lo, hi + 1, dtype=float)
    vals = (gammaln(taus + 1) - gammaln(taus - m - r1 + 1)
            + (taus - m - r1) * np.log(pi0))
    if include_sites:
        vals = vals + (taus - m) * np.log(f)
    k = int(np.argmax(vals))
    assert k < len(taus) - 1  # the scan range must bracket the mode
    return {int(t) for t, v in zip(taus, vals) if v >= vals[k] - 1e-9}


def _random_small_instance(rng):
    n, N = 2, int(rng.integers(3, 8))
    p_true = rng.uniform(0.25, 0.7, 2)
    m = tuple(int(v) for v in rng.integers(3, 12, 2))
    between1 = {}
    for x in (0b01, 0b10, 0b11):
        c = int(rng.integers(0, 9))
        if c:
            between1[x] = c
    if not between1:
        between1 = {0b01: 3}
    within = (
        {0b10: int(rng.integers(1, m[0]))} if m[0] > 1 else {},
        {0b01: int(rng.integers(1, m[1]))} if m[1] > 1 else {},
    )
    between2 = {x: int(rng.integers(1, 7)) for x in (0b01, 0b10, 0b11)}
    return SampleData(n=n, N=N, m=m, between1=between1, within=within,
                      between2=between2), p_true


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_cmle_matches_grid_search_n2(seed):
    rng = np.random.default_rng(100 + seed)
    data, _ = _random_small_instance(rng)
    model = HomogeneousLinkModel(2)

    def objective(p1, p2):
        return (_n2_conditional_value(data, p1, p2, data.between1)
                + _n2_within_value(data, p1, p2))

    g1, g2 = _grid_maximize(objective)
    fit = fit_component(data.covered, model, "cmle")
    assert np.max(np.abs(fit.theta - logit(np.array([g1, g2])))) <= 1e-3
    p_hat = expit(fit.theta)
    pi0_hat = (1 - p_hat[0]) * (1 - p_hat[1])
    assert fit.tau in _integer_size_profile_argmax(
        data.m_total, data.r1, 2, data.N, pi0_hat
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
def test_umle_matches_grid_search_n2(seed):
    rng = np.random.default_rng(200 + seed)
    data, _ = _random_small_instance(rng)
    model = HomogeneousLinkModel(2)
    m, r1, N = data.m_total, data.r1, data.N
    f = 1.0 - 2 / N
    taus = np.arange(m + r1, int(4 * (m + r1) / (1 - f * 0.999**2)) + 60,
                     dtype=float)
    size_const = gammaln(taus + 1) - gammaln(taus - m - r1 + 1) \
        + (taus - m) * np.log(f)

    def objective(p1, p2):
        pi0 = (1 - p1) * (1 - p2)
        tau_part = np.max(size_const + (taus - m - r1) * np.log(pi0))
        probs = _n2_between_probs(p1, p2)
        between = sum(c * np.log(probs[x]) for x, c in data.between1.items())
        return tau_part + between + _n2_within_value(data, p1, p2)

    g1, g2 = _grid_maximize(objective)
    fit = fit_component(data.covered, model, "umle")
    assert np.max(np.abs(fit.theta - logit(np.array([g1, g2])))) <= 1e-3
    p_hat = expit(fit.theta)
    pi0_hat = (1 - p_hat[0]) * (1 - p_hat[1])
    profile = size_const + (taus - m - r1) * np.log(pi0_hat)
    ties = {int(t) for t, v in zip(taus, profile) if v >= profile.max() - 1e-9}
    assert fit.tau in ties


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit2_cmle_matches_grid_search_n2(seed):
    rng = np.random.default_rng(300 + seed)
    data, _ = _random_small_instance(rng)
    model = HomogeneousLinkModel(2)

    def objective(p1, p2):
        return _n2_conditional_value(data, p1, p2, data.between2)

    g1, g2 = _grid_maximize(objective)
    fit = fit_component(data.uncovered, model, "cmle")
    assert np.max(np.abs(fit.theta - logit(np.array([g1, g2])))) <= 1e-3
    p_hat = expit(fit.theta)
    pi0_hat = (1 - p_hat[0]) * (1 - p_hat[1])
    assert fit.tau in _integer_size_profile_argmax(
        0, data.r2, 2, data.N, pi0_hat, include_sites=False
    )


# ---------------------------------------------------------------------------
# Structural properties


def test_flat_zero_pattern_makes_methods_coincide():
    # when the empty-pattern probability has zero gradient, the conditional
    # and unconditional parameter scores are the same equation
    rng = np.random.default_rng(7)
    data = random_sample_data(rng, n=3, N=8)
    model = FlatZeroPatternModel(3, zero_mass=0.4)
    start = np.array([0.1])
    cm = fit_component(data.covered, model, "cmle", start)
    um = fit_component(data.covered, model, "umle", start)
    assert abs(cm.theta[0] - um.theta[0]) <= 1e-7
    assert cm.tau == um.tau
    assert cm.tau_real == pytest.approx(um.tau_real, rel=1e-10)


def test_cmle_depends_only_on_observed_counts():
    # the conditional parameter fit never looks at the frame size
    rng = np.random.default_rng(8)
    data_small = random_sample_data(rng, n=3, N=6)
    data_large = SampleData(n=3, N=60, m=data_small.m,
                            between1=data_small.between1,
                            within=data_small.within,
                            between2=data_small.between2)
    model = HomogeneousLinkModel(3)
    fit_a = fit_component(data_small.covered, model, "cmle")
    fit_b = fit_component(data_large.covered, model, "cmle")
    assert np.allclose(fit_a.theta, fit_b.theta, atol=1e-10)
    assert fit_a.tau != fit_b.tau  # the size estimate does use the design


@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
def test_empirical_initial_theta_by_hand(family):
    # site 0: links 2 + 1 (outside) + 2 (site 1's table) over 3 + 4 at risk;
    # site 1: links 1 (outside) + 1 (site 0's table) over 3 + 3 at risk
    data = SampleData(n=2, N=5, m=(3, 4), between1={0b01: 2, 0b11: 1},
                      within=({0b10: 1}, {0b01: 2}))
    model = HomogeneousLinkModel(2) if family == "homogeneous" else RaschLinkModel(2)
    extra = [0.5] if family == "rasch" else []
    covered = estimators.empirical_initial_theta(data.covered, model)
    np.testing.assert_allclose(covered, np.r_[logit([5 / 7, 1 / 3]), extra],
                               rtol=0, atol=1e-15)
    # nobody outside the frame: every site starts at probability 0.5
    uncovered = estimators.empirical_initial_theta(data.uncovered, model)
    np.testing.assert_allclose(uncovered, np.r_[0.0, 0.0, extra], rtol=0, atol=1e-15)


def test_fit2_closed_form_arithmetic():
    # constant empty-pattern mass 0.5 and forty observed people: size 80
    model = FlatZeroPatternModel(2, zero_mass=0.5)
    data = SampleData(n=2, N=6, m=(1, 1), between2={0b01: 18, 0b10: 12, 0b11: 10})
    fit = fit_component(data.uncovered, model, "cmle", np.array([0.0]))
    assert fit.tau_real == pytest.approx(80.0, rel=1e-12)
    assert fit.tau == 80


def test_fit2_without_observations_unidentifiable():
    data = SampleData(n=2, N=6, m=(2, 2), between1={1: 1})
    with pytest.raises(Unidentifiable):
        fit_component(data.uncovered, HomogeneousLinkModel(2), "cmle")


@pytest.mark.parametrize("method", ["umle", "cmle"])
def test_single_site_part_is_unidentifiable(method):
    # one site: no outside-linked cell and no within-site cell is free, so
    # the conditional likelihood is flat in the one link parameter
    data = SampleData(n=1, N=5, m=(6,), between1={1: 4}, between2={1: 3})
    model = HomogeneousLinkModel(1)
    with pytest.raises(Unidentifiable, match="1 link parameters but 0 free pattern cells"):
        fit_total(data, model, model, method)


@pytest.mark.parametrize("method", ["umle", "cmle"])
def test_two_site_rasch_uncovered_part_is_unidentifiable(method):
    # the uncovered part has 3 parameters and 2 free cells; the covered part
    # (4 free cells) is identified
    n = 2
    model = RaschLinkModel(n, quadrature_nodes=20)
    config = PopulationConfig(
        N=6, n=n, cluster_mode=ConditionalMultinomial(600), tau2=400,
        model1=model, model2=model,
        theta1=np.array([logit(0.3), logit(0.35), 1.0]),
        theta2=np.array([logit(0.3), logit(0.35), 0.8]))
    data, _ = draw_sample(config, replicate_rng(5, 0))
    fit_component(data.covered, model, "cmle")
    with pytest.raises(Unidentifiable, match="^outside-frame component: 3 link parameters"):
        fit_total(data, model, model, method)


@pytest.mark.parametrize("sites", [1, 3])
def test_fit_total_refuses_a_model_of_another_site_count(sites):
    data = SampleData(n=2, N=5, m=(3, 4), between1={0b01: 2, 0b11: 1, 0b10: 3},
                      within=({0b10: 1}, {0b01: 2}),
                      between2={0b01: 2, 0b11: 1, 0b10: 3})
    good, bad = HomogeneousLinkModel(2), HomogeneousLinkModel(sites)
    for model1, model2, label in ((bad, good, "frame-covered"), (good, bad, "outside-frame")):
        with pytest.raises(DimensionMismatch,
                           match=f"^{label} component: model has {sites} sites but "
                                 "the design says 2$"):
            fit_total(data, model1, model2, "cmle")
    # each part's fit refuses it too, with or without a start
    fits = (lambda: fit_component(data.covered, bad, "cmle"),
            lambda: fit_component(data.covered, bad, "umle"),
            lambda: fit_component(data.uncovered, bad, "cmle"),
            lambda: fit_component(data.uncovered, bad, "umle"),
            lambda: fit_component(data.covered, bad, "cmle", np.zeros(sites)))
    for fit in fits:
        with pytest.raises(DimensionMismatch,
                           match=f"^model has {sites} sites but the design says 2$"):
            fit()


@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
@pytest.mark.parametrize("method", ["cmle", "umle"])
def test_a_site_nobody_links_to_is_unidentifiable(family, method):
    # the one outside-linked person links to site 0 only, and the sites'
    # people link to no other site: site 1's logit has no finite maximum
    model = HomogeneousLinkModel(2) if family == "homogeneous" else RaschLinkModel(2, 20)
    data = SampleData(n=2, N=5, m=(3, 4), between1={0b01: 1})
    with pytest.raises(Unidentifiable, match="^frame-covered component: no observed "
                                             "person links to site 1"):
        fit_total(data, model, model, method)
    # the check does not depend on the start
    start = np.r_[0.0, 0.0, [0.5] * (model.q - 2)]
    with pytest.raises(Unidentifiable, match="links to site 1"):
        estimators.fit_component(data.covered, model, method, start)
    # the uncovered part is checked the same way (three sites, so that it is
    # identified under the rasch family otherwise)
    model = HomogeneousLinkModel(3) if family == "homogeneous" else RaschLinkModel(3, 20)
    data = SampleData(n=3, N=6, m=(3, 4, 2),
                      between1={0b001: 1, 0b010: 2, 0b100: 1, 0b011: 1},
                      between2={0b010: 3, 0b110: 1})
    with pytest.raises(Unidentifiable, match="^outside-frame component: no observed "
                                             "person links to site 0"):
        fit_total(data, model, model, method)


@pytest.mark.parametrize("method", ["cmle", "umle"])
@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
def test_single_links_without_within_links_are_unidentifiable(family, method):
    # every outside-linked person links to exactly one site and no site member
    # links to another site: every observed cell gains as all the link logits
    # fall together, so none of them has a finite maximum
    model = HomogeneousLinkModel(3) if family == "homogeneous" else RaschLinkModel(3, 20)
    message = ("every outside-linked person links to exactly one site and no site "
               "member links to another sampled site")
    data = SampleData(n=3, N=6, m=(5, 6, 4), between1={1: 2, 2: 1, 4: 1, 3: 1},
                      between2={1: 4, 2: 4, 4: 4})
    with pytest.raises(Unidentifiable, match=f"^outside-frame component: {message}"):
        fit_total(data, model, model, method)
    # the covered part, whose site tables hold nothing but pattern-0 rows
    data = SampleData(n=3, N=6, m=(5, 6, 4), between1={1: 2, 2: 1, 4: 1},
                      between2={1: 4, 2: 4, 4: 4, 3: 1})
    assert [pats.tolist() for site, pats, _ in data.covered.tables if site is not None] == [
        [0], [0], [0]]
    with pytest.raises(Unidentifiable, match=f"^frame-covered component: {message}"):
        fit_total(data, model, model, method)
    start = np.r_[-1.0, -1.0, -1.0, [0.5] * (model.q - 3)]
    with pytest.raises(Unidentifiable, match=message):
        estimators.fit_component(data.covered, model, method, start)
    # one outside-linked person with two links, or one within-site link,
    # identifies the part
    for data in (SampleData(n=3, N=6, m=(5, 6, 4), between1={1: 2, 2: 1, 4: 1, 3: 1}),
                 SampleData(n=3, N=6, m=(5, 6, 4), between1={1: 2, 2: 1, 4: 1},
                            within=({0b010: 1}, {}, {}))):
        assert estimators.fit_component(data.covered, model, method).converged


def _acceptance_style_config(tau1=2000, tau2=1000, N=10, n=4, p1=0.3, p2=0.25):
    return PopulationConfig(
        N=N, n=n, cluster_mode=ConditionalMultinomial(tau1), tau2=tau2,
        model1=HomogeneousLinkModel(n), model2=HomogeneousLinkModel(n),
        theta1=np.full(n, logit(p1)), theta2=np.full(n, logit(p2)),
    )


def test_cmle_consistency_smoke():
    config = _acceptance_style_config()
    ok = 0
    reps = 200
    for i in range(reps):
        data, truth = draw_sample(config, replicate_rng(41, i))
        fit = fit_component(data.covered, config.model1, "cmle")
        ok += abs(fit.tau / truth.tau1 - 1.0) < 0.1
    assert ok >= 0.95 * reps


def test_methods_nearly_agree_for_small_sampling_fraction():
    config = _acceptance_style_config(tau1=8000, tau2=1000, N=400, n=4)
    data, _ = draw_sample(config, replicate_rng(4242, 0))
    um = fit_component(data.covered, config.model1, "umle")
    cm = fit_component(data.covered, config.model1, "cmle")
    assert abs(um.tau - cm.tau) / cm.tau < 0.01


def test_fixed_point_residuals_at_solution():
    config = _acceptance_style_config(tau1=600, tau2=300)
    data, _ = draw_sample(config, replicate_rng(9, 3))
    fit = fit_component(data.covered, config.model1, "umle")
    model = config.model1
    pi0, _ = model.zero_prob_and_grad(fit.theta)
    real, _ = _closed_form(data.m_total, data.r1, 1 - data.n / data.N, pi0)
    assert abs(real - fit.tau_real) / real < 1e-9
    assert fit.grad_norm <= 1e-8
    assert fit.tau == int(np.floor(fit.tau_real))
    assert fit.tau_real >= data.m_total + data.r1


@pytest.mark.parametrize("part", ["covered", "uncovered"])
def test_umle_without_start_warm_starts_from_the_conditional_fit(part):
    # both parts: a plain umle fit is the conditional fit followed by the
    # size/parameter ascent from its theta, and counts both fits' iterations
    config = _acceptance_style_config()
    data, _ = draw_sample(config, replicate_rng(9, 6))
    if part == "covered":
        model = config.model1
        cm = fit_component(data.covered, model, "cmle")
        um = fit_component(data.covered, model, "umle")
        ascent = fit_component(data.covered, model, "umle", cm.theta)
    else:
        model = config.model2
        cm = fit_component(data.uncovered, model, "cmle")
        um = fit_component(data.uncovered, model, "umle")
        ascent = fit_component(data.uncovered, model, "umle", cm.theta)
    assert cm.iterations > 0 and ascent.iterations > 0
    assert um.iterations == cm.iterations + ascent.iterations
    assert np.array_equal(um.theta, ascent.theta)
    assert (um.tau, um.tau_real, um.sweeps) == (ascent.tau, ascent.tau_real, ascent.sweeps)


def test_no_convergence_surfaces(monkeypatch):
    config = _acceptance_style_config(tau1=600, tau2=300)
    data, _ = draw_sample(config, replicate_rng(9, 4))
    monkeypatch.setattr(estimators, "MAX_SWEEPS", 1)
    # start far away so the floored size moves in the first sweep
    with pytest.raises(NoConvergence):
        fit_component(data.covered, config.model1, "umle", np.full(4, 3.0))


def test_same_method_enforced_and_failures_labeled():
    config = _acceptance_style_config(tau1=600, tau2=300)
    data, _ = draw_sample(config, replicate_rng(9, 5))
    with pytest.raises(Exception, match="expected 'umle' or 'cmle'"):
        fit_total(data, config.model1, config.model2, "mixed")
    empty_u2 = SampleData(n=data.n, N=data.N, m=data.m,
                          between1=data.between1, within=data.within)
    with pytest.raises(Unidentifiable, match="outside-frame component"):
        fit_total(empty_u2, config.model1, config.model2, "cmle")


def test_seeded_pipeline_determinism():
    config = _acceptance_style_config(tau1=600, tau2=300)
    outs = []
    for _ in range(2):
        data, _ = draw_sample(config, replicate_rng(77, 0))
        report = fit_total(data, config.model1, config.model2, "umle")
        attach_variance(report, data, config.model1, config.model2)
        outs.append(json.dumps(report.to_dict(), sort_keys=True))
    assert outs[0] == outs[1]


def test_each_part_is_fitted_and_evaluated_through_one_entry_point():
    import snowlink
    from snowlink import likelihood

    for name in ("fit_component", "loglik_full", "loglik_cond", "Component"):
        assert hasattr(snowlink, name)
    # the retired per-part names stay on estimators only as placeholders for
    # mcbench/tracing.py, which looks them up when it installs
    for name in ("fit_cmle_1", "fit_umle_1", "fit_2",
                 "loglik_full_1", "loglik_cond_1", "loglik_2"):
        assert not hasattr(snowlink, name) and not hasattr(likelihood, name)
        assert getattr(estimators, name) is None


def test_rasch_end_to_end_fit():
    from snowlink import RaschLinkModel

    n = 3
    model = RaschLinkModel(n, quadrature_nodes=60)
    theta_true = np.array([-0.8, -0.5, -1.0, 0.8])
    config = PopulationConfig(
        N=8, n=n, cluster_mode=ConditionalMultinomial(3000), tau2=800,
        model1=model, model2=model, theta1=theta_true, theta2=theta_true,
    )
    data, truth = draw_sample(config, replicate_rng(606, 0))
    for method in ("cmle", "umle"):
        fit = fit_component(data.covered, model, method)
        assert fit.converged and fit.grad_norm <= 1e-8
        assert fit.theta[-1] >= 0.0  # spread bound respected
        assert abs(fit.tau / truth.tau1 - 1.0) < 0.15
    fit2 = fit_component(data.uncovered, model, "cmle")
    assert fit2.converged and abs(fit2.tau / truth.tau2 - 1.0) < 0.25


def test_golden_report_bytes(tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "golden_report.json"
    config = _acceptance_style_config(tau1=600, tau2=300)
    data, _ = draw_sample(config, replicate_rng(20240817, 0))
    report = fit_total(data, config.model1, config.model2, "cmle")
    attach_variance(report, data, config.model1, config.model2)
    rendered = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    changes = json_field_changes(json.loads(golden.read_text()), json.loads(rendered))
    assert rendered == golden.read_text(), "changed fields:\n" + "\n".join(changes)
