import numpy as np
import pytest
from scipy.special import logit

from snowlink import (
    DegenerateDenominator,
    DomainError,
    EstimateReport,
    HomogeneousLinkModel,
    InsufficientData,
    NonFiniteLikelihood,
    PatternSpaceTooLarge,
    RaschLinkModel,
    SampleData,
    SingularMatrix,
    attach_variance,
    empirical_v_covariance,
    enumerate_patterns,
    psi1_inverse,
    sigma1_inverse,
    sigma1_sq_cmle,
    sigma1_sq_umle,
    sigma2_inverse,
    sigma2_sq,
    theta_covariances,
)
from snowlink.variance import _guarded_inverse, _interval_set

from conftest import FlatZeroPatternModel, random_model


# ---------------------------------------------------------------------------
# Enumeration oracles: per-person score-like vectors and their first two
# moments, built directly from the case decomposition.


def person_vectors_joint_covered(theta, model, n, N):
    """(probability, vector) pairs for the joint (size, parameter) vectors of
    one frame-covered person: outside patterns (zero and nonzero) and the
    within-site patterns of each sampled site."""
    f = 1.0 - n / N
    pi0, _ = model.zero_prob_and_grad(theta)
    pairs = []
    pats = enumerate_patterns(n)
    probs, grads = model.probs_and_grads(theta, pats)
    for k, x in enumerate(pats):
        if x == 0:
            head = -(1.0 - f * pi0) / (f * pi0)
        else:
            head = 1.0
        pairs.append((f * probs[k],
                      np.concatenate([[head], grads[k] / probs[k]])))
    for l in range(n):
        wpats = enumerate_patterns(n, excluded_site=l)
        probs, grads = model.probs_and_grads(theta, wpats, within_site=l)
        for k in range(len(wpats)):
            pairs.append((probs[k] / N,
                          np.concatenate([[1.0], grads[k] / probs[k]])))
    return pairs


def person_vectors_conditional_covered(theta, model, n, N):
    """Parameter-only vectors built from zero-truncated outside patterns; the
    zero pattern contributes a zero vector."""
    f = 1.0 - n / N
    pi0, g0 = model.zero_prob_and_grad(theta)
    escape = 1.0 - pi0
    pairs = []
    pats = enumerate_patterns(n)
    probs, grads = model.probs_and_grads(theta, pats)
    for k, x in enumerate(pats):
        if x == 0:
            vec = np.zeros(model.q)
        else:
            tp = probs[k] / escape
            tg = grads[k] / escape + probs[k] * g0 / escape**2
            vec = tg / tp
        pairs.append((f * probs[k], vec))
    for l in range(n):
        wpats = enumerate_patterns(n, excluded_site=l)
        probs, grads = model.probs_and_grads(theta, wpats, within_site=l)
        for k in range(len(wpats)):
            pairs.append((probs[k] / N, grads[k] / probs[k]))
    return pairs


def person_vectors_uncovered(theta, model):
    pi0, _ = model.zero_prob_and_grad(theta)
    pairs = []
    pats = enumerate_patterns(model.n)
    probs, grads = model.probs_and_grads(theta, pats)
    for k, x in enumerate(pats):
        head = 1.0 if x != 0 else -(1.0 - pi0) / pi0
        pairs.append((probs[k], np.concatenate([[head], grads[k] / probs[k]])))
    return pairs


def moments(pairs):
    probs = np.array([p for p, _ in pairs])
    V = np.vstack([v for _, v in pairs])
    assert abs(probs.sum() - 1.0) <= 1e-12
    mean = probs @ V
    second = (V.T * probs) @ V
    return mean, second


def _close(A, B, tol=1e-12):
    scale = 1.0 + max(np.max(np.abs(A)), np.max(np.abs(B)))
    return np.max(np.abs(A - B)) <= tol * scale


# ---------------------------------------------------------------------------
# Analytic matrices against the enumeration oracle


def test_joint_covered_matrix_symmetric_two_site_case():
    model = HomogeneousLinkModel(2)
    theta = np.zeros(2)  # p = (0.5, 0.5)
    mats = sigma1_inverse(theta, model, 2, 4)
    mean, second = moments(person_vectors_joint_covered(theta, model, 2, 4))
    assert np.max(np.abs(mean)) <= 1e-12 * (1 + np.max(np.abs(second)))
    assert _close(second, mats.inverse_form)
    # site exchange symmetry for exchangeable parameters
    M = mats.inverse_form
    assert M[1, 1] == pytest.approx(M[2, 2], rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_moment_oracle_random_models(seed):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(2, 7))
    N = n + int(rng.integers(1, 7))
    # the uncovered-part matrix needs more observed cells than parameters,
    # which the random-effect family only has from three sites on
    model, theta = random_model(rng, n, allow_rasch=(n >= 3))
    mats = sigma1_inverse(theta, model, n, N)
    mean, second = moments(person_vectors_joint_covered(theta, model, n, N))
    scale = 1 + np.max(np.abs(second))
    assert np.max(np.abs(mean)) <= 1e-12 * scale
    assert _close(second, mats.inverse_form)

    psi = psi1_inverse(theta, model, n, N)
    mean, second = moments(person_vectors_conditional_covered(theta, model, n, N))
    assert np.max(np.abs(mean)) <= 1e-12 * (1 + np.max(np.abs(second)))
    assert _close(second, psi.inverse_form)

    s2 = sigma2_inverse(theta, model)
    mean, second = moments(person_vectors_uncovered(theta, model))
    assert np.max(np.abs(mean)) <= 1e-12 * (1 + np.max(np.abs(second)))
    assert _close(second, s2.inverse_form)


def test_uncovered_matrix_single_site_by_hand():
    from snowlink.variance import _sigma2_precision

    model = HomogeneousLinkModel(1)
    theta = np.zeros(1)  # p = 0.5, pi0 = 0.5, d(pi1)/d(eta) = 0.25
    M = _sigma2_precision(theta, model)
    # [0,0] = (1-pi0)/pi0 = 1; [0,1] = -(1/pi0) d(pi0) = 0.5
    # [1,1] = (1/pi1) d(pi1)^2 + (1/pi0) d(pi0)^2 = 0.25*0.25/0.5*2
    expected = np.array([[1.0, 0.5], [0.5, 0.25]])
    assert np.allclose(M, expected, atol=1e-14)
    mean, second = moments(person_vectors_uncovered(theta, model))
    assert np.max(np.abs(mean)) <= 1e-13
    assert np.allclose(second, expected, atol=1e-14)
    # a single site cannot identify (size, link probability) jointly: the
    # two support atoms span a rank-one covariance, and inversion refuses
    with pytest.raises(SingularMatrix):
        sigma2_inverse(theta, model)


def test_uncovered_approaches_covered_block_for_small_sampling_fraction():
    model = HomogeneousLinkModel(3)
    theta = np.array([-0.4, 0.1, -0.9])
    big_N = 3_000_000
    joint = sigma1_inverse(theta, model, 3, big_N).inverse_form[1:, 1:]
    outside = sigma2_inverse(theta, model).inverse_form[1:, 1:]
    assert np.max(np.abs(joint - outside) / (1 + np.abs(outside))) <= 2e-6


def test_conditional_matrix_equals_joint_submatrix_when_zero_grad_vanishes():
    model = FlatZeroPatternModel(3, zero_mass=0.35)
    theta = np.array([0.4])
    S = sigma1_inverse(theta, model, 3, 7).inverse_form
    P = psi1_inverse(theta, model, 3, 7).inverse_form
    assert np.allclose(P, S[1:, 1:], atol=1e-14)


def test_matrix_identity_between_routes(rng):
    # conditional precision = joint-submatrix precision minus the rank-one
    # empty-pattern correction, for both families
    for trial in range(25):
        n = int(rng.integers(2, 7))
        N = n + int(rng.integers(1, 7))
        model, theta = random_model(rng, n)
        S = sigma1_inverse(theta, model, n, N).inverse_form
        P = psi1_inverse(theta, model, n, N).inverse_form
        pi0, g0 = model.zero_prob_and_grad(theta)
        f = 1.0 - n / N
        rhs = S[1:, 1:] - f / (pi0 * (1.0 - pi0)) * np.outer(g0, g0)
        assert np.linalg.norm(P - rhs) <= 1e-10 * (1.0 + np.linalg.norm(P))


def test_full_frame_design_rejected_for_joint_matrix():
    model = HomogeneousLinkModel(2)
    with pytest.raises(DegenerateDenominator):
        sigma1_inverse(np.zeros(2), model, 2, 2)


def test_zero_spread_boundary_is_singular():
    # at the person-effect boundary the spread coordinate carries no
    # information (the mixture is even in the spread), so the joint
    # precision matrix is singular and must be refused
    model = RaschLinkModel(2, quadrature_nodes=40)
    theta = np.array([0.1, -0.4, 0.0])
    with pytest.raises(SingularMatrix):
        sigma1_inverse(theta, model, 2, 5)


# ---------------------------------------------------------------------------
# Pattern information: the homogeneous closed form and the psi1 identity


def enumerated_information(theta, model, within_site=None):
    """Reference sum of grad grad^T / prob over an enumerated pattern space."""
    pats = enumerate_patterns(model.n, excluded_site=within_site)
    probs, grads = model.probs_and_grads(theta, pats, within_site=within_site)
    return (grads.T / probs) @ grads


def psi1_precision_zero_truncated(theta, model, n, N):
    """Reference ``psi1``: the information of the zero-truncated probabilities
    over the enumerated nonzero patterns, plus the within-site blocks."""
    f = 1.0 - n / N
    pi0, g0 = model.zero_prob_and_grad(theta)
    escape = 1.0 - pi0
    probs, grads = model.probs_and_grads(theta, enumerate_patterns(n)[1:])
    tprobs = probs / escape
    tgrads = grads / escape + np.outer(probs, g0) / escape**2
    M = f * escape * (tgrads.T / tprobs) @ tgrads
    for l in range(n):
        M += enumerated_information(theta, model, within_site=l) / N
    return M


@pytest.mark.parametrize("n", range(1, 11))
def test_homogeneous_information_equals_enumerated_sum(n):
    from snowlink.variance import _information

    model = HomogeneousLinkModel(n)
    theta = np.random.default_rng(70 + n).uniform(-3.0, 3.0, n)
    for site in [None, *range(n)]:
        closed = _information(theta, model, within_site=site)
        reference = enumerated_information(theta, model, within_site=site)
        np.testing.assert_allclose(closed, reference, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
@pytest.mark.parametrize("n", [3, 4])
def test_psi1_truncation_identity_equals_zero_truncated_sum(family, n):
    rng = np.random.default_rng(40 + n)
    if family == "rasch":
        model = RaschLinkModel(n, quadrature_nodes=40)
        theta = np.append(rng.uniform(-2.0, 1.0, n), 0.9)
    else:
        model = HomogeneousLinkModel(n)
        theta = rng.uniform(-2.0, 1.0, n)
    N = n + 5
    M = psi1_inverse(theta, model, n, N).inverse_form
    np.testing.assert_allclose(M, psi1_precision_zero_truncated(theta, model, n, N),
                               rtol=1e-12, atol=1e-15)


def test_homogeneous_variances_enumerate_nothing(monkeypatch):
    import snowlink.variance as var

    def refuse(*args, **kwargs):
        raise AssertionError("the homogeneous family enumerated a pattern space")

    monkeypatch.setattr(var, "enumerate_patterns", refuse)
    n = 3
    model = HomogeneousLinkModel(n)
    data = SampleData(n=n, N=8, m=(40, 35, 50))
    for method in ("umle", "cmle"):
        report = EstimateReport(method=method, tau1_real=600.0, tau1=600,
                                tau2_real=300.0, tau2=300,
                                theta1=np.array([-0.7, -0.9, -0.5]),
                                theta2=np.array([-1.0, -0.8, -1.1]))
        attach_variance(report, data, model, model)
        assert report.variance.sigma1_sq > 0 and report.variance.sigma2_sq > 0


@pytest.mark.parametrize("v, expected", [
    (800.0, (DegenerateDenominator, NonFiniteLikelihood, NonFiniteLikelihood)),
    (-800.0, (NonFiniteLikelihood, NonFiniteLikelihood, NonFiniteLikelihood)),
    (40.0, (DegenerateDenominator, SingularMatrix, SingularMatrix)),
    (-40.0, (SingularMatrix, SingularMatrix, SingularMatrix)),
])
def test_extreme_logits_raise_as_under_enumeration(v, expected):
    # exp(-800) underflows, so enumeration met a vanished pattern probability
    # (or a vanished pi0 at v = 800); exp(-40) does not, but leaves the
    # matrices singular to working precision
    model = HomogeneousLinkModel(4)
    theta = np.array([v, -1.0, -1.0, -1.0])
    builders = (lambda: sigma1_inverse(theta, model, 4, 10),
                lambda: psi1_inverse(theta, model, 4, 10),
                lambda: sigma2_inverse(theta, model))
    for build, exc in zip(builders, expected):
        with pytest.raises(exc):
            build()


def test_analytic_variances_past_the_enumeration_guard():
    from snowlink.experiments import ExperimentConfig, run_experiment
    from snowlink.simulator import ConditionalMultinomial, PopulationConfig

    n = 21
    population = PopulationConfig(
        N=60, n=n, cluster_mode=ConditionalMultinomial(2000), tau2=1000,
        model1=HomogeneousLinkModel(n), model2=HomogeneousLinkModel(n),
        theta1=np.full(n, logit(0.3)), theta2=np.full(n, logit(0.25)))
    config = ExperimentConfig(population=population, replicates=1, master_seed=7)
    rows = run_experiment(config).rows
    assert [r["method"] for r in rows] == ["umle", "cmle"]
    assert [r["error"] for r in rows] == ["", ""]
    assert all(r["sigma1_sq"] > 0 and r["sigma2_sq"] > 0 for r in rows)
    # the other families still enumerate, and keep the guard
    rasch = RaschLinkModel(n, quadrature_nodes=20)
    with pytest.raises(PatternSpaceTooLarge):
        sigma2_inverse(np.append(np.full(n, -1.0), 0.5), rasch)


# ---------------------------------------------------------------------------
# Scalar variances


def test_flat_zero_family_scalar_variances_coincide():
    model = FlatZeroPatternModel(3, zero_mass=0.35)
    theta = np.array([0.4])
    n, N = 3, 7
    f = 1.0 - n / N
    su = sigma1_sq_umle(theta, model, n, N)
    sc = sigma1_sq_cmle(theta, model, n, N)
    expected = f * 0.35 / (1.0 - f * 0.35)
    assert su == pytest.approx(expected, rel=1e-12)
    assert sc == pytest.approx(expected, rel=1e-12)


def test_scalar_variance_equals_covariance_corner():
    # the scalar formula must reproduce the size entry of the inverted
    # joint precision matrix (a block-inversion identity)
    rng = np.random.default_rng(31)
    for trial in range(10):
        n = int(rng.integers(2, 6))
        N = n + int(rng.integers(1, 6))
        model, theta = random_model(rng, n, allow_rasch=(n >= 3))
        su = sigma1_sq_umle(theta, model, n, N)
        corner = sigma1_inverse(theta, model, n, N).covariance_form[0, 0]
        assert su == pytest.approx(corner, rel=1e-9)
        s2 = sigma2_sq(theta, model)
        corner2 = sigma2_inverse(theta, model).covariance_form[0, 0]
        assert s2 == pytest.approx(corner2, rel=1e-9)


def test_routes_differ_generically_but_agree_for_small_fraction():
    model = HomogeneousLinkModel(4)
    theta = np.full(4, logit(0.3))
    su = sigma1_sq_umle(theta, model, 4, 10)
    sc = sigma1_sq_cmle(theta, model, 4, 10)
    assert abs(sc / su - 1.0) > 1e-10
    assert sc > su  # conditioning discards the cluster-size information
    su_small = sigma1_sq_umle(theta, model, 4, 400)
    sc_small = sigma1_sq_cmle(theta, model, 4, 400)
    assert abs(sc_small / su_small - 1.0) < 0.02


def test_uncovered_variance_vanishes_when_everyone_observed():
    model = HomogeneousLinkModel(2)
    theta = np.full(2, 6.0)  # link probabilities near 1, pi0 near 0
    assert sigma2_sq(theta, model) < 1e-4


@pytest.mark.slow
def test_monte_carlo_variance_oracle():
    # empirical variance of the normalized size error against the analytic
    # values, for both routes
    from snowlink import fit_cmle_1, fit_umle_1
    from snowlink.simulator import (ConditionalMultinomial, PopulationConfig,
                                    draw_sample, replicate_rng)

    n, N, tau1 = 2, 10, 1000
    theta_true = np.full(n, logit(0.3))
    model = HomogeneousLinkModel(n)
    config = PopulationConfig(N=N, n=n, cluster_mode=ConditionalMultinomial(tau1),
                              tau2=0, model1=model, model2=model,
                              theta1=theta_true, theta2=theta_true)
    errs_u, errs_c = [], []
    for i in range(2000):
        data, truth = draw_sample(config, replicate_rng(1234, i))
        errs_c.append((fit_cmle_1(data, model).tau - tau1) / np.sqrt(tau1))
        errs_u.append((fit_umle_1(data, model).tau - tau1) / np.sqrt(tau1))
    var_u_emp = np.var(errs_u, ddof=1)
    var_c_emp = np.var(errs_c, ddof=1)
    su = sigma1_sq_umle(theta_true, model, n, N)
    sc = sigma1_sq_cmle(theta_true, model, n, N)
    assert abs(var_u_emp / su - 1.0) < 0.10
    assert abs(var_c_emp / sc - 1.0) < 0.10


# ---------------------------------------------------------------------------
# Empirical per-person-vector covariance


def _materialized_covariance(data, theta, tau_hat, model, which):
    """Naive oracle: build one vector per person and take numpy's covariance."""
    rows = []
    pi0, g0 = model.zero_prob_and_grad(theta)
    f = 1.0 - data.n / data.N
    escape = 1.0 - pi0
    if which == "sigma2":
        for x, c in data.between2.items():
            p, g = model.probs_and_grads(theta, [x])
            rows += [np.concatenate([[1.0], g[0] / p[0]])] * c
        rows += [np.concatenate([[-(1 - pi0) / pi0], g0 / pi0])] * (tau_hat - data.r2)
    else:
        for x, c in data.between1.items():
            p, g = model.probs_and_grads(theta, [x])
            if which == "sigma1":
                vec = np.concatenate([[1.0], g[0] / p[0]])
            else:
                tp = p[0] / escape
                tg = g[0] / escape + p[0] * g0 / escape**2
                vec = tg / tp
            rows += [vec] * c
        for l in range(data.n):
            pats = list(data.within[l]) + [0]
            counts = [data.within[l][x] for x in data.within[l]]
            counts.append(data.m[l] - sum(counts))
            p, g = model.probs_and_grads(theta, pats, within_site=l)
            for k in range(len(pats)):
                vec = g[k] / p[k]
                if which == "sigma1":
                    vec = np.concatenate([[1.0], vec])
                rows += [vec] * counts[k]
        unobs = tau_hat - data.m_total - data.r1
        if which == "sigma1":
            zero_vec = np.concatenate([[-(1 - f * pi0) / (f * pi0)], g0 / pi0])
        else:
            zero_vec = np.zeros(model.q)
        rows += [zero_vec] * unobs
    return np.cov(np.vstack(rows), rowvar=False, ddof=1)


@pytest.mark.parametrize("which", ["sigma1", "psi1", "sigma2"])
def test_empirical_matches_naive_materialization(which):
    data = SampleData(n=2, N=6, m=(4, 3), between1={1: 3, 2: 2, 3: 1},
                      within=({2: 2}, {1: 1}), between2={1: 5, 3: 2})
    model = HomogeneousLinkModel(2)
    theta = np.array([-0.6, -0.2])
    tau_hat = 20
    mats = empirical_v_covariance(data, theta, tau_hat, model, which)
    naive = _materialized_covariance(data, theta, tau_hat, model, which)
    assert np.allclose(mats.inverse_form, naive, atol=1e-12)


def test_empirical_all_observed_degenerate_case():
    # everyone observed: no zero-pattern weight, plain weighted covariance
    data = SampleData(n=2, N=6, m=(3, 2), between1={1: 4, 3: 3},
                      within=({2: 1}, {1: 2}))
    model = HomogeneousLinkModel(2)
    theta = np.array([1.5, 1.0])
    tau_hat = data.m_total + data.r1
    mats = empirical_v_covariance(data, theta, tau_hat, model, "sigma1")
    naive = _materialized_covariance(data, theta, tau_hat, model, "sigma1")
    assert np.allclose(mats.inverse_form, naive, atol=1e-12)


def test_empirical_close_to_analytic_at_scale():
    from snowlink.simulator import (ConditionalMultinomial, PopulationConfig,
                                    draw_sample, replicate_rng)

    n, N, tau1 = 4, 10, 100_000
    theta = np.full(n, logit(0.3))
    model = HomogeneousLinkModel(n)
    config = PopulationConfig(N=N, n=n, cluster_mode=ConditionalMultinomial(tau1),
                              tau2=0, model1=model, model2=model,
                              theta1=theta, theta2=theta)
    data, truth = draw_sample(config, replicate_rng(5150, 0))
    emp = empirical_v_covariance(data, theta, truth.tau1, model, "sigma1")
    ana = sigma1_inverse(theta, model, n, N)
    rel = (np.linalg.norm(emp.inverse_form - ana.inverse_form)
           / np.linalg.norm(ana.inverse_form))
    assert rel < 0.05


def test_empirical_guards():
    data = SampleData(n=2, N=6, m=(1, 1), between1={1: 1})
    model = HomogeneousLinkModel(2)
    with pytest.raises(InsufficientData):
        empirical_v_covariance(data, np.zeros(2), 3, model, "sigma1")
    with pytest.raises(DomainError):
        empirical_v_covariance(data, np.zeros(2), 1, model, "sigma1")


# ---------------------------------------------------------------------------
# Intervals


def test_interval_half_width_arithmetic():
    # variance 400 at level 0.95: half-width 1.96 * 20 = 39.2
    combined, intervals = _interval_set(tau1=1000, tau2=0, s1=0.4, s2=0.0,
                                        level=0.95)
    lo, hi = intervals["tau1"]
    assert hi - lo == pytest.approx(2 * 1.959963984540054 * 20.0, rel=1e-12)


def test_degenerate_interval():
    _, intervals = _interval_set(tau1=50, tau2=10, s1=0.0, s2=0.0, level=0.95)
    assert intervals["tau"] == (60.0, 60.0)


def test_attach_variance_combined_weighting(rng):
    from snowlink import fit_total
    from snowlink.simulator import (ConditionalMultinomial, PopulationConfig,
                                    draw_sample, replicate_rng)

    n = 3
    model = HomogeneousLinkModel(n)
    config = PopulationConfig(N=8, n=n, cluster_mode=ConditionalMultinomial(500),
                              tau2=250, model1=model, model2=model,
                              theta1=np.full(n, logit(0.35)),
                              theta2=np.full(n, logit(0.3)))
    data, _ = draw_sample(config, replicate_rng(88, 0))
    report = fit_total(data, model, model, "cmle")
    attach_variance(report, data, model, model, level=0.9)
    v = report.variance
    alpha1 = report.tau1 / report.tau
    assert v.sigma_sq == pytest.approx(
        alpha1 * v.sigma1_sq + (1 - alpha1) * v.sigma2_sq, rel=1e-12
    )
    assert v.var_tau == pytest.approx(v.var_tau1 + v.var_tau2, rel=1e-12)
    assert v.intervals == _interval_set(report.tau1, report.tau2,
                                        v.sigma1_sq, v.sigma2_sq, 0.9)[1]
    # empirical source runs end to end as well
    attach_variance(report, data, model, model, level=0.9, source="empirical_v")
    assert report.variance.source == "empirical_v"
    assert report.variance.sigma1_sq > 0


# ---------------------------------------------------------------------------
# One variance pass per estimate


def _theta_covariances_rebuilt(report, data, model1, model2):
    """The parameter covariances computed from freshly built analytic
    matrices, formula by formula, as a reference for the stored pair."""
    n, N = data.n, data.N
    if report.method == "umle":
        si = sigma1_inverse(report.theta1, model1, n, N).inverse_form
        f = 1.0 - n / N
        pi0, g0 = model1.zero_prob_and_grad(report.theta1)
        sub = si[1:, 1:] - (f / (pi0 * (1.0 - f * pi0))) * np.outer(g0, g0)
        cov1, _ = _guarded_inverse(sub, "the parameter block of the joint covariance")
    else:
        cov1 = psi1_inverse(report.theta1, model1, n, N).covariance_form
    cov2 = sigma2_inverse(report.theta2, model2).covariance_form[1:, 1:]
    return cov1, cov2


@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
@pytest.mark.parametrize("method", ["umle", "cmle"])
def test_theta_covariances_bitwise_equal_to_rebuilt_matrices(family, method):
    n, N = 3, 8
    if family == "rasch":
        model = RaschLinkModel(n, quadrature_nodes=40)
        theta1, theta2 = np.array([-0.7, -0.9, -0.5, 0.8]), np.array([-1.0, -0.8, -1.1, 0.6])
    else:
        model = HomogeneousLinkModel(n)
        theta1, theta2 = np.array([-0.7, -0.9, -0.5]), np.array([-1.0, -0.8, -1.1])
    data = SampleData(n=n, N=N, m=(40, 35, 50))
    report = EstimateReport(method=method, tau1_real=600.0, tau1=600,
                            tau2_real=300.0, tau2=300, theta1=theta1, theta2=theta2)
    attach_variance(report, data, model, model)
    cov1, cov2 = theta_covariances(report, data, model, model)
    ref1, ref2 = _theta_covariances_rebuilt(report, data, model, model)
    assert cov1.shape == (model.q, model.q) and cov2.shape == (model.q, model.q)
    assert np.array_equal(cov1, ref1)
    assert np.array_equal(cov2, ref2)
    assert "theta1_cov" not in report.variance.to_dict()


@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
def test_attach_variance_equals_the_scalar_variances(family):
    # attach_variance and the public scalar variances take one route from the
    # precision matrix, so at the report's parameters they agree bit for bit
    from snowlink import fit_total
    from snowlink.simulator import (ConditionalMultinomial, PopulationConfig,
                                    draw_sample, replicate_rng)

    n, N = 4, 10
    if family == "rasch":
        model, extra = RaschLinkModel(n, quadrature_nodes=20), [1.0]
    else:
        model, extra = HomogeneousLinkModel(n), []
    config = PopulationConfig(N=N, n=n, cluster_mode=ConditionalMultinomial(2000),
                              tau2=1500, model1=model, model2=model,
                              theta1=np.r_[np.full(n, logit(0.35)), extra],
                              theta2=np.r_[np.full(n, logit(0.3)), extra])
    covered = {"umle": sigma1_sq_umle, "cmle": sigma1_sq_cmle}
    for index in range(3):
        data, _ = draw_sample(config, replicate_rng(11, index))
        for method in ("umle", "cmle"):
            report = fit_total(data, model, model, method)
            v = attach_variance(report, data, model, model).variance
            assert v.sigma1_sq == covered[method](report.theta1, model, n, N)
            assert v.sigma2_sq == sigma2_sq(report.theta2, model)


def test_empirical_psi1_without_inverse_names_the_conditional_precision():
    # nobody is found inside the sampled sites, so the empirical psi1 is kept
    # without an inverse; the covered cmle route then says why it fails
    data = SampleData(n=2, N=5, m=(0, 0), between1={3: 5},
                      between2={1: 3, 2: 2, 3: 1})
    model = HomogeneousLinkModel(2)
    report = EstimateReport(method="cmle", tau1_real=12.0, tau1=12,
                            tau2_real=9.0, tau2=9,
                            theta1=np.zeros(2), theta2=np.zeros(2))
    with pytest.raises(SingularMatrix, match="the conditional parameter precision "
                                             "is not positive definite"):
        attach_variance(report, data, model, model, source="empirical_v")


def test_theta_covariances_requires_variance():
    report = EstimateReport(method="umle", tau1_real=10.0, tau1=10,
                            tau2_real=5.0, tau2=5,
                            theta1=np.zeros(2), theta2=np.zeros(2))
    data = SampleData(n=2, N=6, m=(3, 3))
    model = HomogeneousLinkModel(2)
    with pytest.raises(DomainError):
        theta_covariances(report, data, model, model)


def test_theta_covariances_without_uncovered_inverse_is_singular():
    report = EstimateReport(method="cmle", tau1_real=10.0, tau1=10,
                            tau2_real=5.0, tau2=5,
                            theta1=np.zeros(2), theta2=np.zeros(2))
    data = SampleData(n=2, N=6, m=(3, 3))
    model = HomogeneousLinkModel(2)
    attach_variance(report, data, model, model)
    report.variance.theta2_cov = None  # as left by a singular empirical sigma2
    with pytest.raises(SingularMatrix):
        theta_covariances(report, data, model, model)


def test_each_precision_matrix_built_once_per_estimate(monkeypatch):
    import snowlink.variance as var
    from snowlink.experiments import ExperimentConfig, _replicate_rows
    from snowlink.simulator import ConditionalMultinomial, PopulationConfig

    builds = []
    for name in ("sigma1_inverse", "psi1_inverse", "sigma2_inverse"):
        original = getattr(var, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            builds.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(var, name, counted)
    n = 3
    population = PopulationConfig(
        N=8, n=n, cluster_mode=ConditionalMultinomial(400), tau2=200,
        model1=HomogeneousLinkModel(n), model2=HomogeneousLinkModel(n),
        theta1=np.full(n, logit(0.35)), theta2=np.full(n, logit(0.3)))
    config = ExperimentConfig(population=population, replicates=1, master_seed=3)
    rows = _replicate_rows(config, 0)
    assert [r["error"] for r in rows] == ["", ""]
    assert sorted(builds) == sorted(["sigma1_inverse", "sigma2_inverse",
                                     "psi1_inverse", "sigma2_inverse"])


def test_empirical_parameter_covariances_past_the_enumeration_guard():
    # the analytic matrices would need 2**21 patterns; the empirical route
    # touches observed patterns only, and so do its parameter covariances
    from snowlink.experiments import ExperimentConfig, run_experiment
    from snowlink.simulator import ConditionalMultinomial, PopulationConfig

    n = 21
    population = PopulationConfig(
        N=60, n=n, cluster_mode=ConditionalMultinomial(2000), tau2=1000,
        model1=HomogeneousLinkModel(n), model2=HomogeneousLinkModel(n),
        theta1=np.full(n, logit(0.3)), theta2=np.full(n, logit(0.25)))
    config = ExperimentConfig(population=population, replicates=1,
                              methods=("cmle",), master_seed=7,
                              variance_source="empirical_v")
    row, = run_experiment(config).rows
    assert "PatternSpaceTooLarge" not in row["error"]
    assert row["error"] == ""
    assert all(row[f"theta{k}_{j}_se"] > 0 for k in (1, 2) for j in range(n))
