"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest -s`` to see the lines as they pass).

The desk-scale Monte Carlo study behind the consistency and normality
criteria runs once as a module fixture (500 replicates, both methods,
fixed master seed) and takes a couple of minutes; the two tests that use it
are marked ``slow``, so ``pytest -m "not slow"`` skips it.
"""

import numpy as np
import pytest
from scipy.special import expit, gammaln, logit

from snowlink import (
    ExperimentConfig,
    HomogeneousLinkModel,
    RaschLinkModel,
    enumerate_patterns,
    fit_component,
    loglik_cond,
    loglik_full,
    psi1_inverse,
    run_experiment,
    sigma1_inverse,
    sigma1_sq_cmle,
    sigma1_sq_umle,
    sigma2_inverse,
)
from snowlink.estimators import _closed_form
from snowlink.link_model import DEFAULT_QUADRATURE_NODES
from snowlink.simulator import (
    ConditionalMultinomial,
    PopulationConfig,
    draw_sample,
    replicate_rng,
)
from snowlink.variance import empirical_v_covariance

from conftest import (
    fd_gradient,
    loglik_binom_12,
    mixture_prob_trapezoid,
    pattern_grad,
    pattern_prob,
    random_model,
    random_sample_data,
)
from test_estimators import (
    _grid_maximize,
    _integer_size_profile_argmax,
    _n2_between_probs,
    _n2_conditional_value,
    _n2_within_value,
    _random_small_instance,
)
from test_variance import (
    _close,
    moments,
    person_vectors_conditional_covered,
    person_vectors_joint_covered,
    person_vectors_uncovered,
)

TAU1_TRUE = 2000
TAU2_TRUE = 1000


def _report(line):
    print(line, flush=True)


@pytest.fixture(scope="module")
def desk_study():
    population = PopulationConfig(
        N=10, n=4, cluster_mode=ConditionalMultinomial(TAU1_TRUE),
        tau2=TAU2_TRUE,
        model1=HomogeneousLinkModel(4), model2=HomogeneousLinkModel(4),
        theta1=np.full(4, logit(0.3)), theta2=np.full(4, logit(0.25)),
    )
    config = ExperimentConfig(population=population, replicates=500,
                              methods=("umle", "cmle"), master_seed=20240817)
    return run_experiment(config)


@pytest.mark.slow
def test_a1_consistency(desk_study):
    for method in ("umle", "cmle"):
        ms = desk_study.per_method[method]
        assert ms.failures == 0, f"{ms.failures} replicates failed under {method}"
        for target, true_val in (("tau1", TAU1_TRUE), ("tau2", TAU2_TRUE),
                                 ("tau", TAU1_TRUE + TAU2_TRUE)):
            ratio = ms.targets[target].mean / true_val
            assert 0.97 <= ratio <= 1.03, (
                f"{method} {target}: mean ratio {ratio:.4f} outside [0.97, 1.03]"
            )
    _report("[A1] consistency of both methods at desk scale: PASS")


@pytest.mark.slow
def test_a2_normality_and_coverage(desk_study):
    for method in ("umle", "cmle"):
        for target in ("tau1", "tau2", "tau"):
            t = desk_study.per_method[method].targets[target]
            assert abs(t.skewness) < 0.25, (
                f"{method} {target}: |skewness| {abs(t.skewness):.3f} >= 0.25"
            )
            assert abs(t.excess_kurtosis) < 0.5, (
                f"{method} {target}: |excess kurtosis| "
                f"{abs(t.excess_kurtosis):.3f} >= 0.5"
            )
            assert 0.92 <= t.coverage <= 0.98, (
                f"{method} {target}: coverage {t.coverage:.3f} outside [0.92, 0.98]"
            )
    _report("[A2] asymptotic normality and 95% coverage: PASS")


def test_a3_matrix_identity_between_routes():
    rng = np.random.default_rng(33)
    for draw in range(50):
        n = int(rng.integers(2, 7))
        N = n + int(rng.integers(1, 13 - n)) if n < 12 else n + 1
        N = min(N, 12)
        model, theta = random_model(rng, n)
        P = psi1_inverse(theta, model, n, N).inverse_form
        S = sigma1_inverse(theta, model, n, N).inverse_form
        pi0, g0 = model.zero_prob_and_grad(theta)
        rhs = S[1:, 1:] - (1.0 - n / N) / (pi0 * (1.0 - pi0)) * np.outer(g0, g0)
        err = np.linalg.norm(P - rhs)
        assert err < 1e-10 * (1.0 + np.linalg.norm(P)), (
            f"draw {draw} ({model.family}, n={n}, N={N}): identity residual {err:.2e}"
        )
    _report("[A3] conditional/unconditional precision-matrix identity: PASS")


def test_a4_person_vector_moment_oracle():
    rng = np.random.default_rng(44)
    for n in range(2, 7):
        N = n + int(rng.integers(1, 7))
        model, theta = random_model(rng, n, allow_rasch=(n >= 3))
        for pairs, mats in (
            (person_vectors_joint_covered(theta, model, n, N),
             sigma1_inverse(theta, model, n, N)),
            (person_vectors_conditional_covered(theta, model, n, N),
             psi1_inverse(theta, model, n, N)),
            (person_vectors_uncovered(theta, model),
             sigma2_inverse(theta, model)),
        ):
            mean, second = moments(pairs)
            scale = 1.0 + np.max(np.abs(second))
            assert np.max(np.abs(mean)) <= 1e-12 * scale
            assert _close(second, mats.inverse_form, tol=1e-12)
    # empirical covariance at scale
    n, N = 4, 10
    theta = np.full(n, logit(0.3))
    model = HomogeneousLinkModel(n)
    config = PopulationConfig(N=N, n=n,
                              cluster_mode=ConditionalMultinomial(100_000),
                              tau2=0, model1=model, model2=model,
                              theta1=theta, theta2=theta)
    data, truth = draw_sample(config, replicate_rng(4444, 0))
    emp = empirical_v_covariance(data, theta, truth.tau1, model, "sigma1")
    ana = sigma1_inverse(theta, model, n, N)
    rel = (np.linalg.norm(emp.inverse_form - ana.inverse_form)
           / np.linalg.norm(ana.inverse_form))
    assert rel < 0.05, f"empirical covariance off by {rel:.3%}"
    _report("[A4] person-vector moments match analytic matrices; "
            "empirical estimate within 5%: PASS")


def test_a5_gradient_checks():
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(100):
        data = random_sample_data(rng, n=int(rng.integers(2, 6)))
        model, theta = random_model(rng, data.n, quadrature_nodes=30)
        x = int(rng.integers(0, 1 << data.n))
        grad = pattern_grad(model, theta, x)
        fd = fd_gradient(lambda th: pattern_prob(model, th, x), theta)
        worst = max(worst, np.max(np.abs(grad - fd) / (1.0 + np.abs(fd))))
        tau1 = data.m_total + data.r1 + float(rng.uniform(0, 25))
        tau2 = data.r2 + float(rng.uniform(0, 15))
        for fun in (
            lambda th: loglik_full(data.covered, tau1, th, model),
            lambda th: loglik_cond(data.covered, th, model),
            lambda th: loglik_binom_12(data, tau1, th, model),
            lambda th: loglik_full(data.uncovered, tau2, th, model),
            lambda th: loglik_cond(data.uncovered, th, model),
        ):
            grad = fun(theta).grad_theta
            fd = fd_gradient(lambda th: fun(th).value, theta)
            worst = max(worst, np.max(np.abs(grad - fd) / (1.0 + np.abs(fd))))
    assert worst <= 1e-6, f"worst relative gradient error {worst:.2e}"
    _report(f"[A5] analytic gradients vs finite differences "
            f"(worst {worst:.2e}): PASS")


def test_a6_closed_forms_match_integer_scans():
    rng = np.random.default_rng(66)
    for trial in range(100):
        n = int(rng.integers(1, 6))
        N = n + int(rng.integers(1, 8))
        m = int(rng.integers(0, 60))
        r1 = int(rng.integers(0, 40))
        pi0 = float(rng.uniform(0.05, 0.95))
        if m + r1 == 0:
            m = 1
        real, floor = _closed_form(m, r1, 1 - n / N, pi0)
        assert floor == int(np.floor(real)) or abs(real - round(real)) < 1e-9
        assert floor in _integer_size_profile_argmax(m, r1, n, N, pi0)
        # uncovered analogue
        r2 = int(rng.integers(1, 60))
        floor2 = int(np.floor((r2 / (1.0 - pi0)) * (1 + 4e-16)))
        assert floor2 in _integer_size_profile_argmax(
            0, r2, n, N, pi0, include_sites=False
        )
    _report("[A6] ratio-method closed forms match integer profile scans: PASS")


def test_a7_zero_spread_degeneracy_and_quadrature_accuracy():
    rng = np.random.default_rng(77)
    # exact collapse to the homogeneous family at zero spread
    for n in range(1, 7):
        alpha = rng.uniform(-2, 2, n)
        rasch = RaschLinkModel(n)
        homog = HomogeneousLinkModel(n)
        pats = enumerate_patterns(n)
        pr, _ = rasch.probs_and_grads(np.concatenate([alpha, [0.0]]), pats)
        ph, _ = homog.probs_and_grads(alpha, pats)
        assert np.max(np.abs(pr - ph)) <= 1e-12
    # the shipped default rule against dense 1-D integration
    worst = 0.0
    for trial in range(40):
        n = int(rng.integers(1, 7))
        alpha = rng.uniform(-2, 2, n)
        sigma = float(rng.uniform(0, 2))
        x = int(rng.integers(0, 1 << n))
        model = RaschLinkModel(n)
        value = pattern_prob(model, np.concatenate([alpha, [sigma]]), x)
        oracle = mixture_prob_trapezoid(alpha, sigma, x, n)
        worst = max(worst, abs(value - oracle))
    assert worst <= 1e-8, f"worst quadrature error {worst:.2e}"
    _report(f"[A7] zero-spread collapse exact; default "
            f"{DEFAULT_QUADRATURE_NODES}-node quadrature within 1e-8 of dense "
            f"integration (worst {worst:.2e}): PASS")


@pytest.mark.xfail(
    strict=True,
    reason="a 30-node rule cannot integrate spread-2 mixtures to 1e-8 "
    "(measured error ~1e-5); the package default is therefore 100 nodes, "
    "which meets the tolerance above",
)
def test_a7_thirty_node_rule_meets_tolerance():
    model = RaschLinkModel(6, quadrature_nodes=30)
    theta = np.concatenate([np.full(6, 2.0), [2.0]])
    value = pattern_prob(model, theta, 0b111111)
    oracle = mixture_prob_trapezoid(np.full(6, 2.0), 2.0, 0b111111, 6)
    assert abs(value - oracle) <= 1e-8


def test_a8_route_variances_differ_then_nearly_agree():
    theta = np.full(4, logit(0.3))
    model = HomogeneousLinkModel(4)
    su = sigma1_sq_umle(theta, model, 4, 10)
    sc = sigma1_sq_cmle(theta, model, 4, 10)
    rel = abs(sc / su - 1.0)
    assert rel > 1e-10, f"routes coincide unexpectedly (rel {rel:.2e})"
    su_s = sigma1_sq_umle(theta, model, 4, 400)
    sc_s = sigma1_sq_cmle(theta, model, 4, 400)
    rel_s = abs(sc_s / su_s - 1.0)
    assert rel_s < 0.02, f"small-fraction relative difference {rel_s:.4f}"
    _report(f"[A8] route variances differ generically (rel {rel:.2e}) and "
            f"nearly agree at n/N=0.01 (rel {rel_s:.2e}): PASS")


def test_a9_solver_grid_oracle():
    for seed in (11, 12, 13):
        rng = np.random.default_rng(seed)
        data, _ = _random_small_instance(rng)
        model = HomogeneousLinkModel(2)

        def cond_obj(p1, p2):
            return (_n2_conditional_value(data, p1, p2, data.between1)
                    + _n2_within_value(data, p1, p2))

        g = np.array(_grid_maximize(cond_obj))
        fit = fit_component(data.covered, model, "cmle")
        assert np.max(np.abs(fit.theta - logit(g))) <= 1e-3
        p_hat = expit(fit.theta)
        assert fit.tau in _integer_size_profile_argmax(
            data.m_total, data.r1, 2, data.N, (1 - p_hat[0]) * (1 - p_hat[1])
        )

        m, r1, N = data.m_total, data.r1, data.N
        f = 1.0 - 2 / N
        taus = np.arange(m + r1, int(4 * (m + r1) / (1 - f * 0.999**2)) + 60,
                         dtype=float)
        size_const = (gammaln(taus + 1) - gammaln(taus - m - r1 + 1)
                      + (taus - m) * np.log(f))

        def joint_obj(p1, p2):
            pi0 = (1 - p1) * (1 - p2)
            tau_part = np.max(size_const + (taus - m - r1) * np.log(pi0))
            probs = _n2_between_probs(p1, p2)
            between = sum(c * np.log(probs[x]) for x, c in data.between1.items())
            return tau_part + between + _n2_within_value(data, p1, p2)

        g = np.array(_grid_maximize(joint_obj))
        fit = fit_component(data.covered, model, "umle")
        assert np.max(np.abs(fit.theta - logit(g))) <= 1e-3
        p_hat = expit(fit.theta)
        profile = size_const + (taus - m - r1) * np.log((1 - p_hat[0]) * (1 - p_hat[1]))
        ties = {int(t) for t, v in zip(taus, profile) if v >= profile.max() - 1e-9}
        assert fit.tau in ties

        def cond2_obj(p1, p2):
            return _n2_conditional_value(data, p1, p2, data.between2)

        g = np.array(_grid_maximize(cond2_obj))
        fit = fit_component(data.uncovered, model, "cmle")
        assert np.max(np.abs(fit.theta - logit(g))) <= 1e-3
        p_hat = expit(fit.theta)
        assert fit.tau in _integer_size_profile_argmax(
            0, data.r2, 2, data.N, (1 - p_hat[0]) * (1 - p_hat[1]),
            include_sites=False,
        )
    _report("[A9] solvers match exhaustive grid oracles on small instances: PASS")
