import numpy as np
import pytest
from scipy.special import gammaln, logit
from scipy.stats import binom

from snowlink import (
    DomainError,
    HomogeneousLinkModel,
    NonFiniteLikelihood,
    RaschLinkModel,
    SampleData,
    Unidentifiable,
    loglik_cond,
    loglik_full,
)
from snowlink.likelihood import PI_FLOOR, _require_positive

from conftest import (
    fd_gradient,
    loglik_binom_12,
    loglik_separate_zero_rows,
    multinomial_cluster_loglik,
    random_model,
    random_sample_data,
)


def test_full_frame_design_pins_the_size():
    # with every site sampled the escape factor is zero, so any size above
    # the observed people has log-likelihood -inf
    data = SampleData(n=2, N=2, m=(3, 4), within=({2: 1}, {1: 2}))
    model = HomogeneousLinkModel(2)
    theta = np.zeros(2)
    at_bound = loglik_full(data.covered, data.m_total + data.r1, theta, model)
    assert np.isfinite(at_bound.value)
    above = loglik_full(data.covered, data.m_total + data.r1 + 1, theta, model)
    assert above.value == -np.inf


def test_zero_links_value_and_gradient_by_hand():
    # no observed links anywhere; only the within-site zero patterns remain
    data = SampleData(n=2, N=5, m=(3, 4))
    model = HomogeneousLinkModel(2)
    theta = np.full(2, logit(0.3))
    terms = loglik_full(data.covered, data.m_total, theta, model)
    m = data.m_total
    # the log-gamma size factor is the only surviving constant; each of the
    # m people contributes one within factor 1 - 0.3 for the other site
    assert terms.value - gammaln(m + 1) == pytest.approx(m * np.log(0.7), rel=1e-12)
    expected_grad = np.array([-0.3 * 4, -0.3 * 3])
    assert np.allclose(terms.grad_theta, expected_grad, atol=1e-12)


def test_tau_below_observed_is_domain_error():
    data = random_sample_data(np.random.default_rng(0))
    model = HomogeneousLinkModel(data.n)
    with pytest.raises(DomainError):
        loglik_full(data.covered, data.m_total + data.r1 - 1, np.zeros(data.n), model)


def test_conditional_single_cell_is_flat():
    data = SampleData(n=1, N=4, m=(5,), between1={1: 7})
    model = HomogeneousLinkModel(1)
    for eta in (-0.3, 0.0, 1.2):
        terms = loglik_cond(data.covered, np.array([eta]), model)
        assert terms.value == pytest.approx(0.0, abs=1e-12)
        assert terms.grad_theta[0] == pytest.approx(0.0, abs=1e-12)


def test_conditional_unidentifiable_without_any_links():
    data = SampleData(n=2, N=5, m=(3, 4))
    with pytest.raises(Unidentifiable):
        loglik_cond(data.covered, np.zeros(2), HomogeneousLinkModel(2))


def test_binomial_escape_no_links():
    data = SampleData(n=2, N=5, m=(2, 2))
    model = HomogeneousLinkModel(2)
    theta = np.full(2, logit(0.3))  # pi0 = 0.49
    tau1 = data.m_total + 6
    terms = loglik_binom_12(data, tau1, theta, model)
    assert terms.value == pytest.approx(6 * np.log(0.49), rel=1e-12)


def test_binomial_escape_matches_pmf():
    # two people at risk, one linked, escape probability one half
    data = SampleData(n=1, N=3, m=(4,), between1={1: 1})
    model = HomogeneousLinkModel(1)
    theta = np.array([0.0])  # pi0 = 0.5
    terms = loglik_binom_12(data, data.m_total + 2, theta, model)
    # r1! = 1 is the only dropped constant here
    assert terms.value == pytest.approx(binom.logpmf(1, 2, 0.5), rel=1e-12)
    assert terms.value == pytest.approx(np.log(0.5), rel=1e-12)


def test_uncovered_no_observations():
    data = SampleData(n=2, N=5, m=(1, 1))
    model = HomogeneousLinkModel(2)
    theta = np.full(2, logit(0.3))
    terms = loglik_full(data.uncovered, 11.0, theta, model)
    assert terms.value == pytest.approx(11.0 * np.log(0.49), rel=1e-12)
    with pytest.raises(Unidentifiable):
        loglik_cond(data.uncovered, theta, model)


def test_factorization_identity_on_random_instances(rng):
    # full = cluster + binomial escape + conditional, exactly, for any
    # (size, parameter) pair under the package's constant conventions
    for trial in range(20):
        data = random_sample_data(rng)
        model, theta = random_model(rng, data.n, quadrature_nodes=30)
        base = data.m_total + data.r1
        for tau1 in (float(base), base + 3.7, base + 41.0):
            full = loglik_full(data.covered, tau1, theta, model).value
            parts = (
                multinomial_cluster_loglik(tau1, data.m_total, data.n, data.N)
                + loglik_binom_12(data, tau1, theta, model).value
                + loglik_cond(data.covered, theta, model).value
            )
            assert full == pytest.approx(parts, abs=1e-9)


def test_gradients_match_finite_differences(rng):
    worst = 0.0
    for trial in range(100):
        data = random_sample_data(rng, n=int(rng.integers(2, 6)))
        model, theta = random_model(rng, data.n, quadrature_nodes=30)
        tau1 = data.m_total + data.r1 + float(rng.uniform(0, 30))
        tau2 = data.r2 + float(rng.uniform(0, 20))
        cases = [
            lambda th: loglik_full(data.covered, tau1, th, model),
            lambda th: loglik_cond(data.covered, th, model),
            lambda th: loglik_binom_12(data, tau1, th, model),
            lambda th: loglik_full(data.uncovered, tau2, th, model),
            lambda th: loglik_cond(data.uncovered, th, model),
        ]
        for fun in cases:
            grad = fun(theta).grad_theta
            fd = fd_gradient(lambda th: fun(th).value, theta)
            worst = max(worst, np.max(np.abs(grad - fd) / (1.0 + np.abs(fd))))
    assert worst <= 1e-6


def test_integer_profile_unimodal_with_mode_at_floor(rng):
    # scan the cluster factor times the binomial escape factor over integer
    # sizes; the profile must rise to the ratio-method floor and fall after
    for trial in range(20):
        data = random_sample_data(rng)
        model = HomogeneousLinkModel(data.n)
        theta = rng.uniform(-1.5, 1.0, data.n)
        pi0, _ = model.zero_prob_and_grad(theta)
        f = 1.0 - data.n / data.N
        base = data.m_total + data.r1
        mode = int(np.floor(base / (1.0 - f * pi0)))
        top = max(mode * 3, base + 50)
        taus = np.arange(base, top + 1)
        vals = np.array([
            multinomial_cluster_loglik(t, data.m_total, data.n, data.N)
            + loglik_binom_12(data, float(t), theta, model).value
            for t in taus
        ])
        k = int(np.argmax(vals))
        assert taus[k] == mode
        assert np.all(np.diff(vals[: k + 1]) >= -1e-12)
        assert np.all(np.diff(vals[k:]) <= 1e-12)


def test_underflow_raises_instead_of_clamping():
    data = SampleData(n=2, N=5, m=(2, 2), between1={3: 1})
    model = HomogeneousLinkModel(2)
    theta = np.array([-800.0, -800.0])  # link probabilities underflow to 0
    with pytest.raises(NonFiniteLikelihood):
        loglik_cond(data.covered, theta, model)


def _both_families(n):
    return [("homogeneous", HomogeneousLinkModel(n)),
            ("rasch", RaschLinkModel(n, quadrature_nodes=20))]


@pytest.mark.parametrize("part", ["covered", "uncovered"])
def test_counted_sum_matches_separate_zero_rows(rng, part):
    # each site's unlinked people as the pattern-0 row of its table give the
    # likelihood of the older path, where they were a kernel call of their own
    for trial in range(12):
        data = random_sample_data(rng, n=int(rng.integers(2, 5)))
        comp = getattr(data, part)
        tau = comp.m_total + comp.r + float(rng.uniform(0.0, 30.0))
        for _, model in _both_families(data.n):
            theta = rng.uniform(-2.0, 1.0, model.q)
            theta[data.n:] = np.abs(theta[data.n:])
            for got, ref in ((loglik_full(comp, tau, theta, model),
                              loglik_separate_zero_rows(comp, theta, model, tau)),
                             (loglik_cond(comp, theta, model),
                              loglik_separate_zero_rows(comp, theta, model))):
                assert got.value == pytest.approx(ref[0], rel=1e-12)
                np.testing.assert_allclose(got.grad_theta, ref[1], rtol=1e-12,
                                           atol=1e-12 * np.abs(ref[1]).max())


@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
def test_one_kernel_call_per_nonempty_table(monkeypatch, family):
    # site 0 has unlinked people, site 1 has none, site 2 is empty
    data = SampleData(n=3, N=6, m=(5, 2, 0), between1={0b011: 2, 0b100: 1},
                      within=({0b010: 1}, {0b001: 1, 0b100: 1}, {}),
                      between2={0b101: 3})
    model = dict(_both_families(3))[family]
    theta = np.r_[-0.4, -0.6, -0.9, [0.7] * (model.q - 3)]
    kernel = type(model).probs_and_grads
    calls = []

    def counted(self, theta, patterns, within_site=None):
        calls.append(within_site)
        return kernel(self, theta, patterns, within_site)

    monkeypatch.setattr(type(model), "probs_and_grads", counted)
    for comp, sites in ((data.covered, [None, 0, 1]), (data.uncovered, [None])):
        for evaluate in (lambda: loglik_full(comp, comp.m_total + comp.r + 4.0, theta, model),
                         lambda: loglik_cond(comp, theta, model)):
            calls.clear()
            evaluate()
            assert calls == sites


_BAD_PROBABILITIES = [np.nan, np.inf, -np.inf, 0.0, -1.0, PI_FLOOR / 2, np.nextafter(PI_FLOOR, 0)]


@pytest.mark.parametrize("bad", _BAD_PROBABILITIES)
def test_require_positive_refuses_nan_infinities_and_underflow(bad):
    with pytest.raises(NonFiniteLikelihood, match="^the thing underflowed to zero$"):
        _require_positive(float(bad), "the thing")
    for where in (0, 2, 4):
        probs = np.array([0.5, 0.25, PI_FLOOR, 1.0, 0.125])
        probs[where] = bad
        with pytest.raises(NonFiniteLikelihood, match="the thing"):
            _require_positive(probs, "the thing")


def test_require_positive_accepts_the_floor_and_one():
    for ok in (PI_FLOOR, 1.0, 0.5, np.nextafter(PI_FLOOR, 1.0)):
        _require_positive(ok, "a probability")
        _require_positive(np.array([ok]), "a probability")
    _require_positive(np.array([PI_FLOOR, 1.0, 0.3]), "a probability")
    _require_positive(np.array([]), "no probability")
