"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own computation paths:
dense trapezoid integration for the normal-mixture probabilities, central
finite differences for gradients, direct pmf formulas (via scipy) for the
integer size profiles, case-by-case construction of the per-person
score vectors for the moment checks, the random-effect kernel as a loop
over quadrature nodes, and the homogeneous kernel as the direct product of
per-site factors.  The two kernel references take the package's own
elementwise ``expit`` and ``log_expit`` (the tests compare those with scipy's)
and rewrite only the kernel's arithmetic; the trapezoid oracle uses scipy's
``expit``.  The cluster and binomial-escape factors of the
frame-covered likelihood live here too, as the references for the
factorization ``full = cluster + conditional + binomial-escape``, and so does
the likelihood with each site's unlinked people in a kernel call of their
own, the reference for the one counted sum over the tables, and the
information of a pattern draw as a sum over its enumerated patterns, the
reference for the model's link-total information.
"""

import numpy as np
import pytest
from scipy.special import expit as scipy_expit, gammaln, xlogy

from snowlink import DomainError, enumerate_patterns
from snowlink.link_model import expit, log_expit
from snowlink.likelihood import LogLikTerms, _require_positive


def fd_gradient(fun, theta, step=1e-5):
    """Central finite differences of a scalar function of a vector."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        out[i] = (fun(up) - fun(dn)) / (2.0 * step)
    return out


def multinomial_cluster_loglik(tau1: float, m_total: int, n: int, N: int) -> float:
    """Size-dependent part of the cluster-sampling log-probability.

    Uses the exponent ``tau1 - m`` on ``1 - n/N`` (the remainder is a data-only
    constant), so the full-frame design ``n == N`` evaluates to 0 at
    ``tau1 == m`` instead of an indeterminate form.
    """
    if tau1 < m_total:
        raise DomainError(f"size {tau1} below the number of people found in sites {m_total}")
    return float(
        gammaln(tau1 + 1.0) - gammaln(tau1 - m_total + 1.0)
        + xlogy(tau1 - m_total, 1.0 - n / N)
    )


def loglik_binom_12(data, tau1: float, theta1, model1) -> LogLikTerms:
    """Binomial escape factor: of ``tau1 - m`` people at risk outside the
    sampled sites, ``r1`` were linked to at least one site."""
    m, r1 = data.m_total, data.r1
    if tau1 < m + r1:
        raise DomainError(f"tau1={tau1} is below m + r1 = {m + r1}")
    unobserved = tau1 - m - r1
    p0, g0 = model1.zero_prob_and_grad(theta1)
    if r1 > 0:
        _require_positive(1.0 - p0, "the escape probability")
    if unobserved > 0:
        _require_positive(p0, "the zero-pattern probability")
    value = float(gammaln(tau1 - m + 1.0) - gammaln(unobserved + 1.0)
                  + xlogy(r1, 1.0 - p0) + xlogy(unobserved, p0))
    grad = np.zeros(model1.q)
    if r1 > 0:
        grad -= (r1 / (1.0 - p0)) * g0
    if unobserved > 0:
        grad += (unobserved / p0) * g0
    return LogLikTerms(value=value, grad_theta=grad)


def loglik_separate_zero_rows(comp, theta, model, tau=None):
    """``loglik_full`` (with ``tau``) or ``loglik_cond`` (without) of one
    part, read from the count maps, with each sampled site's unlinked people
    in a kernel call of their own instead of a pattern-0 row of the site's
    table: the reference for the one counted sum of the likelihood."""
    value, grad = 0.0, np.zeros(model.q)

    def add(site, counts):
        nonlocal value, grad
        probs, grads = model.probs_and_grads(theta, list(counts), site)
        weights = np.array(list(counts.values()), dtype=float)
        value += float(weights @ np.log(probs))
        grad = grad + (weights / probs) @ grads

    if comp.between:
        add(None, comp.between)
    for site, (counts, size) in enumerate(zip(comp.within, comp.m)):
        if counts:
            add(site, counts)
        if size > sum(counts.values()):
            add(site, {0: size - sum(counts.values())})
    p0, g0 = model.zero_prob_and_grad(theta)
    if tau is None:
        return value - comp.r * np.log1p(-p0), grad + (comp.r / (1.0 - p0)) * g0
    unobserved = tau - comp.m_total - comp.r
    value += float(gammaln(tau + 1.0) - gammaln(unobserved + 1.0)
                   + xlogy(tau - comp.m_total, comp.f) + xlogy(unobserved, p0))
    return value, grad + (unobserved / p0) * g0


def mixture_prob_trapezoid(alpha, sigma, x, n, within_site=None, npts=100_000):
    """Dense 1-D integration of the logistic-normal pattern probability on
    z in (-10, 10); the tail mass beyond is far below the comparison scale."""
    z = np.linspace(-10.0, 10.0, npts)
    density = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    prod = np.ones_like(z)
    for i in range(n):
        if i == within_site:
            continue
        p = scipy_expit(alpha[i] + sigma * z)
        prod = prod * (p if (x >> i) & 1 else 1.0 - p)
    return float(np.trapezoid(prod * density, z))


def pattern_bits(patterns, n):
    """Pattern bits as a (patterns x n) float matrix, bit ``j`` in column ``j``."""
    xs = np.atleast_1d(np.asarray(patterns, dtype=np.int64))
    return ((xs[:, None] >> np.arange(n)) & 1).astype(float)


def pattern_prob(model, theta, x, within_site=None):
    """The probability of the single pattern ``x``, from the model's kernel."""
    return float(model.probs_and_grads(theta, [x], within_site)[0][0])


def pattern_grad(model, theta, x, within_site=None):
    """The gradient of the single pattern ``x``, from the model's kernel."""
    return model.probs_and_grads(theta, [x], within_site)[1][0]


def active_sites(n, within_site=None):
    active = np.ones(n, dtype=bool)
    if within_site is not None:
        active[within_site] = False
    return active


def homogeneous_probs_and_grads_product(theta, patterns, n, within_site=None):
    """The homogeneous kernel as the product of the per-site factors a pattern
    selects, with the gradient ``probs (x - p)``: the reference for
    ``HomogeneousLinkModel.probs_and_grads``.  It keeps the layout the
    mixture kernel's products are summed in (column-major bits), so the two
    agree bit for bit."""
    theta = np.asarray(theta, dtype=float)
    X = pattern_bits(patterns, n)
    active = active_sites(n, within_site)
    lp = log_expit(theta[active])
    l1p = log_expit(-theta[active])
    probs = np.exp(X[:, active] @ lp + (1.0 - X[:, active]) @ l1p)
    grads = np.zeros((X.shape[0], n))
    grads[:, active] = probs[:, None] * (X[:, active] - expit(theta[active]))
    return probs, grads


def homogeneous_zero_prob_and_grad_product(theta):
    """All-zero pattern probability ``prod_j (1 - p_j)`` and its gradient
    ``-p0 p``: the reference for ``HomogeneousLinkModel.zero_prob_and_grad``."""
    theta = np.asarray(theta, dtype=float)
    p0 = float(np.exp(log_expit(-theta).sum()))
    return p0, -p0 * expit(theta)


def rasch_probs_and_grads_loop(model, theta, patterns, within_site=None):
    """The random-effect kernel as one pass per quadrature node: the reference
    for the vectorized ``RaschLinkModel.probs_and_grads``."""
    theta = model.validate_theta(theta)
    alpha, sigma = theta[:-1], theta[-1]
    X = pattern_bits(patterns, model.n)
    active = active_sites(model.n, within_site)
    Xa = X[:, active]
    probs = np.zeros(X.shape[0])
    grads = np.zeros((X.shape[0], model.q))
    galpha = grads[:, :-1]
    for zk, wk in zip(model.rule.nodes, model.rule.weights):
        a = alpha[active] + sigma * zk
        fk = np.exp(Xa @ log_expit(a) + (1.0 - Xa) @ log_expit(-a))
        resid = Xa - expit(a)
        probs += wk * fk
        contrib = (wk * fk)[:, None] * resid
        galpha[:, active] += contrib
        grads[:, -1] += zk * contrib.sum(axis=1)
    return probs, grads


def rasch_zero_prob_and_grad_loop(model, theta):
    """All-zero pattern probability and gradient, one pass per quadrature
    node: the reference for ``RaschLinkModel.zero_prob_and_grad``."""
    theta = model.validate_theta(theta)
    alpha, sigma = theta[:-1], theta[-1]
    p0 = 0.0
    grad = np.zeros(model.q)
    for zk, wk in zip(model.rule.nodes, model.rule.weights):
        a = alpha + sigma * zk
        fk = float(np.exp(log_expit(-a).sum()))
        pk = expit(a)
        p0 += wk * fk
        grad[:-1] += -wk * fk * pk
        grad[-1] += -wk * zk * fk * pk.sum()
    return p0, grad


def enumerated_information(theta, model, within_site=None):
    """The information of one scope's pattern draw as the sum of ``grad
    grad^T / prob`` over its enumerated pattern space: the reference for
    ``MixtureLinkModel.information``."""
    pats = enumerate_patterns(model.n, excluded_site=within_site)
    probs, grads = model.probs_and_grads(theta, pats, within_site=within_site)
    return (grads.T / probs) @ grads


class FlatZeroPatternModel:
    """One-parameter family whose all-zero pattern mass is constant.

    Between-site probabilities put a fixed mass on the empty pattern and
    spread the rest over nonzero patterns with weights exp(theta * popcount),
    so the empty-pattern gradient vanishes identically.  Within-site
    probabilities are uniform and parameter-free.
    """

    family = "flat_zero"
    # what the estimators read from a model: no bounded parameter
    lower_bounds = np.full(1, -np.inf)

    def __init__(self, n, zero_mass=0.4):
        self.n = n
        self.q = 1
        self.zero_mass = zero_mass

    def validate_theta(self, theta):
        theta = np.asarray(theta, dtype=float)
        assert theta.shape == (1,)
        return theta

    def _between(self, theta):
        t = float(np.asarray(theta).reshape(())) if np.ndim(theta) else float(theta)
        pats = np.array(enumerate_patterns(self.n))
        counts = np.array([bin(int(x)).count("1") for x in pats], dtype=float)
        w = np.exp(t * counts)
        w[0] = 0.0
        w /= w.sum()
        probs = (1.0 - self.zero_mass) * w
        probs[0] = self.zero_mass
        tbar = float((w * counts).sum())
        grads = probs * (counts - tbar)
        grads[0] = 0.0
        return pats, probs, grads

    def probs_and_grads(self, theta, patterns, within_site=None):
        theta = self.validate_theta(np.atleast_1d(theta))
        xs = np.atleast_1d(np.asarray(patterns, dtype=np.int64))
        if within_site is not None:
            probs = np.full(len(xs), 2.0 ** -(self.n - 1))
            return probs, np.zeros((len(xs), 1))
        pats, probs, grads = self._between(theta[0])
        idx = np.searchsorted(pats, xs)
        return probs[idx], grads[idx][:, None]

    def zero_prob_and_grad(self, theta):
        self.validate_theta(np.atleast_1d(theta))
        return self.zero_mass, np.zeros(1)

    def information(self, theta, within_site=None):
        return enumerated_information(theta, self, within_site)


def random_model(rng, n, allow_rasch=True, quadrature_nodes=60):
    """A random model instance with an interior parameter draw."""
    from snowlink import HomogeneousLinkModel, RaschLinkModel

    if allow_rasch and rng.random() < 0.5:
        model = RaschLinkModel(n, quadrature_nodes=quadrature_nodes)
        theta = rng.uniform(-2.0, 2.0, model.q)
        theta[-1] = rng.uniform(0.0, 2.0)
    else:
        model = HomogeneousLinkModel(n)
        theta = rng.uniform(-2.0, 2.0, model.q)
    return model, theta


def random_sample_data(rng, n=None, N=None, max_count=6):
    """A small random SampleData with nonempty between and within maps."""
    from snowlink import SampleData

    n = n or int(rng.integers(2, 5))
    N = N or n + int(rng.integers(1, 6))
    m = tuple(int(v) for v in rng.integers(2, 8, n))
    nonzero = list(range(1, 1 << n))
    picks = rng.choice(nonzero, size=min(3, len(nonzero)), replace=False)
    between1 = {int(x): int(rng.integers(1, max_count)) for x in picks}
    picks2 = rng.choice(nonzero, size=min(2, len(nonzero)), replace=False)
    between2 = {int(x): int(rng.integers(1, max_count)) for x in picks2}
    within = []
    for l in range(n):
        space = [x for x in enumerate_patterns(n, l) if x != 0]
        budget = m[l]
        chosen = {}
        if space and budget > 1:
            x = int(rng.choice(space))
            chosen[x] = int(rng.integers(1, budget))
        within.append(chosen)
    return SampleData(n=n, N=N, m=m, between1=between1,
                      within=tuple(within), between2=between2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def json_field_changes(old, new, path=""):
    """Every leaf that differs between two parsed JSON documents, one line
    each with its path, old value, new value and, for numbers, the relative
    change."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [line for key in sorted(set(old) | set(new))
                for line in json_field_changes(old.get(key), new.get(key),
                                               f"{path}.{key}" if path else key)]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (a, b) in enumerate(zip(old, new))
                for line in json_field_changes(a, b, f"{path}[{i}]")]
    if old == new and type(old) is type(new):
        return []
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    relative = f" ({(new - old) / abs(old):+.2e} relative)" if numbers and old else ""
    return [f"{path}: {old!r} -> {new!r}{relative}"]


def imported_modules(importtime_stderr: str) -> list[str]:
    """The module names that ``python -X importtime`` lists on stderr."""
    return [line.rpartition("|")[2].strip() for line in importtime_stderr.splitlines()
            if line.startswith("import time:")]
