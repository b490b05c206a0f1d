"""Asymptotic variances: analytic precision matrices, scalar variances for the
size estimates, an empirical per-person-vector covariance estimator, and the
variance report with its Wald intervals.

Three precision matrices are available:

* ``sigma1`` - joint (size, parameter) precision for the frame-covered part
  under unconditional fitting, dimension ``q + 1`` with index 0 the size
  coordinate;
* ``psi1`` - parameter-only precision for the frame-covered part under
  conditional fitting, dimension ``q``, the information of the
  zero-truncated pattern probabilities;
* ``sigma2`` - joint precision for the frame-uncovered part, dimension
  ``q + 1`` (the same for both fitting routes).

The uncovered part is the covered part with escape factor ``f = 1`` and no
sites, so ``sigma1`` and ``sigma2`` share one assembly around their parameter
blocks, and the empirical estimator walks both parts' person vectors in one
loop.  The builders keep their own guards: ``sigma1`` refuses a vanishing
``f pi0`` before dividing by it.

One function, :func:`_route`, turns any of the three matrices into a part's
scalar variance and link-parameter covariance ``C``.  The two fitting routes
differ only in ``C``: for a joint matrix it is the inverse of the parameter
block of the joint covariance, for ``psi1`` the inverse of ``psi1`` itself.
The size variance is then ``fac (pi0 + fac g0^T C g0)`` with
``fac = f / (1 - f pi0)`` for both routes and both parts.

Their parameter blocks are sums of ``grad grad^T / prob`` over a pattern
space, all taken by :func:`_information`.  For the homogeneous family that
sum is the closed form ``diag(p (1 - p))``, so any site count works; other
families enumerate the ``2**n`` patterns, which the enumeration guard limits
to ``n <= 20``.  The truncated information of ``psi1`` follows from the full
one, ``I - g0 g0^T / (pi0 (1 - pi0))``.

Scalar variances refer to the normalized errors ``(tau_hat - tau)/sqrt(tau)``;
the variance of the point estimate itself is ``tau_hat * sigma_sq``, which is
what the Wald intervals use.  The combined variance for the total is the
population-share-weighted mixture of the component variances.

:func:`attach_variance` makes one pass per estimate.  It builds the
method-matched covered-part matrix (``sigma1`` for ``umle``, ``psi1`` for
``cmle``) and ``sigma2`` once each, analytically or as empirical estimates,
and passes each through :func:`_route`, as the public scalar variances do.
It keeps the link-parameter covariances on the :class:`VarianceReport`: the
covered one from the route, the uncovered one as the parameter corner of the
inverse of ``sigma2``.
:func:`theta_covariances` only returns that stored pair, so it follows the
variance source and needs :func:`attach_variance` first.

Singular or ill-conditioned matrices are an error: the limit theory assumes
non-singularity, so a violation must surface rather than be pseudo-inverted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import expit, log_expit, ndtri

from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    DomainError,
    InsufficientData,
    NonFiniteLikelihood,
    SingularMatrix,
)
from .estimators import EstimateReport
from .link_model import HomogeneousLinkModel
from .patterns import SampleData, enumerate_patterns

CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class AsymptoticMatrices:
    """A precision matrix, its inverse (the asymptotic covariance), and the
    condition number of the precision form.

    ``covariance_form`` is ``None`` when the precision estimate is singular
    and the caller asked to keep it anyway (the sparse empirical estimator on
    degenerate data); using such a matrix where an inverse is required raises
    :class:`~snowlink.errors.SingularMatrix` at that point instead.
    """

    which: str
    inverse_form: np.ndarray
    covariance_form: np.ndarray | None
    condition_number: float


def _guarded_inverse(M: np.ndarray, label: str):
    M = 0.5 * (M + M.T)
    eigs = np.linalg.eigvalsh(M)
    if eigs[0] <= 0.0:
        raise SingularMatrix(f"{label} is not positive definite (min eig {eigs[0]:.3e})")
    cond = float(eigs[-1] / eigs[0])
    if cond > CONDITION_LIMIT:
        raise SingularMatrix(
            f"{label} condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; "
            "refusing to invert"
        )
    try:
        inv = cho_solve(cho_factor(M), np.eye(len(M)))
    except np.linalg.LinAlgError:  # pragma: no cover - eig check passed
        w, V = np.linalg.eigh(M)
        inv = (V / w) @ V.T
    return 0.5 * (inv + inv.T), cond


def _finish(which: str, M: np.ndarray, require_inverse: bool = True) -> AsymptoticMatrices:
    label = f"the {which} precision matrix"
    if require_inverse:
        cov, cond = _guarded_inverse(M, label)
    else:
        try:
            cov, cond = _guarded_inverse(M, label)
        except SingularMatrix:
            cov, cond = None, float("inf")
    return AsymptoticMatrices(which=which, inverse_form=0.5 * (M + M.T),
                              covariance_form=cov, condition_number=cond)


def _positive(probs, what):
    if np.any(probs <= 0.0) or np.any(~np.isfinite(probs)):
        raise NonFiniteLikelihood(f"{what} vanished")


def _check_design(model, n: int, N: int):
    if model.n != n:
        raise DimensionMismatch(f"model has {model.n} sites but the design says {n}")
    if not 1 <= n <= N:
        raise DomainError(f"need 1 <= n <= N, got n={n}, N={N}")


def _information(theta, model, within_site=None) -> np.ndarray:
    """The per-pattern information sum over a pattern space: over all ``2**n``
    between-site patterns, or over site ``within_site``'s within-site space.

    For the homogeneous family the patterns are ``n`` independent Bernoulli
    links, so the sum is ``diag(p (1 - p))`` with ``p = expit(theta)``, and
    entry ``within_site`` is zero because that site's factor is skipped.
    Every other family enumerates the space.  Either way a pattern whose
    probability underflows is an error.
    """
    if within_site is None:
        what = "a pattern probability"
    else:
        what = f"a within-site pattern probability (site {within_site})"
    if isinstance(model, HomogeneousLinkModel):
        theta = model.validate_theta(theta)
        active = np.ones(model.n, dtype=bool)
        if within_site is not None:
            active[within_site] = False
        # the least likely pattern takes the less likely outcome at every site
        least = np.exp(log_expit(-np.abs(theta[active])).sum())
        _positive(np.array([least]), what)
        p = expit(theta)
        return np.diag(np.where(active, p * (1.0 - p), 0.0))
    pats = enumerate_patterns(model.n, excluded_site=within_site)
    probs, grads = model.probs_and_grads(theta, pats, within_site=within_site)
    _positive(probs, what)
    return (grads.T / probs) @ grads


def _truncated(info: np.ndarray, pi0: float, g0: np.ndarray) -> np.ndarray:
    """The information of a zero-truncated pattern draw, from the information
    ``info`` of the full draw: ``info - g0 g0^T / (pi0 (1 - pi0))``."""
    return info - np.outer(g0, g0) / (pi0 * (1.0 - pi0))


def _within_information(theta, model, N: int) -> np.ndarray:
    """Sum over sites of the within-site information blocks, weighted 1/N."""
    blk = np.zeros((model.q, model.q))
    for l in range(model.n):
        blk += _information(theta, model, within_site=l) / N
    return blk


def _joint(f: float, pi0: float, g0: np.ndarray, block: np.ndarray) -> np.ndarray:
    """A joint (size, parameter) precision matrix of a part with escape
    factor ``f``, around its parameter block ``block``."""
    q = len(g0)
    M = np.empty((q + 1, q + 1))
    M[0, 0] = (1.0 - f * pi0) / (f * pi0)
    M[0, 1:] = M[1:, 0] = -g0 / pi0
    M[1:, 1:] = block
    return M


def _sigma1_precision(theta1, model1, n: int, N: int) -> np.ndarray:
    _check_design(model1, n, N)
    f = 1.0 - n / N
    pi0, g0 = model1.zero_prob_and_grad(theta1)
    if f * pi0 <= 1e-12:
        raise DegenerateDenominator(
            "the size-size entry divides by (1 - n/N) * pi0; it vanishes for a "
            f"full-frame design or a zero-mass empty pattern (got {f * pi0:.3e})"
        )
    block = f * _information(theta1, model1) + _within_information(theta1, model1, N)
    return _joint(f, pi0, g0, block)


def sigma1_inverse(theta1, model1, n: int, N: int) -> AsymptoticMatrices:
    """Joint (size, parameter) precision for the frame-covered part under
    unconditional fitting, from the between-site and within-site
    information."""
    return _finish("sigma1", _sigma1_precision(theta1, model1, n, N))


def _psi1_precision(theta1, model1, n: int, N: int) -> np.ndarray:
    _check_design(model1, n, N)
    f = 1.0 - n / N
    pi0, g0 = model1.zero_prob_and_grad(theta1)
    _positive(np.array([pi0, 1.0 - pi0]), "the zero-pattern or escape probability")
    M = f * _truncated(_information(theta1, model1), pi0, g0)
    M += _within_information(theta1, model1, N)
    return M


def psi1_inverse(theta1, model1, n: int, N: int) -> AsymptoticMatrices:
    """Parameter precision for the frame-covered part under conditional
    fitting: zero-truncated outside-pattern information plus within blocks."""
    return _finish("psi1", _psi1_precision(theta1, model1, n, N))


def _sigma2_precision(theta2, model2) -> np.ndarray:
    pi0, g0 = model2.zero_prob_and_grad(theta2)
    _positive(np.array([pi0, 1.0 - pi0]), "the zero-pattern or escape probability")
    return _joint(1.0, pi0, g0, _information(theta2, model2))


def sigma2_inverse(theta2, model2) -> AsymptoticMatrices:
    """Joint (size, parameter) precision for the frame-uncovered part.

    The matrix is singular by construction when the parameter count reaches
    the number of free observed cells (for instance the random-effect family
    with fewer than three sites), and the constructor then refuses to invert.
    """
    return _finish("sigma2", _sigma2_precision(theta2, model2))


# ---------------------------------------------------------------------------
# Scalar variances of the normalized size errors


def _route(theta, model, f: float, mats: AsymptoticMatrices):
    """Scalar variance and parameter covariance of a part with escape factor
    ``f``, from any of the three precision matrices (see the module
    docstring for the formulas)."""
    pi0, g0 = model.zero_prob_and_grad(theta)
    denom = 1.0 - f * pi0
    if mats.which == "psi1":
        cov = mats.covariance_form
        if cov is None:
            # an empirical estimate kept without an inverse: say why
            cov, _ = _guarded_inverse(mats.inverse_form, "the conditional parameter precision")
    else:
        sub = mats.inverse_form[1:, 1:] - (f / (pi0 * denom)) * np.outer(g0, g0)
        cov, _ = _guarded_inverse(sub, "the parameter block of the joint covariance")
    fac = f / denom
    return float(fac * (pi0 + fac * (g0 @ cov @ g0))), cov


def sigma1_sq_umle(theta1, model1, n: int, N: int) -> float:
    """Variance of the normalized size error under unconditional fitting."""
    return _route(theta1, model1, 1.0 - n / N, sigma1_inverse(theta1, model1, n, N))[0]


def sigma1_sq_cmle(theta1, model1, n: int, N: int) -> float:
    """Variance of the normalized size error under conditional fitting."""
    return _route(theta1, model1, 1.0 - n / N, psi1_inverse(theta1, model1, n, N))[0]


def sigma2_sq(theta2, model2) -> float:
    """Variance of the normalized size error for the frame-uncovered part
    (shared by both fitting routes)."""
    return _route(theta2, model2, 1.0, sigma2_inverse(theta2, model2))[0]


def theta_covariances(report: EstimateReport, data: SampleData, model1, model2):
    """Asymptotic covariance matrices of the link-parameter estimators,
    matched to the report's method (for the covered part) and shared for the
    uncovered part.  These are covariances of ``sqrt(tau) * error``.

    They come from the matrices :func:`attach_variance` built, so they
    follow its ``source``; ``data`` and the models are not used again.
    """
    v = report.variance
    if v is None:
        raise DomainError("the report carries no variance estimates yet")
    if v.theta2_cov is None:
        raise SingularMatrix(
            f"the {v.source} sigma2 matrix has no inverse, so the uncovered "
            "part has no parameter covariance"
        )
    return v.theta1_cov, v.theta2_cov


# ---------------------------------------------------------------------------
# Empirical per-person-vector covariance (sparse, pattern-weighted)


def empirical_v_covariance(data: SampleData, theta_hat, tau_hat: int, model,
                           which: str) -> AsymptoticMatrices:
    """Estimate a precision matrix as the sample covariance of per-person
    score-like vectors, evaluated at the fitted parameters.

    Observed people contribute the vector of their recorded pattern; the
    ``tau_hat - (observed)`` unobserved people all share the zero-pattern
    vector.  The computation weights each distinct pattern by its count, so
    no per-person arrays are materialized; the covariance divisor is
    ``tau_hat - 1``.
    """
    if which not in ("sigma1", "psi1", "sigma2"):
        raise DomainError(f"unknown matrix kind {which!r}")
    comp = data.uncovered if which == "sigma2" else data.covered
    joint = which != "psi1"
    tau_hat = int(tau_hat)
    q = model.q
    f = comp.f
    pi0, g0 = model.zero_prob_and_grad(theta_hat)
    _positive(np.array([pi0, 1.0 - pi0]), "the zero-pattern or escape probability")
    observed = comp.m_total + comp.r
    if tau_hat < observed:
        raise DomainError(f"tau_hat={tau_hat} below the observed count {observed}")
    if which == "sigma1" and f * pi0 <= 1e-12:
        raise DegenerateDenominator(
            "the zero-pattern vector divides by (1 - n/N) * pi0"
        )
    escape = 1.0 - pi0
    blocks, weights = [], []
    for site, pats, counts, people in comp.tables:
        if site is None:
            if not len(pats):
                continue
            what = "an observed pattern probability"
        else:
            # the site's unlinked people take the zero pattern
            pats = np.append(pats, 0)
            counts = np.append(counts, people - counts.sum())
            what = f"a within-site pattern probability (site {site})"
        probs, grads = model.probs_and_grads(theta_hat, pats, within_site=site)
        _positive(probs, what)
        if site is None and not joint:
            # scores of the zero-truncated pattern draw
            tg = grads / escape + probs[:, None] * g0 / escape**2
            vecs = tg / (probs / escape)[:, None]
        else:
            vecs = grads / probs[:, None]
        blocks.append(np.hstack([np.ones((len(vecs), 1)), vecs]) if joint else vecs)
        weights.append(counts)
    if joint:
        size_score = -(1.0 - f * pi0) / (f * pi0)
        blocks.append(np.concatenate([[size_score], g0 / pi0])[None, :])
    else:
        blocks.append(np.zeros((1, q)))
    weights.append([float(tau_hat - observed)])
    w = np.concatenate(weights)
    # a site with no unlinked people, or a part with no unobserved ones, adds no row
    keep = w > 0
    V, w = np.vstack(blocks)[keep], w[keep]
    dim = q + 1 if joint else q
    total = float(w.sum())
    if total != tau_hat:
        raise DomainError(
            f"person accounting failed: {total} weighted vectors for tau_hat={tau_hat}"
        )
    if total < q + 2:
        raise InsufficientData(
            f"{total} effective observations are too few for a {dim}-dimensional "
            "covariance"
        )
    mean = (w @ V) / total
    centered = V - mean
    M = (centered.T * w) @ centered / (total - 1.0)
    # degenerate data can make the sample covariance singular (for instance
    # when everyone is observed the size coordinate is constant); keep the
    # matrix and let any downstream inversion raise instead
    return _finish(which, M, require_inverse=False)


# ---------------------------------------------------------------------------
# Variance report and Wald intervals


@dataclass
class VarianceReport:
    """Scalar variances, point-estimate variances, Wald intervals, and the
    link-parameter covariances (``q x q``, of ``sqrt(tau) * error``; kept out
    of :meth:`to_dict`).  ``theta2_cov`` is ``None`` when an empirical
    ``sigma2`` estimate has no inverse."""

    method: str
    source: str
    sigma1_sq: float
    sigma2_sq: float
    sigma_sq: float
    var_tau1: float
    var_tau2: float
    var_tau: float
    level: float
    intervals: dict
    theta1_cov: np.ndarray = field(repr=False, compare=False)
    theta2_cov: np.ndarray | None = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "source": self.source,
            "sigma1_sq": self.sigma1_sq,
            "sigma2_sq": self.sigma2_sq,
            "sigma_sq": self.sigma_sq,
            "var_tau1": self.var_tau1,
            "var_tau2": self.var_tau2,
            "var_tau": self.var_tau,
            "level": self.level,
            "intervals": {k: list(v) for k, v in self.intervals.items()},
        }


def _interval(center: float, variance: float, level: float):
    if variance < 0:
        raise DomainError(f"negative variance {variance}")
    half = ndtri(0.5 * (1.0 + level)) * float(np.sqrt(variance))
    return (float(center - half), float(center + half))


def _interval_set(tau1: int, tau2: int, s1: float, s2: float, level: float):
    tau = tau1 + tau2
    if tau > 0:
        a1, a2 = tau1 / tau, tau2 / tau
        combined = a1 * s1 + a2 * s2
    else:
        combined = 0.0
    intervals = {
        "tau1": _interval(tau1, tau1 * s1, level),
        "tau2": _interval(tau2, tau2 * s2, level),
        "tau": _interval(tau, tau * combined, level),
    }
    return combined, intervals


def attach_variance(report: EstimateReport, data: SampleData, model1, model2,
                    level: float = 0.95, source: str = "analytic") -> EstimateReport:
    """Compute method-matched variances, intervals and link-parameter
    covariances and attach them to the report.  ``source`` picks the analytic
    matrices or the empirical per-person-vector estimate of the same
    matrices; each of the two matrices is built once."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must be in (0, 1), got {level}")
    if source not in ("analytic", "empirical_v"):
        raise DomainError(f"unknown variance source {source!r}")
    n, N = data.n, data.N
    theta1, theta2 = report.theta1, report.theta2
    analytic = source == "analytic"
    if report.method == "umle":
        m1 = (sigma1_inverse(theta1, model1, n, N) if analytic else
              empirical_v_covariance(data, theta1, report.tau1, model1, "sigma1"))
    elif report.method == "cmle":
        m1 = (psi1_inverse(theta1, model1, n, N) if analytic else
              empirical_v_covariance(data, theta1, report.tau1, model1, "psi1"))
    else:
        raise DomainError(f"unknown method {report.method!r}")
    s1, cov1 = _route(theta1, model1, 1.0 - n / N, m1)
    m2 = (sigma2_inverse(theta2, model2) if analytic else
          empirical_v_covariance(data, theta2, report.tau2, model2, "sigma2"))
    s2, _ = _route(theta2, model2, 1.0, m2)
    cov2 = None if m2.covariance_form is None else m2.covariance_form[1:, 1:]
    combined, intervals = _interval_set(report.tau1, report.tau2, s1, s2, level)
    report.variance = VarianceReport(
        method=report.method, source=source,
        sigma1_sq=float(s1), sigma2_sq=float(s2), sigma_sq=float(combined),
        var_tau1=float(report.tau1 * s1), var_tau2=float(report.tau2 * s2),
        var_tau=float(report.tau1 * s1 + report.tau2 * s2),
        level=level, intervals=intervals, theta1_cov=cov1, theta2_cov=cov2,
    )
    return report
