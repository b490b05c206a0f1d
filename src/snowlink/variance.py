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

``sigma1`` and ``psi1`` come from one covered-part assembly,
:func:`_covered_precision`: the outside-pattern information enters whole for
``sigma1`` and zero-truncated for ``psi1``, and both add the same within-site
blocks.  The uncovered part is the covered part with escape factor ``f = 1``
and no sites, so ``sigma1`` and ``sigma2`` share the joint form around their
parameter blocks, and the empirical estimator walks both parts' person
vectors in one loop.  Each route keeps its own guard: ``sigma1`` refuses a
vanishing ``f pi0`` before dividing by it, ``psi1`` and ``sigma2`` a
vanishing ``pi0`` or ``1 - pi0``.

The empirical estimator is numpy's frequency-weighted sample covariance of
one vector per person.  For ``psi1`` an outside-linked person's vector is the
score of the zero-truncated pattern draw, the full score plus a constant:
``grad / prob + g0 / (1 - pi0)``.

One function, :func:`_route`, turns any of the three matrices into a part's
scalar variance and link-parameter covariance ``C``.  The two fitting routes
differ only in ``C``: for a joint matrix it is the inverse of the parameter
block of the joint covariance, for ``psi1`` the inverse of ``psi1`` itself.
The size variance is then ``fac (pi0 + fac g0^T C g0)`` with
``fac = f / (1 - f pi0)`` for both routes and both parts.

Their parameter blocks are sums of ``grad grad^T / prob`` over a pattern
space, each one scope's :meth:`~snowlink.link_model.MixtureLinkModel.information`,
which the model computes from the laws of the link total without
enumerating a pattern.  So this module names no family, and every family's
analytic variances work at any site count.  The truncated information of
``psi1`` follows from the full one, ``I - g0 g0^T / (pi0 (1 - pi0))``.

Scalar variances refer to the normalized errors ``(tau_hat - tau)/sqrt(tau)``;
the variance of the point estimate itself is ``tau_hat * sigma_sq``, which is
what the Wald intervals use.  The combined variance for the total is the
population-share-weighted mixture of the component variances.

:func:`attach_variance` makes one pass per estimate.  It builds the
method-matched covered-part matrix (``sigma1`` for ``umle``, ``psi1`` for
``cmle``) and ``sigma2`` once each, analytically or as empirical estimates,
and passes each through :func:`_route` with the part's escape factor
``Component.f``, as the public scalar variances do.
It keeps both parts' link-parameter covariances from the route on the
:class:`VarianceReport`.  :func:`theta_covariances` only returns that stored
pair, so it follows the variance source and needs :func:`attach_variance`
first.

Singular, ill-conditioned or non-finite matrices are an error: the limit
theory assumes non-singularity, so a violation must surface rather than be
pseudo-inverted or turned into NaNs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from statistics import NormalDist

import numpy as np

from .errors import (
    DegenerateDenominator,
    DomainError,
    InsufficientData,
    NonFiniteLikelihood,
    SingularMatrix,
)
from .estimators import EstimateReport
# enumerate_patterns is never called here: mcbench/tracing.py rebinds the name
# on this module when it installs.  ROADMAP item 1's tracer repair drops it.
from .patterns import SampleData, check_design, enumerate_patterns  # noqa: F401

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
    """The inverse of the symmetric part of ``M`` and its condition number,
    both from one eigendecomposition ``V diag(w) V^T``: the inverse is
    ``V diag(1/w) V^T``.  A non-finite entry is refused before ``eigh``, and
    both checks are written so that a NaN fails them."""
    if not np.isfinite(M).all():
        raise SingularMatrix(f"{label} has a non-finite entry")
    M = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(M)
    if not w[0] > 0.0:
        raise SingularMatrix(f"{label} is not positive definite (min eig {w[0]:.3e})")
    cond = float(w[-1] / w[0])
    if not cond <= CONDITION_LIMIT:
        raise SingularMatrix(
            f"{label} condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; "
            "refusing to invert"
        )
    inv = (V / w) @ V.T
    return 0.5 * (inv + inv.T), cond


def _finish(which: str, M: np.ndarray, require_inverse: bool = True) -> AsymptoticMatrices:
    try:
        cov, cond = _guarded_inverse(M, f"the {which} precision matrix")
    except SingularMatrix:
        if require_inverse:
            raise
        cov, cond = None, float("inf")
    return AsymptoticMatrices(which=which, inverse_form=0.5 * (M + M.T),
                              covariance_form=cov, condition_number=cond)


def _positive(probs, what):
    """Refuse a value at or below zero, a NaN or an infinity (the comparisons
    are false for NaN)."""
    probs = np.asarray(probs)
    if not (probs.min(initial=np.inf) > 0.0 and probs.max(initial=0.0) < np.inf):
        raise NonFiniteLikelihood(f"{what} vanished")


def _truncated(info: np.ndarray, pi0: float, g0: np.ndarray) -> np.ndarray:
    """The information of a zero-truncated pattern draw, from the information
    ``info`` of the full draw: ``info - g0 g0^T / (pi0 (1 - pi0))``."""
    return info - np.outer(g0, g0) / (pi0 * (1.0 - pi0))


def _joint(f: float, pi0: float, g0: np.ndarray, block: np.ndarray) -> np.ndarray:
    """A joint (size, parameter) precision matrix of a part with escape
    factor ``f``, around its parameter block ``block``."""
    q = len(g0)
    M = np.empty((q + 1, q + 1))
    M[0, 0] = (1.0 - f * pi0) / (f * pi0)
    M[0, 1:] = M[1:, 0] = -g0 / pi0
    M[1:, 1:] = block
    return M


def _covered_precision(theta1, model1, n: int, N: int, joint: bool) -> np.ndarray:
    """The frame-covered part's precision: ``sigma1`` around the full
    outside-pattern information when ``joint``, else ``psi1`` from its
    zero-truncated form; both add the within-site blocks, weighted 1/N."""
    check_design(model1, n, N)
    f = 1.0 - n / N
    pi0, g0 = model1.zero_prob_and_grad(theta1)
    if joint and f * pi0 <= 1e-12:
        raise DegenerateDenominator(
            "the size-size entry divides by (1 - n/N) * pi0; it vanishes for a "
            f"full-frame design or a zero-mass empty pattern (got {f * pi0:.3e})"
        )
    if not joint:
        _positive(np.array([pi0, 1.0 - pi0]), "the zero-pattern or escape probability")
    info = model1.information(theta1)
    # summed site by site in order, which keeps the outputs' bits
    within = sum(model1.information(theta1, within_site=l) / N for l in range(model1.n))
    if joint:
        return _joint(f, pi0, g0, f * info + within)
    return f * _truncated(info, pi0, g0) + within


def sigma1_inverse(theta1, model1, n: int, N: int) -> AsymptoticMatrices:
    """Joint (size, parameter) precision for the frame-covered part under
    unconditional fitting, from the between-site and within-site
    information."""
    return _finish("sigma1", _covered_precision(theta1, model1, n, N, joint=True))


def psi1_inverse(theta1, model1, n: int, N: int) -> AsymptoticMatrices:
    """Parameter precision for the frame-covered part under conditional
    fitting: zero-truncated outside-pattern information plus within blocks."""
    return _finish("psi1", _covered_precision(theta1, model1, n, N, joint=False))


def _sigma2_precision(theta2, model2) -> np.ndarray:
    pi0, g0 = model2.zero_prob_and_grad(theta2)
    _positive(np.array([pi0, 1.0 - pi0]), "the zero-pattern or escape probability")
    return _joint(1.0, pi0, g0, model2.information(theta2))


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


def theta_covariances(report: EstimateReport):
    """Asymptotic covariance matrices of the link-parameter estimators,
    matched to the report's method (for the covered part) and shared for the
    uncovered part.  These are covariances of ``sqrt(tau) * error``.

    They come from the matrices :func:`attach_variance` built, so they
    follow its ``source``.
    """
    v = report.variance
    if v is None:
        raise DomainError("the report carries no variance estimates yet")
    return v.theta1_cov, v.theta2_cov


# ---------------------------------------------------------------------------
# Empirical per-person-vector covariance (sparse, pattern-weighted)


def empirical_v_covariance(data: SampleData, theta_hat, tau_hat: int, model,
                           which: str) -> AsymptoticMatrices:
    """Estimate a precision matrix as the sample covariance of per-person
    score-like vectors, evaluated at the fitted parameters.

    Observed people contribute the vector of their recorded pattern; the
    ``tau_hat - (observed)`` unobserved people all share the zero-pattern
    vector.  For ``psi1`` an outside-linked person's vector is the score of
    the zero-truncated pattern draw, ``grad / prob + g0 / (1 - pi0)``, and an
    unobserved person's is zero.  The covariance is numpy's, weighted by each
    distinct pattern's count, so no per-person arrays are materialized; its
    divisor is ``tau_hat - 1``.
    """
    if which not in ("sigma1", "psi1", "sigma2"):
        raise DomainError(f"unknown matrix kind {which!r}")
    check_design(model, data.n, data.N)
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
    blocks, weights = [], []
    for site, pats, counts in comp.tables:
        if not len(pats):
            continue
        probs, grads = model.probs_and_grads(theta_hat, pats, within_site=site)
        _positive(probs, "an observed pattern probability" if site is None else
                  f"a within-site pattern probability (site {site})")
        vecs = grads / probs[:, None]
        if site is None and not joint:
            # scores of the zero-truncated pattern draw
            vecs += g0 / (1.0 - pi0)
        blocks.append(np.hstack([np.ones((len(vecs), 1)), vecs]) if joint else vecs)
        weights.append(counts)
    if joint:
        size_score = -(1.0 - f * pi0) / (f * pi0)
        blocks.append(np.concatenate([[size_score], g0 / pi0])[None, :])
    else:
        blocks.append(np.zeros((1, q)))
    weights.append([float(tau_hat - observed)])
    w = np.concatenate(weights)
    # a part with no unobserved people adds no row
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
    M = np.atleast_2d(np.cov(V, rowvar=False, fweights=w.astype(np.int64)))
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
    of :meth:`to_dict`)."""

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
    theta2_cov: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        out = {fld.name: getattr(self, fld.name) for fld in fields(self) if fld.repr}
        out["intervals"] = {k: list(v) for k, v in self.intervals.items()}
        return out


def z_critical(level: float) -> float:
    """The two-sided standard-normal critical value of a ``level`` interval."""
    return NormalDist().inv_cdf(0.5 * (1.0 + level))


def _interval(center: float, variance: float, level: float):
    if variance < 0:
        raise DomainError(f"negative variance {variance}")
    half = z_critical(level) * float(np.sqrt(variance))
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
    which = {"umle": "sigma1", "cmle": "psi1"}.get(report.method)
    if which is None:
        raise DomainError(f"unknown method {report.method!r}")
    m1 = ((sigma1_inverse if which == "sigma1" else psi1_inverse)(theta1, model1, n, N)
          if analytic else empirical_v_covariance(data, theta1, report.tau1, model1, which))
    s1, cov1 = _route(theta1, model1, data.covered.f, m1)
    m2 = (sigma2_inverse(theta2, model2) if analytic else
          empirical_v_covariance(data, theta2, report.tau2, model2, "sigma2"))
    s2, cov2 = _route(theta2, model2, data.uncovered.f, m2)
    combined, intervals = _interval_set(report.tau1, report.tau2, s1, s2, level)
    report.variance = VarianceReport(
        method=report.method, source=source,
        sigma1_sq=float(s1), sigma2_sq=float(s2), sigma_sq=float(combined),
        var_tau1=float(report.tau1 * s1), var_tau2=float(report.tau2 * s2),
        var_tau=float(report.tau1 * s1 + report.tau2 * s2),
        level=level, intervals=intervals, theta1_cov=cov1, theta2_cov=cov2,
    )
    return report
