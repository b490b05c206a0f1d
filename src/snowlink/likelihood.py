"""Log-likelihood of one population part and its parameter gradient.

Both parts are read through :class:`~snowlink.patterns.Component`.  The
frame-uncovered part is the frame-covered one with no sites and escape factor
``f = 1``, so each likelihood is written once: :func:`loglik_full` in the size
and the parameters, and :func:`loglik_cond`, the size-free zero-truncated
multinomial over the outside-linked people times the within-site tables.
``loglik_full_1``, ``loglik_cond_1`` and ``loglik_2`` apply them to one part
of a :class:`~snowlink.patterns.SampleData`.

All values are on the log scale with additive data-only constants dropped
(factorials of observed counts, and the ``m * log f`` piece of the
cluster-sampling factor, so the boundary design ``n == N`` stays finite).
The dropped constants are fixed so that the exact factorization

    full = cluster + conditional + binomial-escape

holds identically for the frame-covered part; the tests check it against
reference cluster and binomial-escape factors, asserting differences only,
never absolute levels.  Sizes are treated as continuous through log-gamma;
callers floor them at reporting time.

Zero observed counts contribute nothing (``0 * log pi == 0``); a probability
that is actually needed but underflows to zero raises
:class:`~snowlink.errors.NonFiniteLikelihood` instead of being clamped,
because a vanishing pattern probability signals a model/data mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import DomainError, NonFiniteLikelihood, Unidentifiable
from .patterns import Component, SampleData

#: Probabilities below this are treated as an underflow, not a valid value.
PI_FLOOR = 1e-300


@dataclass(frozen=True)
class LogLikTerms:
    """A log-likelihood value and its gradient in the link parameters."""

    value: float
    grad_theta: np.ndarray


def _require_positive(probs, what: str):
    probs = np.atleast_1d(probs)
    if np.any(~np.isfinite(probs)) or np.any(probs < PI_FLOOR):
        raise NonFiniteLikelihood(f"{what} underflowed to zero")


def _counted_terms(model, theta, table):
    """Sum of count * log(prob) and its gradient over one of
    :attr:`~snowlink.patterns.Component.tables`."""
    site, pats, counts, _ = table
    if not len(pats):
        return 0.0, np.zeros(model.q)
    probs, grads = model.probs_and_grads(theta, pats, site)
    _require_positive(probs, "an observed pattern probability")
    value = float(counts @ np.log(probs))
    grad = (counts / probs) @ grads
    return value, grad


def _within_terms(comp: Component, theta, model):
    """Within-site contributions, including each site's derived zero-pattern count."""
    value = 0.0
    grad = np.zeros(model.q)
    for table in comp.tables[1:]:
        l, _, counts, people = table
        v, g = _counted_terms(model, theta, table)
        value += v
        grad += g
        unlinked = people - counts.sum()
        if unlinked > 0:
            probs, grads = model.probs_and_grads(theta, [0], within_site=l)
            _require_positive(probs, f"the zero-pattern probability within site {l}")
            value += unlinked * float(np.log(probs[0]))
            grad += (unlinked / probs[0]) * grads[0]
    return value, grad


def loglik_full(comp: Component, tau: float, theta, model) -> LogLikTerms:
    """Joint log-likelihood of (size, parameters) for one part.

    ``tau`` may be non-integer; it must be at least ``m + r`` so that the
    derived count of unobserved people is nonnegative.
    """
    m, r = comp.m_total, comp.r
    if tau < m + r:
        raise DomainError(f"size {tau} is below m + r = {m + r}")
    unobserved = tau - m - r
    value = float(gammaln(tau + 1.0) - gammaln(unobserved + 1.0)
                  + xlogy(tau - m, comp.f))
    v, grad = _counted_terms(model, theta, comp.tables[0])
    value += v
    p0, g0 = model.zero_prob_and_grad(theta)
    if unobserved > 0:
        _require_positive(p0, "the zero-pattern probability")
        value += unobserved * np.log(p0)
        grad = grad + (unobserved / p0) * g0
    vw, gw = _within_terms(comp, theta, model)
    return LogLikTerms(value=value + vw, grad_theta=grad + gw)


def loglik_cond(comp: Component, theta, model) -> LogLikTerms:
    """Size-free log-likelihood for one part: the zero-truncated multinomial
    over the outside-linked people times the within-site tables."""
    if comp.r == 0 and not any(comp.within):
        raise Unidentifiable(
            "no outside-linked people and no within-site links: the conditional "
            "likelihood carries no information"
        )
    p0, g0 = model.zero_prob_and_grad(theta)
    _require_positive(1.0 - p0, "the escape probability (1 - zero-pattern mass)")
    v, grad = _counted_terms(model, theta, comp.tables[0])
    r = comp.r
    value = v - r * np.log1p(-p0)
    grad = grad + (r / (1.0 - p0)) * g0
    vw, gw = _within_terms(comp, theta, model)
    return LogLikTerms(value=value + vw, grad_theta=grad + gw)


def loglik_full_1(data: SampleData, tau1: float, theta1, model1) -> LogLikTerms:
    """:func:`loglik_full` for the frame-covered part."""
    return loglik_full(data.covered, tau1, theta1, model1)


def loglik_cond_1(data: SampleData, theta1, model1) -> LogLikTerms:
    """:func:`loglik_cond` for the frame-covered part."""
    return loglik_cond(data.covered, theta1, model1)


def loglik_2(data: SampleData, tau2: float, theta2, model2,
             conditional: bool = False) -> LogLikTerms:
    """:func:`loglik_cond` (``conditional=True``, ``tau2`` unused) or
    :func:`loglik_full` for the frame-uncovered part."""
    if conditional:
        return loglik_cond(data.uncovered, theta2, model2)
    return loglik_full(data.uncovered, tau2, theta2, model2)
