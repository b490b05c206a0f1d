"""Log-likelihood of one population part and its parameter gradient.

Both parts are read through :class:`~snowlink.patterns.Component`.  The
frame-uncovered part is the frame-covered one with no sites and escape factor
``f = 1``, so each likelihood is written once: :func:`loglik_full` in the size
and the parameters, and :func:`loglik_cond`, the size-free zero-truncated
multinomial over the outside-linked people times the within-site tables.
A caller passes the part it means, ``data.covered`` or ``data.uncovered`` of a
:class:`~snowlink.patterns.SampleData`.

Every counted person, outside-linked or in a sampled site (a site's unlinked
people are the pattern-0 row of its table), enters both likelihoods through
one count-times-log-probability sum over the part's
:attr:`~snowlink.patterns.Component.tables`.  The two differ only in the
term they add to it: the unobserved people's zero-pattern term of
:func:`loglik_full`, whose count depends on the size, or the truncation of
the outside-linked draw in :func:`loglik_cond`.

All values are on the log scale with additive data-only constants dropped
(factorials of observed counts, and the ``m * log f`` piece of the
cluster-sampling factor, so the boundary design ``n == N`` stays finite).
The dropped constants are fixed so that the exact factorization

    full = cluster + conditional + binomial-escape

holds identically for the frame-covered part; the tests check it against
reference cluster and binomial-escape factors, asserting differences only,
never absolute levels.  Sizes are treated as continuous through log-gamma;
callers floor them at reporting time.  The size-dependent constant is
:func:`_size_term`, from :func:`math.lgamma`.

Zero observed counts contribute nothing (``0 * log pi == 0``); a probability
that is actually needed but underflows to zero raises
:class:`~snowlink.errors.NonFiniteLikelihood` instead of being clamped,
because a vanishing pattern probability signals a model/data mismatch.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonFiniteLikelihood, Unidentifiable
from .patterns import Component

#: Probabilities below this are treated as an underflow, not a valid value.
PI_FLOOR = 1e-300


class LogLikTerms(NamedTuple):
    """A log-likelihood value and its gradient in the link parameters."""

    value: float
    grad_theta: np.ndarray


def _require_positive(probs, what: str):
    """Refuse a NaN, an infinity or a value below :data:`PI_FLOOR`; the
    comparisons are false for NaN, so one min and one max catch all three."""
    probs = np.asarray(probs)
    if not (probs.min(initial=np.inf) >= PI_FLOOR and probs.max(initial=0.0) < np.inf):
        raise NonFiniteLikelihood(f"{what} underflowed to zero")


def _size_term(comp: Component, tau: float) -> float:
    """``log tau! - log (tau - m - r)! + (tau - m) log f``, the size-dependent
    part of :func:`loglik_full`, with ``0 log 0 = 0`` and ``x log 0 = -inf``:
    at ``n == N`` (``f = 0``) every size above the ``m`` people in the sampled
    sites is impossible."""
    escaped = tau - comp.m_total
    if comp.f > 0.0:
        escape = escaped * math.log(comp.f)
    else:
        escape = -math.inf if escaped else 0.0
    return math.lgamma(tau + 1.0) - math.lgamma(escaped - comp.r + 1.0) + escape


def _counted_terms(comp: Component, theta, model):
    """Sum of count * log(prob), and its gradient, over every one of
    :attr:`~snowlink.patterns.Component.tables`: one kernel call per
    non-empty table."""
    value = 0.0
    grad = np.zeros(model.q)
    for site, pats, counts in comp.tables:
        if not len(pats):
            continue
        probs, grads = model.probs_and_grads(theta, pats, site)
        _require_positive(probs, "an observed pattern probability")
        value += float(counts @ np.log(probs))
        grad += (counts / probs) @ grads
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
    value, grad = _counted_terms(comp, theta, model)
    value += _size_term(comp, tau)
    p0, g0 = model.zero_prob_and_grad(theta)
    if unobserved > 0:
        _require_positive(p0, "the zero-pattern probability")
        value += unobserved * np.log(p0)
        grad += (unobserved / p0) * g0
    return LogLikTerms(value=value, grad_theta=grad)


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
    value, grad = _counted_terms(comp, theta, model)
    value -= comp.r * np.log1p(-p0)
    grad += (comp.r / (1.0 - p0)) * g0
    return LogLikTerms(value=value, grad_theta=grad)

