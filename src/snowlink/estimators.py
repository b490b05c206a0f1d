"""Unconditional and conditional maximum-likelihood estimators.

Both parts of the population are fitted by one function,
:func:`fit_component`, on a :class:`~snowlink.patterns.Component` view: the
frame-uncovered part is the frame-covered one with no sites and escape
factor ``f = 1``.  :func:`fit_total` fits the two parts of a sample with one
method.  The only fit setting is the start: ``theta0`` for one part, or a
``(theta1, theta2)`` pair for :func:`fit_total`.

The conditional route maximizes the size-free likelihood in the link
parameters first and then recovers the size estimate from the closed-form
ratio ``(m + r) / (1 - f pi0)``.  The unconditional route alternates the
floored ratio threshold (a size step, exact along the size direction) with a
parameter ascent on the joint likelihood at that size, stopping at the
simultaneous fixed point; the pair is never maximized jointly in one solve.
Without a given start it begins at the conditional fit, and its iteration
count includes that fit's iterations.

Likelihood evaluations treat the size as continuous through log-gamma, and
the reported estimate keeps both the continuous ratio value and its floor.
The inner ascent is a damped Newton method on the analytic gradient with a
finite-difference Hessian, backtracking line search, and Levenberg-style
damping that degrades gracefully to (scaled) gradient ascent when the
Hessian is not usable; parameter lower bounds (the person-effect spread) are
handled by projection.  Its tolerances are the module constants
:data:`SCORE_TOL`, :data:`MAX_ITER` and :data:`MAX_SWEEPS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import logit

from .errors import (
    DegenerateDenominator,
    DomainError,
    NoConvergence,
    OscillationDetected,
    SnowlinkError,
    Unidentifiable,
)
from .likelihood import loglik_cond, loglik_full
# not called here: mcbench/tracing.py rebinds these per-part names on this module
from .likelihood import loglik_2, loglik_cond_1, loglik_full_1  # noqa: F401
from .patterns import Component, SampleData


#: Convergence: the projected score's infinity norm at most this.
SCORE_TOL = 1e-8
#: Newton iterations per parameter solve.
MAX_ITER = 200
#: Size/parameter sweeps of the unconditional block ascent.
MAX_SWEEPS = 500


@dataclass
class ComponentFit:
    """Result of fitting one subpopulation: parameters, size, diagnostics."""

    theta: np.ndarray
    tau_real: float
    tau: int
    iterations: int
    sweeps: int
    grad_norm: float
    converged: bool


@dataclass
class EstimateReport:
    """Point estimates for both subpopulations and their total.

    ``tau1``/``tau2``/``tau`` are the floored (integer) estimates; the
    un-floored values are kept alongside.  ``variance`` is filled in by the
    variance module when requested.
    """

    method: str
    tau1_real: float
    tau1: int
    tau2_real: float
    tau2: int
    theta1: np.ndarray
    theta2: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    variance: Optional[object] = None

    @property
    def tau(self) -> int:
        return self.tau1 + self.tau2

    @property
    def tau_real(self) -> float:
        return self.tau1_real + self.tau2_real

    def to_dict(self) -> dict:
        out = {
            "schema_version": 1,
            "method": self.method,
            "tau1": {"real": self.tau1_real, "floor": self.tau1},
            "tau2": {"real": self.tau2_real, "floor": self.tau2},
            "tau": self.tau,
            "theta1": [float(v) for v in self.theta1],
            "theta2": [float(v) for v in self.theta2],
            "diagnostics": self.diagnostics,
        }
        if self.variance is not None:
            out["variance"] = self.variance.to_dict()
        return out


def _floor_guarded(x: float) -> int:
    """Floor with a one-ulp-scale guard: the ratio threshold is a ratio of
    small integers, so exactly-integer values are common with small counts
    and must floor to themselves (the likelihood ties there and the floor
    convention picks the upper size) rather than ride on rounding luck."""
    return math.floor(x * (1.0 + 4.0 * np.finfo(float).eps))


def _closed_form(m: int, r: int, f: float, pi0: float):
    """Ratio-method size estimate of one part.

    Returns the continuous value ``(m + r) / (1 - f pi0)`` and its floor.
    The floor never falls below ``m + r`` because the denominator lies in
    (0, 1].
    """
    if not 0.0 <= pi0 <= 1.0:
        raise DomainError(f"zero-pattern probability {pi0} outside [0, 1]")
    denom = 1.0 - f * pi0
    if denom <= 1e-12:
        raise DegenerateDenominator(
            f"1 - f * pi0 = {denom:.3e} with f = {f}: size estimate unbounded"
        )
    real = (m + r) / denom
    floor = _floor_guarded(real)
    assert floor >= m + r
    return real, floor


# ---------------------------------------------------------------------------
# Inner solver


def _projected(theta, lower):
    return theta if lower is None else np.maximum(theta, lower)


def _projected_grad(grad, theta, lower):
    if lower is None:
        return grad
    pg = grad.copy()
    at_bound = theta <= lower
    pg[at_bound] = np.maximum(pg[at_bound], 0.0)
    return pg


def _fd_hessian(fg, theta, grad0, lower):
    """Central-difference Jacobian of the gradient, symmetrized; falls back to
    a forward difference for coordinates pinned near a lower bound."""
    q = len(theta)
    H = np.empty((q, q))
    for i in range(q):
        h = 1e-6 * max(1.0, abs(theta[i]))
        lo = theta[i] - h
        if lower is not None and lo < lower[i]:
            up = theta.copy()
            up[i] += h
            H[:, i] = (fg(up)[1] - grad0) / h
        else:
            up = theta.copy()
            dn = theta.copy()
            up[i] += h
            dn[i] -= h
            H[:, i] = (fg(up)[1] - fg(dn)[1]) / (2.0 * h)
    return 0.5 * (H + H.T)


@dataclass
class _OptResult:
    theta: np.ndarray
    value: float
    grad: np.ndarray
    iterations: int
    converged: bool


def _maximize(fg, theta0, lower=None) -> _OptResult:
    """Damped Newton ascent with backtracking; convergence is a projected
    gradient infinity-norm at most :data:`SCORE_TOL` within
    :data:`MAX_ITER` iterations."""
    theta = _projected(np.asarray(theta0, dtype=float).copy(), lower)
    value, grad = fg(theta)
    it = 0
    for it in range(1, MAX_ITER + 1):
        pg = _projected_grad(grad, theta, lower)
        if np.max(np.abs(pg)) <= SCORE_TOL:
            return _OptResult(theta, value, grad, it - 1, True)
        H = _fd_hessian(fg, theta, grad, lower)
        A = -H
        scale = max(1.0, float(np.trace(A)) / len(theta))
        mu = 0.0
        moved = False
        while mu < 1e12 * scale:
            try:
                direction = np.linalg.solve(
                    A + mu * np.eye(len(theta)), grad
                )
                if not np.all(np.isfinite(direction)) or direction @ grad <= 0:
                    raise np.linalg.LinAlgError
            except np.linalg.LinAlgError:
                mu = max(mu * 10.0, 1e-6 * scale)
                continue
            step = 1.0
            slope = float(direction @ grad)
            # below this expected gain the objective cannot resolve an
            # improvement in floating point; fall back to score decrease
            value_noise = 1e-12 * (1.0 + abs(value))
            while step > 1e-14:
                cand = _projected(theta + step * direction, lower)
                try:
                    v_new, g_new = fg(cand)
                except SnowlinkError:
                    step *= 0.5
                    continue
                sufficient = v_new >= value + 1e-4 * step * slope
                tail = (step * slope <= value_noise
                        and v_new >= value - value_noise
                        and np.max(np.abs(g_new)) < np.max(np.abs(grad)))
                if np.isfinite(v_new) and (sufficient or tail):
                    theta, value, grad = cand, v_new, g_new
                    moved = True
                    break
                step *= 0.5
            if moved:
                break
            mu = max(mu * 10.0, 1e-6 * scale)
        if not moved:
            break
    pg = _projected_grad(grad, theta, lower)
    return _OptResult(theta, value, grad, it, bool(np.max(np.abs(pg)) <= SCORE_TOL))


# ---------------------------------------------------------------------------
# Initialization


def _safe_logit(p):
    return logit(np.clip(p, 1e-4, 1.0 - 1e-4))


def empirical_initial_theta(comp: Component, model) -> np.ndarray:
    """Per-site empirical link logits (observed links over observed people at
    risk), followed by the family's starting values of its other parameters.

    A site's own table adds neither links nor people at risk to that site;
    a site with nobody at risk starts at probability 0.5."""
    n = model.n
    links = np.zeros(n)
    at_risk = np.zeros(n)
    for site, pats, counts, people in comp.tables:
        table_links = counts @ ((pats[:, None] >> np.arange(n)) & 1)
        table_risk = np.full(n, float(people))
        if site is not None:
            table_links[site] = table_risk[site] = 0.0
        links += table_links
        at_risk += table_risk
    fractions = np.divide(links, at_risk, out=np.full(n, 0.5), where=at_risk > 0)
    return np.concatenate([_safe_logit(fractions), model.extra_start])


# ---------------------------------------------------------------------------
# Fits


def _integer_size_ascent(comp: Component, model, theta0):
    """Block ascent on (integer size, parameters).

    The floored ratio value is the exact integer maximizer of the joint
    likelihood in the size direction, so alternating it with a parameter
    ascent on the joint likelihood at that size increases the likelihood
    monotonically.  At a fixed point the two adjacent sizes are probed as
    well: a coordinatewise optimum need not be the joint one, and a strictly
    better neighbour restarts the ascent.  Returns (theta, size, continuous
    size, iterations, sweeps, score norm).
    """
    lower = model.lower_bounds
    size_min = comp.m_total + comp.r

    def fg_at(tau_int):
        def fg(th):
            terms = loglik_full(comp, float(tau_int), th, model)
            return terms.value, terms.grad_theta
        return fg

    def closed_real(th):
        pi0, _ = model.zero_prob_and_grad(th)
        return _closed_form(comp.m_total, comp.r, comp.f, pi0)[0]

    theta = np.asarray(theta0, dtype=float)
    tau_int = max(_floor_guarded(closed_real(theta)), size_min)
    total_iter = 0
    best = -np.inf
    for sweep in range(1, MAX_SWEEPS + 1):
        res = _maximize(fg_at(tau_int), theta, lower)
        total_iter += res.iterations
        if not res.converged:
            raise NoConvergence(
                f"size/parameter alternation: parameter step stalled in sweep {sweep}")
        if res.value < best - 1e-9:
            raise OscillationDetected(
                "size/parameter alternation stopped increasing the joint "
                f"likelihood in sweep {sweep}"
            )
        theta, best = res.theta, res.value
        tau_real = closed_real(theta)
        tau_next = max(_floor_guarded(tau_real), size_min)
        if tau_next != tau_int:
            tau_int = tau_next
            continue
        moved = False
        for cand in (tau_int - 1, tau_int + 1):
            if cand < size_min:
                continue
            alt = _maximize(fg_at(cand), theta, lower)
            total_iter += alt.iterations
            if alt.converged and alt.value > best + 1e-9:
                theta, best, tau_int = alt.theta, alt.value, cand
                moved = True
                break
        if moved:
            continue
        score_norm = float(np.max(np.abs(
            _projected_grad(res.grad, theta, lower))))
        return theta, tau_int, closed_real(theta), total_iter, sweep, score_norm
    raise NoConvergence(
        f"size/parameter alternation unconverged after {MAX_SWEEPS} sweeps")


def fit_component(comp: Component, model, method: str, theta0=None) -> ComponentFit:
    """Fit one part of the population with the requested method.

    ``cmle`` maximizes the conditional likelihood from ``theta0`` (default:
    the empirical link logits) and takes the size from the closed form.
    ``umle`` runs the block ascent over the integer size and the parameters
    from ``theta0``; without one it starts at the conditional fit and counts
    that fit's iterations.  The result solves the simultaneous
    score/threshold system and attains the scanned joint maximum on
    well-behaved instances.
    """
    if method not in ("umle", "cmle"):
        raise DomainError(f"unknown method {method!r}; expected 'umle' or 'cmle'")
    if comp.r == 0 and not any(comp.within):
        raise Unidentifiable("no link-traced people: the link parameters are not identified")
    iterations = 0
    if method == "cmle" or theta0 is None:
        start = (empirical_initial_theta(comp, model) if theta0 is None
                 else np.asarray(theta0, dtype=float))

        def fg(th):
            terms = loglik_cond(comp, th, model)
            return terms.value, terms.grad_theta

        res = _maximize(fg, start, model.lower_bounds)
        if not res.converged:
            raise NoConvergence(
                f"conditional parameter solve stalled after {res.iterations} iterations "
                f"(score {np.max(np.abs(res.grad)):.2e})"
            )
        if method == "cmle":
            pi0, _ = model.zero_prob_and_grad(res.theta)
            tau_real, tau = _closed_form(comp.m_total, comp.r, comp.f, pi0)
            return ComponentFit(theta=res.theta, tau_real=tau_real, tau=tau,
                                iterations=res.iterations, sweeps=0,
                                grad_norm=float(np.max(np.abs(res.grad))),
                                converged=True)
        theta0, iterations = res.theta, res.iterations
    theta, tau, tau_real, iters, sweeps, score_norm = _integer_size_ascent(
        comp, model, theta0)
    return ComponentFit(theta=theta, tau_real=tau_real, tau=tau,
                        iterations=iterations + iters, sweeps=sweeps,
                        grad_norm=score_norm, converged=True)


# Per-part entry points: kept for callers of the per-part API, and because
# mcbench/tracing.py rebinds these names on this module.

def fit_cmle_1(data: SampleData, model1, theta0=None) -> ComponentFit:
    """:func:`fit_component` with ``cmle`` on the frame-covered part."""
    return fit_component(data.covered, model1, "cmle", theta0)


def fit_umle_1(data: SampleData, model1, theta0=None) -> ComponentFit:
    """:func:`fit_component` with ``umle`` on the frame-covered part."""
    return fit_component(data.covered, model1, "umle", theta0)


def fit_2(data: SampleData, model2, method: str, theta0=None) -> ComponentFit:
    """:func:`fit_component` on the frame-uncovered part."""
    return fit_component(data.uncovered, model2, method, theta0)


def fit_total(data: SampleData, model1, model2, method: str,
              start=None) -> EstimateReport:
    """Fit both subpopulations with one method and add the floored sizes.

    ``start`` is an optional ``(theta1, theta2)`` pair of starting
    parameters, passed to :func:`fit_component` as each part's ``theta0``.
    The same method is used for both parts; component failures are re-raised
    with the failing component named.
    """
    if method not in ("umle", "cmle"):
        raise DomainError(f"unknown method {method!r}; expected 'umle' or 'cmle'")
    theta1, theta2 = (None, None) if start is None else start
    parts = (("covered", "frame-covered component", data.covered, model1, theta1),
             ("uncovered", "outside-frame component", data.uncovered, model2, theta2))
    fits = {}
    for key, label, comp, model, theta0 in parts:
        try:
            fits[key] = fit_component(comp, model, method, theta0)
        except SnowlinkError as exc:
            raise type(exc)(f"{label}: {exc}") from exc
    fit1, fit2 = fits["covered"], fits["uncovered"]
    diagnostics = {
        key: {"iterations": fit.iterations, "sweeps": fit.sweeps,
              "grad_norm": fit.grad_norm, "converged": fit.converged}
        for key, fit in fits.items()
    }
    return EstimateReport(
        method=method,
        tau1_real=fit1.tau_real, tau1=fit1.tau,
        tau2_real=fit2.tau_real, tau2=fit2.tau,
        theta1=fit1.theta, theta2=fit2.theta,
        diagnostics=diagnostics,
    )
