"""Unconditional and conditional maximum-likelihood estimators.

Both parts of the population are fitted by one function,
:func:`fit_component`, on a :class:`~snowlink.patterns.Component` view: the
frame-uncovered part is the frame-covered one with no sites and escape
factor ``f = 1``, so a caller passes ``data.covered`` or ``data.uncovered`` of
a :class:`~snowlink.patterns.SampleData`.  :func:`fit_total` fits the two
parts of a sample with one method.  The only fit setting is the start:
``theta0`` for one part, or a ``(theta1, theta2)`` pair for
:func:`fit_total`.

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
Hessian is not usable.  Every parameter has a lower bound, ``-inf`` where it
is free (only the person-effect spread has a finite one), and the solver
projects onto them with one ``np.maximum``, the identity on a free
coordinate.  Each solve computes the projected score norm once per accepted
point and carries it on its result: convergence, the ``grad_norm`` both
methods report and the stall message all read that one value.  Its
tolerances are the module constants :data:`SCORE_TOL`, :data:`MAX_ITER` and
:data:`MAX_SWEEPS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    DomainError,
    NoConvergence,
    OscillationDetected,
    SnowlinkError,
    Unidentifiable,
)
from .likelihood import loglik_cond, loglik_full
from .patterns import Component, SampleData

# Placeholders, never called: mcbench/tracing.py looks these retired per-part
# names up on this module when it installs.  ROADMAP item 1's tracer repair
# deletes this line.
fit_cmle_1 = fit_umle_1 = fit_2 = loglik_cond_1 = loglik_full_1 = loglik_2 = None


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


def _score_norm(grad, theta, lower) -> float:
    """Infinity norm of the projected score: at a lower bound only an upward
    push counts."""
    return float(np.abs(np.where(theta <= lower, np.maximum(grad, 0.0), grad)).max())


def _fd_hessian(fg, theta, grad0, lower):
    """Central-difference Jacobian of the gradient, symmetrized; falls back to
    a forward difference for coordinates pinned near a lower bound."""
    q = len(theta)
    H = np.empty((q, q))
    for i in range(q):
        h = 1e-6 * max(1.0, abs(theta[i]))
        if theta[i] - h < lower[i]:
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
    iterations: int
    #: the projected score norm at ``theta``
    score: float

    @property
    def converged(self) -> bool:
        return self.score <= SCORE_TOL


def _maximize(fg, theta0, lower) -> _OptResult:
    """Damped Newton ascent with backtracking; convergence is a projected
    score norm at most :data:`SCORE_TOL` within :data:`MAX_ITER`
    iterations.  ``lower`` bounds ``theta`` from below, ``-inf`` where a
    coordinate is free."""
    theta = np.maximum(np.asarray(theta0, dtype=float), lower)
    value, grad = fg(theta)
    score = _score_norm(grad, theta, lower)
    it = 0
    for it in range(1, MAX_ITER + 1):
        if score <= SCORE_TOL:
            return _OptResult(theta, value, it - 1, score)
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
                cand = np.maximum(theta + step * direction, lower)
                try:
                    v_new, g_new = fg(cand)
                except SnowlinkError:
                    step *= 0.5
                    continue
                sufficient = v_new >= value + 1e-4 * step * slope
                tail = (step * slope <= value_noise
                        and v_new >= value - value_noise
                        and _score_norm(g_new, cand, lower) < score)
                if np.isfinite(v_new) and (sufficient or tail):
                    theta, value, grad = cand, v_new, g_new
                    score = _score_norm(grad, theta, lower)
                    moved = True
                    break
                step *= 0.5
            if moved:
                break
            mu = max(mu * 10.0, 1e-6 * scale)
        if not moved:
            break
    return _OptResult(theta, value, it, score)


# ---------------------------------------------------------------------------
# Initialization


def _safe_logit(p):
    p = np.clip(p, 1e-4, 1.0 - 1e-4)
    return np.log(p / (1.0 - p))


def _link_tally(comp: Component):
    """Observed links to each site and observed people at risk of them.

    A site's own table adds neither links nor people at risk to that site."""
    links = np.zeros(comp.n)
    at_risk = np.zeros(comp.n)
    for site, pats, counts in comp.tables:
        table_links = counts @ ((pats[:, None] >> np.arange(comp.n)) & 1)
        table_risk = np.full(comp.n, counts.sum())
        if site is not None:
            table_links[site] = table_risk[site] = 0.0
        links += table_links
        at_risk += table_risk
    return links, at_risk


def empirical_initial_theta(comp: Component, model) -> np.ndarray:
    """Per-site empirical link logits (observed links over observed people at
    risk), followed by the family's starting values of its other parameters.
    A site with nobody at risk starts at probability 0.5."""
    links, at_risk = _link_tally(comp)
    fractions = np.divide(links, at_risk, out=np.full(comp.n, 0.5), where=at_risk > 0)
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

    def closed_real(th):
        pi0, _ = model.zero_prob_and_grad(th)
        return _closed_form(comp.m_total, comp.r, comp.f, pi0)[0]

    theta = np.asarray(theta0, dtype=float)
    tau_int = max(_floor_guarded(closed_real(theta)), size_min)
    total_iter = 0
    best = -np.inf
    for sweep in range(1, MAX_SWEEPS + 1):
        res = _maximize(partial(loglik_full, comp, float(tau_int), model=model), theta, lower)
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
        for cand in (tau_int - 1, tau_int + 1):
            if cand < size_min:
                continue
            alt = _maximize(partial(loglik_full, comp, float(cand), model=model), theta, lower)
            total_iter += alt.iterations
            if alt.converged and alt.value > best + 1e-9:
                theta, best, tau_int = alt.theta, alt.value, cand
                break
        else:
            return theta, tau_int, closed_real(theta), total_iter, sweep, res.score
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
    well-behaved instances.  Before any fit, a model whose site count is not
    the sample's raises :class:`~snowlink.errors.DimensionMismatch`, and a
    part whose conditional likelihood has fewer free pattern cells than the
    model has parameters, that has a site no observed person links to, or
    whose outside-linked people each link to one site while no site member
    links to another site raises :class:`~snowlink.errors.Unidentifiable`.
    """
    if model.n != comp.n:
        raise DimensionMismatch(f"model has {model.n} sites but the design says {comp.n}")
    if method not in ("umle", "cmle"):
        raise DomainError(f"unknown method {method!r}; expected 'umle' or 'cmle'")
    if comp.r == 0 and not any(comp.within):
        raise Unidentifiable("no link-traced people: the link parameters are not identified")
    # free cells of the conditional likelihood: the zero-truncated outside
    # patterns, and each sampled site's within-site patterns
    free = 2**model.n - 2 + len(comp.m) * (2**(model.n - 1) - 1)
    if free < model.q:
        raise Unidentifiable(
            f"{model.q} link parameters but {free} free pattern cells: the link "
            "parameters are not identified")
    unlinked = np.flatnonzero(_link_tally(comp)[0] == 0)
    if len(unlinked):
        raise Unidentifiable(
            f"no observed person links to site {unlinked[0]}: its link logit has no "
            "finite maximum")
    if not any(comp.within) and all(x & (x - 1) == 0 for x in comp.between):
        # every observed cell is then likelier as all the logits fall together
        raise Unidentifiable(
            "every outside-linked person links to exactly one site and no site member "
            "links to another sampled site: the link logits have no finite maximum")
    iterations = 0
    if method == "cmle" or theta0 is None:
        start = (empirical_initial_theta(comp, model) if theta0 is None
                 else np.asarray(theta0, dtype=float))
        res = _maximize(partial(loglik_cond, comp, model=model), start, model.lower_bounds)
        if not res.converged:
            raise NoConvergence(
                f"conditional parameter solve stalled after {res.iterations} iterations "
                f"(score {res.score:.2e})"
            )
        if method == "cmle":
            pi0, _ = model.zero_prob_and_grad(res.theta)
            tau_real, tau = _closed_form(comp.m_total, comp.r, comp.f, pi0)
            return ComponentFit(theta=res.theta, tau_real=tau_real, tau=tau,
                                iterations=res.iterations, sweeps=0,
                                grad_norm=res.score, converged=True)
        theta0, iterations = res.theta, res.iterations
    theta, tau, tau_real, iters, sweeps, score_norm = _integer_size_ascent(
        comp, model, theta0)
    return ComponentFit(theta=theta, tau_real=tau_real, tau=tau,
                        iterations=iterations + iters, sweeps=sweeps,
                        grad_norm=score_norm, converged=True)


def fit_total(data: SampleData, model1, model2, method: str,
              start=None) -> EstimateReport:
    """Fit both subpopulations with one method and add the floored sizes.

    ``start`` is an optional ``(theta1, theta2)`` pair of starting
    parameters, passed to :func:`fit_component` as each part's ``theta0``.
    The same method is used for both parts; component failures, a model
    whose site count is not the sample's among them, are re-raised with the
    failing component named.
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
