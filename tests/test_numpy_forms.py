"""The package's numpy and standard-library forms of the special functions
it needs, against scipy's, which only the tests load.

Each bound is fixed from the form's arithmetic: ``log_expit`` is the same
``logaddexp`` scipy evaluates; ``expit`` is ``-expm1`` of ``log_expit(-x)``,
a few roundings from scipy's ``1 / (1 + exp(-x))``; the start
``logit`` drops scipy's ``log1p`` branch near 1/2; ``math.lgamma`` and
``NormalDist.inv_cdf`` are other implementations of the same functions.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import expit as scipy_expit
from scipy.special import gammaln, logit, ndtri, xlogy
from scipy.special import log_expit as scipy_log_expit

from snowlink.estimators import _safe_logit
from snowlink.likelihood import _size_term
from snowlink.link_model import expit, log_expit
from snowlink.patterns import Component
from snowlink.variance import z_critical

EPS = np.finfo(float).eps


def _logits(rng, limit):
    """Random, evenly spaced and special points in ``[-limit, limit]``."""
    return np.concatenate([
        rng.uniform(-limit, limit, 100_000),
        rng.normal(0.0, 5.0, 100_000).clip(-limit, limit),
        np.linspace(-limit, limit, 20_001),
        [-limit, -1.0, -0.0, 0.0, 1e-300, 1.0, limit],
    ])


def test_log_expit_is_scipy_bit_for_bit():
    x = _logits(np.random.default_rng(1), 750.0)
    assert np.array_equal(log_expit(x), scipy_log_expit(x))


def test_expit_within_four_eps_of_scipy():
    x = _logits(np.random.default_rng(2), 708.0)
    want = scipy_expit(x)
    assert np.all(np.abs(expit(x) - want) <= 4 * EPS * want)
    assert expit(0.0) == 0.5


@pytest.mark.parametrize("x", [745.0, -745.0, 1000.0, -1000.0, np.inf, -np.inf])
def test_logistic_forms_raise_no_warning_at_the_extremes(x):
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise",
                                                invalid="raise"):
        warnings.simplefilter("error")
        e, le = expit(np.array([x])), log_expit(np.array([x]))
    # at -745 scipy's 1 / (1 + exp(745)) is 0, while -expm1(-log1p(exp(-745)))
    # keeps the subnormal exp(-745); elsewhere the two agree exactly
    assert e[0] == pytest.approx(scipy_expit(x), rel=0,
                                 abs=np.finfo(float).smallest_subnormal)
    assert np.array_equal(le, scipy_log_expit([x]))


def test_start_logit_within_2e_15_of_scipy():
    rng = np.random.default_rng(3)
    p = np.concatenate([rng.uniform(0.0, 1.0, 100_000), np.linspace(0.0, 1.0, 10_001),
                        [0.0, 1e-5, 0.3, 0.5, 0.65, 1.0 - 1e-5, 1.0]])
    want = logit(np.clip(p, 1e-4, 1.0 - 1e-4))
    assert np.max(np.abs(_safe_logit(p) - want)) <= 2e-15


def _component(m, r, f):
    return Component(between={1: r} if r else {}, m=tuple(m), within=({},) * len(m),
                     f=f, n=len(m))


@pytest.mark.parametrize("m, r, f", [
    ((3, 4), 0, 0.6), ((40, 55, 61), 17, 0.7), ((300, 250, 410, 380), 220, 0.6),
    ((), 35, 1.0), ((), 900, 1.0), ((5000, 4000), 3000, 0.99),
])
def test_size_term_within_eight_ulp_of_scipy(m, r, f):
    # a difference of log-gammas is only as exact as its larger piece, in
    # scipy as well, so the ulp is taken at that piece's size
    comp = _component(m, r, f)
    base = comp.m_total + r
    for tau in (*range(base, base + 50), *np.linspace(base, 20 * base + 100, 200).round()):
        tau = float(tau)
        pieces = (gammaln(tau + 1.0), gammaln(tau - base + 1.0), xlogy(tau - comp.m_total, f))
        want = pieces[0] - pieces[1] + pieces[2]
        scale = np.spacing(max(abs(v) for v in pieces))
        assert abs(_size_term(comp, tau) - want) <= 8 * scale, tau


def test_size_term_at_a_full_frame_escape_factor():
    # f = 0: no person outside the m in the sites can escape the sample
    comp = _component((3, 4), 0, 0.0)
    want = gammaln(8.0) - gammaln(1.0) + xlogy(0.0, 0.0)
    assert abs(_size_term(comp, 7.0) - want) <= 8 * np.spacing(want)
    assert _size_term(comp, 8.0) == -math.inf == xlogy(1.0, 0.0)


def test_normal_quantile_within_eight_ulp_of_scipy():
    for level in np.linspace(0.8, 0.999, 1_991):
        want = ndtri(0.5 * (1.0 + level))
        assert abs(z_critical(level) - want) <= 8 * np.spacing(want), level
