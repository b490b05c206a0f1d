"""A fixed block of work that measures how fast the machine runs right now.

The hosts this benchmark runs on change speed by a third or more from one
half-minute to the next (turbo and neighbours on the same socket), in CPU
time as much as in wall time.  A run that lands in a fast phase then reads
30% better than one in a slow phase, with the program unchanged.  So for a
workload with ``scale_to_reference`` the worker times this block between
rounds, and the study's timings are scaled by
``REFERENCE_S / median(block times)``: they read as CPU seconds on a machine
where the block takes ``REFERENCE_S``.

The block does what the desk study spends its time on: maximum-likelihood
fits of a few parameters, Python loops around scipy and numpy calls on small
arrays.  It fits a fixed logistic regression with ``scipy.optimize``.  It
uses no snowlink code, so no change to the program changes it, and its
arrays are a few kilobytes, so it does not move ``peak_rss_mb``.

The worker imports this module only after it has reported set-up done, so
that ``setup_s`` does not pay for ``scipy.optimize``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit, log_expit

#: CPU seconds the block takes on the machine of the reference figures in
#: README.md (2-core Xeon VM at 2.1 GHz, median over a five-minute probe).
REFERENCE_S = 0.02
#: Fits per block.
FITS = 10

_rng = np.random.default_rng(20150623)
_X = _rng.normal(size=(60, 5))
_Y = (_rng.random(60) < expit(_X @ np.array([0.5, -0.3, 0.2, 0.0, 0.1]))).astype(float)


def _nll(beta):
    eta = _X @ beta
    return -(_Y @ log_expit(eta) + (1.0 - _Y) @ log_expit(-eta))


def _grad(beta):
    return -_X.T @ (_Y - expit(_X @ beta))


def _block() -> None:
    for k in range(FITS):
        minimize(_nll, np.full(5, 0.01 * k), jac=_grad, method="BFGS")


def time_blocks(count: int) -> list[float]:
    """CPU seconds of ``count`` runs of the block."""
    times = []
    for _ in range(count):
        t0 = time.process_time()
        _block()
        times.append(time.process_time() - t0)
    return times


def scale(block_times: list[float]) -> float:
    """The factor that turns CPU seconds measured alongside ``block_times``
    into CPU seconds at the reference speed."""
    return REFERENCE_S / statistics.median(block_times)
