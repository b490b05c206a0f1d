"""Output checks, computed apart from the package.

Every check returns a list of problems (empty when the output is right).
The zero-pattern probability is recomputed here: as a product for the
homogeneous family and by dense trapezoid integration for the random-effect
family, never through the package's Gauss-Hermite rule.
"""

from __future__ import annotations

import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

#: Relative tolerance for closed forms recomputed from the fitted parameters.
#: The 100-node rule is within 1e-11 of the dense integral for sigma <= 2.
REL_TOL = 1e-9
#: A size profile "rises" only if it gains more than rounding can explain.
PROFILE_TOL = 1e-8
#: The mean of n standardized errors must lie within this many 1/sqrt(n).
Z_SIGMAS = 5.0

REPORT_FILES = ("summary.json", "replicates.csv", "digest.txt")


def _expit_neg(x):
    """1 - expit(x), written out."""
    return 1.0 / (1.0 + np.exp(x))


def zero_pattern_prob(spec: dict, theta) -> float:
    theta = np.asarray(theta, dtype=float)
    if spec["family"] == "homogeneous":
        return math.prod(float(v) for v in _expit_neg(theta))
    if spec["family"] == "rasch":
        alpha, sigma = theta[:-1], theta[-1]
        z = np.linspace(-12.0, 12.0, 24_001)
        integrand = (np.prod(_expit_neg(alpha[:, None] + sigma * z[None, :]), axis=0)
                     * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))
        h = z[1] - z[0]
        return float(h * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1])))
    raise ValueError(f"no independent zero-pattern probability for {spec['family']!r}")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _is_floor(floor: int, real: float) -> bool:
    """``floor`` is the floor of ``real``, or the integer that ``real`` sits a
    rounding error below (a ratio of integers can come out as k - 1 ulp)."""
    below = math.floor(real)
    return floor == below or (floor == below + 1 and floor - real <= REL_TOL * real)


def _profile_rises(profile, tau: int, tau_min: int) -> bool:
    """The integer size profile at fixed parameters gains at tau - 1 or tau + 1."""
    here = profile(tau)
    if profile(tau + 1) - here > PROFILE_TOL:
        return True
    return tau - 1 >= tau_min and profile(tau - 1) - here > PROFILE_TOL


def check_estimate(data, report, spec1: dict, spec2: dict, level: float) -> list[str]:
    """Closed forms, floors, size profile, observed-count floors, variances
    and intervals of one variance-enriched report."""
    tag = f"{report.method} (m={data.m_total}, r1={data.r1}, r2={data.r2})"
    problems = []
    m, r1, r2 = data.m_total, data.r1, data.r2
    f = 1.0 - data.n / data.N
    pi01 = zero_pattern_prob(spec1, report.theta1)
    pi02 = zero_pattern_prob(spec2, report.theta2)

    if not _close(report.tau1_real, (m + r1) / (1.0 - f * pi01), REL_TOL):
        problems.append(f"{tag}: tau1_real {report.tau1_real!r} is not "
                        f"(m + r1) / (1 - (1 - n/N) pi0) = {(m + r1) / (1.0 - f * pi01)!r}")
    if not _close(report.tau2_real, r2 / (1.0 - pi02), REL_TOL):
        problems.append(f"{tag}: tau2_real {report.tau2_real!r} is not "
                        f"r2 / (1 - pi0) = {r2 / (1.0 - pi02)!r}")
    for name, floor, real in (("tau1", report.tau1, report.tau1_real),
                              ("tau2", report.tau2, report.tau2_real)):
        if not _is_floor(floor, real):
            problems.append(f"{tag}: {name} = {floor} is not the floor of {real!r}")
    if report.tau1 < m + r1 or report.tau2 < r2:
        problems.append(f"{tag}: estimates ({report.tau1}, {report.tau2}) below "
                        f"the observed counts ({m + r1}, {r2})")

    if report.method == "umle":
        def profile1(tau):
            return (math.lgamma(tau + 1) - math.lgamma(tau - m - r1 + 1)
                    + (tau - m) * math.log(f) + (tau - m - r1) * math.log(pi01))

        def profile2(tau):
            return (math.lgamma(tau + 1) - math.lgamma(tau - r2 + 1)
                    + (tau - r2) * math.log(pi02))

        if _profile_rises(profile1, report.tau1, m + r1):
            problems.append(f"{tag}: the covered size profile rises next to {report.tau1}")
        if _profile_rises(profile2, report.tau2, r2):
            problems.append(f"{tag}: the outside size profile rises next to {report.tau2}")

    v = report.variance
    values = (v.sigma1_sq, v.sigma2_sq, v.sigma_sq, v.var_tau1, v.var_tau2, v.var_tau)
    if not all(math.isfinite(x) and x > 0 for x in values):
        problems.append(f"{tag}: a variance is not positive: {values}")
    if not _close(v.var_tau, report.tau1 * v.sigma1_sq + report.tau2 * v.sigma2_sq, 1e-12):
        problems.append(f"{tag}: var_tau {v.var_tau!r} is not tau1 s1^2 + tau2 s2^2")
    zcrit = NormalDist().inv_cdf(0.5 + 0.5 * level)
    for name, center, var in (("tau1", report.tau1, v.var_tau1),
                              ("tau2", report.tau2, v.var_tau2),
                              ("tau", report.tau, v.var_tau)):
        lo, hi = v.intervals[name]
        if not _close(0.5 * (lo + hi), center, REL_TOL):
            problems.append(f"{tag}: {name} interval ({lo}, {hi}) is not centred on {center}")
        if var > 0 and not _close(0.5 * (hi - lo), zcrit * math.sqrt(var), REL_TOL):
            problems.append(f"{tag}: {name} interval half-width is not z * sqrt(var)")
    return problems


def check_mean_z(z_by_method: dict) -> list[str]:
    """Consistency: the mean standardized error of the total lies within
    ``Z_SIGMAS / sqrt(n)`` of 0."""
    problems = []
    for method, zs in z_by_method.items():
        if not all(math.isfinite(z) for z in zs):
            problems.append(f"{method}: a z_tau of a successful estimate is not finite")
            continue
        mean = sum(zs) / len(zs)
        if abs(mean) > Z_SIGMAS / math.sqrt(len(zs)):
            problems.append(f"{method}: mean z_tau {mean:.4f} over {len(zs)} replicates "
                            f"is beyond {Z_SIGMAS:g}/sqrt(n)")
    return problems


def check_same_bytes(first: Path, second: Path) -> list[str]:
    """The three report files of two runs of one config are byte-identical."""
    return [f"{name} differs between {first} and {second}"
            for name in REPORT_FILES
            if (first / name).read_bytes() != (second / name).read_bytes()]
