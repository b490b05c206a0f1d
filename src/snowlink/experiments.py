"""Configuration-driven Monte Carlo experiments over the full pipeline.

Each replicate simulates one sample, fits every requested method, computes
method-matched variances and Wald intervals, and records one CSV row per
replicate and method.  Replicates are seeded from ``(master_seed, index)`` and
may run in parallel; aggregation is an ordered fold over replicate indices, so
the outputs are byte-identical for any worker count.

Both methods start from the maximizer of the conditional likelihood, so a
replicate that fits both runs ``cmle`` first and starts ``umle`` from its
parameters: each part's conditional solve runs once, and every row is what
a single-method run gives.  The ``umle`` row's fit then begins at that start,
so its solver diagnostics leave out the conditional iterations.  When
``cmle`` is not requested or its fit fails, ``umle`` solves its own warm
start.  Rows keep the order of ``config.methods``.

The study moments (skewness, excess kurtosis and the Jarque-Bera normality
test of the standardized errors) are computed with numpy, as ``scipy.stats``
defines them, so a study does not load ``scipy.stats``.

Replicates whose estimation fails are excluded from the aggregate moments and
coverage (a diverged solver would poison the normality statistics) but are
tallied and keep their CSV row with the error message.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import InvariantViolation, ParseError, SnowlinkError
from .estimators import fit_total
from .simulator import (
    PopulationConfig,
    draw_sample,
    population_config_from_dict,
    population_config_to_dict,
    replicate_rng,
)
from .variance import attach_variance, theta_covariances

SCHEMA_VERSION = 1


@dataclass
class ExperimentConfig:
    population: PopulationConfig
    replicates: int
    methods: tuple[str, ...] = ("umle", "cmle")
    master_seed: int = 0
    parallelism: int = 1
    level: float = 0.95
    variance_source: str = "analytic"
    out_dir: str = "."

    def __post_init__(self):
        if self.replicates < 1:
            raise InvariantViolation(f"replicates must be >= 1, got {self.replicates}")
        if not 0.0 < self.level < 1.0:
            raise InvariantViolation(f"level must be in (0, 1), got {self.level}")
        bad = [m for m in self.methods if m not in ("umle", "cmle")]
        if bad or not self.methods or len(set(self.methods)) < len(self.methods):
            raise InvariantViolation(
                f"methods must be a nonempty subset of umle/cmle without repeats, got {self.methods}")
        if self.parallelism < 1:
            raise InvariantViolation("parallelism must be >= 1")
        if self.master_seed < 0:
            raise InvariantViolation(f"master_seed must be >= 0, got {self.master_seed}")
        if self.variance_source not in ("analytic", "empirical_v"):
            raise InvariantViolation(f"unknown variance source {self.variance_source!r}")


def experiment_config_from_dict(obj: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            population=population_config_from_dict(obj["population"]),
            replicates=int(obj["replicates"]),
            methods=tuple(obj.get("methods", ("umle", "cmle"))),
            master_seed=int(obj.get("master_seed", 0)),
            parallelism=int(obj.get("parallelism", 1)),
            level=float(obj.get("level", 0.95)),
            variance_source=str(obj.get("variance_source", "analytic")),
            out_dir=str(obj.get("out_dir", ".")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed experiment config: {exc}") from exc
    except InvariantViolation as exc:
        raise ParseError(str(exc)) from exc


def csv_columns(q1: int, q2: int) -> list[str]:
    cols = [
        "replicate", "method", "error",
        "tau1_true", "tau2_true", "tau_true", "m", "r1", "r2",
        "tau1_real", "tau1_hat", "tau2_real", "tau2_hat", "tau_hat",
        "sigma1_sq", "sigma2_sq", "sigma_sq",
        "tau1_lo", "tau1_hi", "tau1_hit",
        "tau2_lo", "tau2_hi", "tau2_hit",
        "tau_lo", "tau_hi", "tau_hit",
        "z_tau1", "z_tau2", "z_tau",
    ]
    for j in range(q1):
        cols += [f"theta1_{j}", f"theta1_{j}_se", f"theta1_{j}_hit", f"z_theta1_{j}"]
    for j in range(q2):
        cols += [f"theta2_{j}", f"theta2_{j}_se", f"theta2_{j}_hit", f"z_theta2_{j}"]
    return cols


def _zscore(err: float, variance: float) -> float:
    return err / math.sqrt(variance) if variance > 0 else float("nan")


def _replicate_rows(config: ExperimentConfig, index: int) -> list[dict]:
    pop = config.population
    rng = replicate_rng(config.master_seed, index)
    data, truth = draw_sample(pop, rng)
    zcrit = float(ndtri(0.5 * (1.0 + config.level)))
    rows = [None] * len(config.methods)
    warm = None
    # cmle runs first: its parameters are the conditional fit that umle
    # otherwise solves again as its warm start, bit for bit
    for i in sorted(range(len(config.methods)), key=lambda i: config.methods[i] != "cmle"):
        method = config.methods[i]
        row = {
            "replicate": index, "method": method, "error": "",
            "tau1_true": truth.tau1, "tau2_true": truth.tau2, "tau_true": truth.tau,
            "m": data.m_total, "r1": data.r1, "r2": data.r2,
        }
        try:
            report = fit_total(data, pop.model1, pop.model2, method, warm)
            if method == "cmle":
                warm = (report.theta1, report.theta2)
            attach_variance(report, data, pop.model1, pop.model2,
                            level=config.level, source=config.variance_source)
            v = report.variance
            row.update(
                tau1_real=report.tau1_real, tau1_hat=report.tau1,
                tau2_real=report.tau2_real, tau2_hat=report.tau2,
                tau_hat=report.tau,
                sigma1_sq=v.sigma1_sq, sigma2_sq=v.sigma2_sq, sigma_sq=v.sigma_sq,
            )
            for name, true_val in (("tau1", truth.tau1), ("tau2", truth.tau2),
                                   ("tau", truth.tau)):
                lo, hi = v.intervals[name]
                row[f"{name}_lo"], row[f"{name}_hi"] = lo, hi
                row[f"{name}_hit"] = int(lo <= true_val <= hi)
            row["z_tau1"] = _zscore(report.tau1 - truth.tau1, truth.tau1 * v.sigma1_sq)
            row["z_tau2"] = _zscore(report.tau2 - truth.tau2, truth.tau2 * v.sigma2_sq)
            row["z_tau"] = _zscore(report.tau - truth.tau, truth.tau * v.sigma_sq)
            cov1, cov2 = theta_covariances(report, data, pop.model1, pop.model2)
            for label, est, true_theta, cov, tau_hat, tau_true in (
                ("theta1", report.theta1, truth.theta1, cov1, report.tau1, truth.tau1),
                ("theta2", report.theta2, truth.theta2, cov2, report.tau2, truth.tau2),
            ):
                for j in range(len(est)):
                    se = math.sqrt(cov[j, j] / tau_hat) if tau_hat > 0 else float("nan")
                    row[f"{label}_{j}"] = float(est[j])
                    row[f"{label}_{j}_se"] = se
                    row[f"{label}_{j}_hit"] = int(
                        abs(est[j] - true_theta[j]) <= zcrit * se
                    ) if se == se else 0
                    row[f"z_{label}_{j}"] = _zscore(
                        float(est[j] - true_theta[j]), cov[j, j] / tau_true
                    ) if tau_true > 0 else float("nan")
        except SnowlinkError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows[i] = row
    return rows


@dataclass
class TargetStats:
    """Aggregate behaviour of one estimand across successful replicates."""

    target: str
    n: int
    mean: float
    bias: float
    sd_emp: float
    mean_asym_sd: float
    sd_ratio: float
    coverage: float
    skewness: float
    excess_kurtosis: float
    normality_stat: float
    normality_pvalue: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class MethodSummary:
    method: str
    successes: int
    failures: int
    targets: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "successes": self.successes,
            "failures": self.failures,
            "targets": {k: v.to_dict() for k, v in self.targets.items()},
        }


@dataclass
class MonteCarloSummary:
    config: ExperimentConfig
    columns: list
    rows: list
    per_method: dict

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "replicates": self.config.replicates,
            "methods": list(self.config.methods),
            "master_seed": self.config.master_seed,
            "level": self.config.level,
            "variance_source": self.config.variance_source,
            "population": population_config_to_dict(self.config.population),
            "csv_columns": self.columns,
            "per_method": {k: v.to_dict() for k, v in self.per_method.items()},
        }


def _shape_stats(z: np.ndarray) -> tuple[float, float, float, float]:
    """Skewness and excess kurtosis from the biased central moments, the
    Jarque-Bera statistic ``n/6 (S^2 + K^2/4)`` and its chi-square(2) tail
    ``exp(-JB/2)``, as ``scipy.stats`` computes them.  All four are NaN below
    8 values or when the values are constant to rounding."""
    nan = float("nan")
    if len(z) < 8:
        return nan, nan, nan, nan
    mean = float(z.mean())
    d = z - mean
    m2 = float(np.mean(d * d))
    if m2 <= (np.finfo(float).eps * mean) ** 2:
        return nan, nan, nan, nan
    skew = float(np.mean(d * d * d)) / m2 ** 1.5
    kurt = float(np.mean((d * d) ** 2)) / m2 ** 2 - 3.0
    stat = len(z) / 6.0 * (skew ** 2 + kurt ** 2 / 4.0)
    return skew, kurt, stat, math.exp(-0.5 * stat)


def _target_stats(name: str, est, true, asym_sd, hits, z) -> TargetStats:
    est = np.asarray(est, dtype=float)
    true = np.asarray(true, dtype=float)
    z = np.asarray(z, dtype=float)
    n = len(est)
    mean = float(est.mean()) if n else float("nan")
    bias = float((est - true).mean()) if n else float("nan")
    sd_emp = float(est.std(ddof=1)) if n > 1 else float("nan")
    mean_asym = float(np.mean(asym_sd)) if n else float("nan")
    ratio = mean_asym / sd_emp if n > 1 and sd_emp > 0 else float("nan")
    cov = float(np.mean(hits)) if n else float("nan")
    skew, kurt, stat, pval = _shape_stats(z[np.isfinite(z)])
    return TargetStats(target=name, n=n, mean=mean, bias=bias, sd_emp=sd_emp,
                       mean_asym_sd=mean_asym, sd_ratio=ratio, coverage=cov,
                       skewness=skew, excess_kurtosis=kurt,
                       normality_stat=stat, normality_pvalue=pval)


def _summarize(config: ExperimentConfig, rows: list) -> dict:
    pop = config.population
    q1, q2 = pop.model1.q, pop.model2.q
    out = {}
    for method in config.methods:
        mrows = [r for r in rows if r["method"] == method]
        good = [r for r in mrows if not r["error"]]
        targets = {}
        for name in ("tau1", "tau2", "tau"):
            targets[name] = _target_stats(
                name,
                [r[f"{name}_hat"] for r in good],
                [r[f"{name}_true"] for r in good],
                [math.sqrt(max(r[f"{name}_hat"], 0)
                           * r[("sigma_sq" if name == "tau" else f"sigma{name[-1]}_sq")])
                 for r in good],
                [r[f"{name}_hit"] for r in good],
                [r[f"z_{name}"] for r in good],
            )
        for label, q, truth in (("theta1", q1, pop.theta1), ("theta2", q2, pop.theta2)):
            for j in range(q):
                targets[f"{label}[{j}]"] = _target_stats(
                    f"{label}[{j}]",
                    [r[f"{label}_{j}"] for r in good],
                    [float(truth[j])] * len(good),
                    [r[f"{label}_{j}_se"] for r in good],
                    [r[f"{label}_{j}_hit"] for r in good],
                    [r[f"z_{label}_{j}"] for r in good],
                )
        out[method] = MethodSummary(method=method, successes=len(good),
                                    failures=len(mrows) - len(good),
                                    targets=targets)
        assert out[method].successes + out[method].failures == config.replicates
    return out


def run_experiment(config: ExperimentConfig) -> MonteCarloSummary:
    """Simulate, estimate, and aggregate; deterministic for a fixed config
    regardless of the worker count."""
    indices = range(config.replicates)
    if config.parallelism == 1:
        nested = [_replicate_rows(config, i) for i in indices]
    else:
        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            nested = list(pool.map(_replicate_rows, [config] * config.replicates,
                                   indices, chunksize=8))
    rows = [row for group in nested for row in group]
    columns = csv_columns(config.population.model1.q, config.population.model2.q)
    return MonteCarloSummary(config=config, columns=columns, rows=rows,
                             per_method=_summarize(config, rows))


# ---------------------------------------------------------------------------
# Report emission


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_reports(summary: MonteCarloSummary, out_dir) -> dict:
    """Write the JSON summary, the per-replicate CSV, and a text digest.
    Returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "summary": os.path.join(out_dir, "summary.json"),
        "csv": os.path.join(out_dir, "replicates.csv"),
        "digest": os.path.join(out_dir, "digest.txt"),
    }
    with open(paths["summary"], "w") as fh:
        json.dump(summary.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["csv"], "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(summary.columns)
        for row in summary.rows:
            writer.writerow([_format_cell(row.get(c, "")) for c in summary.columns])
    with open(paths["digest"], "w") as fh:
        fh.write(render_digest(summary))
    return paths


def render_digest(summary: MonteCarloSummary) -> str:
    cfg = summary.config
    lines = [
        f"replicates={cfg.replicates} seed={cfg.master_seed} "
        f"level={cfg.level} variance={cfg.variance_source}",
    ]
    for method, ms in summary.per_method.items():
        lines.append(f"[{method}] successes={ms.successes} failures={ms.failures}")
        header = (f"  {'target':<12} {'mean':>12} {'bias':>10} {'sd_emp':>10} "
                  f"{'asym_sd':>10} {'ratio':>7} {'cover':>6} {'skew':>7} {'kurt':>7}")
        lines.append(header)
        for name, t in ms.targets.items():
            lines.append(
                f"  {name:<12} {t.mean:>12.4f} {t.bias:>10.4f} {t.sd_emp:>10.4f} "
                f"{t.mean_asym_sd:>10.4f} {t.sd_ratio:>7.3f} {t.coverage:>6.3f} "
                f"{t.skewness:>7.3f} {t.excess_kurtosis:>7.3f}"
            )
    return "\n".join(lines) + "\n"
