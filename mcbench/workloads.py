"""Workload definitions for the Monte Carlo benchmark.

Each workload is a population design plus how its study is cut into rounds,
and whether its timings are scaled to the reference speed (``reference.py``).
Scaling pays only where the work follows the machine's speed as the
reference block does: small-array Python work does (elasticity ~1 in a
five-minute probe), while the large-array kernel calls of ``wide-sites``
follow it at 0.3-0.5, so scaling them would add noise instead of removing it.

A round is one ``run_experiment`` call followed by ``emit_reports``; round
``r`` of a run with seed ``s`` uses master seed ``s * ROUND_SEED_STRIDE + r``,
so a seed fixes every sample a run draws and two seeds never share one.

This module is plain Python so that the parent process can write the
experiment config without importing numpy or snowlink.
"""

from __future__ import annotations

import math

ROUND_SEED_STRIDE = 10_000


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _homogeneous(n: int) -> dict:
    return {"family": "homogeneous", "n": n}


def _rasch(n: int) -> dict:
    # no "quadrature_nodes": the package default (100 nodes) is what users get
    return {"family": "rasch", "n": n}


WORKLOADS = {
    # The desk design of acceptance checks A1/A2: ~0.1-0.25 s per replicate,
    # spent in ~900 small likelihood evaluations of 2n+1 kernel calls each.
    "desk-homog": {
        "population": {
            "N": 10, "n": 4,
            "cluster_mode": {"type": "conditional_multinomial", "tau1": 2000},
            "tau2": 1000,
            "model1": _homogeneous(4), "model2": _homogeneous(4),
            "theta1": [_logit(0.3)] * 4, "theta2": [_logit(0.25)] * 4,
        },
        "round_replicates": 10,
        "trace_rounds": 2,
        "scale_to_reference": True,
    },
    # The heterogeneous model: the kernel's loop over 100 quadrature nodes is
    # ~97% of a replicate of 8-12 s.  sigma = 1.2 keeps sigma_hat off its
    # 0 bound.  Not listed in BENCHMARK.json (see README.md): a run holds too
    # few replicates for a steady median.
    "rasch-spread": {
        "population": {
            "N": 10, "n": 4,
            "cluster_mode": {"type": "conditional_multinomial", "tau1": 2000},
            "tau2": 1000,
            "model1": _rasch(4), "model2": _rasch(4),
            "theta1": [_logit(0.3)] * 4 + [1.2],
            "theta2": [_logit(0.25)] * 4 + [1.2],
        },
        "round_replicates": 1,
        "trace_rounds": 1,
        "scale_to_reference": False,
    },
    # n = 16 of N = 40 sites under the Poisson cluster law: enumerating
    # 2^16 + 16 * 2^15 patterns makes variances most of a ~3.5-4 s replicate,
    # and the kernel is called a few times with many rows.
    "wide-sites": {
        "population": {
            "N": 40, "n": 16,
            "cluster_mode": {"type": "poisson_mean", "lambda1": 50.0},
            "tau2": 1000,
            "model1": _homogeneous(16), "model2": _homogeneous(16),
            "theta1": [_logit(0.3)] * 16, "theta2": [_logit(0.25)] * 16,
        },
        "round_replicates": 1,
        "trace_rounds": 2,
        "scale_to_reference": False,
    },
}


def experiment_config(name: str, seed: int) -> dict:
    """The experiment config of round 0 for ``name`` at ``seed``, in the
    file format ``snowlink experiment`` reads."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    w = WORKLOADS[name]
    return {
        "population": w["population"],
        "replicates": w["round_replicates"],
        "methods": ["umle", "cmle"],
        "master_seed": seed * ROUND_SEED_STRIDE,
        "parallelism": 1,
        "level": 0.95,
        "variance_source": "analytic",
    }
