"""A seeded Monte Carlo study over the full pipeline.

Every replicate simulates a sample, fits both methods, computes the
method-matched variances, and checks the Wald intervals against the hidden
truth.  The digest shows bias, the empirical/asymptotic SD ratio, coverage,
and the shape of the standardized residuals.  Reports land in ./mc_demo_out.

Replicates are seeded from (master_seed, index); reruns and any worker count
reproduce the same bytes.
"""

import numpy as np

from snowlink import (
    ConditionalMultinomial,
    ExperimentConfig,
    HomogeneousLinkModel,
    PopulationConfig,
    emit_reports,
    run_experiment,
)
from snowlink.experiments import render_digest


def logit(p):
    return np.log(p / (1.0 - p))


population = PopulationConfig(
    N=10, n=4, cluster_mode=ConditionalMultinomial(2000), tau2=1000,
    model1=HomogeneousLinkModel(4), model2=HomogeneousLinkModel(4),
    theta1=np.full(4, logit(0.3)), theta2=np.full(4, logit(0.25)),
)
config = ExperimentConfig(population=population, replicates=100,
                          methods=("umle", "cmle"), master_seed=20240817)

summary = run_experiment(config)
print(render_digest(summary))
paths = emit_reports(summary, "mc_demo_out")
print(f"wrote {paths['summary']}, {paths['csv']}, {paths['digest']}")
