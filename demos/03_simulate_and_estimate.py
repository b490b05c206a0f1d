"""One full pass: simulate a sample, estimate sizes both ways, report
variances and Wald intervals.

The population has 2000 people spread over a 10-site frame (4 sites sampled)
and 1000 people outside the frame.  Everyone links to each sampled site with
probability 0.3 (covered part) or 0.25 (uncovered part).
"""

import numpy as np

from snowlink import (
    ConditionalMultinomial,
    HomogeneousLinkModel,
    PopulationConfig,
    attach_variance,
    draw_sample,
    fit_total,
    replicate_rng,
)


def logit(p):
    return np.log(p / (1.0 - p))


config = PopulationConfig(
    N=10, n=4, cluster_mode=ConditionalMultinomial(2000), tau2=1000,
    model1=HomogeneousLinkModel(4), model2=HomogeneousLinkModel(4),
    theta1=np.full(4, logit(0.3)), theta2=np.full(4, logit(0.25)),
)

data, truth = draw_sample(config, replicate_rng(master_seed=7, index=0))
print(f"simulated: {data.m_total} people in the sampled sites, "
      f"{data.r1} covered people linked from outside, {data.r2} uncovered people linked")
print(f"hidden truth: tau1={truth.tau1}, tau2={truth.tau2}, tau={truth.tau}\n")

for method in ("umle", "cmle"):
    report = fit_total(data, config.model1, config.model2, method)
    attach_variance(report, data, config.model1, config.model2, level=0.95)
    v = report.variance
    print(f"{method}: tau1={report.tau1} tau2={report.tau2} tau={report.tau}")
    for name in ("tau1", "tau2", "tau"):
        lo, hi = v.intervals[name]
        print(f"   {name:>4}: 95% interval [{lo:8.1f}, {hi:8.1f}]")
    d = report.diagnostics["covered"]
    print(f"   covered-part solver: {d['iterations']} iterations, "
          f"{d['sweeps']} sweeps, score {d['grad_norm']:.1e}\n")
