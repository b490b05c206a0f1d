"""The two link-probability families and their guarantees.

The homogeneous family assigns each site a logit; pattern probabilities are
simple products.  The random-effect family adds a person-level normal effect
with spread sigma, evaluated by a shared Gauss-Hermite rule, and collapses to
the homogeneous family exactly at sigma = 0.
"""

import numpy as np

from snowlink import HomogeneousLinkModel, RaschLinkModel, enumerate_patterns

n = 3
alpha = np.array([-0.8, -0.3, -1.2])

homog = HomogeneousLinkModel(n)
print("homogeneous pattern probabilities (logits", alpha, "):")
pats = enumerate_patterns(n)
probs, grads = homog.probs_and_grads(alpha, pats)
for x, p in zip(pats, probs):
    print(f"  {x:03b}: {p:.6f}")
print(f"  sum = {probs.sum():.15f}")
print(f"  gradient columns sum to {np.abs(grads.sum(axis=0)).max():.2e} (exact zero up to rounding)")

print("\nmixing over a person effect moves mass to the extreme patterns:")
rasch = RaschLinkModel(n)
for sigma in (0.0, 0.5, 1.0, 2.0):
    theta = np.concatenate([alpha, [sigma]])
    p0, _ = rasch.zero_prob_and_grad(theta)
    p_all = rasch.probs_and_grads(theta, [0b111])[0][0]
    print(f"  sigma={sigma:3.1f}: P(no links)={p0:.6f}  P(all links)={p_all:.6f}")

print("\nzero-spread collapse (worst absolute difference over all patterns):")
pr, _ = rasch.probs_and_grads(np.concatenate([alpha, [0.0]]), pats)
print(f"  {np.abs(pr - probs).max():.2e}")

print("\nquadrature stability: default rule vs a rule with twice the nodes")
fine = RaschLinkModel(n, quadrature_nodes=2 * rasch.rule.size)
theta = np.concatenate([alpha, [2.0]])
coarse_probs, _ = rasch.probs_and_grads(theta, pats)
fine_probs, _ = fine.probs_and_grads(theta, pats)
print(f"  worst difference at sigma=2: {np.abs(coarse_probs - fine_probs).max():.2e}")
