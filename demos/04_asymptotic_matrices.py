"""Asymptotic precision matrices, the identity linking the two fitting
routes, scalar variances, and the sparse empirical covariance estimator.

The normalized size errors (tau_hat - tau)/sqrt(tau) converge to centered
normals whose variances the scalar formulas compute.  The conditional route
always has the (weakly) larger variance; the two nearly coincide when the
site sampling fraction n/N is small.
"""

import numpy as np

from snowlink import (
    ConditionalMultinomial,
    HomogeneousLinkModel,
    PopulationConfig,
    draw_sample,
    empirical_v_covariance,
    psi1_inverse,
    replicate_rng,
    sigma1_inverse,
    sigma1_sq_cmle,
    sigma1_sq_umle,
    sigma2_sq,
)


def logit(p):
    return np.log(p / (1.0 - p))


n, N = 4, 10
model = HomogeneousLinkModel(n)
theta = np.full(n, logit(0.3))

joint = sigma1_inverse(theta, model, n, N)
cond = psi1_inverse(theta, model, n, N)
print(f"joint precision matrix ({joint.inverse_form.shape[0]}x"
      f"{joint.inverse_form.shape[1]}), condition number {joint.condition_number:.1f}")
print(np.array_str(joint.inverse_form, precision=3))

pi0, g0 = model.zero_prob_and_grad(theta)
identity_rhs = (joint.inverse_form[1:, 1:]
                - (1 - n / N) / (pi0 * (1 - pi0)) * np.outer(g0, g0))
print("\nidentity: conditional precision = joint submatrix - rank-one correction")
print(f"  residual: {np.linalg.norm(cond.inverse_form - identity_rhs):.2e}")

for frame in (10, 40, 400):
    su = sigma1_sq_umle(theta, model, n, frame)
    sc = sigma1_sq_cmle(theta, model, n, frame)
    print(f"\nN={frame:3d} (sampling fraction {n/frame:.3f}): "
          f"unconditional variance {su:.4f}, conditional {sc:.4f}, "
          f"ratio {sc/su:.4f}")
print(f"\nuncovered-part variance at the same link level: "
      f"{sigma2_sq(np.full(n, logit(0.25)), model):.4f}")

print("\nempirical per-person-vector estimate at a simulated 100k population:")
config = PopulationConfig(N=N, n=n, cluster_mode=ConditionalMultinomial(100_000),
                          tau2=0, model1=model, model2=model,
                          theta1=theta, theta2=theta)
data, truth = draw_sample(config, replicate_rng(1, 0))
emp = empirical_v_covariance(data, theta, truth.tau1, model, "sigma1")
rel = (np.linalg.norm(emp.inverse_form - joint.inverse_form)
       / np.linalg.norm(joint.inverse_form))
print(f"  relative Frobenius distance to the analytic matrix: {rel:.4f}")
