"""Fit-level invariances that the likelihood guarantees.

Scaling every count by ``k`` multiplies each log-likelihood by ``k``, so the
conditional parameter fit stays put and the ratio sizes ``(m + r)/(1 - f pi0)``
scale by ``k``.  Relabelling the sites permutes the site parameters and
changes no size.  The samples come from moderate designs through
``draw_sample``: tiny random maps often leave a site logit with no finite
maximum, and the solver then stops at a point that depends on its path, so
such samples have no unique answer to compare.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from snowlink import (
    HomogeneousLinkModel,
    RaschLinkModel,
    SampleData,
    fit_total,
)
from snowlink.simulator import ConditionalMultinomial, PopulationConfig, draw_sample


@st.composite
def drawn_samples(draw):
    """A sample of a design with n in 2..5, tau1 in 300..1500, either family,
    and a 20- to 40-node rule; returns ``(data, model)``.

    A rasch design has at least three sites: with two, the uncovered part's
    three parameters meet two free cell ratios and have no unique maximizer.
    """
    family = draw(st.sampled_from(["homogeneous", "rasch"]))
    n = draw(st.integers(2 if family == "homogeneous" else 3, 5))
    N = draw(st.integers(n + 1, 4 * n))
    tau1 = draw(st.integers(300, 1500))
    nodes = draw(st.integers(20, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = rng.uniform(-1.5, -0.3, n)
    if family == "homogeneous":
        model, theta = HomogeneousLinkModel(n), alpha
    else:
        model = RaschLinkModel(n, quadrature_nodes=nodes)
        theta = np.concatenate([alpha, [rng.uniform(0.3, 1.0)]])
    config = PopulationConfig(N=N, n=n, cluster_mode=ConditionalMultinomial(tau1),
                              tau2=tau1 // 2, model1=model, model2=model,
                              theta1=theta, theta2=theta)
    data, _ = draw_sample(config, rng)
    return data, model


def _scaled(data: SampleData, k: int) -> SampleData:
    def scale(counts):
        return {x: k * c for x, c in counts.items()}

    return SampleData(n=data.n, N=data.N, m=tuple(k * v for v in data.m),
                      between1=scale(data.between1),
                      within=tuple(scale(w) for w in data.within),
                      between2=scale(data.between2))


def _relabelled(data: SampleData, perm) -> SampleData:
    """New site ``i`` is old site ``perm[i]``."""
    def move(counts):
        return {sum(((x >> int(old)) & 1) << i for i, old in enumerate(perm)): c
                for x, c in counts.items()}

    return SampleData(n=data.n, N=data.N, m=tuple(data.m[p] for p in perm),
                      between1=move(data.between1),
                      within=tuple(move(data.within[p]) for p in perm),
                      between2=move(data.between2))


@settings(max_examples=15, deadline=None)
@given(sample=drawn_samples(), k=st.sampled_from([2, 3]))
def test_scaling_counts_keeps_cmle_theta_and_scales_sizes(sample, k):
    data, model = sample
    base = fit_total(data, model, model, "cmle")
    scaled = fit_total(_scaled(data, k), model, model, "cmle")
    np.testing.assert_allclose(scaled.theta1, base.theta1, rtol=0, atol=1e-7)
    np.testing.assert_allclose(scaled.theta2, base.theta2, rtol=0, atol=1e-7)
    np.testing.assert_allclose(scaled.tau1_real, k * base.tau1_real, rtol=1e-8)
    np.testing.assert_allclose(scaled.tau2_real, k * base.tau2_real, rtol=1e-8)


@settings(max_examples=15, deadline=None)
@given(sample=drawn_samples(), method=st.sampled_from(["cmle", "umle"]),
       data_perm=st.data())
def test_relabelling_sites_permutes_alpha_and_keeps_sizes(sample, method, data_perm):
    data, model = sample
    n = data.n
    perm = np.array(data_perm.draw(st.permutations(range(n))))
    base = fit_total(data, model, model, method)
    moved = fit_total(_relabelled(data, perm), model, model, method)
    for theta, theta_moved in ((base.theta1, moved.theta1), (base.theta2, moved.theta2)):
        np.testing.assert_allclose(theta_moved[:n], theta[:n][perm], rtol=0, atol=1e-7)
        np.testing.assert_allclose(theta_moved[n:], theta[n:], rtol=0, atol=1e-7)
    np.testing.assert_allclose(moved.tau1_real, base.tau1_real, rtol=1e-12)
    np.testing.assert_allclose(moved.tau2_real, base.tau2_real, rtol=1e-12)
    assert (moved.tau1, moved.tau2) == (base.tau1, base.tau2)
