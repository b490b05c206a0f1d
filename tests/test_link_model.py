import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowlink import (
    DimensionMismatch,
    DomainError,
    HomogeneousLinkModel,
    InvariantViolation,
    ParseError,
    QuadratureRule,
    RaschLinkModel,
    ScopeViolation,
    enumerate_patterns,
    model_from_spec,
)
from snowlink.link_model import DEFAULT_QUADRATURE_NODES

from conftest import (
    fd_gradient,
    homogeneous_probs_and_grads_product,
    homogeneous_zero_prob_and_grad_product,
    mixture_prob_trapezoid,
    pattern_grad,
    pattern_prob,
    rasch_probs_and_grads_loop,
    rasch_zero_prob_and_grad_loop,
)


def test_quadrature_rule_moments():
    for k in (10, 30, DEFAULT_QUADRATURE_NODES):
        rule = QuadratureRule.gauss_hermite(k)
        assert abs(rule.weights.sum() - 1.0) <= 1e-12
        assert abs((rule.weights * rule.nodes).sum()) <= 1e-10
        assert abs((rule.weights * rule.nodes**2).sum() - 1.0) <= 1e-8


def test_homogeneous_fair_coin_pattern():
    model = HomogeneousLinkModel(2)
    theta = np.zeros(2)  # p = (0.5, 0.5)
    assert pattern_prob(model, theta, 0b01) == pytest.approx(0.25, abs=1e-15)


def test_homogeneous_gradient_is_logistic_derivative():
    model = HomogeneousLinkModel(1)
    grad = pattern_grad(model, np.zeros(1), 0b1)
    assert grad[0] == pytest.approx(0.25, abs=1e-15)


def test_zero_pattern_probabilities():
    model = HomogeneousLinkModel(2)
    theta = np.log(np.array([0.3, 0.3]) / 0.7)
    p0, g0 = model.zero_prob_and_grad(theta)
    assert p0 == pytest.approx(0.49, abs=1e-12)
    rasch = RaschLinkModel(2, quadrature_nodes=40)
    p0r, _ = rasch.zero_prob_and_grad(np.array([0.0, 0.0, 0.0]))
    assert p0r == pytest.approx(0.25, abs=1e-12)


def test_mixing_inflates_zero_pattern_mass():
    # spread sigma=2 pushes mass toward extreme patterns, so the all-zero
    # pattern gains over the sigma=0 product value 0.25
    rasch = RaschLinkModel(2)
    p0, _ = rasch.zero_prob_and_grad(np.array([0.0, 0.0, 2.0]))
    oracle = mixture_prob_trapezoid(np.zeros(2), 2.0, 0b00, 2)
    assert p0 == pytest.approx(oracle, abs=1e-8)
    assert p0 > 0.25


def test_rasch_matches_dense_integration():
    rasch = RaschLinkModel(2)
    value = pattern_prob(rasch, np.array([0.0, 0.0, 1.0]), 0b11)
    oracle = mixture_prob_trapezoid(np.zeros(2), 1.0, 0b11, 2)
    assert value == pytest.approx(oracle, abs=1e-8)


def test_rasch_sigma_zero_equals_homogeneous():
    rng = np.random.default_rng(5)
    for n in (1, 3, 8):
        alpha = rng.uniform(-2, 2, n)
        rasch = RaschLinkModel(n, quadrature_nodes=40)
        homog = HomogeneousLinkModel(n)
        pats = enumerate_patterns(n)
        pr, _ = rasch.probs_and_grads(np.concatenate([alpha, [0.0]]), pats)
        ph, _ = homog.probs_and_grads(alpha, pats)
        assert np.max(np.abs(pr - ph)) <= 1e-12


@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
def test_normalization_and_gradient_sum(family, rng):
    for trial in range(10):
        n = int(rng.integers(1, 9))
        if family == "homogeneous":
            model = HomogeneousLinkModel(n)
            theta = rng.uniform(-2, 2, model.q)
        else:
            model = RaschLinkModel(n, quadrature_nodes=40)
            theta = rng.uniform(-2, 2, model.q)
            theta[-1] = rng.uniform(0, 2)
        probs, grads = model.probs_and_grads(theta, enumerate_patterns(n))
        assert abs(probs.sum() - 1.0) <= 1e-10
        assert np.max(np.abs(grads.sum(axis=0))) <= 1e-10
        for l in range(n):
            pw, gw = model.probs_and_grads(theta, enumerate_patterns(n, l),
                                           within_site=l)
            assert abs(pw.sum() - 1.0) <= 1e-10
            assert np.max(np.abs(gw.sum(axis=0))) <= 1e-10


def test_gradients_match_finite_differences(rng):
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            model = HomogeneousLinkModel(n)
            theta = rng.uniform(-2, 2, model.q)
        else:
            model = RaschLinkModel(n, quadrature_nodes=40)
            theta = rng.uniform(-2, 2, model.q)
            theta[-1] = rng.uniform(0.1, 2)
        x = int(rng.integers(0, 1 << n))
        grad = pattern_grad(model, theta, x)
        fd = fd_gradient(lambda th: pattern_prob(model, th, x), theta)
        worst = max(worst, np.max(np.abs(grad - fd) / (1.0 + np.abs(fd))))
    assert worst <= 1e-6


def test_rasch_within_scope_gradient(rng):
    model = RaschLinkModel(3, quadrature_nodes=40)
    theta = np.array([0.3, -0.2, 0.5, 0.7])
    grad = pattern_grad(model, theta, 0b100, within_site=0)
    fd = fd_gradient(lambda th: pattern_prob(model, th, 0b100, within_site=0), theta)
    assert np.max(np.abs(grad - fd)) <= 1e-8
    assert grad[0] == 0.0  # own-site coordinate inert


@pytest.mark.parametrize("sigma", [0.0, 0.7, 2.0])
def test_rasch_kernel_matches_node_loop(sigma):
    # n = 13 has 8192 between-site patterns: the kernel's row blocks split them
    rng = np.random.default_rng(int(10 * sigma))
    for n in (1, 2, 4, 7, 13):
        model = RaschLinkModel(n)
        theta = np.concatenate([rng.uniform(-3.0, 2.0, n), [sigma]])
        for site in (None, 0, n - 1):
            pats = enumerate_patterns(n, site)
            probs, grads = model.probs_and_grads(theta, pats, within_site=site)
            ref_probs, ref_grads = rasch_probs_and_grads_loop(model, theta, pats, site)
            assert np.max(np.abs(probs - ref_probs)) <= 1e-15
            assert np.max(np.abs(grads - ref_grads)) <= 1e-15
        p0, g0 = model.zero_prob_and_grad(theta)
        ref_p0, ref_g0 = rasch_zero_prob_and_grad_loop(model, theta)
        assert abs(p0 - ref_p0) <= 1e-15
        assert np.max(np.abs(g0 - ref_g0)) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 4, 7, 16])
def test_homogeneous_kernel_equals_product_formula(n):
    # the mixture kernel at K = 1 must reproduce the per-site product bit for
    # bit: the golden report pins full-precision floats computed from it
    rng = np.random.default_rng(100 + n)
    model = HomogeneousLinkModel(n)
    theta = rng.uniform(-3.0, 2.0, n)
    for site in (None, *range(n)):
        pats = enumerate_patterns(n, site)
        probs, grads = model.probs_and_grads(theta, pats, within_site=site)
        ref_probs, ref_grads = homogeneous_probs_and_grads_product(theta, pats, n, site)
        assert np.array_equal(probs, ref_probs)
        assert np.array_equal(grads, ref_grads)
    p0, g0 = model.zero_prob_and_grad(theta)
    ref_p0, ref_g0 = homogeneous_zero_prob_and_grad_product(theta)
    assert p0 == ref_p0
    assert np.array_equal(g0, ref_g0)


def _relabelled(x, perm):
    """Pattern ``x`` with new site ``i`` taking the bit of old site ``perm[i]``."""
    return sum(((x >> int(old)) & 1) << i for i, old in enumerate(perm))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["homogeneous", "rasch"]),
       perm=st.integers(1, 5).flatmap(lambda n: st.permutations(range(n))),
       scope=st.integers(-1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_relabelling_sites_permutes_bits_and_gradients(family, perm, scope, seed):
    n = len(perm)
    rng = np.random.default_rng(seed)
    if family == "homogeneous":
        model = HomogeneousLinkModel(n)
        theta = rng.uniform(-2.0, 2.0, n)
    else:
        model = RaschLinkModel(n, quadrature_nodes=30)
        theta = np.concatenate([rng.uniform(-2.0, 2.0, n), [rng.uniform(0.0, 2.0)]])
    perm = np.array(perm)
    # the site parameters follow their sites; the non-site ones stay put
    theta_new = np.concatenate([theta[perm], theta[n:]])
    old_site = scope if 0 <= scope < n else None
    new_site = None if old_site is None else int(np.flatnonzero(perm == old_site)[0])
    pats = np.array(enumerate_patterns(n, old_site))
    new_pats = np.array([_relabelled(int(x), perm) for x in pats])
    probs, grads = model.probs_and_grads(theta, pats, within_site=old_site)
    new_probs, new_grads = model.probs_and_grads(theta_new, new_pats, within_site=new_site)
    assert np.allclose(new_probs, probs, rtol=1e-12, atol=0.0)
    assert np.allclose(new_grads[:, :n], grads[:, perm], rtol=1e-12, atol=1e-15)
    assert np.allclose(new_grads[:, n:], grads[:, n:], rtol=1e-12, atol=1e-15)
    p0, g0 = model.zero_prob_and_grad(theta)
    new_p0, new_g0 = model.zero_prob_and_grad(theta_new)
    assert new_p0 == pytest.approx(p0, rel=1e-12)
    assert np.allclose(new_g0, np.concatenate([g0[perm], g0[n:]]), rtol=1e-12, atol=1e-15)


def test_quadrature_convergence_at_default():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(1, 7))
        theta = rng.uniform(-2, 2, n + 1)
        theta[-1] = rng.uniform(0, 2)
        coarse = RaschLinkModel(n, quadrature_nodes=DEFAULT_QUADRATURE_NODES)
        fine = RaschLinkModel(n, quadrature_nodes=2 * DEFAULT_QUADRATURE_NODES)
        x = int(rng.integers(0, 1 << n))
        assert pattern_prob(coarse, theta, x) == pytest.approx(
            pattern_prob(fine, theta, x), abs=1e-9
        )


def test_scope_violation():
    model = HomogeneousLinkModel(3)
    with pytest.raises(ScopeViolation):
        pattern_prob(model, np.zeros(3), 0b001, within_site=0)


def test_dimension_mismatch_and_negative_spread():
    model = HomogeneousLinkModel(3)
    with pytest.raises(DimensionMismatch):
        pattern_prob(model, np.zeros(2), 0b001)
    rasch = RaschLinkModel(2)
    with pytest.raises(DomainError):
        rasch.validate_theta(np.array([0.0, 0.0, -0.5]))


@pytest.mark.parametrize("model, extra", [(HomogeneousLinkModel(3), []),
                                          (RaschLinkModel(3, 20), [0.0])])
def test_every_family_bounds_every_parameter(model, extra):
    # the site logits are free (-inf); the rasch spread is bounded by 0
    lower = model.lower_bounds
    assert lower.dtype == np.float64 and lower.shape == (model.q,)
    assert np.array_equal(lower, [-np.inf] * 3 + extra)
    # a vector on or above every bound passes; -inf is refused as non-finite,
    # never as below its bound
    low = np.r_[np.full(3, -1e308), extra]
    assert np.array_equal(model.validate_theta(low), low)
    with pytest.raises(DomainError, match="^parameter vector has non-finite entries$"):
        model.validate_theta(np.r_[-np.inf, np.zeros(model.q - 1)])


@pytest.mark.parametrize("cls, args, field", [
    (HomogeneousLinkModel, (2.5,), "n"),
    (HomogeneousLinkModel, (True,), "n"),
    (HomogeneousLinkModel, (2**63,), "n"),
    (RaschLinkModel, (2.5,), "n"),
    (RaschLinkModel, (2, 2.5), "quadrature_nodes"),
    (RaschLinkModel, (2, True), "quadrature_nodes"),
])
def test_constructors_refuse_what_int_would_truncate(cls, args, field):
    with pytest.raises(InvariantViolation, match=f"^{field} must be"):
        cls(*args)


def test_constructors_read_integral_floats_and_numpy_integers():
    model = RaschLinkModel(3.0, quadrature_nodes=np.int64(20))
    assert type(model.n) is int and (model.n, model.q, model.rule.size) == (3, 4, 20)
    assert type(HomogeneousLinkModel(np.uint8(2)).n) is int
    # a spec file's field keeps its own error
    with pytest.raises(ParseError, match="^n must be an integer"):
        model_from_spec({"family": "homogeneous", "n": 2.5})


@pytest.mark.parametrize("k", [371, 372, 400, 1000])
def test_quadrature_refuses_a_rule_numpy_cannot_give(k):
    # at 371 nodes numpy's weights all underflow to 0, and from 372 its rule
    # overflows on its way to NaN weights; both are refused by count, with
    # no RuntimeWarning on the way
    message = f"^numpy gives no usable Gauss-Hermite rule of {k} nodes$"
    with pytest.raises(DomainError, match=message):
        RaschLinkModel(2, quadrature_nodes=k)
    assert RaschLinkModel(2, quadrature_nodes=370).rule.size == 370
    # a one-node rule has no second moment
    with pytest.raises(DomainError, match="^node count must be >= 2, got 1$"):
        RaschLinkModel(2, quadrature_nodes=1)


@pytest.mark.parametrize("where", [0, 3])
def test_quadrature_moment_checks_fail_on_nan(where):
    rule = QuadratureRule.gauss_hermite(6)
    weights = rule.weights.copy()
    weights[where] = np.nan
    with pytest.raises(InvariantViolation, match="do not sum to 1"):
        QuadratureRule(nodes=rule.nodes, weights=weights)
    nodes = rule.nodes.copy()
    nodes[where] = np.nan
    with pytest.raises(InvariantViolation, match="first moment"):
        QuadratureRule(nodes=nodes, weights=rule.weights)


def test_model_from_spec_round_trip():
    model = model_from_spec({"family": "rasch", "n": 3, "quadrature_nodes": 48})
    assert model.spec() == {"family": "rasch", "n": 3, "quadrature_nodes": 48}
    homog = model_from_spec({"family": "homogeneous", "n": 2})
    assert homog.spec() == {"family": "homogeneous", "n": 2}


# ---------------------------------------------------------------------------
# The model's memo of its last parameter vector


def _fresh(model):
    if isinstance(model, RaschLinkModel):
        return RaschLinkModel(model.n, quadrature_nodes=model.rule.size)
    return HomogeneousLinkModel(model.n)


def _random_theta(rng, model):
    theta = rng.uniform(-2.0, 2.0, model.q)
    theta[model.n:] = rng.uniform(0.0, 2.0, model.q - model.n)
    return theta


def _kernel_bytes(model, theta, scope, pats):
    probs, grads = model.probs_and_grads(theta, pats, within_site=scope)
    p0, g0 = model.zero_prob_and_grad(theta)
    info = model.information(theta, within_site=scope)
    return probs.tobytes(), grads.tobytes(), float(p0).hex(), g0.tobytes(), info.tobytes()


@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
def test_memo_results_are_those_of_a_fresh_model(family):
    rng = np.random.default_rng(2024)
    n = 4
    make = (lambda: HomogeneousLinkModel(n)) if family == "homogeneous" else (
        lambda: RaschLinkModel(n, quadrature_nodes=20))
    models = (make(), make())
    spaces = {scope: np.array(enumerate_patterns(n, scope))
              for scope in [None, *range(n)]}
    caller = _random_theta(rng, models[0])
    thetas = [_random_theta(rng, models[0]) for _ in range(4)]
    for step in range(120):
        model = models[step % 2 if step < 60 else int(rng.integers(2))]
        kind = int(rng.integers(4))
        if kind == 0:  # a new vector
            theta = _random_theta(rng, model)
        elif kind == 1:  # a repeat of an earlier one
            theta = thetas[int(rng.integers(len(thetas)))]
        else:  # the caller's own array, changed in place since the last call
            caller[int(rng.integers(model.q))] += rng.normal() if kind == 2 else 0.0
            caller[n:] = np.abs(caller[n:])
            theta = caller
        thetas.append(theta.copy())
        for scope, space in spaces.items():
            pats = rng.choice(space, size=int(rng.integers(1, len(space) + 1)))
            assert _kernel_bytes(model, theta, scope, pats) == _kernel_bytes(
                _fresh(model), theta.copy(), scope, pats)
        # a list, and the same vector again from another array, hit the memo
        for same in (list(theta), theta.copy()):
            assert _kernel_bytes(model, same, None, spaces[None]) == _kernel_bytes(
                _fresh(model), theta.copy(), None, spaces[None])


@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
def test_mutating_returned_arrays_changes_no_later_result(family):
    model = HomogeneousLinkModel(3) if family == "homogeneous" else RaschLinkModel(3, 20)
    theta = np.r_[-0.5, 0.2, 1.0, [0.7] * (model.q - 3)]
    pats = enumerate_patterns(3)
    before = _kernel_bytes(model, theta, None, pats)
    probs, grads = model.probs_and_grads(theta, pats)
    p0, g0 = model.zero_prob_and_grad(theta)
    probs[:] = grads[:] = g0[:] = np.nan
    for scope in (None, 0, 2):
        model.probs_and_grads(theta, enumerate_patterns(3, scope), within_site=scope)[1][:] = 7.0
        model.information(theta, within_site=scope)[:] = 7.0
    assert _kernel_bytes(model, theta, None, pats) == before


@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
def test_memoized_bytes_in_another_shape_are_refused(family):
    model = HomogeneousLinkModel(3) if family == "homogeneous" else RaschLinkModel(3, 20)
    theta = np.r_[-0.5, 0.2, 1.0, [0.7] * (model.q - 3)]
    model.zero_prob_and_grad(theta)
    message = rf"^expected parameter vector of length {model.q}, got shape \({model.q}, 1\)$"
    with pytest.raises(DimensionMismatch, match=message):
        model.probs_and_grads(theta[:, None], [1])
    with pytest.raises(DimensionMismatch, match=message):
        model.zero_prob_and_grad(theta[:, None])
    # an invalid vector is refused every time, never remembered
    bad = theta.copy()
    bad[0] = np.nan
    for _ in range(2):
        with pytest.raises(DomainError, match="non-finite"):
            model.zero_prob_and_grad(bad)
    if family == "rasch":
        bad = theta.copy()
        bad[-1] = -0.5
        for _ in range(2):
            with pytest.raises(DomainError, match=r"^parameter 3 must be >= 0.0, got -0.5$"):
                model.probs_and_grads(bad, [1])


@pytest.mark.parametrize("family", ["homogeneous", "rasch"])
@pytest.mark.parametrize("n", [1, 3, 63])
def test_patterns_outside_their_scope_are_refused(family, n):
    model = HomogeneousLinkModel(n) if family == "homogeneous" else RaschLinkModel(n, 20)
    theta = np.r_[np.full(n, -1.0), [0.7] * (model.q - n)]
    model.zero_prob_and_grad(theta)  # the memo holds theta from here on
    own = rf"^within-site pattern for site {n - 1} has its own-site bit set$"
    out_of_range = rf"^pattern out of range for n={n}$"
    cases = [
        (None, [0, 1 << n if n < 63 else -1], InvariantViolation, out_of_range),
        (None, [-1], InvariantViolation, out_of_range),
        (n - 1, [0, 1 << (n - 1)], ScopeViolation, own),
        # a negative pattern has every high bit set, its own site's among them
        (n - 1, [-1], ScopeViolation, own),
        (n, [0], ScopeViolation, rf"^within-site index {n} out of range for n={n}$"),
        (-1, [0], ScopeViolation, rf"^within-site index -1 out of range for n={n}$"),
    ]
    if n > 1:
        # own-site bit clear but out of range: the range check speaks
        cases.append((0, [-2], InvariantViolation, out_of_range))
        if n < 63:
            cases.append((0, [1 << n], InvariantViolation, out_of_range))
    for scope, pats, error, message in cases:
        with pytest.raises(error, match=message):
            model.probs_and_grads(theta, np.array(pats, dtype=np.int64), within_site=scope)
    # the information refuses a scope index in the same words
    for scope in (n, -1):
        with pytest.raises(ScopeViolation, match=rf"^within-site index {scope} out of range"):
            model.information(theta, within_site=scope)
    # the highest pattern of the scope is accepted
    top = (1 << n) - 1 if n < 63 else np.iinfo(np.int64).max
    assert model.probs_and_grads(theta, [top])[0][0] > 0.0
    assert model.probs_and_grads(theta, [top & ~1 if n > 1 else 0], within_site=0)[0][0] > 0.0
