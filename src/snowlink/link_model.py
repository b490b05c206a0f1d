"""Parametric families for link-pattern probabilities.

Every family is a finite mixture of conditionally independent logit models.
Given a latent node ``k`` of weight ``w_k``, a person links to sampled site
``j`` independently with probability ``e_jk = expit(alpha_j + c_k)``, so a
pattern ``x`` has probability

    pi(x) = sum_k w_k prod_j e_jk^x_j (1 - e_jk)^(1 - x_j).

The parameter vector holds the site logits ``alpha_1..alpha_n`` followed by
the family's non-site parameters.  The kernel is written once, on
:class:`MixtureLinkModel`: the probability and analytic gradient of a pattern,
a vectorized variant over many patterns, and an O(n) shortcut for the all-zero
pattern.  A family supplies only its node offsets ``c`` with their Jacobian in
the non-site parameters, its fixed node weights ``w``, the lower bounds and
starting values of its non-site parameters, and its generative draw.

- ``homogeneous``: every person has the same per-site link probability;
  ``K = 1``, ``c = 0``, ``w = 1`` and no non-site parameters.
- ``rasch``: a normal person effect on the logit scale with spread
  ``sigma >= 0`` (starting value 0.5); ``c_k = sigma z_k`` and
  ``dc_k/dsigma = z_k`` over the nodes ``z_k`` and weights ``w_k`` of a fixed
  probabilists' Gauss-Hermite rule shared by every pattern, so the
  probabilities over a pattern space always sum to one exactly (up to
  rounding), and ``sigma = 0`` reproduces the homogeneous family.

Each evaluation comes in a between-site scope (all ``n`` sites participate)
and a within-site scope for site ``l`` (site ``l``'s factor is skipped and its
gradient coordinate is zero).

The number of quadrature nodes is configurable.  The default of 100 nodes
keeps the worst-case absolute error of the mixture integrals below 1e-11 for
spreads up to 2; 30 nodes, for comparison, only reaches about 1e-5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import expit, log_expit

from .errors import (
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    ParseError,
    ScopeViolation,
)
from .patterns import MAX_SITES

DEFAULT_QUADRATURE_NODES = 100

#: Pattern-by-node entries per block of the kernel (4096 patterns at 100
#: nodes).  Each block holds a few (rows x nodes) temporaries, so memory stays
#: flat for any pattern count: unblocked, the 2^20 patterns of an n = 20
#: enumeration at 100 nodes would need about 0.8 GB per temporary.
_BLOCK_ENTRIES = 4096 * 100


@dataclass(frozen=True)
class QuadratureRule:
    """Probabilists' Gauss-Hermite nodes and weights, normalized so that the
    weights sum to one against the standard normal density."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        w, z = self.weights, self.nodes
        if abs(w.sum() - 1.0) > 1e-12:
            raise InvariantViolation("quadrature weights do not sum to 1")
        if abs((w * z).sum()) > 1e-10:
            raise InvariantViolation("quadrature first moment is not 0")
        if abs((w * z * z).sum() - 1.0) > 1e-8:
            raise InvariantViolation("quadrature second moment is not 1")

    @property
    def size(self) -> int:
        return len(self.nodes)

    @classmethod
    def gauss_hermite(cls, k: int) -> "QuadratureRule":
        if k < 1:
            raise DomainError(f"node count must be >= 1, got {k}")
        z, w = hermegauss(k)
        return cls(nodes=z, weights=w / np.sqrt(2.0 * np.pi))


class MixtureLinkModel:
    """The mixture kernel shared by every family.

    A family sets ``family``, the non-site ``extra_lower`` bounds and
    ``extra_start`` values, passes its node weights to ``__init__``, and
    implements :meth:`_offsets` and :meth:`_draw_offsets`.
    """

    extra_lower: tuple = ()
    extra_start: tuple = ()

    def __init__(self, n: int, weights: np.ndarray):
        if not 1 <= n <= MAX_SITES:
            raise DomainError(f"need 1 <= n <= {MAX_SITES}: a pattern bitmask holds "
                              f"at most {MAX_SITES} sites, got n={n}")
        self.n = n
        self.q = n + len(self.extra_lower)
        self._weights = weights
        # the participating sites of each scope: all of them, or all but one
        sites = np.arange(n)
        self._scope_sites = {None: sites,
                             **{l: np.delete(sites, l) for l in range(n)}}
        #: lower bounds of the whole parameter vector, None when all are free
        self.lower_bounds = (
            np.concatenate([np.full(n, -np.inf), self.extra_lower])
            if self.extra_lower else None)

    def _offsets(self, extra: np.ndarray):
        """Node offsets ``c`` as a (K, 1) column and their Jacobian (K, q - n)
        in the non-site parameters ``extra``."""
        raise NotImplementedError

    def _draw_offsets(self, extra: np.ndarray, count: int, rng):
        """Logit offsets of ``count`` people, broadcastable to (count, n)."""
        raise NotImplementedError

    def validate_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.q,):
            raise DimensionMismatch(
                f"expected parameter vector of length {self.q}, got shape {theta.shape}"
            )
        if not np.isfinite(theta).all():
            raise DomainError("parameter vector has non-finite entries")
        lower = self.lower_bounds
        if lower is not None and np.any(theta < lower):
            j = int(np.argmax(theta < lower))
            raise DomainError(f"parameter {j} must be >= {lower[j]}, got {theta[j]}")
        return theta

    def probs_and_grads(self, theta, patterns, within_site=None):
        """Probabilities and gradients for an array of patterns.

        Returns ``(probs, grads)`` with shapes ``(P,)`` and ``(P, q)``.  Each
        block of patterns takes every node in one matrix product.  With ``X``
        the pattern bits, ``wF`` the weighted conditional pattern
        probabilities (patterns x nodes) and ``E = expit(A)`` the node link
        probabilities (nodes x sites), the ``alpha`` gradient is
        ``X * (wF (1 - E)) - (1 - X) * (wF E)``, node by node and so exact for
        ``K = 1``; the non-site gradient is ``(wF * (s - sum_j E_j)) dc`` with
        ``s`` the pattern's link count and ``dc`` the offset Jacobian.
        """
        theta = self.validate_theta(theta)
        n = self.n
        xs = np.atleast_1d(np.asarray(patterns, dtype=np.int64))
        try:
            sites = self._scope_sites[within_site]
        except KeyError:
            raise ScopeViolation(
                f"within-site index {within_site} out of range for n={n}") from None
        if within_site is not None and ((xs >> within_site) & 1).any():
            raise ScopeViolation(
                f"within-site pattern for site {within_site} has its own-site bit set")
        if (xs >> n).any():
            raise InvariantViolation(f"pattern out of range for n={n}")
        c, dc = self._offsets(theta[n:])
        # node logits, node-major: (nodes, participating sites)
        A = theta[sites] + c
        log_e_T, log_1me_T = log_expit(A).T, log_expit(-A).T
        E = expit(A)
        E_T, Ec_T = E.T, (1.0 - E).T
        E_sum = np.add.reduce(E, axis=1) if dc.shape[1] else None
        w = self._weights
        probs = np.empty(len(xs))
        grads = np.zeros((len(xs), self.q))
        block = _BLOCK_ENTRIES // len(w)
        for lo in range(0, len(xs), block):
            rows = slice(lo, lo + block)
            # column-major bits, the layout the BLAS products are summed in
            Xa = ((xs[rows] >> sites[:, None]) & 1).T.astype(float)
            Xc = 1.0 - Xa
            wF = np.exp(np.dot(Xa, log_e_T) + np.dot(Xc, log_1me_T)) * w
            probs[rows] = np.add.reduce(wF, axis=1)
            if E_sum is not None:
                grads[rows, n:] = np.dot(wF * (Xa.sum(axis=1)[:, None] - E_sum), dc)
            # the alpha gradient, site-major to match the bits' layout; the
            # (1 - X) term overwrites the bits, so that a call allocates, and
            # faults in, one (rows x sites) temporary fewer
            wF_T = wF.T
            G = np.dot(Ec_T, wF_T)
            G *= Xa.T
            G0 = np.dot(E_T, wF_T, out=Xa.T)
            G0 *= Xc.T
            G -= G0
            grads[rows, sites] = G.T
        return probs, grads

    def pattern_prob(self, theta, x: int, within_site=None) -> float:
        probs, _ = self.probs_and_grads(theta, [x], within_site)
        return float(probs[0])

    def pattern_grad(self, theta, x: int, within_site=None) -> np.ndarray:
        _, grads = self.probs_and_grads(theta, [x], within_site)
        return grads[0]

    def zero_prob_and_grad(self, theta):
        """Probability and gradient of the all-zero pattern, in O(n K)."""
        theta = self.validate_theta(theta)
        n = self.n
        c, dc = self._offsets(theta[n:])
        # site-major here, so that the sums run across the nodes at once
        A = theta[:n, None] + c.T
        E = expit(A)
        wF = np.exp(np.add.reduce(log_expit(-A), axis=0)) * self._weights
        grad = np.dot(E, -wF)
        if dc.shape[1]:
            grad = np.concatenate([grad, np.dot(dc.T * -wF, np.add.reduce(E, axis=0))])
        return float(np.add.reduce(wF)), grad

    def draw_links(self, theta, count: int, rng) -> np.ndarray:
        """Link indicators (count x n) of ``count`` people drawn from the
        generative form: each person's logit offset, then one uniform per site."""
        theta = np.asarray(theta, dtype=float)
        offsets = self._draw_offsets(theta[self.n:], count, rng)
        return rng.random((count, self.n)) < expit(theta[:self.n] + offsets)

    def spec(self) -> dict:
        return {"family": self.family, "n": self.n}


_NO_OFFSET = (np.zeros((1, 1)), np.zeros((1, 0)))


class HomogeneousLinkModel(MixtureLinkModel):
    """Independent per-site Bernoulli links with person-independent probabilities.

    Parameters are the ``n`` per-site logits; the probability of a pattern is
    the product of the per-site factors it selects (one node, ``c = 0``).
    """

    family = "homogeneous"

    def __init__(self, n: int):
        super().__init__(n, np.ones(1))

    def _offsets(self, extra):
        return _NO_OFFSET

    def _draw_offsets(self, extra, count, rng):
        return 0.0


class RaschLinkModel(MixtureLinkModel):
    """Site effects plus a normal person effect on the logit scale.

    Parameters are ``(alpha_1, ..., alpha_n, sigma)`` with ``sigma >= 0``; the
    boundary ``sigma = 0`` is admitted and reproduces the homogeneous family
    exactly.  Pattern probabilities mix the conditional product over a shared
    Gauss-Hermite rule, and gradients differentiate under the same node sum.
    """

    family = "rasch"
    extra_lower = (0.0,)
    extra_start = (0.5,)

    def __init__(self, n: int, quadrature_nodes: int = DEFAULT_QUADRATURE_NODES):
        self.rule = QuadratureRule.gauss_hermite(quadrature_nodes)
        self._jacobian = self.rule.nodes[:, None]
        super().__init__(n, self.rule.weights)

    def _offsets(self, extra):
        return extra[0] * self._jacobian, self._jacobian

    def _draw_offsets(self, extra, count, rng):
        return extra[0] * rng.standard_normal(count)[:, None]

    def spec(self) -> dict:
        return {**super().spec(), "quadrature_nodes": self.rule.size}


def model_from_spec(spec: dict):
    """Construct a link model from its configuration mapping.

    The mapping carries ``family`` ("homogeneous" or "rasch"), ``n``, and for
    the random-effect family an optional ``quadrature_nodes``.
    """
    try:
        family = spec["family"]
        n = int(spec["n"])
        if family == "rasch":
            nodes = int(spec.get("quadrature_nodes", DEFAULT_QUADRATURE_NODES))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model spec {spec!r}: {exc}") from exc
    if family == "homogeneous":
        return HomogeneousLinkModel(n)
    if family == "rasch":
        return RaschLinkModel(n, quadrature_nodes=nodes)
    raise ParseError(f"unknown link-model family {family!r}")
