"""Parametric families for link-pattern probabilities.

Every family is a finite mixture of conditionally independent logit models.
Given a latent node ``k`` of weight ``w_k``, a person links to sampled site
``j`` independently with probability ``e_jk = expit(alpha_j + c_k)``, so a
pattern ``x`` has probability

    pi(x) = sum_k w_k prod_j e_jk^x_j (1 - e_jk)^(1 - x_j).

The parameter vector holds the site logits ``alpha_1..alpha_n`` followed by
the family's non-site parameters.  The kernel is written once, on
:class:`MixtureLinkModel`, as three methods: the probabilities and analytic
gradients of an array of patterns, an O(n) shortcut for the all-zero
pattern, and the information of a whole pattern draw.  The last enumerates
no pattern: one offset per node is shared by every site, so ``log pi(x) =
x.alpha + h(s)`` with ``s`` the pattern's link total, and the information
needs only each node's Poisson-binomial law of ``s``, an n-step recursion.
A family supplies only its node offsets ``c`` with their Jacobian in the
non-site parameters, its fixed node weights ``w``, the lower bounds and
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

A model validates each parameter vector once and computes its node
quantities once: it keeps the offsets and the node-major ``expit`` and
``log_expit`` arrays of the last vector it saw, over all ``n`` sites, and
every kernel call on that vector takes its scope's columns of them, as the
all-zero pattern's probability and gradient, and what the information needs
of every scope, are kept once computed.  One likelihood evaluation, whatever
its number of tables, so evaluates the logistic functions once, and the
``n + 1`` information calls of a part's precision matrix run the recursion
of the link-total laws once.  Each result is bit for bit the one a fresh
model computes.

The logistic functions are numpy forms that never overflow: :func:`log_expit`
is ``-logaddexp(0, -x)``, and :func:`expit` is ``-expm1(log_expit(-x))``, so
a node state's link probabilities cost one ``expm1`` of the
``log_expit(-A)`` it keeps anyway.  The simulator draws through
:meth:`MixtureLinkModel.draw_links`.

The number of quadrature nodes is configurable.  Against a 300-node rule at
site logits -0.85, the largest relative error of a pattern probability
under the default 100 nodes is 1.6e-10 at n = 4 and 5.0e-5 at n = 16 for
``sigma = 2``, and it grows quickly with ``sigma`` and ``n``.  numpy cannot
give a rule of 371 nodes or more (at 371 its weights all underflow to 0,
from 372 they are NaN), and :meth:`QuadratureRule.gauss_hermite` refuses
such a count, as it refuses a one-node rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import (
    DimensionMismatch,
    DomainError,
    InvariantViolation,
    NonFiniteLikelihood,
    ParseError,
    ScopeViolation,
)
from .patterns import MAX_SITES, _parse_int

DEFAULT_QUADRATURE_NODES = 100

#: Pattern-by-node entries per block of the kernel (4096 patterns at 100
#: nodes).  Each block holds a few (rows x nodes) temporaries, so memory stays
#: flat for any pattern count: unblocked, the 2^20 patterns of an n = 20
#: enumeration at 100 nodes would need about 0.8 GB per temporary.
_BLOCK_ENTRIES = 4096 * 100


def log_expit(x):
    """``log(1 / (1 + exp(-x)))``, elementwise and finite for every finite ``x``."""
    return -np.logaddexp(0.0, -x)


def expit(x):
    """The logistic function ``1 / (1 + exp(-x))``, elementwise, as
    ``1 - exp(log_expit(-x))`` by ``expm1``, so it never overflows."""
    return -np.expm1(log_expit(-x))


@dataclass(frozen=True)
class QuadratureRule:
    """Probabilists' Gauss-Hermite nodes and weights, normalized so that the
    weights sum to one against the standard normal density."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # written so that a NaN fails each check
        w, z = self.weights, self.nodes
        if not abs(w.sum() - 1.0) <= 1e-12:
            raise InvariantViolation("quadrature weights do not sum to 1")
        if not abs((w * z).sum()) <= 1e-10:
            raise InvariantViolation("quadrature first moment is not 0")
        if not abs((w * z * z).sum() - 1.0) <= 1e-8:
            raise InvariantViolation("quadrature second moment is not 1")

    @property
    def size(self) -> int:
        return len(self.nodes)

    @classmethod
    def gauss_hermite(cls, k: int) -> "QuadratureRule":
        # one node (at 0) has no second moment
        if k < 2:
            raise DomainError(f"node count must be >= 2, got {k}")
        # at 371 nodes numpy's weights all underflow to 0, and from 372 its
        # rule overflows on its way to NaN weights
        z, w = np.errstate(all="ignore")(hermegauss)(k)
        if not (np.isfinite(z + w).all() and w.any()):
            raise DomainError(f"numpy gives no usable Gauss-Hermite rule of {k} nodes")
        return cls(nodes=z, weights=w / np.sqrt(2.0 * np.pi))


class _NodeState:
    """What one parameter vector fixes for every kernel call: its key, the
    offsets ``c`` and their Jacobian ``dc``, and node-major (nodes x all ``n``
    sites) ``log_expit(A)``, ``log_expit(-A)`` and ``expit(A)`` of the node
    logits ``A = alpha + c``.  ``zero`` holds the all-zero pattern's
    probability and gradient once they are asked for, and ``scopes`` what
    :meth:`MixtureLinkModel.information` needs of every scope (scope 0
    between sites, scope ``l + 1`` within site ``l``) once it is."""

    __slots__ = ("key", "dc", "log_e", "log_1me", "e", "zero", "scopes")

    def __init__(self, key, dc, log_e, log_1me, e):
        self.key, self.dc = key, dc
        self.log_e, self.log_1me, self.e = log_e, log_1me, e
        self.zero = self.scopes = None


class MixtureLinkModel:
    """The mixture kernel shared by every family.

    A family sets ``family``, the non-site ``extra_lower`` bounds and
    ``extra_start`` values, passes its node weights to ``__init__``, and
    implements :meth:`_offsets` and :meth:`_draw_offsets`.

    It keeps the :class:`_NodeState` of the last parameter vector it was
    given, keyed by the vector's shape and bytes.
    """

    extra_lower: tuple = ()
    extra_start: tuple = ()

    def __init__(self, n: int, weights: np.ndarray):
        self.n = n = _parse_int(n, "n", InvariantViolation)
        if not 1 <= n <= MAX_SITES:
            raise DomainError(f"need 1 <= n <= {MAX_SITES}: a pattern bitmask holds "
                              f"at most {MAX_SITES} sites, got n={n}")
        self.q = n + len(self.extra_lower)
        self._weights = weights
        # per scope: the participating sites, and the pattern bits it forbids
        # (those from n up, and a within-site scope's own site)
        sites = np.arange(n)
        beyond = ~((1 << n) - 1)
        self._scopes = {None: (sites, beyond),
                        **{l: (np.delete(sites, l), beyond | 1 << l) for l in range(n)}}
        #: lower bounds of the whole parameter vector, -inf where one is free
        self.lower_bounds = np.concatenate([np.full(n, -np.inf), self.extra_lower])
        self._memo = None

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
        below = theta < lower
        if below.any():
            j = int(np.argmax(below))
            raise DomainError(f"parameter {j} must be >= {lower[j]}, got {theta[j]}")
        return theta

    def _node_state(self, theta) -> _NodeState:
        """The memoized node quantities of ``theta``, computed and validated
        on a miss."""
        theta = np.asarray(theta, dtype=float)
        key = (theta.shape, theta.tobytes())
        state = self._memo
        if state is None or state.key != key:
            theta = self.validate_theta(theta)
            c, dc = self._offsets(theta[self.n:])
            A = theta[:self.n] + c
            log_1me = log_expit(-A)
            # expit(A) as expit computes it, from the log_expit(-A) at hand
            state = self._memo = _NodeState(key, dc, log_expit(A), log_1me,
                                            -np.expm1(log_1me))
        return state

    def _scope(self, within_site):
        """A scope's participating sites and the pattern bits it forbids."""
        if within_site not in self._scopes:
            raise ScopeViolation(f"within-site index {within_site} out of range for n={self.n}")
        return self._scopes[within_site]

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
        state = self._node_state(theta)
        n = self.n
        xs = np.atleast_1d(np.asarray(patterns, dtype=np.int64))
        sites, forbidden = self._scope(within_site)
        if (xs & forbidden).any():
            if within_site is not None and ((xs >> within_site) & 1).any():
                raise ScopeViolation(
                    f"within-site pattern for site {within_site} has its own-site bit set")
            raise InvariantViolation(f"pattern out of range for n={n}")
        dc = state.dc
        # the scope's columns of the node-major (nodes, sites) arrays, kept
        # C-ordered so that the BLAS products see the layout they always had
        log_e_T = state.log_e.take(sites, axis=1).T
        log_1me_T = state.log_1me.take(sites, axis=1).T
        E = state.e.take(sites, axis=1)
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

    def zero_prob_and_grad(self, theta):
        """Probability and gradient of the all-zero pattern, in O(n K)."""
        state = self._node_state(theta)
        if state.zero is None:
            # site-major here, so that the sums run across the nodes at once
            E = np.ascontiguousarray(state.e.T)
            log_1me = np.ascontiguousarray(state.log_1me.T)
            wF = np.exp(np.add.reduce(log_1me, axis=0)) * self._weights
            grad = np.dot(E, -wF)
            dc = state.dc
            if dc.shape[1]:
                grad = np.concatenate([grad, np.dot(dc.T * -wF, np.add.reduce(E, axis=0))])
            state.zero = (float(np.add.reduce(wF)), grad)
        p0, grad = state.zero
        return p0, grad.copy()

    def information(self, theta, within_site=None):
        """The (q x q) information ``sum_x grad grad^T / pi(x)`` of one scope's
        pattern draw, zero in the rows and columns of the sites outside it,
        with no pattern enumerated.

        It is the expected negative Hessian of ``log pi``: the sum over nodes
        and sites of ``w_k e_jk (1 - e_jk) a_jk a_jk^T``, with ``a_jk`` the
        gradient of the node logit ``alpha_j + c_k``, less the node-posterior
        covariance of the node log-weight scores ``(-e_k, (s - sum_j e_jk)
        dc_k)``, summed over the link totals ``s`` with weight ``pi(s)``.
        Every family writes ``log pi(x) = x.alpha + h(s)``, so the posterior
        ``w_k P_k(s) / pi(s)`` depends on a pattern only through ``s``;
        ``P_k`` is node ``k``'s Poisson-binomial law of ``s``, and a total
        whose probability underflows gets weight 0.  With one node the
        posterior is exactly 1 and every centred score exactly 0, so the
        result is ``diag(e (1 - e))`` bit for bit.

        A vanishing lower bound ``sum_k w_k prod_j min(e_jk, 1 - e_jk)`` on
        the least likely pattern's probability raises
        :class:`~snowlink.errors.NonFiniteLikelihood`.
        """
        state = self._node_state(theta)
        sites, _ = self._scope(within_site)
        w, n = self._weights, self.n
        least = np.add.reduce(np.minimum(state.log_e, state.log_1me)[:, sites], axis=1)
        if not np.dot(w, np.exp(least)) > 0.0:
            raise NonFiniteLikelihood(
                "a pattern probability vanished" if within_site is None else
                f"a within-site pattern probability (site {within_site}) vanished")
        if state.scopes is None:
            # every scope at once: scope 0 is between sites, and within site
            # l (scope l + 1) site l's link probability counts as 0, which
            # leaves each of its sums, and its step of the Poisson-binomial
            # recursion of the node laws of the link total, as they are.  P's
            # column 0 stays 0, so one update serves every total, and a
            # within-site law puts exactly 0 on the total n.
            E = state.e * (1.0 - np.eye(n + 1, n, -1))[:, None, :]
            P = np.ones((n + 1, len(w), 1)) * np.eye(1, n + 2, 1)
            for Ej in np.moveaxis(E, 2, 0)[..., None]:
                P[..., 1:] = P[..., 1:] * (1.0 - Ej) + P[..., :-1] * Ej
            W = w[:, None] * P[..., 1:]
            # the offset gradients (0, dc_k) and the node logit gradients a_jk
            Z = np.concatenate([np.zeros((len(w), n)), state.dc], axis=1)
            J = np.eye(self.q)[:n] + Z[:, None]
            state.scopes = [(Z, J.reshape(-1, self.q), *scope) for scope in zip(
                W, np.divide(W, W.sum(1)[:, None], out=np.zeros_like(W), where=W > 0.0),
                (w[:, None] * E * (1.0 - E)).reshape(n + 1, -1), np.einsum("lkj,kjq->lkq", E, J))]
        Z, J, W, omega, V, eJ = state.scopes[0 if within_site is None else within_site + 1]
        # the node scores at every total, centred at their posterior mean
        H = np.arange(n + 1.0)[:, None] * Z[:, None] - eJ[:, None]
        H -= np.einsum("ks,ksq->sq", omega, H)
        H = H.reshape(-1, self.q)
        return np.dot(J.T * V, J) - np.dot(H.T * W.ravel(), H)

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
        self.rule = QuadratureRule.gauss_hermite(
            _parse_int(quadrature_nodes, "quadrature_nodes", InvariantViolation))
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
        n = _parse_int(spec["n"], "n")
        if family == "rasch":
            nodes = _parse_int(spec.get("quadrature_nodes", DEFAULT_QUADRATURE_NODES),
                               "quadrature_nodes")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model spec {spec!r}: {exc}") from exc
    if family == "homogeneous":
        return HomogeneousLinkModel(n)
    if family == "rasch":
        return RaschLinkModel(n, quadrature_nodes=nodes)
    raise ParseError(f"unknown link-model family {family!r}")
