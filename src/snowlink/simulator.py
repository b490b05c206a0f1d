"""Synthetic populations and one-pass sampling of the combined design.

The frame holds ``N`` sites whose sizes are drawn either as independent
Poisson counts or as one multinomial split of a fixed covered-population size
(equal cell probabilities).  An initial simple random sample of ``n`` sites is
taken without replacement; every person then draws their link pattern from the
generative form of the configured model (the person's logit offset, then
per-site Bernoulli draws), never from a materialized 2**n probability table.
People outside the initial site sample whose pattern is all-zero are
unobserved and are simply absent from the returned counts.

Reproducibility contract: one replicate consumes a single generator seeded
from ``(master_seed, replicate_index)``; the draw order is fixed as
site sizes, site selection, within-site patterns in site order, covered
outside-pattern block, uncovered block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, InvariantViolation, ParseError
from .link_model import model_from_spec
from .patterns import SampleData, _parse_int


#: The largest mean numpy's ``Generator.poisson`` draws from; it refuses a
#: larger one with a ``ValueError``.
POISSON_MEAN_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10


@dataclass(frozen=True)
class PoissonMean:
    """Independent Poisson site sizes with a common mean."""

    mean: float

    def __post_init__(self):
        if not 0 < self.mean <= POISSON_MEAN_MAX:
            raise InvariantViolation(
                f"Poisson mean must be finite and in (0, {POISSON_MEAN_MAX:.6g}], got {self.mean}")


@dataclass(frozen=True)
class ConditionalMultinomial:
    """Fixed covered-population size split uniformly across the frame."""

    tau1: int

    def __post_init__(self):
        object.__setattr__(self, "tau1", _parse_int(self.tau1, "tau1", InvariantViolation))
        if self.tau1 < 0:
            raise InvariantViolation(f"covered size must be >= 0, got {self.tau1}")


ClusterMode = Union[PoissonMean, ConditionalMultinomial]


@dataclass
class PopulationConfig:
    """Everything needed to draw one replicate of the design."""

    N: int
    n: int
    cluster_mode: ClusterMode
    tau2: int
    model1: object
    model2: object
    theta1: np.ndarray
    theta2: np.ndarray

    def __post_init__(self):
        for name in ("N", "n", "tau2"):
            setattr(self, name, _parse_int(getattr(self, name), name, InvariantViolation))
        if not 1 <= self.n <= self.N:
            raise InvariantViolation(f"need 1 <= n <= N, got n={self.n}, N={self.N}")
        if self.tau2 < 0:
            raise InvariantViolation(f"uncovered size must be >= 0, got {self.tau2}")
        if self.model1.n != self.n or self.model2.n != self.n:
            raise InvariantViolation("link models must cover exactly the sampled sites")
        self.theta1 = self.model1.validate_theta(self.theta1)
        self.theta2 = self.model2.validate_theta(self.theta2)


@dataclass(frozen=True)
class GroundTruth:
    """Hidden state of one replicate, kept apart from the observable counts."""

    tau1: int
    tau2: int
    site_sizes: tuple[int, ...]
    sampled_sites: tuple[int, ...]
    theta1: tuple[float, ...]
    theta2: tuple[float, ...]

    @property
    def tau(self) -> int:
        return self.tau1 + self.tau2

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "tau1": self.tau1,
            "tau2": self.tau2,
            "tau": self.tau,
            "site_sizes": list(self.site_sizes),
            "sampled_sites": list(self.sampled_sites),
            "theta1": list(self.theta1),
            "theta2": list(self.theta2),
        }


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """Child generator for one replicate: PCG64 seeded from the pair
    ``(master_seed, index)`` so replicates are independent and reproducible."""
    if master_seed < 0 or index < 0:
        raise DomainError(
            f"master_seed and index must be >= 0, got ({master_seed}, {index})")
    return np.random.default_rng(np.random.SeedSequence((master_seed, index)))


def draw_cluster_sizes(config: PopulationConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Site sizes for the whole frame under the configured cluster law."""
    mode = config.cluster_mode
    if isinstance(mode, PoissonMean):
        return rng.poisson(mode.mean, size=config.N).astype(np.int64)
    if isinstance(mode, ConditionalMultinomial):
        return rng.multinomial(mode.tau1,
                               np.full(config.N, 1.0 / config.N)).astype(np.int64)
    raise DomainError(f"unknown cluster mode {mode!r}")


def _draw_pattern_counts(model, theta, count: int, rng, within_site=None) -> dict[int, int]:
    """Draw ``count`` link patterns from the model's generative form and
    return the nonzero-pattern counts."""
    if count == 0:
        return {}
    n = model.n
    hits = model.draw_links(theta, count, rng)
    if within_site is not None:
        hits[:, within_site] = False
    patterns = hits @ (1 << np.arange(n, dtype=np.int64))
    values, counts = np.unique(patterns, return_counts=True)
    return {int(x): int(c) for x, c in zip(values, counts) if x != 0}


def draw_sample(config: PopulationConfig,
                rng: np.random.Generator) -> tuple[SampleData, GroundTruth]:
    """Draw one full replicate: site sizes, the initial site sample, and every
    person's link pattern.  Returns the observable counts and, separately, the
    hidden ground truth."""
    sizes = draw_cluster_sizes(config, rng)
    tau1 = int(sizes.sum())
    sampled = np.sort(rng.choice(config.N, size=config.n, replace=False))
    m = sizes[sampled]
    within = tuple(
        _draw_pattern_counts(config.model1, config.theta1, int(m[l]), rng,
                             within_site=l)
        for l in range(config.n)
    )
    between1 = _draw_pattern_counts(config.model1, config.theta1,
                                    tau1 - int(m.sum()), rng)
    between2 = _draw_pattern_counts(config.model2, config.theta2,
                                    config.tau2, rng)
    data = SampleData(n=config.n, N=config.N, m=tuple(int(v) for v in m),
                      between1=between1, within=within, between2=between2)
    truth = GroundTruth(
        tau1=tau1, tau2=config.tau2,
        site_sizes=tuple(int(v) for v in sizes),
        sampled_sites=tuple(int(v) for v in sampled),
        theta1=tuple(float(v) for v in config.theta1),
        theta2=tuple(float(v) for v in config.theta2),
    )
    return data, truth


# ---------------------------------------------------------------------------
# Config (de)serialization for files


def population_config_to_dict(config: PopulationConfig) -> dict:
    mode = config.cluster_mode
    if isinstance(mode, PoissonMean):
        mode_obj = {"type": "poisson_mean", "lambda1": mode.mean}
    else:
        mode_obj = {"type": "conditional_multinomial", "tau1": mode.tau1}
    return {
        "schema_version": 1,
        "N": config.N,
        "n": config.n,
        "cluster_mode": mode_obj,
        "tau2": config.tau2,
        "model1": config.model1.spec(),
        "model2": config.model2.spec(),
        "theta1": [float(v) for v in config.theta1],
        "theta2": [float(v) for v in config.theta2],
    }


def population_config_from_dict(obj: dict) -> PopulationConfig:
    try:
        mode_obj = obj["cluster_mode"]
        kind = mode_obj["type"]
        if kind == "poisson_mean":
            mode: ClusterMode = PoissonMean(float(mode_obj["lambda1"]))
        elif kind == "conditional_multinomial":
            mode = ConditionalMultinomial(_parse_int(mode_obj["tau1"], "tau1"))
        else:
            raise ParseError(f"unknown cluster mode type {kind!r}")
        return PopulationConfig(
            N=_parse_int(obj["N"], "N"),
            n=_parse_int(obj["n"], "n"),
            cluster_mode=mode,
            tau2=_parse_int(obj["tau2"], "tau2"),
            model1=model_from_spec(obj["model1"]),
            model2=model_from_spec(obj["model2"]),
            theta1=np.asarray(obj["theta1"], dtype=float),
            theta2=np.asarray(obj["theta2"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed population config: {exc}") from exc
