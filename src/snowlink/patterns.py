"""Link patterns, pattern spaces, and the observed-count data model.

A link pattern over ``n`` sampled sites is stored as a plain ``int`` bitmask of
width ``n``: bit ``i`` is set iff the person is linked to sampled site ``i``
(site indices are 0-based).  The full pattern space for ``n`` sites has ``2**n``
elements; the within-site space for site ``l`` consists of the masks with bit
``l`` forced to zero, stored at full ``n``-bit width so a single representation
serves everywhere.

:class:`SampleData` holds the sufficient statistics of one realized sample:
per-site sizes and the three families of sparse pattern-count maps.  The
all-zero pattern is never a key; its counts are unobserved (for people outside
the initial site sample) or derived (inside a sampled site).  Its two parts,
frame-covered and frame-uncovered, are read through one :class:`Component`
view, so every per-part computation is written once.  A component turns its
count maps into arrays once, in :attr:`Component.tables`, and the
likelihood, the starting values and the empirical covariance all read those
arrays; :class:`SampleData` itself keeps only the maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import InvariantViolation, ParseError, PatternSpaceTooLarge

#: Patterns are ``int64`` bitmasks, so a design has at most this many sites.
MAX_SITES = 63

#: Full enumeration is refused above this many sites (2**20 ~ 1e6 patterns).
#: Sparse code paths that only touch observed patterns have no such guard.
ENUMERATION_GUARD = 20

SCHEMA_VERSION = 1


def enumerate_patterns(n: int, excluded_site: int | None = None) -> list[int]:
    """Enumerate a pattern space in ascending bitmask order.

    With ``excluded_site=None`` returns all ``2**n`` masks; with
    ``excluded_site=l`` returns the ``2**(n-1)`` masks whose bit ``l`` is zero.
    The all-zero pattern is always included.
    """
    if n < 1:
        raise InvariantViolation(f"site count must be >= 1, got {n}")
    if n > ENUMERATION_GUARD:
        raise PatternSpaceTooLarge(
            f"refusing to enumerate 2**{n} patterns (guard is n <= {ENUMERATION_GUARD})"
        )
    if excluded_site is None:
        return list(range(1 << n))
    if not 0 <= excluded_site < n:
        raise InvariantViolation(
            f"excluded_site {excluded_site} out of range for {n} sites"
        )
    # spread the bits of k = 0 .. 2**(n-1) - 1 apart at position l: the bits
    # above l move up one place, the bits below stay, and bit l stays clear
    k = np.arange(1 << (n - 1), dtype=np.int64)
    low_mask = (1 << excluded_site) - 1
    return (((k & ~low_mask) << 1) | (k & low_mask)).tolist()


def pattern_to_string(x: int, n: int) -> str:
    """Render a bitmask as a '0'/'1' string with character ``i`` <-> site ``i``."""
    if not 0 <= x < (1 << n):
        raise InvariantViolation(f"pattern {x} out of range for {n} sites")
    return "".join("1" if (x >> i) & 1 else "0" for i in range(n))


def pattern_from_string(s: str, n: int) -> int:
    if len(s) != n or any(c not in "01" for c in s):
        raise ParseError(f"pattern string {s!r} is not a '0'/'1' string of length {n}")
    return sum(1 << i for i, c in enumerate(s) if c == "1")


def _validate_count_map(counts: Mapping[int, int], n: int, label: str,
                        excluded_site: int | None = None) -> dict[int, int]:
    out: dict[int, int] = {}
    for x, c in counts.items():
        x = int(x)
        c = int(c)
        if not 0 < x < (1 << n):
            if x == 0:
                raise InvariantViolation(
                    f"{label}: the all-zero pattern must not appear as a key"
                )
            raise InvariantViolation(f"{label}: pattern {x} out of range for n={n}")
        if excluded_site is not None and (x >> excluded_site) & 1:
            raise InvariantViolation(
                f"{label}: pattern {pattern_to_string(x, n)} has the own-site "
                f"bit {excluded_site} set"
            )
        if c < 0:
            raise InvariantViolation(f"{label}: negative count {c} for pattern {x}")
        if c > 0:
            out[x] = c
    return out


@dataclass(frozen=True)
class Component:
    """One part of the population as the estimators see it.

    ``between`` maps patterns to counts for the people found only by link
    tracing, ``m`` and ``within`` are the sampled sites' sizes and
    within-site tables, and ``f`` is the probability that a person of this
    part escapes the site sample (``1 - n/N`` inside the frame).  The part
    outside the frame is the same object with no sites and ``f = 1``.
    """

    between: dict[int, int]
    m: tuple[int, ...]
    within: tuple[dict[int, int], ...]
    f: float

    @cached_property
    def m_total(self) -> int:
        return sum(self.m)

    @cached_property
    def r(self) -> int:
        return sum(self.between.values())

    @cached_property
    def tables(self) -> tuple[tuple[int | None, np.ndarray, np.ndarray, int], ...]:
        """Each count map as ``(site, patterns, counts, people)`` arrays.

        The outside-linked map comes first, with ``site = None`` and
        ``people = r``; then one entry per sampled site ``l``, with
        ``site = l`` and ``people = m[l]``.  Patterns are ``int64`` and counts
        ``float``, both in the map's key order.
        """
        maps = [(None, self.between, self.r)]
        maps += [(l, w, size) for l, (w, size) in enumerate(zip(self.within, self.m))]
        return tuple(
            (site, np.fromiter(counts.keys(), dtype=np.int64, count=len(counts)),
             np.fromiter(counts.values(), dtype=float, count=len(counts)), people)
            for site, counts, people in maps
        )


@dataclass(frozen=True)
class SampleData:
    """Sufficient statistics of one combined cluster / link-tracing sample.

    Attributes
    ----------
    n, N : int
        Number of sampled sites and number of sites in the frame.
    m : tuple of int
        Size of each sampled site (people found there), length ``n``.
    between1 : dict
        Pattern -> count for people outside the initial site sample but inside
        the frame-covered portion, keyed by nonzero patterns.
    within : tuple of dict
        One map per sampled site ``l``: pattern -> count for the people of that
        site, keyed by nonzero patterns with bit ``l`` clear.
    between2 : dict
        Pattern -> count for people outside the frame, keyed by nonzero patterns.

    Totals are always recomputed from the maps, never trusted from files.
    """

    n: int
    N: int
    m: tuple[int, ...]
    between1: dict[int, int] = field(default_factory=dict)
    within: tuple[dict[int, int], ...] = ()
    between2: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if not 1 <= self.n <= self.N:
            raise InvariantViolation(f"need 1 <= n <= N, got n={self.n}, N={self.N}")
        if self.n > MAX_SITES:
            raise InvariantViolation(
                f"a pattern bitmask holds at most {MAX_SITES} sites, got n={self.n}")
        m = tuple(int(v) for v in self.m)
        if len(m) != self.n:
            raise InvariantViolation(f"m has length {len(m)}, expected n={self.n}")
        if any(v < 0 for v in m):
            raise InvariantViolation("site sizes must be nonnegative")
        object.__setattr__(self, "m", m)
        object.__setattr__(
            self, "between1", _validate_count_map(self.between1, self.n, "between1")
        )
        object.__setattr__(
            self, "between2", _validate_count_map(self.between2, self.n, "between2")
        )
        win = self.within if self.within else tuple({} for _ in range(self.n))
        if len(win) != self.n:
            raise InvariantViolation(
                f"within has {len(win)} site maps, expected n={self.n}"
            )
        win = tuple(
            _validate_count_map(w, self.n, f"within[{l}]", excluded_site=l)
            for l, w in enumerate(win)
        )
        object.__setattr__(self, "within", win)
        for l in range(self.n):
            if self.r_within[l] > m[l]:
                raise InvariantViolation(
                    f"site {l}: {self.r_within[l]} linked people exceed site size {m[l]}"
                )

    @property
    def m_total(self) -> int:
        return sum(self.m)

    @property
    def r1(self) -> int:
        return sum(self.between1.values())

    @property
    def r2(self) -> int:
        return sum(self.between2.values())

    @property
    def r_within(self) -> tuple[int, ...]:
        return tuple(sum(w.values()) for w in self.within)

    @property
    def covered(self) -> Component:
        """The frame-covered part: sampled sites and cluster-sampling factor."""
        return Component(self.between1, self.m, self.within, 1.0 - self.n / self.N)

    @property
    def uncovered(self) -> Component:
        """The frame-uncovered part: no sites, and nobody is sampled directly."""
        return Component(self.between2, (), (), 1.0)


def _counts_to_json(counts: Mapping[int, int], n: int) -> list[dict]:
    return [
        {"pattern": pattern_to_string(x, n), "count": int(c)}
        for x, c in sorted(counts.items())
    ]


def _counts_from_json(items, n: int, label: str) -> dict[int, int]:
    if not isinstance(items, list):
        raise ParseError(f"{label}: expected a list of pattern/count pairs")
    out: dict[int, int] = {}
    for item in items:
        try:
            x = pattern_from_string(item["pattern"], n)
            c = int(item["count"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{label}: malformed entry {item!r}") from exc
        out[x] = out.get(x, 0) + c
    return out


def sample_to_dict(data: SampleData) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": data.n,
        "N": data.N,
        "m": list(data.m),
        "between1": _counts_to_json(data.between1, data.n),
        "between2": _counts_to_json(data.between2, data.n),
        "within": [_counts_to_json(w, data.n) for w in data.within],
    }


def sample_from_dict(obj: dict) -> SampleData:
    try:
        n = int(obj["n"])
        N = int(obj["N"])
        m = [int(v) for v in obj["m"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"sample file is missing or mistypes a required field: {exc}") from exc
    if len(m) != n:
        raise ParseError(f"m has length {len(m)} but n={n}")
    between1 = _counts_from_json(obj.get("between1", []), n, "between1")
    between2 = _counts_from_json(obj.get("between2", []), n, "between2")
    within_raw = obj.get("within", [[] for _ in range(n)])
    if not isinstance(within_raw, list) or len(within_raw) != n:
        raise ParseError(f"within must be a list of {n} site entries")
    within = tuple(
        _counts_from_json(items, n, f"within[{l}]") for l, items in enumerate(within_raw)
    )
    return SampleData(n=n, N=N, m=tuple(m), between1=between1,
                      within=within, between2=between2)


def load_sample(path) -> SampleData:
    """Load a sample-data JSON file, validating every structural invariant."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read sample file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"sample file {path} does not contain a JSON object")
    return sample_from_dict(obj)


def save_sample(data: SampleData, path) -> None:
    with open(path, "w") as fh:
        json.dump(sample_to_dict(data), fh, indent=2, sort_keys=True)
        fh.write("\n")
