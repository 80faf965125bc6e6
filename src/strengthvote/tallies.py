"""Bucketing of pairwise preference strengths against a threshold scheme.

A scheme is a strictly increasing tuple of cutoffs tau_1 < ... < tau_m with
tau_1 >= 1. Relative to an ordered pair (P, Q), bucket l collects voters whose
strength s satisfies tau_l <= s < tau_{l+1} (with tau_{m+1} = +inf); bucket 0
is the hidden set C of strengths below tau_1, which is empty whenever
tau_1 = 1. A tally carries the per-bucket counts for the P side (A_l) and the
Q side (B_l).

Two boundary modes exist because the single-threshold rules are worded with a
strict comparison: under ``strict`` a strength exactly equal to a cutoff
tau_l > 1 stays below it (in bucket l-1, or in C), while ``inclusive`` is the
default tau_l <= s convention. A cutoff of exactly 1 is inclusive in both
modes, since strengths never fall below 1.

Both steps are built once and kept: an instance holds each ordered pair's
profile, and a profile holds its tally under each (scheme, boundary), for as
long as the instance lives.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property

from .metric_core import MetricInstance, SameCandidate, _preference
# Unused here, but perfbench/tracer.py counts calls through this module attribute.
from .metric_core import preference_strength  # noqa: F401

INCLUSIVE = "inclusive"
STRICT = "strict"


@dataclass(frozen=True)
class ThresholdScheme:
    taus: tuple[float, ...]

    def __post_init__(self):
        taus = tuple(float(t) for t in self.taus)
        object.__setattr__(self, "taus", taus)
        if not taus:
            raise ValueError("a scheme needs at least one threshold")
        if taus[0] < 1.0:
            raise ValueError(f"thresholds must be >= 1, got {taus[0]}")
        if any(a >= b for a, b in zip(taus, taus[1:])):
            raise ValueError(f"thresholds must be strictly increasing: {taus}")
        if any(math.isinf(t) or math.isnan(t) for t in taus):
            raise ValueError("thresholds must be finite")

    @property
    def m(self) -> int:
        return len(self.taus)

    def tau(self, l: int) -> float:
        """tau_l with the sentinel extensions tau_0 = 1/tau_1 and tau_{m+1} = +inf."""
        if l == 0:
            return 1.0 / self.taus[0]
        if l == self.m + 1:
            return math.inf
        return self.taus[l - 1]

    def bucket(self, strength: float, boundary: str = INCLUSIVE) -> int:
        """Bucket index for a strength: 0 for C, else the largest applicable l,
        which is the number of cutoffs at or below it (strictly below under a
        strict boundary, except a cutoff of 1)."""
        if not strength >= 1.0:
            raise ValueError(f"preference strengths are >= 1, got {strength}")
        if boundary == INCLUSIVE or strength == 1.0:
            return bisect_right(self.taus, strength)
        return bisect_left(self.taus, strength)


@dataclass(frozen=True)
class ExactProfile:
    """Raw strengths for an ordered pair: a_* toward pair[0], b_* toward pair[1]."""

    pair: tuple[str, str]
    a_strengths: tuple[float, ...]
    b_strengths: tuple[float, ...]

    @cached_property
    def _tallies(self) -> dict[tuple[ThresholdScheme, str], PairwiseTally]:
        """bucket_profile's result for each (scheme, boundary) it has built."""
        return {}


@dataclass(frozen=True)
class PairwiseTally:
    pair: tuple[str, str]
    scheme: ThresholdScheme
    a_counts: tuple[int, ...]
    b_counts: tuple[int, ...]
    c_count: int
    boundary: str = INCLUSIVE

    def __post_init__(self):
        m = self.scheme.m
        if len(self.a_counts) != m or len(self.b_counts) != m:
            raise ValueError(f"expected {m} bucket counts per side")
        if self.c_count < 0 or any(c < 0 for c in self.a_counts + self.b_counts):
            raise ValueError("bucket counts must be nonnegative")
        if self.scheme.taus[0] == 1.0 and self.c_count != 0:
            raise ValueError("C must be empty when tau_1 = 1")
        if self.boundary not in (INCLUSIVE, STRICT):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")


def exact_profile(inst: MetricInstance, p: str, q: str) -> ExactProfile:
    """Collect every voter's (preferred, strength) for the pair, unbucketed,
    from the voters' distance columns to p and q; built once per instance."""
    if p == q:
        raise SameCandidate(p)
    profile = inst._profiles.get((p, q))
    if profile is None:
        a, b = [], []
        for dp, dq in zip(inst.voter_distances(p), inst.voter_distances(q)):
            preferred, s = _preference(p, dp, q, dq)
            (a if preferred == p else b).append(s)
        profile = inst._profiles[(p, q)] = ExactProfile((p, q), tuple(a), tuple(b))
    return profile


def bucket_profile(profile: ExactProfile, scheme: ThresholdScheme,
                   boundary: str = INCLUSIVE) -> PairwiseTally:
    """Reduce exact strengths to the bucket counts a scheme's ballots reveal;
    built once per profile and (scheme, boundary)."""
    tally = profile._tallies.get((scheme, boundary))
    if tally is None:
        a = [0] * scheme.m
        b = [0] * scheme.m
        c = 0
        for side, counts in ((profile.a_strengths, a), (profile.b_strengths, b)):
            for s in side:
                l = scheme.bucket(s, boundary)
                if l == 0:
                    c += 1
                else:
                    counts[l - 1] += 1
        tally = PairwiseTally(profile.pair, scheme, tuple(a), tuple(b), c, boundary)
        profile._tallies[(scheme, boundary)] = tally
    return tally


def pairwise_tally(inst: MetricInstance, p: str, q: str, scheme: ThresholdScheme,
                   boundary: str = INCLUSIVE) -> PairwiseTally:
    return bucket_profile(exact_profile(inst, p, q), scheme, boundary)


def tally_csv(tally: PairwiseTally) -> str:
    """One row per bucket: pair, l, |A_l|, |B_l|, |C|."""
    p, q = tally.pair
    lines = ["pair,l,a,b,c"]
    for l in range(1, tally.scheme.m + 1):
        lines.append(f"{p}>{q},{l},{tally.a_counts[l - 1]},{tally.b_counts[l - 1]},{tally.c_count}")
    return "\n".join(lines) + "\n"
