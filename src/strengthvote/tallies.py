"""Bucketing of pairwise preference strengths against a threshold scheme.

A scheme is a strictly increasing tuple of cutoffs tau_1 < ... < tau_m with
tau_1 >= 1 and the comparison a strength makes against them: the two fix
what a ballot reveals. Relative to an ordered pair (P, Q), bucket l collects
voters whose strength s satisfies tau_l <= s < tau_{l+1} (with
tau_{m+1} = +inf); bucket 0 is the hidden set C of strengths below tau_1,
which is empty whenever tau_1 = 1. A tally carries the per-bucket counts for
the P side (A_l) and the Q side (B_l).

The cutoff comparison is part of the scheme, as its cutoffs are, because
rule1 and rule2 are worded with a strict one: under ``boundary=STRICT`` a
strength exactly equal to a cutoff tau_l > 1 stays below it (in bucket l-1,
or in C), while ``INCLUSIVE`` is the default tau_l <= s convention. A cutoff
of exactly 1 is inclusive under both, since strengths never fall below 1.

One column kernel (``_strengths``) is the only path from distances to
strengths: it turns two voter-distance columns into each voter's side and
its strength far/near. ``exact_profiles`` runs it once over a batch of
(instance, p, q) items (``exact_profile`` is a batch of one);
rules.pair_scores buckets and scores a batch of profiles, and
``bucket_profile`` counts one profile's sides into a tally. Profiles
and tallies are built once and kept: an instance holds each ordered pair's
profile, each side a read-only float64 array (8 bytes per strength), and a
profile holds its tally under each scheme and each Rule's side
scores that rules.prepare_profiles kept, for as long as the instance lives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat

import numpy as np

from .metric_core import MetricInstance, SameCandidate
# Unused here, but perfbench/tracer.py counts calls through this module attribute.
from .metric_core import preference_strength  # noqa: F401

INCLUSIVE = "inclusive"
STRICT = "strict"


@dataclass(frozen=True)
class ThresholdScheme:
    taus: tuple[float, ...]
    boundary: str = INCLUSIVE

    def __post_init__(self):
        taus = tuple(map(float, self.taus))
        object.__setattr__(self, "taus", taus)
        if self.boundary not in (INCLUSIVE, STRICT):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")
        if not taus:
            raise ValueError("a scheme needs at least one threshold")
        if taus[0] < 1.0:
            raise ValueError(f"thresholds must be >= 1, got {taus[0]}")
        # before the finite check: (1, inf, inf) is not strictly increasing,
        # while a NaN compares false and is reported as not finite
        if any(map(operator.ge, taus, taus[1:])):
            raise ValueError(f"thresholds must be strictly increasing: {taus}")
        if not all(map(math.isfinite, taus)):
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

    def bucket(self, strength):
        """Bucket index for a strength: 0 for C, else the largest applicable l,
        which is the number of cutoffs the strength reaches. Elementwise on an
        array."""
        s = np.asarray(strength, dtype=float)
        if np.count_nonzero(s >= 1.0) != s.size:
            raise ValueError(f"preference strengths are >= 1, got {s[~(s >= 1.0)].flat[0]}")
        l = self._cuts.searchsorted(s, "right")
        return l if l.ndim else int(l)

    @cached_property
    def _cuts(self) -> np.ndarray:
        """The least strength that reaches each cutoff: the next float above a
        strict cutoff tau > 1 (s > tau exactly when s >= it), else tau."""
        strict = self.boundary == STRICT
        return np.array([math.nextafter(t, math.inf) if strict and t > 1.0 else t
                         for t in self.taus])


@dataclass(frozen=True, eq=False)
class ExactProfile:
    """Raw strengths for an ordered pair, each side a read-only float64 array
    in voter order: a toward pair[0], b toward pair[1]."""

    pair: tuple[str, str]
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in ("a", "b"):
            side = getattr(self, name)
            if not isinstance(side, np.ndarray) or side.flags.writeable or side.dtype != np.float64:
                side = np.array(side, dtype=float)
                side.flags.writeable = False
                object.__setattr__(self, name, side)

    @property
    def a_strengths(self) -> tuple[float, ...]:
        return tuple(self.a.tolist())

    @property
    def b_strengths(self) -> tuple[float, ...]:
        return tuple(self.b.tolist())

    @cached_property
    def _tallies(self) -> dict[ThresholdScheme, PairwiseTally]:
        """bucket_profile's result for each scheme it has built, keyed by the
        frozen scheme itself: its cutoffs and their comparison."""
        return {}

    @cached_property
    def _scores(self) -> dict[object, tuple[float, float]]:
        """Each rule's (a, b) side scores, keyed by the frozen Rule itself, as
        rules.prepare_profiles kept them."""
        return {}


@dataclass(frozen=True)
class PairwiseTally:
    pair: tuple[str, str]
    scheme: ThresholdScheme
    a_counts: tuple[int, ...]
    b_counts: tuple[int, ...]
    c_count: int

    def __post_init__(self):
        if self.pair[0] == self.pair[1]:
            raise SameCandidate(self.pair[0])
        m = self.scheme.m
        if len(self.a_counts) != m or len(self.b_counts) != m:
            raise ValueError(f"expected {m} bucket counts per side")
        if self.c_count < 0 or any(map(operator.lt, self.a_counts + self.b_counts, repeat(0))):
            raise ValueError("bucket counts must be nonnegative")
        if self.scheme.taus[0] == 1.0 and self.c_count != 0:
            raise ValueError("C must be empty when tau_1 = 1")


def _strengths(d1: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel: from voters' distances d1 to one candidate and d2 to the
    other, whether each voter prefers the first and its strength far/near.
    The caller puts the lexicographically smaller id first, so an equidistant
    voter has strength 1 toward it; a voter on its nearer candidate has
    strength +inf."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = np.maximum(d1, d2)
        s /= np.minimum(d1, d2)
    s[d1 == d2] = 1.0
    return d1 <= d2, s


def exact_profiles(items) -> list[ExactProfile]:
    """Every voter's strength for each (instance, p, q) item, unbucketed, from
    the voters' distance columns to p and q. A pair's profile is built once
    per instance; the items not yet kept are measured in one kernel pass."""
    todo = []
    for inst, p, q in items:
        if p == q:
            raise SameCandidate(p)
        if (p, q) not in inst._profiles:
            todo.append((inst, p, q))
    if todo:
        sizes = [len(inst.voters) for inst, _, _ in todo]
        toward_first, s = _strengths(
            np.concatenate([inst.voter_distances(min(p, q)) for inst, p, q in todo]),
            np.concatenate([inst.voter_distances(max(p, q)) for inst, p, q in todo]))
        first_all, second_all = s[toward_first], s[~toward_first]
        first_all.flags.writeable = second_all.flags.writeable = False
        ends = list(accumulate(sizes))
        ends_first = toward_first.cumsum()[np.array(ends) - 1].tolist()
        lo = lo_first = 0
        for (inst, p, q), hi, hi_first in zip(todo, ends, ends_first):
            first = first_all[lo_first:hi_first]
            second = second_all[lo - lo_first:hi - hi_first]
            profile = ExactProfile((p, q), *((first, second) if p < q else (second, first)))
            inst._profiles[(p, q)] = profile
            lo, lo_first = hi, hi_first
    return [inst._profiles[(p, q)] for inst, p, q in items]


def exact_profile(inst: MetricInstance, p: str, q: str) -> ExactProfile:
    """exact_profiles for one ordered pair: a batch of one."""
    return exact_profiles([(inst, p, q)])[0]


def bucket_profile(profile: ExactProfile, scheme: ThresholdScheme) -> PairwiseTally:
    """Reduce a profile's exact strengths to the bucket counts a scheme's
    ballots reveal, one bincount per side, as a tally built once per scheme
    and kept on the profile."""
    if scheme not in profile._tallies:
        a, b = (np.bincount(scheme.bucket(side), minlength=scheme.m + 1).tolist()
                for side in (profile.a, profile.b))
        profile._tallies[scheme] = PairwiseTally(profile.pair, scheme, tuple(a[1:]),
                                                 tuple(b[1:]), a[0] + b[0])
    return profile._tallies[scheme]


def pairwise_tally(inst: MetricInstance, p: str, q: str, scheme: ThresholdScheme) -> PairwiseTally:
    return bucket_profile(exact_profile(inst, p, q), scheme)


def tally_csv(tally: PairwiseTally) -> str:
    """One row per bucket: pair, l, |A_l|, |B_l|, |C|."""
    p, q = tally.pair
    lines = ["pair,l,a,b,c"]
    for l in range(1, tally.scheme.m + 1):
        lines.append(f"{p}>{q},{l},{tally.a_counts[l - 1]},{tally.b_counts[l - 1]},{tally.c_count}")
    return "\n".join(lines) + "\n"
