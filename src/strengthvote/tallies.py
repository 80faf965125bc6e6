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
its strength far/near. ``_sides`` runs it once over a batch of items and
splits the strengths by side with one boolean mask: every item's side
toward its smaller id, then every item's other side, joined in one array.
rules._instance_scores scores every candidate pair of its instances
straight from those joined sides, keeping no profile: it is the path of
evaluate, verify and search. ``exact_profile`` keeps one ordered pair's two
sides as a profile, each a read-only view of one kernel pass (8 bytes per
strength), held by the instance once built; ``bucket_profile`` counts a
profile into a new tally on every call: no tally is kept. No program path
builds a profile: they are the library's forms for one pair.
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


def _strength_array(strength) -> np.ndarray:
    """The one strength check: a float array, each entry >= 1, or ValueError."""
    s = np.asarray(strength, dtype=float)
    if np.count_nonzero(s >= 1.0) != s.size:
        raise ValueError(f"preference strengths are >= 1, got {s[~(s >= 1.0)].flat[0]}")
    return s


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

    def bucket(self, strength):
        """Bucket index for a strength: 0 for C, else the largest applicable l,
        which is the number of cutoffs the strength reaches. Elementwise on an
        array; _strength_array refuses a strength that is not >= 1."""
        l = self._cuts.searchsorted(_strength_array(strength), "right")
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


def _sides(d1s, d2s) -> tuple[np.ndarray, list[int]]:
    """The kernel over n items at once, item i's voters at distances d1s[i]
    from its smaller id and d2s[i] from its larger: every item's strengths
    toward its smaller id, item by item, then every item's toward its
    larger, split from one kernel pass by a boolean mask and joined as one
    read-only array, with the 2n sides' sizes in that order."""
    sizes = list(map(len, d1s))
    toward_first, s = _strengths(np.concatenate(d1s), np.concatenate(d2s))
    joined = np.concatenate((s[toward_first], s[~toward_first]))
    joined.flags.writeable = False
    starts = list(accumulate(sizes[:-1], initial=0))  # every item has a voter
    firsts = np.add.reduceat(toward_first, starts, dtype=np.intp).tolist()
    return joined, firsts + list(map(operator.sub, sizes, firsts))


def exact_profile(inst: MetricInstance, p: str, q: str) -> ExactProfile:
    """Every voter's strength for an ordered pair, unbucketed, from the
    voters' distance columns to p and q by one kernel pass (_sides), each
    side a view of the joined strengths. A pair's profile is built once per
    instance and kept there."""
    if p == q:
        raise SameCandidate(p)
    if (p, q) not in inst._profiles:
        joined, (n, _) = _sides([inst.voter_distances(min(p, q))],
                                [inst.voter_distances(max(p, q))])
        first, second = joined[:n], joined[n:]
        inst._profiles[(p, q)] = ExactProfile((p, q), *((first, second) if p < q
                                                        else (second, first)))
    return inst._profiles[(p, q)]


def bucket_profile(profile: ExactProfile, scheme: ThresholdScheme) -> PairwiseTally:
    """Reduce a profile's exact strengths to the bucket counts a scheme's
    ballots reveal, one bincount per side, as a new tally on every call."""
    a, b = (np.bincount(scheme.bucket(side), minlength=scheme.m + 1).tolist()
            for side in (profile.a, profile.b))
    return PairwiseTally(profile.pair, scheme, tuple(a[1:]), tuple(b[1:]), a[0] + b[0])


def pairwise_tally(inst: MetricInstance, p: str, q: str, scheme: ThresholdScheme) -> PairwiseTally:
    return bucket_profile(exact_profile(inst, p, q), scheme)
