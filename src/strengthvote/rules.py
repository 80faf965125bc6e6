"""Pairwise decision rules over strength tallies, and their distortion bounds.

Every rule decides an ordered pair (P, Q) by a weighted vote and breaks exact
ties toward the lexicographically smaller candidate id. The four threshold
rules share one shape: ballots are bucketed by a threshold scheme under a
cutoff convention (see tallies), and each bucket l >= 1 carries one weight;
the hidden set C (bucket 0) always weighs 0.

    rule   scheme                    boundary   bucket weights
    rule1  (1, tau), or (1,) at 1    strict     (1, strong): strong = tau when
                                                tau < 1+sqrt(2), else (tau+1)/(tau-1)
    rule2  (1, tau), tau > 1         strict     (1, (tau+1)/(tau-1))
    rule3  (tau,)                    inclusive  (1,)
    rule4  any tau_1 < ... < tau_m   inclusive  rule4_weights(scheme), from the
                                                scheme's worst ratio term rule4_delta

Under strict cutoffs a strength equal to tau stays in the lower bucket; rule2
coincides with rule1 for tau >= 1+sqrt(2). A Rule computes its row of the
table once, when it is built. rule5 sees exact strengths and weighs each voter
by the continuous rule5_weight: (sqrt(2)*s - 1)/(s + 1) when s > sqrt(2), else
s - 1; the branches agree at s = sqrt(2) and the weight tends to sqrt(2) as
s -> +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .metric_core import MetricInstance
from .tallies import (INCLUSIVE, STRICT, ExactProfile, PairwiseTally,
                      ThresholdScheme, bucket_profile, exact_profile)

SQRT2 = math.sqrt(2.0)

RULE_KINDS = ("rule1", "rule2", "rule3", "rule4", "rule5")


class InvalidThreshold(ValueError):
    """A rule got a threshold outside its admissible range."""


class SchemeMismatch(ValueError):
    """A tally was built under a different scheme or boundary mode than the rule expects."""


@dataclass(frozen=True)
class Rule:
    """A pairwise rule. The constructor checks the thresholds and derives the
    rest of the threshold rules' definition: scheme (rule1-3 from tau),
    boundary mode and per-bucket weights. rule5 has no buckets."""

    kind: str
    tau: float | None = None
    scheme: ThresholdScheme | None = None
    boundary: str | None = field(init=False)
    weights: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        kind, tau, scheme = self.kind, self.tau, self.scheme
        if kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {kind!r}")
        if kind == "rule5":
            if tau is not None or scheme is not None:
                raise InvalidThreshold("rule5 takes no thresholds")
            boundary, weights = None, ()
        elif kind == "rule4":
            if tau is not None:
                raise InvalidThreshold("rule4 takes a threshold scheme, not tau")
            if scheme is None:
                raise InvalidThreshold("rule4 needs a threshold scheme")
            if not isinstance(scheme, ThresholdScheme):
                scheme = ThresholdScheme(tuple(scheme))
            boundary, weights = INCLUSIVE, tuple(rule4_weights(scheme)[0])
        else:
            if tau is None:
                raise InvalidThreshold(f"{kind} needs a threshold")
            tau = float(tau)
            if kind == "rule2":
                if not tau > 1.0:
                    raise InvalidThreshold(f"rule2 needs tau > 1, got {tau}")
            elif not tau >= 1.0:
                raise InvalidThreshold(f"{kind} needs tau >= 1, got {tau}")
            if kind == "rule3":
                derived, boundary, weights = ThresholdScheme((tau,)), INCLUSIVE, (1.0,)
            elif tau == 1.0:
                derived, boundary, weights = ThresholdScheme((1.0,)), STRICT, (1.0,)
            else:
                strong = (tau + 1.0) / (tau - 1.0) if kind == "rule2" or tau >= 1.0 + SQRT2 else tau
                derived, boundary, weights = ThresholdScheme((1.0, tau)), STRICT, (1.0, strong)
            if scheme is not None and scheme != derived:
                raise InvalidThreshold(f"{kind} derives its scheme {derived.taus} from tau")
            scheme = derived
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "boundary", boundary)
        object.__setattr__(self, "weights", weights)

    def label(self) -> str:
        if self.kind in ("rule1", "rule2", "rule3"):
            return f"{self.kind}[tau={self.tau:g}]"
        if self.kind == "rule4":
            return "rule4[taus=" + ";".join(f"{t:g}" for t in self.scheme.taus) + "]"
        return "rule5"

    def weight(self, strength: float) -> float:
        """Decision weight of one voter with the given strength (0 in C)."""
        if self.kind == "rule5":
            return rule5_weight(strength)
        l = self.scheme.bucket(strength, self.boundary)
        return self.weights[l - 1] if l else 0.0


def make_rule(kind: str, tau: float | None = None, taus=None) -> Rule:
    """Build a rule from command-line style arguments: rule1-3 read tau, rule4
    reads taus, each ignoring the other; rule5 takes neither."""
    if kind == "rule4":
        return Rule(kind, scheme=taus)
    if kind in ("rule1", "rule2", "rule3"):
        return Rule(kind, tau)
    return Rule(kind, tau, taus)


@dataclass(frozen=True)
class PairwiseDecision:
    winner: str
    p_score: float
    q_score: float
    tie: bool


def _resolve(pair: tuple[str, str], p_score: float, q_score: float) -> PairwiseDecision:
    if p_score > q_score:
        return PairwiseDecision(pair[0], p_score, q_score, False)
    if q_score > p_score:
        return PairwiseDecision(pair[1], p_score, q_score, False)
    return PairwiseDecision(min(pair), p_score, q_score, True)


def rule4_delta(scheme: ThresholdScheme) -> float:
    """Worst ratio term of a scheme: the rule4 two-candidate distortion bound.

    max over l in 0..m of (tau_l*tau_{l+1} + 2*tau_{l+1} - 1)/(tau_l*tau_{l+1} + 1),
    which collapses to tau_1 at l = 0 and to (tau_m + 2)/tau_m at l = m.
    """
    taus = scheme.taus
    best = taus[0]
    for lo, hi in zip(taus, taus[1:]):
        best = max(best, (lo * hi + 2.0 * hi - 1.0) / (lo * hi + 1.0))
    return max(best, (taus[-1] + 2.0) / taus[-1])


def _rule4_pivot(scheme: ThresholdScheme, ds: float) -> int:
    """Largest k with tau_k <= ds (ties on equality resolve to the larger k)."""
    k = 0
    for l, t in enumerate(scheme.taus, start=1):
        if t <= ds:
            k = l
    if k == 0:
        raise InvalidThreshold(f"no pivot: bound {ds} below tau_1 = {scheme.taus[0]}")
    return k


def rule4_weights(scheme: ThresholdScheme) -> tuple[list[float], float, int]:
    ds = rule4_delta(scheme)
    k = _rule4_pivot(scheme, ds)
    weights = []
    for l in range(1, scheme.m + 1):
        tl, tnext = scheme.tau(l), scheme.tau(l + 1)
        if l < k:
            w = (ds + 1.0) * (tl * tnext - 1.0) / ((tl + 1.0) * (tnext + 1.0))
        else:
            head = 1.0 if math.isinf(tnext) else (tnext - ds) / (tnext - 1.0)
            w = head + (ds * tl - 1.0) / (tl + 1.0)
        weights.append(w)
    return weights, ds, k


def decide_tally(tally: PairwiseTally, rule: Rule) -> PairwiseDecision:
    """Weighted majority over a tally: each side scores sum_l w_l * count_l.

    The tally must use the rule's scheme and boundary mode; a lone cutoff of 1
    buckets the same either way. For rule4 the score gap equals the gap
    between the two sides' feasibility slacks (see condition1_holds).
    """
    taus = rule.scheme.taus if rule.scheme is not None else None
    if tally.scheme.taus != taus:
        raise SchemeMismatch(f"{rule.kind} expects scheme {taus}, tally has {tally.scheme.taus}")
    if tally.boundary != rule.boundary and tally.scheme.taus != (1.0,):
        raise SchemeMismatch(
            f"{rule.kind} expects {rule.boundary} boundary, tally used {tally.boundary}")
    p = math.fsum(w * a for w, a in zip(rule.weights, tally.a_counts))
    q = math.fsum(w * b for w, b in zip(rule.weights, tally.b_counts))
    if __debug__ and rule.kind == "rule4":
        diff = _condition1_diff(tally, tally.pair[0]) - _condition1_diff(tally, tally.pair[1])
        scale = max(1.0, abs(p), abs(q))
        assert abs((p - q) - diff) <= 1e-9 * scale, (p, q, diff)
    return _resolve(tally.pair, p, q)


def rule4_decide(tally: PairwiseTally, scheme: ThresholdScheme) -> PairwiseDecision:
    """General-scheme weighted majority over a tally built under that scheme."""
    return decide_tally(tally, make_rule("rule4", taus=scheme))


def _condition1_diff(tally: PairwiseTally, side: str) -> float:
    """Slack (rhs - lhs) of the feasibility inequality for one side of the pair."""
    if side == tally.pair[0]:
        mine, theirs = tally.a_counts, tally.b_counts
    elif side == tally.pair[1]:
        mine, theirs = tally.b_counts, tally.a_counts
    else:
        raise ValueError(f"{side!r} is not in the pair {tally.pair}")
    scheme = tally.scheme
    _, ds, k = rule4_weights(scheme)
    terms = []
    for l in range(1, scheme.m + 1):
        tl, tnext = scheme.tau(l), scheme.tau(l + 1)
        terms.append((ds * tl - 1.0) / (tl + 1.0) * mine[l - 1])
        if l < k:
            terms.append((ds - tnext) / (tnext + 1.0) * theirs[l - 1])
        else:
            head = 1.0 if math.isinf(tnext) else (tnext - ds) / (tnext - 1.0)
            terms.append(-head * theirs[l - 1])
    return math.fsum(terms)


def condition1_holds(tally: PairwiseTally, side: str, tol: float = 1e-9) -> bool:
    """Whether a side's feasibility inequality holds (within tol); at least one
    side of any tally always does."""
    return _condition1_diff(tally, side) >= -tol


def rule5_weight(strength: float) -> float:
    if math.isinf(strength):
        return SQRT2
    if strength > SQRT2:
        return (SQRT2 * strength - 1.0) / (strength + 1.0)
    return strength - 1.0


def rule5_decide(profile: ExactProfile) -> PairwiseDecision:
    """Exact-strength weighted majority; (1+sqrt(2))-bounded."""
    p = math.fsum(rule5_weight(s) for s in profile.a_strengths)
    q = math.fsum(rule5_weight(s) for s in profile.b_strengths)
    return _resolve(profile.pair, p, q)


def decide_profile(profile: ExactProfile, rule: Rule) -> PairwiseDecision:
    """Decide a pair from its exact profile, revealing only what the rule may see."""
    if rule.kind == "rule5":
        return rule5_decide(profile)
    return decide_tally(bucket_profile(profile, rule.scheme, rule.boundary), rule)


def decide_pair(inst: MetricInstance, p: str, q: str, rule: Rule) -> PairwiseDecision:
    """Decide an ordered candidate pair of an instance under a rule."""
    return decide_profile(exact_profile(inst, p, q), rule)


def bound_value(rule: Rule, num_candidates: int = 2) -> float:
    """Worst-case distortion bound for a rule.

    Two candidates: rule1/rule2 max{(tau+2)/tau, (3*tau-1)/(tau+1)}; rule3
    max{(tau+2)/tau, tau}; rule4 the scheme's worst ratio term; rule5 sqrt(2).
    Three or more candidates (winner from the uncovered set): rule1 takes
    min{b+2, b^2} of its two-candidate bound b, rule3/rule4 square theirs,
    rule5 gives 2. rule2 admits no bound beyond two candidates.
    """
    if num_candidates < 2:
        raise ValueError("bounds are defined for two or more candidates")
    two = num_candidates == 2
    if rule.kind in ("rule1", "rule2"):
        tau = rule.tau
        b = max((tau + 2.0) / tau, (3.0 * tau - 1.0) / (tau + 1.0))
        if two:
            return b
        if rule.kind == "rule2":
            raise ValueError("rule2 has no distortion bound beyond two candidates")
        return min(b + 2.0, b * b)
    if rule.kind == "rule3":
        b = max((rule.tau + 2.0) / rule.tau, rule.tau)
        return b if two else b * b
    if rule.kind == "rule4":
        b = rule4_delta(rule.scheme)
        return b if two else b * b
    return SQRT2 if two else 2.0
