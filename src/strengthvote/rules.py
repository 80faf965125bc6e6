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
table once, when it is built, and rule4 its condition-1 coefficients with it.
rule5 sees exact strengths and weighs each voter by the continuous
rule5_weight: (sqrt(2)*s - 1)/(s + 1) when s > sqrt(2), else s - 1; the
branches agree at s = sqrt(2) and the weight tends to sqrt(2) as s -> +inf.

A scheme's ratio terms (ratio_terms) are tau_1, one term per pair of
neighbouring cutoffs and (tau_m + 2)/tau_m. A threshold rule's two-candidate
bound is the largest of them, rule4_delta: (1, tau) gives
max{(tau+2)/tau, (3*tau-1)/(tau+1)} (rule1, rule2) and (tau,) gives
max{tau, (tau+2)/tau} (rule3). distortion_lab's hard-instance families each
approach one ratio term.
The multiway and ideal-point guarantees rest on each rule's lambda-inequality
SC(W) <= q*SC(Q) + z*SC(Z), with (q, z) from lambda_coefficients.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
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
    boundary mode, per-bucket weights and rule4's condition-1 coefficients
    (see rule4_weights). rule5 has no buckets."""

    kind: str
    tau: float | None = None
    scheme: ThresholdScheme | None = None
    boundary: str | None = field(init=False)
    weights: tuple[float, ...] = field(init=False)
    condition1: tuple[tuple[float, ...], ...] = field(init=False)

    def __post_init__(self):
        kind, tau, scheme = self.kind, self.tau, self.scheme
        if kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {kind!r}")
        if kind == "rule5":
            if tau is not None or scheme is not None:
                raise InvalidThreshold("rule5 takes no thresholds")
            boundary, weights, condition1 = None, (), ()
        elif kind == "rule4":
            if tau is not None:
                raise InvalidThreshold("rule4 takes a threshold scheme, not tau")
            if scheme is None:
                raise InvalidThreshold("rule4 needs a threshold scheme")
            if not isinstance(scheme, ThresholdScheme):
                scheme = ThresholdScheme(tuple(scheme))
            boundary, (weights, condition1, _, _) = INCLUSIVE, rule4_weights(scheme)
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
            scheme, condition1 = derived, ()
        for name, value in dict(tau=tau, scheme=scheme, boundary=boundary, weights=weights,
                                condition1=condition1).items():
            object.__setattr__(self, name, value)

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


def ratio_terms(taus) -> tuple[float, ...]:
    """The m+1 ratio terms of a scheme tau_1 < ... < tau_m: tau_1, then
    (tau_l*tau_{l+1} + 2*tau_{l+1} - 1)/(tau_l*tau_{l+1} + 1) for each pair of
    neighbouring cutoffs, then (tau_m + 2)/tau_m."""
    pairs = ((lo * hi + 2.0 * hi - 1.0) / (lo * hi + 1.0) for lo, hi in zip(taus, taus[1:]))
    return (float(taus[0]), *pairs, (taus[-1] + 2.0) / taus[-1])


def rule4_delta(scheme: ThresholdScheme) -> float:
    """Worst ratio term of a scheme: the two-candidate bound of rule1-rule4."""
    return max(ratio_terms(scheme.taus))


def rule4_weights(scheme: ThresholdScheme) -> tuple[tuple, tuple, float, int]:
    """Bucket weights, condition 1's per-bucket (own, other) coefficients, the
    bound ds = rule4_delta(scheme) and the pivot k = #{l: tau_l <= ds} >= 1.
    A side's slack is sum_l own_l*(its count) + other_l*(the other side's).
    Weight l is own_l - other_l from the pivot on; below it, a closed form
    that own_l - other_l can miss by an ulp."""
    taus = scheme.taus
    ds = rule4_delta(scheme)
    k = bisect_right(taus, ds)
    weights, own, other = [], [], []
    for l, (tl, tnext) in enumerate(zip(taus, taus[1:] + (math.inf,)), start=1):
        own.append((ds * tl - 1.0) / (tl + 1.0))
        if l < k:
            other.append((ds - tnext) / (tnext + 1.0))
            weights.append((ds + 1.0) * (tl * tnext - 1.0) / ((tl + 1.0) * (tnext + 1.0)))
        else:
            other.append(-(1.0 if math.isinf(tnext) else (tnext - ds) / (tnext - 1.0)))
            weights.append(own[-1] - other[-1])
    return tuple(weights), (tuple(own), tuple(other)), ds, k


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
        slack_p, slack_q = _condition1_diff(tally, rule)
        scale = max(1.0, abs(p), abs(q))
        assert abs((p - q) - (slack_p - slack_q)) <= 1e-9 * scale, (p, q, slack_p - slack_q)
    return _resolve(tally.pair, p, q)


def rule4_decide(tally: PairwiseTally, scheme: ThresholdScheme) -> PairwiseDecision:
    """General-scheme weighted majority over a tally built under that scheme."""
    return decide_tally(tally, make_rule("rule4", taus=scheme))


def _condition1_diff(tally: PairwiseTally, rule: Rule) -> tuple[float, float]:
    """Slacks (rhs - lhs) of a rule4 rule's feasibility inequality for the
    pair's two sides, in pair order."""
    own, other = rule.condition1
    coefs, a, b = own + other, tally.a_counts, tally.b_counts
    return math.fsum(map(operator.mul, coefs, a + b)), math.fsum(map(operator.mul, coefs, b + a))


def condition1_holds(tally: PairwiseTally, side: str) -> bool:
    """Whether a side's feasibility inequality holds (within 1e-9); at least
    one side of any tally always does."""
    if side not in tally.pair:
        raise ValueError(f"{side!r} is not in the pair {tally.pair}")
    rule = Rule("rule4", scheme=tally.scheme)
    return _condition1_diff(tally, rule)[tally.pair.index(side)] >= -1e-9


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

    Two candidates: the scheme's worst ratio term rule4_delta(rule.scheme) for
    the threshold rules (see the module docstring), sqrt(2) for rule5.
    Three or more candidates (winner from the uncovered set): rule1 takes
    min{b+2, b^2} of its two-candidate bound b, rule3/rule4 square theirs,
    rule5 gives 2. rule2 admits no bound beyond two candidates.
    """
    if num_candidates < 2:
        raise ValueError("bounds are defined for two or more candidates")
    if rule.kind == "rule5":
        return SQRT2 if num_candidates == 2 else 2.0
    b = rule4_delta(rule.scheme)
    if num_candidates == 2:
        return b
    if rule.kind == "rule2":
        raise ValueError("rule2 has no distortion bound beyond two candidates")
    return min(b + 2.0, b * b) if rule.kind == "rule1" else b * b


def lambda_coefficients(rule: Rule) -> tuple[float, float]:
    """(q, z) of the rule's lambda-inequality: the winner W of a pair (W, Q)
    has SC(W) <= q*SC(Q) + z*SC(Z) for every point Z. rule1 gives (1, 2),
    rule5 (1, 1+sqrt(2)), rule3 and rule4 (tau_m, 2); rule2 admits none."""
    if rule.kind == "rule2":
        raise ValueError("rule2 winners satisfy no lambda-inequality")
    if rule.kind in ("rule3", "rule4"):
        return rule.scheme.taus[-1], 2.0
    return 1.0, 2.0 if rule.kind == "rule1" else 1.0 + SQRT2
