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
pair_scores is the one scorer from strength profiles to side scores: the
chunk path (search_oracle._winners) calls it, and the evaluate path through
prepare_profiles, which keeps the scores on the profiles for decide_profile.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .metric_core import MetricInstance
from .tallies import (INCLUSIVE, STRICT, ExactProfile, PairwiseTally, ThresholdScheme,
                      _joined_sides, bucket_counts, exact_profile)
# Unused here, but perfbench/tracer.py counts calls through this module attribute.
from .tallies import bucket_profile  # noqa: F401

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

    def weight(self, strength):
        """Decision weight of a voter with the given strength (0 in C);
        elementwise on an array."""
        if self.kind == "rule5":
            return rule5_weight(strength)
        return np.array((0.0,) + self.weights)[self.scheme.bucket(strength, self.boundary)]


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


def _row_fsums(terms: np.ndarray) -> list[float]:
    """math.fsum of each row (along the last axis) of an array, rows in C
    order. fsum is correctly rounded, so the order of a row's terms does not
    matter."""
    return list(map(math.fsum, terms.reshape(-1, terms.shape[-1]).tolist()))


def _slack_sums(condition1, counts: np.ndarray) -> list[float]:
    """Condition 1's slacks from (2, n, m) counts, side a's rows then side
    b's: the fsum of own_l*(its count) and other_l*(the other side's)."""
    return _row_fsums(np.concatenate(condition1, axis=-1)
                      * np.concatenate((counts, counts[::-1]), axis=-1))


def condition1_slacks(condition1, a, b) -> tuple[list[float], list[float]]:
    """Slacks (rhs - lhs) of condition 1 for both sides of each row of bucket
    counts a (pair[0]'s side) and b, with condition1 = (own, other) per
    bucket, one row for every row of counts or one for all."""
    sums = _slack_sums(condition1, np.array([a, b]))
    return sums[:len(a)], sums[len(a):]


def side_scores(weights, a, b, condition1=()) -> tuple[list[float], list[float]]:
    """Both sides' scores sum_l w_l * count_l for each row of bucket counts a
    (pair[0]'s side) and b, with one row of weights for every row of counts
    or one for all: the one place a threshold rule's scores are summed.
    Given rule4's condition1 coefficients, each row's score gap is checked
    against the gap between its two sides' condition-1 slacks (see
    condition1_holds)."""
    n, counts = len(a), np.array([a, b])
    sums = _row_fsums(np.multiply(weights, counts))
    if __debug__ and condition1:
        _check_gaps(sums, _slack_sums(condition1, counts))
    return sums[:n], sums[n:]


def _check_gaps(scores, slacks) -> None:
    """Raise AssertionError unless each row's score gap matches its slack
    gap; both are laid out as side a's rows then side b's."""
    scores, slacks = np.reshape(scores, (2, -1)), np.reshape(slacks, (2, -1))
    scale = np.maximum(1.0, np.abs(scores).max(axis=0))
    close = np.abs((scores[0] - scores[1]) - (slacks[0] - slacks[1])) <= 1e-9 * scale
    if not close.all():
        i = int(np.argmin(close))
        raise AssertionError((*scores[:, i].tolist(), float(slacks[0, i] - slacks[1, i])))


def decide_tally(tally: PairwiseTally, rule: Rule) -> PairwiseDecision:
    """Weighted majority over a tally: each side scores sum_l w_l * count_l.

    The tally must use the rule's scheme and boundary mode; a lone cutoff of 1
    buckets the same either way. For rule4 the score gap equals the gap
    between the two sides' feasibility slacks (see side_scores).
    """
    taus = rule.scheme.taus if rule.scheme is not None else None
    if tally.scheme.taus != taus:
        raise SchemeMismatch(f"{rule.kind} expects scheme {taus}, tally has {tally.scheme.taus}")
    if tally.boundary != rule.boundary and tally.scheme.taus != (1.0,):
        raise SchemeMismatch(
            f"{rule.kind} expects {rule.boundary} boundary, tally used {tally.boundary}")
    (p,), (q,) = side_scores(rule.weights, [tally.a_counts], [tally.b_counts], rule.condition1)
    return _resolve(tally.pair, p, q)


def rule4_decide(tally: PairwiseTally, scheme: ThresholdScheme) -> PairwiseDecision:
    """General-scheme weighted majority over a tally built under that scheme."""
    return decide_tally(tally, make_rule("rule4", taus=scheme))


def rule4_tally_columns(tallies) -> np.ndarray:
    """rule4 under each tally's own scheme, as a (4, n) array of columns: the
    pair[0] and pair[1] side scores (side_scores), then the two sides'
    condition-1 slacks. The slacks are summed once, and every row's score
    gap is checked against their gap as side_scores checks it. rule4_weights
    is derived once per tally, and the tallies of one scheme length are
    summed together."""
    out = np.empty((4, len(tallies)))
    by_length = {}
    for i, tally in enumerate(tallies):
        by_length.setdefault(tally.scheme.m, []).append(i)
    for rows in by_length.values():
        weights, own, other = [], [], []
        for i in rows:
            w, (o, x), _, _ = rule4_weights(tallies[i].scheme)
            weights.append(w)
            own.append(o)
            other.append(x)
        a = np.array([tallies[i].a_counts for i in rows])
        b = np.array([tallies[i].b_counts for i in rows])
        condition1 = (np.array(own), np.array(other))
        scores = side_scores(np.array(weights), a, b)
        slacks = condition1_slacks(condition1, a, b)
        if __debug__:
            _check_gaps(scores, slacks)
        out[:, rows] = *scores, *slacks
    return out


def _condition1_diff(tally: PairwiseTally, rule: Rule) -> tuple[float, float]:
    """Slacks (rhs - lhs) of a rule4 rule's feasibility inequality for the
    pair's two sides, in pair order."""
    (p,), (q,) = condition1_slacks(rule.condition1, [tally.a_counts], [tally.b_counts])
    return p, q


def condition1_holds(tally: PairwiseTally, side: str) -> bool:
    """Whether a side's feasibility inequality holds (within 1e-9); at least
    one side of any tally always does."""
    if side not in tally.pair:
        raise ValueError(f"{side!r} is not in the pair {tally.pair}")
    rule = Rule("rule4", scheme=tally.scheme)
    return _condition1_diff(tally, rule)[tally.pair.index(side)] >= -1e-9


def rule5_weight(strength):
    """rule5's weight of a strength, elementwise on an array."""
    s = np.asarray(strength, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.where(s > SQRT2, (SQRT2 * s - 1.0) / (s + 1.0), s - 1.0)
    w = np.where(np.isinf(s), SQRT2, w)
    return w if w.ndim else float(w)


def pair_scores(profiles, rules) -> list[tuple[list[float], list[float]]]:
    """Each rule's (a, b) side scores for every profile, as two lists in
    profile order. rule5 sums its voters' rule5_weight, weighed in one pass
    over all the profiles' strengths; a threshold rule sums its bucket
    weights by side_scores, over counts bucketed once per distinct (scheme,
    boundary)."""
    out, counts = [], {}
    for rule in rules:
        if rule.kind == "rule5":
            strengths, sizes = _joined_sides(profiles)
            weights = rule5_weight(strengths)
            ends = list(accumulate(sizes))
            sums = [math.fsum(weights[lo:hi].tolist()) for lo, hi in zip([0] + ends, ends)]
            out.append((sums[0::2], sums[1::2]))
            continue
        key = (rule.scheme.taus, rule.boundary)
        if key not in counts:
            counts[key] = bucket_counts(profiles, rule.scheme, rule.boundary)[:, :, 1:]
        out.append(side_scores(rule.weights, counts[key][:, 0], counts[key][:, 1],
                               rule.condition1))
    return out


def _score_key(rule: Rule):
    """What a rule's side scores on a profile depend on: the exact strengths
    for rule5; a threshold rule's scheme, boundary and weights."""
    return "rule5" if rule.kind == "rule5" else (rule.scheme.taus, rule.boundary, rule.weights)


def prepare_profiles(profiles, rules) -> None:
    """Score the profiles that lack some rule's side scores in one
    pair_scores batch, and keep each rule's scores on every profile that has
    none yet; decide_profile reads the kept scores."""
    keys = [_score_key(rule) for rule in rules]
    todo = [prof for prof in profiles if not all(map(prof._scores.__contains__, keys))]
    if todo:
        for key, (p, q) in zip(keys, pair_scores(todo, rules)):
            for prof, scores in zip(todo, zip(p, q)):
                prof._scores.setdefault(key, scores)


def decide_profile(profile: ExactProfile, rule: Rule) -> PairwiseDecision:
    """Decide a pair from its exact profile, revealing only what the rule may
    see: its side scores under the rule, as prepare_profiles keeps them."""
    prepare_profiles([profile], [rule])
    return _resolve(profile.pair, *profile._scores[_score_key(rule)])


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
