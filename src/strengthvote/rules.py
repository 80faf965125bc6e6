"""Pairwise decision rules over strength tallies, and their distortion bounds.

Every rule decides an ordered pair (P, Q) by a weighted vote and breaks exact
ties toward the lexicographically smaller candidate id. The four threshold
rules share one shape: ballots are bucketed by a threshold scheme, whose
cutoffs and cutoff comparison (see tallies) fix the ballot format, and each
bucket l >= 1 carries one weight; the hidden set C (bucket 0) always weighs 0.

    rule   scheme: cutoffs, comparison        bucket weights
    rule1  (1, tau), or (1,) at 1, strict     (1, strong): strong = tau when
                                              tau < 1+sqrt(2), else (tau+1)/(tau-1)
    rule2  (1, tau), tau > 1, strict          (1, (tau+1)/(tau-1))
    rule3  (tau,), inclusive                  (1,)
    rule4  any tau_1 < ... < tau_m, inclusive rule4_weights(scheme), from the
                                              scheme's worst ratio term rule4_delta

Under strict cutoffs a strength equal to tau stays in the lower bucket; rule2
coincides with rule1 for tau >= 1+sqrt(2). A Rule computes its row of the
table once, when it is built. rule4_delta alone refuses ratio terms that
overflow to inf or nan (InvalidThreshold), and _check_identity alone rule4
weights and coefficients, for a Rule and rule4_row_columns alike. rule5
checks strengths as bucket does, and weighs each voter by the continuous
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
_instance_scores is the one path from voter columns to pair scores, through
_pair_scores, the one scorer of joined strengths: search_oracle._winners
calls it on a chunk, and decide_pair (so evaluate) once per instance and
Rule, keeping the scores on the instance.
rule4_row_columns is the one core for rule4 count rows, each under its own
scheme: it checks the rows, derives their condition-1 coefficients and sums
their scores and slacks. check_condition1 calls it on drawn rows, and
_tally_slacks on one tally's row, for condition1_holds and for
_condition1_diff, which first checks that its rule is rule4 under the
tally's scheme.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations

import numpy as np

from .metric_core import MetricInstance, SameCandidate
from .tallies import (INCLUSIVE, STRICT, ExactProfile, PairwiseTally, ThresholdScheme,
                      _sides, _strength_array)
# Unused here, but perfbench/tracer.py counts calls through these module attributes.
from .tallies import bucket_profile, exact_profile  # noqa: F401

SQRT2 = math.sqrt(2.0)

RULE_KINDS = ("rule1", "rule2", "rule3", "rule4", "rule5")


class InvalidThreshold(ValueError):
    """A rule got a threshold outside its admissible range."""


class SchemeMismatch(ValueError):
    """A tally was bucketed otherwise than the rule's scheme buckets."""


@dataclass(frozen=True)
class Rule:
    """A pairwise rule. rule1-3 read tau, rule4 reads scheme and rule5 reads
    neither; any other threshold argument raises InvalidThreshold. The
    constructor checks the thresholds and derives the rest of the threshold
    rules' definition: scheme (rule1-3 from tau, with its comparison) and
    per-bucket weights, rule4's from rule4_weights and passed through
    _check_identity. A scheme whose ratio terms are not finite floats raises
    InvalidThreshold in rule4_delta, which rule1-3 call on their scheme and
    rule4 through rule4_weights; a strict scheme for rule4, which buckets
    inclusively, raises it here. rule5 has no buckets."""

    kind: str
    tau: float | None = None
    scheme: ThresholdScheme | None = None
    weights: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        kind, tau, scheme = self.kind, self.tau, self.scheme
        if kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {kind!r}")
        if kind == "rule5":
            if tau is not None or scheme is not None:
                raise InvalidThreshold("rule5 takes no thresholds")
            weights = ()
        elif kind == "rule4":
            if tau is not None:
                raise InvalidThreshold("rule4 takes a threshold scheme, not tau")
            if scheme is None:
                raise InvalidThreshold("rule4 needs a threshold scheme")
            if not isinstance(scheme, ThresholdScheme):
                scheme = ThresholdScheme(tuple(scheme))
            if scheme.boundary != INCLUSIVE:
                raise InvalidThreshold(f"rule4 buckets inclusively, got a {scheme.boundary} scheme")
            weights, condition1, _, _ = rule4_weights(scheme)
            _check_identity(weights, condition1)
        else:
            if scheme is not None:
                raise InvalidThreshold(f"{kind} takes tau, not a threshold scheme")
            if tau is None:
                raise InvalidThreshold(f"{kind} needs a threshold")
            tau = float(tau)
            if kind == "rule2":
                if not tau > 1.0:
                    raise InvalidThreshold(f"rule2 needs tau > 1, got {tau}")
            elif not tau >= 1.0:
                raise InvalidThreshold(f"{kind} needs tau >= 1, got {tau}")
            if kind == "rule3":
                scheme, weights = ThresholdScheme((tau,)), (1.0,)
            elif tau == 1.0:
                scheme, weights = ThresholdScheme((1.0,), STRICT), (1.0,)
            else:
                strong = (tau + 1.0) / (tau - 1.0) if kind == "rule2" or tau >= 1.0 + SQRT2 else tau
                scheme, weights = ThresholdScheme((1.0, tau), STRICT), (1.0, strong)
            rule4_delta(scheme)
        for name, value in dict(tau=tau, scheme=scheme, weights=weights).items():
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
        return np.array((0.0,) + self.weights)[self.scheme.bucket(strength)]


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
    """Worst ratio term of a scheme: the two-candidate bound of rule1-rule4.
    Python floats overflow to inf or nan silently, and max passes over a nan,
    so a ratio term that is not finite raises InvalidThreshold."""
    terms = ratio_terms(scheme.taus)
    if not all(map(math.isfinite, terms)):
        raise InvalidThreshold(f"thresholds {scheme.taus} overflow their ratio terms {terms}")
    return max(terms)


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


def _check_identity(weights, condition1) -> None:
    """The one check of rule4 rows, for Rule and rule4_row_columns alike, on
    weights and condition1 = (own, other), each one row or 2-D rows of one
    length. A non-finite entry raises InvalidThreshold, tested first since
    the tolerance holds for w = inf; then the first row whose w is not
    own - other within 1e-9 relative raises AssertionError((w, own - other)),
    so that a tally's score gap is its slack gap."""
    table = np.array((weights, *condition1))
    if np.count_nonzero(np.isfinite(table)) != table.size:
        rows = table.reshape(3, -1, table.shape[-1])
        w, own, other = rows[:, np.isfinite(rows).all(axis=(0, 2)).argmin()].tolist()
        raise InvalidThreshold(f"rule4 weights {w}, own {own} or other {other} overflow")
    w, gap = table[0], table[1] - table[2]
    ok = abs(gap - w) <= 1e-9 * np.maximum(1.0, abs(w))
    if np.count_nonzero(ok) != ok.size:
        w, gap, ok = np.atleast_2d(w, gap, ok)
        i = int(ok.all(axis=1).argmin())
        raise AssertionError((tuple(w[i].tolist()), tuple(gap[i].tolist())))


def side_scores(weights, a, b) -> tuple[list[float], list[float]]:
    """Both sides' scores sum_l w_l * count_l for each row of bucket counts a
    (pair[0]'s side) and b, with one row of weights for every row of counts
    or one for all: the one place a threshold rule's scores are summed. Each
    row is summed by math.fsum, which is correctly rounded, so the order of
    a row's terms does not matter."""
    terms = np.multiply(weights, np.array([a, b]))
    sums = list(map(math.fsum, terms.reshape(-1, terms.shape[-1]).tolist()))
    return sums[:len(a)], sums[len(a):]


def decide_tally(tally: PairwiseTally, rule: Rule) -> PairwiseDecision:
    """Weighted majority over a tally: each side scores sum_l w_l * count_l.

    The tally must be bucketed as the rule's scheme buckets (equal _cuts), so
    a lone cutoff of 1 passes under either comparison. For rule4 the score
    gap equals the gap between the two sides' feasibility slacks, checked as
    the Rule is built.
    """
    if rule.scheme is None or tally.scheme._cuts.tolist() != rule.scheme._cuts.tolist():
        raise SchemeMismatch(f"{rule.kind} expects scheme {rule.scheme}, tally has {tally.scheme}")
    (p,), (q,) = side_scores(rule.weights, [tally.a_counts], [tally.b_counts])
    return _resolve(tally.pair, p, q)


def rule4_decide(tally: PairwiseTally, scheme: ThresholdScheme) -> PairwiseDecision:
    """General-scheme weighted majority over a tally built under that scheme."""
    return decide_tally(tally, Rule("rule4", scheme=scheme))


def rule4_row_columns(schemes, counts) -> np.ndarray:
    """rule4 under each row's own scheme, as a (4, n) array of columns: the
    pair[0] and pair[1] side scores (side_scores), then the two sides'
    condition-1 slacks (rhs - lhs). Row i of counts is a tally's under
    schemes[i]: its m bucket counts for pair[0]'s side, then m for pair[1]'s,
    then the hidden set's count only when tau_1 > 1. A row of another length
    or with a negative count raises ValueError, as PairwiseTally would. A
    side's slack is its side score under the weights (own, other) of
    rule4_weights, over its own counts then the other side's. rule4_weights
    is derived once per row; the rows of one scheme length go through one
    _check_identity call (InvalidThreshold for an entry that is not finite,
    AssertionError for a mismatch), then are summed together."""
    if list(map(len, counts)) != [2 * s.m + (s.taus[0] > 1.0) for s in schemes]:
        raise ValueError("expected m bucket counts per side, then C's only when tau_1 > 1")
    if (np.fromiter(chain.from_iterable(counts), float) < 0).any():
        raise ValueError("bucket counts must be nonnegative")
    out = np.empty((4, len(schemes)))
    by_length = {}
    for i, scheme in enumerate(schemes):
        by_length.setdefault(scheme.m, []).append(i)
    for m, rows in by_length.items():
        weights, condition1, _, _ = zip(*[rule4_weights(schemes[i]) for i in rows])
        own, other = zip(*condition1)
        weights, condition1 = np.array(weights), (np.array(own), np.array(other))
        _check_identity(weights, condition1)
        ab = np.array([counts[i][:2 * m] for i in rows])
        a, b = ab[:, :m], ab[:, m:]
        out[:, rows] = (*side_scores(weights, a, b),
                        *side_scores(np.concatenate(condition1, axis=-1), ab,
                                     np.concatenate((b, a), axis=-1)))
    return out


def _tally_slacks(tally: PairwiseTally) -> tuple[float, float]:
    """Slacks (rhs - lhs) of rule4's feasibility inequality under the tally's
    own scheme for the pair's two sides, in pair order: the tally's row of
    rule4_row_columns, which derives and checks its weights."""
    hidden = (tally.c_count,) if tally.scheme.taus[0] > 1.0 else ()
    (p,), (q,) = rule4_row_columns([tally.scheme],
                                   [tally.a_counts + tally.b_counts + hidden])[2:].tolist()
    return p, q


def _condition1_diff(tally: PairwiseTally, rule: Rule) -> tuple[float, float]:
    """A rule4 rule's _tally_slacks. Any rule but rule4 under the tally's own
    scheme raises SchemeMismatch."""
    if rule.kind != "rule4" or rule.scheme != tally.scheme:
        raise SchemeMismatch(f"condition 1 needs rule4 under the tally's scheme {tally.scheme}, "
                             f"got {rule.label()}")
    return _tally_slacks(tally)


def condition1_holds(tally: PairwiseTally, side: str) -> bool:
    """Whether a side's feasibility inequality holds (within 1e-9); at least
    one side of any tally always does. It builds no Rule: the tally's row
    goes straight to rule4_row_columns (_tally_slacks)."""
    if side not in tally.pair:
        raise ValueError(f"{side!r} is not in the pair {tally.pair}")
    return _tally_slacks(tally)[tally.pair.index(side)] >= -1e-9


def rule5_weight(strength):
    """rule5's weight of a strength, elementwise on an array; a strength
    that ThresholdScheme.bucket refuses (_strength_array) raises here too."""
    s = _strength_array(strength)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.where(s > SQRT2, (SQRT2 * s - 1.0) / (s + 1.0), s - 1.0)
    w = np.where(np.isinf(s), SQRT2, w)
    return w if w.ndim else float(w)


def _pair_scores(strengths: np.ndarray, sizes, rules) -> list[tuple[list[float], list[float]]]:
    """Each rule's (a, b) side scores for n pairs whose strengths are joined
    in one array, the n a sides then the n b sides, sizes giving the 2n
    sides' lengths in that order. rule5 sums its voters' rule5_weight,
    weighed in one pass over the array; a threshold rule sums its bucket
    weights by side_scores, over counts bucketed with one searchsorted and
    counted with one bincount per distinct scheme."""
    n = len(sizes) // 2
    out, counts = [], {}
    for rule in rules:
        if rule.kind == "rule5":
            weights = rule5_weight(strengths)
            ends = list(accumulate(sizes))
            sums = [math.fsum(weights[hi - k:hi].tolist()) for k, hi in zip(sizes, ends)]
            out.append((sums[:n], sums[n:]))
            continue
        scheme = rule.scheme
        if scheme not in counts:
            width = scheme.m + 1
            buckets = scheme.bucket(strengths)
            buckets += np.arange(0, len(sizes) * width, width).repeat(sizes)
            counts[scheme] = np.bincount(buckets, minlength=len(sizes) * width).reshape(
                2, n, width)[:, :, 1:]
        out.append(side_scores(rule.weights, *counts[scheme]))
    return out


def _instance_scores(instances, rules) -> list[tuple[list[float], list[float]]]:
    """_pair_scores for every candidate pair of each instance in turn, in
    combinations order of its sorted candidates, a toward the smaller id:
    one kernel pass over the pairs' voter columns (tallies._sides)."""
    pairs = [pair for inst in instances
             for pair in combinations(map(inst.voter_distances, sorted(inst.candidates)), 2)]
    return _pair_scores(*_sides(*zip(*pairs)), rules)


def decide_profile(profile: ExactProfile, rule: Rule) -> PairwiseDecision:
    """Decide a pair from its exact profile, revealing only what the rule may
    see: its side scores under the rule (_pair_scores)."""
    sides = (profile.a, profile.b)
    ((p,), (q,)), = _pair_scores(np.concatenate(sides), list(map(len, sides)), [rule])
    return _resolve(profile.pair, p, q)


def decide_pair(inst: MetricInstance, p: str, q: str, rule: Rule) -> PairwiseDecision:
    """Decide an ordered candidate pair of an instance under a rule. An id
    that is not a candidate raises ValueError, and p == q SameCandidate. The
    first call under a rule scores all the instance's pairs (_instance_scores)
    and keeps them on the instance by rule; (q, p) reads (p, q)'s swapped."""
    for c in (p, q):
        if c not in inst.candidates:
            raise ValueError(f"{c!r} is not a candidate")
    if p == q:
        raise SameCandidate(p)
    if rule not in inst._scores:
        (firsts, seconds), = _instance_scores([inst], [rule])
        pairs = combinations(sorted(inst.candidates), 2)
        inst._scores[rule] = dict(zip(pairs, zip(firsts, seconds)))
    a, b = inst._scores[rule][min(p, q), max(p, q)]
    return _resolve((p, q), *((a, b) if p < q else (b, a)))


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
