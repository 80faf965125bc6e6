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
coincides with rule1 for tau >= 1+sqrt(2). A Rule computes its row once,
when it is built. Ratio terms that overflow to inf or nan are refused
(InvalidThreshold) by one test on each path, _worst_term on the scalar row
and _rule4_table on the array table, with the same message; rule4 weights
and coefficients by _check_identity alone, for a Rule and _rule4_columns
alike. rule5 checks strengths as bucket does, and weighs each voter by the
continuous rule5_weight: (sqrt(2)*s - 1)/(s + 1) when s > sqrt(2), else
s - 1; the branches agree at s = sqrt(2) and the weight tends to sqrt(2) as
s -> +inf.

A scheme's ratio terms (ratio_terms) are tau_1, one term per pair of
neighbouring cutoffs and (tau_m + 2)/tau_m. A threshold rule's two-candidate
bound is the largest of them, rule4_delta: (1, tau) gives
max{(tau+2)/tau, (3*tau-1)/(tau+1)} (rule1, rule2) and (tau,) gives
max{tau, (tau+2)/tau} (rule3). distortion_lab's hard-instance families each
approach one ratio term. rule4's row (the ratio terms, their max ds, the
pivot k, the weights and condition 1's coefficients) comes from five
formulas, each written once with only + - * / and integer constants, so
that floats, numpy arrays and Fractions all evaluate them. Two callers pick
their branches: _rule4_row with if, for one scheme (ratio_terms,
rule4_delta, rule4_weights and so every Rule, which keeps its ds; on
Fractions it is the exact row), and _rule4_table with np.where, over an
(n, m) array of cutoffs, one scheme per row, with which _rule4_columns
derives each scheme length's rows in one call. Both give the same bits.
The multiway and ideal-point guarantees rest on each rule's lambda-inequality
SC(W) <= q*SC(Q) + z*SC(Z), with (q, z) from lambda_coefficients.
_instance_scores is the one path from voter columns to pair scores, through
_pair_scores, the one scorer of joined strengths: search_oracle._winners
calls it on a chunk, and decide_pair (so evaluate) once per instance and
Rule, keeping the scores on the instance.
_rule4_columns is the one core for rule4 count rows, each under its own
scheme, over a ragged table of arrays (each row's m, the cutoffs, each
row's count length, the counts): it checks the rows as ThresholdScheme and
PairwiseTally would, derives their condition-1 coefficients and sums their
scores and slacks. check_condition1 hands it the table it decodes from the
draw stream; rule4_row_columns joins a list of (scheme, count row) pairs
into the table, for _tally_slacks on one tally's row (condition1_holds and
_condition1_diff, which first checks that its rule is rule4 under the
tally's scheme).
side_scores is the one place threshold scores and condition-1 slacks are
summed, each row to math.fsum's bits: a row of one or two terms by a numpy
row sum, a batch of _KERNEL_ROWS or more longer rows by _row_fsums (two
TwoSum cascades and a per-row rounding certificate, with math.fsum for a
row it cannot certify), and any other row by math.fsum.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations

import numpy as np

from .metric_core import MetricInstance, SameCandidate
from .tallies import (INCLUSIVE, STRICT, ExactProfile, PairwiseTally, ThresholdScheme,
                      _cutoff_error, _sides, _strength_array)
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
    InvalidThreshold in _worst_term, which rule1-3 reach through rule4_delta
    on their scheme and rule4 through rule4_weights; a strict scheme for
    rule4, which buckets inclusively, raises it here. Neither reaches
    _rule4_table: the build derives one scalar row. It keeps the scheme's
    worst ratio term, rule4_delta's ds, as ds, for bound_value and the grid
    sweep; rule5 has no buckets and ds None."""

    kind: str
    tau: float | None = None
    scheme: ThresholdScheme | None = None
    weights: tuple[float, ...] = field(init=False)
    ds: float | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        kind, tau, scheme = self.kind, self.tau, self.scheme
        if kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {kind!r}")
        if kind == "rule5":
            if tau is not None or scheme is not None:
                raise InvalidThreshold("rule5 takes no thresholds")
            weights, ds = (), None
        elif kind == "rule4":
            if tau is not None:
                raise InvalidThreshold("rule4 takes a threshold scheme, not tau")
            if scheme is None:
                raise InvalidThreshold("rule4 needs a threshold scheme")
            if not isinstance(scheme, ThresholdScheme):
                scheme = ThresholdScheme(tuple(scheme))
            if scheme.boundary != INCLUSIVE:
                raise InvalidThreshold(f"rule4 buckets inclusively, got a {scheme.boundary} scheme")
            weights, condition1, ds, _ = rule4_weights(scheme)
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
            ds = rule4_delta(scheme)
        for name, value in dict(tau=tau, scheme=scheme, weights=weights, ds=ds).items():
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


# rule4's formulas, each written once. They use only + - * / and integer
# constants, so Python floats, numpy arrays and Fractions all evaluate them,
# floats and arrays to the same bits; the callers pick the branches.

def _neighbour_term(lo, hi):
    """The ratio term of neighbouring cutoffs tau_l = lo < tau_{l+1} = hi."""
    return (lo * hi + 2 * hi - 1) / (lo * hi + 1)


def _last_term(last):
    """The ratio term of the top cutoff tau_m."""
    return (last + 2) / last


def _own(d, t):
    """Condition 1's own coefficient of the bucket at cutoff t, under bound d."""
    return (d * t - 1) / (t + 1)


def _below_pivot(d, t, tnext):
    """(weight, other) of the bucket at cutoff t below the pivot, tnext <= d."""
    return (d + 1) * (t * tnext - 1) / ((t + 1) * (tnext + 1)), (d - tnext) / (tnext + 1)


def _other_above(d, tnext):
    """Condition 1's other coefficient of a bucket from the pivot on, below
    the top one: tnext > d. The top bucket's is -1."""
    return -((tnext - d) / (tnext - 1))


def _overflow(taus, terms) -> InvalidThreshold:
    return InvalidThreshold(f"thresholds {tuple(taus)} overflow their ratio terms {tuple(terms)}")


def _rule4_table(cuts: np.ndarray):
    """rule4's row, as _rule4_row gives it, for each row of an (n, m) array
    of cutoffs: weights, own and other as (n, m) arrays, ds and k one entry
    per row, with the branches picked by np.where. Each entry is elementwise
    IEEE arithmetic on its own row, so a row's bits do not depend on the
    rest of the array and equal _rule4_row's. The first row whose ratio term
    is not finite raises the InvalidThreshold that _worst_term raises for
    it. An own, other or weight that overflows is left inf or nan, with no
    RuntimeWarning, for _check_identity to refuse."""
    hi = cuts[:, 1:]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.concatenate((cuts[:, :1], _neighbour_term(cuts[:, :-1], hi),
                                _last_term(cuts[:, -1:])), axis=1)
    finite = np.isfinite(terms).all(axis=1)
    if not finite.all():
        i = finite.argmin()
        raise _overflow(cuts[i].tolist(), terms[i].tolist())
    ds = terms.max(axis=1)
    d, tl = ds[:, None], cuts
    tnext = np.concatenate((hi, np.full((len(cuts), 1), math.inf)), axis=1)
    below = tnext <= d  # l < k, as the cutoffs increase
    with np.errstate(over="ignore", invalid="ignore"):
        own = _own(d, tl)
        weight_below, other_below = _below_pivot(d, tl, tnext)
        other = np.where(below, other_below,
                         np.where(np.isinf(tnext), -1.0, _other_above(d, tnext)))
        weights = np.where(below, weight_below, own - other)
    return weights, (own, other), ds, np.count_nonzero(cuts <= d, axis=1)


def ratio_terms(taus) -> tuple:
    """The m+1 ratio terms of a scheme tau_1 < ... < tau_m: tau_1, then
    (tau_l*tau_{l+1} + 2*tau_{l+1} - 1)/(tau_l*tau_{l+1} + 1) for each pair of
    neighbouring cutoffs, then (tau_m + 2)/tau_m, in the cutoffs' number
    type. A float term that overflows is inf or nan."""
    return (taus[0], *map(_neighbour_term, taus, taus[1:]), _last_term(taus[-1]))


def _worst_term(taus):
    """The largest ratio term of the cutoffs taus. A term that is not finite
    raises InvalidThreshold naming the thresholds and terms, since max would
    pass over a nan."""
    terms = ratio_terms(taus)
    if not all(map(math.isfinite, terms)):
        raise _overflow(taus, terms)
    return max(terms)


def _rule4_row(taus) -> tuple[tuple, tuple, float, int]:
    """rule4_weights of the cutoffs taus, with the branches picked by if, in
    the cutoffs' number type: floats give _rule4_table's bits, Fractions the
    exact row. A ratio term that is not finite raises InvalidThreshold
    (_worst_term)."""
    d = _worst_term(taus)
    own, buckets = [], []
    for t, tnext in zip(taus, taus[1:] + (None,)):
        own.append(_own(d, t))
        if tnext is not None and tnext <= d:
            buckets.append(_below_pivot(d, t, tnext))
        else:
            other = type(d)(-1) if tnext is None else _other_above(d, tnext)
            buckets.append((own[-1] - other, other))
    weights, other = zip(*buckets)
    return weights, (tuple(own), other), d, bisect_right(taus, d)


def rule4_delta(scheme: ThresholdScheme) -> float:
    """Worst ratio term of a scheme: the two-candidate bound of rule1-rule4.
    A ratio term that is not finite raises InvalidThreshold (_worst_term)."""
    return _worst_term(scheme.taus)


def rule4_weights(scheme: ThresholdScheme) -> tuple[tuple, tuple, float, int]:
    """Bucket weights, condition 1's per-bucket (own, other) coefficients, the
    bound ds = rule4_delta(scheme) and the pivot k = #{l: tau_l <= ds} >= 1,
    as tuples of floats, a float and an int: the scheme's _rule4_row. A
    side's slack is sum_l own_l*(its count) + other_l*(the other side's).
    Weight l is own_l - other_l from the pivot on; below it, a closed form
    that own_l - other_l can miss by an ulp."""
    return _rule4_row(scheme.taus)


def _check_identity(weights, condition1) -> None:
    """The one check of rule4 rows, for Rule and _rule4_columns alike, on
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


# Rows of three or more terms from which side_scores sums a batch with
# _row_fsums, not one math.fsum call per row. The kernel's numpy calls do not
# grow with the batch (about 50 for rows of 4 terms, 100 for 8). In a
# microbenchmark of both sides on random rows of 3 to 8 terms, on 2 cores
# (Python 3.11, numpy 2.4), the kernel overtook fsum between 150 and 250 rows.
# No benchmark workload runs the fsum side with such rows: check_condition1's
# length groups are all above the threshold, and evaluate's and search's
# rules have at most two buckets.
_KERNEL_ROWS = 256


def _two_sum(a, b):
    """(fl(a + b), a + b - fl(a + b)), elementwise: Knuth's TwoSum, whose
    error term is exact for finite floats whose sum does not overflow."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _row_fsums(rows: np.ndarray) -> np.ndarray:
    """math.fsum of each row of an (n, k) float array, k >= 3, whose terms
    are finite and far below the overflow threshold: the certificate that
    side_scores states, with math.fsum for each row it cannot certify."""
    s, errors = rows[:, 0], []
    for column in rows.T[1:]:
        s, e = _two_sum(s, column)
        errors.append(e)
    t, residues = errors[0], []
    for e in errors[1:]:
        t, f = _two_sum(t, e)
        residues.append(f)
    r, g = _two_sum(s, t)
    bound = np.abs(residues).sum(axis=0) * (2.0 + len(residues) * 2.0 ** -51)
    g2 = g + g
    certified = (bound == 0.0) | ((g2 + bound < np.nextafter(r, math.inf) - r)
                                  & (bound - g2 < r - np.nextafter(r, -math.inf)))
    sums = r + 0.0
    for i in np.flatnonzero(~certified).tolist():
        sums[i] = math.fsum(rows[i].tolist())
    return sums


def side_scores(weights, a, b) -> tuple[list[float], list[float]]:
    """Both sides' scores sum_l w_l * count_l for each row of bucket counts a
    (pair[0]'s side) and b, with one row of weights for every row of counts
    or one for all: the one place a threshold rule's scores are summed. Each
    row's sum is math.fsum of the row, correctly rounded with ties to even
    and +0.0 for a zero sum, so the order of a row's terms does not matter.
    A row of one or two terms is one numpy row sum: one IEEE addition of two
    finite terms is correctly rounded too, and a zero sum comes out +0.0. A
    batch of _KERNEL_ROWS or more rows of three or more terms is summed by
    _row_fsums in whole-column passes, and a smaller batch by math.fsum, one
    call per row; the bits are the same either way. No row overflows or
    raises a RuntimeWarning under an admitted rule: rule1-3 weights are at
    most 9.1e15, and a rule4 row's weights and coefficients are finite after
    _check_identity, below ds + 1 with ds*tau_m finite, so under 1.4e154.

    _row_fsums' certificate. TwoSum(a, b) gives s = fl(a + b) and the exact
    error a + b - s. A TwoSum cascade over a row's terms gives s1 and k - 1
    errors e with sum(x) = s1 + sum(e) exactly; a second cascade over the
    errors gives s2 and k - 2 residues f with sum(e) = s2 + sum(f) exactly;
    TwoSum(s1, s2) gives r and g, so sum(x) = r + g + F with F = sum(f).
    B = fl(fl(sum|f|) * (2 + (k-2) * 2**-51)) is at least 2*sum|f| >= 2|F|:
    the float sum of k - 2 nonnegative residues falls short of the true sum
    by less than (k-2) * 2**-53 of it (by nothing in the subnormal range),
    and the factor's excess over 2 covers that and the product's rounding.
    If B = 0 every residue is 0, so r = fl(s1 + s2) is the IEEE rounding of
    sum(x) itself, ties to even included, and needs no gap test. Otherwise
    let hi and lo be the gaps from r to the floats above and below it
    (exact float differences; 2g is exact too). If fl(2g + B) < hi and
    fl(B - 2g) < lo, then 2g + B < hi and B - 2g < lo exactly, since
    rounding is monotone and hi and lo are floats, so sum(x) - r = g + F
    lies strictly inside (-lo/2, hi/2) and sum(x) rounds to r. At a power of
    two the gap below is half the gap above, so each side is tested against
    its own gap; a zero g thus meets the smaller one. A row that fails the
    test goes to math.fsum, and r + 0.0 turns a zero sum into +0.0."""
    terms = np.multiply(weights, np.array([a, b]))
    rows = terms.reshape(-1, terms.shape[-1])
    if rows.shape[1] <= 2:
        sums = rows.sum(axis=1).tolist()
    elif len(rows) >= _KERNEL_ROWS:
        sums = _row_fsums(rows).tolist()
    else:
        sums = list(map(math.fsum, rows.tolist()))
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


def _rule4_columns(m, cuts, lengths, counts) -> np.ndarray:
    """The one core for rule4 count rows, each under its own scheme, as a
    (4, n) array of columns: the pair[0] and pair[1] side scores
    (side_scores), then the two sides' condition-1 slacks (rhs - lhs). The
    n rows come as a ragged table: row i's cutoff count m[i], the rows'
    cutoffs joined in cuts, row i's count length lengths[i] and the rows'
    counts joined in counts. A row's counts are its m bucket counts for
    pair[0]'s side, then m for pair[1]'s, then the hidden set's count only
    when tau_1 > 1. The first row whose cutoffs ThresholdScheme would refuse
    raises its ValueError (tallies._cutoff_error); then a row of another
    length or a negative count raises ValueError, as PairwiseTally would. A
    side's slack is its side score under the weights (own, other) of
    rule4_weights, over its own counts then the other side's. The rows of
    one cutoff count, taken in order of first appearance, get their weights
    from one _rule4_table call on their cutoffs (InvalidThreshold for a
    ratio term that is not finite), go through one _check_identity call
    (InvalidThreshold for an entry that is not finite, AssertionError for a
    mismatch), then are summed together."""
    m, lengths = np.asarray(m, dtype=np.intp), np.asarray(lengths, dtype=np.intp)
    cuts, counts = np.asarray(cuts, dtype=float), np.asarray(counts)
    ends = np.cumsum(m)
    starts = ends - m
    lead = np.zeros(len(cuts), dtype=bool)
    lead[starts[m > 0]] = True
    # each cutoff finite, and >= 1 if its row's first, else above the one before
    ok = np.isfinite(cuts) & np.where(lead, cuts >= 1.0, cuts > np.roll(cuts, 1))
    refused = m < 1
    refused[np.repeat(np.arange(len(m)), m)[~ok]] = True
    if refused.any():
        i = refused.argmax()
        raise ValueError(_cutoff_error(tuple(cuts[starts[i]:ends[i]].tolist())))
    if lengths.shape != m.shape or (lengths != 2 * m + (cuts[starts] > 1.0)).any():
        raise ValueError("expected m bucket counts per side, then C's only when tau_1 > 1")
    if (counts < 0).any():
        raise ValueError("bucket counts must be nonnegative")
    firsts = np.cumsum(lengths) - lengths
    out = np.empty((4, len(m)))
    for g in m[np.sort(np.unique(m, return_index=True)[1])]:
        rows = np.flatnonzero(m == g)
        weights, condition1, _, _ = _rule4_table(cuts[starts[rows, None] + np.arange(g)])
        _check_identity(weights, condition1)
        ab = counts[firsts[rows, None] + np.arange(2 * g)]
        a, b = ab[:, :g], ab[:, g:]
        out[:, rows] = (*side_scores(weights, a, b),
                        *side_scores(np.concatenate(condition1, axis=-1), ab,
                                     np.concatenate((b, a), axis=-1)))
    return out


def rule4_row_columns(schemes, counts) -> np.ndarray:
    """_rule4_columns over a list of rows: row i of counts is a tally's under
    schemes[i], its counts in the order the core reads them. The rows are
    joined into the core's ragged table, so they are checked and scored as
    check_condition1's decoded rows are."""
    return _rule4_columns([s.m for s in schemes], list(chain.from_iterable(s.taus for s in schemes)),
                          list(map(len, counts)), np.fromiter(chain.from_iterable(counts), float))


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

    Two candidates: the scheme's worst ratio term rule.ds for
    the threshold rules (see the module docstring), sqrt(2) for rule5.
    Three or more candidates (winner from the uncovered set): rule1 takes
    min{b+2, b^2} of its two-candidate bound b, rule3/rule4 square theirs,
    rule5 gives 2. rule2 admits no bound beyond two candidates.
    """
    if num_candidates < 2:
        raise ValueError("bounds are defined for two or more candidates")
    if rule.kind == "rule5":
        return SQRT2 if num_candidates == 2 else 2.0
    b = rule.ds
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
