"""Property-based checks for the invariants the unit tests only spot-check."""

import math
from bisect import bisect_right
from itertools import combinations

from hypothesis import assume, given, settings, strategies as st

from strengthvote.metric_core import (distance, line_instance,
                                      preference_strength, scale_instance)
from strengthvote.rules import (Rule, _condition1_diff, condition1_holds, decide_pair,
                                make_rule, rule4_decide, rule4_delta, rule4_weights,
                                rule5_weight)
from strengthvote.tallies import (INCLUSIVE, STRICT, PairwiseTally,
                                  ThresholdScheme)
from strengthvote.tournament import (PairwiseDecision, TournamentGraph,
                                     copeland_winner, uncovered_set)

RULES = (make_rule("rule1", tau=2.0), make_rule("rule3", tau=2.0),
         make_rule("rule4", taus=(2.0,)), make_rule("rule5"))


@st.composite
def grid_line_instances(draw):
    """Voters on the eighth-integer grid; P and Q pinned to 0 and 1.

    Eighths keep every distance exact in binary floating point while still
    allowing equidistant voters (at 1/2) and strengths on both sides of the
    tau = 2 cutoff used by the fixed rules above.
    """
    ks = draw(st.lists(st.integers(-8, 16), min_size=1, max_size=6))
    positions = {"P": 0.0, "Q": 1.0}
    voters = []
    for i, k in enumerate(ks):
        name = f"v{i + 1}"
        positions[name] = k / 8.0
        voters.append(name)
    return line_instance(positions, tuple(voters), ("P", "Q"))


@st.composite
def inclusive_tallies(draw):
    ks = draw(st.sets(st.integers(9, 48), min_size=1, max_size=4))
    taus = tuple(sorted(k / 8.0 for k in ks))
    if draw(st.booleans()):
        taus = (1.0,) + taus
    scheme = ThresholdScheme(taus)
    m = scheme.m
    a = tuple(draw(st.lists(st.integers(0, 30), min_size=m, max_size=m)))
    b = tuple(draw(st.lists(st.integers(0, 30), min_size=m, max_size=m)))
    c = 0 if taus[0] == 1.0 else draw(st.integers(0, 30))
    return PairwiseTally(("P", "Q"), scheme, a, b, c, INCLUSIVE)


@given(grid_line_instances())
def test_strength_is_at_least_one_and_points_at_the_closer_candidate(inst):
    for v in inst.voters:
        preferred, s = preference_strength(inst, v, "P", "Q")
        assert s >= 1.0
        other = "Q" if preferred == "P" else "P"
        assert distance(inst, v, preferred) <= distance(inst, v, other)


@settings(max_examples=500)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_line_distance_is_the_absolute_difference(x, y):
    # a line is 1-D coordinates measured by math.dist, which must give |x - y| exactly
    assume(x != y and math.isfinite(x - y))
    inst = line_instance({"P": x, "Q": y, "v1": x}, ("v1",), ("P", "Q"))
    assert distance(inst, "P", "Q").hex() == abs(x - y).hex()
    assert distance(inst, "Q", "P").hex() == abs(y - x).hex()


@given(st.sets(st.integers(8, 64), min_size=1, max_size=4),
       st.floats(1.0, 20.0), st.floats(1.0, 20.0),
       st.sampled_from([INCLUSIVE, STRICT]))
def test_bucket_is_monotone_in_strength(ks, s1, s2, boundary):
    scheme = ThresholdScheme(tuple(sorted(k / 8.0 for k in ks)))
    lo, hi = sorted((s1, s2))
    assert scheme.bucket(lo, boundary) <= scheme.bucket(hi, boundary)
    assert 0 <= scheme.bucket(hi, boundary) <= scheme.m


def _bucket_by_scan(scheme, s, boundary):
    """Reference bucket rule: scan the cutoffs upward while s reaches them."""
    b = 0
    for l, t in enumerate(scheme.taus, start=1):
        if s > t or (s == t and (boundary == INCLUSIVE or t == 1.0)):
            b = l
        else:
            break
    return b


@given(st.lists(st.floats(1.0, 1e6), min_size=1, max_size=5, unique=True), st.booleans(),
       st.floats(min_value=1.0))
def test_bucket_matches_the_linear_scan(taus, unit, off_grid):
    # an off-grid strength (up to +inf), and every cutoff hit exactly and one
    # ulp either side; unit adds the cutoff 1, which is inclusive in both modes
    scheme = ThresholdScheme(tuple(sorted(set(taus) | ({1.0} if unit else set()))))
    hits = [s for t in scheme.taus
            for s in (t, math.nextafter(t, math.inf), max(1.0, math.nextafter(t, 0.0)))]
    for s in [off_grid, 1.0] + hits:
        for boundary in (INCLUSIVE, STRICT):
            assert scheme.bucket(s, boundary) == _bucket_by_scan(scheme, s, boundary), \
                (scheme.taus, s, boundary)


@given(grid_line_instances(), st.integers(-20, 20))
def test_decisions_survive_exact_rescaling(inst, k):
    scaled = scale_instance(inst, 2.0 ** k)
    for rule in RULES:
        before = decide_pair(inst, "P", "Q", rule)
        after = decide_pair(scaled, "P", "Q", rule)
        assert before.winner == after.winner
        assert before.tie == after.tie


@given(inclusive_tallies())
def test_some_side_is_feasible_and_the_winner_is(t):
    assert condition1_holds(t, "P") or condition1_holds(t, "Q")
    winner = rule4_decide(t, t.scheme).winner
    assert condition1_holds(t, winner)


@given(st.floats(1.0, 100.0), st.floats(1.0, 100.0))
def test_rule5_weight_is_monotone_and_bounded(s1, s2):
    lo, hi = sorted((s1, s2))
    assert 0.0 <= rule5_weight(lo) <= rule5_weight(hi) < math.sqrt(2.0)
    assert rule5_weight(math.inf) == math.sqrt(2.0)


@settings(max_examples=60)
@given(st.integers(2, 8), st.integers(0, 2 ** 28 - 1))
def test_uncovered_set_is_exactly_the_two_step_kings(n, bits):
    ids = tuple("abcdefgh"[:n])
    decisions = {}
    for i, (p, q) in enumerate(combinations(ids, 2)):
        winner = p if (bits >> i) & 1 else q
        p_score = 1.0 if winner == p else 0.0
        decisions[(p, q)] = PairwiseDecision(winner, p_score, 1.0 - p_score, False)
    g = TournamentGraph(ids, decisions)
    us = uncovered_set(g)

    kings = set()
    for x in ids:
        if all(x == y or g.beats(x, y)
               or any(g.beats(x, z) and g.beats(z, y) for z in ids)
               for y in ids):
            kings.add(x)
    assert us == kings
    assert us
    assert copeland_winner(g) in us


def _two_walk_rule4(scheme, a_counts, b_counts):
    """rule4's weights and both sides' condition-1 slacks, each from its own
    walk over the buckets: the reference that the one-walk derivation in
    rules must reproduce bit for bit."""
    taus = scheme.taus
    ds = rule4_delta(scheme)
    k = bisect_right(taus, ds)
    weights = []
    for l, (tl, tnext) in enumerate(zip(taus, taus[1:] + (math.inf,)), start=1):
        if l < k:
            w = (ds + 1.0) * (tl * tnext - 1.0) / ((tl + 1.0) * (tnext + 1.0))
        else:
            head = 1.0 if math.isinf(tnext) else (tnext - ds) / (tnext - 1.0)
            w = head + (ds * tl - 1.0) / (tl + 1.0)
        weights.append(w)
    terms_a, terms_b = [], []
    for l, (tl, tnext) in enumerate(zip(taus, taus[1:] + (math.inf,)), start=1):
        own = (ds * tl - 1.0) / (tl + 1.0)
        if l < k:
            other = (ds - tnext) / (tnext + 1.0)
        else:
            other = -(1.0 if math.isinf(tnext) else (tnext - ds) / (tnext - 1.0))
        a, b = a_counts[l - 1], b_counts[l - 1]
        terms_a += [own * a, other * b]
        terms_b += [own * b, other * a]
    return weights, (math.fsum(terms_a), math.fsum(terms_b))


@st.composite
def schemes_with_counts(draw):
    """Schemes with 1 to 5 cutoffs, from arbitrary floats and from eighths (which
    can land exactly on the scheme's bound), some starting at 1, with 0 to 50
    ballots per side and bucket."""
    m = draw(st.integers(1, 5))
    cutoff = st.one_of(st.floats(1.0, 8.0, exclude_min=True),
                       st.integers(9, 64).map(lambda k: k / 8.0))
    taus = sorted(draw(st.lists(cutoff, min_size=m, max_size=m, unique=True)))
    if draw(st.booleans()):
        taus[0] = 1.0
    a = tuple(draw(st.lists(st.integers(0, 50), min_size=m, max_size=m)))
    b = tuple(draw(st.lists(st.integers(0, 50), min_size=m, max_size=m)))
    return PairwiseTally(("P", "Q"), ThresholdScheme(tuple(taus)), a, b, 0, INCLUSIVE)


@settings(max_examples=500)
@given(schemes_with_counts())
def test_rule4_weights_and_slacks_match_the_two_walk_reference_bit_for_bit(t):
    weights, slacks = _two_walk_rule4(t.scheme, t.a_counts, t.b_counts)
    assert [w.hex() for w in rule4_weights(t.scheme)[0]] == [w.hex() for w in weights]
    got = _condition1_diff(t, Rule("rule4", scheme=t.scheme))
    assert [x.hex() for x in got] == [x.hex() for x in slacks]
