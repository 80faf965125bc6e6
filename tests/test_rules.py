import itertools
import math

import pytest

from strengthvote.metric_core import line_instance
from strengthvote.rules import (InvalidThreshold, Rule, SchemeMismatch, SQRT2,
                                bound_value, condition1_holds, decide_pair,
                                decide_profile, decide_tally, make_rule,
                                rule4_decide, rule4_delta, rule4_weights,
                                rule5_decide, rule5_weight)
from strengthvote.tallies import (INCLUSIVE, STRICT, ExactProfile, PairwiseTally,
                                  ThresholdScheme, pairwise_tally)

TOL = 1e-12


def tally(taus, a, b, c=0, boundary=STRICT):
    return PairwiseTally(("P", "Q"), ThresholdScheme(taus), tuple(a), tuple(b), c,
                         boundary)


def test_make_rule_validation():
    assert make_rule("rule1", tau=1.0).kind == "rule1"
    assert make_rule("rule4", taus=(1.5, 3.0)).scheme.taus == (1.5, 3.0)
    assert make_rule("rule5").label() == "rule5"
    with pytest.raises(InvalidThreshold):
        make_rule("rule2", tau=1.0)
    with pytest.raises(InvalidThreshold):
        make_rule("rule1", tau=0.5)
    with pytest.raises(InvalidThreshold):
        make_rule("rule1")
    with pytest.raises(InvalidThreshold):
        make_rule("rule4")
    with pytest.raises(InvalidThreshold):
        make_rule("rule5", tau=2.0)
    with pytest.raises(ValueError):
        make_rule("rule9", tau=2.0)


def test_rule_constructor_derives_the_whole_definition():
    # building a Rule directly gives the same rule as make_rule, derived fields
    # included, and refuses thresholds that contradict the kind
    spots = [0.3, 0.5, 0.62, 0.75, 0.9, 1.4, -0.2]
    voters = [f"v{i}" for i in range(len(spots))]
    inst = line_instance({"P": 0.0, "Q": 1.0, **dict(zip(voters, spots))}, voters, ["P", "Q"])
    direct = [Rule("rule1", tau=2.0), Rule("rule2", tau=3.0), Rule("rule3", tau=2.0),
              Rule("rule4", scheme=ThresholdScheme((1.5, 3.0))),
              Rule("rule4", scheme=(1.5, 3.0)), Rule("rule5")]
    built = [make_rule("rule1", tau=2.0), make_rule("rule2", tau=3.0),
             make_rule("rule3", tau=2.0), make_rule("rule4", taus=(1.5, 3.0)),
             make_rule("rule4", taus=(1.5, 3.0)), make_rule("rule5")]
    for d, b in zip(direct, built):
        assert d == b
        assert (d.scheme, d.boundary, d.weights) == (b.scheme, b.boundary, b.weights)
        assert decide_pair(inst, "P", "Q", d) == decide_pair(inst, "P", "Q", b)
    assert Rule("rule4", scheme=(1.5, 3.0)).weights == tuple(
        rule4_weights(ThresholdScheme((1.5, 3.0)))[0])
    with pytest.raises(TypeError):
        Rule("rule1", tau=2.0, weights=(1.0, 1.0))
    with pytest.raises(InvalidThreshold):
        Rule("rule1", tau=2.0, scheme=ThresholdScheme((1.0, 3.0)))
    with pytest.raises(InvalidThreshold):
        Rule("rule4", tau=2.0, scheme=(2.0,))
    with pytest.raises(InvalidThreshold):
        Rule("rule5", scheme=(2.0,))


def test_rule_labels():
    assert make_rule("rule1", tau=2.0).label() == "rule1[tau=2]"
    assert make_rule("rule4", taus=(1.5, 3.0)).label() == "rule4[taus=1.5;3]"


def test_rule1_strong_weight_branches():
    # below 1+sqrt(2) the strong weight is tau itself, above it (tau+1)/(tau-1)
    low = tally((1.0, 2.0), (0, 2), (3, 0))
    assert decide_tally(low, make_rule("rule1", tau=2.0)).p_score == pytest.approx(4.0, abs=TOL)
    high = tally((1.0, 5.0), (0, 2), (3, 0))
    assert decide_tally(high, make_rule("rule1", tau=5.0)).p_score == pytest.approx(3.0, abs=TOL)
    # both formulas agree at the switch point
    t = 1.0 + SQRT2
    assert (t + 1.0) / (t - 1.0) == pytest.approx(t, abs=TOL)


def test_rule1_majority_at_tau_one():
    even = tally((1.0,), (2,), (2,))
    decision = decide_tally(even, make_rule("rule1", tau=1.0))
    assert decision.tie and decision.winner == "P"
    assert decide_tally(tally((1.0,), (1,), (2,)), make_rule("rule1", tau=1.0)).winner == "Q"


def test_rule2_outweighs_rule1():
    # two weak voters against one strong one: rule1 ties, rule2 lets the
    # strong voter carry the pair
    t = tally((1.0, 2.0), (2, 0), (0, 1))
    r1 = decide_tally(t, make_rule("rule1", tau=2.0))
    r2 = decide_tally(t, make_rule("rule2", tau=2.0))
    assert r1.tie and r1.winner == "P"
    assert not r2.tie and r2.winner == "Q"
    assert r2.q_score == pytest.approx(3.0, abs=TOL)


def test_rule1_rule2_divergence_on_an_instance():
    inst = line_instance({"x": 0.0, "y": 1.0, "v1": 0.4, "v2": 0.4, "v3": 0.9},
                         ("v1", "v2", "v3"), ("x", "y"))
    assert decide_pair(inst, "x", "y", make_rule("rule1", tau=2.0)).winner == "x"
    assert decide_pair(inst, "x", "y", make_rule("rule2", tau=2.0)).winner == "y"


def test_boundary_strength_is_weak_for_rule1_but_counts_for_rule3():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25, "v2": 0.9},
                         ("v1", "v2"), ("P", "Q"))
    # v1 has strength exactly 3 toward P, v2 roughly 9 toward Q
    r1 = decide_pair(inst, "P", "Q", make_rule("rule1", tau=3.0))
    assert r1.winner == "Q" and r1.p_score == pytest.approx(1.0)
    r3 = decide_pair(inst, "P", "Q", make_rule("rule3", tau=3.0))
    assert r3.p_score == 1.0 and r3.q_score == 1.0 and r3.winner == "P"


def test_rule3_ignores_weak_voters():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.45, "v2": 0.46, "v3": 0.95},
                         ("v1", "v2", "v3"), ("P", "Q"))
    assert decide_pair(inst, "P", "Q", make_rule("rule1", tau=2.0)).winner == "P"
    assert decide_pair(inst, "P", "Q", make_rule("rule3", tau=2.0)).winner == "Q"


def test_scheme_mismatch_is_rejected():
    with pytest.raises(SchemeMismatch):
        decide_tally(tally((1.0, 3.0), (1, 0), (0, 1)), make_rule("rule1", tau=2.0))
    with pytest.raises(SchemeMismatch):
        decide_tally(tally((1.0, 2.0), (1, 0), (0, 1), boundary=INCLUSIVE),
                     make_rule("rule1", tau=2.0))
    with pytest.raises(SchemeMismatch):
        decide_tally(tally((2.0,), (1,), (1,), boundary=STRICT), make_rule("rule3", tau=2.0))
    with pytest.raises(SchemeMismatch):
        rule4_decide(tally((2.0,), (1,), (1,), boundary=STRICT),
                     ThresholdScheme((2.0,)))


def test_rule4_delta_values():
    assert rule4_delta(ThresholdScheme((1.0,))) == pytest.approx(3.0, abs=TOL)
    assert rule4_delta(ThresholdScheme((2.0,))) == pytest.approx(2.0, abs=TOL)
    assert rule4_delta(ThresholdScheme((5.0 / 3.0, 3.0))) == pytest.approx(5.0 / 3.0, abs=1e-9)
    assert rule4_delta(ThresholdScheme((1.0, 2.0))) == pytest.approx(2.0, abs=TOL)


def test_rule4_delta_matches_single_threshold_bound():
    for tau in (1.0, 1.5, 2.0, 1.0 + SQRT2, 4.0, 10.0):
        scheme = ThresholdScheme((1.0,) if tau == 1.0 else (1.0, tau))
        want = bound_value(make_rule("rule1", tau=tau))
        assert rule4_delta(scheme) == pytest.approx(want, abs=TOL)


def test_two_candidate_bound_equals_the_closed_forms_exactly():
    for tau in (1.0, 1.0 + 2.0 ** -52, 1.5, 2.0, 1.0 + SQRT2, 3.0, 5.0, 1e6):
        closed = max((tau + 2.0) / tau, (3.0 * tau - 1.0) / (tau + 1.0))
        assert bound_value(make_rule("rule1", tau=tau)) == closed
        if tau > 1.0:
            assert bound_value(make_rule("rule2", tau=tau)) == closed
        assert bound_value(make_rule("rule3", tau=tau)) == max((tau + 2.0) / tau, tau)


def test_rule4_weights_frozen_cases():
    weights, _, ds, k = rule4_weights(ThresholdScheme((2.0,)))
    assert (ds, k) == (2.0, 1)
    assert weights == pytest.approx([2.0], abs=TOL)

    weights, _, ds, k = rule4_weights(ThresholdScheme((5.0 / 3.0, 3.0)))
    assert ds == pytest.approx(5.0 / 3.0, abs=1e-9)
    assert k == 1
    assert weights == pytest.approx([4.0 / 3.0, 2.0], abs=1e-9)


def test_rule4_score_equals_feasibility_gap():
    t = PairwiseTally(("P", "Q"), ThresholdScheme((2.0,)), (3,), (1,), 2, INCLUSIVE)
    from strengthvote.rules import _condition1_diff
    d = rule4_decide(t, t.scheme)
    assert d.winner == "P"
    slack_p, slack_q = _condition1_diff(t, make_rule("rule4", taus=t.scheme))
    gap = slack_p - slack_q
    assert d.p_score - d.q_score == pytest.approx(gap, abs=1e-9)
    assert condition1_holds(t, "P")
    assert not condition1_holds(t, "Q")


def test_some_side_is_always_feasible():
    scheme = ThresholdScheme((2.0, 5.0))
    counts = range(3)
    for a1, a2, b1, b2, c in itertools.product(counts, counts, counts, counts, counts):
        if a1 + a2 + b1 + b2 + c == 0:
            continue
        t = PairwiseTally(("P", "Q"), scheme, (a1, a2), (b1, b2), c, INCLUSIVE)
        assert condition1_holds(t, "P") or condition1_holds(t, "Q")
        winner = rule4_decide(t, scheme).winner
        assert condition1_holds(t, winner)


def test_rule5_weight_profile():
    assert rule5_weight(1.0) == 0.0
    assert rule5_weight(SQRT2) == pytest.approx(SQRT2 - 1.0, abs=TOL)
    assert rule5_weight(math.nextafter(SQRT2, 2.0)) == pytest.approx(SQRT2 - 1.0, abs=1e-9)
    assert rule5_weight(1.0 + SQRT2) == pytest.approx(1.0 / SQRT2, abs=TOL)
    assert rule5_weight(math.inf) == SQRT2
    # monotone in strength
    grid = [1.0 + 0.01 * i for i in range(400)]
    assert all(rule5_weight(s) <= rule5_weight(t) for s, t in zip(grid, grid[1:]))


def test_rule5_strong_minority_prevails():
    prof = ExactProfile(("P", "Q"), (1.1, 1.1), (2.0,))
    d = rule5_decide(prof)
    assert d.winner == "Q"
    assert d.p_score == pytest.approx(0.2, abs=1e-9)


def test_decide_profile_dispatch():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.2, "v2": 0.7},
                         ("v1", "v2"), ("P", "Q"))
    for params in (("rule1", 2.0, None), ("rule2", 2.0, None), ("rule3", 2.0, None),
                   ("rule4", None, (2.0,)), ("rule5", None, None)):
        kind, tau, taus = params
        rule = make_rule(kind, tau=tau, taus=taus)
        d = decide_pair(inst, "P", "Q", rule)
        assert d.winner in ("P", "Q")
        assert d.p_score >= 0.0 and d.q_score >= 0.0


def test_bound_values():
    cases = [
        (make_rule("rule1", tau=1.0), 2, 3.0),
        (make_rule("rule1", tau=1.0), 3, 5.0),
        (make_rule("rule1", tau=1.0 + SQRT2), 2, 2.0 * SQRT2 - 1.0),
        (make_rule("rule1", tau=1.0 + SQRT2), 4, (2.0 * SQRT2 - 1.0) ** 2),
        (make_rule("rule2", tau=2.0), 2, 2.0),
        (make_rule("rule3", tau=2.0), 2, 2.0),
        (make_rule("rule3", tau=2.0), 3, 4.0),
        (make_rule("rule3", tau=4.0), 2, 4.0),
        (make_rule("rule4", taus=(2.0,)), 2, 2.0),
        (make_rule("rule4", taus=(2.0,)), 5, 4.0),
        (make_rule("rule5"), 2, SQRT2),
        (make_rule("rule5"), 3, 2.0),
    ]
    for rule, ncand, want in cases:
        assert bound_value(rule, ncand) == pytest.approx(want, abs=TOL), rule.label()


def test_bound_value_errors():
    with pytest.raises(ValueError):
        bound_value(make_rule("rule2", tau=2.0), 3)
    with pytest.raises(ValueError):
        bound_value(make_rule("rule5"), 1)


def test_ties_resolve_to_lexicographic_minimum():
    inst = line_instance({"b": 0.0, "a": 1.0, "v1": 0.25, "v2": 0.75},
                         ("v1", "v2"), ("a", "b"))
    for kind, tau, taus in (("rule1", 2.0, None), ("rule5", None, None),
                            ("rule4", None, (2.0,))):
        d = decide_pair(inst, "b", "a", make_rule(kind, tau=tau, taus=taus))
        assert d.tie and d.winner == "a"
