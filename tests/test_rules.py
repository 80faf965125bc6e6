import itertools
import math
import warnings

import pytest

from strengthvote import tallies
from strengthvote.metric_core import SameCandidate, line_instance
from strengthvote.rules import (InvalidThreshold, Rule, SchemeMismatch, SQRT2,
                                bound_value, condition1_holds, decide_pair,
                                decide_profile, decide_tally,
                                rule4_decide, rule4_delta, rule4_row_columns, rule4_weights,
                                rule5_weight)
from strengthvote.tallies import (INCLUSIVE, STRICT, ExactProfile, PairwiseTally,
                                  ThresholdScheme, bucket_profile, pairwise_tally)
from strengthvote.tournament import majority_graph

TOL = 1e-12


def tally(taus, a, b, c=0, boundary=STRICT):
    return PairwiseTally(("P", "Q"), ThresholdScheme(taus, boundary), tuple(a), tuple(b), c)


def test_rule_validation():
    assert Rule("rule1", 1.0).kind == "rule1"
    assert Rule("rule4", scheme=(1.5, 3.0)).scheme.taus == (1.5, 3.0)
    assert Rule("rule5").label() == "rule5"
    with pytest.raises(InvalidThreshold):
        Rule("rule2", 1.0)
    with pytest.raises(InvalidThreshold):
        Rule("rule1", 0.5)
    with pytest.raises(InvalidThreshold):
        Rule("rule1")
    with pytest.raises(InvalidThreshold):
        Rule("rule4")
    with pytest.raises(InvalidThreshold):
        Rule("rule5", 2.0)
    with pytest.raises(ValueError):
        Rule("rule9", 2.0)


def test_rule_constructor_derives_the_whole_definition():
    # building a Rule by keyword gives the same rule as positionally, derived
    # fields included, and refuses thresholds that contradict the kind
    spots = [0.3, 0.5, 0.62, 0.75, 0.9, 1.4, -0.2]
    voters = [f"v{i}" for i in range(len(spots))]
    inst = line_instance({"P": 0.0, "Q": 1.0, **dict(zip(voters, spots))}, voters, ["P", "Q"])
    direct = [Rule("rule1", tau=2.0), Rule("rule2", tau=3.0), Rule("rule3", tau=2.0),
              Rule("rule4", scheme=ThresholdScheme((1.5, 3.0))),
              Rule("rule4", scheme=(1.5, 3.0)), Rule("rule5")]
    built = [Rule("rule1", 2.0), Rule("rule2", 3.0),
             Rule("rule3", 2.0), Rule("rule4", scheme=(1.5, 3.0)),
             Rule("rule4", scheme=(1.5, 3.0)), Rule("rule5")]
    for d, b in zip(direct, built):
        assert d == b
        assert (d.scheme, d.weights) == (b.scheme, b.weights)
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
    assert Rule("rule1", 2.0).label() == "rule1[tau=2]"
    assert Rule("rule4", scheme=(1.5, 3.0)).label() == "rule4[taus=1.5;3]"


def test_rule1_strong_weight_branches():
    # below 1+sqrt(2) the strong weight is tau itself, above it (tau+1)/(tau-1)
    low = tally((1.0, 2.0), (0, 2), (3, 0))
    assert decide_tally(low, Rule("rule1", 2.0)).p_score == pytest.approx(4.0, abs=TOL)
    high = tally((1.0, 5.0), (0, 2), (3, 0))
    assert decide_tally(high, Rule("rule1", 5.0)).p_score == pytest.approx(3.0, abs=TOL)
    # both formulas agree at the switch point
    t = 1.0 + SQRT2
    assert (t + 1.0) / (t - 1.0) == pytest.approx(t, abs=TOL)


def test_rule1_majority_at_tau_one():
    even = tally((1.0,), (2,), (2,))
    decision = decide_tally(even, Rule("rule1", 1.0))
    assert decision.tie and decision.winner == "P"
    assert decide_tally(tally((1.0,), (1,), (2,)), Rule("rule1", 1.0)).winner == "Q"


def test_rule2_outweighs_rule1():
    # two weak voters against one strong one: rule1 ties, rule2 lets the
    # strong voter carry the pair
    t = tally((1.0, 2.0), (2, 0), (0, 1))
    r1 = decide_tally(t, Rule("rule1", 2.0))
    r2 = decide_tally(t, Rule("rule2", 2.0))
    assert r1.tie and r1.winner == "P"
    assert not r2.tie and r2.winner == "Q"
    assert r2.q_score == pytest.approx(3.0, abs=TOL)


def test_rule1_rule2_divergence_on_an_instance():
    inst = line_instance({"x": 0.0, "y": 1.0, "v1": 0.4, "v2": 0.4, "v3": 0.9},
                         ("v1", "v2", "v3"), ("x", "y"))
    assert decide_pair(inst, "x", "y", Rule("rule1", 2.0)).winner == "x"
    assert decide_pair(inst, "x", "y", Rule("rule2", 2.0)).winner == "y"


def test_boundary_strength_is_weak_for_rule1_but_counts_for_rule3():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25, "v2": 0.9},
                         ("v1", "v2"), ("P", "Q"))
    # v1 has strength exactly 3 toward P, v2 roughly 9 toward Q
    r1 = decide_pair(inst, "P", "Q", Rule("rule1", 3.0))
    assert r1.winner == "Q" and r1.p_score == pytest.approx(1.0)
    r3 = decide_pair(inst, "P", "Q", Rule("rule3", 3.0))
    assert r3.p_score == 1.0 and r3.q_score == 1.0 and r3.winner == "P"


def test_rule3_ignores_weak_voters():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.45, "v2": 0.46, "v3": 0.95},
                         ("v1", "v2", "v3"), ("P", "Q"))
    assert decide_pair(inst, "P", "Q", Rule("rule1", 2.0)).winner == "P"
    assert decide_pair(inst, "P", "Q", Rule("rule3", 2.0)).winner == "Q"


def test_scheme_mismatch_is_rejected():
    with pytest.raises(SchemeMismatch):
        decide_tally(tally((1.0, 3.0), (1, 0), (0, 1)), Rule("rule1", 2.0))
    with pytest.raises(SchemeMismatch):
        decide_tally(tally((1.0, 2.0), (1, 0), (0, 1), boundary=INCLUSIVE),
                     Rule("rule1", 2.0))
    with pytest.raises(SchemeMismatch):
        decide_tally(tally((2.0,), (1,), (1,), boundary=STRICT), Rule("rule3", 2.0))
    with pytest.raises(SchemeMismatch):
        rule4_decide(tally((2.0,), (1,), (1,), boundary=STRICT),
                     ThresholdScheme((2.0,)))


@pytest.mark.parametrize("rule", [Rule("rule4", scheme=(3.0,)), Rule("rule3", 2.0),
                                  Rule("rule1", 2.0), Rule("rule5")], ids=Rule.label)
def test_condition1_slacks_need_rule4_under_the_tallys_scheme(rule):
    from strengthvote.rules import _condition1_diff
    with pytest.raises(SchemeMismatch):
        _condition1_diff(tally((2.0,), (3,), (1,), 2, boundary=INCLUSIVE), rule)


def test_rule4_delta_values():
    assert rule4_delta(ThresholdScheme((1.0,))) == pytest.approx(3.0, abs=TOL)
    assert rule4_delta(ThresholdScheme((2.0,))) == pytest.approx(2.0, abs=TOL)
    assert rule4_delta(ThresholdScheme((5.0 / 3.0, 3.0))) == pytest.approx(5.0 / 3.0, abs=1e-9)
    assert rule4_delta(ThresholdScheme((1.0, 2.0))) == pytest.approx(2.0, abs=TOL)


def test_rule4_delta_matches_single_threshold_bound():
    for tau in (1.0, 1.5, 2.0, 1.0 + SQRT2, 4.0, 10.0):
        scheme = ThresholdScheme((1.0,) if tau == 1.0 else (1.0, tau))
        want = bound_value(Rule("rule1", tau))
        assert rule4_delta(scheme) == pytest.approx(want, abs=TOL)


def test_two_candidate_bound_equals_the_closed_forms_exactly():
    for tau in (1.0, 1.0 + 2.0 ** -52, 1.5, 2.0, 1.0 + SQRT2, 3.0, 5.0, 1e6):
        closed = max((tau + 2.0) / tau, (3.0 * tau - 1.0) / (tau + 1.0))
        assert bound_value(Rule("rule1", tau)) == closed
        if tau > 1.0:
            assert bound_value(Rule("rule2", tau)) == closed
        assert bound_value(Rule("rule3", tau)) == max((tau + 2.0) / tau, tau)


def test_rule4_weights_frozen_cases():
    weights, _, ds, k = rule4_weights(ThresholdScheme((2.0,)))
    assert (ds, k) == (2.0, 1)
    assert weights == pytest.approx([2.0], abs=TOL)

    weights, _, ds, k = rule4_weights(ThresholdScheme((5.0 / 3.0, 3.0)))
    assert ds == pytest.approx(5.0 / 3.0, abs=1e-9)
    assert k == 1
    assert weights == pytest.approx([4.0 / 3.0, 2.0], abs=1e-9)


def test_rule4_score_equals_feasibility_gap():
    t = PairwiseTally(("P", "Q"), ThresholdScheme((2.0,), INCLUSIVE), (3,), (1,), 2)
    from strengthvote.rules import _condition1_diff
    d = rule4_decide(t, t.scheme)
    assert d.winner == "P"
    slack_p, slack_q = _condition1_diff(t, Rule("rule4", scheme=t.scheme))
    gap = slack_p - slack_q
    assert d.p_score - d.q_score == pytest.approx(gap, abs=1e-9)
    assert condition1_holds(t, "P")
    assert not condition1_holds(t, "Q")


def test_condition1_holds_rejects_a_side_outside_the_pair():
    t = PairwiseTally(("P", "Q"), ThresholdScheme((2.0,), INCLUSIVE), (3,), (1,), 2)
    with pytest.raises(ValueError, match=r"'Z' is not in the pair \('P', 'Q'\)"):
        condition1_holds(t, "Z")


def test_condition1_holds_derives_the_tallys_weights_once(monkeypatch):
    """condition1_holds takes the tally's row straight to rule4_row_columns:
    one rule4_weights call per side asked, and no Rule built around it."""
    from strengthvote import rules
    calls = []

    def counted(scheme):
        calls.append(scheme)
        return rule4_weights(scheme)

    monkeypatch.setattr(rules, "rule4_weights", counted)
    t = PairwiseTally(("P", "Q"), ThresholdScheme((1.5, 3.0)), (3, 0), (0, 2), 1)
    for asked, side in enumerate("PQ", start=1):
        condition1_holds(t, side)
        assert calls == [t.scheme] * asked


def test_some_side_is_always_feasible():
    scheme = ThresholdScheme((2.0, 5.0))
    counts = range(3)
    for a1, a2, b1, b2, c in itertools.product(counts, counts, counts, counts, counts):
        if a1 + a2 + b1 + b2 + c == 0:
            continue
        t = PairwiseTally(("P", "Q"), scheme, (a1, a2), (b1, b2), c)
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


@pytest.mark.parametrize("bad", [math.nan, 0.5])
def test_rule5_refuses_the_strengths_that_bucketing_refuses(bad):
    """A hand-built profile with a strength that is not >= 1 is refused under
    rule5 with the message bucket_profile gives under rule1: both read
    strengths through one check."""
    prof = ExactProfile(("P", "Q"), (bad, 2.0), (3.0,))
    with pytest.raises(ValueError) as bucketed:
        bucket_profile(prof, Rule("rule1", 2.0).scheme)
    for call in (lambda: decide_profile(prof, Rule("rule5")), lambda: rule5_weight(prof.a),
                 lambda: rule5_weight(bad)):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == str(bucketed.value)


def test_rule5_strong_minority_prevails():
    prof = ExactProfile(("P", "Q"), (1.1, 1.1), (2.0,))
    d = decide_profile(prof, Rule("rule5"))
    assert d.winner == "Q"
    assert d.p_score == pytest.approx(0.2, abs=1e-9)


def test_decide_profile_dispatch():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.2, "v2": 0.7},
                         ("v1", "v2"), ("P", "Q"))
    for params in (("rule1", 2.0, None), ("rule2", 2.0, None), ("rule3", 2.0, None),
                   ("rule4", None, (2.0,)), ("rule5", None, None)):
        kind, tau, taus = params
        rule = Rule(kind, tau, taus)
        d = decide_pair(inst, "P", "Q", rule)
        assert d.winner in ("P", "Q")
        assert d.p_score >= 0.0 and d.q_score >= 0.0


def test_bound_values():
    cases = [
        (Rule("rule1", 1.0), 2, 3.0),
        (Rule("rule1", 1.0), 3, 5.0),
        (Rule("rule1", 1.0 + SQRT2), 2, 2.0 * SQRT2 - 1.0),
        (Rule("rule1", 1.0 + SQRT2), 4, (2.0 * SQRT2 - 1.0) ** 2),
        (Rule("rule2", 2.0), 2, 2.0),
        (Rule("rule3", 2.0), 2, 2.0),
        (Rule("rule3", 2.0), 3, 4.0),
        (Rule("rule3", 4.0), 2, 4.0),
        (Rule("rule4", scheme=(2.0,)), 2, 2.0),
        (Rule("rule4", scheme=(2.0,)), 5, 4.0),
        (Rule("rule5"), 2, SQRT2),
        (Rule("rule5"), 3, 2.0),
    ]
    for rule, ncand, want in cases:
        assert bound_value(rule, ncand) == pytest.approx(want, abs=TOL), rule.label()


def test_bound_value_errors():
    with pytest.raises(ValueError):
        bound_value(Rule("rule2", 2.0), 3)
    with pytest.raises(ValueError):
        bound_value(Rule("rule5"), 1)


def test_ties_resolve_to_lexicographic_minimum():
    inst = line_instance({"b": 0.0, "a": 1.0, "v1": 0.25, "v2": 0.75},
                         ("v1", "v2"), ("a", "b"))
    for kind, tau, taus in (("rule1", 2.0, None), ("rule5", None, None),
                            ("rule4", None, (2.0,))):
        d = decide_pair(inst, "b", "a", Rule(kind, tau, taus))
        assert d.tie and d.winner == "a"


@pytest.mark.parametrize("kind, tau, scheme", [
    ("rule1", 1e308, None),         # (3*tau - 1)/(tau + 1) overflows in its numerator
    ("rule2", 1e308, None),
    ("rule4", None, (1.0, 1e308)),
    ("rule4", None, (1e200, 1e201)),  # tau_l*tau_{l+1} overflows: inf/inf is nan
    ("rule4", None, (1e200,)),      # finite ratio terms, but own_1 and the weight overflow
])
def test_thresholds_whose_arithmetic_overflows_are_rejected_when_built(kind, tau, scheme):
    with pytest.raises(InvalidThreshold, match="overflow"):
        Rule(kind, tau, scheme)


@pytest.mark.parametrize("taus", [(1e200,), (1e200, 1e201)])
def test_condition1_refuses_thresholds_whose_arithmetic_overflows(taus):
    """condition1_holds builds no Rule, yet refuses what building one
    refuses: _check_identity raises InvalidThreshold for weights or
    coefficients that overflow, with no RuntimeWarning on the way."""
    t = tally(taus, (1,) * len(taus), (2,) * len(taus), 3, INCLUSIVE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for side in t.pair:
            with pytest.raises(InvalidThreshold, match="overflow"):
                condition1_holds(t, side)


def test_a_ratio_term_that_is_nan_is_refused_on_every_path():
    """(1, 1e200, 1e201)'s neighbour term for (1e200, 1e201) is inf/inf =
    nan, which max passes over: rule4_delta refuses it, so condition1_holds
    and rule4_row_columns refuse the scheme as Rule does, with no warning."""
    taus = (1.0, 1e200, 1e201)
    t = tally(taus, (1, 1, 1), (2, 2, 2), 0, INCLUSIVE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for side in t.pair:
            with pytest.raises(InvalidThreshold, match="overflow"):
                condition1_holds(t, side)
        with pytest.raises(InvalidThreshold, match="overflow"):
            rule4_row_columns([t.scheme], [t.a_counts + t.b_counts])
        with pytest.raises(InvalidThreshold, match="overflow"):
            Rule("rule4", scheme=taus)


def test_thresholds_just_inside_the_float_range_keep_their_bounds():
    assert bound_value(Rule("rule1", 5e307)) == 3.0
    rule3 = Rule("rule3", 1e308)
    assert bound_value(rule3) == 1e308
    assert bound_value(rule3, 3) == math.inf  # tau**2, a bound beyond the float range
    assert bound_value(Rule("rule4", scheme=(1e150,))) == 1e150


@pytest.mark.parametrize("kind, tau, scheme, reads", [
    ("rule1", 2.0, (1.0, 2.0), "rule1 takes tau"),  # the scheme rule1 derives from tau
    ("rule1", 1.0, (1.0,), "rule1 takes tau"),
    ("rule2", 3.0, ThresholdScheme((1.0, 3.0)), "rule2 takes tau"),
    ("rule3", 2.0, (2.0,), "rule3 takes tau"),
    ("rule3", None, (2.0,), "rule3 takes tau"),
    ("rule4", 2.0, (2.0,), "rule4 takes a threshold scheme"),
    ("rule4", 2.0, None, "rule4 takes a threshold scheme"),
    ("rule5", 2.0, None, "rule5 takes no thresholds"),
    ("rule5", None, (2.0,), "rule5 takes no thresholds"),
])
def test_a_threshold_argument_the_kind_does_not_read_is_rejected(kind, tau, scheme, reads):
    """rule1-3 read tau, rule4 reads scheme and rule5 neither: any other
    argument raises, naming what the kind reads."""
    with pytest.raises(InvalidThreshold, match=reads):
        Rule(kind, tau, scheme)


@pytest.mark.parametrize("kind, tau", [("rule1", 2.0), ("rule1", 3.0), ("rule2", 3.0)])
def test_a_tally_under_the_rules_own_scheme_decides_as_the_pair(kind, tau):
    """A rule's scheme carries its strict comparison, so tallying under
    rule.scheme alone gives the tally the rule decides."""
    # strengths toward P: 2 (v1) and 3 (v2); toward Q: 3 (v3), 2 (v4), 5 (v5)
    spots = {"v1": 4.0, "v2": 3.0, "v3": 9.0, "v4": 8.0, "v5": 10.0}
    inst = line_instance({"P": 0.0, "Q": 12.0, **spots}, tuple(spots), ("P", "Q"))
    rule = Rule(kind, tau)
    assert rule.scheme.boundary == STRICT
    for p, q in (("P", "Q"), ("Q", "P")):
        tally = pairwise_tally(inst, p, q, rule.scheme)
        assert decide_tally(tally, rule) == decide_pair(inst, p, q, rule)


def test_rule4_refuses_a_strict_scheme():
    with pytest.raises(InvalidThreshold):
        Rule("rule4", scheme=ThresholdScheme((1.5, 3.0), STRICT))
    assert Rule("rule4", scheme=ThresholdScheme((1.5, 3.0), INCLUSIVE)).weights == \
        Rule("rule4", scheme=(1.5, 3.0)).weights


def _counting_kernel(monkeypatch) -> list[int]:
    """Patch the strength kernel to record the length of each call."""
    calls = []
    kernel = tallies._strengths
    monkeypatch.setattr(tallies, "_strengths",
                        lambda d1, d2: calls.append(len(d1)) or kernel(d1, d2))
    return calls


def test_decide_pair_takes_candidate_pairs_only(monkeypatch):
    inst = line_instance({"P": 0.0, "Q": 1.0, "Z": 3.0, "v1": 0.25, "v2": 2.0},
                         ("v1", "v2"), ("P", "Q"))
    calls = _counting_kernel(monkeypatch)
    for p, q, named in (("P", "Z", "Z"), ("Z", "P", "Z"), ("Q", "v1", "v1"), ("Z", "Z", "Z")):
        with pytest.raises(ValueError, match=f"'{named}' is not a candidate"):
            decide_pair(inst, p, q, Rule("rule5"))
    with pytest.raises(SameCandidate) as err:
        decide_pair(inst, "P", "P", Rule("rule5"))
    assert err.value.args == ("P",)
    assert calls == []
    assert decide_pair(inst, "P", "Q", Rule("rule5")).winner == "P"


def test_the_evaluate_path_measures_once_per_instance_and_rule(monkeypatch):
    inst = line_instance({"a": 0.0, "b": 1.0, "c": 2.5, "d": 4.0, "e": 7.0,
                          "v1": 0.5, "v2": 1.0, "v3": 3.0, "v4": 6.0},
                         ("v1", "v2", "v3", "v4"), ("a", "b", "c", "d", "e"))
    calls = _counting_kernel(monkeypatch)
    rule4 = Rule("rule4", scheme=(1.5, 3.0))
    decide_pair(inst, "c", "a", rule4)
    assert calls == [10 * 4]  # every candidate pair's voters in one pass
    for p, q in itertools.permutations(inst.candidates, 2):
        decide_pair(inst, p, q, rule4)
    majority_graph(inst, rule4)
    assert calls == [40]
    majority_graph(inst, Rule("rule5"))
    assert calls == [40, 40]
