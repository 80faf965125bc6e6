"""Seeded differential test of the column kernel against the per-voter reference.

The reference takes each voter's (preferred, strength) from
preference_strength, buckets it with bisect and weighs it with rule5's scalar
formula; the kernel builds the same profiles, tallies and scores in numpy,
batched across pairs and instances. Scores are compared by float.hex.
"""

import math
import random
from bisect import bisect_left, bisect_right
from itertools import permutations

import numpy as np
import pytest

from strengthvote.metric_core import (euclidean_instance, line_instance, matrix_instance,
                                      preference_strength)
from strengthvote.rules import SQRT2, Rule, _instance_scores, decide_pair
from strengthvote.search_oracle import _grid_positions, _signed_weights, _two_candidate_rules
from strengthvote.tallies import (INCLUSIVE, STRICT, ThresholdScheme, bucket_profile,
                                  exact_profile)

SCHEMES = [(1.0,), (1.5,), (2.0,), (3.0,), (4.0,), (1.0, 2.0), (1.0, 3.0), (1.5, 3.0),
           (1.0, 2.0, 4.0), (1.5, 2.0, 3.0, 4.0), (1.0 + SQRT2,)]


def _rules():
    """Every rule kind: rule1 and rule2 strict, rule3 and rule4 inclusive, rule5."""
    return _two_candidate_rules() + [
        Rule("rule1", 1.5), Rule("rule1", 3.0), Rule("rule2", 1.5),
        Rule("rule3", 1.5), Rule("rule3", 3.0), Rule("rule3", 4.0),
        Rule("rule4", scheme=(1.5, 3.0)), Rule("rule4", scheme=(1.0, 2.0, 4.0)),
        Rule("rule4", scheme=(1.5, 2.0, 3.0, 4.0))]


def _reference_sides(inst, p, q):
    a, b = [], []
    for voter in inst.voters:
        preferred, s = preference_strength(inst, voter, p, q)
        (a if preferred == p else b).append(s)
    return a, b


def _reference_bucket(taus, s, boundary):
    if boundary == INCLUSIVE or s == 1.0:
        return bisect_right(taus, s)
    return bisect_left(taus, s)


def _reference_counts(taus, side, boundary):
    counts = [0] * (len(taus) + 1)
    for s in side:
        counts[_reference_bucket(taus, s, boundary)] += 1
    return counts


def _reference_rule5(s):
    if math.isinf(s):
        return SQRT2
    if s > SQRT2:
        return (SQRT2 * s - 1.0) / (s + 1.0)
    return s - 1.0


def _reference_decision(p, q, a, b, rule):
    """The pair's decision from its reference sides a (toward p) and b."""
    if rule.kind == "rule5":
        p_score = math.fsum(map(_reference_rule5, a))
        q_score = math.fsum(map(_reference_rule5, b))
    else:
        taus = rule.scheme.taus
        a_counts = _reference_counts(taus, a, rule.scheme.boundary)[1:]
        b_counts = _reference_counts(taus, b, rule.scheme.boundary)[1:]
        p_score = math.fsum(w * n for w, n in zip(rule.weights, a_counts))
        q_score = math.fsum(w * n for w, n in zip(rule.weights, b_counts))
    tie = p_score == q_score
    winner = min(p, q) if tie else (p if p_score > q_score else q)
    return winner, p_score.hex(), q_score.hex(), tie


def _key(decision):
    return decision.winner, decision.p_score.hex(), decision.q_score.hex(), decision.tie


def _random_case(space, seed):
    """A seeded instance with 2-5 candidates; one voter sits on c0, another
    repeats, and the matrix one has a witness point Z."""
    rng = random.Random(seed)
    dim = 1 if space == "line" else 2
    cands = tuple(f"c{j}" for j in range(rng.randint(2, 5)))
    voters = tuple(f"v{i}" for i in range(rng.randint(1, 25)))
    pos = {x: tuple(rng.uniform(-1.0, 2.0) for _ in range(dim)) for x in cands + voters}
    voters += ("c0", voters[0])
    if space == "line":
        return line_instance(pos, voters, cands)
    if space == "euclidean2d":
        return euclidean_instance(pos, voters, cands)
    pos["Z"] = tuple(rng.uniform(-1.0, 2.0) for _ in range(dim))
    ids = sorted(pos)
    return matrix_instance(ids, [[math.dist(pos[a], pos[b]) for b in ids] for a in ids],
                           voters, cands)


def _tie_case(seed):
    """A line instance on integer and half-integer spots in [-3, 6]: many
    voters are equidistant from a pair, sit on a candidate, or have a
    strength of exactly 1.5, 2, 3 or 4."""
    rng = random.Random(seed)
    spots = [k / 2 for k in range(-6, 13)]
    cands = tuple(f"c{j}" for j in range(rng.randint(2, 5)))
    pos = dict(zip(cands, rng.sample(spots, len(cands))))
    voters = tuple(f"v{i}" for i in range(rng.randint(1, 30)))
    pos.update((v, rng.choice(spots)) for v in voters)
    return line_instance(pos, voters, cands)


TIE_SEEDS = range(30)
CASES = ([("line", s) for s in range(8)] + [("euclidean2d", s) for s in range(8)]
         + [("matrix", s) for s in range(8)] + [("ties", s) for s in TIE_SEEDS])


def _build(space, seed):
    return _tie_case(seed) if space == "ties" else _random_case(space, seed)


@pytest.mark.parametrize("space", ["line", "euclidean2d", "matrix", "ties"])
def test_profiles_and_tallies_match_the_reference_under_both_boundaries(space):
    for case_space, seed in CASES:
        if case_space != space:
            continue
        inst = _build(space, seed)
        for p, q in permutations(inst.candidates, 2):
            a, b = _reference_sides(inst, p, q)
            prof = exact_profile(inst, p, q)
            assert [s.hex() for s in tuple(prof.a.tolist())] == [s.hex() for s in a]
            assert [s.hex() for s in tuple(prof.b.tolist())] == [s.hex() for s in b]
            for taus in SCHEMES:
                for boundary in (INCLUSIVE, STRICT):
                    tally = bucket_profile(prof, ThresholdScheme(taus, boundary))
                    ra = _reference_counts(taus, a, boundary)
                    rb = _reference_counts(taus, b, boundary)
                    assert (list(tally.a_counts), list(tally.b_counts), tally.c_count) == \
                        (ra[1:], rb[1:], ra[0] + rb[0]), (space, seed, p, q, taus, boundary)


def test_tie_cases_cover_every_boundary_strength():
    seen = set()
    for seed in TIE_SEEDS:
        inst = _tie_case(seed)
        for p, q in permutations(inst.candidates, 2):
            for side in _reference_sides(inst, p, q):
                seen.update(side)
    assert {1.0, 1.5, 2.0, 3.0, 4.0, math.inf} <= seen


@pytest.mark.parametrize("space", ["line", "euclidean2d", "matrix", "ties"])
def test_decisions_match_the_reference_for_every_rule(space):
    rules = _rules()
    for case_space, seed in CASES:
        if case_space != space:
            continue
        inst = _build(space, seed)
        for p, q in permutations(inst.candidates, 2):
            a, b = _reference_sides(inst, p, q)
            for rule in rules:
                assert _key(decide_pair(inst, p, q, rule)) == \
                    _reference_decision(p, q, a, b, rule), (space, seed, rule.label(), p, q)


def test_one_batch_of_many_instances_matches_one_at_a_time():
    rules = _rules()
    batch = [_build(space, seed) for space, seed in CASES]
    _instance_scores(batch, rules)
    for (space, seed), inst in zip(CASES, batch):
        fresh = _build(space, seed)
        for rule in rules:
            for p, q in permutations(inst.candidates, 2):
                alone = decide_pair(fresh, p, q, rule)
                assert _key(decide_pair(inst, p, q, rule)) == _key(alone), \
                    (space, seed, rule.label(), p, q)


def test_one_scoring_batch_matches_each_instance_scored_alone():
    rules = _rules()
    batch = [_build(space, seed) for space, seed in CASES]
    alone = [_instance_scores([inst], rules) for inst in batch]
    for r, (p, q) in enumerate(_instance_scores(batch, rules)):
        assert [x.hex() for x in p] == [x.hex() for scores in alone for x in scores[r][0]]
        assert [x.hex() for x in q] == [x.hex() for scores in alone for x in scores[r][1]]


def test_signed_grid_weights_match_per_position_rule_weight():
    for rule in _rules():
        xs = _grid_positions(rule, 60)
        got = _signed_weights(rule, xs)
        assert got.shape == xs.shape
        for x, w in zip(xs.tolist(), got.tolist()):
            inst = line_instance({"P": 0.0, "Q": 1.0, "v": x}, ("v",), ("P", "Q"))
            side, s = preference_strength(inst, "v", "P", "Q")
            ref = float(rule.weight(s)) if side == "P" else -float(rule.weight(s))
            assert w.hex() == ref.hex(), (rule.label(), x)


def test_array_bucket_and_rule5_weight_match_their_scalar_forms():
    strengths = np.array([1.0, 1.2, 1.5, 2.0, SQRT2, 3.0, 4.0, 7.5, 1e300, 1.7e308, math.inf])
    for taus in SCHEMES:
        scheme = ThresholdScheme(taus)
        for boundary in (INCLUSIVE, STRICT):
            assert ThresholdScheme(scheme.taus, boundary).bucket(strengths).tolist() == \
                [_reference_bucket(taus, s, boundary) for s in strengths.tolist()]
    rule5 = Rule("rule5")
    assert [w.hex() for w in rule5.weight(strengths).tolist()] == \
        [_reference_rule5(s).hex() for s in strengths.tolist()]
    with pytest.raises(ValueError):
        ThresholdScheme((2.0,)).bucket(np.array([1.5, 0.5]))
