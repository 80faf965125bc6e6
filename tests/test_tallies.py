import math
import random
from itertools import permutations

import pytest

from strengthvote import search_oracle, tallies
from strengthvote.metric_core import (SameCandidate, UnknownId, distance, euclidean_instance,
                                      line_instance, matrix_instance, preference_strength,
                                      social_cost)
from strengthvote.rules import Rule, decide_pair
from strengthvote.tallies import (INCLUSIVE, STRICT, ExactProfile, PairwiseTally,
                                  ThresholdScheme, bucket_profile, exact_profile,
                                  pairwise_tally)


def test_scheme_validation():
    ThresholdScheme((1.0,))
    ThresholdScheme((1.5, 3.0))
    with pytest.raises(ValueError):
        ThresholdScheme(())
    with pytest.raises(ValueError):
        ThresholdScheme((0.5, 2.0))
    with pytest.raises(ValueError):
        ThresholdScheme((2.0, 2.0))
    with pytest.raises(ValueError):
        ThresholdScheme((1.0, math.inf))


def test_sentinel_thresholds():
    scheme = ThresholdScheme((2.0, 5.0))
    assert scheme.m == 2


def test_bucket_assignment():
    scheme = ThresholdScheme((2.0, 5.0))
    assert scheme.bucket(1.0) == 0
    assert scheme.bucket(1.9) == 0
    assert scheme.bucket(3.0) == 1
    assert scheme.bucket(7.0) == 2
    assert scheme.bucket(math.inf) == 2
    with pytest.raises(ValueError):
        scheme.bucket(0.75)


def test_boundary_modes():
    scheme = ThresholdScheme((2.0,))
    assert ThresholdScheme(scheme.taus, INCLUSIVE).bucket(2.0) == 1
    assert ThresholdScheme(scheme.taus, STRICT).bucket(2.0) == 0
    # a threshold of exactly 1 always absorbs strength-1 voters
    unit = ThresholdScheme((1.0, 3.0))
    assert ThresholdScheme(unit.taus, STRICT).bucket(1.0) == 1
    assert ThresholdScheme(unit.taus, STRICT).bucket(3.0) == 1
    assert ThresholdScheme(unit.taus, INCLUSIVE).bucket(3.0) == 2


def test_exact_profile_orientation():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25, "v2": 0.9, "v3": 0.5},
                         ("v1", "v2", "v3"), ("P", "Q"))
    prof = exact_profile(inst, "P", "Q")
    assert prof.pair == ("P", "Q")
    assert tuple(prof.a.tolist()) == (3.0, 1.0)  # v1 and the equidistant v3
    assert tuple(prof.b.tolist()) == pytest.approx((9.0,))
    flipped = exact_profile(inst, "Q", "P")
    assert tuple(flipped.a.tolist()) == pytest.approx((9.0,))
    assert tuple(flipped.b.tolist()) == (3.0, 1.0)


def test_pairwise_tally_counts():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25, "v2": 0.9, "v3": 0.45},
                         ("v1", "v2", "v3"), ("P", "Q"))
    tally = pairwise_tally(inst, "P", "Q", ThresholdScheme((2.0,)))
    # v1: strength 3 for P; v3: strength ~1.22 for P (below 2); v2: 9 for Q
    assert tally.a_counts == (1,)
    assert tally.b_counts == (1,)
    assert tally.c_count == 1
    assert sum(tally.a_counts) + sum(tally.b_counts) + tally.c_count == 3


def test_strict_boundary_voter_drops_down():
    # a voter at 1/(tau+1) has strength exactly tau toward P
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25}, ("v1",), ("P", "Q"))
    scheme = ThresholdScheme((3.0,))
    inclusive = pairwise_tally(inst, "P", "Q", ThresholdScheme(scheme.taus, INCLUSIVE))
    strict = pairwise_tally(inst, "P", "Q", ThresholdScheme(scheme.taus, STRICT))
    assert inclusive.a_counts == (1,) and inclusive.c_count == 0
    assert strict.a_counts == (0,) and strict.c_count == 1


def test_tally_validation():
    scheme = ThresholdScheme((1.0, 2.0))
    with pytest.raises(ValueError):
        PairwiseTally(("P", "Q"), scheme, (1,), (0, 0), 0)
    with pytest.raises(ValueError):
        PairwiseTally(("P", "Q"), scheme, (1, -1), (0, 0), 0)
    with pytest.raises(ValueError):
        PairwiseTally(("P", "Q"), scheme, (1, 0), (0, 0), 2)
    with pytest.raises(ValueError):
        PairwiseTally(("P", "Q"), ThresholdScheme(scheme.taus, "fuzzy"), (1, 0), (0, 0), 0)


def test_bucket_profile_conserves_voters():
    prof = ExactProfile(("P", "Q"), (1.0, 2.5, 10.0, math.inf), (1.5, 4.0))
    tally = bucket_profile(prof, ThresholdScheme((2.0, 5.0)))
    assert sum(tally.a_counts) + sum(tally.b_counts) + tally.c_count == 6
    assert tally.a_counts == (1, 2)
    assert tally.b_counts == (1, 0)
    assert tally.c_count == 2


def _column_cases(space: str, seed: int):
    """A seeded instance with an equidistant voter ("mid", strength 1 for P
    against Q), a voter on candidate P ("on", strength inf) and repeated
    voter ids; the matrix one adds a witness point Z that is not a candidate."""
    rng = random.Random(seed)
    if space == "line":
        pos = {"P": 0.0, "Q": 1.0, "R": rng.uniform(2.0, 3.0),
               "mid": 0.5, "on": 0.0}
        pos.update((f"v{i}", rng.uniform(-1.0, 3.0)) for i in range(12))
    else:
        pos = {"P": (0.0, 0.0), "Q": (1.0, 0.0), "R": (rng.random(), 1.0 + rng.random()),
               "mid": (0.5, rng.uniform(-1.0, 1.0)), "on": (0.0, 0.0)}
        pos.update((f"v{i}", (rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0)))
                   for i in range(12))
    voters = ("mid", "on") + tuple(f"v{i}" for i in range(12)) + ("v3", "mid", "v3")
    if space == "line":
        return line_instance(pos, voters, ("P", "Q", "R"))
    if space == "euclidean2d":
        return euclidean_instance(pos, voters, ("P", "Q", "R"))
    pos["Z"] = (rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0))
    ids = sorted(pos)
    rows = [[math.dist(pos[a], pos[b]) for b in ids] for a in ids]
    return matrix_instance(ids, rows, voters, ("P", "Q", "R"))


def _hex(values):
    return tuple(float(x).hex() for x in values)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("space", ["line", "euclidean2d", "matrix"])
def test_profiles_and_costs_from_the_columns_match_the_per_voter_reference(space, seed):
    inst = _column_cases(space, seed)
    points = inst.candidates + (("Z",) if space == "matrix" else ())
    for p, q in permutations(points, 2):
        a, b = [], []
        for voter in inst.voters:
            preferred, s = preference_strength(inst, voter, p, q)
            (a if preferred == p else b).append(s)
        prof = exact_profile(inst, p, q)
        assert prof.pair == (p, q)
        assert (_hex(tuple(prof.a.tolist())), _hex(tuple(prof.b.tolist()))) == (_hex(a), _hex(b))
    for point in points + ("mid", "v3"):
        reference = math.fsum(distance(inst, v, point) for v in inst.voters)
        assert social_cost(inst, point).hex() == reference.hex()
    # the equidistant voter and the voter on P lead each profile, toward P
    assert tuple(exact_profile(inst, "P", "Q").a.tolist())[:2] == (1.0, math.inf)
    assert tuple(exact_profile(inst, "Q", "P").b.tolist())[:2] == (1.0, math.inf)


def test_exact_profile_rejects_one_candidate_and_unknown_ids():
    inst = _column_cases("line", 1)
    with pytest.raises(SameCandidate):
        exact_profile(inst, "P", "P")
    for p, q in (("P", "ghost"), ("ghost", "P")):
        with pytest.raises(UnknownId):
            exact_profile(inst, p, q)
    with pytest.raises(UnknownId):
        social_cost(inst, "ghost")
    # the instance still answers after a failed lookup
    assert tuple(exact_profile(inst, "P", "Q").a.tolist())[:2] == (1.0, math.inf)


def test_a_second_exact_profile_is_the_same_object_and_measures_nothing(monkeypatch):
    inst = _column_cases("line", 1)
    first = exact_profile(inst, "P", "Q")
    calls = []
    kernel = tallies._strengths
    monkeypatch.setattr(tallies, "_strengths",
                        lambda d1, d2: calls.extend(d1.tolist()) or kernel(d1, d2))
    assert exact_profile(inst, "P", "Q") is first
    assert calls == []
    assert exact_profile(inst, "Q", "P") is not first
    assert len(calls) == len(inst.voters)


def test_kept_tallies_are_told_apart_by_boundary():
    # v1 at 1/(tau+1) has strength exactly tau = 3 toward P
    def build():
        return line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25, "v2": 0.9},
                             ("v1", "v2"), ("P", "Q"))
    scheme = ThresholdScheme((3.0,))
    prof = exact_profile(build(), "P", "Q")
    strict = bucket_profile(prof, ThresholdScheme(scheme.taus, STRICT))
    inclusive = bucket_profile(prof, ThresholdScheme(scheme.taus, INCLUSIVE))
    assert strict != inclusive
    assert (strict.a_counts, strict.c_count) == ((0,), 1)
    assert strict == pairwise_tally(build(), "P", "Q", ThresholdScheme(scheme.taus, STRICT))
    assert inclusive == pairwise_tally(build(), "P", "Q", ThresholdScheme(scheme.taus, INCLUSIVE))


def _memo_case(space: str, seed: int, num_candidates: int):
    """A seeded instance, rebuilt anew on every call; one voter sits on c0."""
    rng = random.Random(seed)
    dim = 1 if space == "line" else 2
    cands = tuple(f"c{j}" for j in range(num_candidates))
    voters = tuple(f"v{i}" for i in range(rng.randint(1, 12))) + ("c0",)
    pos = {x: tuple(rng.uniform(-1.0, 2.0) for _ in range(dim)) for x in cands + voters}
    if space == "line":
        return line_instance(pos, voters, cands)
    if space == "euclidean2d":
        return euclidean_instance(pos, voters, cands)
    ids = sorted(pos)
    rows = [[math.dist(pos[a], pos[b]) for b in ids] for a in ids]
    return matrix_instance(ids, rows, voters, cands)


def _decision_key(decision):
    return decision.winner, decision.p_score.hex(), decision.q_score.hex(), decision.tie


@pytest.mark.parametrize("num_candidates", [2, 3, 4, 5])
@pytest.mark.parametrize("space", ["line", "euclidean2d", "matrix"])
def test_decisions_on_a_warmed_instance_match_a_fresh_one(space, num_candidates):
    rules = search_oracle._two_candidate_rules() + [
        Rule("rule4", scheme=(1.5, 3.0)), Rule("rule4", scheme=(1.0, 2.0, 4.0))]
    for seed in range(3):
        warm = _memo_case(space, seed, num_candidates)
        pairs = list(permutations(warm.candidates, 2))
        for rule in rules:
            for p, q in pairs:
                decide_pair(warm, p, q, rule)
        for rule in rules:
            for p, q in pairs:
                fresh = decide_pair(_memo_case(space, seed, num_candidates), p, q, rule)
                assert _decision_key(decide_pair(warm, p, q, rule)) == _decision_key(fresh)


def test_a_scheme_rejects_an_unknown_comparison():
    """The comparison is checked where the scheme is built: a misspelt mode
    does not fall back to strict bucketing."""
    assert ThresholdScheme((2.0,), STRICT).bucket(2.0) == 0
    for boundary in ("Inclusive", "fuzzy", None):
        with pytest.raises(ValueError, match="unknown boundary mode"):
            ThresholdScheme((2.0,), boundary)
