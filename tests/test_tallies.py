import math
import random
from itertools import permutations

import pytest

from strengthvote.metric_core import (SameCandidate, UnknownId, distance, euclidean_instance,
                                      line_instance, matrix_instance, preference_strength,
                                      social_cost)
from strengthvote.tallies import (INCLUSIVE, STRICT, ExactProfile, PairwiseTally,
                                  ThresholdScheme, bucket_profile, exact_profile,
                                  pairwise_tally, tally_csv)


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
    assert scheme.tau(0) == 0.5
    assert scheme.tau(1) == 2.0
    assert scheme.tau(2) == 5.0
    assert scheme.tau(3) == math.inf


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
    assert scheme.bucket(2.0, INCLUSIVE) == 1
    assert scheme.bucket(2.0, STRICT) == 0
    # a threshold of exactly 1 always absorbs strength-1 voters
    unit = ThresholdScheme((1.0, 3.0))
    assert unit.bucket(1.0, STRICT) == 1
    assert unit.bucket(3.0, STRICT) == 1
    assert unit.bucket(3.0, INCLUSIVE) == 2


def test_exact_profile_orientation():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25, "v2": 0.9, "v3": 0.5},
                         ("v1", "v2", "v3"), ("P", "Q"))
    prof = exact_profile(inst, "P", "Q")
    assert prof.pair == ("P", "Q")
    assert prof.a_strengths == (3.0, 1.0)  # v1 and the equidistant v3
    assert prof.b_strengths == pytest.approx((9.0,))
    flipped = exact_profile(inst, "Q", "P")
    assert flipped.a_strengths == pytest.approx((9.0,))
    assert flipped.b_strengths == (3.0, 1.0)


def test_pairwise_tally_counts():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25, "v2": 0.9, "v3": 0.45},
                         ("v1", "v2", "v3"), ("P", "Q"))
    tally = pairwise_tally(inst, "P", "Q", ThresholdScheme((2.0,)))
    # v1: strength 3 for P; v3: strength ~1.22 for P (below 2); v2: 9 for Q
    assert tally.a_counts == (1,)
    assert tally.b_counts == (1,)
    assert tally.c_count == 1
    assert tally.total == 3


def test_strict_boundary_voter_drops_down():
    # a voter at 1/(tau+1) has strength exactly tau toward P
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25}, ("v1",), ("P", "Q"))
    scheme = ThresholdScheme((3.0,))
    inclusive = pairwise_tally(inst, "P", "Q", scheme, INCLUSIVE)
    strict = pairwise_tally(inst, "P", "Q", scheme, STRICT)
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
        PairwiseTally(("P", "Q"), scheme, (1, 0), (0, 0), 0, boundary="fuzzy")


def test_bucket_profile_conserves_voters():
    prof = ExactProfile(("P", "Q"), (1.0, 2.5, 10.0, math.inf), (1.5, 4.0))
    tally = bucket_profile(prof, ThresholdScheme((2.0, 5.0)))
    assert sum(tally.a_counts) + sum(tally.b_counts) + tally.c_count == 6
    assert tally.a_counts == (1, 2)
    assert tally.b_counts == (1, 0)
    assert tally.c_count == 2


def test_tally_csv_layout():
    prof = ExactProfile(("P", "Q"), (3.0,), (1.2, 9.0))
    text = tally_csv(bucket_profile(prof, ThresholdScheme((2.0, 5.0))))
    lines = text.strip().split("\n")
    assert lines[0] == "pair,l,a,b,c"
    assert lines[1] == "P>Q,1,1,0,1"
    assert lines[2] == "P>Q,2,0,1,1"


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
        assert (_hex(prof.a_strengths), _hex(prof.b_strengths)) == (_hex(a), _hex(b))
    for point in points + ("mid", "v3"):
        reference = math.fsum(distance(inst, v, point) for v in inst.voters)
        assert social_cost(inst, point).hex() == reference.hex()
    # the equidistant voter and the voter on P lead each profile, toward P
    assert exact_profile(inst, "P", "Q").a_strengths[:2] == (1.0, math.inf)
    assert exact_profile(inst, "Q", "P").b_strengths[:2] == (1.0, math.inf)


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
    assert exact_profile(inst, "P", "Q").a_strengths[:2] == (1.0, math.inf)
