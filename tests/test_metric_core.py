import math

import pytest

from strengthvote.metric_core import (DuplicateCandidatePoint, MetricViolation,
                                      SameCandidate, UnknownId, build_instance,
                                      distance, euclidean_instance, line_instance,
                                      load_instance, matrix_instance,
                                      preference_strength, save_instance,
                                      scale_instance, social_cost)


def two_city():
    return line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25, "v2": 0.9},
                         ("v1", "v2"), ("P", "Q"))


def test_line_distance():
    inst = two_city()
    assert distance(inst, "v1", "P") == 0.25
    assert distance(inst, "v1", "Q") == 0.75
    assert distance(inst, "P", "Q") == 1.0


def test_euclidean_distance():
    inst = euclidean_instance({"P": [0, 0], "Q": [3, 4], "v1": [0, 4]},
                              ("v1",), ("P", "Q"))
    assert distance(inst, "P", "Q") == 5.0
    assert distance(inst, "v1", "P") == 4.0


def test_matrix_lookup():
    rows = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    inst = matrix_instance(("a", "b", "z"), rows, ("z",), ("a", "b"))
    assert distance(inst, "a", "z") == 2
    assert distance(inst, "z", "a") == 2


def test_matrix_triangle_violation_names_the_triple():
    rows = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    with pytest.raises(MetricViolation) as err:
        matrix_instance(("a", "b", "c"), rows, ("a",), ("a", "b"))
    assert "a" in str(err.value) and "c" in str(err.value)


def test_matrix_axiom_checks():
    with pytest.raises(MetricViolation):
        matrix_instance(("a", "b"), [[0, 1], [2, 0]], ("a",), ("a", "b"))
    with pytest.raises(MetricViolation):
        matrix_instance(("a", "b"), [[0, -1], [-1, 0]], ("a",), ("a", "b"))
    with pytest.raises(MetricViolation):
        matrix_instance(("a", "b"), [[0.5, 1], [1, 0]], ("a",), ("a", "b"))


def test_non_finite_coordinates_are_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            line_instance({"P": 0.0, "Q": 1.0, "v1": bad}, ("v1",), ("P", "Q"))
        with pytest.raises(ValueError, match="finite"):
            euclidean_instance({"P": [0.0, 0.0], "Q": [1.0, 0.0], "v1": [0.5, bad]},
                               ("v1",), ("P", "Q"))


def test_non_finite_matrix_entry_is_rejected_by_name():
    for bad in (math.nan, math.inf):
        rows = [[0, 1, 1], [1, 0, bad], [1, bad, 0]]
        with pytest.raises(MetricViolation, match=r"d\(b,z\) = (nan|inf) is not finite"):
            matrix_instance(("a", "b", "z"), rows, ("z",), ("a", "b"))


def test_duplicate_candidate_point():
    with pytest.raises(DuplicateCandidatePoint):
        line_instance({"P": 0.5, "Q": 0.5, "v1": 0.0}, ("v1",), ("P", "Q"))


def test_membership_validation():
    with pytest.raises(UnknownId):
        line_instance({"P": 0.0, "Q": 1.0}, ("ghost",), ("P", "Q"))
    with pytest.raises(ValueError):
        line_instance({"P": 0.0, "v1": 1.0}, ("v1",), ("P",))
    with pytest.raises(ValueError):
        line_instance({"P": 0.0, "Q": 1.0}, (), ("P", "Q"))


def test_preference_strength():
    inst = two_city()
    assert preference_strength(inst, "v1", "P", "Q") == ("P", 3.0)
    preferred, s = preference_strength(inst, "v2", "P", "Q")
    assert preferred == "Q"
    assert s == pytest.approx(9.0)
    with pytest.raises(SameCandidate):
        preference_strength(inst, "v1", "P", "P")


def test_equidistant_voter_prefers_lexicographic():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.5}, ("v1",), ("P", "Q"))
    assert preference_strength(inst, "v1", "Q", "P") == ("P", 1.0)


def test_voter_on_candidate_has_infinite_strength():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.0}, ("v1",), ("P", "Q"))
    assert preference_strength(inst, "v1", "P", "Q") == ("P", math.inf)


def test_social_cost_counts_repeated_voters():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25},
                         ("v1", "v1"), ("P", "Q"))
    assert social_cost(inst, "P") == 0.5


def test_json_roundtrip(tmp_path):
    instances = [
        two_city(),
        euclidean_instance({"P": [0, 0], "Q": [1, 0], "v1": [0.2, 0.3]}, ("v1",), ("P", "Q")),
        matrix_instance(("a", "b", "z"), [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
                        ("z",), ("a", "b")),
    ]
    for i, inst in enumerate(instances):
        path = tmp_path / f"inst{i}.json"
        save_instance(inst, path)
        assert load_instance(path) == inst


def test_malformed_documents():
    with pytest.raises(ValueError):
        build_instance({"voters": [], "candidates": []})
    with pytest.raises(ValueError):
        build_instance({"space": {"type": "klein-bottle"}, "voters": ["v"], "candidates": ["a", "b"]})
    with pytest.raises(ValueError):
        build_instance({"space": {"type": "matrix", "ids": ["a", "b"], "distances": [0, 1, 1]},
                        "voters": ["a"], "candidates": ["a", "b"]})


def test_scale_instance():
    inst = two_city()
    scaled = scale_instance(inst, 10.0)
    assert distance(scaled, "v1", "P") == 2.5
    assert social_cost(scaled, "Q") == pytest.approx(10.0 * social_cost(inst, "Q"))
    with pytest.raises(ValueError):
        scale_instance(inst, 0.0)
