import math
import random
import warnings

import numpy as np
import pytest

from strengthvote.metric_core import (LINE, TOL, DuplicateCandidatePoint, MetricInstance,
                                      MetricViolation, SameCandidate, UnknownId, _check_matrix,
                                      build_instance,
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


def test_matrix_distance_names_the_unknown_id():
    rows = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    inst = matrix_instance(("a", "b", "z"), rows, ("z",), ("a", "b"))
    with pytest.raises(UnknownId) as err:
        distance(inst, "ghost", "a")
    assert err.value.args == ("ghost",)
    with pytest.raises(UnknownId) as err:
        distance(inst, "a", "ghost")
    assert err.value.args == ("ghost",)


def test_line_distance_raises_unknown_id():
    inst = two_city()
    with pytest.raises(UnknownId) as err:
        distance(inst, "v1", "ghost")
    assert err.value.args == ("ghost",)


def test_an_instance_is_not_equal_to_a_non_instance():
    assert (two_city() == 3) is False


def test_matrix_entries_the_tolerance_lets_below_zero_are_read_as_zero():
    rows = [[0, 1, -1e-10], [1, 0, 1], [-1e-10, 1, 0]]
    inst = matrix_instance(("P", "Q", "v"), rows, ("v",), ("P", "Q"))
    assert not (inst.matrix < 0.0).any()
    assert distance(inst, "v", "P") == 0.0


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


def _reference_check(ids, rows):
    """The metric check as a scalar loop: the scan order that _check_matrix reports in."""
    n = len(ids)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"distance matrix must be {n}x{n}")
    for i in range(n):
        if abs(rows[i][i]) > TOL:
            raise MetricViolation(f"d({ids[i]},{ids[i]}) = {rows[i][i]}, expected 0")
        for j in range(n):
            if not math.isfinite(rows[i][j]):
                raise MetricViolation(f"d({ids[i]},{ids[j]}) = {rows[i][j]} is not finite")
            if rows[i][j] < -TOL:
                raise MetricViolation(f"d({ids[i]},{ids[j]}) = {rows[i][j]} is negative")
            if abs(rows[i][j] - rows[j][i]) > TOL:
                raise MetricViolation(
                    f"asymmetry: d({ids[i]},{ids[j]}) = {rows[i][j]} "
                    f"but d({ids[j]},{ids[i]}) = {rows[j][i]}"
                )
    for i in range(n):
        for k in range(n):
            for j in range(n):
                if rows[i][j] > rows[i][k] + rows[k][j] + TOL:
                    raise MetricViolation(
                        f"triangle inequality fails on ({ids[i]}, {ids[k]}, {ids[j]}): "
                        f"{rows[i][j]} > {rows[i][k]} + {rows[k][j]}"
                    )


def _check_message(check, ids, rows):
    try:
        check(ids, rows)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return None


def _matrix(rows):
    return tuple(tuple(float(x) for x in r) for r in rows)


@pytest.mark.parametrize("rows, message", [
    # (a, b, e) and (a, d, c) both fail; the scan takes pivots before endpoints
    ([[0, 1, 3, 1, 3], [1, 0, 3, 2, 1], [3, 3, 0, 1, 3], [1, 2, 1, 0, 2], [3, 1, 3, 2, 0]],
     "triangle inequality fails on (a, b, e): 3.0 > 1.0 + 1.0"),
    # one entry both negative and asymmetric: negative comes first
    ([[0, -1, 2], [-2, 0, 1], [2, 1, 0]], "d(a,b) = -1.0 is negative"),
    # asymmetric at j = 1 before negative at j = 2
    ([[0, 1, -1], [1.5, 0, 1], [-1, 1, 0]], "asymmetry: d(a,b) = 1.0 but d(b,a) = 1.5"),
    # a NaN on the diagonal passes abs(nan) > TOL and fails as not finite
    ([[0, 1, 1], [1, math.nan, 1], [1, 1, 0]], "d(b,b) = nan is not finite"),
    # a bad diagonal precedes a bad entry left of it in its row (a NaN that
    # row a's asymmetry check passes over, since abs(1 - nan) > TOL is False)
    ([[0, 1, 1], [1, 0, 1], [math.nan, 1, 5]], "d(c,c) = 5.0, expected 0"),
    # the sum rounds as (d(a,b) + d(b,c)) + TOL = 0.7750000009999999; adding
    # TOL to either term first gives 0.775000001 and passes
    ([[0, 0.295, 0.775000001], [0.295, 0, 0.48], [0.775000001, 0.48, 0]],
     "triangle inequality fails on (a, b, c): 0.775000001 > 0.295 + 0.48"),
    # sums overflow to inf but break no axiom: accepted, without a warning
    ([[0, 1e308, 1.7e308], [1e308, 0, 1.7e308], [1.7e308, 1.7e308, 0]], None),
    # symmetric only within the tolerance, and the one broken triangle is below
    # the diagonal: a scan of j >= i alone would accept it
    ([[0, 0.5, 1.000000001], [0.5, 0, 0.5], [1.0000000015, 0.5, 0]],
     "triangle inequality fails on (c, b, a): 1.0000000015 > 0.5 + 0.5"),
])
def test_check_matrix_reports_the_first_violation_in_scan_order(rows, message):
    ids = ("a", "b", "c", "d", "e")[:len(rows)]
    expected = message and ("MetricViolation", message)
    assert _check_message(_reference_check, ids, _matrix(rows)) == expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _check_message(_check_matrix, ids, _matrix(rows)) == expected


_KINDS = ("is not finite", "is negative", "asymmetry", "expected 0", "triangle")


def test_check_matrix_matches_the_scalar_loop_on_perturbed_matrices():
    rng = random.Random(20261018)
    specials = [math.nan, math.inf, -math.inf, -1.0, -1e-10, 0.0, 2e-9, 5.0, 1e308, 1.7e308]
    kinds = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        rows = [[math.dist(p, q) for q in pts] for p in pts]
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            roll = rng.random()
            if roll < 0.4:
                rows[i][j] = rng.choice(specials)
            elif roll < 0.7:
                rows[i][j] = rows[j][i] = rng.choice(specials + [rng.uniform(0, 3)])
            else:
                rows[i][j] += rng.choice([1e-10, 1e-8, 0.5, -0.5])
        ids = tuple(f"p{k}" for k in range(n))
        expected = _check_message(_reference_check, ids, _matrix(rows))
        assert _check_message(_check_matrix, ids, _matrix(rows)) == expected, rows
        kinds.add(expected and next(k for k in _KINDS if k in expected[1]))
    assert kinds == {None, *_KINDS}


def test_check_matrix_matches_the_scalar_loop_on_larger_symmetric_matrices():
    """Exactly symmetric matrices, whose triangle check scans j >= i alone: each
    perturbation sets (i, j) and (j, i) together, the diagonal included."""
    rng = random.Random(20261020)
    specials = [-TOL, 0.0, TOL, 5.0]
    triples = []
    for _ in range(40):
        n = rng.randint(7, 40)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(n)]
        rows = [[math.dist(p, q) for q in pts] for p in pts]
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            roll = rng.random()
            if roll < 0.4:
                rows[i][j] = rows[j][i] = rng.choice(specials)
            elif roll < 0.8:
                rows[i][j] = rows[j][i] = rows[i][j] + rng.choice([2e-9, 0.5, -0.5])
            elif i != j:
                # j becomes a copy of i at distance -TOL/2, and d(i,i) = TOL: the
                # one broken triangle is (i, j, i), on the diagonal
                for x in range(n):
                    rows[j][x] = rows[x][j] = rows[i][x]
                rows[i][j] = rows[j][i] = -TOL / 2
                rows[i][i], rows[j][j] = TOL, 0.0
        ids = tuple(f"p{k}" for k in range(n))
        expected = _check_message(_reference_check, ids, _matrix(rows))
        assert _check_message(_check_matrix, ids, _matrix(rows)) == expected, rows
        if expected is None or expected[1].startswith("triangle"):
            triples.append(expected and expected[1].partition("(")[2].partition(")")[0])
    assert None in triples and len(triples) >= 25
    # a triangle broken on the diagonal, (i, k, i), and one broken off it
    assert {t.split(", ")[0] == t.split(", ")[2] for t in triples if t} == {True, False}


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


def test_coordinates_whose_social_costs_overflow_are_rejected():
    with pytest.raises(ValueError, match="overflow"):
        line_instance({"P": 0.0, "Q": 1.0, "v1": 1e308, "v2": 1.5e308, "v3": -1e308},
                      ("v1", "v2", "v3"), ("P", "Q"))
    with pytest.raises(ValueError, match="overflow"):
        line_instance({"P": -1e308, "Q": -1.5e308, "v1": 1.7e308}, ("v1",), ("P", "Q"))
    with pytest.raises(ValueError, match="overflow"):
        euclidean_instance({"P": [0.0, 0.0], "Q": [1.0, 0.0], "v1": [1e308, 1e308]},
                           ("v1", "v1"), ("P", "Q"))
    with pytest.raises(ValueError, match="overflow"):
        matrix_instance(("P", "Q", "v1"), [[0, 1e308, 1e308], [1e308, 0, 1e308],
                                           [1e308, 1e308, 0]], ("v1", "v1"), ("P", "Q"))
    # a large total that stays finite is accepted
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 8e307}, ("v1", "v1"), ("P", "Q"))
    assert social_cost(inst, "P") == 1.6e308


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


def test_a_matrix_instance_keeps_one_read_only_array(tmp_path):
    rng = random.Random(5)
    pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(6)]
    ids = ("a", "b", "z", "v1", "v2", "v3")
    rows = [[math.dist(p, q) for q in pts] for p in pts]
    inst = matrix_instance(ids, rows, ("v1", "v2", "v3", "v3"), ("a", "b"))
    assert isinstance(inst.matrix, np.ndarray) and inst.matrix.dtype == np.float64
    with pytest.raises(ValueError):
        inst.matrix[0, 1] = 1.0
    assert inst.matrix.tolist() == rows
    assert type(distance(inst, "v1", "a")) is float
    assert distance(inst, "v1", "a") == rows[3][0]
    path = tmp_path / "matrix.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert loaded == inst
    assert loaded.matrix.tobytes() == inst.matrix.tobytes()
    scaled = scale_instance(inst, 3.0)
    assert ([float.hex(x) for x in scaled.matrix.ravel().tolist()]
            == [float.hex(x) for x in (3.0 * inst.matrix).ravel().tolist()])
    with pytest.raises(MetricViolation, match="is not finite"):
        scale_instance(scaled, 1e308)  # its largest entries overflow to inf


def test_malformed_documents():
    with pytest.raises(ValueError):
        build_instance({"voters": [], "candidates": []})
    with pytest.raises(ValueError):
        build_instance({"space": {"type": "klein-bottle"}, "voters": ["v"], "candidates": ["a", "b"]})
    with pytest.raises(ValueError):
        build_instance({"space": {"type": "matrix", "ids": ["a", "b"], "distances": [0, 1, 1]},
                        "voters": ["a"], "candidates": ["a", "b"]})


def test_an_instance_made_directly_is_refused():
    """Every instance is built with its batch; one made without it would
    fail at its first distance column."""
    with pytest.raises(TypeError) as err:
        MetricInstance(LINE, ("v",), ("P", "Q"), coords={"v": (0.5,), "P": (0.0,), "Q": (1.0,)})
    for builder in ("line_instance", "euclidean_instance", "matrix_instance", "build_instance"):
        assert builder in str(err.value)


@pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan, 0.0, -2.0])
def test_scale_instance_refuses_a_factor_that_is_not_positive_and_finite(factor):
    matrix = matrix_instance(("P", "Q", "v"), [[0, 2, 1], [2, 0, 1], [1, 1, 0]],
                             ("v",), ("P", "Q"))
    for inst in (two_city(), matrix):
        with pytest.raises(ValueError) as err:
            scale_instance(inst, factor)
        assert str(err.value) == f"scale factor must be positive and finite, got {factor}"


def test_scale_instance():
    inst = two_city()
    scaled = scale_instance(inst, 10.0)
    assert distance(scaled, "v1", "P") == 2.5
    assert social_cost(scaled, "Q") == pytest.approx(10.0 * social_cost(inst, "Q"))
    with pytest.raises(ValueError):
        scale_instance(inst, 0.0)
