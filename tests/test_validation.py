"""Coordinate, scheme and tally validation: one pass per instance, scheme or
tally, with the same exceptions and messages as a per-point scan.

line_instance and euclidean_instance accept exact floats (or non-empty lists
of them) in one type-set test and one isfinite pass, and fall back to
_as_coord's per-point scan for anything else. The reference below is that
scan applied to every point, so any document on which the two disagree, in
the coordinates built or in the exception raised, fails here.
"""

import itertools
import math

import numpy as np
import pytest

from strengthvote.metric_core import (EUCLIDEAN, LINE, SameCandidate, UnknownId, _as_coord,
                                      _coord_instance, euclidean_instance, line_instance)
from strengthvote.tallies import PairwiseTally, ThresholdScheme


class _Float(float):
    pass


def _reference_line(positions, voters, candidates):
    coords = {str(k): _as_coord(v, f"positions[{k!r}]") for k, v in positions.items()}
    if any(len(c) != 1 for c in coords.values()):
        raise ValueError("line positions must be single numbers")
    return _coord_instance(LINE, coords, voters, candidates)


def _reference_euclidean(coordinates, voters, candidates):
    coords = {str(k): _as_coord(v, f"coordinates[{k!r}]") for k, v in coordinates.items()}
    return _coord_instance(EUCLIDEAN, coords, voters, candidates)


def _outcome(build, points, voters, candidates):
    """The coordinates built, by float.hex and in id order, or the exception
    raised, by type and message."""
    try:
        inst = build(points, voters, candidates)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return [(k, [x.hex() for x in v]) for k, v in inst.coords.items()]


# Values a document or a library caller may put at a point: valid ones,
# ones _as_coord accepts only through its isinstance tests, and bad ones.
_VALUES = [
    0.5, -0.25, 1e300, 7, -3, 0, True, False, 10**400, -10**400,
    math.nan, math.inf, -math.inf, "1", None, [], [[0.5]], [0.5], [0.5, 0.75],
    [1, 2.5], [True, 0.5], [0.5, math.nan], [math.inf], [10**400, 0.0], (0.5,), (0.5, 0.75),
    np.float64(0.5), np.float64(math.nan), _Float(0.5), [np.float64(0.5), 0.25],
    [_Float(0.5)], {"x": 0.5}, [0.5, "1"], [None],
]
# Bad values, each failing a different check, for documents with two bad points.
_BAD = [True, 10**400, math.nan, -math.inf, "1", None, [], [[0.5]], [0.5, math.nan], [True]]

_BUILDS = [(line_instance, _reference_line), (euclidean_instance, _reference_euclidean)]


def _documents(base_p, base_q):
    """Documents with the value table at one voter, at both voters, and two
    bad values at two voters in both orders (the first bad one is named)."""
    for x in _VALUES:
        yield {"P": base_p, "Q": base_q, "v1": x}
        yield {"v1": x, "P": base_p, "Q": base_q, "v2": x}
    for x, y in itertools.permutations(_BAD, 2):
        yield {"P": base_p, "v1": x, "Q": base_q, "v2": y}


@pytest.mark.parametrize("build, reference", _BUILDS, ids=["line", "euclidean"])
@pytest.mark.parametrize("bases", [(0.0, 1.0), ([0.0], [1.0]), ([0.0, 0.0], [1.0, 0.0]),
                                   (0, 1), ([0, 0.0], [1.0, 0])],
                         ids=["floats", "lists", "pairs", "ints", "mixed"])
def test_one_pass_matches_the_per_point_scan(build, reference, bases):
    seen = set()
    for doc in _documents(*bases):
        voters = tuple(k for k in doc if k.startswith("v"))
        expected = _outcome(reference, doc, voters, ("P", "Q"))
        assert _outcome(build, doc, voters, ("P", "Q")) == expected, doc
        seen.add(expected[0] if isinstance(expected, tuple) else "ok")
    # a line takes one coordinate per point, so two-coordinate bases never build
    assert ValueError in seen and ("ok" in seen) == (build is euclidean_instance
                                                     or not isinstance(bases[0], list)
                                                     or len(bases[0]) == 1)


def test_ragged_dimensions_and_lone_bad_points_match():
    for build, reference in _BUILDS:
        for doc in ({"P": [0.0], "Q": [1.0, 0.0], "v1": [0.5, 0.5]},
                    {"P": [0.0, 0.0], "Q": [1.0, 0.0], "v1": [0.5]},
                    {"P": [0.0, 0.0], "Q": [1.0, 0.0], "v1": [0.5, 0.5, 0.5], "v2": [math.nan]},
                    {"P": 0.0, "Q": 1.0, "v1": [0.5]}, {}):
            voters = tuple(k for k in doc if k.startswith("v"))
            assert _outcome(build, doc, voters, ("P", "Q")) == \
                _outcome(reference, doc, voters, ("P", "Q")), doc


def test_the_first_bad_point_is_named():
    doc = {"P": 0.0, "v1": math.nan, "Q": 1.0, "v2": True}
    with pytest.raises(ValueError, match=r"^positions\['v1'\]: coordinates must be finite, "
                                         r"got nan$"):
        line_instance(doc, ("v1", "v2"), ("P", "Q"))
    doc = {"P": [0.0, 0.0], "v2": [True, 0.0], "Q": [1.0, 0.0], "v1": [math.inf, 0.0]}
    with pytest.raises(ValueError, match=r"^coordinates\['v2'\]: expected a number or a list "
                                         r"of numbers, got \[True, 0.0\]$"):
        euclidean_instance(doc, ("v1", "v2"), ("P", "Q"))


def test_a_bool_coordinate_is_rejected_among_floats():
    with pytest.raises(ValueError, match=r"^positions\['v1'\]: expected a number"):
        line_instance({"P": 0.0, "Q": 1.0, "v1": True}, ("v1",), ("P", "Q"))
    with pytest.raises(ValueError, match=r"^coordinates\['v1'\]: expected a number"):
        euclidean_instance({"P": [0.0, 0.0], "Q": [1.0, 0.0], "v1": [0.5, False]},
                           ("v1",), ("P", "Q"))


def test_the_first_unknown_id_is_named_voters_first():
    positions = {"P": 0.0, "Q": 1.0, "v1": 0.5}
    for voters, candidates, unknown in ((("x", "v1"), ("P", "y"), "x"),
                                        (("v1",), ("P", "y", "z"), "y"),
                                        (("v1", "v1", "w"), ("P", "Q"), "w")):
        with pytest.raises(UnknownId) as err:
            line_instance(positions, voters, candidates)
        assert err.value.args == (unknown,)


@pytest.mark.parametrize("taus, message", [
    ((), "a scheme needs at least one threshold"),
    ((0.5, 2.0), "thresholds must be >= 1, got 0.5"),
    ((2.0, 2.0), "thresholds must be strictly increasing: (2.0, 2.0)"),
    ((3.0, 2.0), "thresholds must be strictly increasing: (3.0, 2.0)"),
    ((1.5, math.inf, math.inf), "thresholds must be strictly increasing: (1.5, inf, inf)"),
    ((1.5, math.inf), "thresholds must be finite"),
    ((math.nan,), "thresholds must be finite"),
    ((1.5, math.nan, 2.0), "thresholds must be finite"),
    ((2.0, math.nan, 1.5), "thresholds must be finite"),
    ((math.nan, 0.5), "thresholds must be finite"),
])
def test_scheme_messages(taus, message):
    with pytest.raises(ValueError) as err:
        ThresholdScheme(taus)
    assert str(err.value) == message


@pytest.mark.parametrize("a, b, c, message", [
    ((1,), (1, 2), 0, "expected 2 bucket counts per side"),
    ((1, -1), (1, 2), 0, "bucket counts must be nonnegative"),
    ((1, 1), (-2, 2), 0, "bucket counts must be nonnegative"),
    ((1, 1), (1, 2), -1, "bucket counts must be nonnegative"),
])
def test_tally_messages(a, b, c, message):
    with pytest.raises(ValueError) as err:
        PairwiseTally(("P", "Q"), ThresholdScheme((1.5, 3.0)), a, b, c)
    assert str(err.value) == message


def test_a_tally_of_one_candidate_is_refused():
    """A pair of two equal ids is refused as exact_profiles refuses it."""
    with pytest.raises(SameCandidate) as err:
        PairwiseTally(("P", "P"), ThresholdScheme((1.5, 3.0)), (1, 1), (1, 2), 0)
    assert err.value.args == ("P",)
