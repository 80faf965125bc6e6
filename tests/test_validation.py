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
                                      _coord_instance, _coord_instances, euclidean_instance,
                                      line_instance)
from strengthvote.search_oracle import SPACES, _drawer
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
    """A pair of two equal ids is refused as decide_pair and exact_profile refuse it."""
    with pytest.raises(SameCandidate) as err:
        PairwiseTally(("P", "P"), ThresholdScheme((1.5, 3.0)), (1, 1), (1, 2), 0)
    assert err.value.args == ("P",)


def _spoil_nan(coords, candidates):
    coords["v1"] = (math.nan,) * len(coords["v1"])


def _spoil_coinciding(coords, candidates):
    coords[candidates[2]] = coords[candidates[0]]


def _spoil_spread(coords, candidates):
    dim = len(coords["v1"])
    coords["v1"], coords[candidates[1]] = (1e308,) * dim, (-1e308,) * dim


@pytest.mark.parametrize("spoil", [_spoil_nan, _spoil_coinciding, _spoil_spread],
                         ids=["nan", "coinciding", "spread"])
@pytest.mark.parametrize("space", SPACES)
def test_a_batch_refuses_its_first_bad_instance_as_one_instance_would(space, spoil):
    """A drawn batch raises what its first spoiled instance raises when built
    alone from its positions as a document holds them, although a later one
    fails a check that comes first (an unknown candidate id)."""
    kind, draw = _drawer(space, 6, num_candidates=4)
    rng = np.random.default_rng(9)
    items = [draw.item(*draw(rng)) for _ in range(12)]
    coords, voters, candidates = items[4]
    spoil(coords, candidates)
    items[9] = (items[9][0], items[9][1], ("c1", "ghost", "c3", "c4"))
    positions = {k: list(v) for k, v in coords.items()}
    build = line_instance if kind == LINE else euclidean_instance
    with pytest.raises(ValueError) as alone:
        build(positions, voters, candidates)
    with pytest.raises(ValueError) as batch:
        _coord_instances(kind, items)
    assert (type(batch.value), str(batch.value)) == (type(alone.value), str(alone.value))
    assert str(alone.value).startswith(
        {_spoil_nan: "positions['v1']: coordinates must be finite, got [nan"
                     if kind == LINE else "coordinates['v1']: coordinates must be finite",
         _spoil_coinciding: "c1 and c3 coincide",
         _spoil_spread: "social costs overflow"}[spoil])


def test_a_batch_of_mixed_dimensions_is_built_one_instance_at_a_time():
    items = [({"P": (0.0, 0.0), "Q": (1.0, 0.0), "v": (0.5, 0.5)}, ("v",), ("P", "Q")),
             ({"P": (0.0, 0.0, 0.0), "Q": (0.0, 1.0, 0.0), "v": (1.0, 1.0, 1.0)}, ("v",),
              ("P", "Q"))]
    built = _coord_instances(EUCLIDEAN, items)
    assert [inst.coords for inst in built] == [coords for coords, _, _ in items]
    assert built[1].voter_distances("Q").tolist() == [math.sqrt(2.0)]
    assert _coord_instances(EUCLIDEAN, []) == []


@pytest.mark.parametrize("space", SPACES)
def test_a_nan_between_finite_points_is_named_alone_and_in_a_batch(space):
    """A NaN in the last axis of a point that is neither first nor last in
    dict order: a max or min over the points skips it, so only a finiteness
    pass of its own refuses it. Built alone, as a document and as coordinate
    tuples, and as the middle instance of a 12-instance drawn batch, it
    raises that point's own message."""
    kind, draw = _drawer(space, 6, num_candidates=4)
    rng = np.random.default_rng(11)
    items = [draw.item(*draw(rng)) for _ in range(12)]
    coords, voters, candidates = items[6]
    key = list(coords)[len(coords) // 2]
    assert key not in (next(iter(coords)), list(coords)[-1])
    coords[key] = coords[key][:-1] + (math.nan,)
    label = "positions" if kind == LINE else "coordinates"
    message = f"{label}[{key!r}]: coordinates must be finite, got {list(coords[key])!r}"
    build = line_instance if kind == LINE else euclidean_instance
    for run in (lambda: build({k: list(v) for k, v in coords.items()}, voters, candidates),
                lambda: _coord_instance(kind, coords, voters, candidates),
                lambda: _coord_instances(kind, items)):
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == message
