"""Differential test of the voter-distance columns against the scalar distance.

``voter_distances(point)`` builds a point's column in one array step over the
instance's kept voter positions; the reference asks ``distance`` for each
voter in turn. Columns are compared by float.hex, so a sign of zero or a last
bit that differs fails. The line ideal point is checked the same way against
the sorted()/generator reference, and the matrix ideal point against the
cheapest named point by math.fsum, ties to the smaller id.
"""

import math
import random

import numpy as np
import pytest

from strengthvote.distortion_lab import _geometric_median, ideal_point
from strengthvote.metric_core import (UnknownId, distance, euclidean_instance, line_instance,
                                      matrix_instance, scale_instance)


def _hex(values):
    return [float.hex(float(x)) for x in values]


def _named(inst):
    return inst.point_ids if inst.point_ids is not None else tuple(inst.coords)


def _as_matrix(inst):
    """The same points as a matrix instance, with ``distance`` as its entries."""
    ids = _named(inst)
    rows = [[distance(inst, a, b) for b in ids] for a in ids]
    return matrix_instance(ids, rows, inst.voters, inst.candidates)


def _line_ties():
    """Integer and half-integer spots, +-0.0, a voter on a candidate, voters
    equidistant from a pair, a repeated voter id and a witness Z that is
    neither voter nor candidate."""
    pos = {"a": 0, "b": 2, "c": 5.5, "Z": -3, "v0": 1, "v1": 1.0, "v2": 0.0, "v3": -0.0,
           "v4": 2.5, "v5": 3.75, "v6": -1.5}
    voters = ("v0", "v1", "v2", "v3", "v4", "v5", "v6", "a", "v0", "v3")
    return line_instance(pos, voters, ("a", "b", "c"))


def _euclidean_ties(dim):
    rng = random.Random(dim)
    spots = [k / 2 for k in range(-4, 5)]
    pos = {"a": [0.0] * dim, "b": [1] * dim, "c": [-0.0] * (dim - 1) + [2.5],
           "Z": [3] + [0.0] * (dim - 1)}
    pos.update((f"v{i}", [rng.choice(spots) for _ in range(dim)]) for i in range(12))
    pos["v12"] = [0.5] * dim  # equidistant from a and b
    voters = tuple(f"v{i}" for i in range(13)) + ("b", "v0", "v0")
    return euclidean_instance(pos, voters, ("a", "b", "c"))


def _huge(space):
    """Coordinates near 1e300, a thousandth of them apart."""
    pos = {"a": 1e300, "b": -1e300, "Z": 1.5e300, "v0": 1.25e300, "v1": -0.5e300,
           "v2": 0.0, "v3": 1e300}
    voters = ("v0", "v1", "v2", "v3", "b")
    if space == "line":
        return line_instance(pos, voters, ("a", "b"))
    pos = {k: [x, -x / 3] for k, x in pos.items()}
    return euclidean_instance(pos, voters, ("a", "b"))


def _random(space, seed):
    rng = random.Random(seed)
    dim = {"line": 1, "euclidean2d": 2, "euclidean3d": 3}[space]
    cands = tuple(f"c{j}" for j in range(rng.randint(2, 6)))
    voters = tuple(f"v{i}" for i in range(rng.randint(1, 40)))
    pos = {x: [rng.uniform(-5.0, 5.0) for _ in range(dim)] for x in cands + voters + ("Z",)}
    voters += (cands[0], voters[-1])
    build = line_instance if space == "line" else euclidean_instance
    return build(pos, voters, cands)


def _int_matrix():
    """Matrix rows given as ints, with a witness Z."""
    ids = ("a", "b", "Z", "v0", "v1", "v2")
    xs = (0, 4, 9, 2, 4, 7)
    rows = [[abs(x - y) for y in xs] for x in xs]
    return matrix_instance(ids, rows, ("v0", "v1", "v2", "a", "v1"), ("a", "b"))


def _twin_columns():
    """z and y, in that order, at distance 1 from each of three voters: their
    columns are the same, and y wins on its id."""
    ids = ("z", "y", "v0", "v1", "v2")
    rows = [[0, 2, 1, 1, 1], [2, 0, 1, 1, 1], [1, 1, 0, 2, 2], [1, 1, 2, 0, 2],
            [1, 1, 2, 2, 0]]
    return matrix_instance(ids, rows, ("v0", "v1", "v2"), ("z", "y"))


_E = 2.0 ** -53


def _last_bit():
    """a, v1 and v2 coincide and b is 2**-53 from them. b's voter distances
    (1, 2**-53, 2**-53) sum to 1.0 in voter order, but to 1 + 2**-52 exactly,
    as a's (1 + 2**-52, 0, 0) do: by fsum the two tie, and a wins on its id."""
    ids = ("b", "a", "v0", "v1", "v2")
    far = 1.0 + 2 * _E
    rows = [[0, _E, 1, _E, _E], [_E, 0, far, 0, 0], [1, far, 0, far, far],
            [_E, 0, far, 0, 0], [_E, 0, far, 0, 0]]
    return matrix_instance(ids, rows, ("v0", "v1", "v2"), ("b", "a"))


def _zero_columns():
    """The voters sit on c and Z, so the columns of c, v1, Z and v0 are all
    zero, and Z wins on its id."""
    ids = ("c", "v1", "a", "Z", "v0")
    rows = [[0, 0, 1, 0, 0], [0, 0, 1, 0, 0], [1, 1, 0, 1, 1], [0, 0, 1, 0, 0],
            [0, 0, 1, 0, 0]]
    return matrix_instance(ids, rows, ("v1", "v0", "v1"), ("c", "a"))


def _instances():
    cases = {"line-ties": _line_ties(), "int-matrix": _int_matrix(),
             "matrix-twins": _twin_columns(), "matrix-last-bit": _last_bit(),
             "matrix-zero-columns": _zero_columns()}
    for dim in (2, 3):
        cases[f"euclidean{dim}d-ties"] = _euclidean_ties(dim)
    for space in ("line", "euclidean2d", "euclidean3d"):
        for seed in range(3):
            cases[f"{space}-{seed}"] = _random(space, seed)
    for name in list(cases):
        if cases[name].space != "matrix":
            cases[f"{name}-matrix"] = _as_matrix(cases[name])
    for name in list(cases):
        for factor in (3.0, 0.1):
            cases[f"{name}-x{factor}"] = scale_instance(cases[name], factor)
    # Near 1e300 a sum of two distances rounds by more than the matrix
    # check's absolute tolerance, so these stay coordinate instances.
    cases["huge-line"], cases["huge-euclidean"] = _huge("line"), _huge("euclidean")
    return cases


CASES = _instances()


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_column_equals_the_scalar_distances(name):
    inst = CASES[name]
    for point in _named(inst):
        column = inst.voter_distances(point)
        assert column.dtype == np.float64
        assert not column.flags.writeable
        with pytest.raises(ValueError):
            column[0] = 1.0
        assert _hex(column.tolist()) == _hex(distance(inst, v, point) for v in inst.voters)
        assert inst.voter_distances(point) is column


@pytest.mark.parametrize("name", ["line-ties", "euclidean2d-ties", "int-matrix"])
def test_an_unknown_point_raises_unknown_id(name):
    inst = CASES[name]
    with pytest.raises(UnknownId):
        inst.voter_distances("nobody")
    with pytest.raises(UnknownId):
        inst.voter_distances("nobody")


def _reference_line_ideal(inst):
    xs = sorted(inst.coords[v][0] for v in inst.voters)
    med = xs[(len(xs) - 1) // 2]
    return med, math.fsum(abs(x - med) for x in xs)


@pytest.mark.parametrize("xs", [(0.0, -0.0), (-0.0, 0.0), (0.0, -0.0, 5.0), (-0.0, 0.0, 0.0),
                                (3.0, -0.0, 0.0, -2.0), (0.0, 0.0, -0.0, -0.0)])
def test_line_ideal_point_keeps_the_sign_of_a_zero_median(xs):
    pos = {f"v{i}": x for i, x in enumerate(xs)}
    pos.update(a=1.0, b=2.0)
    inst = line_instance(pos, tuple(f"v{i}" for i in range(len(xs))), ("a", "b"))
    ip = ideal_point(inst)
    med, cost = _reference_line_ideal(inst)
    assert type(ip.location) is float
    assert (float.hex(ip.location), float.hex(ip.cost)) == (float.hex(med), float.hex(cost))


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if CASES[n].space == "line"])
def test_line_ideal_point_matches_the_sorted_reference(name):
    inst = CASES[name]
    ip = ideal_point(inst)
    med, cost = _reference_line_ideal(inst)
    assert (float.hex(ip.location), float.hex(ip.cost)) == (float.hex(med), float.hex(cost))


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if CASES[n].space == "euclidean"])
def test_euclidean_ideal_point_starts_from_the_voters_coordinates(name):
    inst = CASES[name]
    pts = np.array([inst.coords[v] for v in inst.voters], dtype=float)
    loc, converged, achieved = _geometric_median(pts)
    ip = ideal_point(inst)
    assert _hex(ip.location) == _hex(loc.tolist())
    assert (ip.converged, ip.tolerance) == (converged, achieved)


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if CASES[n].space == "matrix"])
def test_matrix_ideal_point_is_the_cheapest_named_point(name):
    inst = CASES[name]
    cost, best = min((math.fsum(distance(inst, v, p) for v in inst.voters), p)
                     for p in inst.point_ids)
    ip = ideal_point(inst)
    assert (ip.location, float.hex(ip.cost)) == (best, float.hex(cost))
