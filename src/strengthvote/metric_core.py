"""Voters and candidates as named points in a metric space.

An instance pins every participant to a point and answers distance queries.
Three space kinds: the real line, Euclidean R^d, and an explicit distance
matrix over named points. A line is 1-D coordinates: line and Euclidean
points are coordinate tuples measured by math.dist, which is exactly |x - y|
in 1-D. Matrix instances may carry extra named points that are neither voters
nor candidates (useful as witness points). A distance matrix is checked against
every metric axiom exactly, the triangle inequality over all n^3 triples, on
numpy; the first violation in row-major order is reported. Coordinates are
checked once per instance, by a type-set test and one isfinite pass over all
of them; the per-point scan runs only when those fail: for other inputs, such
as integers, and to name the first bad field.

Each voter's distance to a point is measured once per instance: the voter
column of a point (``voter_distances``), a read-only float64 array, is built
on first use and kept, and social costs and the strength kernel in
``tallies`` read it. A column is one array step over the voters' positions,
kept on the instance: |x_v - x| on a line, a gather from the checked matrix
array, and math.dist mapped over the coordinate tuples in R^d, so each entry
equals the scalar ``distance`` exactly. The instance also keeps each ordered
pair's strength profile once ``tallies.exact_profiles`` has built it;
profiles and columns live as long as the instance, at 8 bytes per strength:
about C(C-1)/2 * V floats of profiles for C candidates and V voters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

TOL = 1e-9

LINE = "line"
EUCLIDEAN = "euclidean"
MATRIX = "matrix"


class MetricViolation(ValueError):
    """Explicit distance data breaks a metric axiom."""


class DuplicateCandidatePoint(ValueError):
    """Two candidates sit at exactly the same point, so strength ratios degenerate."""


class UnknownId(KeyError):
    """A point id is not defined by the instance."""


class SameCandidate(ValueError):
    """An ordered candidate pair collapsed to a single candidate."""


@dataclass(frozen=True)
class MetricInstance:
    """Immutable election instance.

    ``voters`` may repeat ids (a multiset of ballots at the same point is two
    distinct ids in practice, but nothing forbids repetition). ``candidates``
    are distinct ids. For line/euclidean spaces ``coords`` maps every named id
    to a coordinate tuple; for matrix spaces ``point_ids`` orders the points
    and ``matrix`` holds row-major distances, and ``row_of`` finds an id's row.
    ``voter_distances(point)`` is the column of voter distances to a point.
    """

    space: str
    voters: tuple[str, ...]
    candidates: tuple[str, ...]
    coords: dict[str, tuple[float, ...]] | None = None
    point_ids: tuple[str, ...] | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Matrix row of each point id, built on first use."""
        return {pid: i for i, pid in enumerate(self.point_ids)}

    @cached_property
    def _columns(self) -> dict[str, np.ndarray]:
        return {}

    @cached_property
    def _profiles(self) -> dict[tuple[str, str], object]:
        """tallies.exact_profiles' result for each ordered pair it has built."""
        return {}

    def voter_distances(self, point: str) -> np.ndarray:
        """d(v, point) for each voter v in voter order, as a read-only float64
        array, measured on first use."""
        column = self._columns.get(point)
        if column is None:
            column = distance_column(self, point)
            column.flags.writeable = False
            self._columns[point] = column
        return column


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _float(x) -> float:
    """float(x), with an integer too large for a float read as +-inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _as_coord(value, field: str) -> tuple[float, ...]:
    if _is_number(value):
        coord = (_float(value),)
    elif isinstance(value, (list, tuple)) and value and all(map(_is_number, value)):
        coord = tuple(map(_float, value))
    else:
        raise ValueError(f"{field}: expected a number or a list of numbers, got {value!r}")
    if not all(math.isfinite(x) for x in coord):
        raise ValueError(f"{field}: coordinates must be finite, got {value!r}")
    return coord


def _coords(points: dict, field: str) -> dict[str, tuple[float, ...]]:
    """Each id's coordinate tuple, checked once per instance: when every value
    is an exact float, or every value a non-empty list of exact floats, one
    type-set test and one isfinite pass over all coordinates accept them. Any
    other input, or a non-finite coordinate, is scanned point by point by
    _as_coord, which names the first bad field."""
    values = points.values()
    types = set(map(type, values))
    if types == {list} and all(values):
        flat = list(chain.from_iterable(values))
        types, coords = set(map(type, flat)), map(tuple, values)
    else:
        flat, coords = values, zip(values)  # zip(values): 1-tuples
    if types <= {float} and all(map(math.isfinite, flat)):
        return dict(zip(map(str, points), coords))
    return {str(k): _as_coord(v, f"{field}[{k!r}]") for k, v in points.items()}


def _check_instance(inst: MetricInstance, spread: float) -> None:
    """Every id is known, candidates sit at distinct points, and no social cost
    overflows: spread bounds every distance, so voters * spread bounds the sums."""
    known = set(inst.point_ids if inst.space == MATRIX else inst.coords)
    if len(inst.candidates) < 2:
        raise ValueError("an instance needs at least two candidates")
    if len(set(inst.candidates)) != len(inst.candidates):
        raise ValueError("candidate ids must be distinct")
    ids = inst.voters + inst.candidates
    if not all(map(known.__contains__, ids)):
        for cid in ids:
            if cid not in known:
                raise UnknownId(cid)
    if not inst.voters:
        raise ValueError("an instance needs at least one voter")
    if not math.isfinite(len(inst.voters) * spread):
        raise ValueError(f"social costs overflow: {len(inst.voters)} voters "
                         f"times the point spread {spread:g}")
    cands = inst.candidates
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            if distance(inst, cands[i], cands[j]) == 0.0:
                raise DuplicateCandidatePoint(f"{cands[i]} and {cands[j]} coincide")


def _check_matrix(ids: tuple[str, ...], rows) -> np.ndarray:
    """Check the metric axioms exactly and report the first violation in scan
    order: row i ascending, its diagonal first, then j ascending, and for one
    entry not-finite before negative before asymmetry; then the triangle
    inequality d(i,j) <= d(i,k) + d(k,j) over (i, k, j) in row-major order.
    numpy compares the same float sums a scalar loop would, and messages
    quote entries as Python floats. Returns the rows as a read-only float64
    array, converted in one step (an integer too big for a float is +-inf)."""
    n = len(ids)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"distance matrix must be {n}x{n}")
    try:
        d = np.array(rows, dtype=float).reshape(n, n)
    except OverflowError:
        d = np.array([list(map(_float, r)) for r in rows]).reshape(n, n)
    # Entries near the float limit overflow to inf in the sums, as they do in
    # Python arithmetic, and inf - inf is nan; neither is an error here.
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal_bad = np.abs(d.diagonal()) > TOL
        entry_bad = ~np.isfinite(d) | (d < -TOL) | (np.abs(d - d.T) > TOL)
        row_bad = diagonal_bad | entry_bad.any(axis=1)
        if row_bad.any():
            rows, i = d.tolist(), int(row_bad.argmax())
            if diagonal_bad[i]:
                raise MetricViolation(f"d({ids[i]},{ids[i]}) = {rows[i][i]}, expected 0")
            j = int(entry_bad[i].argmax())
            if not math.isfinite(rows[i][j]):
                raise MetricViolation(f"d({ids[i]},{ids[j]}) = {rows[i][j]} is not finite")
            if rows[i][j] < -TOL:
                raise MetricViolation(f"d({ids[i]},{ids[j]}) = {rows[i][j]} is negative")
            raise MetricViolation(
                f"asymmetry: d({ids[i]},{ids[j]}) = {rows[i][j]} "
                f"but d({ids[j]},{ids[i]}) = {rows[j][i]}"
            )
        for i in range(n):
            # broken[k, j]: d(i,j) > (d(i,k) + d(k,j)) + TOL, summed in that order
            broken = d[i] > d[i, :, None] + d + TOL
            if broken.any():
                rows, (k, j) = d.tolist(), divmod(int(broken.argmax()), n)
                raise MetricViolation(
                    f"triangle inequality fails on ({ids[i]}, {ids[k]}, {ids[j]}): "
                    f"{rows[i][j]} > {rows[i][k]} + {rows[k][j]}"
                )
    d.flags.writeable = False
    return d


def _coord_instance(space: str, coords: dict, voters, candidates) -> MetricInstance:
    """Line or Euclidean instance from id -> coordinate tuple. Its spread is
    the bounding box's diagonal: the diameter on a line, at most sqrt(d) times
    it in R^d."""
    dims = set(map(len, coords.values()))
    if len(dims) > 1:
        raise ValueError(f"inconsistent coordinate dimensions: {sorted(dims)}")
    inst = MetricInstance(space, tuple(voters), tuple(candidates), coords=coords)
    spans = (max(axis) - min(axis) for axis in zip(*coords.values()))
    _check_instance(inst, math.hypot(*spans))
    return inst


def line_instance(positions: dict, voters, candidates) -> MetricInstance:
    """Build a 1D instance from id -> position."""
    coords = _coords(positions, "positions")
    if not {1}.issuperset(map(len, coords.values())):
        raise ValueError("line positions must be single numbers")
    return _coord_instance(LINE, coords, voters, candidates)


def euclidean_instance(coordinates: dict, voters, candidates) -> MetricInstance:
    """Build an R^d instance from id -> coordinate vector."""
    coords = _coords(coordinates, "coordinates")
    return _coord_instance(EUCLIDEAN, coords, voters, candidates)


def matrix_instance(point_ids, rows, voters, candidates) -> MetricInstance:
    """Build an instance over an explicit (validated) distance matrix."""
    ids = tuple(str(p) for p in point_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("matrix point ids must be distinct")
    array = _check_matrix(ids, rows)
    mat = tuple(map(tuple, array.tolist()))
    inst = MetricInstance(MATRIX, tuple(voters), tuple(candidates),
                          point_ids=ids, matrix=mat)
    _check_instance(inst, max(map(max, mat), default=0.0))
    inst.__dict__["_matrix_array"] = array
    return inst


def _check_ids(value, field: str) -> None:
    """A document's id list must be a JSON list of strings."""
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected a list of id strings, got {value!r}")
    for i, x in enumerate(value):
        if not isinstance(x, str):
            raise ValueError(f"{field}[{i}]: expected an id string, got {x!r}")


def _check_numbers(value, field: str) -> None:
    """A document's number list must be a JSON list of numbers, not bools.
    Exact JSON numbers pass on a type-set test; any other entry is scanned."""
    if not isinstance(value, list):
        raise ValueError(f"{field}: expected a list of numbers, got {value!r}")
    if not {int, float}.issuperset(map(type, value)):
        for i, x in enumerate(value):
            if not _is_number(x):
                raise ValueError(f"{field}[{i}]: expected a number, got {x!r}")


def _check_object(value, field: str) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{field}: expected an object, got {type(value).__name__}")


def _field(obj: dict, path: str):
    key = path.rpartition(".")[2]
    if key not in obj:
        raise ValueError(f"instance document is missing field {path!r}")
    return obj[key]


def build_instance(doc: dict) -> MetricInstance:
    """Build an instance from the JSON document format (see load_instance)."""
    _check_object(doc, "instance document")
    space = _field(doc, "space")
    _check_object(space, "space")
    kind = _field(space, "space.type")
    voters, candidates = _field(doc, "voters"), _field(doc, "candidates")
    _check_ids(voters, "voters")
    _check_ids(candidates, "candidates")
    if kind in (LINE, EUCLIDEAN):
        positions = _field(space, "space.positions")
        _check_object(positions, "space.positions")
        build = line_instance if kind == LINE else euclidean_instance
        return build(positions, voters, candidates)
    if kind == MATRIX:
        ids = _field(space, "space.ids")
        _check_ids(ids, "space.ids")
        flat = _field(space, "space.distances")
        if isinstance(flat, list) and flat and isinstance(flat[0], list):
            for i, row in enumerate(flat):
                _check_numbers(row, f"space.distances[{i}]")
            rows = flat
        else:
            _check_numbers(flat, "space.distances")
            n = len(ids)
            if len(flat) != n * n:
                raise ValueError(f"space.distances: expected {n * n} entries, got {len(flat)}")
            rows = [flat[i * n:(i + 1) * n] for i in range(n)]
        return matrix_instance(ids, rows, voters, candidates)
    raise ValueError(f"space.type: unknown kind {kind!r}")


def instance_to_doc(inst: MetricInstance) -> dict:
    if inst.space == MATRIX:
        n = len(inst.point_ids)
        flat = [inst.matrix[i][j] for i in range(n) for j in range(n)]
        space = {"type": MATRIX, "ids": list(inst.point_ids), "distances": flat}
    else:
        positions = {
            k: (v[0] if inst.space == LINE else list(v)) for k, v in inst.coords.items()
        }
        space = {"type": inst.space, "positions": positions}
    return {"space": space, "voters": list(inst.voters), "candidates": list(inst.candidates)}


def load_instance(path) -> MetricInstance:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except RecursionError:
            raise ValueError(f"{path}: JSON nests too deeply to read") from None
    return build_instance(doc)


def save_instance(inst: MetricInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_doc(inst), fh, indent=2)
        fh.write("\n")


def distance(inst: MetricInstance, a: str, b: str) -> float:
    if inst.space == MATRIX:
        row_of = inst.row_of
        try:
            return inst.matrix[row_of[a]][row_of[b]]
        except KeyError as exc:
            raise UnknownId(exc.args[0]) from None
    try:
        pa, pb = inst.coords[a], inst.coords[b]
    except KeyError as exc:
        raise UnknownId(exc.args[0]) from None
    return math.dist(pa, pb)


def voter_points(inst: MetricInstance):
    """The voters' positions in voter order, kept on the instance (outside its
    fields) on first use: a float64 array of x on a line, the coordinate
    tuples in R^d, and an array of the voters' rows for a matrix."""
    points = inst.__dict__.get("_voter_points")
    if points is None:
        voters = inst.voters
        if inst.space == MATRIX:
            points = np.fromiter(map(inst.row_of.__getitem__, voters), np.intp, len(voters))
        else:
            points = list(map(inst.coords.__getitem__, voters))
            if inst.space == LINE:
                points = np.fromiter(chain.from_iterable(points), float, len(points))
        inst.__dict__["_voter_points"] = points
    return points


def distance_column(inst: MetricInstance, point: str) -> np.ndarray:
    """d(v, point) for each voter v in voter order, in one array step over the
    kept voter positions: |x_v - x| on a line, a gather from the matrix, and
    math.dist mapped over the coordinate tuples in R^d. Each entry is exactly
    distance(inst, v, point)."""
    points = voter_points(inst)
    try:
        at = inst.row_of[point] if inst.space == MATRIX else inst.coords[point]
    except KeyError:
        raise UnknownId(point) from None
    if inst.space == LINE:
        return np.abs(points - at[0])
    if inst.space == EUCLIDEAN:
        return np.fromiter(map(math.dist, points, repeat(at)), float, len(points))
    return inst.__dict__["_matrix_array"][points, at]


def social_cost(inst: MetricInstance, point: str) -> float:
    """Total distance from all voters to the named point."""
    return math.fsum(inst.voter_distances(point).tolist())


def preference_strength(inst: MetricInstance, voter: str, p: str, q: str):
    """Return (preferred, strength) for the ordered candidate pair (p, q).

    Strength is d(voter, worse)/d(voter, preferred) >= 1. Equidistant voters
    count as preferring the lexicographically smaller candidate with strength
    exactly 1; a voter sitting on the preferred candidate has strength +inf.
    """
    if p == q:
        raise SameCandidate(p)
    dp, dq = distance(inst, voter, p), distance(inst, voter, q)
    if dp == dq:
        return min(p, q), 1.0
    if dp < dq:
        preferred, near, far = p, dp, dq
    else:
        preferred, near, far = q, dq, dp
    if near == 0.0:
        return preferred, math.inf
    return preferred, far / near


def scale_instance(inst: MetricInstance, factor: float) -> MetricInstance:
    """Scale every distance by a positive factor (an isometry up to scale)."""
    if not factor > 0:
        raise ValueError("scale factor must be positive")
    if inst.space == MATRIX:
        rows = tuple(tuple(factor * x for x in r) for r in inst.matrix)
        return matrix_instance(inst.point_ids, rows, inst.voters, inst.candidates)
    coords = {k: tuple(factor * x for x in v) for k, v in inst.coords.items()}
    return _coord_instance(inst.space, coords, inst.voters, inst.candidates)
