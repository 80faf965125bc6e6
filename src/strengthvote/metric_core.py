"""Voters and candidates as named points in a metric space.

An instance pins every participant to a point and answers distance queries.
Three space kinds: the real line, Euclidean R^d, and an explicit distance
matrix over named points. A line is 1-D coordinates: line and Euclidean
points are coordinate tuples measured by math.dist, which is exactly |x - y|
in 1-D. Matrix instances may carry extra named points that are neither voters
nor candidates (useful as witness points). A distance matrix is checked against
every metric axiom exactly on numpy, the triangle inequality as one min-plus
reduction per row (over j >= i alone when the matrix is exactly symmetric); the
first violation in row-major order is reported. A document's coordinates
are checked once per instance, by a type-set test and one isfinite pass over
all of them; the per-point scan runs only when those fail: for other inputs,
such as integers, and to name the first bad field.

Line and Euclidean instances are built a batch at a time
(_coord_instances): the drawn instances of a verification chunk are one
batch, and line_instance and euclidean_instance build a batch of one. Each
instance of a batch is checked alone, in order, so a batch raises what its
first failing instance raises alone; the instances that pass share the
batch's voter positions and columns. A matrix instance is a batch of its
own. Every instance is built with its batch, so a MetricInstance made
directly, without one, is refused.

A matrix instance's ``matrix`` is the read-only float64 array the metric
check returns, its one copy of the distances. Each voter's distance to a
point is measured once per batch: the voter column of a point
(``voter_distances``), a read-only float64 array, is measured on first use
for every instance of the batch that names the point and kept on the batch,
and social costs and the strength kernel in ``tallies`` read it. A column is
one array step over the voters' positions: |x_v - x| on a line, a gather from
the matrix, and math.dist in R^d, so each entry equals the scalar
``distance`` exactly. An instance keeps rules.decide_pair's two scores per
candidate pair and Rule, and any profile ``tallies.exact_profile`` builds,
V floats per pair for V voters; no program path, evaluate included, builds one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, combinations, repeat

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
    """A point id is not defined by the instance. args is (the id,)."""

    def __str__(self):
        return f"unknown point id {self.args[0]!r}"


class SameCandidate(ValueError):
    """An ordered candidate pair collapsed to a single candidate."""


@dataclass(frozen=True)
class MetricInstance:
    """Immutable election instance.

    ``voters`` may repeat ids (a multiset of ballots at the same point is two
    distinct ids in practice, but nothing forbids repetition). ``candidates``
    are distinct ids. For line/euclidean spaces ``coords`` maps every named id
    to a coordinate tuple; for matrix spaces ``point_ids`` orders the points,
    ``matrix`` is the checked read-only float64 array of their distances, and
    ``row_of`` finds an id's row. ``voter_distances(point)`` is the column of
    voter distances to a point. Instances are equal when their documents are.
    """

    space: str
    voters: tuple[str, ...]
    candidates: tuple[str, ...]
    coords: dict[str, tuple[float, ...]] | None = None
    point_ids: tuple[str, ...] | None = None
    matrix: np.ndarray | None = None
    # (the _Batch the instance was built in, its index there), passed by the builder
    _batch: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._batch is None:
            raise TypeError("a MetricInstance is built by line_instance, euclidean_instance, "
                            "matrix_instance or build_instance, not directly")

    def __eq__(self, other):
        if not isinstance(other, MetricInstance):
            return NotImplemented
        return instance_to_doc(self) == instance_to_doc(other)

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Matrix row of each point id, built on first use."""
        return {pid: i for i, pid in enumerate(self.point_ids)}

    @property
    def voter_points(self):
        """The voters' positions in voter order: a read-only float64 array of
        x on a line, the coordinate tuples in R^d, and an array of the voters'
        rows for a matrix."""
        batch, b = self._batch
        return batch.voter_points[b]

    @cached_property
    def _profiles(self) -> dict[tuple[str, str], object]:
        """tallies.exact_profile's result for each ordered pair it has built."""
        return {}

    @cached_property
    def _scores(self) -> dict[object, dict[tuple[str, str], tuple[float, float]]]:
        """rules.decide_pair's (a, b) side scores of each pair a < b, by Rule."""
        return {}

    def voter_distances(self, point: str) -> np.ndarray:
        """d(v, point) for each voter v in voter order, as a read-only float64
        array, measured on first use for every instance of the batch that
        names the point (distance_column) and kept on the batch."""
        batch, b = self._batch
        column = batch.columns.get(point, {}).get(b)
        return distance_column(self, point) if column is None else column


class _Batch:
    """Instances built together: each one's coordinates (None for a matrix)
    and voter positions, and each point's voter columns, kept by point id as
    {index in the batch: column} once distance_column has measured them. A
    matrix instance is a batch of its own. A batch holds no instance, so an
    instance kept alive keeps only its batch's data alive."""

    def __init__(self, coords: list, voter_points: list):
        self.coords, self.voter_points = coords, voter_points
        self.columns: dict[str, dict[int, np.ndarray]] = {}


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


def _voter_entries(points: dict, voters: tuple, candidates: tuple) -> list:
    """The entries of an instance's voters in points, its map from id to
    coordinates or to matrix row, after the id checks every instance passes:
    at least two candidates, distinct candidate ids, every id known and at
    least one voter."""
    if len(candidates) < 2:
        raise ValueError("an instance needs at least two candidates")
    if len(set(candidates)) != len(candidates):
        raise ValueError("candidate ids must be distinct")
    try:
        entries = list(map(points.__getitem__, voters + candidates))
    except KeyError as exc:
        raise UnknownId(exc.args[0]) from None
    if not voters:
        raise ValueError("an instance needs at least one voter")
    return entries[:len(voters)]


def _check_spread(voter_count: int, spread: float) -> None:
    """No social cost overflows: spread bounds every distance, so
    voter_count * spread bounds every sum."""
    if not math.isfinite(voter_count * spread):
        raise ValueError(f"social costs overflow: {voter_count} voters "
                         f"times the point spread {spread:g}")


def _check_apart(inst: MetricInstance) -> None:
    """No two candidates coincide: the first pair, in candidate order, at
    distance 0 raises DuplicateCandidatePoint."""
    cands = inst.candidates
    for i, j in combinations(range(len(cands)), 2):
        if distance(inst, cands[i], cands[j]) == 0.0:
            raise DuplicateCandidatePoint(f"{cands[i]} and {cands[j]} coincide")


def _check_matrix(ids: tuple[str, ...], rows) -> np.ndarray:
    """Check the metric axioms exactly and report the first violation in scan
    order: row i ascending, its diagonal first, then j ascending, and for one
    entry not-finite before negative before asymmetry; then the triangle
    inequality d(i,j) <= d(i,k) + d(k,j) over (i, k, j) in row-major order.
    Each row is tested against its min-plus product min_k d(i,k) + d(k,j),
    over j >= i alone when d equals its transpose exactly, and only a failing
    row is scanned in full for its first (k, j). numpy compares the same float
    sums a scalar loop would, and messages quote entries as Python floats.
    Returns the rows as a read-only float64 array, converted in one step (an
    integer too big for a float is +-inf), with the entries the tolerance lets
    below 0 set to 0."""
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
        # On an exactly symmetric matrix a break at (i, j) with j < i is also
        # one at (j, i), in the earlier row j, so each row scans only j >= i.
        symmetric = bool((d == d.T).all())
        columns = d.T.copy()  # columns[j, k] = d(k, j), so each min runs along a row
        for i in range(n):
            lo = i if symmetric else 0
            # Rounding is monotone, so d(i,j) > fl(fl(d(i,k) + d(k,j)) + TOL) for
            # some k exactly when d(i,j) > fl(min_k fl(d(i,k) + d(k,j)) + TOL).
            least = (d[i] + columns[lo:]).min(axis=1)
            if (d[i, lo:] > least + TOL).any():
                # broken[k, j]: d(i,j) > (d(i,k) + d(k,j)) + TOL, summed in that order
                broken = d[i] > d[i, :, None] + d + TOL
                rows, (k, j) = d.tolist(), divmod(int(broken.argmax()), n)
                raise MetricViolation(
                    f"triangle inequality fails on ({ids[i]}, {ids[k]}, {ids[j]}): "
                    f"{rows[i][j]} > {rows[i][k]} + {rows[k][j]}"
                )
    d[d < 0.0] = 0.0
    d.flags.writeable = False
    return d


def _coord_instance(space: str, coords: dict, voters, candidates) -> MetricInstance:
    """A line or Euclidean instance from id -> coordinate tuple: a batch of one."""
    return _coord_instances(space, [(coords, voters, candidates)])[0]


def _coord_instances(space: str, items) -> list[MetricInstance]:
    """Line or Euclidean instances from (coords, voters, candidates) items,
    coords mapping ids to coordinate tuples of floats. Each instance is
    checked alone, in item order, so a batch raises what its first failing
    instance raises: one coordinate per point on a line, one dimension, the
    ids (_voter_entries), finite coordinates, no overflowing social cost
    (_check_spread) and no coinciding candidates (_check_apart). The spread
    is the bounding box's diagonal, the diameter on a line and at most
    sqrt(d) times it in R^d. The instances share one _Batch, so a point's
    voter columns are measured for all of them at once; on a line their
    voters' positions are one read-only float array, a view per instance."""
    label = "positions" if space == LINE else "coordinates"
    batch = _Batch([], [])
    out = []
    for b, (coords, voters, candidates) in enumerate(items):
        values = coords.values()
        dims = set(map(len, values))
        if space == LINE and not {1}.issuperset(dims):
            raise ValueError("line positions must be single numbers")
        if len(dims) > 1:
            raise ValueError(f"inconsistent coordinate dimensions: {sorted(dims)}")
        voters, candidates = tuple(voters), tuple(candidates)
        voter_points = _voter_entries(coords, voters, candidates)
        # max and min skip a NaN that is not first, so finiteness is its own pass
        if not all(map(math.isfinite, chain.from_iterable(values))):
            for k, v in coords.items():  # name the first point that is not finite
                _as_coord(list(v), f"{label}[{k!r}]")
        _check_spread(len(voters), math.hypot(*[max(x) - min(x) for x in zip(*values)]))
        batch.coords.append(coords)
        batch.voter_points.append(voter_points)
        out.append(MetricInstance(space, voters, candidates, coords=coords, _batch=(batch, b)))
        _check_apart(out[-1])
    if space == LINE:
        xs = np.fromiter(chain.from_iterable(chain.from_iterable(batch.voter_points)), float)
        xs.flags.writeable = False
        ends = accumulate(map(len, batch.voter_points))
        batch.voter_points = [xs[hi - len(p):hi] for p, hi in zip(batch.voter_points, ends)]
    return out


def line_instance(positions: dict, voters, candidates) -> MetricInstance:
    """Build a 1D instance from id -> position."""
    return _coord_instance(LINE, _coords(positions, "positions"), voters, candidates)


def euclidean_instance(coordinates: dict, voters, candidates) -> MetricInstance:
    """Build an R^d instance from id -> coordinate vector."""
    return _coord_instance(EUCLIDEAN, _coords(coordinates, "coordinates"), voters, candidates)


def matrix_instance(point_ids, rows, voters, candidates) -> MetricInstance:
    """Build an instance over an explicit (validated) distance matrix."""
    ids = tuple(str(p) for p in point_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("matrix point ids must be distinct")
    d = _check_matrix(ids, rows)
    voters, candidates = tuple(voters), tuple(candidates)
    voter_rows = _voter_entries(dict(zip(ids, range(len(ids)))), voters, candidates)
    _check_spread(len(voters), float(d.max(initial=0.0)))
    batch = _Batch([None], [np.array(voter_rows, np.intp)])
    inst = MetricInstance(MATRIX, voters, candidates, point_ids=ids, matrix=d, _batch=(batch, 0))
    _check_apart(inst)
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
        space = {"type": MATRIX, "ids": list(inst.point_ids),
                 "distances": inst.matrix.ravel().tolist()}
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
            return inst.matrix.item(row_of[a], row_of[b])
        except KeyError as exc:
            raise UnknownId(exc.args[0]) from None
    try:
        pa, pb = inst.coords[a], inst.coords[b]
    except KeyError as exc:
        raise UnknownId(exc.args[0]) from None
    return math.dist(pa, pb)


def distance_column(inst: MetricInstance, point: str) -> np.ndarray:
    """d(v, point) for each voter v in voter order, measured for every
    instance of inst's batch that names the point and kept on the batch, as
    read-only arrays: a gather from the matrix, or one array step over the
    voter positions of the batch's instances, |x_v - x| on a line and
    math.dist mapped over the coordinate tuples in R^d, each instance's
    column a view of the result. Each entry is exactly
    distance(inst, v, point)."""
    batch, b = inst._batch
    if inst.space == MATRIX:
        try:
            at = inst.row_of[point]
        except KeyError:
            raise UnknownId(point) from None
        column = inst.matrix[inst.voter_points, at]
        column.flags.writeable = False
        kept = {b: column}
    else:
        if point not in batch.coords[b]:
            raise UnknownId(point)
        owners = [i for i, c in enumerate(batch.coords) if point in c]
        at = [batch.coords[i][point] for i in owners]
        points = [batch.voter_points[i] for i in owners]
        sizes = list(map(len, points))
        if inst.space == LINE:
            column = np.abs(np.concatenate(points) - np.repeat([x for x, in at], sizes))
        else:
            column = np.fromiter(map(math.dist, chain.from_iterable(points),
                                     chain.from_iterable(map(repeat, at, sizes))),
                                 float, sum(sizes))
        column.flags.writeable = False  # before slicing, so that each view is read-only too
        kept = {i: column[hi - n:hi] for i, n, hi in zip(owners, sizes, accumulate(sizes))}
    batch.columns[point] = kept
    return kept[b]


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
    """Scale every distance by a positive, finite factor (an isometry up to
    scale). A product that overflows is refused by the instance checks."""
    if not (factor > 0 and math.isfinite(factor)):
        raise ValueError(f"scale factor must be positive and finite, got {factor}")
    if inst.space == MATRIX:
        with np.errstate(over="ignore"):  # an overflowing entry is rejected as inf
            rows = factor * inst.matrix
        return matrix_instance(inst.point_ids, rows, inst.voters, inst.candidates)
    coords = {k: tuple(factor * x for x in v) for k, v in inst.coords.items()}
    return _coord_instance(inst.space, coords, inst.voters, inst.candidates)
