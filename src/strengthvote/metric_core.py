"""Voters and candidates as named points in a metric space.

An instance pins every participant to a point and answers distance queries.
Three space kinds: the real line, Euclidean R^d, and an explicit distance
matrix over named points. Matrix instances may carry extra named points that
are neither voters nor candidates (useful as witness points).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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
    and ``matrix`` holds row-major distances.
    """

    space: str
    voters: tuple[str, ...]
    candidates: tuple[str, ...]
    coords: dict[str, tuple[float, ...]] | None = None
    point_ids: tuple[str, ...] | None = None
    matrix: tuple[tuple[float, ...], ...] | None = None

    def named_points(self) -> tuple[str, ...]:
        if self.space == MATRIX:
            return self.point_ids
        return tuple(sorted(self.coords))


def _as_coord(value, field: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        coord = (float(value),)
    elif isinstance(value, (list, tuple)) and value and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
    ):
        coord = tuple(float(x) for x in value)
    else:
        raise ValueError(f"{field}: expected a number or a list of numbers, got {value!r}")
    if not all(math.isfinite(x) for x in coord):
        raise ValueError(f"{field}: coordinates must be finite, got {value!r}")
    return coord


def _check_membership(inst: MetricInstance) -> None:
    known = set(inst.named_points())
    if len(inst.candidates) < 2:
        raise ValueError("an instance needs at least two candidates")
    if len(set(inst.candidates)) != len(inst.candidates):
        raise ValueError("candidate ids must be distinct")
    for cid in list(inst.voters) + list(inst.candidates):
        if cid not in known:
            raise UnknownId(cid)
    if not inst.voters:
        raise ValueError("an instance needs at least one voter")


def _check_candidate_points(inst: MetricInstance) -> None:
    cands = inst.candidates
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            if distance(inst, cands[i], cands[j]) == 0.0:
                raise DuplicateCandidatePoint(f"{cands[i]} and {cands[j]} coincide")


def _check_matrix(ids: tuple[str, ...], rows: tuple[tuple[float, ...], ...]) -> None:
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


def line_instance(positions: dict, voters, candidates) -> MetricInstance:
    """Build a 1D instance from id -> position."""
    coords = {str(k): _as_coord(v, f"positions[{k!r}]") for k, v in positions.items()}
    if any(len(c) != 1 for c in coords.values()):
        raise ValueError("line positions must be single numbers")
    inst = MetricInstance(LINE, tuple(voters), tuple(candidates), coords=coords)
    _check_membership(inst)
    _check_candidate_points(inst)
    return inst


def euclidean_instance(coordinates: dict, voters, candidates) -> MetricInstance:
    """Build an R^d instance from id -> coordinate vector."""
    coords = {str(k): _as_coord(v, f"coordinates[{k!r}]") for k, v in coordinates.items()}
    dims = {len(c) for c in coords.values()}
    if len(dims) != 1:
        raise ValueError(f"inconsistent coordinate dimensions: {sorted(dims)}")
    inst = MetricInstance(EUCLIDEAN, tuple(voters), tuple(candidates), coords=coords)
    _check_membership(inst)
    _check_candidate_points(inst)
    return inst


def matrix_instance(point_ids, rows, voters, candidates) -> MetricInstance:
    """Build an instance over an explicit (validated) distance matrix."""
    ids = tuple(str(p) for p in point_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("matrix point ids must be distinct")
    mat = tuple(tuple(float(x) for x in r) for r in rows)
    _check_matrix(ids, mat)
    inst = MetricInstance(MATRIX, tuple(voters), tuple(candidates),
                          point_ids=ids, matrix=mat)
    _check_membership(inst)
    _check_candidate_points(inst)
    return inst


def build_instance(doc: dict) -> MetricInstance:
    """Build an instance from the JSON document format (see load_instance)."""
    try:
        space = doc["space"]
        kind = space["type"]
        voters = doc["voters"]
        candidates = doc["candidates"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"instance document is missing field {exc}") from exc
    if kind == LINE:
        return line_instance(space["positions"], voters, candidates)
    if kind == EUCLIDEAN:
        return euclidean_instance(space["positions"], voters, candidates)
    if kind == MATRIX:
        ids = space["ids"]
        flat = space["distances"]
        if flat and isinstance(flat[0], list):
            rows = flat
        else:
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
    return build_instance(doc)


def save_instance(inst: MetricInstance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_doc(inst), fh, indent=2)
        fh.write("\n")


def distance(inst: MetricInstance, a: str, b: str) -> float:
    if inst.space == MATRIX:
        try:
            ia = inst.point_ids.index(a)
            ib = inst.point_ids.index(b)
        except ValueError:
            raise UnknownId(a if a not in inst.point_ids else b) from None
        return inst.matrix[ia][ib]
    try:
        pa, pb = inst.coords[a], inst.coords[b]
    except KeyError as exc:
        raise UnknownId(exc.args[0]) from None
    if inst.space == LINE:
        return abs(pa[0] - pb[0])
    return math.dist(pa, pb)


def social_cost(inst: MetricInstance, point: str) -> float:
    """Total distance from all voters to the named point."""
    return math.fsum(distance(inst, v, point) for v in inst.voters)


def preference_strength(inst: MetricInstance, voter: str, p: str, q: str):
    """Return (preferred, strength) for the ordered candidate pair (p, q).

    Strength is d(voter, worse)/d(voter, preferred) >= 1. Equidistant voters
    count as preferring the lexicographically smaller candidate with strength
    exactly 1; a voter sitting on the preferred candidate has strength +inf.
    """
    if p == q:
        raise SameCandidate(p)
    dp = distance(inst, voter, p)
    dq = distance(inst, voter, q)
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
    if inst.space == LINE:
        return line_instance({k: v[0] for k, v in coords.items()}, inst.voters, inst.candidates)
    return euclidean_instance(coords, inst.voters, inst.candidates)
