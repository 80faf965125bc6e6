"""Randomized and adversarial exploration of the rules, plus threshold tuning.

adversarial_search hunts for high-distortion two-candidate instances three
ways: the deterministic hard-instance families aimed at each branch of the
rule's bound, a sweep over the two-voter line placements on a grid that
scores each unordered placement once, a block of _SWEEP_ROWS rows at a time
(its best cell re-decided as a real instance), and seeded random
instances. verify_suite packages the statistical invariants (bounds never
violated, lambda inequalities, feasibility, tradeoffs, generator targets)
behind a machine-readable report.

The checks and the random stage draw and decide a chunk of _CHUNK = 256
instances at a time. _drawn decodes a chunk from default_rng(seed)'s raw
PCG64 words (_decode_instances): a short Python scan (_scan_instances)
reads each instance's voter count from a 32-bit half and skips its
coordinate words, and numpy reads every coordinate. An instance whose count
half is rejected or whose drawn candidates repeat is drawn by
random_instance's own draw (_Draw) on the same words through _Bits. A
chunk (_Chunk) is scored as a distance table (_Table), measured from the
decoded arrays with no MetricInstance per case: one column per sorted
candidate slot, and Z's, over all the chunk's voters. _winners scores a
table with one kernel pass over every candidate pair and one
rules._pair_scores call, the scorer that evaluate's rules.decide_pair
takes too, and winners, costs and margins follow as arrays. A chunk
builds its instances only when it is indexed or iterated, as
adversarial_search does when a drawn case beats the best so far; a list
of instances gets its table from their voter columns, so
adversarial_search decides its anchors and its grid re-check as one
chunk, and each lowerbounds probe is a chunk of one.

check_condition1 decodes its tallies a chunk at a time straight from
default_rng(seed)'s raw PCG64 words (_decode_tallies): one short Python scan
(_scan) lays each tally's words out, numpy reads the cutoffs and counts,
and the chunk goes as one ragged table of arrays to rules._rule4_columns,
which checks and scores it with one array call per scheme length
(rules._rule4_table), building no scheme, tally or Python row per draw; a
chunk is _TALLY_CHUNK = 2,048 tallies, enough for rules.side_scores to sum
each scheme length's long rows in numpy (rules._row_fsums). A
tally whose cutoffs are drawn again or whose count half is rejected goes to
the scalar draw, _draw_tally, which reads the same buffered words through
_Bits, a replay of numpy's integers (Lemire's multiply-shift), random and
uniform (a 53-bit shift) with no Generator call per draw.
"""

from __future__ import annotations

import functools
import math
import time
from itertools import accumulate, combinations

import numpy as np

from .distortion_lab import (_line_ideals, cost_ratio, generate_lower_bound,
                             ideal_tradeoff_bound, lower_bound_target, natural_rule)
from .metric_core import (EUCLIDEAN, LINE, MetricInstance, _bounded, _coord_instance,
                          _coord_instances, _distances, line_instance)
from .rules import (SQRT2, Rule, _pair_scores, _rule4_columns, bound_value, lambda_coefficients,
                    rule4_delta)
from .tallies import ThresholdScheme, _sides, _strengths
# Unused here, but perfbench/tracer.py counts calls through these module attributes.
from .distortion_lab import ideal_point  # noqa: F401
from .metric_core import euclidean_instance, social_cost  # noqa: F401
from .rules import (_condition1_diff, decide_pair, decide_profile,  # noqa: F401
                    rule4_decide, rule4_weights)
from .tallies import exact_profile  # noqa: F401
from .tournament import copeland_winner, majority_graph  # noqa: F401

SUITES = ("bounds", "lambda", "condition1", "tradeoff", "lowerbounds", "all")

_TAU_GRID = (1.0, 2.0, 1.0 + SQRT2, 5.0)

# How far the anchor instances sit from the cutoffs they aim at.
_EPSILON = 1e-6

# random_instance's spaces: name -> (low, high, dim) of the box [low, high)^dim
_RANDOM_SPACES = {"line": (-1.0, 2.0, 1), "euclidean2d": (0.0, 1.0, 2)}
SPACES = tuple(_RANDOM_SPACES)


class _Draw:
    """random_instance's draw of one instance in one space (kind): called
    with a Generator or a _Bits, which give the same integers(low, high)
    and uniform(low, high, size), it makes random_instance's draws in its
    order and returns the instance's voter count n and its flat
    coordinates. n is 1 + integers(0, voters_max), then the voters'
    coordinates and those of the drawn points (points of them, after the
    voters: the candidates beyond two, then the witness Z) are uniform on
    [lo, hi)^dim, and flat lists them in draw order. item() assembles the
    instance's (coords, voters, candidates) from the two, for whoever
    builds it. _decode_instances reads the same from raw words a scan at a
    time."""

    def __init__(self, lo: float, hi: float, dim: int, voters_max: int, num_candidates: int,
                 extra_point: bool):
        self.lo, self.hi, self.dim, self.voters_max = lo, hi, dim, voters_max
        self.kind = LINE if dim == 1 else EUCLIDEAN
        self.multi = num_candidates > 2  # whether the candidates are drawn
        if self.multi:
            self.cands, self._fixed = tuple(f"c{j + 1}" for j in range(num_candidates)), []
        else:
            self.cands, self._fixed = ("P", "Q"), [0.0] * dim + [1.0] + [0.0] * (dim - 1)
        self.extra_point = extra_point
        self.points = num_candidates * self.multi + extra_point
        self._ids = self.cands + (("Z",) if extra_point else ())
        self._names = ()  # v1, v2, ...: as many as the most voters drawn so far

    def item(self, n: int, flat: list):
        """The instance of n voters whose voters' and drawn points'
        coordinates are flat, in draw order; the fixed P and Q go after the
        voters, as their ids do."""
        if n > len(self._names):
            self._names = tuple(f"v{i + 1}" for i in range(n))
        flat[n * self.dim:n * self.dim] = self._fixed
        # zip(*[iter(flat)] * dim): the flat coordinates, dim at a time, as tuples
        coords = dict(zip(self._names[:n] + self._ids, zip(*[iter(flat)] * self.dim)))
        return coords, self._names[:n], self.cands

    def __call__(self, rng):
        lo, hi, dim = self.lo, self.hi, self.dim
        n = int(rng.integers(1, self.voters_max + 1))
        flat = rng.uniform(lo, hi, (n, dim)).ravel().tolist()
        if self.multi:
            taken = []
            for _ in self.cands:
                pt = rng.uniform(lo, hi, dim).tolist()
                while pt in taken:
                    pt = rng.uniform(lo, hi, dim).tolist()
                taken.append(pt)
                flat += pt
        if self.extra_point:
            flat += rng.uniform(lo, hi, dim).tolist()
        return n, flat


def _drawer(space: str, voters_max: int, num_candidates: int = 2, extra_point: bool = False):
    """random_instance's draw in one space, its arguments checked before any
    draw: returns the space kind to build in and the _Draw. A voters_max
    above 2**32 is refused too: a count drawn from 32 bits is what _Bits
    replays."""
    try:
        lo, hi, dim = _RANDOM_SPACES[space]
    except KeyError:
        raise ValueError(f"unknown space kind {space!r}") from None
    if voters_max < 1:
        raise ValueError(f"voters_max must be at least 1, got {voters_max}")
    if voters_max > 2 ** 32:
        raise ValueError(f"voters_max must be at most 2**32, got {voters_max}")
    if num_candidates < 2:
        raise ValueError(f"num_candidates must be at least 2, got {num_candidates}")
    draw = _Draw(lo, hi, dim, voters_max, num_candidates, extra_point)
    return draw.kind, draw


def random_instance(rng: np.random.Generator, space: str = "line", voters_max: int = 8,
                    num_candidates: int = 2, extra_point: bool = False) -> MetricInstance:
    """Seeded random instance: voters uniform on the space's box (see
    _RANDOM_SPACES), two candidates P/Q pinned to the origin and the first unit
    vector, more candidates uniform on the box and redrawn until no two
    coincide. extra_point adds a non-candidate witness Z. A voters_max below
    1 or above 2**32, or a num_candidates below 2, is refused before any
    draw. It is _drawn's draw, built as a batch of one.
    """
    kind, draw = _drawer(space, voters_max, num_candidates, extra_point)
    return _coord_instance(kind, *draw.item(*draw(rng)))


class _Table:
    """A chunk's voter distances, its instances' voters joined in order:
    instance i has sizes[i] voters, and row j of columns, a (k, V) array
    for V voters in all, holds each voter's distance to its instance's j-th
    candidate in sorted id order. A drawn chunk's table also holds z, each
    voter's distance to Z when Z was drawn, and xs, the voters' positions
    when every instance is on the line; else they are None."""

    def __init__(self, sizes: list[int], columns: np.ndarray, z=None, xs=None):
        self.sizes, self.columns, self.z, self.xs = sizes, columns, z, xs

    def sums(self, column: np.ndarray) -> list[float]:
        """math.fsum of each instance's stretch of a column: with one
        tolist(), the social costs that social_cost sums one at a time."""
        values, ends = column.tolist(), list(accumulate(self.sizes, initial=0))
        return [math.fsum(values[a:b]) for a, b in zip(ends, ends[1:])]


def _table(chunk) -> _Table:
    """A chunk's distance table: a _Table is its own, a drawn _Chunk keeps
    one, and a list of instances gets one from their voter columns
    (voter_distances). The instances must have equally many candidates
    (else ValueError)."""
    if isinstance(chunk, _Table):
        return chunk
    if isinstance(chunk, _Chunk):
        return chunk.table
    k = len(chunk[0].candidates) if chunk else 0
    if any(len(inst.candidates) != k for inst in chunk):
        raise ValueError("a chunk's instances must have equally many candidates")
    slots = [sorted(inst.candidates) for inst in chunk]
    sizes = [len(inst.voters) for inst in chunk]
    columns = [np.concatenate([inst.voter_distances(ids[j]) for inst, ids in zip(chunk, slots)])
               for j in range(k)]
    return _Table(sizes, np.array(columns).reshape(k, sum(sizes)))


def _winners(chunk, rules) -> np.ndarray:
    """Each rule's winner on each instance of a chunk, as an index into the
    instance's sorted candidates: an (len(rules), len(chunk)) array. Every
    candidate pair of every instance is scored from the chunk's distance
    table (_table) under all the rules in one kernel pass (tallies._sides,
    pair after pair, each pair over all the instances) and one
    rules._pair_scores call, with no profile kept. A pair goes to its first
    (smaller) id unless the second scores more, and the winner is the first
    candidate in sorted order with the most pairs won: for two candidates
    the pair's winner, beyond two the Copeland winner, as
    copeland_winner(majority_graph(...)) names it."""
    table = _table(chunk)
    k, n = len(table.columns), len(table.sizes)
    if not n:
        return np.zeros((len(rules), 0), dtype=np.intp)
    pairs = np.array(list(combinations(range(k), 2)))
    joined = _sides(table.columns[pairs[:, 0]].ravel(), table.columns[pairs[:, 1]].ravel(),
                    table.sizes * len(pairs))
    first = [np.greater_equal(p, q) for p, q in _pair_scores(*joined, rules)]
    first = np.array(first).reshape(len(rules), len(pairs), n, 1).swapaxes(1, 2)
    ends = np.eye(k, dtype=int)[pairs]  # (pair, end, one-hot id)
    return np.where(first, ends[:, 0], ends[:, 1]).sum(axis=-2).argmax(axis=-1)


def _scored(chunk, rules) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each rule's winners on a chunk, read from its distance table
    (_table), then the social costs of each instance's sorted candidates,
    (len(chunk), k), and each rule's winners, their costs and their
    deltas, (len(rules), len(chunk)) each. An empty chunk gives
    (len(rules), 0) arrays."""
    table = _table(chunk)
    winners, n = _winners(table, rules), len(table.sizes)
    costs = np.array(list(map(table.sums, table.columns))).reshape(len(table.columns), n).T
    won = costs[np.arange(n), winners]
    return costs, winners, won, cost_ratio(won, costs.min(axis=1, initial=math.inf))


def _anchor_instances(rule: Rule) -> list[MetricInstance]:
    """Deterministic hard instances aimed at each ratio term of the rule's bound:
    the top threshold, the first one when it leaves a hidden set, and each
    pair of neighbouring thresholds at least 2*_EPSILON apart."""
    if rule.kind == "rule5":
        return [generate_lower_bound("exact_sqrt2", epsilon=_EPSILON)]
    taus = rule.scheme.taus
    out = [generate_lower_bound("largest", taus[-1:], _EPSILON)]
    if taus[0] > 1.0 + 2.0 * _EPSILON:
        out.append(generate_lower_bound("smallest", taus[:1], _EPSILON))
    for lo, hi in zip(taus, taus[1:]):
        if hi > lo + 2.0 * _EPSILON:
            out.append(generate_lower_bound("pair", (lo, hi), _EPSILON))
    return out


def _signed_weights(rule: Rule, xs: np.ndarray) -> np.ndarray:
    """Per-position decision weight, signed + toward the candidate P at 0."""
    toward_p, s = _strengths(np.abs(xs), np.abs(xs - 1.0))
    w = rule.weight(s)
    return np.where(toward_p, w, -w)


def _grid_positions(rule: Rule, n: int) -> np.ndarray:
    xs = [np.linspace(-1.0, 2.0, n), np.array([0.0, 0.5, 1.0])]
    cuts = set()
    if rule.kind in ("rule1", "rule2", "rule3"):
        cuts.add(rule.tau)
    elif rule.kind == "rule4":
        cuts.update(rule.scheme.taus)
        cuts.add(rule.ds)
    else:
        cuts.add(SQRT2)
    spots = []
    for t in cuts:
        spots += [1.0 / (t + 1.0), t / (t + 1.0)]
        if t > 1.0:
            spots += [t / (t - 1.0), -1.0 / (t - 1.0)]
    offsets = np.array([-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3])
    xs.append((np.array(spots)[:, None] + offsets[None, :]).ravel())
    merged = np.unique(np.concatenate(xs))
    return merged[(merged >= -1.0) & (merged <= 2.0)]


# Grid rows _grid_sweep scores together, against the columns from the
# block's first row on. In-process on 2 cores, medians of 7, a sweep of the
# six rule1/rule2 rules at grid 400 (457 positions) took 0.91-1.00 ms with
# 32 rows, 0.88-1.21 ms with 64, 0.96-1.61 ms with 128, 2.15-2.26 ms with 256
# and 3.41-3.52 ms as one full-matrix block. At grid 2000 the sweep peaked at
# 3.3, 6.5, 12.6, 23.7 and 178 MB (tracemalloc).
_SWEEP_ROWS = 64


def _grid_sweep(rule: Rule, n: int) -> tuple[float, float, float]:
    """Best (x, y, delta) over all two-voter placements on the grid: of equal
    deltas, the first cell in row-major order of the m x m matrix.

    Each unordered placement is scored once. Rows r0:r0+_SWEEP_ROWS are
    scored against columns r0:m, one block at a time, and a block's maximum
    replaces the running best only when strictly greater. That is the full
    matrix's row-major argmax:
    - float + commutes, so delta[i, j] == delta[j, i] exactly;
    - hence the first row-major maximum lies at some i <= j, inside the block
      of row i;
    - every cell of an earlier block precedes it in row-major order, so is
      strictly smaller;
    - within its own block, argmax's row-major order is the global order.
    """
    xs = _grid_positions(rule, n)
    w = _signed_weights(rule, xs)
    d_p = np.abs(xs)
    d_q = np.abs(xs - 1.0)
    best = -math.inf, 0, 0
    for r0 in range(0, len(xs), _SWEEP_ROWS):
        rows = slice(r0, r0 + _SWEEP_ROWS)
        sc_p = d_p[rows, None] + d_p[None, r0:]
        sc_q = d_q[rows, None] + d_q[None, r0:]
        p_wins = (w[rows, None] + w[None, r0:]) >= 0.0
        delta = cost_ratio(np.where(p_wins, sc_p, sc_q), np.minimum(sc_p, sc_q))
        i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
        if delta[i, j] > best[0]:
            best = float(delta[i, j]), r0 + int(i), r0 + int(j)
    delta, i, j = best
    return float(xs[i]), float(xs[j]), delta


def adversarial_search(rule: Rule, *, seed: int = 42, grid: int = 400, n_instances: int = 200,
                       voters_max: int = 8, space: str = "line"):
    """Highest-distortion two-candidate instance found; returns (instance, delta).

    The grid sweep has grid points (below 2 it is skipped), and the random
    stage draws n_instances instances of 1 to voters_max voters in space from
    seed. The grid sweep's winner is rebuilt as a real instance and decided
    in one chunk with the anchors; any disagreement is an error, as is any
    distortion above the proven bound. Of equal distortions the first wins.
    """
    chunk = _anchor_instances(rule)
    if grid >= 2:
        x, y, grid_delta = _grid_sweep(rule, grid)
        chunk.append(line_instance({"P": 0.0, "Q": 1.0, "v1": x, "v2": y},
                                   ("v1", "v2"), ("P", "Q")))
    *_, (deltas,) = _scored(chunk, [rule])
    if grid >= 2 and abs(deltas[-1] - grid_delta) > 1e-9 * max(1.0, grid_delta):
        raise AssertionError(
            f"grid sweep disagrees with the pipeline: {grid_delta} vs {deltas[-1]}")
    i = int(np.argmax(deltas))
    best_inst, best_delta = chunk[i], float(deltas[i])
    for chunk in _drawn(_Bits(seed), n_instances, (space,), voters_max):
        *_, (deltas,) = _scored(chunk, [rule])
        i = int(np.argmax(deltas))
        if deltas[i] > best_delta:
            best_inst, best_delta = chunk[i], float(deltas[i])
    bound = bound_value(rule, 2)
    if best_delta > bound + 1e-9:
        raise AssertionError(f"distortion {best_delta} exceeds the proven bound {bound}")
    return best_inst, best_delta


def optimize_thresholds(m: int) -> tuple[tuple[float, ...], float]:
    """Thresholds minimizing the rule4 bound, by bisection on the target bound.

    For a candidate bound t the thresholds are forced from the top down:
    the last ratio term pins tau_m = 2/(t-1) and each earlier term pins
    tau_l = (2*tau_{l+1} - (t+1))/(tau_{l+1}*(t-1)); the term is decreasing in
    tau_l, so this minimal chain is the most permissive choice. t is feasible
    iff the chain dips to 1 (fewer thresholds already suffice) or ends with
    tau_1 <= t. The optimum lies in (sqrt(2), 2] and falls toward sqrt(2) as
    m grows, so bisection on that interval always converges; it stops once
    the interval is narrower than 1e-11.
    """
    if m < 1:
        raise ValueError("at least one threshold is needed")

    def chain(t: float):
        taus = [2.0 / (t - 1.0)]
        for _ in range(m - 1):
            nxt = (2.0 * taus[-1] - (t + 1.0)) / (taus[-1] * (t - 1.0))
            if nxt <= 1.0:
                return None
            taus.append(nxt)
        return taus

    def feasible(t: float) -> bool:
        taus = chain(t)
        return taus is None or taus[-1] <= t

    lo, hi = SQRT2, 2.0
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    taus = chain(hi)
    if taus is None:
        raise AssertionError("the optimal chain uses every threshold")
    taus = tuple(sorted(taus))
    return taus, rule4_delta(ThresholdScheme(taus))


# ---------------------------------------------------------------------------
# statistical verification suites


_VOTERS_MAX = 20  # most voters in a check's random instance

# Instances drawn, built and decided together (_decode_instances,
# _coord_instances, _winners): enough to spread numpy's per-call cost over
# instances of at most _VOTERS_MAX voters. A chunk's instances, its batch
# columns and its joined strengths stay alive until the chunk is done, so a
# larger chunk costs memory. In-process on 2 cores, medians of 5, bounds,
# lambda and tradeoff at seed 42 took 0.316, 0.105 and 0.130 s with 64;
# 0.277, 0.093 and 0.117 s with 128; 0.271, 0.090 and 0.115 s with 256.
# verify --suite all in-process took 0.74, 0.68 and 0.66 s and peaked at
# 41.1, 40.6 and 41.5 MB RSS.
_CHUNK = 256

# Tallies check_condition1 draws and scores together. In-process
# check_condition1(42) on 2 cores took 0.33-0.49 s with 512, 0.27-0.34 s with
# 1,024, 0.24-0.31 s with 2,048 and 0.21-0.30 s with 4,096; verify --suite all
# peaked at 38.6, 39.1, 40.7 and 43.6 MB RSS.
_TALLY_CHUNK = 2048

# Raw words _Bits reads per bit-generator call: enough to spread the call's
# cost over several hundred tallies (about 7 words each), while the block's
# list of ints stays small.
_BLOCK = 4096


# Most words one scan of _decode_instances lays out: a chunk of _CHUNK
# instances of up to _VOTERS_MAX voters in R^2 with four candidates and Z
# drawn, 51 words each at most, is one scan. An instance that may read more
# than this is drawn by its _Draw alone.
_SCAN_WORDS = 4 * _BLOCK


def _drawn(bits: _Bits, count: int, spaces=SPACES, voters_max: int = _VOTERS_MAX, **kwargs):
    """count random instances, instance i drawn as random_instance draws it
    in spaces[i % len(spaces)] from default_rng(seed)'s stream, which bits
    (a _Bits(seed)) reads; yielded in order as _Chunks of _CHUNK (the last
    one may be shorter), each decoded from bits' raw words
    (_decode_instances)."""
    draws = [_drawer(space, voters_max, **kwargs)[1] for space in spaces]
    for start in range(0, count, _CHUNK):
        run = [draws[i % len(draws)] for i in range(start, min(start + _CHUNK, count))]
        yield _Chunk(run, *_decode_instances(bits, run))


class _Chunk:
    """Drawn instances, instance i drawn by draws[i] with ns[i] voters and
    its flat coordinates (_Draw's) joined in order in flat, scored through
    their distance table (table). The checks _coord_instances makes run
    first, in array form: _bounded's magnitude pass over all the
    coordinates, and no two candidates of an instance at one point
    (_coinciding); the ids and the one dimension hold by construction. A
    chunk that fails them is built, so that its first failing instance
    raises what it raises alone. The table measures one column per sorted
    candidate slot, and Z's, over all the voters with
    metric_core._distances, distance_column's formulas, so each entry
    equals the voter_distances entry exactly. Indexing or iterating the
    chunk gives its MetricInstances: one _coord_instances batch per space,
    built the first time and then kept."""

    def __init__(self, draws: list, ns: list[int], flat: np.ndarray):
        self._draws, self._ns, self._flat, self._instances = draws, ns, flat, None
        first, k = draws[0], len(draws[0].cands)
        sizes = np.array(ns, dtype=np.intp)
        dims = np.array([draw.dim for draw in draws], dtype=np.intp)
        starts = _ends((sizes + first.points) * dims)[:-1]
        if not _bounded(flat) or (first.multi and
                                  _coinciding(flat, starts + sizes * dims, dims, k).any()):
            self._built()
        voter_at = _ends(sizes)[:-1]  # each instance's first voter in the table
        slots = sorted(range(k), key=first.cands.__getitem__) + [k] * first.extra_point
        table = np.empty((len(slots), int(sizes.sum())))
        for dim in np.unique(dims).tolist():
            rows = np.flatnonzero(dims == dim)
            n = sizes[rows]
            voters = flat[_flat(starts[rows], n * dim)]
            drawn = flat[_flat(starts[rows] + n * dim, np.full(len(rows), first.points * dim))]
            fixed = np.reshape(draws[rows[0]]._fixed, (-1, dim))  # P and Q, or none
            # (point, instance, coordinate): the candidates in draw order, then Z
            spots = np.concatenate((np.broadcast_to(fixed, (len(rows), *fixed.shape)),
                                    drawn.reshape(len(rows), first.points, dim)), axis=1)
            spots = spots.swapaxes(0, 1)
            if dim == 1:
                spots = spots[:, :, 0]
            else:
                voters = list(zip(*[iter(voters.tolist())] * dim))
                spots = [list(map(tuple, at)) for at in spots.tolist()]
            at = _flat(voter_at[rows], n)
            for j, slot in enumerate(slots):
                table[j, at] = _distances(draws[rows[0]].kind, voters, spots[slot], n.tolist())
        xs = flat[_flat(starts, sizes)] if (dims == 1).all() else None
        self.table = _Table(ns, table[:k], table[k] if first.extra_point else None, xs)

    def _built(self) -> list[MetricInstance]:
        """The chunk's instances, built on the first call and then kept."""
        if self._instances is None:
            values, draws, ns = self._flat.tolist(), self._draws, self._ns
            ends = list(accumulate(((n + draw.points) * draw.dim for draw, n in zip(draws, ns)),
                                   initial=0))
            items = [draw.item(n, values[a:b]) for draw, n, a, b in zip(draws, ns, ends, ends[1:])]
            self._instances = [None] * len(items)
            for draw in dict.fromkeys(draws):  # each space's instances as one batch
                at = [i for i, other in enumerate(draws) if other is draw]
                for i, inst in zip(at, _coord_instances(draw.kind, [items[i] for i in at])):
                    self._instances[i] = inst
        return self._instances

    def __len__(self) -> int:
        return len(self._ns)

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())


def _coinciding(flat: np.ndarray, firsts: np.ndarray, dims: np.ndarray, k: int) -> np.ndarray:
    """Whether two of the k points laid out from firsts[i] in flat, dims[i]
    coordinates each, are equal in every coordinate, for each i: _Draw's
    pt in taken, and for finite coordinates _check_apart's distance 0."""
    out = np.zeros(len(firsts), dtype=bool)
    upper = np.triu_indices(k, 1)
    for dim in np.unique(dims).tolist():
        rows = np.flatnonzero(dims == dim)
        points = flat[_flat(firsts[rows], np.full(len(rows), k * dim))].reshape(-1, k, 1, dim)
        same = (points == points.swapaxes(1, 2)).all(axis=-1)
        out[rows] = same[:, upper[0], upper[1]].any(axis=-1)
    return out


def _scan_instances(words: list, at: int, half, voters_max: int, points: int, dims: list):
    """Lay out one instance per entry of dims (its dimension) from words[at:],
    as _Draw reads them when no count half is rejected and no drawn
    candidate repeats: the voter count n is 1 + below(voters_max) from a
    32-bit half (none read when voters_max is 1), the low half of a new
    word unless a high half is kept from an earlier word, and then the n
    voters' and the points drawn points' coordinates, a word each. Stops
    before the first instance whose count half is rejected. Returns the
    voter counts and first coordinate words of the instances laid out, the
    (word, kept half) at each one's start and at the rejected one's, and the
    word and kept half after the last."""
    ns, firsts, starts = [], [], []
    reject = (0x100000000 - voters_max) % voters_max
    for dim in dims:
        starts.append((at, half))
        if voters_max > 1:
            if half is None:
                word = words[at]
                at += 1
                u, half = word & 0xFFFFFFFF, word >> 32
            else:
                u, half = half, None
            x = u * voters_max
            if x & 0xFFFFFFFF < reject:
                break
            n = 1 + (x >> 32)
        else:
            n = 1
        ns.append(n)
        firsts.append(at)
        at += (n + points) * dim
    return ns, firsts, starts, at, half


def _decode_instances(bits: _Bits, draws: list) -> tuple[list[int], np.ndarray]:
    """The next len(draws) instances of bits' stream, instance i drawn as
    draws[i] draws it, as their voter counts and their flat coordinates
    (_Draw's) joined in order in one float array; the draws share a
    voters_max and their drawn points. _scan_instances lays out a run of
    instances from the buffered words, and numpy reads each coordinate as
    lo + (hi - lo) * random(), random() being a word's top 53 bits times
    2**-53. The first instance whose count half is rejected or whose drawn
    candidates repeat is drawn by its _Draw on the same words through bits,
    and the decode goes on after it; so is every instance when one may read
    more than _SCAN_WORDS words."""
    first, ns, parts, i = draws[0], [], [], 0
    upper = 1 + (first.voters_max + first.points) * max(draw.dim for draw in draws)
    while i < len(draws):
        run = draws[i:i + _SCAN_WORDS // upper]
        if not run:
            n, flat = draws[i](bits)
            ns.append(n)
            parts.append(flat)
            i += 1
            continue
        bits._fill(len(run) * upper)
        dims = [draw.dim for draw in run]
        counts, firsts, starts, at, half = _scan_instances(bits._words, bits._at, bits._half,
                                                           first.voters_max, first.points, dims)
        n, dims = np.array(counts, dtype=np.intp), np.array(dims[:len(counts)], dtype=np.intp)
        lengths = (n + first.points) * dims
        ends = _ends(lengths)
        lo = np.repeat([draw.lo for draw in run[:len(counts)]], lengths)
        span = np.repeat([draw.hi - draw.lo for draw in run[:len(counts)]], lengths)
        raw = bits._raw[_flat(np.array(firsts, dtype=np.intp), lengths)]
        flat = lo + span * ((raw >> 11) * 2.0 ** -53)
        stop = len(counts)
        # _Draw draws a candidate again at an earlier one's point (pt in taken:
        # equal coordinates, as equal lists are)
        if first.multi:
            again = _coinciding(flat, ends[:-1] + n * dims, dims, len(first.cands))
            stop = int(again.argmax()) if again.any() else stop
        ns += counts[:stop]
        parts.append(flat[:ends[stop]])
        if stop == len(run):
            bits._at, bits._half = at, half
        else:
            bits._at, bits._half = starts[stop]
            n, flat = run[stop](bits)
            ns.append(n)
            parts.append(flat)
            stop += 1
        i += stop
    return ns, np.concatenate(parts)


def _check(worst):
    """Make a check from a generator that yields (margins, failed) arrays
    with one entry per case, a chunk of cases at a time.

    The check returns {name, cases, failures, worst_margin, passed}: worst is
    max or min over the margins, a NaN margin (a case without one) is left
    out of it, and a worst margin that is not finite is reported as None.
    Of equal margins the first case's is kept, as a case-by-case max or min
    would keep it (0.0 and -0.0 compare equal)."""
    first = np.argmax if worst is max else np.argmin

    def wrap(cases):
        name = cases.__name__.removeprefix("check_")

        @functools.wraps(cases)
        def check(*args, **kwargs) -> dict:
            count = failures = 0
            worst_margin = -math.inf if worst is max else math.inf
            for margins, failed in cases(*args, **kwargs):
                count += len(margins)
                failures += int(np.count_nonzero(failed))
                known = margins[~np.isnan(margins)]
                if known.size:
                    worst_margin = worst(worst_margin, float(known[first(known)]))
            return {"name": name, "cases": count, "failures": failures,
                    "worst_margin": worst_margin if math.isfinite(worst_margin) else None,
                    "passed": failures == 0}
        return check
    return wrap


def _two_candidate_rules() -> list[Rule]:
    rules = [Rule("rule1", t) for t in _TAU_GRID]
    rules += [Rule("rule2", t) for t in _TAU_GRID if t > 1.0]
    rules += [Rule("rule3", t) for t in _TAU_GRID]
    rules += [Rule("rule4", scheme=(t,)) for t in _TAU_GRID]
    rules.append(Rule("rule5"))
    return rules


@_check(max)
def check_bounds(seed: int = 42, n_two: int = 10_000, n_multi: int = 2_000):
    """delta never exceeds bound_value, for every rule on every random instance."""
    bits = _Bits(seed)
    rules2 = _two_candidate_rules()
    rules4 = [r for r in rules2 if r.kind != "rule2"]
    for count, num_candidates, rules in ((n_two, 2, rules2), (n_multi, 4, rules4)):
        bounds = np.array([bound_value(r, num_candidates) for r in rules])
        for chunk in _drawn(bits, count, num_candidates=num_candidates):
            *_, deltas = _scored(chunk, rules)
            margins = (deltas.T - bounds).ravel()
            yield margins, margins > 1e-9


@_check(max)
def check_lambda(seed: int = 42, n: int = 5_000):
    """Winners satisfy their lambda-inequality SC(W) <= q*SC(Q) + z*SC(Z) for a
    random witness Z, with (q, z) = lambda_coefficients(rule)."""
    bits = _Bits(seed)
    rules = [Rule("rule1", 2.0), Rule("rule1", 5.0), Rule("rule5"), Rule("rule3", 2.0),
             Rule("rule4", scheme=(2.0,)), Rule("rule4", scheme=(1.5, 3.0))]
    q_coef, z_coef = np.array([lambda_coefficients(rule) for rule in rules]).T[:, :, None]
    for chunk in _drawn(bits, n, extra_point=True):
        costs, winners, won, _ = _scored(chunk, rules)
        lost = costs[np.arange(len(chunk)), 1 - winners]
        z_costs = np.array(chunk.table.sums(chunk.table.z))
        slacks = (won - q_coef * lost - z_coef * z_costs).T.ravel()
        yield slacks, slacks > 1e-9


class _Bits:
    """default_rng(seed)'s stream read from its bit generator's raw 64-bit
    words, replaying the Generator laws _draw_tally and _Draw need without
    a Generator call per draw: below(n) is integers(0, n), double() is
    random(), and integers(low, high) and uniform(low, high, size) are the
    calls _Draw makes. The words wait in one buffer, read a block of _BLOCK
    at a time (_block) and held both as a numpy array, for _decode_tallies
    and _decode_instances, and as Python ints: the unread tail of earlier
    blocks and the blocks read since. The tail of the last block is never
    read."""

    def __init__(self, seed):
        self._bit_generator = np.random.default_rng(seed).bit_generator
        self._raw = np.empty(0, dtype=np.uint64)
        self._words = []
        self._at = 0  # the next unread word
        self._half = None  # a word's unused high 32 bits, as PCG64's has_uint32 keeps them

    def _block(self) -> np.ndarray:
        """The stream's next _BLOCK raw words."""
        return self._bit_generator.random_raw(_BLOCK)

    def _fill(self, need: int) -> None:
        """Drop the words read, then read blocks until at least need words
        wait unread."""
        blocks = []
        while len(self._words) - self._at + _BLOCK * len(blocks) < need:
            blocks.append(self._block())
        if blocks:
            self._raw = np.concatenate([self._raw[self._at:], *blocks])
            self._words = self._words[self._at:] + np.concatenate(blocks).tolist()
            self._at = 0

    def _word(self) -> int:
        if self._at == len(self._words):
            self._fill(1)
        self._at += 1
        return self._words[self._at - 1]

    def below(self, n: int) -> int:
        """integers(0, n) for 2 <= n <= 2**32: Lemire's multiply-shift on
        32-bit halves, low half of a word first, redrawn while the product's
        low 32 bits fall below (2**32 - n) % n. The high half waits for the
        next below() call, double() calls in between included."""
        while True:
            if self._half is None:
                word = self._word()
                u, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                u, self._half = self._half, None
            x = u * n
            if x & 0xFFFFFFFF >= (0x100000000 - n) % n:
                return x >> 32

    def double(self) -> float:
        """random(): a word's top 53 bits times 2**-53."""
        return (self._word() >> 11) * 2.0 ** -53

    def integers(self, low: int, high: int) -> int:
        """integers(low, high) for high - low <= 2**32: low with no draw when
        the range holds one value, else low + below(high - low)."""
        return low if high - low == 1 else low + self.below(high - low)

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """uniform(low, high, size): low + (high - low) * random() for each
        entry, in C order, a word each."""
        count = int(np.prod(size))
        self._fill(count)
        self._at += count
        raw = self._raw[self._at - count:self._at]
        return low + (high - low) * ((raw >> 11) * 2.0 ** -53).reshape(size)


def _draw_tally(bits: _Bits) -> tuple[ThresholdScheme, list[int]]:
    """A random rule4 scheme of 1 to 4 cutoffs, tau_1 = 1 about a quarter of
    the time, and counts from 0 to 50 under it: m for pair[0]'s side, m for
    pair[1]'s, then the hidden set's when tau_1 > 1. The draws are those of
    integers(1, 5), uniform(1.0, 6.0, m), random() and integers(0, 51, k)
    on default_rng, in that order, read from the same stream by bits. It is
    the scalar path, which _decode_tallies takes only for a tally whose
    cutoffs are drawn again or whose count half is rejected."""
    m = 1 + bits.below(4)
    while True:
        # round(x * 1e6) / 1e6 is np.round(x, 6): scale, round half to even, divide;
        # uniform(1.0, 6.0) is 1.0 + 5.0 * random()
        taus = sorted({round((1.0 + 5.0 * bits.double()) * 1e6) / 1e6 for _ in range(m)})
        if len(taus) == m and taus[0] > 1.0:
            break
    if bits.double() < 0.25:
        taus[0] = 1.0
    scheme = ThresholdScheme(tuple(taus))
    hidden = scheme.taus[0] > 1.0  # whether the set C can hold voters
    return scheme, [bits.below(51) for _ in range(2 * m + hidden)]


# The most words a tally reads when it draws its cutoffs once: for m = 4,
# m's word (or a kept half), 4 cutoffs, the coin and 9 count halves.
_TALLY_WORDS = 10

# random() < 0.25 exactly when a word's top two bits are 0
_QUARTER = 1 << 62


def _scan(words: list, at: int, half, count: int):
    """Lay out count tallies from words[at:], as _draw_tally reads them when
    no cutoff is drawn again and no count half is rejected: m is below(4),
    which never rejects, so m - 1 is a 32-bit half's top two bits; then m
    cutoff words, the coin word (tau_1 = 1 when its top two bits are 0),
    then 2m + (tau_1 > 1) count halves. The first count half is the high
    half kept from m's word, unless m was read from a half kept before.
    Returns each tally's m, its first cutoff word and whether m was read
    from a kept half, then the index and kept half after the last tally."""
    ms, firsts, kept = [], [], []
    for _ in range(count):
        kept.append(half is not None)
        if half is None:
            m = (words[at] >> 30 & 3) + 1
            at += 1
            halves = 2 * m - 1  # from new words: the word's high half is the first
        else:
            m = (half >> 30) + 1
            halves = 2 * m
        ms.append(m)
        firsts.append(at)
        at += m
        halves += words[at] >= _QUARTER
        at += 1 + (halves + 1) // 2
        half = words[at - 1] >> 32 if halves % 2 else None
    return ms, firsts, kept, at, half


def _ends(lengths: np.ndarray) -> np.ndarray:
    """Where each of a ragged table's rows ends in its flat array, after a
    leading 0: row i spans [ends[i], ends[i + 1])."""
    return np.concatenate(([0], np.cumsum(lengths)))


def _flat(firsts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """lengths[i] consecutive indices from each firsts[i], row after row."""
    ends = _ends(lengths)
    return np.arange(ends[-1]) + np.repeat(firsts - ends[:-1], lengths)


def _decode_tallies(bits: _Bits, count: int):
    """The next count tallies of _draw_tally's stream, as _rule4_columns'
    ragged table (m, cutoffs, count lengths, counts) of numpy arrays. _scan
    lays the tallies out from the buffered words; numpy then reads the
    cutoffs (sorted per row, tau_1 set to 1 by the coin) and the counts
    ((u * 51) >> 32 of each 32-bit half u). A tally that _draw_tally would
    read otherwise ends the decode: two cutoffs that round equal, a least
    cutoff that rounds to 1 (both drawn again), or a count half of 0
    (below(51)'s one rejection). bits is put at that tally's first word and
    kept half, _draw_tally draws it, and the decode goes on after it. The
    buffer holds fewer than _TALLY_WORDS * count + _BLOCK words."""
    parts = []
    while count:
        bits._fill(_TALLY_WORDS * count)
        ms, firsts, kept, at, half = _scan(bits._words, bits._at, bits._half, count)
        m, c, kept, raw = np.array(ms), np.array(firsts), np.array(kept), bits._raw
        hidden = raw[c + m] >= _QUARTER
        k = 2 * m + hidden
        count_ends, cut_ends = _ends(k), _ends(m)
        after = 2 * (c + m + 1)  # the half index of the low half after the coin
        h = _flat(np.where(kept, after, after - 1), k)
        h[count_ends[:-1]] = np.where(kept, after, 2 * c - 1)
        w = raw[h >> 1]
        u = np.where(h & 1, w >> 32, w & 0xFFFFFFFF)
        taus = np.rint((1.0 + 5.0 * ((raw[_flat(c, m)] >> 11) * 2.0 ** -53)) * 1e6) / 1e6
        rows = np.arange(count)
        by_row = np.repeat(rows, m)
        taus = taus[np.lexsort((taus, by_row))]
        stopped = taus[cut_ends[:-1]] <= 1.0
        stopped[by_row[1:][(taus[1:] == taus[:-1]) & (by_row[1:] == by_row[:-1])]] = True
        stopped[np.repeat(rows, k)[u == 0]] = True
        taus[cut_ends[:-1][~hidden]] = 1.0
        stop = int(stopped.argmax()) if stopped.any() else count
        parts.append((m[:stop], taus[:cut_ends[stop]], k[:stop],
                      ((u[:count_ends[stop]] * 51) >> 32).astype(np.intp)))
        if stop == count:
            bits._at, bits._half = at, half
            break
        if stop:
            bits._at = int(c[stop]) - (not kept[stop])
            bits._half = bits._words[bits._at - 1] >> 32 if kept[stop] else None
        scheme, counts = _draw_tally(bits)
        parts.append(([scheme.m], scheme.taus, [len(counts)], counts))
        count -= stop + 1
    return tuple(np.concatenate(column) for column in zip(*parts))


@_check(min)
def check_condition1(seed: int = 42, n: int = 100_000):
    """Some side of every tally is feasible, and rule4 always picks a feasible side."""
    bits = _Bits(seed)
    for start in range(0, n, _TALLY_CHUNK):
        p, q, slack_p, slack_q = _rule4_columns(*_decode_tallies(bits, min(_TALLY_CHUNK,
                                                                           n - start)))
        winner_slack = np.where(p >= q, slack_p, slack_q)  # a tie goes to P
        best_slack = np.where(slack_q > slack_p, slack_q, slack_p)
        yield best_slack, (best_slack < -1e-9) | (winner_slack < -1e-9)


@_check(max)
def check_tradeoff(seed: int = 42, n_two: int = 5_000, n_multi: int = 1_000):
    """rho stays under the tradeoff curve implied by the measured delta."""
    bits = _Bits(seed)
    rules = [Rule("rule1", 2.0), Rule("rule5")]
    skip_low = np.array([rule.kind == "rule1" for rule in rules])[:, None]
    for count, num_candidates in ((n_two, 2), (n_multi, 4)):
        for chunk in _drawn(bits, count, ("line",), num_candidates=num_candidates):
            _, _, won, deltas = _scored(chunk, rules)
            rhos = cost_ratio(won, np.array(_line_ideals(chunk.table.xs, chunk.table.sizes)[1]))
            limits = np.array([[ideal_tradeoff_bound(rule, delta, num_candidates)
                                for delta in row] for rule, row in zip(rules, deltas.tolist())])
            finite = np.isfinite(limits) & np.isfinite(rhos)
            margins = np.subtract(rhos, limits, out=np.full_like(rhos, np.nan), where=finite)
            kept = (~skip_low | (deltas > 1.01)).T  # rule1 counts only delta > 1.01
            yield margins.T[kept], (rhos > limits + 1e-6).T[kept]


@_check(max)
def check_lowerbounds():
    """Each generator, built at _EPSILON (the anchors' epsilon), lands within
    1e-5 of its target and hands the win to P."""
    grid = (1.5, 2.0, 1.0 + SQRT2, 4.0)
    probes = [("exact_sqrt2", ())]
    for t in grid:
        probes += [("smallest", (t,)), ("largest", (t,))]
    probes += [("pair", pair) for pair in combinations(grid, 2)]
    errs, failed = [], []
    for kind, taus in probes:
        inst = generate_lower_bound(kind, taus, _EPSILON)
        _, winners, _, deltas = _scored([inst], [natural_rule(kind, taus)])
        errs.append(abs(deltas.item() - lower_bound_target(kind, taus)))
        failed.append(winners.item() != 0 or errs[-1] > 1e-5)  # P sorts first
    yield np.array(errs), np.array(failed)


def verify_suite(suite: str, seed: int = 42, on_check=None) -> dict:
    """Run one named suite (or all) and report per-check statistics.
    on_check, if given, is called after each check with its result and its
    wall time in seconds."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    runners = {
        "lowerbounds": lambda: check_lowerbounds(),
        "bounds": lambda: check_bounds(seed),
        "lambda": lambda: check_lambda(seed),
        "condition1": lambda: check_condition1(seed),
        "tradeoff": lambda: check_tradeoff(seed),
    }
    names = list(runners) if suite == "all" else [suite]
    checks = []
    for name in names:
        start = time.perf_counter()
        checks.append(runners[name]())
        if on_check is not None:
            on_check(checks[-1], time.perf_counter() - start)
    return {"suite": suite, "seed": seed, "checks": checks,
            "passed": all(c["passed"] for c in checks)}
