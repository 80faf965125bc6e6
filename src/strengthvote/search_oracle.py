"""Randomized and adversarial exploration of the rules, plus threshold tuning.

adversarial_search hunts for high-distortion two-candidate instances three
ways: the deterministic hard-instance families aimed at each branch of the
rule's bound, a vectorized sweep over all two-voter line placements on a
grid (its best cell re-decided as a real instance), and seeded random
instances. verify_suite packages the statistical invariants (bounds never
violated, lambda inequalities, feasibility, tradeoffs, generator targets)
behind a machine-readable report.

The checks and the random stage draw and decide a chunk of instances at a
time. _drawn makes a chunk's Generator calls in random_instance's order,
then builds each space's instances of the chunk as one batch
(metric_core._coord_instances), which checks each instance alone and
measures each point's voter column once for the chunk. _winners scores a
chunk straight from those columns through rules._instance_scores (one
kernel pass over every candidate pair, then each rule's side scores: the
path that evaluate's rules.decide_pair takes too), and winners, costs and
margins follow as arrays, with no profile object per pair. adversarial_search
decides its anchors and its grid re-check as one chunk, and each
lowerbounds probe is a chunk of one.

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
_Bits, a replay of numpy's integers (Lemire's multiply-shift) and random
(a 53-bit shift) with no Generator call per tally.
"""

from __future__ import annotations

import functools
import math
import time
from itertools import combinations

import numpy as np

from .distortion_lab import (cost_ratio, generate_lower_bound, ideal_point,
                             ideal_tradeoff_bound, lower_bound_target, natural_rule)
from .metric_core import (EUCLIDEAN, LINE, MetricInstance, _coord_instance, _coord_instances,
                          line_instance, social_cost)
from .rules import (SQRT2, Rule, _instance_scores, _rule4_columns, bound_value,
                    lambda_coefficients, rule4_delta)
from .tallies import ThresholdScheme, _strengths
# Unused here, but perfbench/tracer.py counts calls through these module attributes.
from .metric_core import euclidean_instance  # noqa: F401
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


def _drawer(space: str, voters_max: int, num_candidates: int = 2, extra_point: bool = False):
    """random_instance's draw in one space, its arguments checked before any
    draw: returns the space kind to build in and a function of a Generator
    that draws one instance's (coords, voters, candidates), making
    random_instance's Generator calls in its order."""
    try:
        lo, hi, dim = _RANDOM_SPACES[space]
    except KeyError:
        raise ValueError(f"unknown space kind {space!r}") from None
    if voters_max < 1:
        raise ValueError(f"voters_max must be at least 1, got {voters_max}")
    if num_candidates < 2:
        raise ValueError(f"num_candidates must be at least 2, got {num_candidates}")
    if num_candidates == 2:
        cands, fixed = ("P", "Q"), [0.0] * dim + [1.0] + [0.0] * (dim - 1)
    else:
        cands, fixed = tuple(f"c{j + 1}" for j in range(num_candidates)), []
    ids = cands + (("Z",) if extra_point else ())
    names = ()  # v1, v2, ...: as many as the most voters drawn so far

    def draw(rng: np.random.Generator):
        nonlocal names
        n = int(rng.integers(1, voters_max + 1))
        if n > len(names):
            names = tuple(f"v{i + 1}" for i in range(n))
        flat = rng.uniform(lo, hi, (n, dim)).ravel().tolist() + fixed
        if num_candidates > 2:
            taken = []
            for _ in cands:
                pt = rng.uniform(lo, hi, dim).tolist()
                while pt in taken:
                    pt = rng.uniform(lo, hi, dim).tolist()
                taken.append(pt)
                flat += pt
        if extra_point:
            flat += rng.uniform(lo, hi, dim).tolist()
        # zip(*[iter(flat)] * dim): the flat coordinates, dim at a time, as tuples
        return dict(zip(names[:n] + ids, zip(*[iter(flat)] * dim))), names[:n], cands
    return (LINE if dim == 1 else EUCLIDEAN), draw


def random_instance(rng: np.random.Generator, space: str = "line", voters_max: int = 8,
                    num_candidates: int = 2, extra_point: bool = False) -> MetricInstance:
    """Seeded random instance: voters uniform on the space's box (see
    _RANDOM_SPACES), two candidates P/Q pinned to the origin and the first unit
    vector, more candidates uniform on the box and redrawn until no two
    coincide. extra_point adds a non-candidate witness Z. A voters_max below
    1 or a num_candidates below 2 is refused before any draw. It is _drawn's
    draw, built as a batch of one.
    """
    kind, draw = _drawer(space, voters_max, num_candidates, extra_point)
    return _coord_instance(kind, *draw(rng))


def _winners(chunk, rules) -> np.ndarray:
    """Each rule's winner on each instance of a chunk, as an index into the
    instance's sorted candidates: an (len(rules), len(chunk)) array. The
    instances must have equally many candidates (else ValueError). Every
    candidate pair is scored under all the rules by rules._instance_scores
    in one kernel pass from the voter columns, with no profile kept. A pair
    goes to its first (smaller) id unless the second scores more, and the
    winner is the first candidate in sorted order with the most pairs won:
    for two candidates the pair's winner, beyond two the Copeland winner, as
    copeland_winner(majority_graph(...)) names it."""
    if not chunk:
        return np.zeros((len(rules), 0), dtype=np.intp)
    k = len(chunk[0].candidates)
    if any(len(inst.candidates) != k for inst in chunk):
        raise ValueError("a chunk's instances must have equally many candidates")
    pairs = list(combinations(range(k), 2))
    first = [np.greater_equal(p, q) for p, q in _instance_scores(chunk, rules)]
    first = np.array(first).reshape(len(rules), len(chunk), len(pairs), 1)
    ends = np.eye(k, dtype=int)[np.array(pairs)]  # (pair, end, one-hot id)
    return np.where(first, ends[:, 0], ends[:, 1]).sum(axis=-2).argmax(axis=-1)


def _scored(chunk, rules) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each rule's winners (_winners) on a chunk, then the social costs of
    each instance's sorted candidates, (len(chunk), k), and each rule's
    winners, their costs and their deltas, (len(rules), len(chunk)) each. An
    empty chunk gives (len(rules), 0) arrays."""
    winners = _winners(chunk, rules)
    costs = np.array([[social_cost(inst, c) for c in sorted(inst.candidates)]
                      for inst in chunk]).reshape(len(chunk), -1 if chunk else 0)
    won = costs[np.arange(len(chunk)), winners]
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


def _grid_sweep(rule: Rule, n: int) -> tuple[float, float, float]:
    """Best (x, y, delta) over all two-voter placements on the grid."""
    xs = _grid_positions(rule, n)
    w = _signed_weights(rule, xs)
    d_p = np.abs(xs)
    d_q = np.abs(xs - 1.0)
    sc_p = d_p[:, None] + d_p[None, :]
    sc_q = d_q[:, None] + d_q[None, :]
    p_wins = (w[:, None] + w[None, :]) >= 0.0
    delta = cost_ratio(np.where(p_wins, sc_p, sc_q), np.minimum(sc_p, sc_q))
    i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
    return float(xs[i]), float(xs[j]), float(delta[i, j])


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
    rng = np.random.default_rng(seed)
    for chunk in _drawn(rng, n_instances, (space,), voters_max):
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

# Instances decided together (_winners): enough to spread numpy's per-call
# cost over instances of at most _VOTERS_MAX voters. A chunk's instances, its
# batch columns and its joined strengths stay alive until the chunk is done,
# so a larger chunk costs memory: check_bounds, check_lambda and
# check_tradeoff run in one process peak at about 37 MB RSS with 64 and
# 39.6 MB with 256.
_CHUNK = 64

# Tallies check_condition1 draws and scores together. In-process
# check_condition1(42) on 2 cores took 0.33-0.49 s with 512, 0.27-0.34 s with
# 1,024, 0.24-0.31 s with 2,048 and 0.21-0.30 s with 4,096; verify --suite all
# peaked at 38.6, 39.1, 40.7 and 43.6 MB RSS.
_TALLY_CHUNK = 2048

# Raw words _Bits reads per bit-generator call: enough to spread the call's
# cost over several hundred tallies (about 7 words each), while the block's
# list of ints stays small.
_BLOCK = 4096


def _drawn(rng: np.random.Generator, count: int, spaces=SPACES,
           voters_max: int = _VOTERS_MAX, **kwargs):
    """count random instances, instance i drawn as random_instance draws it
    in spaces[i % len(spaces)], yielded in order as lists of _CHUNK (the last
    one may be shorter). A chunk's draws come first, in order, from rng; then
    each space's instances of the chunk are built as one batch
    (metric_core._coord_instances)."""
    drawers = [_drawer(space, voters_max, **kwargs) for space in spaces]
    for start in range(0, count, _CHUNK):
        drawn = [drawers[i % len(drawers)][1](rng)
                 for i in range(start, min(start + _CHUNK, count))]
        chunk = [None] * len(drawn)
        for s, (kind, _) in enumerate(drawers):
            at = slice((s - start) % len(drawers), None, len(drawers))
            chunk[at] = _coord_instances(kind, drawn[at])
        yield chunk


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
    rng = np.random.default_rng(seed)
    rules2 = _two_candidate_rules()
    rules4 = [r for r in rules2 if r.kind != "rule2"]
    for count, num_candidates, rules in ((n_two, 2, rules2), (n_multi, 4, rules4)):
        bounds = np.array([bound_value(r, num_candidates) for r in rules])
        for chunk in _drawn(rng, count, num_candidates=num_candidates):
            *_, deltas = _scored(chunk, rules)
            margins = (deltas.T - bounds).ravel()
            yield margins, margins > 1e-9


@_check(max)
def check_lambda(seed: int = 42, n: int = 5_000):
    """Winners satisfy their lambda-inequality SC(W) <= q*SC(Q) + z*SC(Z) for a
    random witness Z, with (q, z) = lambda_coefficients(rule)."""
    rng = np.random.default_rng(seed)
    rules = [Rule("rule1", 2.0), Rule("rule1", 5.0), Rule("rule5"), Rule("rule3", 2.0),
             Rule("rule4", scheme=(2.0,)), Rule("rule4", scheme=(1.5, 3.0))]
    q_coef, z_coef = np.array([lambda_coefficients(rule) for rule in rules]).T[:, :, None]
    for chunk in _drawn(rng, n, extra_point=True):
        costs, winners, won, _ = _scored(chunk, rules)
        lost = costs[np.arange(len(chunk)), 1 - winners]
        z_costs = np.array([social_cost(inst, "Z") for inst in chunk])
        slacks = (won - q_coef * lost - z_coef * z_costs).T.ravel()
        yield slacks, slacks > 1e-9


class _Bits:
    """default_rng(seed)'s stream read from its bit generator's raw 64-bit
    words, replaying the two Generator laws _draw_tally needs without a
    Generator call per draw: below(n) is integers(0, n) and double() is
    random(). The words wait in one buffer, read a block of _BLOCK at a
    time (_block) and held both as a numpy array, for _decode_tallies, and
    as Python ints: the unread tail of earlier blocks and the blocks read
    since. The tail of the last block is never read."""

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
    rng = np.random.default_rng(seed)
    rules = [Rule("rule1", 2.0), Rule("rule5")]
    skip_low = np.array([rule.kind == "rule1" for rule in rules])[:, None]
    for count, num_candidates in ((n_two, 2), (n_multi, 4)):
        for chunk in _drawn(rng, count, ("line",), num_candidates=num_candidates):
            _, _, won, deltas = _scored(chunk, rules)
            rhos = cost_ratio(won, np.array([ideal_point(inst).cost for inst in chunk]))
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
