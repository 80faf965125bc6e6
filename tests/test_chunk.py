"""Seeded differential test of the checks' chunk path against the per-case path.

The chunk path (search_oracle._winners, rules.side_scores and
rules.rule4_row_columns) decides whole chunks of instances or tallies in
numpy; the per-case path decides one pair at a time through decide_pair,
majority_graph and copeland_winner, and the references below sum each
tally's scores with a scalar math.fsum. Scores are compared by float.hex.
"""

import math
import operator
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from strengthvote import metric_core, rules, search_oracle
from strengthvote.metric_core import build_instance, instance_to_doc, line_instance
from strengthvote.rules import (InvalidThreshold, Rule, _condition1_diff, decide_pair,
                                decide_tally, ratio_terms, rule4_delta, rule4_row_columns,
                                rule4_weights, side_scores)
from strengthvote.search_oracle import (_Bits, _draw_tally, _drawn, _scored,
                                        _two_candidate_rules, _winners, check_condition1)
from strengthvote.tallies import PairwiseTally, ThresholdScheme
from strengthvote.tournament import copeland_winner, majority_graph

from test_kernel import SCHEMES

RULES = _two_candidate_rules()


def _winner(inst, rule):
    """The rule's winner on one instance: _winners on a chunk of one."""
    return sorted(inst.candidates)[_winners([inst], [rule])[0, 0]]


def _random_tally(rng):
    """_draw_tally's draw as a tally of the pair (P, Q)."""
    scheme, counts = _draw_tally(rng)
    m = scheme.m
    return PairwiseTally(("P", "Q"), scheme, tuple(counts[:m]), tuple(counts[m:2 * m]),
                         counts[2 * m] if len(counts) > 2 * m else 0)


def _row(tally):
    """A tally's count row as rule4_row_columns reads it: a's counts, b's,
    then C's only when tau_1 > 1."""
    hidden = (tally.c_count,) if tally.scheme.taus[0] > 1.0 else ()
    return tally.a_counts + tally.b_counts + hidden


def _table_rows(table):
    """A ragged table's rows (search_oracle._decode_tallies, the table
    rules._rule4_columns reads) as (scheme, count row) pairs, each count row
    a list of ints."""
    m, cuts, lengths, counts = map(np.asarray, table)
    cut_ends, count_ends = np.cumsum(m).tolist(), np.cumsum(lengths).tolist()
    return [(ThresholdScheme(tuple(cuts[ce - k:ce].tolist())), counts[ne - n:ne].tolist())
            for k, ce, n, ne in zip(m.tolist(), cut_ends, lengths.tolist(), count_ends)]


def _rows_table(rows):
    """(scheme, count row) pairs as a ragged table: _table_rows' inverse."""
    schemes, counts = zip(*rows)
    return ([s.m for s in schemes], [t for s in schemes for t in s.taus],
            list(map(len, counts)), [x for row in counts for x in row])


def _reference_winner(inst, rule):
    """The per-case winner: decide_pair on the sorted pair for two
    candidates, else copeland_winner of majority_graph."""
    if len(inst.candidates) == 2:
        return decide_pair(inst, *sorted(inst.candidates), rule).winner
    return copeland_winner(majority_graph(inst, rule))


def _assert_chunk_matches(chunk, fresh):
    """_winners on the chunk names, for every rule, the winner the per-case
    path names on a separately built copy of each instance."""
    winners = _winners(chunk, RULES)
    assert winners.shape == (len(RULES), len(chunk))
    for r, rule in enumerate(RULES):
        for i, (inst, again) in enumerate(zip(chunk, fresh)):
            assert sorted(inst.candidates)[winners[r, i]] == _reference_winner(again, rule), \
                (rule.label(), i)


@pytest.mark.parametrize("space", ["line", "euclidean2d"])
@pytest.mark.parametrize("num_candidates", [2, 4])
def test_chunk_winners_match_the_per_case_path(space, num_candidates):
    def chunks():
        return _drawn(np.random.default_rng(11), 128, (space,), 12,
                      num_candidates=num_candidates)
    for chunk, fresh in zip(chunks(), chunks()):
        _assert_chunk_matches(chunk, fresh)


def _tie_chunk(seed, num_candidates, count=64):
    """Line instances on integer and half-integer spots in [-3, 6], so that
    many voters are equidistant from a pair or have a strength exactly at a
    cutoff, and side scores tie."""
    rng = random.Random(seed)
    spots = [k / 2 for k in range(-6, 13)]
    out = []
    for _ in range(count):
        cands = tuple(f"c{j}" for j in range(num_candidates))
        pos = dict(zip(cands, rng.sample(spots, num_candidates)))
        voters = tuple(f"v{i}" for i in range(rng.randint(1, 8)))
        pos.update((v, rng.choice(spots)) for v in voters)
        out.append((pos, voters, cands))
    return out


@pytest.mark.parametrize("num_candidates", [2, 4])
def test_chunk_winners_match_on_tie_heavy_instances(num_candidates):
    specs = _tie_chunk(3, num_candidates)
    chunk = [line_instance(*spec) for spec in specs]
    fresh = [line_instance(*spec) for spec in specs]
    _assert_chunk_matches(chunk, fresh)
    tied_pair = tied_degree = False
    for inst in fresh:
        for rule in RULES:
            graph = majority_graph(inst, rule)
            tied_pair |= any(dec.tie for dec in graph.decisions.values())
            degrees = sorted((len(graph.dominated(c)) for c in inst.candidates), reverse=True)
            tied_degree |= degrees[0] == degrees[1]
    assert tied_pair
    assert tied_degree == (num_candidates > 2)


def test_winner_is_a_chunk_of_one():
    for pos, voters, cands in _tie_chunk(5, 4, count=8):
        inst = line_instance(pos, voters, cands)
        for rule in RULES:
            assert _winner(inst, rule) == _reference_winner(line_instance(pos, voters, cands),
                                                            rule)


def _reference_scores(weights, a, b):
    return (math.fsum(map(operator.mul, weights, a)),
            math.fsum(map(operator.mul, weights, b)))


def _reference_slacks(own, other, a, b):
    """_condition1_diff's scalar sums: own_l*(a side's count) + other_l*(b's)."""
    coefs = own + other
    return (math.fsum(map(operator.mul, coefs, a + b)),
            math.fsum(map(operator.mul, coefs, b + a)))


def _hex(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("taus", [t for t in SCHEMES if len(t) <= 4], ids=str)
def test_side_scores_match_a_per_tally_fsum(taus):
    rng = np.random.default_rng(len(taus))
    weights, _, _, _ = rule4_weights(ThresholdScheme(taus))
    a = rng.integers(0, 51, (200, len(taus)))
    b = rng.integers(0, 51, (200, len(taus)))
    a[:20], b[:10] = 0, 0  # empty sides
    rows = [(tuple(x), tuple(y)) for x, y in zip(a.tolist(), b.tolist())]
    for w in (weights, rng.uniform(0.0, 5.0, len(taus)).tolist()):
        p, q = side_scores(w, a, b)
        want = [_reference_scores(w, x, y) for x, y in rows]
        assert _hex(p) == _hex(s for s, _ in want)
        assert _hex(q) == _hex(s for _, s in want)
    # one row of weights per row of counts, as condition 1's columns use
    scattered = rng.uniform(0.0, 5.0, (200, len(taus)))
    p, q = side_scores(scattered, a, b)
    want = [_reference_scores(w, x, y) for w, (x, y) in zip(scattered.tolist(), rows)]
    assert _hex(p) == _hex(s for s, _ in want)
    assert _hex(q) == _hex(s for _, s in want)


def test_side_scores_of_one_or_two_terms_equal_fsum_at_the_extremes():
    """Rows of one or two terms are one numpy row sum: by float.hex they are
    math.fsum of the row, under the largest weights a Rule admits, condition
    1's negative coefficients and zero counts (signed zeros included), with
    no RuntimeWarning."""
    top = math.sqrt(sys.float_info.max)  # the largest one-cutoff rule4 scheme
    rows = [Rule("rule2", math.nextafter(1.0, 2.0)).weights, Rule("rule1", 2.0).weights,
            Rule("rule3", 2.0).weights, Rule("rule4", scheme=(top,)).weights,
            Rule("rule4", scheme=(1.3e154, 1.34e154)).weights, (-1.0,), (-1.0, -1.0)]
    for taus in [(1.0,), (2.0,), (top,), (1.5, 3.0)]:
        _, (own, other), _, _ = rule4_weights(ThresholdScheme(taus))
        rows += [own, other] if len(taus) > 1 else [own + other]
    assert max(max(map(abs, w)) for w in rows) > 1e154
    counts = np.array([[0, 0], [1, 0], [0, 1], [7, 3], [0, 10 ** 6], [10 ** 6, 10 ** 6]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w in rows:
            a, b = counts[:, :len(w)], counts[::-1, :len(w)]
            p, q = side_scores(w, a, b)
            want = [_reference_scores(w, x, y) for x, y in zip(a.tolist(), b.tolist())]
            assert _hex(p) == _hex(s for s, _ in want), w
            assert _hex(q) == _hex(s for _, s in want), w


def _scattered(rng, count):
    """count floats of random sign with exponents from -60 to 60."""
    return (rng.choice([-1.0, 1.0], count) * rng.uniform(1.0, 2.0, count)
            * np.exp2(rng.integers(-60, 61, count))).tolist()


def _padded(rng, row, zeros=(0.0,)):
    """row, padded to a random length from max(3, len(row)) to 12 with zeros
    drawn from zeros, in a random order."""
    row = row + rng.choice(zeros, rng.integers(max(3, len(row)), 13) - len(row)).tolist()
    return [row[i] for i in rng.permutation(len(row))]


def _cancelling_rows(rng):
    """Terms of scattered exponents and their negatives: the sum is exactly 0."""
    rows = []
    for _ in range(500):
        half = _scattered(rng, int(rng.integers(2, 7)))
        rows.append(_padded(rng, half + [-x for x in half], (0.0, -0.0)))
    return rows


def _near_power_of_two_rows(rng, d):
    """[H, 4P, x, -H, -3P] for powers of two P = 2**p, with x = d(rng)*hi,
    hi the gap above P and H = 2**(p+56), which swallows 4P and x: the first
    cascade's errors are 4P and x, the second rounds 4P + x to 4P with x as
    its residue, and the last float sum fl(-3P + 4P) is P with a zero g. The
    sum P + x lies within a gap of P, where the gap below is hi/2. Some rows
    are negated, and some are zero-padded, which leaves the cascades as they
    are."""
    rows = []
    for p in rng.integers(-900, 900, 300).tolist():
        big, pw, hi = 2.0 ** (p + 56), 2.0 ** p, 2.0 ** (p - 52)
        sign = float(rng.choice([-1.0, 1.0]))
        row = [sign * x for x in (big, 4.0 * pw, d(rng) * hi, -big, -3.0 * pw)]
        rows.append(row + [0.0] * int(rng.integers(0, 8)))
    return rows


def _midpoint_rows(rng):
    """Sums exactly halfway between two floats, which round to the even one:
    P + j*hi/8 beside powers of two (j = 4 the midpoint above P, j = -2 the
    one below), and v plus half its ulp, then a term c and -c."""
    rows = []
    for j in (-2, 4):
        rows += _near_power_of_two_rows(rng, lambda rng: j / 8)
    for v, c in zip(_scattered(rng, 500), _scattered(rng, 500)):
        rows.append(_padded(rng, [v, math.ulp(v) / 2, c, -c]))
    return rows


def _power_of_two_rows(rng):
    """Sums within a gap of a power of two, on either side of each midpoint:
    P + j*hi/8 for each j from -7 to 7, and P + x for x uniform in (-hi, hi)."""
    rows = []
    for j in range(-7, 8):
        rows += _near_power_of_two_rows(rng, lambda rng: j / 8)
    return rows + _near_power_of_two_rows(rng, lambda rng: rng.uniform(-1.0, 1.0))


def _signed_zero_rows(rng):
    """Rows of +0.0 and -0.0 only, then a few terms among signed zeros."""
    rows = [rng.choice([0.0, -0.0], int(rng.integers(3, 13))).tolist() for _ in range(300)]
    for _ in range(300):
        rows.append(_padded(rng, _scattered(rng, int(rng.integers(1, 4))), (0.0, -0.0)))
    return rows + [[-0.0] * k for k in range(3, 13)]


def _subnormal_rows(rng):
    """Subnormal terms, alone and with normal terms near 2**-1022 that cancel."""
    rows = []
    for _ in range(500):
        k = int(rng.integers(3, 13))
        sub = (rng.integers(-2 ** 52, 2 ** 52, k) * 2.0 ** -1074).tolist()
        if rng.random() < 0.5:
            x = float(rng.uniform(1.0, 2.0)) * 2.0 ** -1022
            sub[:2] = [x, -x + sub[1]]
        rows.append(sub)
    return rows


def _extreme_rows(rng):
    """Weights up to 1.4e154 in size, the largest a rule4 row admits, times
    counts from 0 to 50: random, at the bound itself, and in pairs that cancel."""
    rows = []
    for _ in range(500):
        k = int(rng.integers(3, 13))
        w = rng.uniform(-1.4e154, 1.4e154, k)
        w[rng.random(k) < 0.2] = 1.4e154 * rng.choice([-1.0, 1.0])
        counts = rng.integers(0, 51, k)
        counts[rng.random(k) < 0.2] = 50
        row = (w * counts).tolist()
        if k >= 4 and rng.random() < 0.5:
            row[1] = -row[0] + float(rng.uniform(-1.0, 1.0)) * 1e140
        rows.append(row)
    return rows


def _ill_conditioned_rows(rng):
    """Scattered terms where each third term nearly cancels the one before."""
    rows = []
    for _ in range(3_000):
        row = _scattered(rng, int(rng.integers(3, 13)))
        for j in range(0, len(row) - 1, 3):
            row[j + 1] = -row[j] + row[j + 1] * 2.0 ** -int(rng.integers(0, 80))
        rows.append(row)
    return rows


def _assert_row_fsums(rows):
    """rules._row_fsums on the rows, one call per row length, is math.fsum
    of each row by float.hex, with no RuntimeWarning."""
    by_length = {}
    for row in rows:
        by_length.setdefault(len(row), []).append(row)
    wrong = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for group in by_length.values():
            sums = rules._row_fsums(np.array(group, dtype=float)).tolist()
            wrong += [(row, s.hex(), math.fsum(row).hex())
                      for row, s in zip(group, sums) if s.hex() != math.fsum(row).hex()]
    assert wrong == []


@pytest.mark.parametrize("rows", [_cancelling_rows, _midpoint_rows, _power_of_two_rows,
                                  _signed_zero_rows, _subnormal_rows, _extreme_rows,
                                  _ill_conditioned_rows], ids=lambda f: f.__name__[1:-5])
def test_the_row_kernel_is_fsum_on_adversarial_rows(rows):
    """Exact cancellation (+0.0), midpoints (ties to even), sums beside a
    power of two (where the gap below is half the gap above), signed zeros,
    subnormals, rule4's largest weights and ill-conditioned rows, of 3 to 12
    terms: the certificate's sums and its math.fsum fallbacks together."""
    generated = rows(np.random.default_rng(2005))
    assert {len(row) for row in generated} <= set(range(3, 13))
    _assert_row_fsums(generated)


def test_the_row_kernel_is_fsum_on_condition1s_first_chunk(monkeypatch):
    """The rows side_scores hands the kernel while check_condition1(42) scores
    its first chunk: every length group's long scores and slacks. A chunk of
    _TALLY_CHUNK tallies is large enough that each of those groups reaches
    the kernel (rules._KERNEL_ROWS rows or more), none the per-row fsum."""
    seen, batches, kernel, scores = [], [], rules._row_fsums, rules.side_scores

    def recording(rows):
        seen.append(rows.tolist())
        return kernel(rows)

    def batching(weights, a, b):
        if np.shape(weights)[-1] >= 3:
            batches.append((2 * len(a), np.shape(weights)[-1]))
        return scores(weights, a, b)

    monkeypatch.setattr(rules, "_row_fsums", recording)
    monkeypatch.setattr(rules, "side_scores", batching)
    check_condition1(seed=42, n=search_oracle._TALLY_CHUNK)
    shapes = [(len(rows), len(rows[0])) for rows in seen]
    assert sorted(shapes) == sorted(batches)
    assert len(shapes) >= 4 and min(shapes)[0] >= rules._KERNEL_ROWS
    monkeypatch.undo()
    _assert_row_fsums([row for rows in seen for row in rows])


def test_the_rule4_table_rows_match_their_rows_of_one():
    """Each row of a length group's _rule4_table is, by float.hex, the same
    cutoffs' row of one (rule4_weights): rows do not depend on each other."""
    rng = _Bits(6)
    groups = {}
    for _ in range(3_000):
        scheme, _ = _draw_tally(rng)
        groups.setdefault(scheme.m, []).append(scheme.taus)
    assert sorted(groups) == [1, 2, 3, 4]
    for cuts in groups.values():
        weights, (own, other), ds, k = rules._rule4_table(np.array(cuts))
        for i, taus in enumerate(cuts):
            one = rule4_weights(ThresholdScheme(taus))
            assert (_hex(weights[i]), _hex(own[i]), _hex(other[i]), ds[i].hex(), int(k[i])) == \
                (_hex(one[0]), _hex(one[1][0]), _hex(one[1][1]), one[2].hex(), one[3]), taus


def test_a_length_group_refuses_a_ratio_term_as_rule4_delta_does():
    """(1, 1e200, 1e201) among drawn rows of its length: its neighbour term is
    inf/inf = nan, and rule4_row_columns raises rule4_delta's exact
    InvalidThreshold for that scheme, with no RuntimeWarning on the way."""
    rng = _Bits(9)
    drawn = [_draw_tally(rng) for _ in range(200)]
    bad = ThresholdScheme((1.0, 1e200, 1e201))
    schemes, rows = zip(*drawn[:100], (bad, [1, 0, 2, 0, 3, 0]), *drawn[100:])
    assert sum(s.m == 3 for s in schemes) > 10
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidThreshold) as want:
            rule4_delta(bad)
        with pytest.raises(InvalidThreshold) as got:
            rule4_row_columns(schemes, rows)
    assert str(got.value) == str(want.value) == (
        "thresholds (1.0, 1e+200, 1e+201) overflow their ratio terms (1.0, 3.0, nan, 1.0)")


# Each edge scheme's ratio terms; its rule4_weights row (weights, (own,
# other), ds, k) or the InvalidThreshold message that refuses its ratio terms; and
# the message that refuses its row when built into a Rule, or None. Recorded
# while every row was a one-row numpy table.
EDGE_SCHEMES = {
    (1e200,): ((1e200, 1.0),
               ((math.inf,), ((math.inf,), (-1.0,)), 1e200, 1),
               "rule4 weights [inf], own [inf] or other [-1.0] overflow"),
    (1.0, 1e200, 1e201): (
        (1.0, 3.0, math.nan, 1.0),
        "thresholds (1.0, 1e+200, 1e+201) overflow their ratio terms (1.0, 3.0, nan, 1.0)",
        None),
    (1.0, 1.7e308): ((1.0, math.inf, 1.0),
                     "thresholds (1.0, 1.7e+308) overflow their ratio terms (1.0, inf, 1.0)",
                     None),
    (1e308,): ((1e308, 1.0),
               ((math.inf,), ((math.inf,), (-1.0,)), 1e308, 1),
               "rule4 weights [inf], own [inf] or other [-1.0] overflow"),
    (1.34e154,): ((1.34e154, 1.0),
                  ((1.34e154,), ((1.34e154,), (-1.0,)), 1.34e154, 1),
                  None),
    (1.0,): ((1.0, 3.0), ((2.0,), ((1.0,), (-1.0,)), 3.0, 1), None),
    (2.0,): ((2.0, 2.0), ((2.0,), ((1.0,), (-1.0,)), 2.0, 1), None),
    (1.5, 3.0): (
        (1.5, 1.7272727272727273, 1.6666666666666667),
        ((1.2727272727272727, 2.0454545454545454),
         ((0.6363636363636364, 1.0454545454545454), (-0.6363636363636364, -1.0)),
         1.7272727272727273, 1),
        None),
    (1.0, 1.0 + math.sqrt(2.0)): (
        (1.0, 1.82842712474619, 1.82842712474619),
        ((0.8284271247461901, 2.0), ((0.41421356237309503, 1.0), (-0.41421356237309503, -1.0)),
         1.82842712474619, 1),
        None),
    (1.2, 2.0, 4.0): (
        (1.2, 1.5882352941176472, 1.6666666666666667, 1.5),
        ((0.7878787878787878, 1.5555555555555554, 2.1333333333333333),
         ((0.45454545454545453, 0.7777777777777778, 1.1333333333333333),
          (-0.33333333333333326, -0.7777777777777777, -1.0)), 1.6666666666666667, 1),
        None),
    (1.0, 1e154): ((1.0, 3.0, 1.0), ((2.0, 4.0), ((1.0, 3.0), (-1.0, -1.0)), 3.0, 1), None),
    (1.3e154, 1.34e154): (
        (1.3e154, 1.0, 1.0),
        ((1.3e154, 1.3e154), ((1.3e154, 1.3e154), (-0.029850746268656768, -1.0)), 1.3e154, 1),
        None),
    (math.sqrt(sys.float_info.max),): (
        (1.3407807929942596e154, 1.0),
        ((1.3407807929942596e154,), ((1.3407807929942596e154,), (-1.0,)), 1.3407807929942596e154,
         1),
        None),
    (1.0000001, 5.0): ((1.0000001, 2.3333332222222314, 1.4),
                       ((1.3333333888888843, 2.7777776851851925),
                        ((0.666666694444442, 1.7777776851851927), (-0.6666666944444422, -1.0)),
                        2.3333332222222314, 1),
                       None),
}


def _hexed(value):
    """A value with every float in its nested tuples as float.hex."""
    if isinstance(value, tuple):
        return tuple(map(_hexed, value))
    return value.hex() if isinstance(value, float) else value


def _outcome(call):
    """A call's result, _hexed, or its ValueError's type name and message."""
    try:
        return _hexed(call())
    except ValueError as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("taus", list(EDGE_SCHEMES), ids=str)
def test_the_scalar_row_and_the_array_table_agree_on_edge_schemes(taus):
    """ratio_terms, rule4_delta, rule4_weights and a rule4 Rule (the scalar
    row) and rule4_row_columns (the array table) give the recorded values by
    float.hex, or the recorded InvalidThreshold, with warnings as errors. One
    count row per bucket l, a 1 on pair[0]'s side in bucket l, reads weight l
    as pair[0]'s score, own_l as its slack and other_l as pair[1]'s slack."""
    terms, row, refused = EDGE_SCHEMES[taus]
    scheme, m = ThresholdScheme(taus), len(taus)
    hidden = [0] if taus[0] > 1.0 else []
    units = [[int(j == l) for j in range(2 * m)] + hidden for l in range(m)]

    def built():
        rule = Rule("rule4", scheme=taus)
        return rule.weights, rule.ds

    def columns():
        p, _, own, other = rule4_row_columns([scheme] * m, units).tolist()
        return tuple(p), tuple(own), tuple(other)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [_outcome(call) for call in (lambda: ratio_terms(taus), lambda: rule4_delta(scheme),
                                           lambda: rule4_weights(scheme), built, columns)]
    if isinstance(row, str):
        want = [("InvalidThreshold", row)] * 4
    elif refused is not None:
        want = [_hexed(row[2]), _hexed(row)] + [("InvalidThreshold", refused)] * 2
    else:
        weights, (own, other), ds, _ = row
        want = [_hexed(ds), _hexed(row), _hexed((weights, ds)), _hexed((weights, own, other))]
    assert got == [_hexed(terms), *want]


@pytest.mark.parametrize("kind, want", [
    ("rule1", ("InvalidThreshold",
               "thresholds (1.0, 1e+308) overflow their ratio terms (1.0, inf, 1.0)")),
    ("rule2", ("InvalidThreshold",
               "thresholds (1.0, 1e+308) overflow their ratio terms (1.0, inf, 1.0)")),
    ("rule3", (((1.0).hex(),), (1e308).hex())),
])
def test_threshold_rules_at_tau_1e308(kind, want):
    """rule1 and rule2 at tau = 1e308 overflow their neighbour ratio term;
    rule3's scheme (1e308,) has finite terms and weight 1. As recorded while
    every row was a one-row numpy table, with warnings as errors."""
    def built():
        rule = Rule(kind, tau=1e308)
        return rule.weights, rule.ds

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(built) == want


@pytest.mark.parametrize("taus, ds", [
    ((Fraction(3, 2), Fraction(3)), Fraction(19, 11)),
    ((Fraction(5, 3), Fraction(3)), Fraction(5, 3)),
    ((Fraction(6, 5), Fraction(2), Fraction(4)), Fraction(5, 3)),
    ((Fraction(11, 10), Fraction(13, 10), Fraction(17, 10), Fraction(5, 2)), Fraction(9, 5)),
], ids=str)
def test_the_scalar_row_is_exact_on_fractions(taus, ds):
    """The scalar row evaluates rule4's formulas on Fraction cutoffs with no
    code of its own for them: every entry is a Fraction, ds is exact, every
    weight is exactly own - other (below the pivot too, where the float
    closed form can miss it by an ulp), and each entry rounds to within
    1e-12 of the float row."""
    weights, (own, other), got_ds, k = rules._rule4_row(taus)
    exact = (*weights, *own, *other, got_ds)
    assert all(isinstance(x, Fraction) for x in exact)
    assert got_ds == ds
    assert k == sum(t <= ds for t in taus)
    assert weights == tuple(map(operator.sub, own, other))
    floats = rule4_weights(ThresholdScheme(tuple(map(float, taus))))
    assert floats[3] == k
    assert [float(x) for x in exact] == pytest.approx([*floats[0], *floats[1][0], *floats[1][1],
                                                       floats[2]], rel=1e-12)


def test_side_scores_raise_when_condition1_disagrees():
    weights, (own, other), _, _ = rule4_weights(ThresholdScheme((1.5, 3.0)))
    with pytest.raises(AssertionError):
        rules._check_identity(weights, (own, tuple(x + 1.0 for x in other)))


def test_a_rule4_rule_checks_its_weights_when_built(monkeypatch):
    """Building a rule4 Rule checks each weight against own - other: skewing
    the coefficients rule4_weights derives makes it raise."""
    derive = rules.rule4_weights

    def skewing(scheme):
        weights, (own, other), ds, k = derive(scheme)
        return weights, (own, tuple(x + 1.0 for x in other)), ds, k

    Rule("rule4", scheme=(1.5, 3.0))
    monkeypatch.setattr(rules, "rule4_weights", skewing)
    with pytest.raises(AssertionError):
        Rule("rule4", scheme=(1.5, 3.0))


SKEWED_UNDER_O = """
from strengthvote import rules
from strengthvote.tallies import ThresholdScheme

table, row = rules._rule4_table, rules.rule4_weights


def skewed(cuts):
    weights, (own, other), ds, k = table(cuts)
    return weights, (own, other + 1.0), ds, k


def skewed_row(scheme):
    weights, (own, other), ds, k = row(scheme)
    return weights, (own, tuple(x + 1.0 for x in other)), ds, k


rules._rule4_table, rules.rule4_weights = skewed, skewed_row


def outcome(call):
    try:
        call()
    except AssertionError:
        return "raised"
    return "passed"


scheme = ThresholdScheme((1.5, 3.0))
print(__debug__, outcome(lambda: rules.rule4_row_columns([scheme], [(3, 0, 0, 2, 0)])),
      outcome(lambda: rules.Rule("rule4", scheme=(1.5, 3.0))))
"""


def test_the_rule4_identity_is_checked_under_python_O():
    """python -O drops assert statements; the identity check is a raise, so
    a skewed rule4_row_columns call and a skewed rule4 Rule still fail there."""
    src = os.path.dirname(os.path.dirname(rules.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-O", "-c", SKEWED_UNDER_O], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "raised", "raised"]


def test_condition1_columns_check_every_rows_score_gap(monkeypatch):
    """rule4_row_columns sums the slacks once and still checks each row:
    skewing the last tally's condition-1 coefficients makes it raise."""
    rng = _Bits(8)
    skewed = PairwiseTally(("P", "Q"), ThresholdScheme((1.5, 3.0)), (3, 0), (0, 2), 0)
    tallies = [_random_tally(rng) for _ in range(50)] + [skewed]
    table = rules._rule4_table

    def skewing(cuts):
        weights, (own, other), ds, k = table(cuts)
        if cuts.shape[1] == skewed.scheme.m:
            other = np.where((cuts == skewed.scheme.taus).all(axis=1)[:, None], other + 1.0, other)
        return weights, (own, other), ds, k

    schemes, rows = [t.scheme for t in tallies], [_row(t) for t in tallies]
    rule4_row_columns(schemes, rows)
    monkeypatch.setattr(rules, "_rule4_table", skewing)
    with pytest.raises(AssertionError):
        rule4_row_columns(schemes, rows)


def test_condition1_columns_refuse_a_row_whose_arithmetic_overflows():
    """A (1e200,) row among drawn ones: its weight and own coefficient
    overflow, so rule4_row_columns raises InvalidThreshold naming that row,
    as a Rule under its scheme does, with no RuntimeWarning on the way."""
    rng = _Bits(8)
    schemes, rows = zip(*[_draw_tally(rng) for _ in range(50)],
                        (ThresholdScheme((1e200,)), [1, 2, 3]))
    rule4_row_columns(schemes[:-1], rows[:-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        named = re.escape("weights [inf], own [inf] or other [-1.0]")
        with pytest.raises(InvalidThreshold, match=named):
            rule4_row_columns(schemes, rows)
        with pytest.raises(InvalidThreshold, match="overflow"):
            Rule("rule4", scheme=schemes[-1])


@pytest.mark.parametrize("taus", [(), (0.5, 2.0), (2.0, 2.0), (1.0, math.inf, math.inf),
                                  (1.5, math.nan), (math.nan,), (1.0, math.inf)], ids=str)
def test_the_row_core_refuses_cutoffs_as_a_scheme_does(taus):
    """A row whose cutoffs ThresholdScheme refuses, among drawn rows and
    before a second refused row, makes rules._rule4_columns raise the
    scheme's ValueError for that row."""
    rng = _Bits(8)
    drawn = [(s.taus, c) for s, c in (_draw_tally(rng) for _ in range(20))]
    rows = drawn[:10] + [(taus, [0] * (2 * len(taus) + 1))] + drawn[10:] + [((0.5,), [1, 2, 3])]
    with pytest.raises(ValueError) as want:
        ThresholdScheme(taus)
    with pytest.raises(ValueError) as got:
        rules._rule4_columns([len(t) for t, _ in rows], [x for t, _ in rows for x in t],
                             [len(c) for _, c in rows], [x for _, c in rows for x in c])
    assert str(got.value) == str(want.value)


def test_condition1_columns_match_the_per_tally_path():
    rng = _Bits(8)
    tallies = [_random_tally(rng) for _ in range(2_000)]
    p, q, slack_p, slack_q = rule4_row_columns([t.scheme for t in tallies],
                                               [_row(t) for t in tallies])
    lengths = set()
    for i, tally in enumerate(tallies):
        lengths.add(tally.scheme.m)
        rule = Rule("rule4", scheme=tally.scheme)
        ref_p, ref_q = _reference_scores(rule.weights, tally.a_counts, tally.b_counts)
        ref_slacks = _reference_slacks(*rule4_weights(tally.scheme)[1], tally.a_counts,
                                       tally.b_counts)
        decision = decide_tally(tally, rule)
        assert _hex((p[i], q[i])) == _hex((ref_p, ref_q)) == \
            _hex((decision.p_score, decision.q_score)), i
        assert _hex((slack_p[i], slack_q[i])) == _hex(ref_slacks) == \
            _hex(_condition1_diff(tally, rule)), i
    assert lengths == {1, 2, 3, 4}


@pytest.mark.parametrize("seed", [3, 8])
def test_condition1_margins_match_the_per_tally_path(seed):
    rng = _Bits(seed)
    worst, failures = math.inf, 0
    for _ in range(2_000):
        tally = _random_tally(rng)
        rule = Rule("rule4", scheme=tally.scheme)
        slack_p, slack_q = _reference_slacks(*rule4_weights(tally.scheme)[1], tally.a_counts,
                                             tally.b_counts)
        winner = decide_tally(tally, rule).winner
        best = max(slack_p, slack_q)
        worst = min(worst, best)
        failures += best < -1e-9 or (slack_p if winner == "P" else slack_q) < -1e-9
    got = check_condition1(seed=seed, n=2_000)
    assert got["cases"] == 2_000 and got["failures"] == failures
    assert got["worst_margin"].hex() == worst.hex()


def test_chunks_of_one_rule_kind_agree_with_mixed_rule_lists():
    """A rule's winners do not depend on which other rules share the chunk."""
    chunk = next(_drawn(np.random.default_rng(2), 64, num_candidates=4))
    together = _winners(chunk, RULES)
    for r, rule in enumerate(RULES):
        assert (_winners(chunk, [rule])[0] == together[r]).all(), rule.label()


def _mixed_pair():
    """a has two candidates and b three; b's winner under rule5 is R."""
    a = line_instance({"v1": 0.2, "P": 0.0, "Q": 1.0}, ("v1",), ("P", "Q"))
    b = line_instance({"v1": 2.9, "P": 0.0, "Q": 1.0, "R": 3.0}, ("v1",), ("P", "Q", "R"))
    return a, b


def test_a_chunk_of_mixed_candidate_counts_is_refused():
    """Deciding every instance on the first one's pairs named Q on b, or
    indexed past a's pairs; both orders are refused."""
    a, b = _mixed_pair()
    assert _winner(b, Rule("rule5")) == "R"
    for chunk in ([a, b], [b, a]):
        with pytest.raises(ValueError, match="equally many candidates"):
            _winners(chunk, [Rule("rule5")])
        with pytest.raises(ValueError, match="equally many candidates"):
            _scored(chunk, [Rule("rule5")])


def test_an_empty_chunk_gives_empty_arrays():
    rules_ = [Rule("rule5"), Rule("rule1", 2.0)]
    assert _winners([], rules_).shape == (2, 0)
    costs, winners, won, deltas = _scored([], rules_)
    assert len(costs) == 0
    assert winners.shape == won.shape == deltas.shape == (2, 0)


@pytest.mark.parametrize("extra_point", [False, True])
@pytest.mark.parametrize("num_candidates", [2, 4])
@pytest.mark.parametrize("space", ["line", "euclidean2d"])
def test_chunk_built_instances_match_their_documents(space, num_candidates, extra_point):
    """Each instance of a drawn chunk, built in one batch, equals the instance
    built alone from its document, and every point's voter column, measured
    once for the whole chunk, is byte-equal to the one measured alone."""
    rng = np.random.default_rng(17)
    for chunk in _drawn(rng, 2 * 64 + 5, (space,), 9, num_candidates=num_candidates,
                        extra_point=extra_point):
        for inst in chunk:
            alone = build_instance(instance_to_doc(inst))
            assert inst == alone
            assert list(inst.coords) == list(alone.coords)
            for point in inst.coords:
                got, want = inst.voter_distances(point), alone.voter_distances(point)
                assert got.tobytes() == want.tobytes(), point
                assert not got.flags.writeable
            assert ("Z" in inst.coords) == extra_point


def test_a_chunk_measures_each_points_column_once(monkeypatch):
    calls = []
    measure = metric_core.distance_column

    def counted(inst, point):
        calls.append(point)
        return measure(inst, point)

    chunk = next(_drawn(np.random.default_rng(4), 64, ("line",), extra_point=True))
    monkeypatch.setattr(metric_core, "distance_column", counted)
    for inst in chunk:
        for point in ("P", "Q", "Z", "P"):
            inst.voter_distances(point)
    assert calls == ["P", "Q", "Z"]
