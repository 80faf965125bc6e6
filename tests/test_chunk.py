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

import numpy as np
import pytest

from strengthvote import metric_core, rules
from strengthvote.metric_core import build_instance, instance_to_doc, line_instance
from strengthvote.rules import (InvalidThreshold, Rule, _condition1_diff, decide_pair,
                                decide_tally, rule4_delta, rule4_row_columns, rule4_weights,
                                side_scores)
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

table = rules._rule4_table


def skewed(cuts):
    weights, (own, other), ds, k = table(cuts)
    return weights, (own, other + 1.0), ds, k


rules._rule4_table = skewed


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
