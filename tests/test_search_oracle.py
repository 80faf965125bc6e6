import functools
import json
import math
import operator
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from strengthvote.distortion_lab import cost_ratio, evaluate_instance, generate_lower_bound
from strengthvote.metric_core import (MetricInstance, instance_to_doc, line_instance,
                                      social_cost)
from strengthvote.rules import (SQRT2, Rule, bound_value, decide_pair, rule4_delta,
                                rule4_weights)
from strengthvote import rules, search_oracle, tallies
from strengthvote.search_oracle import (SPACES, _Bits, _anchor_instances, _drawn, _grid_positions,
                                        _grid_sweep, _signed_weights,
                                        _two_candidate_rules, adversarial_search,
                                        check_bounds, check_condition1,
                                        check_lambda, check_lowerbounds, check_tradeoff,
                                        optimize_thresholds, random_instance, verify_suite)
from strengthvote.tallies import PairwiseTally, ThresholdScheme

from test_chunk import (RULES, _assert_scored_alike, _random_tally, _reference_slacks,
                        _rows_table, _table_rows)


def brute_force_best(inst: MetricInstance) -> tuple[str, float]:
    """Cheapest candidate by social cost, lexicographically smallest on ties."""
    best, cost = None, math.inf
    for c in sorted(inst.candidates):
        sc = social_cost(inst, c)
        if sc < cost:
            best, cost = c, sc
    return best, cost


def test_brute_force_best():
    inst = line_instance({"a": 0.0, "b": 1.0, "c": 2.0, "v1": 0.6},
                         ("v1",), ("a", "b", "c"))
    assert brute_force_best(inst) == ("b", pytest.approx(0.4))
    tied = line_instance({"a": 0.0, "b": 1.0, "v1": 0.5}, ("v1",), ("a", "b"))
    assert brute_force_best(tied)[0] == "a"


def test_evaluate_instance_delta_matches_brute_force_best():
    rng = np.random.default_rng(4)
    rule = Rule("rule4", scheme=(1.5, 3.0))
    for _ in range(30):
        inst = random_instance(rng, "euclidean2d", num_candidates=4)
        _, cost = brute_force_best(inst)
        report = evaluate_instance(inst, rule)
        assert report.delta == pytest.approx(social_cost(inst, report.winner) / cost)


def test_random_instance_is_seeded():
    a = random_instance(np.random.default_rng(7))
    b = random_instance(np.random.default_rng(7))
    assert a == b
    assert a.coords["P"] == (0.0,) and a.coords["Q"] == (1.0,)
    assert 1 <= len(a.voters) <= 8


def test_random_instance_shapes():
    rng = np.random.default_rng(3)
    multi = random_instance(rng, "euclidean2d", num_candidates=4, extra_point=True)
    assert len(multi.candidates) == 4
    assert "Z" in multi.coords and "Z" not in multi.candidates
    with pytest.raises(ValueError):
        random_instance(rng, "hyperbolic")


class _NoDraws:
    """A generator that fails the test if it is drawn from."""

    def integers(self, *args):
        raise AssertionError("drawn from")

    uniform = integers


@pytest.mark.parametrize("kwargs, message", [
    ({"voters_max": 0}, "voters_max must be at least 1, got 0"),
    ({"voters_max": -3}, "voters_max must be at least 1, got -3"),
    ({"num_candidates": 1}, "num_candidates must be at least 2, got 1"),
    ({"num_candidates": 0, "extra_point": True}, "num_candidates must be at least 2, got 0"),
])
def test_random_instance_refuses_bad_sizes_before_any_draw(kwargs, message):
    for space in SPACES:
        with pytest.raises(ValueError, match=f"^{message}$"):
            random_instance(_NoDraws(), space, **kwargs)


class _RepeatSecondCandidate:
    """A seeded generator whose second one-point draw (the second
    candidate's first) repeats the first one-point draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.points = []

    def integers(self, *args):
        return self.rng.integers(*args)

    def uniform(self, lo, hi, size):
        pt = self.rng.uniform(lo, hi, size)
        if isinstance(size, int):
            self.points.append(pt)
            if len(self.points) == 2:
                return self.points[0]
        return pt


def test_random_instance_redraws_a_coinciding_candidate():
    rng = _RepeatSecondCandidate(5)
    inst = random_instance(rng, "euclidean2d", num_candidates=3)
    assert len(rng.points) == 4  # three candidates and one redraw
    points = [inst.coords[c] for c in inst.candidates]
    assert len(set(points)) == 3


def test_adversarial_search_passes_its_settings_to_the_drawn_instances(monkeypatch):
    chunks, scored = [], search_oracle._scored

    def recorder(chunk, rules):
        chunks.append(chunk)
        return scored(chunk, rules)
    monkeypatch.setattr(search_oracle, "_scored", recorder)
    rule = Rule("rule5")
    adversarial_search(rule, seed=3, grid=0, n_instances=64, voters_max=3, space="euclidean2d")
    anchors, *drawn = chunks
    assert anchors == _anchor_instances(rule)
    drawn = [inst for chunk in drawn for inst in chunk]
    assert len(drawn) == 64
    assert all(1 <= len(inst.voters) <= 3 and inst.space == "euclidean" for inst in drawn)
    chunks.clear()
    adversarial_search(rule, seed=3, grid=0, n_instances=0)
    assert chunks == [anchors]


def test_adversarial_search_keeps_the_first_drawn_instance_of_the_largest_delta(monkeypatch):
    # the lone anchor has delta 1 (P wins and is the better candidate), so
    # with no grid a drawn instance must win
    anchor = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25}, ("v1",), ("P", "Q"))
    monkeypatch.setattr(search_oracle, "_anchor_instances", lambda rule: [anchor])
    drawn, scored = [], search_oracle._scored

    def recorder(chunk, rules):
        out = scored(chunk, rules)
        drawn.extend(zip(chunk, out[-1][0].tolist()))
        return out
    monkeypatch.setattr(search_oracle, "_scored", recorder)
    inst, delta = adversarial_search(Rule("rule1", 2.0), seed=5, grid=0, n_instances=150)
    (first, one), *drawn = drawn
    assert first is anchor and one == 1.0
    assert len(drawn) == 150
    best = max(d for _, d in drawn)
    assert best > 1.0
    expected, expected_delta = next((i, d) for i, d in drawn if d == best)
    assert inst is expected
    assert delta == expected_delta


# The random stage's winner at seeds 0-4 behind a delta-1 anchor and no grid,
# recorded before drawn chunks were scored as distance tables: (rule, seed) ->
# (delta.hex(), the winner's voter positions). Line only, so the bits are the
# same on every Python.
_RANDOM_STAGE_WINNERS = {
    ("rule1[tau=2]", 0): ("0x1.d0bec1424b8c0p+0", [0.32029723670798727, 0.9693268285213299]),
    ("rule1[tau=2]", 1): ("0x1.b1c388c20747ep+0", [0.26276418385238864, 0.9949527390858823]),
    ("rule1[tau=2]", 2): ("0x1.4b710dfeb07d7p+0", [0.25087032842510926, 0.7725317955060724,
                                                   1.7721583689692841, 0.3326096236806422]),
    ("rule1[tau=2]", 3): ("0x1.331354e235eddp+0", [0.285718712895386, 1.2761163834647569,
                                                   1.6354405539987615, -0.6930402342337768,
                                                   1.5493050123984613, 0.18178199789700544]),
    ("rule1[tau=2]", 4): ("0x1.b72fc1a9bb740p+0", [0.9592303031766547, 0.304276735510832]),
    ("rule4[taus=1.5;3]", 0): ("0x1.7a6b5b56bd9c2p+0", [0.5964814204230324]),
    ("rule4[taus=1.5;3]", 1): ("0x1.4501d86763893p+0", [0.16330734696786187,
                                                        1.3749686167710218]),
    ("rule4[taus=1.5;3]", 2): ("0x1.6ce90c6411e1bp+0", [0.2436394187375397, 1.4410262512709613,
                                                        0.5968249347631442]),
    ("rule4[taus=1.5;3]", 3): ("0x1.55569df4eab11p+0", [0.5714321690986681]),
    ("rule4[taus=1.5;3]", 4): ("0x1.7c2e65d69113cp+0", [0.5490700687080177, 1.5895224398088441,
                                                        0.3588003205269472]),
    ("rule5", 0): ("0x1.56093646d4db1p+0", [0.21017461278817473, 1.4609233830828674]),
    ("rule5", 1): ("0x1.4501d86763893p+0", [0.16330734696786187, 1.3749686167710218]),
    ("rule5", 2): ("0x1.4171f83892901p+0", [1.7485329321939571, 0.19817132057616904]),
    ("rule5", 3): ("0x1.265199e4a3164p+0", [1.0073824884378073, 0.5691493265775693,
                                            0.6642122973952675, -0.40555085915940114,
                                            0.48556217460620643, -0.6237715820642405]),
    ("rule5", 4): ("0x1.37f287b75f7aap+0", [1.333043285445446, 0.1313154808333934]),
}


@pytest.mark.parametrize("rule", [Rule("rule1", 2.0), Rule("rule4", scheme=(1.5, 3.0)),
                                  Rule("rule5")], ids=lambda rule: rule.label())
def test_the_random_stage_winner_is_pinned(rule, monkeypatch):
    """Behind a lone anchor of delta 1 and no grid, the drawn instance that
    wins is the one recorded above, document text and delta bits."""
    anchor = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.25}, ("v1",), ("P", "Q"))
    monkeypatch.setattr(search_oracle, "_anchor_instances", lambda rule: [anchor])
    for seed in range(5):
        inst, delta = adversarial_search(rule, seed=seed, grid=0)
        want_delta, xs = _RANDOM_STAGE_WINNERS[rule.label(), seed]
        voters = [f"v{i + 1}" for i in range(len(xs))]
        want = {"space": {"type": "line", "positions": {**dict(zip(voters, xs)),
                                                        "P": 0.0, "Q": 1.0}},
                "voters": voters, "candidates": ["P", "Q"]}
        assert _doc_text(inst) == json.dumps(want), seed
        assert delta.hex() == want_delta, seed


def test_adversarial_search_stays_under_the_bound():
    config = dict(seed=11, grid=80, n_instances=40)
    for rule in (Rule("rule1", 2.0), Rule("rule3", 2.0),
                 Rule("rule5")):
        inst, delta = adversarial_search(rule, **config)
        assert delta <= bound_value(rule, 2) + 1e-9
        # the reported instance really achieves the reported distortion
        from strengthvote.search_oracle import _scored
        *_, ((again,),) = _scored([inst], [rule])
        assert again == pytest.approx(delta, abs=1e-12)


def test_adversarial_search_is_sharp_for_plain_majority():
    # tau = 1 admits distortion arbitrarily close to 3; the grid finds it
    inst, delta = adversarial_search(Rule("rule1", 1.0), seed=1, grid=200, n_instances=0)
    assert delta >= 0.95 * 3.0


def test_grid_weights_agree_with_the_pipeline_on_every_cell():
    # the cut-spot positions put voters on, and within 1e-9 of, every cutoff,
    # so strict and inclusive hits and the strict cutoff of 1 are all covered
    for rule in _two_candidate_rules() + [Rule("rule4", scheme=(1.5, 3.0))]:
        xs = _grid_positions(rule, 2)
        w = _signed_weights(rule, xs)
        for i, j in product(range(len(xs)), repeat=2):
            inst = line_instance({"P": 0.0, "Q": 1.0, "v1": float(xs[i]), "v2": float(xs[j])},
                                 ("v1", "v2"), ("P", "Q"))
            grid_winner = "P" if w[i] + w[j] >= 0.0 else "Q"
            assert grid_winner == decide_pair(inst, "P", "Q", rule).winner, \
                (rule.label(), xs[i], xs[j])


def _full_matrix_delta(rule: Rule, n: int):
    """The grid's positions and its whole (m x m) delta matrix, every ordered placement."""
    xs = _grid_positions(rule, n)
    w = _signed_weights(rule, xs)
    d_p, d_q = np.abs(xs), np.abs(xs - 1.0)
    sc_p = d_p[:, None] + d_p[None, :]
    sc_q = d_q[:, None] + d_q[None, :]
    p_wins = (w[:, None] + w[None, :]) >= 0.0
    return xs, cost_ratio(np.where(p_wins, sc_p, sc_q), np.minimum(sc_p, sc_q))


def _full_matrix_sweep(rule: Rule, n: int) -> tuple[str, ...]:
    """The full matrix's first row-major maximum, as float.hex of (x, y, delta)."""
    xs, delta = _full_matrix_delta(rule, n)
    i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
    return tuple(map(float.hex, (float(xs[i]), float(xs[j]), float(delta[i, j]))))


def test_grid_sweep_matches_the_full_matrix():
    # n = 2 is under one block of rows, 60 a little over one, 400 several; the
    # n = 2..160 runs put the grid's size on either side of 64 and 128 rows
    grid_rules = _two_candidate_rules() + [Rule("rule4", scheme=(1.5, 3.0)),
                                           Rule("rule4", scheme=(1.2, 2.0, 4.0))]
    cases = [(rule, n) for rule in grid_rules for n in (2, 60, 400)]
    cases += [(rule, n) for rule in (Rule("rule4", scheme=(1.5, 3.0)), Rule("rule5"))
              for n in range(2, 161)]
    sizes = {len(_grid_positions(rule, n)) for rule, n in cases}
    assert {63, 65, 127, 129} <= sizes
    for rule, n in cases:
        got = tuple(map(float.hex, _grid_sweep(rule, n)))
        assert got == _full_matrix_sweep(rule, n), (rule.label(), n)


def test_grid_sweep_ties_go_to_the_first_cell_in_row_major_order():
    # rule5 at n = 2 reads 1.0 in every cell: the answer is cell (0, 0)
    xs, delta = _full_matrix_delta(Rule("rule5"), 2)
    assert delta.shape == (19, 19) and (delta == 1.0).all()
    assert _grid_sweep(Rule("rule5"), 2) == (float(xs[0]), float(xs[0]), 1.0)
    # these two tie at three cells, in the row blocks of 184 and of 236:
    # the earlier block's cell wins
    for rule in (Rule("rule3", 2.0), Rule("rule4", scheme=(2.0,))):
        xs, delta = _full_matrix_delta(rule, 400)
        top = np.argwhere(delta == delta.max()).tolist()
        assert top == [[184, 284], [236, 236], [284, 184]], rule.label()
        assert _grid_sweep(rule, 400) == (float(xs[184]), float(xs[284]), float(delta.max()))


def test_grid_sweep_memory_grows_with_the_grid_not_its_square():
    # the whole (m x m) matrices of a 2,000-point grid peak at about 178 MB
    tracemalloc.start()
    try:
        _grid_sweep(Rule("rule4", scheme=(1.5, 3.0)), 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_optimize_thresholds_known_optima():
    taus, bound = optimize_thresholds(1)
    assert bound == pytest.approx(2.0, abs=1e-6)
    assert taus[0] == pytest.approx(2.0, abs=1e-4)

    taus, bound = optimize_thresholds(2)
    assert bound == pytest.approx(5.0 / 3.0, abs=1e-6)
    assert taus == pytest.approx((5.0 / 3.0, 3.0), abs=1e-3)

    with pytest.raises(ValueError):
        optimize_thresholds(0)


def test_optimize_thresholds_improves_with_depth():
    bounds = [optimize_thresholds(m)[1] for m in (1, 2, 3, 4)]
    assert all(lo > hi for lo, hi in zip(bounds, bounds[1:]))
    assert all(b > SQRT2 for b in bounds)
    # the returned bound matches the scheme it came from
    taus, bound = optimize_thresholds(3)
    assert rule4_delta(ThresholdScheme(taus)) == pytest.approx(bound, abs=1e-12)


def test_check_lowerbounds_passes():
    result = check_lowerbounds()
    assert result["passed"]
    assert result["failures"] == 0
    assert result["worst_margin"] <= 1e-5


def test_check_condition1_small_run():
    result = check_condition1(seed=5, n=500)
    assert result["passed"] and result["cases"] == 500


def _numpy_random_tally(rng):
    """_random_tally as first written, post-processing its draws in numpy."""
    m = int(rng.integers(1, 5))
    while True:
        taus = np.unique(np.round(rng.uniform(1.0, 6.0, m), 6))
        if len(taus) == m and taus[0] > 1.0:
            break
    taus = [float(t) for t in taus]
    if rng.random() < 0.25:
        taus[0] = 1.0
    scheme = ThresholdScheme(tuple(taus))
    a = tuple(int(x) for x in rng.integers(0, 51, m))
    b = tuple(int(x) for x in rng.integers(0, 51, m))
    c = 0 if scheme.taus[0] == 1.0 else int(rng.integers(0, 51))
    return PairwiseTally(("P", "Q"), scheme, a, b, c)


@pytest.mark.parametrize("seed", [42, 7, 5])
def test_random_tally_draws_what_the_numpy_version_drew(seed):
    ours, theirs = _Bits(seed), np.random.default_rng(seed)
    for _ in range(20_000):
        got, want = _random_tally(ours), _numpy_random_tally(theirs)
        assert [t.hex() for t in got.scheme.taus] == [t.hex() for t in want.scheme.taus]
        assert (got.a_counts, got.b_counts, got.c_count) == \
            (want.a_counts, want.b_counts, want.c_count)
        assert all(type(x) is int for x in got.a_counts + got.b_counts)


@pytest.mark.parametrize("n", [2, 4, 51, 2**31 + 1, 2**32])
@pytest.mark.parametrize("seed", [0, 42])
def test_bits_replay_integers_and_random(seed, n):
    """_Bits against the Generator calls it replays, paths the tally stream
    never takes included: n = 2**31 + 1 rejects about half of its 32-bit draws,
    runs of 1 to 5 below() calls leave a kept high half across calls and
    across the double() after every other run, and the words read cross the
    4096-word blocks at least once."""
    bits, rng = _Bits(seed), np.random.default_rng(seed)
    halves = doubles = 0
    for run in range(3_000):
        k = 1 + run % 5
        assert [bits.below(n) for _ in range(k)] == rng.integers(0, n, k).tolist(), run
        halves += k
        if run % 2:
            assert bits.double().hex() == rng.random().hex(), run
            doubles += 1
    assert halves // 2 + doubles > 4096


@pytest.mark.parametrize("seed", [0, 42])
def test_bits_replay_the_instance_draw_calls(seed):
    """_Bits.integers and _Bits.uniform against the Generator calls _Draw
    makes: integers(1, voters_max + 1), which draws nothing at voters_max 1
    and rejects about half its 32-bit draws at 2**31 + 1, and uniform over
    each space's box in shapes (n, dim), n = 0 included, and dim; the words
    read cross the 4096-word blocks."""
    bits, rng, words = _Bits(seed), np.random.default_rng(seed), 0
    for run in range(1_500):
        voters_max = (1, 2, 3, 20, 2**31 + 1, 2**32)[run % 6]
        assert bits.integers(1, voters_max + 1) == rng.integers(1, voters_max + 1), run
        lo, hi, dim = search_oracle._RANDOM_SPACES[SPACES[run % 2]]
        for size in ((run % 7, dim), dim):
            got, want = bits.uniform(lo, hi, size), rng.uniform(lo, hi, size)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), run
            words += got.size
    assert words > 4096


def _doc_text(inst):
    """An instance's document as JSON text: its coordinates in order, each
    float by its shortest repr."""
    return json.dumps(instance_to_doc(inst))


@pytest.mark.parametrize("voters_max", [1, 3, 20])
@pytest.mark.parametrize("num_candidates, extra_point", [(2, False), (2, True), (4, False),
                                                         (4, True)])
@pytest.mark.parametrize("spaces", [SPACES, ("line",)], ids=["both", "line"])
def test_drawn_instances_are_the_random_instances(spaces, num_candidates, extra_point,
                                                  voters_max, monkeypatch):
    """_drawn(_Bits(seed), ...) yields, in chunks of _CHUNK, the documents
    that successive random_instance(default_rng(seed), ...) calls give, in
    the spaces taken in turn: 2 * _CHUNK + 37 instances, then 100 more with
    the other candidate count on the same _Bits, as check_bounds draws its
    two phases. At 20 voters the words read cross a 4096-word block."""
    blocks, block = [], _Bits._block
    monkeypatch.setattr(_Bits, "_block", lambda self: blocks.append(1) or block(self))
    bits, rng, got, want = _Bits(3), np.random.default_rng(3), [], []
    for count, k in ((2 * search_oracle._CHUNK + 37, num_candidates), (100, 6 - num_candidates)):
        chunks = list(_drawn(bits, count, spaces, voters_max, num_candidates=k,
                             extra_point=extra_point))
        assert [len(chunk) for chunk in chunks] == \
            [min(search_oracle._CHUNK, count - i) for i in range(0, count, search_oracle._CHUNK)]
        got += [_doc_text(inst) for chunk in chunks for inst in chunk]
        want += [_doc_text(random_instance(rng, spaces[i % len(spaces)], voters_max, k,
                                           extra_point)) for i in range(count)]
    assert got == want
    assert voters_max < 20 or len(blocks) > 1


def _serve(monkeypatch, words):
    """Make every _Bits read its blocks from words, from the first on;
    returns {bits: words served}."""
    served = {}

    def block(self):
        at = served.get(self, 0)
        served[self] = at + search_oracle._BLOCK
        return words[at:at + search_oracle._BLOCK].copy()

    monkeypatch.setattr(_Bits, "_block", block)
    return served


def _crafted_draws(monkeypatch, words, t, num_candidates, craft):
    """Instances 0 to 2 * _CHUNK - 1 of the drawn stream (both spaces, 20
    voters at most) read from words after craft(words, count, first, n,
    draw) changes them at instance t: count is (the index of the word that
    holds instance t's voter-count half, whether it is the high half),
    first the index of its first coordinate word, n its voter count and
    draw its _Draw. Returns the documents _drawn decodes, those
    random_instance draws one at a time from a _Bits served the same words
    (test_bits_replay_the_instance_draw_calls holds _Bits to the
    Generator), and the instances the decode handed to a _Draw."""
    count, served = 2 * search_oracle._CHUNK, _serve(monkeypatch, words)
    draws = [search_oracle._drawer(SPACES[i % 2], 20, num_candidates)[1] for i in range(count)]
    bits, located = _Bits(0), []
    for draw in draws[:t + 1]:
        # the next word, and the count half's word when the count is a new word's low half
        located.append(served.get(bits, 0) - (len(bits._words) - bits._at))
        kept = bits._half is not None
        n = draw(bits)[0]
    # a kept half is the high half of the word instance t - 1 read its count from
    craft(words, (located[t - 1], True) if kept else (located[t], False),
          located[t] + (not kept), n, draws[t])
    reference = _Bits(0)
    want = [_doc_text(random_instance(reference, SPACES[i % 2], 20, num_candidates))
            for i in range(count)]
    scalar, call = [], search_oracle._Draw.__call__
    monkeypatch.setattr(search_oracle._Draw, "__call__",
                        lambda self, rng: scalar.append(t) or call(self, rng))
    got = [_doc_text(inst) for chunk in _drawn(_Bits(0), count, SPACES, 20,
                                               num_candidates=num_candidates) for inst in chunk]
    return got, want, scalar


_EDGES = (0, 1, 100, search_oracle._CHUNK - 1, search_oracle._CHUNK, search_oracle._CHUNK + 1)


@pytest.mark.parametrize("num_candidates", [2, 4])
@pytest.mark.parametrize("t", _EDGES)
def test_a_rejected_voter_count_falls_back_to_the_scalar_draw(t, num_candidates, monkeypatch):
    """Instance t's voter-count half set to 0, which integers(1, 21) rejects
    (its product's low half, 0, is below (2**32 - 20) % 20 = 16): the
    decode hands instance t to its _Draw, which redraws the count from the
    next half, and decodes the rest after it; every document matches the
    one random_instance draws from the same words. An even t reads its count from a new
    word's low half, an odd t from the high half kept from the word before."""
    def craft(words, count, first, n, draw):
        word, high = count
        assert high == bool(t % 2)
        words[word] &= np.uint64(0xFFFFFFFF if high else 0xFFFFFFFF00000000)

    words = np.random.default_rng(t).bit_generator.random_raw(20 * search_oracle._BLOCK)
    got, want, scalar = _crafted_draws(monkeypatch, words, t, num_candidates, craft)
    assert got == want
    assert scalar == [t]


@pytest.mark.parametrize("t", _EDGES)
def test_a_repeated_candidate_falls_back_to_the_scalar_draw(t, monkeypatch):
    """Instance t's second candidate drawn at its first one's point: the
    reference draws it again from the next words, and so does the decode,
    which hands instance t to its _Draw and decodes the rest after it."""
    def craft(words, count, first, n, draw):
        c1, c2 = first + n * draw.dim, first + (n + 1) * draw.dim  # after the voters
        words[c2:c2 + draw.dim] = words[c1:c1 + draw.dim]

    words = np.random.default_rng(t).bit_generator.random_raw(20 * search_oracle._BLOCK)
    got, want, scalar = _crafted_draws(monkeypatch, words, t, 4, craft)
    assert got == want
    assert scalar == [t]
    coords = json.loads(want[t])["space"]["positions"]
    assert len({json.dumps(coords[c]) for c in ("c1", "c2", "c3", "c4")}) == 4


@pytest.mark.parametrize("num_candidates", [2, 4])
def test_a_chunk_with_a_scalar_drawn_instance_scores_as_its_instances_do(num_candidates,
                                                                         monkeypatch):
    """Instance _CHUNK + 1's voter-count half set to 0, as in the
    rejected-count test above, so the decode hands it to its _Draw: both
    chunks of the crafted stream are held to their instances by
    _assert_scored_alike."""
    t = search_oracle._CHUNK + 1

    def craft(words, count, first, n, draw):
        word, high = count
        words[word] &= np.uint64(0xFFFFFFFF if high else 0xFFFFFFFF00000000)

    words = np.random.default_rng(t).bit_generator.random_raw(20 * search_oracle._BLOCK)
    *_, scalar = _crafted_draws(monkeypatch, words, t, num_candidates, craft)
    chunks = list(_drawn(_Bits(0), 2 * search_oracle._CHUNK, SPACES, 20,
                         num_candidates=num_candidates))
    assert scalar == [t, t]
    for chunk in chunks:
        _assert_scored_alike(chunk, RULES)


def test_random_instance_refuses_a_voters_max_beyond_32_bits():
    for space in SPACES:
        with pytest.raises(ValueError,
                           match=r"^voters_max must be at most 2\*\*32, got 4294967297$"):
            random_instance(_NoDraws(), space, voters_max=2**32 + 1)


def _decoded_rows(bits, n):
    """n tallies from _decode_tallies, _TALLY_CHUNK at a time, as (scheme,
    count row) pairs."""
    rows = []
    for start in range(0, n, search_oracle._TALLY_CHUNK):
        rows += _table_rows(search_oracle._decode_tallies(
            bits, min(search_oracle._TALLY_CHUNK, n - start)))
    return rows


def _hex_rows(rows):
    return [([t.hex() for t in scheme.taus], counts) for scheme, counts in rows]


@pytest.mark.parametrize("seed", [42, 7, 5])
def test_decoded_tallies_are_the_scalar_draws(seed, monkeypatch):
    """The block decoder reads the rows _draw_tally draws, by float.hex, with
    Python int counts, while high halves kept from one tally's last count
    word carry into the next chunk and across the blocks the buffer reads."""
    bits, reference, carried, crossed = _Bits(seed), _Bits(seed), [], []
    block, decode = _Bits._block, search_oracle._decode_tallies

    def reading(self):
        if self is bits:
            crossed.append(self._half is not None)
        return block(self)

    def decoding(bits, count):
        carried.append(bits._half is not None)
        return decode(bits, count)

    monkeypatch.setattr(_Bits, "_block", reading)
    monkeypatch.setattr(search_oracle, "_decode_tallies", decoding)
    got = _decoded_rows(bits, 20_000)
    want = [search_oracle._draw_tally(reference) for _ in range(20_000)]
    assert _hex_rows(got) == _hex_rows(want)
    assert all(type(x) is int for _, counts in got for x in counts)
    assert any(carried) and any(crossed) and len(crossed) > 20


def test_seed_41_draws_its_cutoffs_again_at_tally_13735(monkeypatch):
    """Seed 41's stream draws tally 13,735's cutoffs twice (m = 3, so 7
    doubles), and no other tally of the first 14,000 does. The decoder hands
    that tally, and only it, to _draw_tally and reads the same rows; the
    check's cases, failures and worst margin are the per-tally path's."""
    reference, doubles, draws = _Bits(41), [0], []
    double = _Bits.double

    def counting(self):
        doubles[0] += 1
        return double(self)

    monkeypatch.setattr(_Bits, "double", counting)
    want, redrawn = [], []
    for i in range(14_000):
        doubles[0] = 0
        want.append(search_oracle._draw_tally(reference))
        if doubles[0] != want[-1][0].m + 1:
            redrawn.append((i, want[-1][0].m, doubles[0]))
    monkeypatch.undo()
    assert redrawn == [(13_735, 3, 7)]
    draw = search_oracle._draw_tally
    monkeypatch.setattr(search_oracle, "_draw_tally", lambda bits: draws.append(1) or draw(bits))
    assert _hex_rows(_decoded_rows(_Bits(41), 14_000)) == _hex_rows(want)
    assert draws == [1]
    monkeypatch.undo()
    worst, failures = math.inf, 0
    reference = _Bits(41)
    for tally in (_random_tally(reference) for _ in range(14_000)):
        weights, (own, other), _, _ = rule4_weights(tally.scheme)
        p, q = (math.fsum(map(operator.mul, weights, side))
                for side in (tally.a_counts, tally.b_counts))
        slack_p, slack_q = _reference_slacks(own, other, tally.a_counts, tally.b_counts)
        best = max(slack_p, slack_q)
        worst = min(worst, best)
        failures += best < -1e-9 or (slack_p if p >= q else slack_q) < -1e-9
    got = check_condition1(seed=41, n=14_000)
    assert (got["cases"], got["failures"]) == (14_000, failures)
    assert got["worst_margin"].hex() == worst.hex()


_C = search_oracle._TALLY_CHUNK


@pytest.mark.parametrize("tally, count", [(t, 1536) for t in (0, 256, 511, 512, 768, 1023)] +
                         [(t, 3 * _C) for t in (0, _C // 2, _C - 1, _C, _C + _C // 2, 2 * _C - 1)])
def test_a_rejected_count_half_falls_back_to_the_scalar_draw(tally, count, monkeypatch):
    """A count half of 0, below(51)'s one rejection, written into the word
    source at the given tally's first count half of count decoded tallies:
    the decoder hands that tally to _draw_tally and reads the rows
    _draw_tally reads from the same words. The first six positions were the
    edges of 512-tally chunks; the others are taken from _TALLY_CHUNK = C,
    over 3C tallies: a chunk's first, middle or last tally, and the same in
    the next chunk, so that a high half kept after the fallback at a chunk's
    last tally carries into the next _decode_tallies call."""
    block, served = _Bits._block, {}

    def serving(self):
        words = block(self)
        start = served.get(self, 0)
        served[self] = start + len(words)
        if target and start <= target[0] < start + len(words):
            word, high = target
            words[word - start] &= np.uint64(0xFFFFFFFF if high else 0xFFFFFFFF00000000)
        return words

    target, halves = (), []
    below = _Bits.below

    def locating(self, n):
        # the word and half the next below() reads u from, counted from the
        # stream's start: a kept half is the high half of below()'s last word
        if self._half is None:
            halves.append((served.get(self, 0) - (len(self._words) - self._at), False))
        else:
            halves.append((halves[-1][0], True))
        return below(self, n)

    monkeypatch.setattr(_Bits, "_block", serving)
    monkeypatch.setattr(_Bits, "below", locating)
    bits = _Bits(5)
    for _ in range(tally):
        search_oracle._draw_tally(bits)
    first = len(halves)
    search_oracle._draw_tally(bits)
    monkeypatch.setattr(_Bits, "below", below)
    target = halves[first + 1]  # below(4) reads m, then the first count half
    draw, draws = search_oracle._draw_tally, []
    monkeypatch.setattr(search_oracle, "_draw_tally", lambda bits: draws.append(1) or draw(bits))
    got = _decoded_rows(_Bits(5), count)
    reference = _Bits(5)
    want = [draw(reference) for _ in range(count)]
    assert _hex_rows(got) == _hex_rows(want)
    assert draws == [1]


def test_check_condition1_derives_each_tallys_weights_once(monkeypatch):
    calls, table = [], rules._rule4_table

    def counted(cuts):
        calls.extend(cuts)
        return table(cuts)

    monkeypatch.setattr(rules, "_rule4_table", counted)
    check_condition1(seed=5, n=500)
    assert len(calls) == 500


def test_check_condition1_at_20000_tallies_is_pinned():
    """The draw stream and the exact sums of condition 1 at seed 42, recorded
    while check_condition1 still built a PairwiseTally per draw: a slip in
    draw order or summation shows here without the 100,000-tally run."""
    result = check_condition1(seed=42, n=20_000)
    assert (result["cases"], result["failures"]) == (20_000, 0)
    assert result["worst_margin"].hex() == "-0x1.0000000000000p-48"


# check_condition1(seed, n=20_000)'s worst margin, recorded with 512-tally
# chunks, whose length groups side_scores sums by math.fsum row by row.
_WORST_AT_20000 = {42: "-0x1.0000000000000p-48", 41: "-0x1.0000000000000p-47",
                   7: "-0x1.0000000000000p-47"}


@pytest.mark.parametrize("seed, chunk", [(42, 512), (41, 512), (41, search_oracle._TALLY_CHUNK),
                                         (7, 512), (7, search_oracle._TALLY_CHUNK)])
def test_check_condition1_does_not_depend_on_the_chunk_size(seed, chunk, monkeypatch):
    """Chunks of 512 and of _TALLY_CHUNK give the same cases, failures and
    worst margin by float.hex at n = 20,000: side_scores sums a length
    group's long rows by its numpy kernel only when the group is large, and
    seed 41's redraw at tally 13,735 falls inside a chunk of either size.
    Seed 42 at _TALLY_CHUNK is test_check_condition1_at_20000_tallies_is_pinned."""
    monkeypatch.setattr(search_oracle, "_TALLY_CHUNK", chunk)
    result = check_condition1(seed=seed, n=20_000)
    assert (result["cases"], result["failures"]) == (20_000, 0)
    assert result["worst_margin"].hex() == _WORST_AT_20000[seed]


@pytest.mark.parametrize("corrupt", [
    lambda scheme, counts: [counts[0], -1, *counts[2:]],
    lambda scheme, counts: counts[:-1] if len(counts) == 2 * scheme.m else None,
    lambda scheme, counts: counts + [3] if scheme.taus[0] == 1.0 else None,
], ids=["negative", "one-short", "hidden-count-at-1"])
def test_check_condition1_rejects_a_drawn_row_no_tally_would_hold(corrupt, monkeypatch):
    """One bad row in the middle of the first 512-row chunk makes the check
    raise ValueError, as building its PairwiseTally does."""
    decode, drawn, bad = search_oracle._decode_tallies, [], []

    def corrupting(bits, count):
        rows = _table_rows(decode(bits, count))
        for i, (scheme, counts) in enumerate(rows):
            drawn.append(scheme)
            if len(drawn) > 256 and not bad and corrupt(scheme, counts) is not None:
                counts = corrupt(scheme, counts)
                rows[i] = scheme, counts
                bad.append((len(drawn) - 1, scheme, counts))
        return _rows_table(rows)

    monkeypatch.setattr(search_oracle, "_decode_tallies", corrupting)
    with pytest.raises(ValueError):
        check_condition1(seed=42, n=1024)
    (i, scheme, counts), = bad
    assert i < 512
    m = scheme.m
    with pytest.raises(ValueError):
        PairwiseTally(("P", "Q"), scheme, tuple(counts[:m]), tuple(counts[m:2 * m]),
                      counts[2 * m] if len(counts) > 2 * m else 0)


def test_check_condition1_raises_the_skewed_rows_identity_gap(monkeypatch):
    """_rule4_table skewed for one scheme's row in the middle of a chunk makes
    its length group's one identity check raise that row's (w, own - other)."""
    decode, drawn = search_oracle._decode_tallies, []

    def recording(bits, count):
        table = decode(bits, count)
        drawn.extend(scheme for scheme, _ in _table_rows(table))
        return table

    table = rules._rule4_table

    def skewing(cuts):
        weights, (own, other), ds, k = table(cuts)
        if cuts.shape[1] == drawn[257].m:
            other = np.where((cuts == drawn[257].taus).all(axis=1)[:, None], other + 1.0, other)
        return weights, (own, other), ds, k

    monkeypatch.setattr(search_oracle, "_decode_tallies", recording)
    monkeypatch.setattr(rules, "_rule4_table", skewing)
    with pytest.raises(AssertionError) as raised:
        check_condition1(seed=42, n=1024)
    monkeypatch.undo()
    weights, (own, other), _, _ = rule4_weights(drawn[257])
    assert raised.value.args == ((weights, tuple(o - (x + 1.0) for o, x in zip(own, other))),)


# Each check's result at seed 3 and reduced sizes, recorded before the checks
# shared one case loop; lowerbounds runs at its fixed size.
SMALL_SIZES = {"lowerbounds": {}, "bounds": {"n_two": 200, "n_multi": 40},
               "lambda": {"n": 200}, "condition1": {"n": 500},
               "tradeoff": {"n_two": 200, "n_multi": 40}}
PINNED = {
    "lowerbounds": {"name": "lowerbounds", "cases": 15, "failures": 0,
                    "worst_margin": 1.0000000010279564e-06, "passed": True},
    "bounds": {"name": "bounds", "cases": 3720, "failures": 0,
               "worst_margin": -0.24063101962022504, "passed": True},
    "lambda": {"name": "lambda", "cases": 1200, "failures": 0,
               "worst_margin": -0.8380489435662156, "passed": True},
    "condition1": {"name": "condition1", "cases": 500, "failures": 0,
                   "worst_margin": 0.0, "passed": True},
    "tradeoff": {"name": "tradeoff", "cases": 253, "failures": 0,
                 "worst_margin": -10.565521181014537, "passed": True},
}


@pytest.mark.parametrize("name", list(PINNED))
def test_check_results_are_pinned(name):
    check = getattr(search_oracle, f"check_{name}")
    seeded = {} if name == "lowerbounds" else {"seed": 3}
    assert check(**seeded, **SMALL_SIZES[name]) == pytest.approx(PINNED[name], rel=1e-12)


def test_verify_suite_returns_the_checks_results_unchanged(monkeypatch):
    for name, sizes in SMALL_SIZES.items():
        check = getattr(search_oracle, f"check_{name}")
        monkeypatch.setattr(search_oracle, f"check_{name}", functools.partial(check, **sizes))
    report = verify_suite("all", seed=3)
    assert report["checks"] == [pytest.approx(PINNED[c["name"]], rel=1e-12)
                                for c in report["checks"]]
    assert [c["name"] for c in report["checks"]] == list(PINNED)
    assert report["passed"] is True


def test_a_check_without_cases_reports_a_null_worst_margin():
    result = check_bounds(seed=3, n_two=0, n_multi=0)
    assert result == {"name": "bounds", "cases": 0, "failures": 0,
                      "worst_margin": None, "passed": True}
    json.dumps(result, allow_nan=False)


def test_verify_suite_shape():
    out = verify_suite("lowerbounds")
    assert out["suite"] == "lowerbounds"
    assert out["passed"] is True
    assert len(out["checks"]) == 1
    assert out["checks"][0]["name"] == "lowerbounds"
    with pytest.raises(ValueError):
        verify_suite("everything")


def test_anchor_instances_aim_at_each_ratio_term_of_the_scheme():
    def one(t):
        return [("largest", (t,))]

    def pair(t):
        return [("largest", (t,)), ("pair", (1.0, t))]

    def smallest(t):
        return [("largest", (t,)), ("smallest", (t,))]

    grid = (2.0, 1.0 + SQRT2, 5.0)
    want = ([one(1.0)] + [pair(t) for t in grid]             # rule1
            + [pair(t) for t in grid]                        # rule2
            + [one(1.0)] + [smallest(t) for t in grid]       # rule3
            + [one(1.0)] + [smallest(t) for t in grid]       # rule4 (tau,)
            + [[("exact_sqrt2", ())]]                        # rule5
            + [[("largest", (4.0,)), ("pair", (1.0, 2.0)), ("pair", (2.0, 4.0))]])
    rules = _two_candidate_rules() + [Rule("rule4", scheme=(1.0, 2.0, 4.0))]
    assert len(rules) == len(want)
    for rule, anchors in zip(rules, want):
        assert _anchor_instances(rule) == [generate_lower_bound(kind, taus, 1e-6)
                                           for kind, taus in anchors], rule.label()
    # thresholds closer than twice the anchors' epsilon leave their pair out
    close = Rule("rule4", scheme=(2.0, 2.0 + 1e-6))
    assert _anchor_instances(close) == [generate_lower_bound("largest", (2.0 + 1e-6,), 1e-6),
                                        generate_lower_bound("smallest", (2.0,), 1e-6)]
    adversarial_search(close, grid=50, n_instances=10)


def _count_kernel_and_bucket_calls(monkeypatch) -> Counter:
    """Count calls, not strengths, of the strength kernel and of bucketing."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tallies, "_strengths", counted("kernel", tallies._strengths))
    monkeypatch.setattr(ThresholdScheme, "bucket", counted("bucket", ThresholdScheme.bucket))
    return calls


@pytest.mark.parametrize("check, sizes, buckets", [
    ("bounds", {"n_two": 64, "n_multi": 0}, 8),
    ("bounds", {"n_two": 0, "n_multi": 64}, 8),
    ("tradeoff", {"n_two": 0, "n_multi": 64}, 1),
], ids=["bounds-two", "bounds-multi", "tradeoff-multi"])
def test_a_chunk_is_measured_once_and_bucketed_once_per_scheme(check, sizes, buckets,
                                                               monkeypatch):
    """One chunk of 64 instances: one kernel call for all their pairs, and one
    bucket call per distinct (scheme, boundary) of the check's rules (bounds:
    four strict and four inclusive schemes; tradeoff: rule1's, beside rule5).
    Deciding the cases, through the majority graph beyond two candidates,
    reads only kept results."""
    calls = _count_kernel_and_bucket_calls(monkeypatch)
    assert getattr(search_oracle, f"check_{check}")(seed=3, **sizes)["cases"] > 0
    assert calls == {"kernel": 1, "bucket": buckets}


def test_drawn_checks_are_pinned_at_reduced_sizes():
    """Read before the drawn checks were built and scored a chunk at a time.
    check_tradeoff draws line instances only, so its worst margin is the same
    float on every Python; bounds and lambda draw in R^2 as well, where
    math.dist may differ by an ulp between Python versions."""
    result = check_tradeoff(42, n_two=400, n_multi=150)
    assert (result["cases"], result["failures"]) == (595, 0)
    assert result["worst_margin"].hex() == "-0x1.1e51f3231d18ap+2"
    result = check_tradeoff(7, n_two=400, n_multi=150)
    assert (result["cases"], result["failures"]) == (588, 0)
    assert result["worst_margin"].hex() == "-0x1.bd74b9af4e4a2p+2"
    for seed in (42, 7):
        result = check_bounds(seed, n_two=400, n_multi=150)
        assert (result["cases"], result["failures"]) == (8350, 0)
        result = check_lambda(seed, n=300)
        assert (result["cases"], result["failures"]) == (1800, 0)
