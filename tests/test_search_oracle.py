import functools
import json
import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

from strengthvote.distortion_lab import evaluate_instance, generate_lower_bound
from strengthvote.metric_core import MetricInstance, line_instance, social_cost
from strengthvote.rules import (SQRT2, Rule, bound_value, decide_pair, rule4_delta,
                                rule4_weights)
from strengthvote import rules, search_oracle, tallies
from strengthvote.search_oracle import (SPACES, _Bits, _anchor_instances, _grid_positions,
                                        _signed_weights,
                                        _two_candidate_rules, adversarial_search,
                                        check_bounds, check_condition1,
                                        check_lambda, check_lowerbounds, check_tradeoff,
                                        optimize_thresholds, random_instance, verify_suite)
from strengthvote.tallies import PairwiseTally, ThresholdScheme

from test_chunk import _random_tally


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


def test_check_condition1_derives_each_tallys_weights_once(monkeypatch):
    calls = []

    def counted(scheme):
        calls.append(scheme)
        return rule4_weights(scheme)

    monkeypatch.setattr(rules, "rule4_weights", counted)
    check_condition1(seed=5, n=500)
    assert len(calls) == 500


def test_check_condition1_at_20000_tallies_is_pinned():
    """The draw stream and the exact sums of condition 1 at seed 42, recorded
    while check_condition1 still built a PairwiseTally per draw: a slip in
    draw order or summation shows here without the 100,000-tally run."""
    result = check_condition1(seed=42, n=20_000)
    assert (result["cases"], result["failures"]) == (20_000, 0)
    assert result["worst_margin"].hex() == "-0x1.0000000000000p-48"


@pytest.mark.parametrize("corrupt", [
    lambda scheme, counts: [counts[0], -1, *counts[2:]],
    lambda scheme, counts: counts[:-1] if len(counts) == 2 * scheme.m else None,
    lambda scheme, counts: counts + [3] if scheme.taus[0] == 1.0 else None,
], ids=["negative", "one-short", "hidden-count-at-1"])
def test_check_condition1_rejects_a_drawn_row_no_tally_would_hold(corrupt, monkeypatch):
    """One bad row in the middle of the first 512-row chunk makes the check
    raise ValueError, as building its PairwiseTally does."""
    draw, drawn, bad = search_oracle._draw_tally, [], []

    def corrupting(rng):
        scheme, counts = draw(rng)
        drawn.append(scheme)
        if len(drawn) > 256 and not bad and corrupt(scheme, counts) is not None:
            counts = corrupt(scheme, counts)
            bad.append((len(drawn) - 1, scheme, counts))
        return scheme, counts

    monkeypatch.setattr(search_oracle, "_draw_tally", corrupting)
    with pytest.raises(ValueError):
        check_condition1(seed=42, n=1024)
    (i, scheme, counts), = bad
    assert i < 512
    m = scheme.m
    with pytest.raises(ValueError):
        PairwiseTally(("P", "Q"), scheme, tuple(counts[:m]), tuple(counts[m:2 * m]),
                      counts[2 * m] if len(counts) > 2 * m else 0)


def test_check_condition1_raises_the_skewed_rows_identity_gap(monkeypatch):
    """rule4_weights skewed for one scheme in the middle of a chunk makes its
    length group's one identity check raise that row's (w, own - other)."""
    draw, drawn = search_oracle._draw_tally, []

    def recording(rng):
        scheme, counts = draw(rng)
        drawn.append(scheme)
        return scheme, counts

    def skewing(scheme):
        weights, (own, other), ds, k = rule4_weights(scheme)
        if scheme is drawn[257]:
            other = tuple(x + 1.0 for x in other)
        return weights, (own, other), ds, k

    monkeypatch.setattr(search_oracle, "_draw_tally", recording)
    monkeypatch.setattr(rules, "rule4_weights", skewing)
    with pytest.raises(AssertionError) as raised:
        check_condition1(seed=42, n=1024)
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
