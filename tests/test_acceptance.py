"""End-to-end acceptance checks for the package's headline guarantees.

Each test covers one numbered guarantee and prints a single summary line;
run with `pytest -v` to get one pass/fail line per criterion. The heavier
statistical checks reuse the seeded verification suites, so a failure here
is reproducible from the CLI with `strengthvote verify --suite all`.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from strengthvote.distortion_lab import rule3_counterexample
from strengthvote.metric_core import scale_instance, social_cost
from strengthvote.rules import (PairwiseDecision, Rule, SQRT2, bound_value,
                                rule4_delta)
from strengthvote.search_oracle import (SearchConfig, adversarial_search,
                                        check_bounds, check_condition1,
                                        check_lambda, check_lowerbounds,
                                        check_tradeoff, optimize_thresholds,
                                        random_instance)
from strengthvote.tallies import ThresholdScheme
from strengthvote.tournament import (TournamentGraph, copeland_winner,
                                     majority_graph, uncovered_set)

EXACT = 1e-12


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}")


def test_criterion_01_closed_form_bounds():
    """The headline bound values agree with their closed forms to 1e-12."""
    cases = [
        (Rule("rule1", 1.0), 2, 3.0),
        (Rule("rule1", 1.0), 3, 5.0),
        (Rule("rule1", 1.0 + SQRT2), 2, 2.0 * SQRT2 - 1.0),
        (Rule("rule1", 1.0 + SQRT2), 3, 9.0 - 4.0 * SQRT2),
        (Rule("rule3", 2.0), 2, 2.0),
        (Rule("rule5"), 2, SQRT2),
        (Rule("rule5"), 3, 2.0),
    ]
    worst = 0.0
    for rule, ncand, want in cases:
        worst = max(worst, abs(bound_value(rule, ncand) - want))
    # the squared two-candidate optimum is the multiway optimum
    square_gap = abs((2.0 * SQRT2 - 1.0) ** 2 - (9.0 - 4.0 * SQRT2))
    worst = max(worst, square_gap)
    ok = worst <= EXACT
    _report(1, ok, f"worst closed-form deviation {worst:.3g} (tol {EXACT:g})")
    assert ok


def test_criterion_02_lower_bound_generators_are_tight():
    """Every generator family lands within 1e-5 of its target distortion."""
    result = check_lowerbounds(epsilon=1e-6, tol=1e-5)
    _report(2, result["passed"],
            f"{result['cases']} generator instances, worst error "
            f"{result['worst_margin']:.3g} (tol 1e-5), {result['failures']} failures")
    assert result["passed"]


def test_criterion_03_distortion_never_exceeds_the_bound():
    """No rule exceeds its distortion bound on 12,000 seeded random instances."""
    result = check_bounds(seed=42, n_two=10_000, n_multi=2_000)
    _report(3, result["passed"],
            f"{result['cases']} rule evaluations, worst margin "
            f"{result['worst_margin']:.3g} (tol 1e-9), {result['failures']} failures")
    assert result["passed"]


def test_criterion_04_winners_satisfy_the_cost_inequalities():
    """Winners obey SC(W) <= q*SC(L) + z*SC(Z) with their per-rule coefficients."""
    result = check_lambda(seed=42, n=5_000)
    _report(4, result["passed"],
            f"{result['cases']} winner inequalities, worst slack "
            f"{result['worst_margin']:.3g} (tol 1e-9), {result['failures']} failures")
    assert result["passed"]


def test_criterion_05_large_single_threshold_breaks_the_inequality():
    """An inclusive threshold at tau = 5 admits SC(P) > SC(Q) + 2*SC(Z)."""
    inst = rule3_counterexample(5.0, epsilon=1e-6)
    lhs = social_cost(inst, "P")
    rhs = social_cost(inst, "Q") + 2.0 * social_cost(inst, "Z")
    winner = copeland_winner(majority_graph(inst, Rule("rule3", 5.0)))
    ok = lhs > rhs and winner == "P"
    _report(5, ok, f"SC(P) = {lhs:.6g} > {rhs:.6g} = SC(Q) + 2*SC(Z), winner {winner}")
    assert ok


def test_criterion_06_feasibility_always_has_a_side():
    """On 100,000 random tallies some side is feasible and the winner's side is."""
    result = check_condition1(seed=42, n=100_000)
    _report(6, result["passed"],
            f"{result['cases']} tallies, worst best-side slack "
            f"{result['worst_margin']:.3g} (tol -1e-9), {result['failures']} failures")
    assert result["passed"]


def test_criterion_07_single_threshold_schemes_match_the_closed_form():
    """rule4's worst ratio term equals the rule1 bound for single thresholds."""
    worst = 0.0
    for tau in np.linspace(1.0, 20.0, 1000):
        tau = float(tau)
        scheme = ThresholdScheme((1.0,) if tau == 1.0 else (1.0, tau))
        want = bound_value(Rule("rule1", tau), 2)
        worst = max(worst, abs(rule4_delta(scheme) - want))
    ok = worst <= EXACT
    _report(7, ok, f"1000 thresholds in [1, 20], worst gap {worst:.3g} (tol {EXACT:g})")
    assert ok


def test_criterion_08_optimized_schemes_hit_known_optima():
    """Threshold optimization reproduces the m = 1, 2 optima and nears sqrt(2)."""
    taus1, b1 = optimize_thresholds(1)
    taus2, b2 = optimize_thresholds(2)
    _, b8 = optimize_thresholds(8)
    ok = (abs(b1 - 2.0) <= 1e-6 and abs(taus1[0] - 2.0) <= 1e-4
          and abs(b2 - 5.0 / 3.0) <= 1e-6
          and b8 - SQRT2 <= 0.05)
    _report(8, ok, f"m=1 bound {b1:.8f} at tau {taus1[0]:.6f}; m=2 bound {b2:.8f}; "
                   f"m=8 bound {b8:.6f} vs sqrt(2) = {SQRT2:.6f}")
    assert ok


def test_criterion_09_ideal_candidate_tradeoff_holds():
    """rho stays under the tradeoff curve implied by delta on 6,000 instances."""
    result = check_tradeoff(seed=42, n_two=5_000, n_multi=1_000)
    _report(9, result["passed"],
            f"{result['cases']} tradeoff cases, worst margin "
            f"{result['worst_margin']:.3g} (tol 1e-6), {result['failures']} failures")
    assert result["passed"]


def test_criterion_10_uncovered_set_matches_its_definition():
    """On 10,000 random tournaments the two-step kings match a direct check
    and always contain the Copeland winner."""
    rng = np.random.default_rng(42)
    letters = "abcdefghijkl"
    bad = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 13))
        ids = tuple(letters[:n])
        pairs = list(combinations(ids, 2))
        flips = rng.integers(0, 2, len(pairs))
        decisions = {}
        for (p, q), f in zip(pairs, flips):
            winner = p if f else q
            p_score = 1.0 if f else 0.0
            decisions[(p, q)] = PairwiseDecision(winner, p_score, 1.0 - p_score, False)
        g = TournamentGraph(ids, decisions)
        us = uncovered_set(g)
        kings = set()
        for x in ids:
            if all(x == y or g.beats(x, y)
                   or any(g.beats(x, z) and g.beats(z, y) for z in ids)
                   for y in ids):
                kings.add(x)
        if us != kings or not us or copeland_winner(g) not in us:
            bad += 1
    ok = bad == 0
    _report(10, ok, f"10000 tournaments with 2..12 candidates, {bad} mismatches")
    assert ok


def test_criterion_11_search_gets_within_5_percent_of_each_bound():
    """Adversarial search achieves at least 95% of the proven bound."""
    config = SearchConfig(seed=42, grid=400, voters_max=8)
    rules = [Rule("rule1", 1.0), Rule("rule1", 1.0 + SQRT2),
             Rule("rule3", 2.0), Rule("rule5")]
    ratios = []
    for rule in rules:
        _, achieved = adversarial_search(rule, config)
        ratios.append(achieved / bound_value(rule, 2))
    ok = all(r >= 0.95 for r in ratios)
    _report(11, ok, "achieved/bound = " + ", ".join(f"{r:.4f}" for r in ratios)
                    + " (need >= 0.95)")
    assert ok


def test_criterion_12_decisions_are_scale_invariant():
    """Rescaling all distances by c in [1e-3, 1e3] never changes a majority graph."""
    rng = np.random.default_rng(42)
    rules = [Rule("rule1", 2.0), Rule("rule2", 2.0),
             Rule("rule3", 2.0), Rule("rule4", scheme=(1.5, 3.0)),
             Rule("rule5")]
    changed = 0
    for i in range(1000):
        space = "line" if i % 2 == 0 else "euclidean2d"
        ncand = 2 if i % 4 < 2 else 4
        inst = random_instance(rng, space, voters_max=10, num_candidates=ncand)
        factor = float(10.0 ** rng.uniform(-3.0, 3.0))
        scaled = scale_instance(inst, factor)
        for rule in rules:
            before = {pq: d.winner for pq, d in majority_graph(inst, rule).decisions.items()}
            after = {pq: d.winner for pq, d in majority_graph(scaled, rule).decisions.items()}
            if before != after:
                changed += 1
    ok = changed == 0
    _report(12, ok, f"1000 instances x 5 rules rescaled, {changed} graphs changed")
    assert ok
