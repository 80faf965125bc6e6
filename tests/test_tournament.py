from itertools import combinations

import pytest

from strengthvote.metric_core import line_instance
from strengthvote.rules import PairwiseDecision, Rule
from strengthvote.tournament import (TournamentGraph, copeland_winner, majority_graph,
                                     uncovered_set)


def graph_from_beats(candidates, beats):
    """Build a tournament where `beats` lists the (winner, loser) arcs."""
    wins = {tuple(sorted(pair)): None for pair in combinations(candidates, 2)}
    for w, l in beats:
        wins[tuple(sorted((w, l)))] = w
    decisions = {}
    for (p, q), w in wins.items():
        assert w is not None, (p, q)
        p_score = 1.0 if w == p else 0.0
        decisions[(p, q)] = PairwiseDecision(w, p_score, 1.0 - p_score, False)
    return TournamentGraph(tuple(candidates), decisions)


def test_graph_validation():
    with pytest.raises(ValueError):
        TournamentGraph(("a", "b", "c"),
                        {("a", "b"): PairwiseDecision("a", 1.0, 0.0, False)})
    with pytest.raises(ValueError):
        TournamentGraph(("a", "b"),
                        {("a", "b"): PairwiseDecision("z", 1.0, 0.0, False)})


def test_beats_and_dominated():
    g = graph_from_beats("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert g.beats("a", "b") and not g.beats("b", "a")
    assert not g.beats("a", "a")
    assert g.dominated("a") == {"b", "c"}
    assert g.dominated("c") == set()


def test_condorcet_winner_is_the_whole_uncovered_set():
    g = graph_from_beats("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert uncovered_set(g) == {"a"}
    assert copeland_winner(g) == "a"


def test_three_cycle_is_fully_uncovered():
    g = graph_from_beats("abc", [("a", "b"), ("b", "c"), ("c", "a")])
    assert uncovered_set(g) == {"a", "b", "c"}
    # all out-degrees equal 1, so the tie is lexicographic
    assert copeland_winner(g) == "a"


def test_covered_candidate_is_excluded():
    # d loses to everyone who beats the cycle, and only beats nobody: any
    # candidate whose dominion is a subset of another's dominion is covered
    g = graph_from_beats("abcd", [("a", "b"), ("b", "c"), ("c", "a"),
                                  ("a", "d"), ("b", "d"), ("c", "d")])
    assert uncovered_set(g) == {"a", "b", "c"}
    assert copeland_winner(g) == "a"


def test_two_step_reach_qualifies():
    # e beats only a, but a beats everyone else, so e reaches all in two steps
    g = graph_from_beats("abcde", [("e", "a"), ("a", "b"), ("a", "c"), ("a", "d"),
                                   ("b", "e"), ("c", "e"), ("d", "e"),
                                   ("b", "c"), ("c", "d"), ("d", "b")])
    us = uncovered_set(g)
    assert "e" in us and "a" in us
    assert copeland_winner(g) in us


def test_majority_graph_on_a_line():
    inst = line_instance({"A": 0.0, "B": 1.0, "C": 2.0, "v1": 0.9},
                         ("v1",), ("A", "B", "C"))
    g = majority_graph(inst, Rule("rule1", 2.0))
    assert g.beats("B", "A") and g.beats("B", "C") and g.beats("A", "C")
    assert uncovered_set(g) == {"B"}
    assert copeland_winner(g) == "B"
