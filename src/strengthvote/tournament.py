"""Tournament structure over the pairwise decisions of a rule.

The majority graph is a complete antisymmetric digraph on the candidates (a
tournament, since every pairwise decision names a winner). The uncovered set
collects candidates that reach every other candidate in at most two beat
steps; it is never empty and always contains the Copeland winner. With two
candidates the graph is the one pair, and its winner the Copeland winner.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .metric_core import MetricInstance
from .rules import PairwiseDecision, Rule, decide_pair


@dataclass(frozen=True)
class TournamentGraph:
    candidates: tuple[str, ...]
    decisions: dict[tuple[str, str], PairwiseDecision]

    def __post_init__(self):
        expected = {tuple(sorted(pair)) for pair in combinations(self.candidates, 2)}
        if set(self.decisions) != expected:
            raise ValueError("decisions must cover every unordered candidate pair exactly once")
        for key, dec in self.decisions.items():
            if dec.winner not in key:
                raise ValueError(f"winner {dec.winner!r} is not in the pair {key}")

    def beats(self, a: str, b: str) -> bool:
        if a == b:
            return False
        key = (a, b) if a < b else (b, a)
        return self.decisions[key].winner == a

    def dominated(self, c: str) -> set[str]:
        return {d for d in self.candidates if self.beats(c, d)}


def majority_graph(inst: MetricInstance, rule: Rule) -> TournamentGraph:
    """Decide every candidate pair by decide_pair, whose first call under the
    rule scores them all."""
    pairs = combinations(sorted(inst.candidates), 2)
    decisions = {(p, q): decide_pair(inst, p, q, rule) for p, q in pairs}
    return TournamentGraph(tuple(inst.candidates), decisions)


def uncovered_set(graph: TournamentGraph) -> set[str]:
    """Candidates reaching all others in <= 2 beat steps (the two-step kings)."""
    ids = graph.candidates
    dom = {c: graph.dominated(c) for c in ids}
    kings = set()
    for c in ids:
        reach = set(dom[c])
        for d in dom[c]:
            reach |= dom[d]
        if len(reach) == len(ids) - 1:
            kings.add(c)
    return kings


def copeland_winner(graph: TournamentGraph) -> str:
    """Maximum out-degree candidate, lexicographically smallest on ties."""
    best, best_deg = None, -1
    for c in sorted(graph.candidates):
        deg = len(graph.dominated(c))
        if deg > best_deg:
            best, best_deg = c, deg
    return best
