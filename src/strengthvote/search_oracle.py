"""Randomized and adversarial exploration of the rules, plus threshold tuning.

adversarial_search hunts for high-distortion two-candidate instances three
ways: the deterministic hard-instance families aimed at each branch of the
rule's bound, a vectorized sweep over all two-voter line placements on a
grid (re-checked one instance at a time through the object pipeline), and
seeded random instances. verify_suite packages the statistical invariants
(bounds never violated, lambda inequalities, feasibility, tradeoffs,
generator targets) behind a machine-readable report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .distortion_lab import (actual_distortion, cost_ratio, generate_lower_bound, ideal_point,
                             ideal_tradeoff_bound, lower_bound_target, natural_rule)
from .metric_core import (MetricInstance, _preference, euclidean_instance, line_instance,
                          social_cost)
from .rules import (SQRT2, Rule, _condition1_diff, bound_value, decide_pair,
                    decide_profile, decide_tally, lambda_coefficients, make_rule, rule4_delta)
# Unused here, but perfbench/tracer.py counts calls through these module attributes.
from .rules import rule4_decide, rule4_weights  # noqa: F401
from .tallies import PairwiseTally, ThresholdScheme, exact_profile
from .tournament import TournamentGraph, copeland_winner, majority_graph

SUITES = ("bounds", "lambda", "condition1", "tradeoff", "lowerbounds", "all")

_TAU_GRID = (1.0, 2.0, 1.0 + SQRT2, 5.0)

# How far the anchor instances sit from the cutoffs they aim at.
_EPSILON = 1e-6

# random_instance's spaces: name -> (low, high, dim) of the box [low, high)^dim
_RANDOM_SPACES = {"line": (-1.0, 2.0, 1), "euclidean2d": (0.0, 1.0, 2)}


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 42
    grid: int = 400
    n_instances: int = 200
    voters_max: int = 8
    space: str = "line"


def brute_force_best(inst: MetricInstance) -> tuple[str, float]:
    """Cheapest candidate by social cost, lexicographically smallest on ties."""
    best, cost = None, math.inf
    for c in sorted(inst.candidates):
        sc = social_cost(inst, c)
        if sc < cost:
            best, cost = c, sc
    return best, cost


def random_instance(rng: np.random.Generator, space: str = "line", voters_max: int = 8,
                    num_candidates: int = 2, extra_point: bool = False) -> MetricInstance:
    """Seeded random instance: voters uniform on the space's box (see
    _RANDOM_SPACES), two candidates P/Q pinned to the origin and the first unit
    vector, more candidates uniform on the box and redrawn until no two
    coincide. extra_point adds a non-candidate witness Z.
    """
    try:
        lo, hi, dim = _RANDOM_SPACES[space]
    except KeyError:
        raise ValueError(f"unknown space kind {space!r}") from None
    n = int(rng.integers(1, voters_max + 1))
    voters = tuple(f"v{i + 1}" for i in range(n))
    pts = dict(zip(voters, rng.uniform(lo, hi, (n, dim)).tolist()))
    if num_candidates == 2:
        cands = ("P", "Q")
        pts["P"], pts["Q"] = [0.0] * dim, [1.0] + [0.0] * (dim - 1)
    else:
        cands = tuple(f"c{j + 1}" for j in range(num_candidates))
        taken = []
        for c in cands:
            pt = rng.uniform(lo, hi, dim).tolist()
            while pt in taken:
                pt = rng.uniform(lo, hi, dim).tolist()
            taken.append(pt)
            pts[c] = pt
    if extra_point:
        pts["Z"] = rng.uniform(lo, hi, dim).tolist()
    build = line_instance if dim == 1 else euclidean_instance
    return build(pts, voters, cands)


def _two_candidate_delta(inst: MetricInstance, rule: Rule) -> tuple[str, float]:
    a, b = sorted(inst.candidates)
    winner = decide_pair(inst, a, b, rule).winner
    delta, _ = actual_distortion(inst, winner)
    return winner, delta


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
    w = []
    for x in xs.tolist():
        side, s = _preference("P", abs(x), "Q", abs(x - 1.0))
        w.append(rule.weight(s) if side == "P" else -rule.weight(s))
    return np.array(w)


def _grid_positions(rule: Rule, n: int) -> np.ndarray:
    xs = [np.linspace(-1.0, 2.0, n), np.array([0.0, 0.5, 1.0])]
    cuts = set()
    if rule.kind in ("rule1", "rule2", "rule3"):
        cuts.add(rule.tau)
    elif rule.kind == "rule4":
        cuts.update(rule.scheme.taus)
        cuts.add(rule4_delta(rule.scheme))
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
    sc_w = np.where(p_wins, sc_p, sc_q)
    sc_b = np.minimum(sc_p, sc_q)
    delta = np.ones_like(sc_w)
    np.divide(sc_w, sc_b, out=delta, where=sc_b > 0.0)
    i, j = np.unravel_index(int(np.argmax(delta)), delta.shape)
    return float(xs[i]), float(xs[j]), float(delta[i, j])


def adversarial_search(rule: Rule, config: SearchConfig = SearchConfig()):
    """Highest-distortion two-candidate instance found; returns (instance, delta).

    The winner of the vectorized grid sweep is rebuilt as a real instance and
    re-decided through the object pipeline; any disagreement is an error, as
    is any distortion above the proven bound.
    """
    best_inst, best_delta = None, -math.inf

    def consider(inst):
        nonlocal best_inst, best_delta
        _, delta = _two_candidate_delta(inst, rule)
        if delta > best_delta:
            best_inst, best_delta = inst, delta

    for inst in _anchor_instances(rule):
        consider(inst)
    if config.grid >= 2:
        x, y, grid_delta = _grid_sweep(rule, config.grid)
        inst = line_instance({"P": 0.0, "Q": 1.0, "v1": x, "v2": y}, ("v1", "v2"), ("P", "Q"))
        _, rechecked = _two_candidate_delta(inst, rule)
        if abs(rechecked - grid_delta) > 1e-9 * max(1.0, grid_delta):
            raise AssertionError(
                f"grid sweep disagrees with the pipeline: {grid_delta} vs {rechecked}")
        consider(inst)
    rng = np.random.default_rng(config.seed)
    for _ in range(config.n_instances):
        consider(random_instance(rng, config.space, config.voters_max))
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
    assert taus is not None, "the optimal chain uses every threshold"
    taus = tuple(sorted(taus))
    return taus, rule4_delta(ThresholdScheme(taus))


# ---------------------------------------------------------------------------
# statistical verification suites


_VOTERS_MAX = 20  # most voters in a check's random instance


def _check(worst):
    """Make a check from a generator that yields (margin, failed) per case.

    The check returns {name, cases, failures, worst_margin, passed}: worst is
    max or min over the margins, a None margin is left out of it, and a worst
    margin that is not finite is reported as None."""
    def wrap(cases):
        name = cases.__name__.removeprefix("check_")

        @functools.wraps(cases)
        def check(*args, **kwargs) -> dict:
            count = failures = 0
            worst_margin = -math.inf if worst is max else math.inf
            for margin, failed in cases(*args, **kwargs):
                count += 1
                failures += failed
                if margin is not None:
                    worst_margin = worst(worst_margin, margin)
            return {"name": name, "cases": count, "failures": failures,
                    "worst_margin": worst_margin if math.isfinite(worst_margin) else None,
                    "passed": failures == 0}
        return check
    return wrap


def _alternating_instances(rng: np.random.Generator, count: int, **kwargs):
    """count random instances drawn in turn on the line and in euclidean2d."""
    for i in range(count):
        yield random_instance(rng, ("line", "euclidean2d")[i % 2], _VOTERS_MAX, **kwargs)


def _two_candidate_rules() -> list[Rule]:
    rules = [make_rule("rule1", tau=t) for t in _TAU_GRID]
    rules += [make_rule("rule2", tau=t) for t in _TAU_GRID if t > 1.0]
    rules += [make_rule("rule3", tau=t) for t in _TAU_GRID]
    rules += [make_rule("rule4", taus=(t,)) for t in _TAU_GRID]
    rules.append(make_rule("rule5"))
    return rules


@_check(max)
def check_bounds(seed: int = 42, n_two: int = 10_000, n_multi: int = 2_000):
    """delta never exceeds bound_value, for every rule on every random instance."""
    rng = np.random.default_rng(seed)
    rules2 = _two_candidate_rules()
    rules4 = [r for r in rules2 if r.kind != "rule2"]
    for count, num_candidates, rules in ((n_two, 2, rules2), (n_multi, 4, rules4)):
        bounds = [bound_value(r, num_candidates) for r in rules]
        for inst in _alternating_instances(rng, count, num_candidates=num_candidates):
            cands = tuple(sorted(inst.candidates))
            profs = {pq: exact_profile(inst, *pq) for pq in combinations(cands, 2)}
            costs = {c: social_cost(inst, c) for c in cands}
            best = min(costs.values())
            for rule, bound in zip(rules, bounds):
                if num_candidates == 2:
                    winner = decide_profile(profs[cands], rule).winner
                else:
                    decisions = {pq: decide_profile(prof, rule) for pq, prof in profs.items()}
                    winner = copeland_winner(TournamentGraph(cands, decisions))
                margin = cost_ratio(costs[winner], best) - bound
                yield margin, margin > 1e-9


@_check(max)
def check_lambda(seed: int = 42, n: int = 5_000):
    """Winners satisfy their lambda-inequality SC(W) <= q*SC(Q) + z*SC(Z) for a
    random witness Z, with (q, z) = lambda_coefficients(rule)."""
    rng = np.random.default_rng(seed)
    rules = [make_rule("rule1", tau=2.0), make_rule("rule1", tau=5.0), make_rule("rule5"),
             make_rule("rule3", tau=2.0), make_rule("rule4", taus=(2.0,)),
             make_rule("rule4", taus=(1.5, 3.0))]
    probes = [(rule, *lambda_coefficients(rule)) for rule in rules]
    for inst in _alternating_instances(rng, n, extra_point=True):
        prof = exact_profile(inst, "P", "Q")
        costs = {c: social_cost(inst, c) for c in ("P", "Q", "Z")}
        for rule, q_coef, z_coef in probes:
            winner = decide_profile(prof, rule).winner
            loser = "Q" if winner == "P" else "P"
            slack = costs[winner] - q_coef * costs[loser] - z_coef * costs["Z"]
            yield slack, slack > 1e-9


def _random_tally(rng: np.random.Generator) -> PairwiseTally:
    m = int(rng.integers(1, 5))
    while True:
        # round(x * 1e6) / 1e6 is np.round(x, 6): scale, round half to even, divide
        taus = sorted({round(x * 1e6) / 1e6 for x in rng.uniform(1.0, 6.0, m).tolist()})
        if len(taus) == m and taus[0] > 1.0:
            break
    if rng.random() < 0.25:
        taus[0] = 1.0
    scheme = ThresholdScheme(tuple(taus))
    a = tuple(rng.integers(0, 51, m).tolist())
    b = tuple(rng.integers(0, 51, m).tolist())
    c = 0 if scheme.taus[0] == 1.0 else int(rng.integers(0, 51))
    return PairwiseTally(("P", "Q"), scheme, a, b, c)


@_check(min)
def check_condition1(seed: int = 42, n: int = 100_000):
    """Some side of every tally is feasible, and rule4 always picks a feasible side."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        tally = _random_tally(rng)
        rule = Rule("rule4", scheme=tally.scheme)
        slack_p, slack_q = _condition1_diff(tally, rule)
        winner = decide_tally(tally, rule).winner
        winner_slack = slack_p if winner == "P" else slack_q
        best_slack = max(slack_p, slack_q)
        yield best_slack, best_slack < -1e-9 or winner_slack < -1e-9


@_check(max)
def check_tradeoff(seed: int = 42, n_two: int = 5_000, n_multi: int = 1_000):
    """rho stays under the tradeoff curve implied by the measured delta."""
    rng = np.random.default_rng(seed)
    rules = [make_rule("rule1", tau=2.0), make_rule("rule5")]
    for count, num_candidates in ((n_two, 2), (n_multi, 4)):
        for _ in range(count):
            inst = random_instance(rng, "line", _VOTERS_MAX, num_candidates)
            cands = tuple(sorted(inst.candidates))
            costs = {c: social_cost(inst, c) for c in cands}
            best = min(costs.values())
            ideal = ideal_point(inst)
            for rule in rules:
                if num_candidates == 2:
                    winner = decide_pair(inst, cands[0], cands[1], rule).winner
                else:
                    winner = copeland_winner(majority_graph(inst, rule))
                delta = cost_ratio(costs[winner], best)
                if rule.kind == "rule1" and not delta > 1.01:
                    continue
                rho = cost_ratio(costs[winner], ideal.cost)
                limit = ideal_tradeoff_bound(rule, delta, num_candidates)
                finite = math.isfinite(limit) and math.isfinite(rho)
                yield (rho - limit if finite else None), rho > limit + 1e-6


@_check(max)
def check_lowerbounds(epsilon: float = 1e-6, tol: float = 1e-5):
    """Each generator lands within tol of its target and hands the win to P."""
    grid = (1.5, 2.0, 1.0 + SQRT2, 4.0)
    probes = [("exact_sqrt2", ())]
    for t in grid:
        probes += [("smallest", (t,)), ("largest", (t,))]
    probes += [("pair", pair) for pair in combinations(grid, 2)]
    for kind, taus in probes:
        inst = generate_lower_bound(kind, taus, epsilon)
        winner, delta = _two_candidate_delta(inst, natural_rule(kind, taus))
        err = abs(delta - lower_bound_target(kind, taus))
        yield err, winner != "P" or err > tol


def verify_suite(suite: str, seed: int = 42) -> dict:
    """Run one named suite (or all) and report per-check statistics."""
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
    checks = [runners[name]() for name in names]
    return {"suite": suite, "seed": seed, "checks": checks,
            "passed": all(c["passed"] for c in checks)}
