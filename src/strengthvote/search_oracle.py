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

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .distortion_lab import (actual_distortion, cost_ratio, generate_lower_bound,
                             ideal_point, ideal_tradeoff_bound, lower_bound_target)
from .metric_core import MetricInstance, euclidean_instance, line_instance, social_cost
from .rules import (SQRT2, Rule, _condition1_diff, bound_value, decide_pair,
                    decide_profile, make_rule, rule4_decide, rule4_delta)
# Unused here, but perfbench/tracer.py counts calls through this module attribute.
from .rules import rule4_weights  # noqa: F401
from .tallies import PairwiseTally, ThresholdScheme, exact_profile
from .tournament import TournamentGraph, copeland_winner, majority_graph

SUITES = ("bounds", "lambda", "condition1", "tradeoff", "lowerbounds", "all")

_TAU_GRID = (1.0, 2.0, 1.0 + SQRT2, 5.0)


@dataclass(frozen=True)
class SearchConfig:
    seed: int = 42
    grid: int = 400
    n_instances: int = 200
    voters_max: int = 8
    space: str = "line"
    epsilon: float = 1e-6


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
    """Seeded random instance.

    Line: voters uniform on [-1, 2], candidates P/Q pinned to 0/1 (extra
    candidates uniform). euclidean2d: voters uniform on the unit square,
    candidates at (0,0)/(1,0). extra_point adds a non-candidate witness Z.
    """
    n = int(rng.integers(1, voters_max + 1))
    voters = tuple(f"v{i + 1}" for i in range(n))
    if space == "line":
        pos = {v: float(x) for v, x in zip(voters, rng.uniform(-1.0, 2.0, n))}
        if num_candidates == 2:
            cands = ("P", "Q")
            pos["P"], pos["Q"] = 0.0, 1.0
        else:
            cands = tuple(f"c{j + 1}" for j in range(num_candidates))
            taken = []
            for c in cands:
                x = float(rng.uniform(-1.0, 2.0))
                while x in taken:
                    x = float(rng.uniform(-1.0, 2.0))
                taken.append(x)
                pos[c] = x
        if extra_point:
            pos["Z"] = float(rng.uniform(-1.0, 2.0))
        return line_instance(pos, voters, cands)
    if space == "euclidean2d":
        pts = {v: [float(a) for a in xy] for v, xy in zip(voters, rng.uniform(0.0, 1.0, (n, 2)))}
        if num_candidates == 2:
            cands = ("P", "Q")
            pts["P"], pts["Q"] = [0.0, 0.0], [1.0, 0.0]
        else:
            cands = tuple(f"c{j + 1}" for j in range(num_candidates))
            for c in cands:
                pts[c] = [float(a) for a in rng.uniform(0.0, 1.0, 2)]
        if extra_point:
            pts["Z"] = [float(a) for a in rng.uniform(0.0, 1.0, 2)]
        return euclidean_instance(pts, voters, cands)
    raise ValueError(f"unknown space kind {space!r}")


def _two_candidate_delta(inst: MetricInstance, rule: Rule) -> tuple[str, float]:
    a, b = sorted(inst.candidates)
    winner = decide_pair(inst, a, b, rule).winner
    delta, _ = actual_distortion(inst, winner)
    return winner, delta


def _anchor_instances(rule: Rule, epsilon: float) -> list[MetricInstance]:
    """Deterministic hard instances aimed at each branch of the rule's bound."""
    if rule.kind == "rule5":
        return [generate_lower_bound("exact_sqrt2", epsilon=epsilon)]
    out = []
    if rule.kind in ("rule1", "rule2"):
        out.append(generate_lower_bound("largest", (rule.tau,), epsilon))
        if rule.tau > 1.0 + 2.0 * epsilon:
            out.append(generate_lower_bound("pair", (1.0, rule.tau), epsilon))
    elif rule.kind == "rule3":
        out.append(generate_lower_bound("largest", (rule.tau,), epsilon))
        if rule.tau > 1.0 + 2.0 * epsilon:
            out.append(generate_lower_bound("smallest", (rule.tau,), epsilon))
    else:
        taus = rule.scheme.taus
        out.append(generate_lower_bound("largest", (taus[-1],), epsilon))
        if taus[0] > 1.0 + 2.0 * epsilon:
            out.append(generate_lower_bound("smallest", (taus[0],), epsilon))
        for lo, hi in zip(taus, taus[1:]):
            out.append(generate_lower_bound("pair", (lo, hi), epsilon))
    return out


def _signed_weights(rule: Rule, xs: np.ndarray) -> np.ndarray:
    """Per-position decision weight, signed + toward the candidate at 0."""
    d_p = np.abs(xs)
    d_q = np.abs(xs - 1.0)
    toward_p = d_p <= d_q  # equidistant voters side with the lexicographically smaller P
    near = np.minimum(d_p, d_q)
    far = np.maximum(d_p, d_q)
    s = np.full_like(xs, np.inf)
    np.divide(far, near, out=s, where=near > 0.0)
    w = np.array([rule.weight(x) for x in s.tolist()])
    return np.where(toward_p, w, -w)


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

    for inst in _anchor_instances(rule, config.epsilon):
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


def optimize_thresholds(m: int, tol: float = 1e-8) -> tuple[tuple[float, ...], float]:
    """Thresholds minimizing the rule4 bound, by bisection on the target bound.

    For a candidate bound t the thresholds are forced from the top down:
    the last ratio term pins tau_m = 2/(t-1) and each earlier term pins
    tau_l = (2*tau_{l+1} - (t+1))/(tau_{l+1}*(t-1)); the term is decreasing in
    tau_l, so this minimal chain is the most permissive choice. t is feasible
    iff the chain dips to 1 (fewer thresholds already suffice) or ends with
    tau_1 <= t. The optimum lies in (sqrt(2), 2] and falls toward sqrt(2) as
    m grows, so bisection on that interval always converges.
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
    goal = min(tol, 1e-9) * 1e-2
    while hi - lo > goal:
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


def _two_candidate_rules() -> list[Rule]:
    rules = [make_rule("rule1", tau=t) for t in _TAU_GRID]
    rules += [make_rule("rule2", tau=t) for t in _TAU_GRID if t > 1.0]
    rules += [make_rule("rule3", tau=t) for t in _TAU_GRID]
    rules += [make_rule("rule4", taus=(t,)) for t in _TAU_GRID]
    rules.append(make_rule("rule5"))
    return rules


def check_bounds(seed: int = 42, n_two: int = 10_000, n_multi: int = 2_000,
                 voters_max: int = 20) -> dict:
    """delta never exceeds bound_value, for every rule on every random instance."""
    rng = np.random.default_rng(seed)
    cases = failures = 0
    worst = -math.inf
    rules2 = _two_candidate_rules()
    bounds2 = [bound_value(r, 2) for r in rules2]
    for i in range(n_two):
        inst = random_instance(rng, "line" if i % 2 == 0 else "euclidean2d", voters_max)
        prof = exact_profile(inst, "P", "Q")
        costs = {c: social_cost(inst, c) for c in ("P", "Q")}
        best = min(costs.values())
        for rule, bound in zip(rules2, bounds2):
            margin = cost_ratio(costs[decide_profile(prof, rule).winner], best) - bound
            cases += 1
            worst = max(worst, margin)
            failures += margin > 1e-9
    rules4 = [r for r in rules2 if r.kind != "rule2"]
    bounds4 = [bound_value(r, 4) for r in rules4]
    for i in range(n_multi):
        inst = random_instance(rng, "line" if i % 2 == 0 else "euclidean2d",
                               voters_max, num_candidates=4)
        cands = tuple(sorted(inst.candidates))
        profs = {pq: exact_profile(inst, *pq) for pq in combinations(cands, 2)}
        costs = {c: social_cost(inst, c) for c in cands}
        best = min(costs.values())
        for rule, bound in zip(rules4, bounds4):
            decisions = {pq: decide_profile(prof, rule) for pq, prof in profs.items()}
            winner = copeland_winner(TournamentGraph(cands, decisions))
            margin = cost_ratio(costs[winner], best) - bound
            cases += 1
            worst = max(worst, margin)
            failures += margin > 1e-9
    return {"name": "bounds", "cases": cases, "failures": int(failures),
            "worst_margin": worst, "passed": failures == 0}


def check_lambda(seed: int = 42, n: int = 5_000, voters_max: int = 20) -> dict:
    """Winners satisfy SC(P) <= q_coef*SC(Q) + z_coef*SC(Z) for a random witness Z."""
    rng = np.random.default_rng(seed)
    probes = [
        (make_rule("rule1", tau=2.0), 1.0, 2.0),
        (make_rule("rule1", tau=5.0), 1.0, 2.0),
        (make_rule("rule5"), 1.0, 1.0 + SQRT2),
        (make_rule("rule3", tau=2.0), 2.0, 2.0),
        (make_rule("rule4", taus=(2.0,)), 2.0, 2.0),
        (make_rule("rule4", taus=(1.5, 3.0)), 3.0, 2.0),
    ]
    cases = failures = 0
    worst = -math.inf
    for i in range(n):
        inst = random_instance(rng, "line" if i % 2 == 0 else "euclidean2d",
                               voters_max, extra_point=True)
        prof = exact_profile(inst, "P", "Q")
        costs = {c: social_cost(inst, c) for c in ("P", "Q", "Z")}
        for rule, q_coef, z_coef in probes:
            winner = decide_profile(prof, rule).winner
            loser = "Q" if winner == "P" else "P"
            slack = costs[winner] - q_coef * costs[loser] - z_coef * costs["Z"]
            cases += 1
            worst = max(worst, slack)
            failures += slack > 1e-9
    return {"name": "lambda", "cases": cases, "failures": int(failures),
            "worst_margin": worst, "passed": failures == 0}


def _random_tally(rng: np.random.Generator) -> PairwiseTally:
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


def check_condition1(seed: int = 42, n: int = 100_000) -> dict:
    """Some side of every tally is feasible, and rule4 always picks a feasible side."""
    rng = np.random.default_rng(seed)
    cases = failures = 0
    worst = math.inf
    for _ in range(n):
        tally = _random_tally(rng)
        slack_p = _condition1_diff(tally, "P")
        slack_q = _condition1_diff(tally, "Q")
        winner = rule4_decide(tally, tally.scheme).winner
        winner_slack = slack_p if winner == "P" else slack_q
        cases += 1
        worst = min(worst, max(slack_p, slack_q))
        if max(slack_p, slack_q) < -1e-9 or winner_slack < -1e-9:
            failures += 1
    return {"name": "condition1", "cases": cases, "failures": int(failures),
            "worst_margin": worst, "passed": failures == 0}


def check_tradeoff(seed: int = 42, n_two: int = 5_000, n_multi: int = 1_000,
                   voters_max: int = 20) -> dict:
    """rho stays under the tradeoff curve implied by the measured delta."""
    rng = np.random.default_rng(seed)
    rules = [make_rule("rule1", tau=2.0), make_rule("rule5")]
    cases = failures = 0
    worst = -math.inf

    def run(inst, num_candidates):
        nonlocal cases, failures, worst
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
            cases += 1
            if math.isfinite(limit) and math.isfinite(rho):
                worst = max(worst, rho - limit)
            if rho > limit + 1e-6:
                failures += 1

    for _ in range(n_two):
        run(random_instance(rng, "line", voters_max), 2)
    for _ in range(n_multi):
        run(random_instance(rng, "line", voters_max, num_candidates=4), 4)
    return {"name": "tradeoff", "cases": cases, "failures": int(failures),
            "worst_margin": worst, "passed": failures == 0}


def check_lowerbounds(epsilon: float = 1e-6, tol: float = 1e-5) -> dict:
    """Each generator lands within tol of its target and hands the win to P."""
    grid = (1.5, 2.0, 1.0 + SQRT2, 4.0)
    probes = [("exact_sqrt2", (), make_rule("rule5"))]
    for t in grid:
        probes.append(("smallest", (t,), make_rule("rule4", taus=(t,))))
        probes.append(("largest", (t,), make_rule("rule4", taus=(t,))))
    for lo, hi in combinations(grid, 2):
        probes.append(("pair", (lo, hi), make_rule("rule4", taus=(lo, hi))))
    cases = failures = 0
    worst = 0.0
    for kind, taus, rule in probes:
        inst = generate_lower_bound(kind, taus, epsilon)
        winner, delta = _two_candidate_delta(inst, rule)
        err = abs(delta - lower_bound_target(kind, taus))
        cases += 1
        worst = max(worst, err)
        if winner != "P" or err > tol:
            failures += 1
    return {"name": "lowerbounds", "cases": cases, "failures": int(failures),
            "worst_margin": worst, "passed": failures == 0}


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
    checks = []
    for name in names:
        result = runners[name]()
        if not math.isfinite(result["worst_margin"]):
            result["worst_margin"] = None
        checks.append(result)
    return {"suite": suite, "seed": seed, "checks": checks,
            "passed": all(c["passed"] for c in checks)}
