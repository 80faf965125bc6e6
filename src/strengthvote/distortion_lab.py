"""Distortion measurement, ideal-candidate analysis, and hard-instance generators.

delta is the winner's social cost over the best candidate's; rho is the
winner's social cost over the ideal point's, where the ideal point is the
best location anywhere in the space (line median, Euclidean geometric
median, or the best named point for matrix spaces).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .metric_core import EUCLIDEAN, LINE, MetricInstance, line_instance, social_cost
from .rules import SQRT2, Rule, bound_value, decide_pair
from .tournament import copeland_winner, majority_graph

LOWER_BOUND_KINDS = ("exact_sqrt2", "smallest", "largest", "pair")


class InvalidParams(ValueError):
    """A generator got parameters outside its admissible range."""


class PoleViolation(ValueError):
    """A distortion below 1 was passed where only delta >= 1 makes sense."""


@dataclass(frozen=True)
class IdealPoint:
    location: object  # float (line), tuple (euclidean), or point id (matrix)
    cost: float
    exactness: str    # "exact" | "iterative" | "restricted-to-named-points"
    converged: bool = True
    tolerance: float = 0.0


@dataclass(frozen=True)
class DistortionReport:
    winner: str
    sc_winner: float
    sc_best: float
    sc_ideal: float
    delta: float
    rho: float
    bound: float
    margin: float
    ideal_exactness: str
    degenerate: bool


def _geometric_median(pts: np.ndarray, tol: float, max_iter: int):
    """Weiszfeld iteration with the voter-coincidence correction step.

    When the iterate lands on eta >= 1 data points, the point is optimal iff
    the residual pull ||sum (x_j - y)/d_j|| of the remaining points is <= eta;
    otherwise the step is damped by eta over that pull. The iteration runs on
    coordinates centred on the first voter, and a step counts as converged when
    it is within tol of the voters' spread (their bounding box's diagonal): both
    are unchanged by translation, so voters far from the origin neither
    overflow nor stop the iteration early.
    """
    origin = pts[0]
    pts = pts - origin
    spread = math.hypot(*np.ptp(pts, axis=0))
    y = pts.mean(axis=0)
    achieved = math.inf
    for _ in range(max_iter):
        diff = pts - y
        d = np.linalg.norm(diff, axis=1)
        off = d > 0.0
        if not off.any():
            return y + origin, True, 0.0
        inv = 1.0 / d[off]
        tilde = (pts[off] * inv[:, None]).sum(axis=0) / inv.sum()
        eta = int((~off).sum())
        if eta:
            pull = (diff[off] * inv[:, None]).sum(axis=0)
            r = float(np.linalg.norm(pull))
            if r <= eta:
                return y + origin, True, 0.0
            gamma = eta / r
            new = (1.0 - gamma) * tilde + gamma * y
        else:
            new = tilde
        achieved = float(np.linalg.norm(new - y)) / spread
        y = new
        if achieved <= tol:
            return y + origin, True, achieved
    return y + origin, False, achieved


def ideal_point(inst: MetricInstance, tol: float = 1e-10, max_iter: int = 10_000) -> IdealPoint:
    """Best achievable location for the voter population.

    Line: the lower median voter position (exact). Euclidean: the geometric
    median (iterative; on hitting max_iter the best iterate is returned with
    converged=False). Matrix: the cheapest named point.
    """
    if inst.space == LINE:
        xs = sorted(inst.coords[v][0] for v in inst.voters)
        med = xs[(len(xs) - 1) // 2]
        cost = math.fsum(abs(x - med) for x in xs)
        return IdealPoint(med, cost, "exact")
    if inst.space == EUCLIDEAN:
        pts = np.array([inst.coords[v] for v in inst.voters], dtype=float)
        loc, converged, achieved = _geometric_median(pts, tol, max_iter)
        cost = math.fsum(math.dist(tuple(loc), tuple(p)) for p in pts)
        return IdealPoint(tuple(float(x) for x in loc), cost, "iterative", converged, achieved)
    best, best_cost = None, math.inf
    for pid in inst.point_ids:
        c = social_cost(inst, pid)
        if c < best_cost or (c == best_cost and pid < best):
            best, best_cost = pid, c
    return IdealPoint(best, best_cost, "restricted-to-named-points")


def cost_ratio(cost: float, best: float) -> float:
    """cost/best; a zero best is degenerate: 1 when cost is also 0, +inf otherwise."""
    if best == 0.0:
        return 1.0 if cost == 0.0 else math.inf
    return cost / best


def actual_distortion(inst: MetricInstance, winner: str) -> tuple[float, bool]:
    """delta = SC(winner)/min_c SC(c) by cost_ratio, and whether the best
    candidate is free (the degenerate case, never raised)."""
    best = min(social_cost(inst, c) for c in inst.candidates)
    return cost_ratio(social_cost(inst, winner), best), best == 0.0


def ideal_distortion(inst: MetricInstance, winner: str, ideal: IdealPoint | None = None) -> float:
    """rho = SC(winner)/SC(ideal point)."""
    ip = ideal if ideal is not None else ideal_point(inst)
    return cost_ratio(social_cost(inst, winner), ip.cost)


def evaluate_instance(inst: MetricInstance, rule: Rule) -> DistortionReport:
    """Run a rule on an instance and measure its distortion against the bound.

    Two candidates are decided directly; with more, the winner is Copeland
    over the rule's majority graph. A rule with no known bound in the given
    setting reports bound = +inf.
    """
    cands = sorted(inst.candidates)
    if len(cands) == 2:
        winner = decide_pair(inst, cands[0], cands[1], rule).winner
    else:
        winner = copeland_winner(majority_graph(inst, rule))
    costs = {c: social_cost(inst, c) for c in inst.candidates}
    sc_w = costs[winner]
    sc_best = min(costs.values())
    delta = cost_ratio(sc_w, sc_best)
    ip = ideal_point(inst)
    rho = cost_ratio(sc_w, ip.cost)
    try:
        bound = bound_value(rule, len(cands))
    except ValueError:
        bound = math.inf
    if math.isinf(bound) and math.isinf(delta):
        margin = math.nan
    else:
        margin = bound - delta
    return DistortionReport(winner, sc_w, sc_best, ip.cost, delta, rho,
                            bound, margin, ip.exactness, sc_best == 0.0)


def cost_bound_holds(inst: MetricInstance, p: str, q: str, z: str,
                     q_coef: float, z_coef: float, tol: float = 1e-9) -> bool:
    """SC(p) <= q_coef*SC(q) + z_coef*SC(z) within tol."""
    return social_cost(inst, p) <= q_coef * social_cost(inst, q) + z_coef * social_cost(inst, z) + tol


def lambda_check(inst: MetricInstance, p: str, q: str, z: str, lam: float,
                 tol: float = 1e-9) -> bool:
    """The lambda-bounded inequality SC(p) <= SC(q) + lam*SC(z) within tol."""
    return cost_bound_holds(inst, p, q, z, 1.0, lam, tol)


def ideal_tradeoff_bound(rule: Rule, delta: float, num_candidates: int = 2) -> float:
    """Upper bound on rho as a function of the measured delta.

    Below the rule's pole (delta <= 1, or delta <= the rule's top threshold
    for rule3/rule4) no finite bound exists and +inf is returned; delta < 1
    is impossible and raises PoleViolation. rule2 admits no such bound.
    """
    if delta < 1.0:
        raise PoleViolation(f"distortion {delta} < 1")
    kind = rule.kind
    if kind == "rule2":
        raise ValueError("rule2 winners admit no ideal-candidate bound")
    if kind in ("rule1", "rule5"):
        lam = 2.0 if kind == "rule1" else 1.0 + SQRT2
        if delta <= 1.0:
            return math.inf
        base = lam if math.isinf(delta) else lam * delta / (delta - 1.0)
        return base if num_candidates == 2 else 2.0 * base
    if num_candidates != 2:
        raise ValueError(f"{kind} has an ideal-candidate bound only for two candidates")
    pole = rule.scheme.taus[-1]
    if delta <= pole:
        return math.inf
    if math.isinf(delta):
        return 2.0
    return 2.0 * delta / (delta - pole)


def lower_bound_target(kind: str, taus=()) -> float:
    """Distortion each generator family approaches as epsilon -> 0."""
    if kind == "exact_sqrt2":
        return SQRT2
    if kind == "smallest":
        (t1,) = taus
        return float(t1)
    if kind == "largest":
        (tm,) = taus
        return (tm + 2.0) / tm
    if kind == "pair":
        tl, tnext = taus
        return (tl * tnext + 2.0 * tnext - 1.0) / (tl * tnext + 1.0)
    raise InvalidParams(f"unknown generator kind {kind!r}")


def generate_lower_bound(kind: str, taus=(), epsilon: float = 1e-6,
                         n_per_group: int = 1) -> MetricInstance:
    """Hard line instances with candidates P at 0 and Q at 1.

    Voters sit so their preference strengths are exactly epsilon away from the
    relevant cutoffs, making the achieved distortion land within a few epsilon
    of lower_bound_target. The natural rule ties on these instances and the
    lexicographic break hands the win to P, the expensive candidate.

    exact_sqrt2: both groups at strength 1+sqrt(2), no thresholds.
    smallest(tau_1 > 1): one group preferring Q at strength tau_1 - epsilon,
        invisible to any scheme starting at tau_1.
    largest(tau_m >= 1): a group on Q (strength +inf) against a group
        preferring P at strength tau_m + epsilon.
    pair(tau_l < tau_{l+1}): strengths tau_l + epsilon toward P against
        tau_{l+1} - epsilon toward Q, both inside the same bucket.
    """
    taus = tuple(float(t) for t in taus)
    if not epsilon > 0.0:
        raise InvalidParams(f"epsilon must be positive, got {epsilon}")
    if n_per_group < 1:
        raise InvalidParams(f"n_per_group must be >= 1, got {n_per_group}")

    if kind == "exact_sqrt2":
        if taus:
            raise InvalidParams("exact_sqrt2 takes no thresholds")
        s = 1.0 + SQRT2
        groups = [(1.0 / (s + 1.0), "toward_p"), (s / (s - 1.0), "toward_q")]
    elif kind == "smallest":
        if len(taus) != 1:
            raise InvalidParams("smallest takes exactly one threshold")
        (t1,) = taus
        if not t1 > 1.0:
            raise InvalidParams(f"smallest needs tau_1 > 1, got {t1}")
        s = t1 - epsilon
        if not s > 1.0:
            raise InvalidParams(f"epsilon {epsilon} too large for tau_1 = {t1}")
        groups = [(s / (s + 1.0), "toward_q")]
    elif kind == "largest":
        if len(taus) != 1:
            raise InvalidParams("largest takes exactly one threshold")
        (tm,) = taus
        if not tm >= 1.0:
            raise InvalidParams(f"largest needs tau_m >= 1, got {tm}")
        s = tm + epsilon
        groups = [(1.0 / (s + 1.0), "toward_p"), (1.0, "toward_q")]
    elif kind == "pair":
        if len(taus) != 2:
            raise InvalidParams("pair takes exactly two thresholds")
        tl, tnext = taus
        if not (1.0 <= tl < tnext):
            raise InvalidParams(f"pair needs 1 <= tau_l < tau_next, got {taus}")
        sa = tl + epsilon
        sb = tnext - epsilon
        if not (sa < tnext and sb >= tl and sb > 1.0):
            raise InvalidParams(f"epsilon {epsilon} too large for the gap {taus}")
        groups = [(1.0 / (sa + 1.0), "toward_p"), (sb / (sb - 1.0), "toward_q")]
    else:
        raise InvalidParams(f"unknown generator kind {kind!r}")

    positions = {"P": 0.0, "Q": 1.0}
    voters = []
    i = 0
    for pos, _ in groups:
        for _ in range(n_per_group):
            i += 1
            name = f"v{i}"
            positions[name] = pos
            voters.append(name)
    return line_instance(positions, voters, ("P", "Q"))


def rule3_counterexample(tau: float, epsilon: float = 1e-6) -> MetricInstance:
    """Single voter, three candidates, every pairwise strength below tau.

    The rule sees nothing, ties cascade to P by the lexicographic break, and
    SC(P) = tau - epsilon can exceed 2*SC(Z) + SC(Q) = 3, so no inequality of
    that shape survives a single inclusive threshold with large tau.
    """
    if not tau > 1.0:
        raise InvalidParams(f"needs tau > 1, got {tau}")
    if not (epsilon > 0.0 and tau - epsilon > 1.0):
        raise InvalidParams(f"epsilon {epsilon} out of range for tau = {tau}")
    positions = {"v1": 0.0, "P": tau - epsilon, "Q": -1.0, "Z": 1.0}
    return line_instance(positions, ("v1",), ("P", "Q", "Z"))


def report_to_dict(report: DistortionReport) -> dict:
    out = {}
    for key, val in report.__dict__.items():
        if isinstance(val, float):
            out[key] = float(f"{val:.10g}") if math.isfinite(val) else str(val)
        else:
            out[key] = val
    return out


def report_json(report: DistortionReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def report_csv(report: DistortionReport, label: str = "") -> str:
    """Single CSV line: label, winner, delta, rho, bound, margin."""
    fields = [label, report.winner] + [
        f"{x:.10g}" for x in (report.delta, report.rho, report.bound, report.margin)
    ]
    return ",".join(fields)
