"""Distortion measurement, ideal-candidate analysis, and hard-instance generators.

delta is the winner's social cost over the best candidate's; rho is the
winner's social cost over the ideal point's, where the ideal point is the
best location anywhere in the space (line median, Euclidean geometric
median, or the best named point for matrix spaces). json_number is the
CLI's one rule for a float in JSON.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .metric_core import EUCLIDEAN, LINE, MetricInstance, line_instance, social_cost
from .rules import SQRT2, Rule, bound_value, lambda_coefficients, ratio_terms
from .tournament import copeland_winner, majority_graph
# Unused here, but perfbench/tracer.py counts calls through this module attribute.
from .rules import decide_pair  # noqa: F401

# family -> (number of thresholds, index into ratio_terms of the term it approaches)
_FAMILIES = {"exact_sqrt2": (0, None), "smallest": (1, 0), "largest": (1, -1), "pair": (2, 1)}
_ARITY_WORDS = ("no thresholds", "exactly one threshold", "exactly two thresholds")
LOWER_BOUND_KINDS = tuple(_FAMILIES)
_WEISZFELD_TOL = 1e-10
_WEISZFELD_MAX_ITER = 10_000


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


def _geometric_median(pts: np.ndarray):
    """Weiszfeld iteration with the voter-coincidence correction step.

    When the iterate lands on eta >= 1 data points, the point is optimal iff
    the residual pull ||sum (x_j - y)/d_j|| of the remaining points is <= eta;
    otherwise the step is damped by eta over that pull. The iteration runs on
    coordinates centred on the first voter, and a step counts as converged when
    it is within _WEISZFELD_TOL of the voters' spread (their bounding box's
    diagonal): both are unchanged by translation, so voters far from the
    origin neither overflow nor stop the iteration early. The unit of length is
    the power of two at or below the spread, so division by it is exact and the
    squares np.linalg.norm sums are those of a spread in [1, 2) at any scale.
    """
    origin = pts[0]
    pts = pts - origin
    spread = math.hypot(*np.ptp(pts, axis=0))
    unit = 2.0 ** (math.frexp(spread)[1] - 1)
    pts, spread = pts / unit, spread / unit
    y = pts.mean(axis=0)
    achieved = math.inf
    for _ in range(_WEISZFELD_MAX_ITER):
        diff = pts - y
        d = np.linalg.norm(diff, axis=1)
        off = d > 0.0
        if not off.any():
            return y * unit + origin, True, 0.0
        inv = 1.0 / d[off]
        tilde = (pts[off] * inv[:, None]).sum(axis=0) / inv.sum()
        eta = int((~off).sum())
        if eta:
            pull = (diff[off] * inv[:, None]).sum(axis=0)
            r = float(np.linalg.norm(pull))
            if r <= eta:
                return y * unit + origin, True, 0.0
            gamma = eta / r
            new = (1.0 - gamma) * tilde + gamma * y
        else:
            new = tilde
        achieved = float(np.linalg.norm(new - y)) / spread
        y = new
        if achieved <= _WEISZFELD_TOL:
            return y * unit + origin, True, achieved
    return y * unit + origin, False, achieved


def _line_ideals(xs: np.ndarray, sizes: list[int]) -> tuple[list[float], list[float]]:
    """The ideal point of each of n line instances and its cost, instance i
    having sizes[i] >= 1 voters, their finite positions joined in order in
    xs: the lower median, and math.fsum of the voters' distances to it. The
    one place a line's ideal point is defined. Row i of an (n, max size)
    table holds instance i's positions, padded with +inf, which sorts after
    them, and its distances, padded with 0.0, which adds nothing to a sum.
    The sort is stable, so -0.0 and 0.0 keep voter order, as sorted()
    does."""
    sizes = np.asarray(sizes)
    within = np.arange(sizes.max()) < sizes[:, None]
    table = np.full(within.shape, math.inf)
    table[within] = xs  # row by row, in order
    table.sort(axis=1, kind="stable")
    meds = table[np.arange(len(sizes)), (sizes - 1) // 2]
    dist = np.where(within, np.abs(table - meds[:, None]), 0.0)
    return meds.tolist(), list(map(math.fsum, dist.tolist()))


def ideal_point(inst: MetricInstance) -> IdealPoint:
    """Best achievable location for the voter population.

    Line: the lower median voter position (exact). Euclidean: the geometric
    median (iterative; after _WEISZFELD_MAX_ITER steps the best iterate is
    returned with converged=False). Matrix: the cheapest named point, by
    math.fsum of its voter distances, ties to the smaller id. A numpy column
    sum brackets each point's cost first, and fsum runs only on the points
    whose bracket reaches the least upper end, the only ones that can win.
    """
    if inst.space == LINE:
        (med,), (cost,) = _line_ideals(inst.voter_points, [len(inst.voters)])
        return IdealPoint(med, cost, "exact")
    if inst.space == EUCLIDEAN:
        points = inst.voter_points
        loc, converged, achieved = _geometric_median(np.array(points, dtype=float))
        loc = tuple(loc.tolist())
        cost = math.fsum(map(math.dist, repeat(loc), points))
        return IdealPoint(loc, cost, "iterative", converged, achieved)
    # Entries are >= 0, so a numpy sum of V of them is off the exact sum by
    # less than V * 2**-52 times itself, and approx * (1 -+ slack) brackets the
    # exact sum and its fsum. A point whose lower end is above some upper end
    # costs more by fsum too, so fsum runs only on the others.
    columns = inst.matrix[inst.voter_points].T
    approx = columns.sum(axis=1)
    slack = len(inst.voters) * 2.0 ** -52
    near = np.flatnonzero(approx * (1.0 - slack) <= (approx * (1.0 + slack)).min())
    best_cost, best = min((math.fsum(columns[p].tolist()), inst.point_ids[p])
                          for p in near.tolist())
    return IdealPoint(best, best_cost, "restricted-to-named-points")


def cost_ratio(cost, best):
    """cost/best; a zero best is degenerate: 1 when cost is also 0, +inf
    otherwise. Elementwise on arrays, which broadcast."""
    cost, best = np.broadcast_arrays(np.asarray(cost, dtype=float), np.asarray(best, dtype=float))
    ratio = np.where(cost == 0.0, 1.0, np.inf)
    np.divide(cost, best, out=ratio, where=best != 0.0)
    return ratio if ratio.ndim else float(ratio)


def actual_distortion(inst: MetricInstance, winner: str) -> tuple[float, bool]:
    """delta = SC(winner)/min_c SC(c) by cost_ratio, and whether the best
    candidate is free (the degenerate case, never raised)."""
    best = min(social_cost(inst, c) for c in inst.candidates)
    return cost_ratio(social_cost(inst, winner), best), best == 0.0


def evaluate_instance(inst: MetricInstance, rule: Rule) -> DistortionReport:
    """Run a rule on an instance and measure its distortion against the bound.

    The winner is Copeland over the rule's majority graph, which for two
    candidates is the pair's winner. A rule with no known bound in the given
    setting reports bound = +inf.
    """
    winner = copeland_winner(majority_graph(inst, rule))
    costs = {c: social_cost(inst, c) for c in inst.candidates}
    sc_w = costs[winner]
    sc_best = min(costs.values())
    delta = cost_ratio(sc_w, sc_best)
    ip = ideal_point(inst)
    rho = cost_ratio(sc_w, ip.cost)
    try:
        bound = bound_value(rule, len(inst.candidates))
    except ValueError:
        bound = math.inf
    return DistortionReport(winner, sc_w, sc_best, ip.cost, delta, rho,
                            bound, bound - delta, ip.exactness, sc_best == 0.0)


def ideal_tradeoff_bound(rule: Rule, delta: float, num_candidates: int = 2) -> float:
    """Upper bound on rho from the rule's lambda_coefficients (q, z):
    z*delta/(delta - q), z at delta = +inf and +inf at or below the pole q,
    doubled beyond two candidates (rule1 and rule5 only). delta < 1 raises
    PoleViolation; rule2 admits no such bound."""
    if delta < 1.0:
        raise PoleViolation(f"distortion {delta} < 1")
    q, z = lambda_coefficients(rule)
    if num_candidates != 2 and rule.kind in ("rule3", "rule4"):
        raise ValueError(f"{rule.kind} has an ideal-candidate bound only for two candidates")
    if delta <= q:
        return math.inf
    base = z if math.isinf(delta) else z * delta / (delta - q)
    return base if num_candidates == 2 else 2.0 * base


def _family_term(kind: str, taus) -> int | None:
    """Index into ratio_terms of the term a family approaches (None for
    exact_sqrt2), after checking the family's name, threshold count and
    threshold domain."""
    if kind not in _FAMILIES:
        raise InvalidParams(f"unknown generator kind {kind!r}")
    arity, term = _FAMILIES[kind]
    if len(taus) != arity:
        raise InvalidParams(f"{kind} takes {_ARITY_WORDS[arity]}")
    if kind == "smallest" and not taus[0] > 1.0:
        raise InvalidParams(f"smallest needs tau_1 > 1, got {taus[0]}")
    if kind == "largest" and not taus[0] >= 1.0:
        raise InvalidParams(f"largest needs tau_m >= 1, got {taus[0]}")
    if kind == "pair" and not 1.0 <= taus[0] < taus[1]:
        raise InvalidParams(f"pair needs 1 <= tau_l < tau_next, got {taus}")
    return term


def lower_bound_target(kind: str, taus=()) -> float:
    """Distortion each generator family approaches as epsilon -> 0: sqrt(2)
    for exact_sqrt2, else the ratio term of its thresholds that it aims at."""
    term = _family_term(kind, taus)
    return SQRT2 if term is None else ratio_terms(taus)[term]


def natural_rule(kind: str, taus=()) -> Rule:
    """The rule a family's instances are aimed at: rule5 for exact_sqrt2,
    else rule4 on the family's thresholds."""
    if kind == "exact_sqrt2":
        return Rule("rule5")
    return Rule("rule4", scheme=taus)


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
    if not 0.0 < epsilon < math.inf:
        raise InvalidParams(f"epsilon must be positive and finite, got {epsilon}")
    if n_per_group < 1:
        raise InvalidParams(f"n_per_group must be >= 1, got {n_per_group}")
    _family_term(kind, taus)

    if kind == "exact_sqrt2":
        s = 1.0 + SQRT2
        groups = [1.0 / (s + 1.0), s / (s - 1.0)]
    elif kind == "smallest":
        s = taus[0] - epsilon
        if not s > 1.0:
            raise InvalidParams(f"epsilon {epsilon} too large for tau_1 = {taus[0]}")
        groups = [s / (s + 1.0)]
    elif kind == "largest":
        s = taus[0] + epsilon
        groups = [1.0 / (s + 1.0), 1.0]
    else:  # pair
        tl, tnext = taus
        sa = tl + epsilon
        sb = tnext - epsilon
        if not (sa < tnext and sb >= tl and sb > 1.0):
            raise InvalidParams(f"epsilon {epsilon} too large for the gap {taus}")
        groups = [1.0 / (sa + 1.0), sb / (sb - 1.0)]

    spots = [pos for pos in groups for _ in range(n_per_group)]
    voters = [f"v{i}" for i in range(1, len(spots) + 1)]
    return line_instance({"P": 0.0, "Q": 1.0, **dict(zip(voters, spots))}, voters, ("P", "Q"))


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


def json_number(x: float) -> float | str:
    """A float as the CLI writes it in JSON: to 10 significant digits when
    finite, else its string ("inf", "-inf" or "nan"), so the JSON is strict."""
    return float(f"{x:.10g}") if math.isfinite(x) else str(x)


def report_to_dict(report: DistortionReport) -> dict:
    return {key: json_number(val) if isinstance(val, float) else val
            for key, val in report.__dict__.items()}


def report_csv(report: DistortionReport, label: str = "") -> str:
    """Single CSV line: label, winner, delta, rho, bound, margin; a field with a
    comma, a quote or a line break is quoted."""
    fields = [label, report.winner] + [
        f"{x:.10g}" for x in (report.delta, report.rho, report.bound, report.margin)
    ]
    line = io.StringIO()
    csv.writer(line).writerow(fields)
    return line.getvalue().removesuffix("\r\n")
