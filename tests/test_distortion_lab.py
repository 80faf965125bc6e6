import csv
import io
import json
import math
import random
import warnings
from collections import Counter

import pytest

from strengthvote import metric_core, tallies
from strengthvote.cli import main
from strengthvote.distortion_lab import (InvalidParams, PoleViolation,
                                         actual_distortion, cost_ratio,
                                         evaluate_instance, generate_lower_bound,
                                         ideal_point, ideal_tradeoff_bound,
                                         lower_bound_target, report_csv,
                                         report_to_dict, rule3_counterexample)
from strengthvote.metric_core import (MetricInstance, euclidean_instance, line_instance,
                                      matrix_instance, save_instance, scale_instance,
                                      social_cost)
from strengthvote.rules import SQRT2, Rule
from strengthvote.search_oracle import _two_candidate_rules
from strengthvote.tallies import ThresholdScheme
from strengthvote.tournament import copeland_winner, majority_graph

from test_chunk import _winner

TOL = 1e-9


def cost_bound_holds(inst: MetricInstance, p: str, q: str, z: str,
                     q_coef: float, z_coef: float, tol: float = 1e-9) -> bool:
    """SC(p) <= q_coef*SC(q) + z_coef*SC(z) within tol."""
    return social_cost(inst, p) <= q_coef * social_cost(inst, q) + z_coef * social_cost(inst, z) + tol


def test_actual_distortion():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.3}, ("v1",), ("P", "Q"))
    assert actual_distortion(inst, "Q") == (pytest.approx(0.7 / 0.3), False)
    assert actual_distortion(inst, "P") == (1.0, False)


def test_degenerate_distortion():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.0}, ("v1",), ("P", "Q"))
    assert actual_distortion(inst, "P") == (1.0, True)
    assert actual_distortion(inst, "Q") == (math.inf, True)


def test_line_ideal_is_the_lower_median():
    inst = line_instance({"P": -1.0, "Q": 2.0, "v1": 0.0, "v2": 1.0},
                         ("v1", "v2"), ("P", "Q"))
    ip = ideal_point(inst)
    assert ip.location == 0.0
    assert ip.cost == 1.0
    assert ip.exactness == "exact" and ip.converged


def test_euclidean_ideal_square_center():
    inst = euclidean_instance(
        {"P": [0, 0], "Q": [1, 0], "v1": [0, 0], "v2": [1, 0], "v3": [0, 1], "v4": [1, 1]},
        ("v1", "v2", "v3", "v4"), ("P", "Q"))
    ip = ideal_point(inst)
    assert ip.exactness == "iterative" and ip.converged
    assert ip.location == pytest.approx((0.5, 0.5), abs=1e-8)
    assert ip.cost == pytest.approx(2.0 * SQRT2, abs=1e-8)


def test_euclidean_ideal_on_a_voter_pile():
    # the optimum sits exactly on the heavy pile; the iteration must not
    # stall when it lands there
    inst = euclidean_instance(
        {"P": [0, 0], "Q": [1, 0], "v1": [0, 0], "v2": [0, 0], "v3": [0, 0], "v4": [1, 0]},
        ("v1", "v2", "v3", "v4"), ("P", "Q"))
    ip = ideal_point(inst)
    assert ip.location == pytest.approx((0.0, 0.0), abs=1e-7)
    assert ip.cost == pytest.approx(1.0, abs=1e-7)


def test_euclidean_ideal_far_from_the_origin():
    # the median is v3 at cost 0.7; a step measured against the location's
    # norm (1e306, which overflows when squared) stopped after one step
    inst = euclidean_instance(
        {"P": [1e306, 0.0], "Q": [1e306, 1.0],
         "v1": [1e306, 0.2], "v2": [1e306, 0.9], "v3": [1e306, 0.4]},
        ("v1", "v2", "v3"), ("P", "Q"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ip = ideal_point(inst)
    assert ip.converged
    assert ip.cost <= 0.7 + 1e-12


def test_euclidean_ideal_stops_on_an_optimal_voter():
    # the first iterate, the voters' mean, lands on v2, whose neighbours pull
    # it with equal and opposite force: v2 is optimal
    inst = euclidean_instance(
        {"P": [0, 5], "Q": [1, 5], "v1": [-1, 0], "v2": [0, 0], "v3": [1, 0]},
        ("v1", "v2", "v3"), ("P", "Q"))
    ip = ideal_point(inst)
    assert ip.location == (0.0, 0.0)
    assert ip.cost == 2.0
    assert ip.converged


def test_euclidean_ideal_damps_the_step_off_a_voter():
    # the mean lands on v1 at the origin, whose neighbours pull it toward the
    # pile at (1, 0) harder than v1 holds it: the damped step leaves v1, and
    # the iteration reaches the pile, the median, at cost 4 + 1
    inst = euclidean_instance(
        {"P": [0, 5], "Q": [1, 5], "v1": [0, 0], "v2": [1, 0], "v3": [1, 0], "v4": [1, 0],
         "v5": [-3, 0]},
        ("v1", "v2", "v3", "v4", "v5"), ("P", "Q"))
    ip = ideal_point(inst)
    assert ip.converged
    assert ip.cost == pytest.approx(5.0, abs=1e-9)


def test_euclidean_ideal_near_a_voter_it_approaches_too_slowly():
    # the median is v4 at (1, 1), cost 3*sqrt(2); Weiszfeld approaches it from
    # off the voters and may run out of iterations short of it, in which case
    # its best iterate must still be close
    inst = euclidean_instance(
        {"P": [3, 3], "Q": [-2, 4], "v1": [0, 0], "v2": [2, 0], "v3": [0, 2], "v4": [1, 1]},
        ("v1", "v2", "v3", "v4"), ("P", "Q"))
    ip = ideal_point(inst)
    assert ip.cost == pytest.approx(3.0 * SQRT2, rel=1e-8)
    assert ip.location == pytest.approx((1.0, 1.0), abs=1e-3)


def test_single_voter_ideal_is_free():
    inst = euclidean_instance({"P": [0, 0], "Q": [1, 0], "v1": [0.3, 0.4]},
                              ("v1",), ("P", "Q"))
    ip = ideal_point(inst)
    assert ip.cost == 0.0 and ip.converged


def test_matrix_ideal_restricted_to_named_points():
    rows = [[0, 2, 1], [2, 0, 1], [1, 1, 0]]
    inst = matrix_instance(("P", "Q", "hub"), rows, ("P", "Q", "hub"), ("P", "Q"))
    ip = ideal_point(inst)
    assert ip.location == "hub"
    assert ip.cost == 2.0
    assert ip.exactness == "restricted-to-named-points"


def test_ideal_distortion():
    inst = line_instance({"P": -1.0, "Q": 2.0, "v1": 0.0, "v2": 1.0},
                         ("v1", "v2"), ("P", "Q"))
    assert cost_ratio(social_cost(inst, "P"), ideal_point(inst).cost) == pytest.approx(3.0)
    assert cost_ratio(social_cost(inst, "Q"), ideal_point(inst).cost) == pytest.approx(3.0)


def test_evaluate_instance_two_candidates():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.3, "v2": 0.4},
                         ("v1", "v2"), ("P", "Q"))
    report = evaluate_instance(inst, Rule("rule1", 2.0))
    assert report.winner == "P"
    assert report.delta == 1.0
    assert report.bound == 2.0
    assert report.margin == pytest.approx(1.0)
    assert not report.degenerate
    assert report.sc_ideal == pytest.approx(0.1)
    assert report.rho == pytest.approx(social_cost(inst, "P") / report.sc_ideal)


def test_evaluate_instance_multiway_uses_copeland():
    inst = line_instance({"A": 0.0, "B": 1.0, "C": 2.0, "v1": 0.9},
                         ("v1",), ("A", "B", "C"))
    report = evaluate_instance(inst, Rule("rule5"))
    g = majority_graph(inst, Rule("rule5"))
    assert report.winner == copeland_winner(g) == "B"
    assert report.bound == 2.0


def test_evaluate_unbounded_rule_reports_infinite_bound():
    inst = line_instance({"A": 0.0, "B": 1.0, "C": 2.0, "v1": 0.9},
                         ("v1",), ("A", "B", "C"))
    report = evaluate_instance(inst, Rule("rule2", 2.0))
    assert math.isinf(report.bound)
    assert report.margin == math.inf


def test_cost_bound_and_lambda_check():
    inst = line_instance({"P": 0.0, "Q": 1.0, "Z": 0.5, "v1": 0.5},
                         ("v1",), ("P", "Q", "Z"))
    # SC(P) = 0.5, SC(Q) = 0.5, SC(Z) = 0
    assert cost_bound_holds(inst, "P", "Q", "Z", 1.0, 2.0)
    assert not cost_bound_holds(inst, "Q", "Z", "Z", 1.0, 0.5)


def test_ideal_tradeoff_bound_values():
    r1 = Rule("rule1", 2.0)
    assert ideal_tradeoff_bound(r1, 2.0) == pytest.approx(4.0)
    assert ideal_tradeoff_bound(r1, 2.0, num_candidates=3) == pytest.approx(8.0)
    assert ideal_tradeoff_bound(r1, 1.0) == math.inf
    assert ideal_tradeoff_bound(r1, math.inf) == pytest.approx(2.0)

    r5 = Rule("rule5")
    assert ideal_tradeoff_bound(r5, 2.0) == pytest.approx(2.0 * (1.0 + SQRT2))
    assert ideal_tradeoff_bound(r5, math.inf) == pytest.approx(1.0 + SQRT2)

    r3 = Rule("rule3", 2.0)
    assert ideal_tradeoff_bound(r3, 3.0) == pytest.approx(6.0)
    assert ideal_tradeoff_bound(r3, 1.5) == math.inf
    assert ideal_tradeoff_bound(r3, math.inf) == pytest.approx(2.0)

    r4 = Rule("rule4", scheme=(1.5, 3.0))
    assert ideal_tradeoff_bound(r4, 4.0) == pytest.approx(8.0)
    assert ideal_tradeoff_bound(r4, 2.5) == math.inf


def test_ideal_tradeoff_bound_errors():
    with pytest.raises(PoleViolation):
        ideal_tradeoff_bound(Rule("rule1", 2.0), 0.5)
    with pytest.raises(ValueError):
        ideal_tradeoff_bound(Rule("rule2", 2.0), 3.0)
    with pytest.raises(ValueError):
        ideal_tradeoff_bound(Rule("rule3", 2.0), 3.0, num_candidates=3)


def _per_kind_tradeoff_bound(rule, delta, num_candidates):
    """ideal_tradeoff_bound written out per rule kind, as a reference."""
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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("rule", [
    Rule("rule1", 1.0), Rule("rule1", 2.0), Rule("rule2", 2.0),
    Rule("rule3", 1.0), Rule("rule3", 2.5), Rule("rule4", scheme=(2.0,)),
    Rule("rule4", scheme=(1.5, 3.0)), Rule("rule4", scheme=(1.0, 1.7, 4.25)),
    Rule("rule5"),
], ids=lambda rule: rule.label())
def test_ideal_tradeoff_bound_equals_the_per_kind_formulas(rule):
    tau_m = rule.scheme.taus[-1] if rule.scheme is not None else 1.0
    deltas = (1.0, math.nextafter(1.0, math.inf), tau_m, math.nextafter(tau_m, math.inf),
              2.0, 3.0, 1e6, math.inf)
    for delta in deltas:
        for num_candidates in (2, 3):
            want = _outcome(_per_kind_tradeoff_bound, rule, delta, num_candidates)
            got = _outcome(ideal_tradeoff_bound, rule, delta, num_candidates)
            assert got == want, (delta, num_candidates)


@pytest.mark.parametrize("kind, taus", [("pair", (3.0, 1.5)), ("largest", (0.5,)),
                                        ("smallest", (1.0,))])
def test_lower_bound_target_rejects_what_its_generator_rejects(kind, taus):
    with pytest.raises(InvalidParams) as target_error:
        lower_bound_target(kind, taus)
    with pytest.raises(InvalidParams) as generator_error:
        generate_lower_bound(kind, taus)
    assert str(target_error.value) == str(generator_error.value)


def test_lower_bound_targets():
    assert lower_bound_target("exact_sqrt2") == pytest.approx(SQRT2)
    assert lower_bound_target("smallest", (2.0,)) == 2.0
    assert lower_bound_target("largest", (2.0,)) == 2.0
    assert lower_bound_target("largest", (1.0,)) == 3.0
    assert lower_bound_target("pair", (1.0, 2.0)) == pytest.approx(5.0 / 3.0)
    with pytest.raises(InvalidParams):
        lower_bound_target("weird")


def test_generators_hand_the_win_to_the_expensive_candidate():
    eps = 1e-6
    cases = [
        ("exact_sqrt2", (), Rule("rule5")),
        ("smallest", (2.0,), Rule("rule4", scheme=(2.0,))),
        ("largest", (2.0,), Rule("rule4", scheme=(2.0,))),
        ("pair", (1.5, 3.0), Rule("rule4", scheme=(1.5, 3.0))),
    ]
    for kind, taus, rule in cases:
        inst = generate_lower_bound(kind, taus, epsilon=eps)
        report = evaluate_instance(inst, rule)
        assert report.winner == "P", kind
        target = lower_bound_target(kind, taus)
        assert report.delta == pytest.approx(target, abs=1e-5), kind


def test_generator_scales_groups():
    inst = generate_lower_bound("largest", (2.0,), n_per_group=3)
    assert len(inst.voters) == 6


def test_generator_rejects_bad_params():
    with pytest.raises(InvalidParams):
        generate_lower_bound("smallest", (1.0,))
    with pytest.raises(InvalidParams):
        generate_lower_bound("smallest", (2.0,), epsilon=1.5)
    with pytest.raises(InvalidParams):
        generate_lower_bound("pair", (3.0, 1.5))
    with pytest.raises(InvalidParams):
        generate_lower_bound("pair", (1.5, 3.0), epsilon=2.0)
    with pytest.raises(InvalidParams):
        generate_lower_bound("exact_sqrt2", (2.0,))
    with pytest.raises(InvalidParams):
        generate_lower_bound("largest", (2.0,), epsilon=-1.0)
    with pytest.raises(InvalidParams):
        generate_lower_bound("largest", (2.0,), n_per_group=0)


def test_rule3_counterexample_breaks_the_cost_inequality():
    inst = rule3_counterexample(5.0)
    assert not cost_bound_holds(inst, "P", "Q", "Z", 1.0, 2.0)
    assert social_cost(inst, "P") == pytest.approx(5.0, abs=1e-5)
    # the rule really does elect P: every strength is below tau
    g = majority_graph(inst, Rule("rule3", 5.0))
    assert copeland_winner(g) == "P"
    with pytest.raises(InvalidParams):
        rule3_counterexample(1.0)


def test_rule3_counterexample_rejects_an_epsilon_that_leaves_no_strength_above_1():
    # P sits at tau - epsilon, which must stay above 1
    with pytest.raises(InvalidParams, match="epsilon"):
        rule3_counterexample(2.0, epsilon=1.5)
    with pytest.raises(InvalidParams, match="epsilon"):
        rule3_counterexample(2.0, epsilon=0.0)


def test_report_serialization():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.3}, ("v1",), ("P", "Q"))
    report = evaluate_instance(inst, Rule("rule5"))
    doc = json.loads(json.dumps(report_to_dict(report), indent=2))
    assert doc["winner"] == "P"
    assert doc["delta"] == 1.0
    assert doc == report_to_dict(report)
    line = report_csv(report, label="case-7")
    parts = line.split(",")
    assert parts[0] == "case-7" and parts[1] == "P"
    assert len(parts) == 6


def test_report_csv_quotes_a_label_with_a_comma_quote_or_line_break():
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.3}, ("v1",), ("P", "Q"))
    report = evaluate_instance(inst, Rule("rule5"))
    for label in ('x,y', 'x"y', "x\ny", "x\ry", "x\r\ny"):
        line = report_csv(report, label=label)
        assert "\n" not in line.replace(label, "")
        (row,) = csv.reader(io.StringIO(line))
        assert row[:2] == [label, "P"] and len(row) == 6


def test_evaluate_measures_each_voter_distance_to_each_candidate_once(monkeypatch):
    rng = random.Random(8)
    voters = tuple(f"v{i}" for i in range(50))
    cands = tuple(f"c{j}" for j in range(5))
    pos = {c: float(j) for j, c in enumerate(cands)}
    pos.update((v, rng.uniform(-1.0, 5.0)) for v in voters)
    inst = line_instance(pos, voters, cands)
    calls = []
    distance_column = metric_core.distance_column

    def counted(inst, point):
        column = distance_column(inst, point)
        calls.extend((point, d) for d in column.tolist())
        return column

    monkeypatch.setattr(metric_core, "distance_column", counted)
    evaluate_instance(inst, Rule("rule4", scheme=(1.5, 3.0)))
    assert len(calls) == len(voters) * len(cands)


@pytest.mark.parametrize("epsilon", [math.inf, -math.inf, math.nan])
def test_generator_rejects_a_non_finite_epsilon(epsilon):
    with pytest.raises(InvalidParams, match="epsilon"):
        generate_lower_bound("largest", (2.0,), epsilon)


def _tie_heavy(rng, num_candidates):
    """A line instance on half-integer spots in [-3, 6]: many voters are
    equidistant from a pair, sit on a candidate, or have a strength of
    exactly 1.5, 2, 3 or 4."""
    spots = [k / 2 for k in range(-6, 13)]
    cands = tuple(f"c{j}" for j in range(num_candidates))
    pos = dict(zip(cands, rng.sample(spots, num_candidates)))
    voters = tuple(f"v{i}" for i in range(rng.randint(1, 12)))
    pos.update((v, rng.choice(spots)) for v in voters)
    return line_instance(pos, voters, cands)


@pytest.mark.parametrize("num_candidates", [2, 4])
def test_evaluate_names_the_chunk_winner_on_tie_heavy_instances(num_candidates):
    rng = random.Random(1600 + num_candidates)
    for _ in range(30):
        inst = _tie_heavy(rng, num_candidates)
        for rule in _two_candidate_rules():
            assert evaluate_instance(inst, rule).winner == _winner(inst, rule), rule.label()


def test_two_candidate_evaluate_measures_and_buckets_once(tmp_path, monkeypatch, capsys):
    """Two candidates go through the majority graph too: one kernel call and
    one bucket call under rule4 (1.5, 3)."""
    rng = random.Random(16)
    voters = [f"v{i}" for i in range(30)]
    pos = {"P": 0.0, "Q": 1.0}
    pos.update((v, rng.uniform(-1.0, 2.0)) for v in voters)
    path = tmp_path / "two.json"
    save_instance(line_instance(pos, voters, ("P", "Q")), path)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tallies, "_strengths", counted("kernel", tallies._strengths))
    monkeypatch.setattr(ThresholdScheme, "bucket", counted("bucket", ThresholdScheme.bucket))
    assert main(["evaluate", "--instance", str(path), "--rule", "rule4",
                 "--taus", "1.5,3"]) == 0
    assert json.loads(capsys.readouterr().out)["winner"] in ("P", "Q")
    assert calls == {"kernel": 1, "bucket": 1}


def _scale_case(space, seed):
    """Seeded voters and candidates, one voter repeated and one on a candidate."""
    rng = random.Random(seed)
    dim = {"line": 1, "euclidean2d": 2, "euclidean3d": 3}[space]
    cands = tuple(f"c{j}" for j in range(rng.randint(2, 4)))
    voters = tuple(f"v{i}" for i in range(rng.randint(5, 12)))
    pos = {x: [rng.uniform(-5.0, 5.0) for _ in range(dim)] for x in cands + voters}
    voters += (voters[0], cands[-1])
    if space == "line":
        return line_instance({x: p[0] for x, p in pos.items()}, voters, cands)
    return euclidean_instance(pos, voters, cands)


_SCALE_CASES = [(space, seed) for space in ("line", "euclidean2d", "euclidean3d")
                for seed in range(1700, 1704)]


@pytest.mark.parametrize("space, seed", _SCALE_CASES)
def test_evaluate_is_exactly_invariant_under_power_of_two_scaling(space, seed):
    """Scaling a document by 2**k scales its social costs by 2**k, bit for bit,
    and leaves every ratio, the winner and the flags as they were, down to
    spreads where squared distances underflow and up to where they overflow.
    The Euclidean cases have a geometric median off the voters, so Weiszfeld
    converges quickly. Matrix documents are left out: their metric check uses
    an absolute tolerance, so a scaled matrix can be rejected."""
    inst = _scale_case(space, seed)
    ip = ideal_point(inst)
    if inst.space != "line":
        assert ip.converged
        assert ip.location not in {inst.coords[v] for v in inst.voters}
    rules = [Rule("rule1", 2.0), Rule("rule2", 2.0),
             Rule("rule3", 2.0), Rule("rule4", scheme=(1.5, 3.0)),
             Rule("rule5")]
    exact = ("winner", "delta", "rho", "bound", "margin", "degenerate", "ideal_exactness")
    costs = ("sc_winner", "sc_best", "sc_ideal")
    for rule in rules:
        base = evaluate_instance(inst, rule)
        for k in (-900, -560, -300, 300, 560, 900):
            scaled = evaluate_instance(scale_instance(inst, 2.0 ** k), rule)
            assert ([getattr(scaled, f) for f in exact]
                    == [getattr(base, f) for f in exact]), (rule, k)
            assert ([float.hex(getattr(scaled, f)) for f in costs]
                    == [float.hex(math.ldexp(getattr(base, f), k)) for f in costs]), (rule, k)
