"""Turn a workload process's records into the benchmark's named metrics."""

from __future__ import annotations

import statistics
from collections import defaultdict

from gate import VERIFY_CHECKS


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _seconds(rec) -> float:
    """An operation's time at the reference host speed (see calibrate.py); traced
    records carry no scale and keep their time as measured."""
    return rec["seconds"] * rec.get("scale", 1.0)


def _check_seconds(records, argvs) -> dict[str, list[float]]:
    """Untraced seconds per verify check, by check name."""
    out = defaultdict(list)
    for rec in records:
        argv = argvs[rec["config"]]
        if argv[0] == "verify" and not rec["traced"]:
            out[argv[argv.index("--suite") + 1]].append(_seconds(rec))
    return out


def end_to_end(records, argvs, refs, import_samples, peak_rss_kb) -> dict[str, float]:
    """Untraced metrics, with every time at the reference host speed. import_samples
    holds (seconds, scale) pairs. For verify_all an operation is one whole
    `verify --suite all`: its time is the sum over the checks of each check's median
    (p50) or 90th-percentile (p90) time in the run, and an item is one verification case."""
    if argvs[0][0] == "verify":
        per_check = _check_seconds(records, argvs)
        cases = sum(ref["cases"] for ref in refs)
        p50 = sum(statistics.median(v) for v in per_check.values())
        p90 = sum(percentile(v, 90) for v in per_check.values())
        items_per_s = cases / p50
    else:
        lat = [_seconds(rec) for rec in records]
        p50, p90 = statistics.median(lat), percentile(lat, 90)
        items_per_s = len(lat) / sum(lat)
    return {
        "setup_s": statistics.median(s * scale for s, scale in import_samples),
        "items_per_s": items_per_s,
        "op_p50_ms": 1000.0 * p50,
        "op_p90_ms": 1000.0 * p90,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(trace: dict, records, argvs, failed: int) -> dict[str, float]:
    """Traced-run metrics: self times, call counts and ratios per layer."""
    self_s = defaultdict(float, trace["self_s"])
    spans = defaultdict(int, trace["spans"])
    counts = defaultdict(int, trace["counts"])
    distinct = defaultdict(int, trace["distinct"])
    per_check = _check_seconds(records, argvs)
    cases = 0
    for rec in records:
        if rec["traced"] and argvs[rec["config"]][0] == "verify" and rec["fingerprint"]:
            cases += rec["fingerprint"]["cases"]
    decisions = spans["rules.decide"]
    metrics = {
        "metric_core.build.self_s": self_s["metric_core.build"],
        "metric_core.builds": counts["metric_core.builds"],
        "metric_core.distance.calls": counts["metric_core.distance"],
        "metric_core.distance.per_strength": _div(counts["metric_core.distance"],
                                                  counts["metric_core.preference_strength"]),
        "metric_core.social_cost.calls": spans["metric_core.social_cost"],
        "metric_core.social_cost.self_s": self_s["metric_core.social_cost"],
        "metric_core.social_cost.useful_ratio": _div(distinct["metric_core.social_cost"],
                                                     spans["metric_core.social_cost"]),
        "tallies.exact_profile.self_s": self_s["tallies.exact_profile"],
        "tallies.exact_profile.calls": spans["tallies.exact_profile"],
        "tallies.profile.useful_ratio": _div(distinct["tallies.exact_profile"],
                                             spans["tallies.exact_profile"]),
        "tallies.bucket_profile.self_s": self_s["tallies.bucket_profile"],
        "tallies.bucket.calls": counts["tallies.bucket"],
        "rules.decide.self_s": self_s["rules.decide"],
        "rules.decisions": decisions,
        "rules.rule4_weights.calls": counts["rules.rule4_weights"],
        "rules.rule4_weights.per_decision": _div(counts["rules.rule4_weights"], decisions),
        "rules.condition1.self_s": self_s["rules.condition1"],
        "tournament.majority_graph.self_s": self_s["tournament.majority_graph"],
        "tournament.graphs_per_op": _div(spans["tournament.majority_graph"], trace["ops"]),
        "tournament.uncovered_set.self_s": self_s["tournament.uncovered_set"],
        "tournament.copeland.self_s": self_s["tournament.copeland"],
        "distortion_lab.evaluate.self_s": self_s["distortion_lab.evaluate"],
        "distortion_lab.ideal_point.self_s": self_s["distortion_lab.ideal_point"],
        "distortion_lab.generators.self_s": self_s["distortion_lab.generators"],
    }
    for check in VERIFY_CHECKS:
        metrics[f"search_oracle.check.{check}_s"] = sum(per_check.get(check, ()))
    metrics.update({
        "search_oracle.cases": cases,
        "search_oracle.random_instance.self_s": self_s["search_oracle.random_instance"],
        "search_oracle.random_instance.calls": spans["search_oracle.random_instance"],
        "search_oracle.grid_sweep.self_s": self_s["search_oracle.grid_sweep"],
        "search_oracle.adversarial_search.self_s": self_s["search_oracle.adversarial_search"],
        "cli.self_s": self_s["cli"],
        "trace.overhead_ratio": trace["traced_s"] / trace["untraced_s"],
        "error_ratio": failed / len(records),
    })
    return metrics
