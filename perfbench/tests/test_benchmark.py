"""Tests of the benchmark itself: the gate, the tracer's arithmetic, and metric coverage.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import time
from pathlib import Path

import pytest

import calibrate
import gate
import metrics
import oracle
import tracer
from strengthvote import cli, metric_core, rules, tallies

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

DOC = {
    "space": {"type": "line", "positions": {"a": 0.0, "b": 1.0, "c": 2.5, "v1": 0.2,
                                            "v2": 0.9, "v3": 1.7, "v4": 2.4, "v5": -0.3}},
    "voters": ["v1", "v2", "v3", "v4", "v5"],
    "candidates": ["a", "b", "c"],
}


def _evaluate(tmp_path, rule_flags):
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    inst.write_text(json.dumps(DOC))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["evaluate", "--instance", str(inst), *rule_flags, "--out", str(out)]) == 0
    return gate.fingerprint("evaluate", json.loads(out.read_text()), "")


@pytest.mark.parametrize("rule", [("rule1", 2.0), ("rule4", (1.5, 3.0)), ("rule5", None)])
def test_gate_passes_the_program_and_flags_a_tampered_reference(tmp_path, rule):
    from workloads import rule_flags

    got = _evaluate(tmp_path, rule_flags(rule))
    ref = oracle.evaluate(DOC, rule)
    assert gate.mismatches(got, ref) == []
    other = next(c for c in DOC["candidates"] if c != ref["winner"])
    for key, value in (("winner", other), ("delta", ref["delta"] * (1 + 1e-9)),
                       ("uncovered_set", ref["uncovered_set"] + ["zz"])):
        bad = gate.mismatches(got, {**ref, key: value})
        assert len(bad) == 1 and bad[0].startswith(key)


@pytest.mark.parametrize("rule,space", [(("rule4", (1.5, 3.0)), "line"),
                                        (("rule1", 2.0), "euclidean2d")])
def test_search_reference_matches_the_program(tmp_path, rule, space):
    from workloads import rule_flags

    out = tmp_path / "found.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(["search", *rule_flags(rule), "--grid", "400", "--seed", "5",
                         "--space", space, "--out", str(out)]) == 0
    got = gate.fingerprint("search", json.loads(out.read_text()), stdout.getvalue())
    assert gate.mismatches(got, oracle.SearchReference()(rule, space, 5)) == []


def test_gate_tolerance_applies_only_to_named_fields():
    ref = {"rho": 1.25, "delta": 1.5}
    assert gate.mismatches({"rho": 1.25 * (1 + 1e-12), "delta": 1.5}, ref,
                           gate.EUCLIDEAN_TOLERANCE) == []
    assert gate.mismatches({"rho": 1.25 * (1 + 1e-6), "delta": 1.5}, ref,
                           gate.EUCLIDEAN_TOLERANCE) != []
    assert gate.mismatches({"rho": 1.25, "delta": 1.5 * (1 + 1e-12)}, ref,
                           gate.EUCLIDEAN_TOLERANCE) != []


def test_self_time_of_a_synthetic_span_tree():
    #  a [0, 10]
    #  +- b [1, 4]
    #  |  +- c [2, 3]
    #  +- b [5, 9]
    names = ["a", "b", "c"]
    self_s = tracer.self_times(names, name_idx=[0, 1, 2, 1], start=[0, 1, 2, 5],
                               end=[10, 4, 3, 9], parent=[-1, 0, 1, 0])
    assert self_s == {"a": 3.0, "b": 6.0, "c": 1.0}


def test_tracer_spans_nest_and_uninstall_restores():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = t.span("leaf", leaf)
    outer = t.span("outer", lambda: wrapped_leaf() + wrapped_leaf())
    assert outer() == 2
    assert list(t.parent) == [-1, 0, 0]
    assert t.span_counts() == {"outer": 1, "leaf": 2}
    # outer spans ticks 0..5; each leaf covers one tick
    assert t.self_times() == {"outer": 3.0, "leaf": 2.0}

    originals = (cli.main, metric_core.distance, tallies.ThresholdScheme.bucket,
                 rules.rule4_weights)
    t.install()
    assert cli.main is not originals[0]
    t.uninstall()
    assert (cli.main, metric_core.distance, tallies.ThresholdScheme.bucket,
            rules.rule4_weights) == originals


def test_every_named_metric_is_emitted(tmp_path):
    from workloads import rule_flags

    t = tracer.Tracer()
    t.install()
    try:
        _evaluate(tmp_path, rule_flags(("rule4", (1.5, 3.0))))
    finally:
        t.uninstall()
    records = [{"config": 0, "seconds": 0.5, "traced": True, "error": None,
                "fingerprint": {}}]
    argvs = [["evaluate"]]
    layer = metrics.per_layer(t.summary(1, 0.5, 0.6), records, argvs, failed=0)
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    for name in ("metric_core.builds", "metric_core.distance.calls", "rules.decisions",
                 "tallies.bucket.calls", "rules.rule4_weights.calls", "cli.self_s",
                 "distortion_lab.evaluate.self_s"):
        assert layer[name] > 0, name
    assert layer["tournament.graphs_per_op"] == 2  # evaluate builds the graph twice

    e2e = metrics.end_to_end(records, argvs, [{}], [(0.2, 1.0), (0.3, 1.0)], 40_000)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in e2e.values())


def test_times_are_scaled_to_the_reference_speed():
    # A host running the probe kernel at half the nominal speed halves the times.
    slow = 2 * calibrate.NOMINAL_S
    assert calibrate.scale(slow, slow) == 0.5
    assert calibrate.scale(slow, 0.0) == 1.0
    records = [{"config": 0, "seconds": s, "traced": False, "error": None, "scale": 0.5}
               for s in (0.2, 0.4, 0.6)]
    e2e = metrics.end_to_end(records, [["evaluate"]], [{}], [(0.3, 0.5)], 40_000)
    assert e2e["op_p50_ms"] == pytest.approx(200.0)
    assert e2e["items_per_s"] == pytest.approx(5.0)
    assert e2e["setup_s"] == pytest.approx(0.15)
    assert calibrate.probe() > 0


def test_operation_time_excludes_probes_and_is_scaled_between_them():
    nominal = calibrate.NOMINAL_S
    # probes (start, end, reading): reference speed, then twice as slow
    probes = [(0.0, 0.1, nominal), (1.0, 1.1, nominal), (2.0, 2.1, 2 * nominal)]
    assert calibrate.program_time(probes, 0.2, 0.6) == pytest.approx((0.4, 1.0))
    # 0.5 s at the reference speed, then 0.5 s at a mean reading of 1.5 * nominal
    seconds, factor = calibrate.program_time(probes, 0.6, 1.6)
    assert seconds == pytest.approx(0.9)
    assert seconds * factor == pytest.approx(0.4 + 0.5 / 1.5)


def test_sampler_probes_inside_a_long_operation():
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * calibrate.PROBE_EVERY_S:
            pass
        t1 = time.perf_counter()
    finally:
        sampler.stop()
    assert len(sampler.probes) >= 4
    seconds, factor = sampler.program_time(t0, t1)
    assert 0.0 < seconds < t1 - t0 and factor > 0.0
