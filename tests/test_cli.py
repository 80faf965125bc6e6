import csv
import functools
import io
import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from strengthvote import cli, search_oracle, tallies
from strengthvote.cli import main
from strengthvote.metric_core import line_instance, save_instance
from strengthvote.tallies import ThresholdScheme

SQRT2 = math.sqrt(2.0)


@pytest.fixture
def instance_path(tmp_path):
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.3, "v2": 0.8},
                         ("v1", "v2"), ("P", "Q"))
    path = tmp_path / "two.json"
    save_instance(inst, path)
    return str(path)


@pytest.fixture
def multi_path(tmp_path):
    inst = line_instance({"A": 0.0, "B": 1.0, "C": 2.0, "v1": 0.9, "v2": 1.2},
                         ("v1", "v2"), ("A", "B", "C"))
    path = tmp_path / "three.json"
    save_instance(inst, path)
    return str(path)


def test_evaluate_json(instance_path, capsys):
    code = main(["evaluate", "--instance", instance_path, "--rule", "rule1", "--tau", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rule"] == "rule1[tau=2]"
    assert doc["winner"] in ("P", "Q")
    assert doc["delta"] >= 1.0
    assert doc["bound"] == 2.0


def test_evaluate_csv_to_file(instance_path, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["evaluate", "--instance", instance_path, "--rule", "rule5",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "label,winner,delta,rho,bound,margin"
    assert lines[1].startswith(instance_path + ",")


def test_evaluate_csv_quotes_a_label_with_a_comma_or_quote(tmp_path, capsys):
    inst = line_instance({"P": 0.0, "Q": 1.0, "v1": 0.3}, ("v1",), ("P", "Q"))
    path = str(tmp_path / 'x,"y".json')
    save_instance(inst, path)
    assert main(["evaluate", "--instance", path, "--rule", "rule5", "--format", "csv"]) == 0
    header, row = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["label", "winner", "delta", "rho", "bound", "margin"]
    assert row[:2] == [path, "P"] and len(row) == 6


def test_evaluate_multiway_reports_tournament(multi_path, capsys):
    code = main(["evaluate", "--instance", multi_path, "--rule", "rule4",
                 "--taus", "1.5,3"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["copeland_winner"] == doc["winner"]
    assert doc["winner"] in doc["uncovered_set"]


def test_evaluate_rule2_multiway_has_no_bound(multi_path, capsys):
    code = main(["evaluate", "--instance", multi_path, "--rule", "rule2", "--tau", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"] == "inf"


def test_evaluate_builds_each_profile_and_tally_once(tmp_path, monkeypatch, capsys):
    """Five candidates and 50 voters: 10 pairs, each with one profile of 50
    strengths and one tally under the rule's scheme, though the multiway
    report decides every pair twice."""
    rng = random.Random(10)
    voters = [f"v{i}" for i in range(50)]
    cands = [f"c{j}" for j in range(5)]
    pos = {c: float(j) for j, c in enumerate(cands)}
    pos.update((v, rng.uniform(-1.0, 5.0)) for v in voters)
    path = tmp_path / "five.json"
    save_instance(line_instance(pos, voters, cands), path)
    calls = Counter()

    def counted(name, fn):
        """fn, counting the strengths each call handles (its first array argument)."""
        def wrapper(*args, **kwargs):
            calls[name] += np.size(next(a for a in args if isinstance(a, np.ndarray)))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tallies, "_strengths", counted("strengths", tallies._strengths))
    monkeypatch.setattr(ThresholdScheme, "bucket", counted("bucket", ThresholdScheme.bucket))
    assert main(["evaluate", "--instance", str(path), "--rule", "rule4",
                 "--taus", "1.5,3"]) == 0
    assert "uncovered_set" in json.loads(capsys.readouterr().out)
    assert calls == {"strengths": 500, "bucket": 500}


def test_lowerbound_summary(tmp_path, capsys):
    out = tmp_path / "hard.json"
    code = main(["lowerbound", "--kind", "largest", "--taus", "2",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["winner"] == "P"
    assert doc["target"] == 2.0
    assert abs(doc["achieved"] - 2.0) <= 1e-5
    saved = json.loads(out.read_text())
    assert saved["candidates"] == ["P", "Q"]


def test_lowerbound_inline_instance(capsys):
    code = main(["lowerbound", "--kind", "exact_sqrt2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["target"] - SQRT2) <= 1e-9
    assert doc["instance"]["space"]["type"] == "line"


def test_curve_csv_minimum_sits_at_the_sweet_spot(capsys):
    code = main(["curve", "--rule", "rule1", "--tau-min", "1", "--tau-max", "4",
                 "--steps", "301"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "tau,bound"
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    assert len(rows) == 301
    best_tau, best_bound = min(rows, key=lambda r: r[1])
    assert abs(best_tau - (1.0 + SQRT2)) <= 0.011
    assert abs(best_bound - (2.0 * SQRT2 - 1.0)) <= 0.01
    # endpoints of the curve
    assert rows[0] == (1.0, 3.0)
    assert rows[-1][1] == pytest.approx(11.0 / 5.0, abs=1e-9)


def test_curve_json_and_svg(tmp_path, capsys):
    code = main(["curve", "--rule", "rule5", "--steps", "5", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(b == pytest.approx(SQRT2, abs=1e-9) for _, b in doc["points"])

    svg = tmp_path / "curve.svg"
    code = main(["curve", "--rule", "rule3", "--steps", "40", "--format", "svg",
                 "--out", str(svg)])
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg") and "<polyline" in text


def test_curve_argument_validation(capsys):
    assert main(["curve", "--rule", "rule1", "--steps", "1"]) == 2
    assert main(["curve", "--rule", "rule1", "--tau-min", "3", "--tau-max", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_curve_rule2_default_grid_starts_one_step_above_1(capsys):
    """rule2 admits only tau > 1: its default grid drops tau = 1, while an
    explicit --tau-min of 1 is still rejected."""
    assert main(["curve", "--rule", "rule2"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[:3] == ["tau,bound", "1.025,2.951219512", "1.05,2.904761905"]
    assert len(lines) == 121 and lines[-1] == "4,2.2"
    assert main(["curve", "--rule", "rule2", "--tau-min", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: rule2 needs tau > 1, got 1.0\n"


def test_search_summary(capsys):
    code = main(["search", "--rule", "rule3", "--tau", "2", "--seed", "9",
                 "--grid", "60", "--n-instances", "20"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["achieved"] <= doc["bound"] + 1e-9
    assert 0.0 < doc["ratio"] <= 1.0 + 1e-12
    assert doc["instance"]["space"]["type"] == "line"


def test_curve_rule4_json(capsys):
    code = main(["curve", "--rule", "rule4", "--format", "json", "--steps", "7"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"rule": "rule4", "num_candidates": 2,
                   "points": [[1.0, 3.0], [1.5, 2.333333333], [2.0, 2.0], [2.5, 2.5],
                              [3.0, 3.0], [3.5, 3.5], [4.0, 4.0]]}


def test_search_writes_the_instance_to_out(tmp_path, capsys):
    out = tmp_path / "found.json"
    code = main(["search", "--rule", "rule4", "--taus", "1.5,3", "--seed", "9",
                 "--grid", "60", "--n-instances", "20", "--out", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"rule": "rule4[taus=1.5;3]", "achieved": 1.727272724,
                   "bound": 1.727272727, "ratio": 0.9999999982, "voters": 2,
                   "instance_path": str(out)}
    saved = json.loads(out.read_text())
    assert saved["space"]["positions"] == {"P": 0.0, "Q": 1.0,
                                           "v1": 0.399999999, "v2": 1.500000001}
    assert saved["voters"] == ["v1", "v2"] and saved["candidates"] == ["P", "Q"]


def _bound_too_low(monkeypatch):
    monkeypatch.setattr(search_oracle, "bound_value", lambda rule, num_candidates=2: 1.0)


def _wrong_grid_delta(monkeypatch):
    sweep = search_oracle._grid_sweep

    def wrong(rule, n):
        x, y, delta = sweep(rule, n)
        return x, y, delta + 0.5
    monkeypatch.setattr(search_oracle, "_grid_sweep", wrong)


@pytest.mark.parametrize("patch", [_bound_too_low, _wrong_grid_delta])
def test_search_exits_1_on_a_violated_guarantee(patch, monkeypatch, capsys):
    patch(monkeypatch)
    code = main(["search", "--rule", "rule1", "--tau", "2", "--seed", "9",
                 "--grid", "60", "--n-instances", "20"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("violation: ")


def test_verify_exit_code_and_file(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--suite", "lowerbounds", "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_usage_errors_exit_2(instance_path, tmp_path, capsys):
    assert main(["evaluate", "--instance", str(tmp_path / "missing.json"),
                 "--rule", "rule5"]) == 2
    assert main(["evaluate", "--instance", instance_path,
                 "--rule", "rule2", "--tau", "1"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--rule", "rule9"])
    assert exc.value.code == 2


def test_malformed_instance_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["evaluate", "--instance", str(bad), "--rule", "rule5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["evaluate", "--instance", str(deep), "--rule", "rule5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and str(deep) in captured.err


@pytest.mark.parametrize("field, voters, candidates, ids", [
    ("voters", [["v1"]], ["P", "Q"], None),
    ("voters", 5, ["P", "Q"], None),
    ("voters", "v1", ["P", "Q"], None),
    ("candidates", ["v1"], ["P", 2], None),
    ("candidates", ["v1"], "PQ", None),
    ("space.ids", ["v1"], ["P", "Q"], ["P", "Q", ["v1"]]),
    ("space.ids", ["v1"], ["P", "Q"], "PQv"),
])
def test_id_lists_that_are_not_lists_of_strings_exit_2(field, voters, candidates, ids,
                                                       tmp_path, capsys):
    if ids is None:
        space = {"type": "line", "positions": {"P": 0.0, "Q": 1.0, "v1": 0.3}}
    else:
        space = {"type": "matrix", "ids": ids,
                 "distances": [[0, 2, 1], [2, 0, 1], [1, 1, 0]]}
    path = tmp_path / "ids.json"
    path.write_text(json.dumps({"space": space, "voters": voters, "candidates": candidates}))
    assert main(["evaluate", "--instance", str(path), "--rule", "rule5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {field}")


@pytest.mark.parametrize("space", [
    {"type": "line", "positions": {"P": 0.0, "Q": 1.0, "v1": "NaN"}},
    {"type": "line", "positions": {"P": 0.0, "Q": 1.0, "v1": "Infinity"}},
    {"type": "euclidean", "positions": {"P": [0.0, 0.0], "Q": [1.0, 0.0], "v1": [0.5, "NaN"]}},
    {"type": "matrix", "ids": ["P", "Q", "v1"],
     "distances": [[0, 2, 1], [2, 0, "NaN"], [1, "NaN", 0]]},
])
def test_non_finite_instance_exits_2(space, tmp_path, capsys):
    # json.dumps writes the bare NaN / Infinity tokens that json.load accepts
    doc = json.dumps({"space": space, "voters": ["v1"], "candidates": ["P", "Q"]})
    path = tmp_path / "nonfinite.json"
    path.write_text(doc.replace('"NaN"', "NaN").replace('"Infinity"', "Infinity"))
    assert main(["evaluate", "--instance", str(path), "--rule", "rule5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


@pytest.mark.parametrize("space, field", [
    ({"type": "line", "positions": {"P": 0, "Q": 1, "v1": 10**400}}, "positions['v1']"),
    ({"type": "euclidean", "positions": {"P": [0, 0], "Q": [1, 0], "v1": [0.5, -10**400]}},
     "coordinates['v1']"),
    ({"type": "matrix", "ids": ["P", "Q", "v1"],
      "distances": [[0, 2, 1], [2, 0, 10**400], [1, 10**400, 0]]}, "d(Q,v1)"),
])
def test_integer_too_large_for_a_float_exits_2(space, field, tmp_path, capsys):
    path = tmp_path / "huge_int.json"
    path.write_text(json.dumps(_doc(space)))
    assert main(["evaluate", "--instance", str(path), "--rule", "rule5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {field}")


@pytest.mark.parametrize("space, voters", [
    ({"type": "line", "positions": {"P": 0, "Q": 1, "v1": 1e308, "v2": 1.5e308, "v3": -1e308}},
     ["v1", "v2", "v3"]),
    ({"type": "line", "positions": {"P": -1e308, "Q": -1.5e308, "v1": 1.7e308}}, ["v1"]),
    ({"type": "matrix", "ids": ["P", "Q", "v1"],
      "distances": [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]}, ["v1", "v1"]),
])
def test_instance_whose_social_costs_overflow_exits_2(space, voters, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"space": space, "voters": voters, "candidates": ["P", "Q"]}))
    assert main(["evaluate", "--instance", str(path), "--rule", "rule5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "overflow" in captured.err


def test_evaluate_finds_the_ideal_point_where_squared_distances_overflow(tmp_path, capsys):
    """Voters 1.75e300 apart: their squared distances overflow, so the
    geometric median is found in units of the voters' spread."""
    path = tmp_path / "huge_spread.json"
    path.write_text(json.dumps({
        "space": {"type": "euclidean", "positions": {
            "a": [1e300, -3e299], "b": [-1e300, 3e299], "v1": [1.25e300, 0], "v2": [-5e299, 0]}},
        "voters": ["v1", "v2"], "candidates": ["a", "b"]}))
    assert main(["evaluate", "--instance", str(path), "--rule", "rule5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sc_ideal"] == pytest.approx(1.75e300)
    assert math.isfinite(doc["rho"])


def test_a_document_scaled_by_2_to_the_minus_560_prints_the_same_rho(tmp_path, capsys):
    """Five voters, and the same voters 2**-560 times closer: their squared
    distances underflow, yet the geometric median, and so rho, is the same."""
    positions = {"a": [0, 0], "b": [2, 1], "c": [1, 3], "v1": [0.5, 0.25], "v2": [1.5, 1],
                 "v3": [2, 0], "v4": [1, 2.5]}
    rows = []
    for name, scale in (("unit.json", 1.0), ("tiny.json", 2.0 ** -560)):
        path = tmp_path / name
        path.write_text(json.dumps({
            "space": {"type": "euclidean",
                      "positions": {k: [scale * x for x in p] for k, p in positions.items()}},
            "voters": ["v1", "v2", "v3", "v4", "v4"], "candidates": ["a", "b", "c"]}))
        assert main(["evaluate", "--instance", str(path), "--rule", "rule5",
                     "--format", "csv"]) == 0
        rows.append(next(csv.DictReader(io.StringIO(capsys.readouterr().out))))
    assert rows[0]["rho"] == rows[1]["rho"] == "1.226712724"


def _doc(space):
    return {"space": space, "voters": ["v1"], "candidates": ["P", "Q"]}


def _matrix(distances):
    return _doc({"type": "matrix", "ids": ["P", "Q", "v1"], "distances": distances})


@pytest.mark.parametrize("doc, field", [
    ([1], "instance document"),
    ("x", "instance document"),
    (_doc(5), "space"),
    (_doc({"type": "line", "positions": [0, 1]}), "space.positions"),
    (_doc({"type": "euclidean", "positions": "P"}), "space.positions"),
    (_matrix(5), "space.distances"),
    (_matrix({"P": 0}), "space.distances"),
    (_matrix([[0, 2, 1], [2, 0, 1], 5]), "space.distances[2]"),
    (_matrix([[0, 2, 1], [2, 0, None], [1, None, 0]]), "space.distances[1][2]"),
    (_matrix([[0, 2, 1], [2, 0, "1"], [1, "1", 0]]), "space.distances[1][2]"),
    (_matrix([[0, 2, True], [2, 0, 1], [True, 1, 0]]), "space.distances[0][2]"),
    (_matrix([0, 2, 1, 2, 0, 1, 1, 1, None]), "space.distances[8]"),
])
def test_malformed_document_fields_exit_2(doc, field, tmp_path, capsys):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--instance", str(path), "--rule", "rule5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {field}: expected ")


@pytest.mark.parametrize("doc, message", [
    ({**_matrix([[0, 2, 1], [2, 0, 1], [1, 1, 0]]), "candidates": ["P", "Q", "P"]},
     "candidate ids must be distinct"),
    (_matrix([[0, 2, 1], [2, 0], [1, 1, 0]]), "distance matrix must be 3x3"),
    (_doc({"type": "matrix", "ids": ["P", "Q", "P"],
           "distances": [[0, 2, 1], [2, 0, 1], [1, 1, 0]]}),
     "matrix point ids must be distinct"),
    ({**_matrix([[0, 2, 1], [2, 0, 1], [1, 1, 0]]), "candidates": ["P", "ghost"]},
     "unknown point id 'ghost'"),
    ({**_doc({"type": "line", "positions": {"P": 0.0, "Q": 1.0, "v1": 0.3}}),
      "candidates": ["P", "ghost"]}, "unknown point id 'ghost'"),
])
def test_rejected_documents_exit_2_with_their_message(doc, message, tmp_path, capsys):
    path = tmp_path / "rejected.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--instance", str(path), "--rule", "rule5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_a_matrix_entry_just_below_zero_is_read_as_zero(tmp_path, capsys):
    """An entry of -1e-10 passes the matrix check's tolerance and is read as
    0: voter v sits on P, so every rule elects P with delta 1."""
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({
        "space": {"type": "matrix", "ids": ["P", "Q", "v"],
                  "distances": [[0, 1, -1e-10], [1, 0, 1], [-1e-10, 1, 0]]},
        "voters": ["v"], "candidates": ["P", "Q"]}))
    for args in (["--rule", "rule5"], ["--rule", "rule1", "--tau", "2"],
                 ["--rule", "rule4", "--taus", "1.5,3"]):
        assert main(["evaluate", "--instance", str(path), *args]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["winner"], doc["delta"], doc["rho"]) == ("P", 1.0, 1.0)


_LINE = {"type": "line", "positions": {"P": 0.0, "Q": 1.0, "v1": 0.3}}


@pytest.mark.parametrize("doc, field", [
    ({"voters": ["v1"], "candidates": ["P", "Q"]}, "space"),
    ({"space": _LINE, "candidates": ["P", "Q"]}, "voters"),
    ({"space": _LINE, "voters": ["v1"]}, "candidates"),
    (_doc({"positions": _LINE["positions"]}), "space.type"),
    (_doc({"type": "line"}), "space.positions"),
    (_doc({"type": "euclidean"}), "space.positions"),
    (_doc({"type": "matrix", "distances": [[0, 2, 1], [2, 0, 1], [1, 1, 0]]}), "space.ids"),
    (_doc({"type": "matrix", "ids": ["P", "Q", "v1"]}), "space.distances"),
])
def test_missing_document_fields_exit_2(doc, field, tmp_path, capsys):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--instance", str(path), "--rule", "rule5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: instance document is missing field {field!r}\n"


def test_evaluate_measures_and_buckets_once_across_both_graph_builds(tmp_path, monkeypatch,
                                                                    capsys):
    """Five candidates under rule4 (1.5, 3): one kernel call for all ten pairs
    and one bucket call, though the multiway report builds the majority graph
    twice."""
    rng = random.Random(11)
    voters = [f"v{i}" for i in range(30)]
    cands = [f"c{j}" for j in range(5)]
    pos = {c: float(j) for j, c in enumerate(cands)}
    pos.update((v, rng.uniform(-1.0, 5.0)) for v in voters)
    path = tmp_path / "five.json"
    save_instance(line_instance(pos, voters, cands), path)
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
    assert "uncovered_set" in json.loads(capsys.readouterr().out)
    assert calls == {"kernel": 1, "bucket": 1}


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_lowerbound_rejects_a_non_finite_epsilon(epsilon, capsys):
    assert main(["lowerbound", "--kind", "largest", "--taus", "2", "--epsilon", epsilon]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "epsilon" in captured.err


@pytest.mark.parametrize("argv, flag", [
    (["search", "--rule", "rule5", "--voters-max", "0"], "--voters-max"),
    (["search", "--rule", "rule5", "--n-instances", "-1"], "--n-instances"),
    (["search", "--rule", "rule5", "--grid", "-5"], "--grid"),
    (["search", "--rule", "rule5", "--seed", "-1"], "--seed"),
    (["verify", "--suite", "lowerbounds", "--seed", "-1"], "--seed"),
    (["verify", "--suite", "bounds", "--seed", "-1"], "--seed"),
    (["curve", "--rule", "rule1", "--steps", "1"], "--steps"),
    (["curve", "--rule", "rule1", "--num-candidates", "1"], "--num-candidates"),
    (["curve", "--rule", "rule1", "--num-candidates", "0"], "--num-candidates"),
    (["lowerbound", "--kind", "largest", "--taus", "2", "--n", "0"], "--n"),
], ids=["search-voters-max", "search-n-instances", "search-grid", "search-seed",
        "verify-lowerbounds-seed", "verify-bounds-seed", "curve-steps",
        "curve-num-candidates-1", "curve-num-candidates-0", "lowerbound-n"])
def test_out_of_range_integers_exit_2_naming_the_flag(argv, flag, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and flag in captured.err


def test_search_grid_0_and_1_both_skip_the_grid_sweep(monkeypatch, capsys):
    def no_sweep(rule, n):
        raise AssertionError("the grid sweep ran")
    monkeypatch.setattr(search_oracle, "_grid_sweep", no_sweep)
    outputs = []
    for grid in ("0", "1"):
        assert main(["search", "--rule", "rule1", "--tau", "2", "--seed", "9",
                     "--grid", grid, "--n-instances", "20"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("flag", ["--tau-min", "--tau-max"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_curve_rejects_a_non_finite_tau_naming_the_flag(flag, value, capsys):
    # flag=value, because argparse reads a lone -inf as an option name
    assert main(["curve", "--rule", "rule1", f"{flag}={value}", "--steps", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert flag in captured.err and value in captured.err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_lowerbound_rejects_an_epsilon_that_is_not_positive_and_finite(value, monkeypatch,
                                                                        capsys):
    """--epsilon is checked, and named, before any instance is generated."""
    def no_instance(*args):
        raise AssertionError("generate_lower_bound ran")
    monkeypatch.setattr(cli, "generate_lower_bound", no_instance)
    # flag=value, because argparse reads a lone -1 as an option name
    assert main(["lowerbound", "--kind", "largest", "--taus", "2", f"--epsilon={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: --epsilon must be positive and finite, got {float(value)}\n"


def test_verify_timings_go_to_stderr_only(tmp_path, monkeypatch, capsys):
    for name, sizes in (("bounds", {"n_two": 100, "n_multi": 20}), ("lambda", {"n": 50}),
                        ("condition1", {"n": 600}), ("tradeoff", {"n_two": 50, "n_multi": 10})):
        check = getattr(search_oracle, f"check_{name}")
        monkeypatch.setattr(search_oracle, f"check_{name}", functools.partial(check, **sizes))
    runs = []
    for extra in ([], ["--timings"]):
        for out in (None, tmp_path / f"report{len(extra)}.json"):
            argv = ["verify", "--suite", "all", "--seed", "3", *extra]
            if out is not None:
                argv += ["--out", str(out)]
            assert main(argv) == 0
            captured = capsys.readouterr()
            runs.append((captured.out.replace(str(out), "OUT"), captured.err,
                         out.read_text() if out is not None else None))
    (plain, plain_err, _), (plain_to, _, plain_file), (timed, timed_err, _), \
        (timed_to, timed_to_err, timed_file) = runs
    assert (timed, timed_to, timed_file) == (plain, plain_to, plain_file)
    assert plain_err == ""
    names = [c["name"] for c in json.loads(plain)["checks"]]
    for err in (timed_err, timed_to_err):
        lines = err.splitlines()
        assert [line.split(":")[0] for line in lines] == names
        for line, check in zip(lines, json.loads(plain)["checks"]):
            assert f" {check['cases']} cases in " in line and line.endswith(" s")


@pytest.mark.parametrize("argv", [
    ["evaluate", "--instance", "DOC", "--rule", "rule1", "--tau", "1e308"],
    ["search", "--rule", "rule1", "--tau", "1e308", "--grid", "50", "--n-instances", "0"],
    ["evaluate", "--instance", "DOC", "--rule", "rule4", "--taus", "1,1e308"],
    ["evaluate", "--instance", "DOC", "--rule", "rule4", "--taus", "1e200"],
    ["lowerbound", "--kind", "largest", "--taus", "1e308"],
    ["curve", "--rule", "rule4", "--tau-max", "1e308"],
], ids=lambda argv: " ".join(a for a in argv if a not in ("--instance", "DOC")))
def test_thresholds_whose_rule_arithmetic_overflows_exit_2(argv, instance_path, capsys):
    """Ratio terms, weights or condition-1 coefficients that overflow a float
    are rejected as the rule is built: one error line and no output, where
    they used to print an infinite bound or a false violation, or warn."""
    assert main([instance_path if a == "DOC" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["evaluate", "--instance", "DOC", "--rule", "rule3", "--tau", "1e200"],
    ["lowerbound", "--kind", "pair", "--taus", "1.5,3"],
    ["search", "--rule", "rule3", "--tau", "2", "--grid", "50", "--n-instances", "4"],
    ["curve", "--rule", "rule3", "--num-candidates", "3", "--tau-min", "1e200",
     "--tau-max", "2e200", "--steps", "2", "--format", "json"],
    ["verify", "--suite", "lowerbounds"],
], ids=lambda argv: argv[0])
def test_every_command_prints_strict_json(argv, multi_path, capsys):
    """Every command prints strict JSON, with no NaN or Infinity token: rule3
    at tau = 1e200 has the multiway bound tau**2, beyond the float range,
    which prints as the string "inf"."""
    assert main([multi_path if a == "DOC" else a for a in argv]) == 0
    doc = _strict_json(capsys.readouterr().out)
    if argv[0] == "evaluate":
        assert doc["bound"] == doc["margin"] == "inf"
    if argv[0] == "curve":
        assert doc["points"] == [[1e200, "inf"], [2e200, "inf"]]


def test_curve_svg_of_one_point_widens_its_x_range(capsys):
    # rule2's default grid skips tau = 1, so two steps leave the one point tau = 4
    assert main(["curve", "--rule", "rule2", "--steps", "2", "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    assert '<polyline points="50.00,350.00"' in svg
    assert 'font-size="11">4</text>' in svg and 'font-size="11">5</text>' in svg


def test_curve_svg_of_a_flat_bound_widens_its_y_range(capsys):
    assert main(["curve", "--rule", "rule5", "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    assert "nan" not in svg
    assert f'font-size="11">{SQRT2:.10g}</text>' in svg
    assert f'font-size="11">{SQRT2 + 1:.10g}</text>' in svg


def test_curve_svg_leaves_infinite_bounds_out(capsys):
    """rule3's three-candidate bound overflows to inf beyond tau ~ 1e154: the
    SVG draws only the finite bounds over the whole tau range, CSV keeps inf,
    and a range with no finite bound is an error."""
    argv = ["curve", "--rule", "rule3", "--num-candidates", "3", "--tau-min", "1",
            "--tau-max", "1e300", "--steps", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "tau,bound\n1,9\n5e+299,inf\n1e+300,inf\n"
    assert main(argv + ["--format", "svg"]) == 0
    svg = capsys.readouterr().out
    assert "nan" not in svg and "inf" not in svg
    assert '<polyline points="50.00,350.00"' in svg
    for label in ("1", "1e+300", "9", "10"):
        assert f'font-size="11">{label}</text>' in svg
    assert main(["curve", "--rule", "rule3", "--num-candidates", "3", "--tau-min", "1e200",
                 "--tau-max", "2e200", "--steps", "2", "--format", "svg"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no bound") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--rule", "rule2", "--tau-max", "1e300", "--steps", "2"],
    ["--rule", "rule3", "--num-candidates", "3", "--tau-min", "1e153", "--tau-max", "1e160",
     "--steps", "2"],
], ids=["one-tau", "one-finite-bound"])
def test_curve_svg_of_one_huge_point_widens_its_range_by_an_ulp(argv, capsys):
    """Where 1 is below a value's ulp, adding 1 leaves a flat axis range empty;
    the range then widens by one ulp, not to a division by zero."""
    assert main(["curve", *argv, "--format", "svg"]) == 0
    svg = capsys.readouterr().out
    assert '<polyline points="50.00,350.00"' in svg and "nan" not in svg


@pytest.mark.parametrize("command", ["evaluate", "search"])
@pytest.mark.parametrize("flags", [
    ["--rule", "rule1", "--tau", "2", "--taus", "2"],
    ["--rule", "rule2", "--tau", "2", "--taus", "2"],
    ["--rule", "rule3", "--tau", "2", "--taus", "2"],
    ["--rule", "rule4", "--taus", "2", "--tau", "2"],
    ["--rule", "rule5", "--tau", "2"],
], ids=lambda flags: flags[1])
def test_a_threshold_flag_the_rule_does_not_read_exits_2(command, flags, instance_path, capsys):
    """rule1-3 read --tau, rule4 --taus and rule5 neither: a second flag is a
    usage error, not silently dropped."""
    where = (["--instance", instance_path] if command == "evaluate"
             else ["--grid", "50", "--n-instances", "4"])
    assert main([command, *where, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ["evaluate", "--instance", "DOC", "--rule", "rule4"],
    ["search", "--rule", "rule4", "--grid", "50", "--n-instances", "4"],
    ["lowerbound", "--kind", "pair"],
], ids=lambda argv: argv[0])
def test_an_empty_taus_field_exits_2_naming_the_flag(command, instance_path, capsys):
    argv = [instance_path if a == "DOC" else a for a in command]
    for taus in ("1.5,,3", "1.5,3,", ",1.5,3"):
        assert main([*argv, "--taus", taus]) == 2, taus
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "--taus" in err
    # spaces around a number are still read
    assert main([*argv, "--taus", "1.5, 3"]) == 0


@pytest.mark.parametrize("command", [
    ["evaluate", "--instance", "DOC", "--rule", "rule1", "--tau", "2"],
    ["evaluate", "--instance", "DOC", "--rule", "rule5"],
    ["search", "--rule", "rule5", "--grid", "50", "--n-instances", "4"],
    ["lowerbound", "--kind", "exact_sqrt2"],
], ids=["evaluate-rule1", "evaluate-rule5", "search-rule5", "lowerbound"])
def test_an_empty_taus_value_exits_2_naming_the_flag(command, instance_path, capsys):
    """--taus "" is one empty field, not an absent flag."""
    argv = [instance_path if a == "DOC" else a for a in command]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--taus", ""]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --taus has an empty field: ''\n"


def _matrix_60(path):
    """60 points drawn uniformly in the unit square, as a distance matrix: the
    first 6 are the candidates and the other 54 the voters."""
    rng = np.random.default_rng(20261022)
    pts = [tuple(xy) for xy in rng.uniform(0.0, 1.0, (60, 2)).tolist()]
    ids = [f"p{i + 1}" for i in range(60)]
    path.write_text(json.dumps({
        "space": {"type": "matrix", "ids": ids,
                  "distances": [[math.dist(a, b) for b in pts] for a in pts]},
        "voters": ids[6:], "candidates": ids[:6]}))
    return str(path)


@pytest.mark.parametrize("rule, expected", [
    (["--rule", "rule1", "--tau", "2"],
     ("p4", "0x1.0470d61ac313bp+0", "0x1.44f72d77cc2e3p+0", "0x1.44c5e9df0157cp+4")),
    (["--rule", "rule5"],
     ("p5", "0x1.0000000000000p+0", "0x1.3f6cb005db7b0p+0", "0x1.44c5e9df0157cp+4")),
], ids=["rule1", "rule5"])
def test_evaluate_pins_a_60_point_matrix_document(rule, expected, tmp_path, capsys):
    """winner, delta, rho and the ideal point's cost, bit for bit."""
    assert main(["evaluate", "--instance", _matrix_60(tmp_path / "m60.json"), *rule]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["winner"], *(float.hex(doc[k]) for k in ("delta", "rho", "sc_ideal"))) == expected
