import json
import math

import pytest

from strengthvote.cli import main
from strengthvote.metric_core import line_instance, save_instance

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


def test_search_summary(capsys):
    code = main(["search", "--rule", "rule3", "--tau", "2", "--seed", "9",
                 "--grid", "60", "--n-instances", "20"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["achieved"] <= doc["bound"] + 1e-9
    assert 0.0 < doc["ratio"] <= 1.0 + 1e-12
    assert doc["instance"]["space"]["type"] == "line"


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
