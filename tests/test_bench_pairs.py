"""tools/bench_pairs.py: its summary statistics on fixed input, and its run
order and output file on two stub checkouts."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = {"op_p90_ms": [0.50, 0.52, 0.47, 0.46, 0.55],
          "ok_ops_per_s": [100, 110, 90, 105, 95],
          "mystery": [1, 2, 3, 4, 5]}
CHANGE = {"op_p90_ms": [0.35, 0.30, 0.40, 0.36, 0.37],
          "ok_ops_per_s": [104, 108, 95, 110, 99],
          "mystery": [5, 4, 3, 2, 1]}
BETTER = {"op_p90_ms": "lower", "ok_ops_per_s": "higher"}


def pairs():
    return [({k: v[i] for k, v in PARENT.items()}, {k: v[i] for k, v in CHANGE.items()})
            for i in range(5)]


def test_quartiles_and_wins_of_a_clear_gain():
    entry = bench_pairs.summarize(pairs(), BETTER)["op_p90_ms"]
    assert entry["parent"] == pytest.approx({"median": 0.50, "q1": 0.465, "q3": 0.535})
    assert entry["change"] == pytest.approx({"median": 0.36, "q1": 0.325, "q3": 0.385})
    # 5/5 wins and a median gain of 0.14 against the parent's IQR of 0.07
    assert (entry["better"], entry["wins"], entry["pairs"]) == ("lower", 5, 5)
    assert entry["claim_holds"] is True


def test_four_wins_in_five_is_no_claim():
    entry = bench_pairs.summarize(pairs(), BETTER)["ok_ops_per_s"]
    assert entry["parent"] == pytest.approx({"median": 100, "q1": 92.5, "q3": 107.5})
    assert (entry["better"], entry["wins"]) == ("higher", 4)
    assert entry["claim_holds"] is False


def test_all_wins_inside_the_parents_spread_is_no_claim():
    parent = [{"wall_s": v} for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"wall_s": v - 0.5} for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    entry = bench_pairs.summarize(list(zip(parent, change)), {"wall_s": "lower"})["wall_s"]
    assert entry["wins"] == 5 and entry["claim_holds"] is False


def test_metric_without_direction_gets_no_wins():
    entry = bench_pairs.summarize(pairs(), BETTER)["mystery"]
    assert set(entry) == {"parent", "change"}
    assert entry["parent"]["median"] == entry["change"]["median"] == 3


def test_one_pair_has_degenerate_quartiles():
    entry = bench_pairs.summarize(pairs()[:1], BETTER)["op_p90_ms"]
    assert entry["parent"] == {"median": 0.50, "q1": 0.50, "q3": 0.50}
    assert entry["wins"] == 1


def test_directions_come_from_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        better = bench_pairs.directions(json.load(f))
    assert better["op_p90_ms"] == "lower" and better["ok_ops_per_s"] == "higher"


def test_bounds_cover_only_end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = bench_pairs.bounds(bench)
    assert set(bounds) == {m["name"] for m in bench["end_to_end"]}
    assert bounds["op_p90_ms"] == 0.25 and "qint.radicand_checks" not in bounds


@pytest.mark.parametrize("better, change, regressed", [
    # parent median 1.0, bound 0.2: worse by more than 0.2 is a regression
    ("lower", 1.25, True), ("lower", 1.15, False), ("lower", 0.5, False),
    ("higher", 0.75, True), ("higher", 0.85, False), ("higher", 2.0, False),
])
def test_regressed_is_worse_than_the_bound(better, change, regressed):
    pairs = [({"x": 1.0}, {"x": change})] * 3
    entry = bench_pairs.summarize(pairs, {"x": better}, {"x": 0.2})["x"]
    assert entry["regressed"] is regressed


@pytest.mark.parametrize("better, parent, change, unresolved", [
    # parent median 1.0 and IQR 0.5 against a bound of 0.2: too wide to tell
    ("lower", [0.5, 0.75, 1.0, 1.25, 1.5], [0.8, 1.0, 1.1, 0.9, 1.0], True),
    # as wide, but every change run beats every parent run
    ("lower", [0.5, 0.75, 1.0, 1.25, 1.5], [0.4, 0.3, 0.45, 0.35, 0.4], False),
    ("higher", [0.5, 0.75, 1.0, 1.25, 1.5], [1.6, 1.7, 2.0, 1.8, 1.9], False),
    # IQR 0.1, inside the bound, even with overlapping runs
    ("lower", [0.9, 0.95, 1.0, 1.05, 1.1], [1.0, 1.05, 0.9, 1.1, 0.95], False),
])
def test_unresolved_is_a_parent_spread_wider_than_the_bound(better, parent, change,
                                                            unresolved):
    pairs = [({"x": p}, {"x": c}) for p, c in zip(parent, change)]
    entry = bench_pairs.summarize(pairs, {"x": better}, {"x": 0.2})["x"]
    assert entry["regressed"] is False
    assert entry["unresolved"] is unresolved


def test_metric_without_a_bound_gets_no_flag():
    summary = bench_pairs.summarize(pairs(), BETTER, {"op_p90_ms": 0.25})
    assert summary["op_p90_ms"]["regressed"] is False
    assert "regressed" not in summary["ok_ops_per_s"]
    assert "regressed" not in summary["mystery"]
    assert summary["op_p90_ms"]["unresolved"] is False
    assert "unresolved" not in summary["ok_ops_per_s"]


STUB_RUN = """\
import json, os, sys
here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(os.path.dirname(here), "log"), "a") as f:
    f.write(os.path.basename(here) + " " + " ".join(sys.argv[1:]) + "\\n")
print("human line")
value = {"parent": 0.5, "change": 0.4}[os.path.basename(here)]
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"op_p90_ms": {"value": value, "unit": "ms"}}}))
"""


def test_runs_alternate_and_the_file_holds_every_run(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        os.makedirs(tmp_path / side / "perfbench")
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 5,
         "end_to_end": [{"name": "op_p90_ms", "better": "lower", "bound": 0.25}],
         "per_layer": []}))
    monkeypatch.setattr(bench_pairs, "HERE", str(tmp_path / "change"))
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--workload", "units",
                             "--seeds", "31,61", "--pairs", "3", "--out-dir", str(tmp_path)])
    assert code == 0
    log = (tmp_path / "log").read_text().splitlines()
    order = ["parent", "change", "change", "parent", "parent", "change"]
    assert [line.split()[0] for line in log] == order * 2
    assert log[0] == "parent --workload units --seed 31 --seconds 5 --trace 0"
    assert log[-1] == "change --workload units --seed 61 --seconds 5 --trace 0"
    doc = json.loads((tmp_path / "BENCH_units.json").read_text())
    assert (doc["workload"], doc["seconds"], doc["trace"]) == ("units", 5, 0)
    assert doc["machine"]["seed"] == [31, 61] and "commit" in doc["machine"]
    runs = doc["seeds"]["31"]["runs"]
    assert [r["first"] for r in runs] == ["parent", "change", "parent"]
    assert all(r["parent"] == {"op_p90_ms": 0.5} and r["change"] == {"op_p90_ms": 0.4}
               for r in runs)
    summary = doc["seeds"]["61"]["summary"]["op_p90_ms"]
    assert summary["wins"] == 3 and summary["claim_holds"] is True
    assert summary["regressed"] is False
    printed = [line for line in capsys.readouterr().out.splitlines() if "claim_holds" in line]
    assert len(printed) == 2 and all(line.endswith(" regressed False") for line in printed)


def test_a_wrong_answer_stops_the_run(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        os.makedirs(tmp_path / side / "perfbench")
        (tmp_path / side / "perfbench" / "run.py").write_text(
            'import json; print(json.dumps({"correct": False, "metrics": {}}))')
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 5, "end_to_end": [], "per_layer": []}))
    monkeypatch.setattr(bench_pairs, "HERE", str(tmp_path / "change"))
    with pytest.raises(SystemExit, match="seed 31 failed"):
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--workload", "units",
                          "--seeds", "31", "--out-dir", str(tmp_path)])
    assert not (tmp_path / "BENCH_units.json").exists()
