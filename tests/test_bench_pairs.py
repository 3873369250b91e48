"""scripts/bench_pairs.py on canned result lines and small checkout trees:
the per-metric medians, quartiles and wins, the claim rule, the
regression verdicts, the `--json` record, and the refusal to compare
checkouts whose benchmarks differ. No benchmark runs."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "cue_f1", "unit": "%", "better": "higher", "bound": 0.1}]


def _script():
    spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(wall_s, cue_f1=90.0, failed=0):
    """A record line, then a result line as benchmark/run.py prints them."""
    result = {"correct": failed == 0, "attempted": 40, "failed": failed,
              "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                          "cue_f1": {"value": cue_f1, "unit": "%"}}}
    return json.dumps({"workload": "train-emb"}) + "\n" + json.dumps(result) + "\n"


def _pairs(module, parent_walls, change_walls, **change):
    return [(module.read_result(_stdout(p)), module.read_result(_stdout(c, **change)))
            for p, c in zip(parent_walls, change_walls)]


def _summarize(module, pairs, claim):
    return module.summarize(METRICS, pairs, module.all_stats(METRICS, pairs), claim)


def test_claim_met_when_nine_tenths_won_and_the_gap_exceeds_the_parent_iqr():
    module = _script()
    parent = [0.240, 0.244, 0.238, 0.250, 0.243, 0.241, 0.246, 0.239, 0.242, 0.245]
    change = [0.201, 0.199, 0.205, 0.200, 0.250, 0.198, 0.202, 0.203, 0.200, 0.204]
    lines, verdict = _summarize(module, _pairs(module, parent, change), "wall_s")
    assert verdict is True
    assert lines[0] == "pairs 10; failed units: parent 0/400, change 0/400"
    assert lines[1] == ("wall_s (s, lower is better): parent 0.2425 [0.2402, 0.2447]  "
                        "change 0.2015 [0.2, 0.2037]  change won 9/10")
    assert lines[2] == ("claim wall_s: won 9/10 >= 9/10: yes; median gap 0.041 > parent IQR "
                        "0.0045: yes; met")
    # equal F1 everywhere: every pair is a tie, which counts for neither side
    assert lines[3].endswith("change won 0/10")


def test_claim_not_met_on_too_few_wins_or_a_gap_inside_the_spread():
    module = _script()
    parent = [1.0, 1.1, 0.9, 1.2, 0.8, 1.0, 1.1, 0.9, 1.2, 0.8]
    lines, verdict = _summarize(
        module, _pairs(module, parent, [v - 0.01 for v in parent]), "wall_s")
    assert verdict is False
    assert lines[2].startswith("claim wall_s: won 10/10 >= 9/10: yes; median gap 0.01 > ")
    assert lines[2].endswith(": no; not met")

    lines, verdict = _summarize(
        module, _pairs(module, [1.0] * 10, [0.5] * 8 + [1.5] * 2), "wall_s")
    assert verdict is False
    assert "won 8/10 >= 9/10: no" in lines[2]


def test_higher_is_better_metrics_and_failed_units():
    module = _script()
    pairs = _pairs(module, [1.0, 1.0], [1.0, 1.0], cue_f1=91.0, failed=2)
    lines, verdict = _summarize(module, pairs, "cue_f1")
    assert verdict is True
    assert lines[0] == "pairs 2; failed units: parent 0/80, change 4/80"
    assert lines[2].endswith("change won 2/2")
    assert "won 2/2 >= 9/10: yes; median gap 1 > parent IQR 0: yes; met" in lines[3]


def test_checkouts_whose_benchmarks_differ_are_named(tmp_path):
    module = _script()
    for side in ("parent", "change"):
        (tmp_path / side / "benchmark" / "__pycache__").mkdir(parents=True)
        (tmp_path / side / "benchmark" / "run.py").write_text("x = 1\n")
        (tmp_path / side / "benchmark" / "__pycache__" / "run.pyc").write_bytes(side.encode())
        (tmp_path / side / "BENCHMARK.json").write_text("{}\n")
        (tmp_path / side / "README.md").write_text(side)
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert module.benchmark_differences(parent, change) == []

    (change / "benchmark" / "run.py").write_text("x = 2\n")
    (change / "benchmark" / "extra.py").write_text("")
    (parent / "BENCHMARK.json").write_text("{ }\n")
    assert module.benchmark_differences(parent, change) == [
        "BENCHMARK.json", "benchmark/extra.py", "benchmark/run.py"]
    assert module.main([str(parent), str(change), "--workload", "train-emb",
                        "--seeds", "1", "--seconds", "1"]) == 2


def _verdicts(module, parent_walls, change_walls, claim=None, **change):
    """(verdict lines, whether any metric regressed)."""
    pairs = _pairs(module, parent_walls, change_walls, **change)
    found = module.verdicts(METRICS, module.all_stats(METRICS, pairs), claim)
    return [line for _, _, line in found], any(state == "regression" for _, state, _ in found)


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    module = _script()
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00]
    lines, regressed = _verdicts(module, parent, [v + 0.30 for v in parent])
    assert regressed is True
    assert lines[0] == ("regression wall_s: change worse by 0.3, limit 0.25 "
                        "(0.25 x parent median), parent IQR 0.015: regression")
    assert lines[1].endswith("cue_f1: change worse by 0, limit 9 (0.1 x parent median), "
                             "parent IQR 0: ok")

    lines, regressed = _verdicts(module, parent, [v + 0.20 for v in parent])
    assert regressed is False
    assert lines[0].endswith(": ok")


def test_a_higher_is_better_metric_regresses_downwards_and_the_claim_is_skipped():
    module = _script()
    lines, regressed = _verdicts(module, [1.0] * 4, [0.5] * 4, claim="wall_s", cue_f1=80.0)
    assert regressed is True
    assert lines == ["regression cue_f1: change worse by 10, limit 9 (0.1 x parent median), "
                     "parent IQR 0: regression"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins():
    module = _script()
    parent = [0.6, 1.4, 0.6, 1.4]  # IQR 0.8 > 0.25 x median 1.0
    lines, regressed = _verdicts(module, parent, [1.5] * 4)
    assert regressed is False
    assert lines[0].endswith("parent IQR 0.8: unresolved, the parent's IQR exceeds the limit")
    lines, regressed = _verdicts(module, parent, [0.5] * 4)
    assert regressed is False
    assert lines[0].endswith(": ok, every change run beats every parent run")


def test_main_exits_one_on_a_regression_without_running_a_benchmark(tmp_path, monkeypatch):
    module = _script()
    for side in ("parent", "change"):
        (tmp_path / side / "benchmark").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    walls = {"parent": 1.0, "change": 1.5}
    monkeypatch.setattr(module, "run_once", lambda checkout, workload, seed, seconds:
                        module.read_result(_stdout(walls[checkout.name])))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "train-emb",
            "--seeds", "1", "2", "--seconds", "1"]
    assert module.main(argv) == 1
    walls["change"] = 1.1
    assert module.main(argv) == 0


def test_json_record_holds_the_result_lines_quartiles_and_verdicts(tmp_path, monkeypatch):
    module = _script()
    for side in ("parent", "change"):
        (tmp_path / side / "benchmark").mkdir(parents=True)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    walls = {"parent": [1.0, 1.2, 1.1], "change": [0.8, 0.9, 0.7]}
    monkeypatch.setattr(module, "run_once", lambda checkout, workload, seed, seconds:
                        module.read_result(_stdout(walls[checkout.name][seed - 1])))
    out = tmp_path / "BENCH_x.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "train-emb",
            "--seeds", "1", "2", "3", "--seconds", "1", "--claim", "wall_s", "--json", str(out)]
    assert module.main(argv) == 0
    record = json.loads(out.read_text())
    assert (record["workload"], record["seconds"], record["claim"]) == ("train-emb", 1, "wall_s")
    assert [p["seed"] for p in record["pairs"]] == [1, 2, 3]
    assert record["pairs"][1]["parent"] == module.read_result(_stdout(1.2))
    assert record["pairs"][2]["change"]["metrics"] == {"wall_s": 0.7, "cue_f1": 90.0}
    wall = record["metrics"]["wall_s"]
    assert wall["parent"] == pytest.approx({"median": 1.1, "q1": 1.05, "q3": 1.15})
    assert wall["change"] == pytest.approx({"median": 0.8, "q1": 0.75, "q3": 0.85})
    assert wall["change_won"] == 3
    assert record["metrics"]["cue_f1"]["change_won"] == 0
    assert record["claim_met"] is True
    assert record["verdicts"] == {"cue_f1": "ok"}
    assert record["report"][0] == "pairs 3; failed units: parent 0/120, change 0/120"
    assert record["report"][-1].startswith("regression cue_f1: change worse by 0")

    walls["change"] = [1.5, 1.6, 1.7]
    assert module.main(argv) == 1
    record = json.loads(out.read_text())
    assert record["claim_met"] is False
    assert record["verdicts"] == {"cue_f1": "ok"}
    argv[argv.index("--claim"):argv.index("--claim") + 2] = []
    assert module.main(argv) == 1
    assert json.loads(out.read_text())["verdicts"] == {"wall_s": "regression", "cue_f1": "ok"}
