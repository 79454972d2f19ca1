"""The parsers of tools/bench_file.py on canned perfbench and pytest output."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_file", Path(__file__).resolve().parent.parent / "tools" / "bench_file.py"
)
bench_file = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_file)

DETAILS = {"workload": "library_warm", "seed": 1, "seconds": 25.0, "trace": False,
           "latency": {"samples": 3510, "tail_percentile": 99.0}, "failures": []}
RESULT = {"correct": True, "attempted": 3510, "failed": 0,
          "metrics": {"latency_p50_ms": {"value": 7.02, "unit": "ms"},
                      "oracle_z_max": {"value": 1.7897985152720743, "unit": "z"}}}

ACCEPTANCE_REPORT = """\
..F....                                                                  [100%]
=================================== FAILURES ===================================
____________________ test_criterion_3_table3_reproduction _____________________
E   AssertionError: table 3 misses its gate
============================= slowest durations ==============================
31.70s call     tests/test_acceptance.py::test_criterion_7_paths_match_ode
2.51s call     tests/test_acceptance.py::test_criterion_3_table3_reproduction
0.50s setup    tests/test_acceptance.py::test_criterion_3_table3_reproduction
0.01s teardown tests/test_acceptance.py::test_criterion_3_table3_reproduction

(12 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
PASSED tests/test_acceptance.py::test_criterion_1_table1_reproduction
PASSED tests/test_acceptance.py::test_criterion_7_paths_match_ode
FAILED tests/test_acceptance.py::test_criterion_3_table3_reproduction - AssertionError: table 3
1 failed, 6 passed in 36.10s
"""


def test_a_run_is_its_last_two_lines():
    stdout = "warming up\n" + json.dumps(DETAILS) + "\n" + json.dumps(RESULT) + "\n\n"
    assert bench_file.parse_run_output(stdout) == {"details": DETAILS, "result": RESULT}
    with pytest.raises(ValueError, match="a details line and a result line"):
        bench_file.parse_run_output(json.dumps(RESULT))


def test_each_criterion_gets_its_outcome_and_the_sum_of_its_phases():
    tests = bench_file.parse_durations(ACCEPTANCE_REPORT)
    prefix = "tests/test_acceptance.py::test_criterion_"
    assert tests == {
        prefix + "7_paths_match_ode": {"outcome": "passed", "seconds": 31.70},
        prefix + "3_table3_reproduction": {"outcome": "failed", "seconds": 2.51 + 0.50 + 0.01},
        prefix + "1_table1_reproduction": {"outcome": "passed", "seconds": 0.0},
    }


def test_the_tree_digest_is_the_same_before_and_after_the_commit(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / ".gitignore").write_text("*.pyc\n")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    (tmp_path / "README.md").write_text("outside the measured paths\n")
    untracked = bench_file.tree_digest(tmp_path)
    git("add", "-A")
    git("commit", "-q", "-m", "files")
    assert bench_file.tree_digest(tmp_path) == untracked
    (tmp_path / "README.md").write_text("changed\n")
    (tmp_path / "src" / "a.pyc").write_bytes(b"ignored")
    assert bench_file.tree_digest(tmp_path) == untracked
    (tmp_path / "src" / "b.py").write_text("")
    assert bench_file.tree_digest(tmp_path) != untracked
    (tmp_path / "src" / "b.py").unlink()
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    assert bench_file.tree_digest(tmp_path) != untracked


def test_the_parent_side_runs_the_changes_benchmark_on_heads_code(tmp_path):
    repo, parent = tmp_path / "repo", tmp_path / "parent"
    repo.mkdir()
    parent.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    for name, text in {"BENCHMARK.json": "{}\n", "perfbench/run.py": "old = 1\n",
                       "perfbench/gone.py": "", "src/a.py": "x = 1\n"}.items():
        (repo / name).parent.mkdir(exist_ok=True)
        (repo / name).write_text(text)
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "BENCHMARK.json").write_text('{"v": 2}\n')
    (repo / "perfbench" / "run.py").write_text("new = 2\n")
    (repo / "perfbench" / "gone.py").unlink()
    (repo / "perfbench" / "__pycache__").mkdir()
    (repo / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"")
    (repo / "src" / "a.py").write_text("x = 2\n")
    bench_file.parent_tree(parent, repo)
    assert (parent / "perfbench" / "run.py").read_text() == "new = 2\n"
    assert (parent / "BENCHMARK.json").read_text() == '{"v": 2}\n'
    assert not (parent / "perfbench" / "gone.py").exists()
    assert not (parent / "perfbench" / "__pycache__").exists()
    assert (parent / "src" / "a.py").read_text() == "x = 1\n"


def test_a_stale_parent_tree_is_emptied_before_extraction(tmp_path, monkeypatch):
    # a run killed part-way through its pairs leaves its copy of HEAD behind;
    # the next run empties that one fixed directory before it extracts
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    for name in ("BENCHMARK.json", "perfbench/run.py"):
        (repo / name).write_text("{}\n")
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)
    tree = repo / ".perfbench-out" / "parent-tree"
    (tree / "src").mkdir(parents=True)
    (tree / "src" / "stale.py").write_text("from an interrupted run\n")
    bench_file.parent_tree(tree, repo)
    assert not (tree / "src" / "stale.py").exists()
    assert (tree / "perfbench" / "run.py").read_text() == "{}\n"
    # and _pairs removes the tree after its pairs, however they end
    monkeypatch.setattr(bench_file, "PARENT_TREE", tree)
    monkeypatch.setattr(bench_file, "ROOT", repo)
    monkeypatch.setattr(bench_file, "_git", lambda *args, **kw: "head")

    def interrupted(root, *args):
        assert root == tree and not (tree / "src").exists()  # extracted from repo's HEAD
        raise KeyboardInterrupt

    monkeypatch.setattr(bench_file, "_perfbench", interrupted)
    spec = {"workloads": [{"name": "w"}], "run_seconds": 1, "end_to_end": []}
    with pytest.raises(KeyboardInterrupt):
        bench_file._pairs(spec)
    assert not tree.exists()


def test_pairs_alternate_and_are_summarized_per_metric():
    assert bench_file.pair_order(3) == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]

    def run(metrics):
        return {"details": DETAILS,
                "result": {**RESULT, "metrics": {k: {"value": v, "unit": "u"}
                                                 for k, v in metrics.items()}}}

    parent = [(47.1, 100.0), (47.4, 90.0), (47.2, 110.0), (47.3, 95.0), (47.0, 105.0)]
    change = [(39.1, 101.0), (39.0, 89.0), (39.2, 120.0), (47.5, 94.0), (38.9, 100.0)]
    runs = [{"first": "parent", "parent": run({"rss": p, "qps": q}),
             "change": run({"rss": c, "qps": r})}
            for (p, q), (c, r) in zip(parent, change)]
    end_to_end = [{"name": "rss", "better": "lower", "bound": 0.1},
                  {"name": "qps", "better": "higher", "bound": 0.25}]
    summary = bench_file.summarize(runs, end_to_end)
    assert summary["rss"].pop("verdict") == "same"  # 4 wins in 5 carry no gain
    assert summary["rss"] == pytest.approx({
        "better": "lower", "change_wins": 4, "pairs": 5,
        "parent_median": 47.2, "parent_iqr": 47.3 - 47.1, "parent_spread": 0.2 / 47.2,
        "change_median": 39.1, "change_iqr": 39.2 - 39.0, "change_spread": 0.2 / 39.1,
    })
    assert summary["qps"]["change_wins"] == 2
    assert summary["qps"]["parent_median"] == 100.0
    assert summary["qps"]["parent_iqr"] == pytest.approx(105.0 - 95.0)


def test_each_metric_gets_its_verdict_against_its_bound():
    def run(metrics):
        return {"details": DETAILS,
                "result": {**RESULT, "metrics": {k: {"value": v, "unit": "u"}
                                                 for k, v in metrics.items()}}}

    ten = range(10)
    sides = {
        # lower in 9 of 10 pairs, by far more than the parent's IQR
        "rss": ([47.0 + 0.1 * i for i in ten], [39.0 + 0.1 * i for i in ten[:-1]] + [48.0]),
        # lower in every pair, but by less than the parent's IQR of 4.5
        "p50": ([100.0 + i for i in ten], [99.0 + i for i in ten]),
        # 30% slower than the parent, past the bound of 25%
        "tail": ([100.0 + i for i in ten], [130.0 + i for i in ten]),
        # the parent's IQR, 100, is more than 25% of its median
        "qps": ([50.0, 250.0] * 5, [150.0 + i for i in ten]),
        "rate": ([1.0] * 10, [1.0] * 10),
    }
    runs = [{"first": "parent",
             "parent": run({k: v[0][i] for k, v in sides.items()}),
             "change": run({k: v[1][i] for k, v in sides.items()})} for i in ten]
    end_to_end = [{"name": "rss", "better": "lower", "bound": 0.1},
                  {"name": "p50", "better": "lower", "bound": 0.25},
                  {"name": "tail", "better": "lower", "bound": 0.25},
                  {"name": "qps", "better": "higher", "bound": 0.25},
                  {"name": "rate", "better": "higher", "bound": 0.01}]
    summary = bench_file.summarize(runs, end_to_end)
    assert {name: row["verdict"] for name, row in summary.items()} == {
        "rss": "gain", "p50": "same", "tail": "worse", "qps": "unresolved", "rate": "same"}
    assert summary["rss"]["change_wins"] == 9 and summary["p50"]["change_wins"] == 10
    # a higher-is-better metric gains as the lower-is-better one did
    row = {**summary["rss"], "better": "higher", "parent_median": 39.45,
           "change_median": 47.45, "change_wins": 9}
    assert bench_file.verdict(row, 0.1) == "gain"


def test_each_side_reports_its_spread_beside_the_verdict():
    # the spread is what the verdict weighs against the bound: a reader sees
    # how near a verdict sits to turning unresolved
    def run(metrics):
        return {"details": DETAILS,
                "result": {**RESULT, "metrics": {k: {"value": v, "unit": "u"}
                                                 for k, v in metrics.items()}}}

    sides = {
        # spreads of 0.24 and 0.26, on either side of the bound of 0.25
        "p50": ([76.0, 88.0, 100.0, 112.0, 124.0], [74.0, 87.0, 100.0, 113.0, 126.0]),
        # a median of 0 scales nothing
        "dev": ([0.0, 0.0, 0.0, 0.1, 0.2], [0.0] * 5),
    }
    runs = [{"first": "parent",
             "parent": run({k: v[0][i] for k, v in sides.items()}),
             "change": run({k: v[1][i] for k, v in sides.items()})} for i in range(5)]
    summary = bench_file.summarize(runs, [{"name": "p50", "better": "lower", "bound": 0.25},
                                          {"name": "dev", "better": "lower", "bound": 0.1}])
    p50, dev = summary["p50"], summary["dev"]
    assert (p50["parent_spread"], p50["change_spread"]) == pytest.approx((0.24, 0.26))
    assert p50["verdict"] == "unresolved"  # by the change's side alone
    assert (dev["parent_spread"], dev["change_spread"]) == (None, None)
    assert dev["verdict"] == "unresolved"  # the parent's range of 0.1 about a median of 0


def test_pairs_refuse_a_clean_tree(monkeypatch, capsys):
    # on a clean tree HEAD is the tree itself: the pairs would time it against itself
    monkeypatch.setattr(bench_file, "_git", lambda *args, **kw: "")
    for runner in ("_pairs", "_perfbench"):
        monkeypatch.setattr(bench_file, runner, lambda *a: pytest.fail("ran a workload"))
    with pytest.raises(SystemExit) as exit_info:
        bench_file.main(["--pr", "0", "--pairs"])
    assert exit_info.value.code == 2
    assert "the tree is clean" in capsys.readouterr().err
