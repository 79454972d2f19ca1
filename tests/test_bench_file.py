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
