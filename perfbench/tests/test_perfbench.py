"""Tiny runs of the benchmark: every named metric is emitted, and the gate can fail.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

IMPORT_MS = run.load_library(ROOT)

import logmgf  # noqa: E402
import logmgf.cli  # noqa: E402,F401
import workloads  # noqa: E402
from logmgf import MgfEstimate, OdeState  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.Sizes(setup_repeats=1, n_paths=64)
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny_run(workload, trace, out_dir, seed=1):
    result, details = run.run(workload, seed, 0.2, trace, IMPORT_MS, sizes=TINY, out_dir=out_dir)
    json.dumps(result, allow_nan=False)
    return result, details


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    result, details = tiny_run(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, name
        assert math.isfinite(metric["value"]), name
    if trace:
        assert Path(details["trace_file"]).is_file()
        # the wrappers are gone once the traced run ends
        assert not hasattr(logmgf.thintile.build_grid, "__wrapped__")
        assert not hasattr(logmgf.cli.mgf_thintile, "__wrapped__")


def _shifted(fn, delta):
    def wrong(q, *args, **kwargs):
        est = fn(q, *args, **kwargs)
        return MgfEstimate(est.value + delta, est.method, est.diagnostics)
    return wrong


def test_gate_fails_when_laplace_w_drifts(monkeypatch, tmp_path):
    monkeypatch.setattr(logmgf, "mgf_asmussen", _shifted(logmgf.mgf_asmussen, 1e-3))
    result, details = tiny_run("library_warm", False, tmp_path, seed=3)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert any("laplace_w" in f for f in details["failures"])


def test_gate_counts_a_raising_method(monkeypatch, tmp_path):
    def broken(q, *args, **kwargs):
        raise ArithmeticError("broken")
    monkeypatch.setattr(logmgf, "mgf_thintile", broken)
    result, _ = tiny_run("library_warm", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_gate_fails_when_cli_and_library_disagree(monkeypatch, tmp_path):
    # the CLI child runs the real library; the in-process answer is shifted
    monkeypatch.setattr(logmgf, "mgf_monte_carlo", _shifted(logmgf.mgf_monte_carlo, 1e-9))
    result, details = tiny_run("cli_cold", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "differ from the library" in details["failures"][0]


def test_gate_fails_when_ensemble_leaves_the_ode(monkeypatch, tmp_path):
    integrate = logmgf.integrate

    def off(q, cfg):
        s = integrate(q, cfg)
        return OdeState(s.t, s.m + 0.5, s.v)
    monkeypatch.setattr(logmgf, "integrate", off)
    result, _ = tiny_run("paths_oracle", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(1, 101)]
    assert workloads.tail(xs) == (90.0, 90.0)
    assert workloads.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
