"""Benchmark of the logmgf library and CLI, driven from outside the package.

    python3 perfbench/run.py --workload {cli_cold,library_warm,paths_oracle}
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the package is loaded from its `src/`.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with `--trace 0`,
the per-layer metrics of a traced run with `--trace 1`. The line before it
holds the run's details: machine facts, sample counts, the tail percentile
and the first failures. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
UNITS = {
    "setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "queries_per_s": "1/s",
    "path_steps_per_s": "1/s", "success_rate": "ratio", "peak_rss_mb": "MiB",
    "paper_dev.zero_entropy": "abs", "paper_dev.thin_tile": "abs",
    "paper_dev.laplace_w": "abs", "paper_dev.monte_carlo": "abs", "oracle_z_max": "z",
}


def _layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_pct", "%"), ("bytes_computed", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def load_library(root: Path) -> float:
    """Import logmgf from the checkout's src/; returns the import time in ms."""
    src = root / "src"
    if not (src / "logmgf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no logmgf package under {src}")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    module = importlib.import_module("logmgf")
    import_ms = (perf_counter() - t0) * 1e3
    if Path(module.__file__).resolve().parent != (src / "logmgf").resolve():
        raise SystemExit(f"perfbench: imported logmgf from {module.__file__}, not {src}")
    return import_ms


def machine_facts() -> dict:
    import numpy
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, import_ms: float,
        root: Path = ROOT, sizes=None, out_dir: Path | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, details line)."""
    import workloads as w
    import tracing

    sizes = sizes or w.Sizes()
    cls = w.WORKLOADS[workload]
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "machine": machine_facts()}
    problems: list[str] = []
    if not trace:
        setup_s, problems = w.measure_setup(workload, root, sizes.setup_repeats)
        problems += w.prepare_or_report(workload)
        wl = cls(seed, sizes, root)
        loop = w.timed_loop(wl, seconds)
        rss = w.peak_rss_mb(wl)
        errors = w.failures(wl, loop)
        ref, ref_problems = w.reference_checks(sizes)
        problems += ref_problems
        attempted = len(loop.latencies)
        pct, tail_s = w.tail(loop.latencies)
        qps = w.throughput(loop.latencies)
        metrics = {
            "setup_s": setup_s,
            "latency_p50_ms": statistics.median(loop.latencies) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "queries_per_s": qps,
            "path_steps_per_s": qps * wl.path_steps(),
            "success_rate": 1.0 - len(errors) / attempted,
            "peak_rss_mb": rss,
            **ref,
        }
        details["latency"] = {"samples": len(loop.latencies), "tail_percentile": pct}
    else:
        # Set-up is traced in-process; then operations alternate untraced and
        # traced, and the per-layer figures come from the traced ones.
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            problems += w.prepare_or_report(workload)
        wl = cls(seed, sizes, root)
        tracer.phase = "timed"
        loop = w.timed_loop(wl, seconds, tracer=tracer)
        if isinstance(wl, w.CliCold):
            import_ms = w.merge_child_traces(tracer, wl.child_traces)
        errors = w.failures(wl, loop)
        attempted = len(loop.latencies)
        plain, traced = loop.split(False), loop.split(True)
        metrics = tracing.layer_metrics(tracer.spans, len(traced), sum(traced), import_ms)
        plain_p50 = statistics.median(plain) * 1e3
        traced_p50 = statistics.median(traced) * 1e3 if traced else plain_p50
        metrics.update({
            "trace.untraced_p50_ms": plain_p50,
            "trace.traced_p50_ms": traced_p50,
            "trace.overhead_pct": 100.0 * (traced_p50 - plain_p50) / plain_p50,
        })
        out = (out_dir or root / ".perfbench-out") / f"trace-{workload}-seed{seed}.json.gz"
        tracer.write(out, {"workload": workload, "seed": seed})
        details["trace_file"] = str(out)
        details["latency"] = {"samples": len(traced)}
    details["failures"] = (errors + problems)[:5]
    units = UNITS if not trace else {k: _layer_unit(k) for k in metrics}
    result = {
        "correct": not errors and not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli_cold", "library_warm", "paths_oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_ms = load_library(ROOT)
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), import_ms)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
