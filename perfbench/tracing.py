"""Span tracing for the benchmark's traced runs, installed from outside the library.

`installed(tracer)` wraps the library's public functions and, through a proxy
generator, `standard_normal` on every sub-stream. A wrapped name is replaced
in every loaded `logmgf` module that bound it, because `cli`, `lambertw` and
the package namespace import these names at import time. Spans and their
counts stay in memory; `write` saves them when the run ends and
`layer_metrics` reduces them to the per-layer metrics.

This module imports only the standard library, so a traced CLI child can load
it before it times `import logmgf.cli`.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Separates a traced CLI child's own output from the spans it appends.
SPANS_MARKER = "#perfbench-spans "


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# (defining module, public name) -> counts taken from the call's arguments and
# result. Byte counts are computed from array sizes (8 bytes per float64
# produced), not measured.
_WRAPPED = {
    ("logmgf.thintile", "build_grid"): lambda a, k, r: {"bytes": 8 * len(r.coordinates)},
    ("logmgf.thintile", "expectation_on_grid"): lambda a, k, r: {
        "n_evals": r.n_evals, "bytes": 8 * r.n_evals},
    ("logmgf.thintile", "expectation"): None,
    ("logmgf.thintile", "mgf_thintile"): None,
    ("logmgf.lambertw", "lambert_w0"): lambda a, k, r: {"iterations": r.iterations},
    ("logmgf.lambertw", "mgf_asmussen"): None,
    ("logmgf.zeroentropy", "mgf_zero_entropy"): None,
    ("logmgf.zeroentropy", "integrate_with_info"): lambda a, k, r: {
        "euler_steps": _arg(a, k, 1, "cfg").steps, "clamped_steps": r[1].clamped_steps},
    ("logmgf.zeroentropy", "simulate_paths"): lambda a, k, r: {
        "path_steps": _arg(a, k, 1, "n_paths") * _arg(a, k, 2, "steps"),
        "overflowed": r.n_overflowed},
    ("logmgf.montecarlo", "mgf_monte_carlo"): lambda a, k, r: {
        "samples": r.diagnostics.get("n_samples", 0.0),
        "blocks": r.diagnostics.get("n_batches", 0.0)},
}


def _draws(args, kwargs, result):
    return {"draws": getattr(result, "size", 1)}


class Tracer:
    """In-memory span store: [name, phase, op, parent, t0, t1, self_s, counts].

    `phase` and `op` are set by the caller; spans of one workload operation
    share its op index. Self time is a span's duration minus the durations of
    its direct children, accumulated as spans close.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.op = -1
        self._stack: list[int] = []
        self._grid_keys: set[str] = set()

    def call(self, name, fn, args, kwargs, counter=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.phase, self.op, parent, 0.0, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            span[4], span[5] = t0, t1
            span[6] += t1 - t0
            if parent >= 0:
                self.spans[parent][6] -= t1 - t0
        if counter is not None:
            span[7] = counter(args, kwargs, result)
        return result

    def _wrap(self, attr, fn, counter):
        if attr == "build_grid":
            # cold = first build for this grid configuration in the process;
            # later builds of the same configuration are warm
            def wrapper(*args, **kwargs):
                key = repr((args[1:], sorted(kwargs.items())))
                kind = "warm" if key in self._grid_keys else "cold"
                self._grid_keys.add(key)
                return self.call(f"build_grid_{kind}", fn, args, kwargs, counter)
        else:
            def wrapper(*args, **kwargs):
                return self.call(attr, fn, args, kwargs, counter)
        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, fields=["name", "phase", "op", "parent", "t0", "t1", "self_s", "counts"],
                   spans=self.spans)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


class _TracedGenerator:
    """Delegates to a numpy Generator, recording each `standard_normal` call."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        return self._tracer.call("standard_normal", self._gen.standard_normal, args, kwargs, _draws)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "logmgf" or n.startswith("logmgf."))]


def _swap(replacements: dict[int, object]) -> None:
    """Rebind every name in the package's modules whose object is a key."""
    for module in _package_modules():
        for name, value in list(vars(module).items()):
            if id(value) in replacements:
                setattr(module, name, replacements[id(value)])


@contextmanager
def installed(tracer: Tracer):
    """Patch the wrappers into every loaded logmgf module; restore on exit.

    A module imported while the wrappers are in place binds them too; the
    restore pass covers it as well.
    """
    originals, wrappers = {}, {}
    for (modname, attr), counter in _WRAPPED.items():
        original = getattr(sys.modules.get(modname), attr, None)
        if original is not None:
            wrapper = tracer._wrap(attr, original, counter)
            wrappers[id(original)] = wrapper
            originals[id(wrapper)] = original
    _swap(wrappers)
    rng_seed = sys.modules["logmgf.gaussian"].RngSeed
    substream = rng_seed.substream

    def traced_substream(self, index):
        return _TracedGenerator(tracer.call("substream", substream, (self, index), {}), tracer)

    rng_seed.substream = traced_substream
    try:
        yield tracer
    finally:
        rng_seed.substream = substream
        _swap(originals)


def _totals(spans, phase):
    out = defaultdict(lambda: defaultdict(float))
    for name, span_phase, _op, _parent, t0, t1, self_s, counts in spans:
        if span_phase != phase:
            continue
        row = out[name]
        row["calls"] += 1
        row["time"] += t1 - t0
        row["self"] += self_s
        for key, value in (counts or {}).items():
            row[key] += value
    return out


def layer_metrics(spans, n_ops: int, op_seconds: float, import_ms: float) -> dict[str, float]:
    """Per-layer metrics of the traced timed phase.

    `*_ms` are milliseconds per workload operation and counts are per
    operation, except where the name says per call (`*_us`,
    `lambertw.iterations`), `thintile.build_grid_cold_ms` (per cold build,
    set-up included, since in-process workloads build cold only there) and
    `cli.import_ms` (per import). `share.*_pct` are shares of `op_seconds`,
    the summed latency of the traced operations.
    """
    timed = _totals(spans, "timed")
    setup = _totals(spans, "setup")
    ops = max(n_ops, 1)

    def per_op_ms(name, field="time"):
        return timed[name][field] / ops * 1e3

    def per_op(name, field):
        return timed[name][field] / ops

    def per_call(name, field, scale=1.0):
        row = timed[name]
        return row[field] / row["calls"] * scale if row["calls"] else 0.0

    cold = {k: timed["build_grid_cold"][k] + setup["build_grid_cold"][k] for k in ("time", "calls")}

    return {
        "cli.import_ms": import_ms,
        "cli.self_ms": per_op_ms("cli.main", "self"),
        "thintile.build_grid_cold_ms": cold["time"] / cold["calls"] * 1e3 if cold["calls"] else 0.0,
        "thintile.build_grid_warm_ms": per_op_ms("build_grid_warm"),
        "thintile.expectation_ms": per_op_ms("expectation_on_grid"),
        "thintile.n_evals": per_op("expectation_on_grid", "n_evals"),
        "thintile.bytes_computed": sum(per_op(n, "bytes") for n in
                                       ("build_grid_cold", "build_grid_warm", "expectation_on_grid")),
        "lambertw.lambert_w0_us": per_call("lambert_w0", "time", 1e6),
        "lambertw.iterations": per_call("lambert_w0", "iterations"),
        "lambertw.asmussen_self_ms": per_op_ms("mgf_asmussen", "self"),
        "zeroentropy.integrate_ms": per_op_ms("integrate_with_info"),
        "zeroentropy.euler_steps": per_op("integrate_with_info", "euler_steps"),
        "zeroentropy.clamped_steps": per_op("integrate_with_info", "clamped_steps"),
        "zeroentropy.simulate_paths_ms": per_op_ms("simulate_paths"),
        "zeroentropy.paths_step_ms": per_op_ms("simulate_paths", "self"),
        "zeroentropy.path_steps": per_op("simulate_paths", "path_steps"),
        "zeroentropy.paths_overflowed": per_op("simulate_paths", "overflowed"),
        "gaussian.substream_us": per_call("substream", "time", 1e6),
        "gaussian.substream_calls": per_op("substream", "calls"),
        "gaussian.normal_draw_ms": per_op_ms("standard_normal"),
        "gaussian.normal_draws": per_op("standard_normal", "draws"),
        "montecarlo.mgf_ms": per_op_ms("mgf_monte_carlo"),
        "montecarlo.samples": per_op("mgf_monte_carlo", "samples"),
        "montecarlo.blocks": per_op("mgf_monte_carlo", "blocks"),
        "share.build_grid_cold_pct": 100.0 * timed["build_grid_cold"]["time"] / op_seconds,
        "share.montecarlo_mgf_pct": 100.0 * timed["mgf_monte_carlo"]["time"] / op_seconds,
    }
