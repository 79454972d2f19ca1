"""The benchmark's workloads, their correctness gates and the reference checks.

Each workload is one closed-loop client: the next operation starts when the
previous one has finished. Inputs come only from the seed. See README.md for
why each workload exists and which layer metrics should move on which.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import logmgf
from logmgf import McConfig, Method, MgfQuery, RngSeed, TABLES, TileGridConfig, ZeroEntropyConfig

import tracing

# Engine settings of every operation; they equal the CLI's defaults, which the
# cli_cold gate relies on when it recomputes the CLI's answers in-process.
STEPS = 2000
N_PAIRS = 80_000
MC_SAMPLES = 1_000_000
MC_SEED = 0

# Gates. thin_tile vs laplace_w: criterion 3's gate for both methods against
# the sigma = 1 table (the worst measured gap on the theta < 0 query box is
# 1.9e-5, at sigma = 1, mu = 0.5). monte_carlo vs thin_tile: criterion 4's
# band. Ensemble vs ODE: criterion 7's z statistic, with a band of 5 rather
# than criterion 7's 4 because each run makes dozens of independently seeded
# checks where criterion 7 makes one fixed-seed check.
TILE_LW_ATOL = 3e-5
MC_Z = 4.0
ORACLE_Z = 5.0

PATH_SPEC = TABLES[2]  # criterion 7 sweeps table 2's thetas at its sigma
REFERENCE_PATH_SEED = 42  # criterion 7's seed
CHILD_TIMEOUT_S = 60.0

_METHODS = (
    (Method.ZERO_ENTROPY, lambda q: logmgf.mgf_zero_entropy(q, ZeroEntropyConfig(steps=STEPS))),
    (Method.THIN_TILE, lambda q: logmgf.mgf_thintile(q, TileGridConfig(n_pairs=N_PAIRS))),
    (Method.LAPLACE_W, lambda q: logmgf.mgf_asmussen(q, TileGridConfig(n_pairs=N_PAIRS))),
    (Method.MONTE_CARLO, lambda q: logmgf.mgf_monte_carlo(
        q, McConfig(n_samples=MC_SAMPLES, seed=RngSeed(MC_SEED)))),
)


@dataclass(frozen=True)
class Sizes:
    """Work per run that is not set by --seconds; tests shrink it."""

    setup_repeats: int = 5
    n_paths: int = 8192  # four 2048-path blocks per oracle operation


def table_cells() -> list[MgfQuery]:
    return [MgfQuery(s.mu, s.sigma, t) for s in TABLES.values() for t in s.thetas]


def seeded_point(rng: random.Random) -> MgfQuery:
    """A query where all four methods are defined.

    Two in three have theta in [-8, -0.5] and sigma in [0.05, 1] (log-uniform);
    the rest lie in the table-1 regime, theta in [0.1, 1.2] and sigma in
    [0.05, 0.2], where the positive-theta closed form and the ODE stay finite.
    """
    mu = rng.uniform(-0.5, 0.5)
    if rng.random() < 2.0 / 3.0:
        sigma = math.exp(rng.uniform(math.log(0.05), 0.0))
        theta = -math.exp(rng.uniform(math.log(0.5), math.log(8.0)))
    else:
        sigma = rng.uniform(0.05, 0.2)
        theta = rng.uniform(0.1, 1.2)
    return MgfQuery(mu, sigma, theta)


def all_methods(q: MgfQuery) -> dict[Method, object]:
    return {m: fn(q) for m, fn in _METHODS}


def _finite_values(values: dict) -> str | None:
    bad = [m.value for m, v in values.items() if not math.isfinite(v)]
    return f"non-finite {bad}" if bad else None


def method_gate(q: MgfQuery, estimates: dict[Method, object]) -> str | None:
    """Finite values; at theta < 0 also the cross-method agreement checks."""
    values = {m: e.value for m, e in estimates.items()}
    problem = _finite_values(values)
    if problem or q.theta >= 0.0:
        return problem
    tile, lw = values[Method.THIN_TILE], values[Method.LAPLACE_W]
    if abs(tile - lw) > TILE_LW_ATOL:
        return f"thin_tile {tile!r} vs laplace_w {lw!r} differ by more than {TILE_LW_ATOL}"
    se = estimates[Method.MONTE_CARLO].diagnostics["std_error"]
    z = abs(values[Method.MONTE_CARLO] - tile) / se
    if not z <= MC_Z:
        return f"monte_carlo is {z:.2f} standard errors from thin_tile"
    return None


def oracle_z(theta: float, n_paths: int, seed: RngSeed) -> tuple[float, float]:
    """Criterion 7's |z| of ensemble mean and variance against m_1 and v_1.

    One operation of `logmgf paths`: simulate, take moments, integrate the
    ODEs with the variance kick.
    """
    q = MgfQuery(PATH_SPEC.mu, PATH_SPEC.sigma, theta)
    ens = logmgf.simulate_paths(q, n_paths, STEPS, seed)
    mom = logmgf.ensemble_moments(ens.terminal_values)
    state = logmgf.integrate(q, ZeroEntropyConfig(steps=STEPS, variance_kick=True))
    se_mean = math.sqrt(mom["variance"] / ens.n_paths)
    se_var = mom["variance"] * math.sqrt(2.0 / (ens.n_paths - 1))
    return abs(mom["mean"] - state.m) / se_mean, abs(mom["variance"] - state.v) / se_var


def reference_checks(sizes: Sizes) -> tuple[dict[str, float], list[str]]:
    """Untimed checks on fixed inputs, run after every workload's timed loop.

    paper_dev.<method>: max |value - published digit| over the 15 table cells.
    oracle_z_max: max criterion-7 |z| over table 2's thetas with criterion 7's
    seed at the oracle workload's path count. Both are fixed for a given
    program, so a change that costs digits shows against the parent.
    """
    devs = {m: 0.0 for m, _ in _METHODS}
    problems = []
    for spec in TABLES.values():
        for i, theta in enumerate(spec.thetas):
            q = MgfQuery(spec.mu, spec.sigma, theta)
            for method, fn in _METHODS:
                try:
                    dev = abs(fn(q).value - spec.paper_values[method][i])
                except Exception as exc:  # reported as a failed reference cell
                    problems.append(f"table {spec.table_id} {method.value} theta={theta}: {exc!r}")
                    continue
                if not math.isfinite(dev):
                    problems.append(f"table {spec.table_id} {method.value} theta={theta}: non-finite")
                    continue
                devs[method] = max(devs[method], dev)
    z_max = 0.0
    for theta in PATH_SPEC.thetas:
        try:
            z_max = max(z_max, *oracle_z(theta, sizes.n_paths, RngSeed(REFERENCE_PATH_SEED)))
        except Exception as exc:
            problems.append(f"reference oracle theta={theta}: {exc!r}")
    if not z_max <= ORACLE_Z:
        problems.append(f"reference oracle |z| {z_max:.2f} above {ORACLE_Z}")
    metrics = {f"paper_dev.{m.value}": d for m, d in devs.items()}
    metrics["oracle_z_max"] = z_max
    return metrics, problems


@dataclass
class ChildResult:
    code: int
    stdout: str
    stderr: str
    seconds: float
    max_rss_mb: float


def run_child(argv: list[str], root: Path) -> ChildResult:
    """Run one child to completion; its peak RSS comes from wait4."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = perf_counter()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out, err[0] if err else "", seconds, usage.ru_maxrss / 1024.0)


def measure_setup(workload: str, root: Path, repeats: int) -> tuple[float, list[str]]:
    """Median wall time of fresh interpreters doing the workload's set-up."""
    argv = [sys.executable, str(Path(__file__).with_name("child.py")), "setup", workload]
    times, problems = [], []
    for _ in range(repeats):
        res = run_child(argv, root)
        if res.code != 0:
            problems.append(f"set-up child exited {res.code}: {res.stderr.strip()[-300:]}")
        times.append(res.seconds)
    return statistics.median(times), problems


def prepare(workload: str) -> None:
    """In-process set-up: what a process pays before its first timed operation."""
    if workload == "cli_cold":
        import logmgf.cli  # noqa: F401  (each CLI call pays this import itself)
    elif workload == "library_warm":
        all_methods(MgfQuery(0.0, 0.0625, -1.0))  # builds the grid
    else:
        oracle_z(PATH_SPEC.thetas[0], 256, RngSeed(0))


def prepare_or_report(workload: str) -> list[str]:
    try:
        prepare(workload)
    except Exception as exc:  # the timed operations will fail too and be counted
        return [f"set-up raised {exc!r}"]
    return []


class Workload:
    """One closed-loop client. `execute` is timed; `check` is not."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, root: Path):
        self.rng = random.Random(seed)
        self.sizes = sizes
        self.root = root

    def items(self):
        raise NotImplementedError

    def execute(self, item, traced: bool):
        raise NotImplementedError

    def check(self, item, output) -> str | None:
        raise NotImplementedError

    def path_steps(self) -> int:
        """Euler steps of the trajectories one operation integrates."""
        return STEPS


class CliCold(Workload):
    """Fresh `logmgf compute --methods all --format json` processes."""

    name = "cli_cold"

    def __init__(self, seed, sizes, root):
        super().__init__(seed, sizes, root)
        self.max_rss_mb = 0.0
        self.child_traces: list[dict] = []

    def items(self):
        while True:
            yield seeded_point(self.rng)

    def argv(self, q: MgfQuery, traced: bool) -> list[str]:
        head = ([str(Path(__file__).with_name("child.py")), "cli"] if traced else
                ["-c", "import sys; from logmgf.cli import main; sys.exit(main())"])
        return [sys.executable, *head, "compute", f"--mu={q.mu!r}", f"--sigma={q.sigma!r}",
                f"--theta={q.theta!r}", "--methods", "all", "--format", "json"]

    def execute(self, q, traced):
        res = run_child(self.argv(q, traced), self.root)
        self.max_rss_mb = max(self.max_rss_mb, res.max_rss_mb)
        if traced:
            _, marker, trailer = res.stdout.partition(tracing.SPANS_MARKER)
            if marker:
                self.child_traces.append(json.loads(trailer))
        return res

    def check(self, q, res: ChildResult):
        if res.code != 0:
            return f"exit {res.code}: {res.stderr.strip()[-300:]}"
        doc = json.loads(res.stdout.split(tracing.SPANS_MARKER)[0])
        got = {Method(r["method"]): r.get("value", math.nan) for r in doc["results"]}
        if set(got) != {m for m, _ in _METHODS}:
            return f"methods {sorted(m.value for m in got)}"
        problem = _finite_values(got)
        if problem:
            return problem
        want = {m: e.value for m, e in all_methods(q).items()}
        if got != want:
            return f"CLI values {got} differ from the library's {want}"
        return None


class LibraryWarm(Workload):
    """Queries through the four public mgf_* functions in one warm process."""

    name = "library_warm"

    def items(self):
        while True:
            batch = table_cells() + [seeded_point(self.rng) for _ in range(15)]
            self.rng.shuffle(batch)
            yield from batch

    def execute(self, q, traced):
        return all_methods(q)

    def check(self, q, estimates):
        return method_gate(q, estimates)


class PathsOracle(Workload):
    """Criterion 7's sweep: one seed per sweep over table 2's five thetas."""

    name = "paths_oracle"

    def items(self):
        while True:
            seed = RngSeed(self.rng.getrandbits(63))
            for theta in PATH_SPEC.thetas:
                yield theta, seed

    def execute(self, item, traced):
        theta, seed = item
        return oracle_z(theta, self.sizes.n_paths, seed)

    def check(self, item, zs):
        if not all(z <= ORACLE_Z for z in zs):
            return f"theta={item[0]}: ensemble |z| (mean, variance) {zs} above {ORACLE_Z}"
        return None

    def path_steps(self):
        return (self.sizes.n_paths + 1) * STEPS


def merge_child_traces(tracer, traces: list[dict]) -> float:
    """Append traced CLI children's spans, one operation each; returns mean import ms."""
    for op, doc in enumerate(traces):
        offset = len(tracer.spans)
        for span in doc["spans"]:
            span[2] = op
            span[3] = span[3] + offset if span[3] >= 0 else -1
            tracer.spans.append(span)
    return statistics.fmean(d["import_ms"] for d in traces) if traces else 0.0


WORKLOADS = {w.name: w for w in (CliCold, LibraryWarm, PathsOracle)}


@dataclass
class Loop:
    latencies: list[float]
    outputs: list[tuple]  # (item, output or the exception it raised)
    traced: list[bool]

    def split(self, traced: bool) -> list[float]:
        return [t for t, flag in zip(self.latencies, self.traced) if flag == traced]


def timed_loop(wl: Workload, seconds: float, tracer=None) -> Loop:
    """Run operations back to back until `seconds` have passed.

    With a tracer, every second operation runs with the wrappers installed,
    so traced and untraced operations share the machine's slow and fast
    stretches and their difference is the tracing overhead. The outputs are
    checked afterwards by `failures`, outside the timing and any tracing.
    """
    items = wl.items()
    outputs, latencies, flags = [], [], []
    min_ops = 1 if tracer is None else 2
    start = perf_counter()
    while len(latencies) < min_ops or perf_counter() - start < seconds:
        item = next(items)
        traced = tracer is not None and len(latencies) % 2 == 1
        with tracing.installed(tracer) if traced else contextlib.nullcontext():
            if traced:
                tracer.op = len(latencies)
            t0 = perf_counter()
            try:
                output = wl.execute(item, traced)
            except Exception as exc:  # a failed operation, counted against the success rate
                output = exc
            latencies.append(perf_counter() - t0)
        outputs.append((item, output))
        flags.append(traced)
    return Loop(latencies, outputs, flags)


def failures(wl: Workload, loop: Loop) -> list[str]:
    """The gate's verdict on each failed operation of the loop."""
    errors = []
    for item, output in loop.outputs:
        try:
            problem = (f"raised {output!r}" if isinstance(output, Exception)
                       else wl.check(item, output))
        except Exception as exc:
            problem = f"check raised {exc!r}"
        if problem:
            errors.append(problem)
    return errors


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    With n sorted samples that is the (n-10)-th. Below 11 samples no percentile
    qualifies and the maximum is reported as the 100th.
    """
    xs = sorted(latencies)
    k = len(xs) - 10 if len(xs) > 10 else len(xs)
    return 100.0 * k / len(xs), xs[k - 1]


def throughput(latencies: list[float], windows: int = 5) -> float:
    """Operations per second: the median over consecutive windows of the run.

    One client in a closed loop completes len/sum(latency) operations per
    second in each window; the median keeps a slow stretch of the shared
    machine in one window from moving the run's figure.
    """
    n = len(latencies)
    chunks = [latencies[i * n // windows:(i + 1) * n // windows] for i in range(windows)]
    return statistics.median(len(c) / sum(c) for c in chunks if c)


def peak_rss_mb(wl: Workload) -> float:
    if isinstance(wl, CliCold):
        return wl.max_rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
