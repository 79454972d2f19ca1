"""Write BENCH_<N>.json: every benchmark row and acceptance wall time at one tree.

    python3 tools/bench_file.py --pr N [--pairs]

Runs perfbench/run.py for each workload of BENCHMARK.json, once untraced and
once with --trace 1, at BENCHMARK.json's run_seconds and seed SEED. Then runs
the acceptance suite with --durations=0 and records each criterion's outcome
and wall time; a failing criterion is recorded, not fatal. The file holds
every result and details line as perfbench printed them (the details lines
carry the machine), the git head, whether the tree was clean, and the
tree_digest of the files measured, which a later checkout of the commit that
holds those files reproduces. Standard library only; run it from anywhere
inside the checkout.

With --pairs, which a clean tree refuses, it also extracts the commit HEAD
(the parent of the change not yet committed) into PARENT_TREE with git
archive, replaces its benchmark (BENCHMARK.json and perfbench/) with the
checkout's, so that both sides run the same benchmark on their own src/,
runs every workload untraced PAIRS times on each side, the parent first in
even pairs and the change (the checkout's tree) first in odd ones, and
removes the directory. PARENT_TREE is one fixed, gitignored directory that
every run empties before it extracts, so a run that was killed leaves at
most that one copy behind, until the next run. Under "pairs" the file holds each run's lines and,
per end-to-end metric, each side's median, interquartile range and spread (the
range over the median), how many pairs the change won, and a verdict against
the metric's bound (see verdict). The first pair's change run then stands as the workload's untraced
run, which is not run again.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
PAIRS = 10  # the pairs a claim is judged on: the change better in 9 of 10
PARENT_TREE = ROOT / ".perfbench-out" / "parent-tree"  # HEAD's side of the pairs
# what the rows depend on: the benchmark, the code it runs, the suite and this tool
MEASURED = ("BENCHMARK.json", "perfbench", "src", "tests", "tools")
# "12.34s call     tests/test_acceptance.py::test_criterion_3_table3_reproduction"
_DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(\S+)$")
# "PASSED tests/test_acceptance.py::test_x" or "FAILED tests/...::test_x - AssertionError..."
_OUTCOME = re.compile(r"^(PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS) (\S+)")


def parse_run_output(stdout: str) -> dict:
    """perfbench/run.py's last two lines: {"details": ..., "result": ...}."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"expected a details line and a result line, got {stdout!r}")
    return {"details": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def parse_durations(report: str) -> dict[str, dict]:
    """Each test's outcome and seconds (setup + call + teardown) from a pytest report.

    The report is pytest's output with --durations=0 and -rA. Phases pytest
    hides as shorter than 5 ms count as 0.
    """
    tests: dict[str, dict] = {}
    for line in report.splitlines():
        if m := _DURATION.match(line.strip()):
            entry = tests.setdefault(m[3], {"outcome": None, "seconds": 0.0})
            entry["seconds"] += float(m[1])
        elif m := _OUTCOME.match(line.strip()):
            tests.setdefault(m[2], {"outcome": None, "seconds": 0.0})["outcome"] = m[1].lower()
    return tests


def pair_order(k: int) -> list[tuple[str, str]]:
    """The sides of each of k pairs in the order they run: the parent first in even pairs."""
    return [("parent", "change") if i % 2 == 0 else ("change", "parent") for i in range(k)]


def verdict(row: dict, bound: float) -> str:
    """The change against the parent on one metric of a summary row.

    "gain": the change won at least 9 pairs in 10 and its median is better by
    more than the parent's interquartile range. "worse": its median is worse
    by more than bound times the parent's median. "unresolved": neither, and
    a side's interquartile range exceeds bound times that side's median.
    "same": none of these.
    """
    better_by = row["change_median"] - row["parent_median"]
    if row["better"] == "lower":
        better_by = -better_by
    if 10 * row["change_wins"] >= 9 * row["pairs"] and better_by > row["parent_iqr"]:
        return "gain"
    if -better_by > bound * abs(row["parent_median"]):
        return "worse"
    if any(row[f"{s}_iqr"] > bound * abs(row[f"{s}_median"]) for s in ("parent", "change")):
        return "unresolved"
    return "same"


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict[str, dict]:
    """Per end-to-end metric of BENCHMARK.json: each side's median,
    interquartile range and spread over the pairs, the pairs where the change
    was better, and the verdict against the metric's bound. A side's spread,
    its interquartile range over its median (None at a median of 0), is what
    verdict weighs against the bound to call a metric unresolved."""
    summary = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        side = {s: [run[s]["result"]["metrics"][name]["value"] for run in runs]
                for s in ("parent", "change")}
        wins = sum(c > p if higher else c < p for p, c in zip(side["parent"], side["change"]))
        row = {"better": metric["better"], "change_wins": wins, "pairs": len(runs)}
        for s, values in side.items():
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            row[f"{s}_median"], row[f"{s}_iqr"] = median, q3 - q1
            row[f"{s}_spread"] = (q3 - q1) / abs(median) if median else None
        row["verdict"] = verdict(row, metric["bound"])
        summary[name] = row
    return summary


def _perfbench(root: Path, workload: str, seconds: float, trace: int) -> dict:
    out = _run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                "--seconds", f"{seconds:g}", "--trace", str(trace)], check=True, root=root)
    return parse_run_output(out.stdout)


def parent_tree(dest: Path, root: Path = ROOT) -> None:
    """Extract HEAD into dest, emptied first, with root's BENCHMARK.json and
    perfbench/ in place of HEAD's. HEAD's perfbench/ goes first, so that a
    file the change removed is not left behind; no __pycache__ is copied."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=root,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    (dest / "BENCHMARK.json").write_bytes((root / "BENCHMARK.json").read_bytes())
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    shutil.copytree(root / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def _pairs(spec: dict) -> dict:
    """PAIRS alternating pairs of untraced runs of every workload: HEAD, the
    parent, against the checkout's tree, the change, both on the change's benchmark."""
    pairs = {"k": PAIRS, "parent_commit": _git("rev-parse", "HEAD"),
             "benchmark_from": "change", "workloads": {}}
    parent_tree(PARENT_TREE, ROOT)
    roots = {"parent": PARENT_TREE, "change": ROOT}
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            runs = []
            for i, order in enumerate(pair_order(PAIRS)):
                run = {"first": order[0]}
                for side in order:
                    print(f"bench_file: {workload} pair {i + 1}/{PAIRS} {side}",
                          file=sys.stderr)
                    run[side] = _perfbench(roots[side], workload, spec["run_seconds"], 0)
                runs.append(run)
            pairs["workloads"][workload] = {
                "summary": summarize(runs, spec["end_to_end"]), "runs": runs}
    finally:
        shutil.rmtree(PARENT_TREE, ignore_errors=True)
    return pairs


def _run(cmd: list[str], check: bool, root: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    if check and out.returncode != 0:
        raise SystemExit(f"bench_file: {' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return out


def _git(*args: str, root: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def tree_digest(root: Path = ROOT) -> str:
    """sha256 over the name and bytes of every file under MEASURED that git does not ignore.

    Tracked and untracked files count alike, so the files of a tree give the
    same digest before and after they are committed. Check a BENCH file with
    python3 -c "import sys; sys.path[:0] = ['tools']; import bench_file; print(bench_file.tree_digest())"
    """
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard", "--",
                 *MEASURED, root=root).split("\0")
    digest = hashlib.sha256()
    for name in sorted(set(filter(None, names))):
        path = root / name
        if path.is_file():  # a file deleted but still in the index is skipped
            data = path.read_bytes()
            digest.update(f"{name}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="N of the BENCH_<N>.json written")
    parser.add_argument("--pairs", action="store_true",
                        help=f"also {PAIRS} alternating runs of HEAD and the uncommitted tree")
    args = parser.parse_args(argv)
    clean = _git("status", "--porcelain") == ""
    if args.pairs and clean:
        parser.error("--pairs compares the uncommitted change with HEAD, and the tree is clean")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bench = {
        "pr": args.pr,
        "command": f"python3 tools/bench_file.py --pr {args.pr}"
                   + (" --pairs" if args.pairs else ""),
        "git": {"head": _git("rev-parse", "HEAD"), "clean": clean,
                "tree_digest": tree_digest(), "digest_covers": list(MEASURED)},
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    if args.pairs:
        bench["pairs"] = _pairs(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"bench_file: {workload}", file=sys.stderr)
        if args.pairs:  # the first pair's change run is this tree's untraced run
            untraced = bench["pairs"]["workloads"][workload]["runs"][0]["change"]
        else:
            untraced = _perfbench(ROOT, workload, seconds, 0)
        bench["workloads"][workload] = {
            "untraced": untraced, "traced": _perfbench(ROOT, workload, seconds, 1)}
    print("bench_file: acceptance suite", file=sys.stderr)
    t0 = perf_counter()
    out = _run([sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-q", "-rA",
                "--durations=0", "-p", "no:cacheprovider"], check=False)
    bench["acceptance"] = {
        "returncode": out.returncode,
        "wall_s": perf_counter() - t0,
        "tests": parse_durations(out.stdout),
    }
    if not bench["acceptance"]["tests"]:
        raise SystemExit(f"bench_file: no test in the acceptance report:\n{out.stdout}{out.stderr}")
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"bench_file: wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
