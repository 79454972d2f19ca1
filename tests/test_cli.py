import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logmgf.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _refuse(name):
    raise AssertionError(f"{name} is not JSON")


def strict_json(text):
    """The document in text; NaN, Infinity and -Infinity fail the test."""
    return json.loads(text, parse_constant=_refuse)


def test_compute_json_schema(capsys):
    code, out = run_cli(
        capsys, "compute", "--mu", "0", "--sigma", "0.1", "--theta", "0.5",
        "--mc-samples", "50000", "--format", "json",
    )
    assert code == 0
    doc = strict_json(out)
    assert set(doc) == {"query", "results", "deltas", "timings"}
    assert doc["query"] == {"mu": 0.0, "sigma": 0.1, "theta": 0.5}
    methods = [r["method"] for r in doc["results"]]
    assert methods == ["zero_entropy", "thin_tile", "laplace_w", "monte_carlo"]
    values = [r["value"] for r in doc["results"]]
    # four estimates clustered on the same row
    assert all(abs(v - 1.65496) < 5e-4 for v in values)
    assert len(doc["deltas"]) == 6
    assert set(doc["timings"]) == set(methods)


def test_compute_theta_zero_all_methods_one(capsys):
    code, out = run_cli(
        capsys, "compute", "--mu", "0", "--sigma", "1", "--theta", "0",
        "--mc-samples", "10000", "--format", "json",
    )
    assert code == 0
    doc = strict_json(out)
    assert [r["value"] for r in doc["results"]] == [1.0, 1.0, 1.0, 1.0]


def test_compute_method_error_sets_exit_code(capsys):
    # Lambert argument 40 * 0.01 = 0.4 > 1/e: domain error surfaced per-row
    code, out = run_cli(
        capsys, "compute", "--mu", "0", "--sigma", "0.1", "--theta", "40",
        "--methods", "laplace", "--format", "json",
    )
    assert code == 1
    doc = strict_json(out)
    assert "error" in doc["results"][0]
    assert "value" not in doc["results"][0]


@pytest.mark.parametrize(
    "mu, sigma, theta",
    [("800", "1", "-1"), ("0", "0.01", "3678")],
    ids=["e-mu-overflows", "leading-term-overflows"],
)
def test_float_range_errors_are_typed_rows(capsys, mu, sigma, theta):
    code, out = run_cli(
        capsys, "compute", "--mu", mu, "--sigma", sigma, "--theta", theta,
        "--mc-samples", "10000", "--format", "json",
    )
    assert code == 1
    results = strict_json(out)["results"]
    laplace = next(r for r in results if r["method"] == "laplace_w")
    assert "leaves the float range" in laplace["error"]
    assert not any("math range error" in r.get("error", "") for r in results)


def test_a_non_finite_diagnostic_prints_as_null(capsys):
    # e^m underflows at mu = -max float: m_1 is -inf, which JSON cannot hold
    code, out = run_cli(
        capsys, "compute", "--mu=-1.7976931348623157e308", "--sigma", "3.9",
        "--theta=3.6e-267", "--methods", "zero", "--steps", "50", "--format", "json",
    )
    assert code == 0
    (row,) = strict_json(out)["results"]
    assert row["value"] == 1.0 and row["diagnostics"]["m_1"] is None
    assert '"m_1": null,' in out


def test_compute_inside_positive_domain_succeeds(capsys):
    code, out = run_cli(
        capsys, "compute", "--mu", "0", "--sigma", "0.1", "--theta", "5",
        "--methods", "laplace", "--format", "json",
    )
    assert code == 0
    assert strict_json(out)["results"][0]["value"] > 0


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["table", "--id", "9"])
    assert exc_info.value.code == 2


@pytest.mark.parametrize("spec, name", [(",", "''"), ("bogus", "'bogus'"), ("mc,", "''")])
def test_an_unknown_method_is_a_usage_error_naming_it(capsys, spec, name):
    # an empty selection splits into empty names, each an unknown method
    with pytest.raises(SystemExit) as exc_info:
        main(["compute", "--mu", "0", "--sigma", "1", "--theta", "-1", "--methods", spec])
    assert exc_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"logmgf compute: error: argument --methods: unknown method {name}"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--mu", "0", "--sigma", "0", "--theta", "-1"],
        ["compute", "--mu", "0", "--sigma", "nan", "--theta", "-1"],
        ["paths", "--mu", "0", "--sigma", "0.1", "--theta", "-1", "--n", "1"],
        ["paths", "--mu", "0", "--sigma", "0.1", "--theta", "-1", "--steps", "0"],
        ["paths", "--mu", "0", "--sigma", "0.1", "--theta", "0"],
        ["paths", "--mu", "0", "--sigma", "1e-200", "--theta", "-1", "--n", "10",
         "--steps", "10"],
        # one of the two paths overflows: one retained path has no sample variance
        ["paths", "--mu", "0", "--sigma", "1", "--theta", "0.3", "--n", "2",
         "--steps", "500", "--seed", "19"],
        ["compute", "--mu", "0", "--sigma", "0.1", "--theta", "-1", "--seed", "-1"],
        ["compute", "--mu", "0", "--sigma", "0.1", "--theta", "-1", "--seed",
         str(2**64), "--methods", "zero"],
        ["table", "--id", "1", "--seed", "-1"],
        ["compute", "--mu", "0", "--sigma", "0.1", "--theta", "-1", "--steps", "5"],
        ["compute", "--mu", "0", "--sigma", "0.1", "--theta", "-1", "--n-pairs", "1"],
        ["compute", "--mu", "0", "--sigma", "0.1", "--theta", "-1", "--mc-samples", "10"],
        ["table", "--id", "2", "--mc-samples", "10"],
        # an engine flag is checked whatever --methods selects
        ["compute", "--mu", "0", "--sigma", "0.1", "--theta=-1", "--methods", "tile",
         "--steps", "5"],
        ["compute", "--mu", "0", "--sigma", "0.1", "--theta=-1", "--methods", "zero",
         "--n-pairs", "1"],
        ["compute", "--mu", "0", "--sigma", "0.1", "--theta=-1", "--methods", "zero",
         "--mc-samples", "10"],
        ["compute", "--mu", "0", "--sigma", "0.1", "--theta", "-1", "--mc-samples",
         "100000000000000000000"],
        ["compute", "--mu", "0", "--sigma", "0.1", "--theta", "-1", "--methods", "tile",
         "--n-pairs", "100000000000000000000"],
    ],
    ids=["sigma-zero", "sigma-nan", "paths-n-1", "paths-steps-0", "paths-theta-0",
         "paths-sigma-underflow", "paths-one-retained", "compute-seed-negative",
         "compute-seed-65-bits", "table-seed-negative", "compute-steps-5", "compute-n-pairs-1",
         "compute-mc-samples-10", "table-mc-samples-10", "tile-steps-5", "zero-n-pairs-1",
         "zero-mc-samples-10", "compute-mc-samples-1e20",
         "compute-n-pairs-1e20"],
)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("logmgf: error: ")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["compute", "--mu", "0", "--sigma", "1", "--theta", "-1", "--methods", "tile",
          "--n-pairs", str(10**15)], 1),
        (["paths", "--mu", "0", "--sigma", "1", "--theta", "-1", "--n", str(10**15)], 2),
    ],
    ids=["compute-tile-out-of-memory", "paths-beyond-the-substream-keys"],
)
def test_a_size_too_large_ends_in_one_line(capsys, argv, code):
    # 10^15 doubles are 7 PiB: the allocation fails at once, touching no memory
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("logmgf: error: ")


def test_table_csv_format(capsys):
    code, out = run_cli(capsys, "table", "--id", "2", "--format", "csv",
                        "--mc-samples", "10000")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["table", "mu", "sigma", "theta", "method", "value",
                       "paper_value", "error", "time_ms"]
    assert len(rows) == 1 + 5 * 4  # five thetas, four methods
    by_method = {(r[4], r[3]): r for r in rows[1:]}
    tile = by_method[("thin_tile", "-1")]
    assert float(tile[5]) == pytest.approx(0.367880, abs=2e-6)
    assert float(tile[6]) == 0.367880
    # 9 significant digits in the value column
    assert len(tile[5].replace(".", "").replace("-", "").lstrip("0")) <= 9


def test_table_json_includes_paper_values(capsys):
    code, out = run_cli(capsys, "table", "--id", "3", "--format", "json",
                        "--mc-samples", "10000")
    assert code == 0
    docs = strict_json(out)
    assert len(docs) == 5
    for doc in docs:
        for r in doc["results"]:
            assert "paper_value" in r
    # the documented asymmetry stays visible: zero-entropy far from tile row
    row4 = next(d for d in docs if d["query"]["theta"] == -4.0)
    ze = next(r for r in row4["results"] if r["method"] == "zero_entropy")
    tt = next(r for r in row4["results"] if r["method"] == "thin_tile")
    assert ze["value"] == pytest.approx(0.159668, abs=1e-3)
    assert tt["value"] == pytest.approx(0.098046, abs=3e-5)


def test_table_values_deterministic(capsys):
    def strip_timings(doc):
        for rep in doc:
            rep.pop("timings")
        return doc

    _, out1 = run_cli(capsys, "table", "--id", "1", "--format", "json",
                      "--mc-samples", "20000", "--seed", "4")
    _, out2 = run_cli(capsys, "table", "--id", "1", "--format", "json",
                      "--mc-samples", "20000", "--seed", "4")
    assert strip_timings(strict_json(out1)) == strip_timings(strict_json(out2))


def test_table_text_layout(capsys):
    code, out = run_cli(capsys, "table", "--id", "1", "--format", "text",
                        "--mc-samples", "10000")
    assert code == 0
    assert "zero_entropy" in out and "monte_carlo" in out
    assert "(paper)" in out


def test_paths_report(capsys):
    code, out = run_cli(
        capsys, "paths", "--mu", "0", "--sigma", "0.0625", "--theta", "-1",
        "--n", "4000", "--steps", "200", "--seed", "7", "--format", "json",
    )
    assert code == 0
    doc = strict_json(out)
    r = doc["results"]
    assert abs(r["standardized_mean_diff"]) < 4.0
    assert abs(r["standardized_variance_diff"]) < 4.0
    assert r["n_paths"] == 4000


def test_paths_csv(capsys):
    code, out = run_cli(
        capsys, "paths", "--mu", "0", "--sigma", "1e-4", "--theta", "-1",
        "--n", "1000", "--steps", "100", "--format", "csv",
    )
    assert code == 0
    rows = dict(r for r in csv.reader(io.StringIO(out)) if r[0] != "quantity")
    assert abs(float(rows["ensemble_mean"])) < 1e-3
    assert float(rows["ensemble_variance"]) < 1e-6


def test_dump_files(tmp_path, capsys):
    grid_path = tmp_path / "grid.csv"
    traj_path = tmp_path / "traj.csv"
    code, _ = run_cli(
        capsys, "compute", "--mu", "0", "--sigma", "0.5", "--theta", "-1",
        "--methods", "zero,tile", "--n-pairs", "200", "--steps", "50",
        "--dump-grid", str(grid_path), "--dump-trajectory", str(traj_path),
    )
    assert code == 0
    assert grid_path.read_text().startswith("n,x_n,s_n,dA_n,A_n")
    traj = traj_path.read_text().splitlines()
    assert traj[0] == "i,t,m,v"
    assert len(traj) == 52


def test_a_trajectory_dump_at_theta_zero_is_skipped(tmp_path, capsys):
    traj_path = tmp_path / "traj.csv"
    code = main(["compute", "--mu", "0", "--sigma", "1", "--theta", "0",
                 "--dump-trajectory", str(traj_path)])
    captured = capsys.readouterr()
    assert code == 0 and "monte_carlo" in captured.out
    assert captured.err == "trajectory dump skipped: theta = 0 has no trajectory\n"
    assert not traj_path.exists()


def test_entry_point_exit_codes():
    ok = subprocess.run(
        [sys.executable, "-m", "logmgf.cli", "compute", "--mu", "0",
         "--sigma", "0.1", "--theta", "0.5", "--methods", "zero"],
        capture_output=True, text=True,
    )
    assert ok.returncode == 0
    usage = subprocess.run(
        [sys.executable, "-m", "logmgf.cli", "compute", "--mu", "0"],
        capture_output=True, text=True,
    )
    assert usage.returncode == 2


def test_a_closed_pipe_ends_quietly():
    # the reader closes its end before the child has written anything
    read, write = os.pipe()
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "logmgf.cli", "table", "--id", "2",
             "--format", "csv", "--mc-samples", "10000"],
            stdout=write, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write)
        os.close(read)
    _, err = child.communicate(timeout=120)
    assert child.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


_DUMPED = ["compute", "--mu", "0", "--sigma", "1", "--theta", "-1", "--methods", "zero,tile",
           "--n-pairs", "200"]


@pytest.mark.parametrize(
    "flag, path, reason",
    [
        ("--dump-trajectory", ".", "Is a directory"),
        ("--dump-grid", "missing/grid.csv", "No such file or directory"),
        ("--dump-grid", "/dev/full", "No space left on device: '/dev/full'"),
    ],
    ids=["a-directory", "in-a-missing-directory", "a-full-device"],
)
def test_a_dump_that_cannot_be_written_ends_in_one_line_after_the_report(
        tmp_path, capsys, flag, path, reason):
    if path.startswith("/dev/") and not os.path.exists(path):
        pytest.skip(f"no {path} here")
    want = _mask_timings(run_cli(capsys, *_DUMPED)[1])
    assert main([*_DUMPED, flag, str(tmp_path / path)]) == 1  # an absolute path stays
    captured = capsys.readouterr()
    assert _mask_timings(captured.out) == want
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("logmgf: error: ") and reason in err[0]


def test_a_diverging_trajectory_keeps_the_report_and_its_rows(tmp_path, capsys):
    # zero_entropy's Euler loop diverges at step 73 of 2000, in the report and the dump alike
    argv = ["compute", "--mu", "0", "--sigma", "1", "--theta", "5", "--methods", "zero,tile"]
    want = _mask_timings(run_cli(capsys, *argv)[1])
    traj = tmp_path / "traj.csv"
    assert main([*argv, "--dump-trajectory", str(traj)]) == 1
    captured = capsys.readouterr()
    assert _mask_timings(captured.out) == want and "thin_tile" in want
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("logmgf: error: diverged at step 73")
    rows = traj.read_text().splitlines()
    assert rows[0] == "i,t,m,v" and len(rows) == 75 and rows[-1].startswith("73,")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [["compute", "--mu", "0", "--sigma", "1", "--theta", "-1", "--methods", "zero,tile"],
     ["table", "--id", "1", "--mc-samples", "10000", "--format", "json"],
     ["paths", "--mu", "0", "--sigma", "0.5", "--theta", "-1", "--n", "1000", "--steps", "50"]],
    ids=["compute", "table", "paths"],
)
def test_a_full_stdout_ends_in_one_line(argv):
    with open("/dev/full", "w") as full:
        child = subprocess.run([sys.executable, "-m", "logmgf.cli", *argv], stdout=full,
                               stderr=subprocess.PIPE, text=True, timeout=120)
    assert child.returncode == 1
    # nothing else: no traceback, and no "Exception ignored" from the flush at exit
    assert child.stderr.splitlines() == ["logmgf: error: [Errno 28] No space left on device"]


# adversarial floats next to ordinary ones; "--flag=value" keeps "-inf" a value
_ADVERSARIAL = st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 0.0])
_FORMAT = st.sampled_from(["text", "csv", "json"])
_SEED = st.integers(-1, 2**64)  # hypothesis tries both bounds, each out of range


def _flags(**values):
    return [f"--{name.replace('_', '-')}={value}" for name, value in values.items()]


_QUERY = st.builds(
    _flags,
    mu=_ADVERSARIAL | st.floats(-50.0, 50.0),
    sigma=_ADVERSARIAL | st.floats(1e-3, 20.0),
    theta=_ADVERSARIAL | st.floats(-50.0, 50.0),
)
_ENGINE = st.builds(
    _flags,
    steps=st.integers(10, 50),
    n_pairs=st.integers(2, 2000),
    mc_samples=st.integers(1000, 5000),
    seed=_SEED,
    format=_FORMAT,
)
_ARGV = st.one_of(
    st.tuples(
        st.just(["compute"]),
        _QUERY,
        _ENGINE,
        st.builds(_flags, methods=st.sampled_from(["all", "zero,mc", "tile,laplace"])),
    ),
    st.tuples(st.just(["table"]), st.builds(_flags, id=st.integers(1, 3)), _ENGINE),
    st.tuples(
        st.just(["paths"]),
        _QUERY,
        st.builds(_flags, n=st.integers(2, 64), steps=st.integers(10, 50),
                  seed=_SEED, format=_FORMAT),
    ),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=40, deadline=None)
@given(argv=_ARGV)
# inputs that once escaped as a RuntimeWarning or another exception
@example(argv=["paths", "--mu=-1e308", "--sigma=20", "--theta=-1", "--n=60",
               "--steps=10"])  # the ensemble mean overflows
@example(argv=["paths", "--mu=19.3", "--sigma=0.001", "--theta=-1e308", "--n=31",
               "--steps=14"])  # the ensemble variance overflows
@example(argv=["compute", "--mu=1.1", "--sigma=1e308", "--theta=1e308",
               "--n-pairs=524", "--methods=tile"])  # grid coordinates overflow
@example(argv=["compute", "--mu=1e308", "--sigma=1e308", "--theta=-5.9",
               "--n-pairs=310", "--methods=tile"])  # 2*mu overflows; the mirrors do not
@example(argv=["compute", "--mu=72", "--sigma=1e-250", "--theta=-1",
               "--methods=laplace"])  # laplace_w: sigma^2 underflows to 0
@example(argv=["compute", "--mu=1e+308", "--sigma=1e+308", "--theta=1e+308",
               "--steps=10", "--methods=zero"])  # zero_entropy: sigma^3 overflows
def test_fuzzed_argv_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if "--format=json" in argv and out.getvalue():  # a whole-command error prints none
        strict_json(out.getvalue())


def test_a_mode_whose_double_overflows_gives_a_finite_tile_value(capsys):
    # 2*mu overflows, but every mirror mu - sigma*z_n is a real number or
    # -inf, so the rule gives Phi(-1), as monte_carlo does
    code, out = run_cli(
        capsys, "compute", "--mu=1e308", "--sigma=1e308", "--theta=-5.9",
        "--methods=tile", "--format=json",
    )
    assert code == 0
    (row,) = strict_json(out)["results"]
    assert abs(row["value"] - 0.158655) < 1e-4


def test_tile_mean_of_finite_values_is_finite(capsys):
    # the four corner values of the outer pairs are finite, but their sum
    # overflows; the mean is finite and so is the estimate
    code, out = run_cli(
        capsys, "compute", "--mu", "0", "--sigma", "0.01", "--theta", "679.4",
        "--methods", "tile", "--format", "json",
    )
    assert code == 0
    (row,) = strict_json(out)["results"]
    assert 1e303 < row["value"] < 1e304


# Output captured before the CLI's report and method dispatch were merged
# into one dict and one table; every byte but the timings must stay. The
# laplace_w digits in compute-laplace/json and table-2/json are those of the
# trapezoid-rule residual factor. The paths cases pin the third subcommand,
# which takes no --mc-samples.
_GOLDEN = Path(__file__).with_name("cli_golden.json")
_GOLDEN_ARGV = {
    "compute-ok": ["compute", "--mu", "0", "--sigma", "0.1", "--theta", "0.5"],
    "compute-error-row": ["compute", "--mu", "0", "--sigma", "0.1", "--theta", "40"],
    "compute-laplace": ["compute", "--mu", "0", "--sigma", "0.1", "--theta", "-1",
                        "--methods", "laplace"],
    "table-2": ["table", "--id", "2"],
    "paths": ["paths", "--mu", "0", "--sigma", "0.0625", "--theta", "-1",
              "--n", "2000", "--steps", "100", "--seed", "7"],
}


def _mask_timings(out):
    """Replace each timing by x: text `[1.2 ms]`, csv time_ms, json `timings`."""
    out = re.sub(r"\[\d+\.\d ms\]", "[x ms]", out)
    out = re.sub(r",\d+\.\d{3}\r\n", ",x\r\n", out)
    return re.sub(r'"timings": \{[^}]*\}', lambda m: re.sub(r": [\d.e+-]+", ": x", m.group()), out)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("case", list(_GOLDEN_ARGV))
def test_output_matches_the_golden_bytes(capsys, case, fmt):
    argv = _GOLDEN_ARGV[case]
    engine = [] if argv[0] == "paths" else ["--mc-samples", "20000"]
    code = main([*argv, *engine, "--format", fmt])
    captured = capsys.readouterr()
    golden = json.loads(_GOLDEN.read_text())[f"{case}/{fmt}"]
    assert captured.err == ""
    assert code == golden["code"]
    assert _mask_timings(captured.out) == golden["stdout"]
    if fmt == "json":
        strict_json(captured.out)
