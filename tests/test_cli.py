import concurrent.futures
import multiprocessing.process
import statistics
import subprocess
import sys
from dataclasses import replace

import pytest

from hambucket import bench, cli
from hambucket.analysis import choose_params
from hambucket.bench import CSV_HEADER, BenchRecord, emit_csv, run_bench
from hambucket.cli import bench_summary
from hambucket.generator import DistributionModel, read_instance
from hambucket.solver import EXACT


def run_cli(*args, timeout=300, **kw):
    return subprocess.run(
        [sys.executable, "-m", "hambucket", *args],
        capture_output=True, text=True, timeout=timeout, **kw,
    )


CSV_COLUMN = {name: i for i, name in enumerate(CSV_HEADER.split(","))}

# The two flags that take a gamma sweep, each after the rest of its command line.
BENCH_SWEEP = ("bench", "--d", "32", "--n", "64", "--trials", "1", "--gamma-sweep")
EXPONENT_SWEEP = ("exponent", "--lambda", "0.25", "--gamma")


def over_sweep_flags(*cases):
    """Each case for bench --gamma-sweep (id: the case) and for exponent --gamma (id: exponent-case)."""
    out = []
    for case in cases:
        case_id = "-".join(case)
        out.append(pytest.param(BENCH_SWEEP, *case, id=case_id))
        out.append(pytest.param(EXPONENT_SWEEP, *case, id=f"exponent-{case_id}"))
    return out


# The 9-point curve at lambda 0.3 as `exponent --sweep --points 9` printed it;
# `--gamma 0:0.5:0.0625` must print the same bytes.
EXPONENT_SWEEP_L03 = """\
gamma,theta,delta,regime,lower_bound,pairs_exponent
0.000000,0.300000000,0.189297705,below-gamma-star,0.300000000,0.000000000
0.062500,0.323947686,0.189297705,below-gamma-star,0.320000000,0.000000000
0.125000,0.352660989,0.189297705,below-gamma-star,0.342857143,0.143564443
0.187500,0.388038338,0.189297705,below-gamma-star,0.369230769,0.296212260
0.250000,0.433458664,0.189297705,below-gamma-star,0.411278124,0.411278124
0.312500,0.496038233,0.193813782,above-gamma-star,0.496038233,0.496038233
0.375000,0.554434003,0.250000000,above-gamma-star,0.554434003,0.554434003
0.437500,0.588699408,0.323223305,above-gamma-star,0.588699408,0.588699408
0.500000,0.600000000,0.500000000,above-gamma-star,0.600000000,0.600000000
"""


def test_gen_solve_naive_pipeline(tmp_path):
    path = tmp_path / "inst.cpinst"
    r = run_cli("gen", "--d", "64", "--n", "256", "--gamma", "8",
                "--model", "uniform", "--seed", "3", "--out", str(path))
    assert r.returncode == 0, r.stderr
    assert "wrote" in r.stdout and path.exists()

    inst = read_instance(path)
    assert inst.gamma_count == 8 and inst.n == 256

    sv = run_cli("solve", "--in", str(path), "--seed", "5", "--all")
    assert sv.returncode == 0, sv.stderr
    assert "planted_found=true" in sv.stdout

    nv = run_cli("naive", "--in", str(path))
    assert nv.returncode == 0
    naive_pairs = {tuple(map(int, line.split()[:2]))
                   for line in nv.stdout.splitlines() if not line.startswith("#")}
    solve_pairs = {tuple(map(int, line.split()[:2]))
                   for line in sv.stdout.splitlines() if not line.startswith("#")}
    assert solve_pairs <= naive_pairs
    assert tuple(inst.planted) in solve_pairs


def test_solve_respects_tuning_flags(tmp_path):
    path = tmp_path / "i.cpinst"
    run_cli("gen", "--d", "32", "--n", "64", "--gamma", "4", "--seed", "1",
            "--out", str(path))
    r = run_cli("solve", "--in", str(path), "--strategy", "atmost",
                "--delta", "1.0", "--depth", "1", "--branching", "1",
                "--threshold", "0", "--all")
    assert r.returncode == 0, r.stderr
    # the exhaustive configuration must report the planted pair
    assert "planted_found=true" in r.stdout
    # and walks the root in every round, weighing its 2 x 64 rows against the one z
    summary = dict(field.split("=") for field in r.stdout.splitlines()[-1].split()[1:])
    assert summary["levels"] == "1" and int(summary["weighed"]) == 128 * int(summary["rounds"]) > 0


def test_solve_summary_reports_chosen_parameters(tmp_path):
    """The summary line ends with the depth, branching and threshold the solve ran with."""
    path = tmp_path / "i.cpinst"
    run_cli("gen", "--d", "64", "--n", "512", "--gamma", "8", "--seed", "7", "--out", str(path))
    auto = choose_params(64, 9 / 64, 8 / 64, stop_on_first=True)
    r = run_cli("solve", "--in", str(path))
    assert r.returncode == 0, r.stderr
    summary = r.stdout.splitlines()[-1]
    assert summary.startswith("# matches=1 nodes=")
    assert summary.endswith(f"s planted_found=true depth={auto.depth} branching={auto.branching} "
                            f"threshold={auto.naive_threshold}")
    r = run_cli("solve", "--in", str(path), "--depth", "2", "--branching", "100", "--threshold", "40")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1].endswith(" depth=2 branching=100 threshold=40")


# (8, 256, 1): no exact block keeps the pair's odd split, but the root is scanned
@pytest.mark.parametrize("d, n, gamma", [(64, 100, 8), (32, 64, 4), (8, 256, 1)])
def test_solve_scans_a_root_within_the_branching(tmp_path, d, n, gamma):
    """A root of at most max(32, branching) rows a side is one leaf, scanned once, as any bucket that small."""
    path = tmp_path / "i.cpinst"
    run_cli("gen", "--d", str(d), "--n", str(n), "--gamma", str(gamma), "--seed", "1", "--out", str(path))
    r = run_cli("solve", "--in", str(path))
    assert r.returncode == 0, r.stderr
    assert f" nodes=1 comparisons={n * n} levels=0 " in r.stdout
    assert " levels=0 rounds=0 weighed=0 time=" in r.stdout
    assert r.stdout.splitlines()[-1].endswith(" planted_found=true depth=1 branching=512 threshold=512")


def test_exponent_report_values():
    r = run_cli("exponent", "--lambda", "0.25", "--gamma", "0.25")
    assert r.returncode == 0
    fields = dict(line.split() for line in r.stdout.splitlines() if line)
    assert float(fields["theta"]) == pytest.approx(0.3544138347780994, abs=1e-6)
    assert float(fields["delta_star"]) == pytest.approx(0.2145017448598287, abs=1e-6)
    assert fields["regime"] == "below-gamma-star"


def test_exponent_sweep_csv():
    r = run_cli("exponent", "--lambda", "0.3", "--gamma", "0:0.5:0.0625")
    assert r.returncode == 0, r.stderr
    assert r.stdout == EXPONENT_SWEEP_L03


def test_exponent_poisson_notes_approximation():
    r = run_cli("exponent", "--lambda", "0.25", "--gamma", "0.2",
                "--model", "poisson:0.3")
    assert r.returncode == 0
    assert "approxim" in r.stdout.lower()


def test_verify_subcommand():
    r = run_cli("verify", "--kmax", "8")
    assert r.returncode == 0
    assert "ok" in r.stdout


def test_usage_error_exits_2():
    r = run_cli("solve")
    assert r.returncode == 2
    assert r.stderr


def test_bad_input_file_exits_2(tmp_path):
    bad = tmp_path / "bad.cpinst"
    bad.write_text("CPINST 1 nonsense\n")
    r = run_cli("solve", "--in", str(bad))
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_solve_single_vector_lists(tmp_path):
    path = tmp_path / "one.cpinst"
    r = run_cli("gen", "--d", "64", "--n", "1", "--gamma", "0", "--out", str(path))
    assert r.returncode == 0, r.stderr
    r = run_cli("solve", "--in", str(path))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0] == "0 0 0"
    assert "matches=1 nodes=1 comparisons=1 " in r.stdout
    assert "planted_found=true" in r.stdout


def test_non_ascii_instance_exits_2_naming_the_line(tmp_path):
    bad = tmp_path / "bad.cpinst"
    bad.write_bytes(b"CPINST 1 d=8 n=1 gamma=4 planted=0,0 model=uniform seed=0\nf0\n\n\xffa\n")
    r = run_cli("solve", "--in", str(bad))
    assert r.returncode == 2
    assert r.stderr.strip() == "error: line 4: non-ASCII character 0xff"


@pytest.mark.parametrize("command, sweep", over_sweep_flags(("0.1:0.2:nan",), ("nan",), ("0.1:inf:0.05",)))
def test_non_finite_sweep_exits_2(command, sweep):
    r = run_cli(*command, sweep)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip() == f"error: malformed sweep {sweep!r}: values must be finite"


@pytest.mark.parametrize("command, sweep, bad", over_sweep_flags(
    ("-0.1", "-0.1"), ("-0.05:0.1:0.05", "-0.05"), ("0.9", "0.9"), ("0.4:0.6:0.1", "0.6")))
def test_gamma_sweep_outside_range_exits_2(command, sweep, bad):
    """Each sweep value is checked before any trial or exponent runs, and the message quotes it."""
    # the = form; the space-separated form is checked below
    r = run_cli(*command[:-1], f"{command[-1]}={sweep}")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip() == f"error: gamma outside [0, 1/2]: {bad}"


@pytest.mark.parametrize("command, sweep, bad", over_sweep_flags(
    ("-0.1", "-0.1"), ("-0.05:0.1:0.05", "-0.05"), ("-.2:0.1:0.1", "-0.2")))
def test_negative_gamma_sweep_as_separate_argument_exits_2(command, sweep, bad):
    """A sweep starting below 0 reaches the range check when written after a space too."""
    r = run_cli(*command, sweep)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.strip() == f"error: gamma outside [0, 1/2]: {bad}"


@pytest.mark.parametrize("command, sweep, points", over_sweep_flags(
    ("0.4:0.5:1e-18", "1e+17"), ("0:0.5:0.00001", "50001")))
def test_sweep_over_the_point_cap_exits_2(command, sweep, points):
    """A step below the float spacing at a, or too fine for the cap, is refused before any point runs."""
    r = run_cli(*command, sweep, timeout=30)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: sweep {sweep!r} has {points} points, more than 10000\n"


def test_impossible_sizes_exit_2(tmp_path):
    """Allocations beyond the 128 TiB address space fail at once, as input errors."""
    path = tmp_path / "i.cpinst"
    r = run_cli("gen", "--d", "64", "--n", str(10**15), "--gamma", "4", "--out", str(path), timeout=30)
    assert r.returncode == 2
    assert r.stdout == "" and not path.exists()
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    run_cli("gen", "--d", "32", "--n", "64", "--gamma", "4", "--seed", "1", "--out", str(path))
    # 64 rows exceed the leaf threshold of 32, so the root draws all 10^15 z at once
    r = run_cli("solve", "--in", str(path), "--branching", str(10**15), "--threshold", "32", timeout=30)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def planted_d8(tmp_path):
    """A d=8 instance of 16 rows a side at distance 1: at or below the leaf threshold of 32."""
    path = tmp_path / "d8.cpinst"
    r = run_cli("gen", "--d", "8", "--n", "16", "--gamma", "1", "--seed", "3", "--out", str(path))
    assert r.returncode == 0, r.stderr
    return path


@pytest.mark.parametrize("command", ["solve", "bench"])
@pytest.mark.parametrize("delta", ["nan", "inf", "-0.5", "1.5"])
def test_delta_outside_unit_interval_exits_2(tmp_path, command, delta):
    if command == "solve":
        args = ("solve", "--in", str(planted_d8(tmp_path)))
    else:
        args = ("bench", "--d", "16", "--n", "8", "--trials", "2", "--gamma-sweep", "0.125")
    r = run_cli(*args, "--delta", delta)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: delta outside [0, 1]: {float(delta)}\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--delta", "nan", "delta outside [0, 1]: nan"),
    ("--depth", "99", "depth outside [1, 64]: 99"),
    ("--d", "0", "d outside [1, 1048576]: 0"),  # checked before log2(n) / d is taken
    ("--strategy", f"dev:{10**21}", f"deviation width outside [0, 1048576]: {10**21}"),
])
def test_bench_refuses_tuning_flags_before_any_trial(monkeypatch, capsys, flag, value, message):
    """The parameters are chosen once per gamma before any instance is generated or scanned."""
    def no_trial(*args, **kwargs):
        raise AssertionError("an instance was generated")

    monkeypatch.setattr(bench, "gen_instance", no_trial)
    argv = ["bench", "--d", "64", "--n", "65536", "--trials", "1", "--gamma-sweep", "0.125"]
    assert cli.main([*argv, flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_solve_refuses_a_deviation_width_beyond_max_dim(tmp_path):
    r = run_cli("solve", "--in", str(planted_d8(tmp_path)), "--strategy", f"dev:{10**21}")
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: deviation width outside [0, 1048576]: {10**21}\n")


def test_solve_and_bench_refuse_more_rows_than_2_to_the_d(tmp_path):
    """n > 2^d is a valid instance that naive scans; solve and bench name n and d when they refuse it."""
    path = tmp_path / "long.cpinst"
    assert run_cli("gen", "--d", "8", "--n", "300", "--gamma", "2", "--out", str(path)).returncode == 0
    assert run_cli("naive", "--in", str(path)).returncode == 0
    message = "error: n outside [1, 2^d] for d=8: 300\n"
    for args in (("solve", "--in", str(path)), ("bench", "--d", "8", "--n", "300", "--gamma-sweep", "0.25")):
        r = run_cli(*args)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", message)


def test_solve_refuses_gamma_above_half_d(tmp_path, monkeypatch, capsys):
    """gen writes a valid instance 40 of 64 coordinates apart and naive scans it; solve names its gamma and d."""
    path = tmp_path / "far.cpinst"
    assert run_cli("gen", "--d", "64", "--n", "256", "--gamma", "40", "--seed", "3", "--out", str(path)).returncode == 0
    r = run_cli("naive", "--in", str(path))
    assert r.returncode == 0 and r.stdout.splitlines()[-1].startswith("# matches=816 ")

    def no_params(*args, **kwargs):
        raise AssertionError("choose_params ran")

    monkeypatch.setattr(cli, "choose_params", no_params)
    assert cli.main(["solve", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: gamma outside [0, d/2] for d=64: 40\n")


def test_solve_refuses_a_walk_that_cannot_find_the_pair(tmp_path):
    """At d=12, n=4096, distance 1, exact buckets never keep an odd split: no depth can find the pair."""
    path = tmp_path / "odd.cpinst"
    assert run_cli("gen", "--d", "12", "--n", "4096", "--gamma", "1", "--out", str(path)).returncode == 0
    r = run_cli("solve", "--in", str(path))
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: no depth has a finite predicted cost at gamma=0.0833333 ")
    assert r.stderr.count("\n") == 1


@pytest.mark.parametrize("stop", [[], ["--all"]], ids=["first", "all"])
def test_solve_refuses_a_walk_whose_cost_overflows(tmp_path, stop):
    """At d=256, n=4096, distance 32, a dev:1 walk of depth 146 has counts past the float range: exit 2, one line."""
    path = tmp_path / "deep.cpinst"
    assert run_cli("gen", "--d", "256", "--n", "4096", "--gamma", "32", "--seed", "1", "--out", str(path)).returncode == 0
    r = run_cli("solve", "--in", str(path), "--depth", "146", "--strategy", "dev:1", *stop)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: no depth has a finite predicted cost at gamma=0.125 ")
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr and "Warning" not in r.stderr


def test_solve_scans_a_small_root_at_any_depth(tmp_path):
    """16 rows a side are one leaf: depth 2 scans the root once, whatever its blocks could keep."""
    r = run_cli("solve", "--in", str(planted_d8(tmp_path)), "--depth", "2")
    assert r.returncode == 0, r.stderr
    assert "nodes=1 comparisons=256 " in r.stdout
    assert "planted_found=true depth=2 " in r.stdout


@pytest.mark.parametrize("command", ["gen", "solve", "bench"])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, command):
    out = tmp_path / "unwritten.cpinst"
    args = {
        "gen": ("--d", "8", "--n", "4", "--gamma", "1", "--out", str(out)),
        "solve": ("--in", str(tmp_path / "absent.cpinst")),
        "bench": ("--d", "16", "--n", "8", "--gamma-sweep", "0.125"),
    }[command]
    r = run_cli(command, *args, "--seed", "-1")
    assert r.returncode == 2
    assert r.stdout == "" and not out.exists()
    assert r.stderr.splitlines()[-1] == (
        f"hambucket {command}: error: argument --seed: want a non-negative integer, got '-1'")


def test_missing_file_exits_2(tmp_path):
    r = run_cli("naive", "--in", str(tmp_path / "absent.cpinst"))
    assert r.returncode == 2
    assert "error:" in r.stderr


def test_bench_csv_shape(tmp_path):
    out = tmp_path / "bench.csv"
    r = run_cli("bench", "--d", "32", "--n", "64", "--gamma-sweep", "0.125",
                "--trials", "2", "--seed", "9", "--csv", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[:3] == ["32", "64", "0.125"]
    assert row[CSV_COLUMN["found"]] in ("true", "false")
    auto = choose_params(32, 6 / 32, 0.125, stop_on_first=True)
    assert [row[CSV_COLUMN[k]] for k in ("depth", "branching", "threshold")] == [
        str(auto.depth), str(auto.branching), str(auto.naive_threshold)]


def test_bench_summary_reports_cost_per_success(tmp_path):
    out = tmp_path / "bench.csv"
    r = run_cli("bench", "--d", "32", "--n", "64", "--gamma-sweep", "0.125:0.25:0.125",
                "--trials", "3", "--seed", "4", "--csv", str(out))
    assert r.returncode == 0, r.stderr
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    summaries = [line for line in r.stdout.splitlines() if line.startswith("# gamma=")]
    assert len(summaries) == 2
    for gamma, line in zip(("0.125", "0.25"), summaries):
        trials = [row for row in rows if row[CSV_COLUMN["gamma"]] == gamma]
        med_s = statistics.median(int(row[CSV_COLUMN["solver_ns"]]) for row in trials) / 1e9
        hits = sum(row[CSV_COLUMN["found"]] == "true" for row in trials)
        assert line.startswith(f"# gamma={gamma}: ")
        assert f"planted found {hits}/3" in line
        want = f"{med_s * 3 / hits:.4f}s" if hits else "inf"
        assert line.endswith(f", cost per success {want}")


def test_bench_summary_cost_per_success():
    miss = BenchRecord(d=8, n=4, gamma=0.25, strategy="exact", depth=1, branching=2, threshold=32,
                       trial=0, seed=11, solver_ns=1500, naive_ns=3000, found=False, pairs=0)
    line = bench_summary(0.25, [miss, replace(miss, trial=1)])
    assert line.endswith("planted found 0/2, cost per success inf")
    hit = replace(miss, trial=1, solver_ns=4_000_000, found=True, pairs=1)
    # median of 1.5 us and 4 ms is 0.002 s; found in half the trials
    line = bench_summary(0.25, [miss, hit])
    assert line.endswith("planted found 1/2, cost per success 0.0040s")


def test_bench_records_deterministic_apart_from_timing():
    a = run_bench(32, 64, [0.125], DistributionModel.uniform(), 2, EXACT, 9)
    b = run_bench(32, 64, [0.125], DistributionModel.uniform(), 2, EXACT, 9)
    strip = lambda r: (r.d, r.n, r.gamma, r.strategy, r.depth, r.branching, r.threshold,
                       r.trial, r.seed, r.found, r.pairs)
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_bench_runs_in_one_process(monkeypatch):
    """CP_THREADS is not read: whatever it holds, no process starts and the records are the same."""
    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "__init__", no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    runs = {}
    for value in ("abc", "2", None):
        if value is None:
            monkeypatch.delenv("CP_THREADS", raising=False)
        else:
            monkeypatch.setenv("CP_THREADS", value)
        assert cli.main(["bench", "--d", "32", "--n", "64", "--trials", "1", "--gamma-sweep", "0.125"]) == 0
        records = run_bench(32, 64, [0.125, 0.25], DistributionModel.uniform(), 3, EXACT, 9)
        runs[value] = [replace(r, solver_ns=0, naive_ns=0) for r in records]
    assert len(runs[None]) == 6
    assert runs["abc"] == runs["2"] == runs[None]


def test_emit_csv_formats_records():
    rec = BenchRecord(d=8, n=4, gamma=0.25, strategy="exact", depth=1, branching=2, threshold=32,
                      trial=0, seed=11, solver_ns=1500, naive_ns=3000, found=True, pairs=1)
    text = emit_csv([rec])
    assert text.splitlines()[0] == CSV_HEADER
    assert text.splitlines()[1] == "8,4,0.25,exact,1,2,32,0,11,1500,3000,true,1"
