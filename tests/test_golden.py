"""CLI output pinned to recorded values: instance bytes and solver counters.

The instance generator, the file writer and the solver's random streams must
not drift: the same seeds give byte-identical files and identical searches.
"""

import hashlib

from hambucket import cli


def run(capsys, *argv: str) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_uniform_instance_and_solves(tmp_path, capsys):
    path = tmp_path / "inst.cp"
    run(capsys, "gen", "--d", "64", "--n", "512", "--gamma", "8", "--seed", "7", "--out", str(path))
    assert sha256(path).startswith("59d46acacc40e800")
    out = run(capsys, "solve", "--in", str(path))
    assert "matches=1 nodes=606 comparisons=7468 " in out
    out = run(capsys, "solve", "--in", str(path), "--strategy", "dev:1", "--depth", "2",
              "--branching", "256", "--all")
    assert "nodes=1028 comparisons=154914 " in out


def test_fixed_weight_instance_and_solve(tmp_path, capsys):
    path = tmp_path / "inst.cp"
    run(capsys, "gen", "--d", "128", "--n", "1024", "--gamma", "16", "--model", "fixed:0.3",
        "--seed", "7", "--out", str(path))
    assert sha256(path).startswith("232f24d5fe60687b")
    out = run(capsys, "solve", "--in", str(path), "--strategy", "dev:1", "--perms", "8", "--all")
    assert "nodes=49145 comparisons=13650569 " in out
    # stop-on-first: the walk ends at the first leaf with a hit, so these
    # counters pin which leaves are committed before the early exit
    out = run(capsys, "solve", "--in", str(path), "--strategy", "dev:1", "--perms", "8")
    assert "nodes=560 comparisons=293863 " in out
    out = run(capsys, "solve", "--in", str(path))
    assert "nodes=744 comparisons=238388 " in out
