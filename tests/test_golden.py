"""CLI output pinned to recorded values: instance bytes and solver counters.

The instance generator, the file writer and the solver's random streams must
not drift: the same seeds give byte-identical files and identical searches.
"""

import hashlib

import pytest

from hambucket import cli, solver
from hambucket.analysis import DistributionModel, choose_params
from hambucket.bitvec import block_weights_batch, make_rng
from hambucket.generator import gen_instance


def run(capsys, *argv: str) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_uniform_instance_and_solves(tmp_path, capsys):
    path = tmp_path / "inst.cp"
    run(capsys, "gen", "--d", "64", "--n", "512", "--gamma", "8", "--seed", "7", "--out", str(path))
    assert sha256(path).startswith("59d46acacc40e800")
    # --depth 2 and the thresholds 64 and 256 keep these pins on the walks
    # they were recorded from; the walks at the parameters chosen now are
    # pinned next
    out = run(capsys, "solve", "--in", str(path), "--depth", "2", "--threshold", "256")
    assert "matches=1 nodes=606 comparisons=7468 " in out
    out = run(capsys, "solve", "--in", str(path), "--threshold", "64")
    assert "matches=1 nodes=249 comparisons=43534 " in out
    assert out.endswith(" depth=3 branching=512 threshold=64\n")
    out = run(capsys, "solve", "--in", str(path), "--threshold", "256")
    assert "matches=1 nodes=249 comparisons=43534 " in out
    assert out.endswith(" depth=3 branching=512 threshold=256\n")
    # 512 rows a side are at most the threshold: the root is one leaf, scanned once
    out = run(capsys, "solve", "--in", str(path))
    assert "matches=1 nodes=1 comparisons=262144 " in out
    assert out.endswith(" depth=1 branching=512 threshold=512\n")
    out = run(capsys, "solve", "--in", str(path), "--depth", "2")
    assert "matches=1 nodes=1 comparisons=262144 " in out
    assert out.endswith(" depth=2 branching=512 threshold=512\n")
    out = run(capsys, "solve", "--in", str(path), "--strategy", "dev:1", "--depth", "2",
              "--branching", "256", "--all")
    assert "nodes=1028 comparisons=154914 " in out


def test_fixed_weight_instance_and_solve(tmp_path, capsys):
    path = tmp_path / "inst.cp"
    run(capsys, "gen", "--d", "128", "--n", "1024", "--gamma", "16", "--model", "fixed:0.3",
        "--seed", "7", "--out", str(path))
    assert sha256(path).startswith("232f24d5fe60687b")
    # --threshold 128 keeps the first three pins on the walks they were
    # recorded from; the walks at the threshold chosen now are pinned next
    out = run(capsys, "solve", "--in", str(path), "--strategy", "dev:1", "--perms", "8", "--all", "--depth", "3",
              "--threshold", "128")
    assert "nodes=49145 comparisons=13650569 " in out
    # stop-on-first: the walk ends at the first leaf with a hit, so these
    # counters pin which leaves are committed before the early exit
    out = run(capsys, "solve", "--in", str(path), "--strategy", "dev:1", "--perms", "8", "--threshold", "128")
    assert "nodes=560 comparisons=293863 " in out
    out = run(capsys, "solve", "--in", str(path), "--threshold", "128")
    assert "nodes=744 comparisons=238388 " in out
    out = run(capsys, "solve", "--in", str(path), "--strategy", "dev:1", "--perms", "8", "--all", "--depth", "3")
    assert "nodes=4062 comparisons=12385540 " in out
    out = run(capsys, "solve", "--in", str(path), "--strategy", "dev:1", "--perms", "8")
    assert "nodes=78 comparisons=268745 " in out
    out = run(capsys, "solve", "--in", str(path))
    assert "nodes=744 comparisons=238388 " in out
    assert out.endswith(" depth=3 branching=512 threshold=512\n")


@pytest.mark.parametrize("d, n, model, prefix", [
    (64, 512, "bernoulli:0.4", "f030ea365e8e868d"),
    (100, 3000, "poisson:0.25", "c17f97e042981f46"),  # many sampling slabs, rows across a word
    (100, 3000, "fixed:0.3", "34966dbcb6fcff11"),
])
def test_weighted_instances(tmp_path, capsys, d, n, model, prefix):
    path = tmp_path / "inst.cp"
    run(capsys, "gen", "--d", str(d), "--n", str(n), "--gamma", "8", "--model", model,
        "--seed", "7", "--out", str(path))
    assert sha256(path).startswith(prefix)


def test_block_weights_before_the_first_hit(monkeypatch):
    """Rows x z draws the filter weighs in stop-on-first solves of the d=128 instance.

    The walk stops inside a node's z batch, so these counts pin where the
    batch is split into slabs, along with the walk's own counters.
    """
    inst = gen_instance(128, 1024, 16, DistributionModel("fixed", 0.3), seed=7)
    weighed = 0

    def counting(sub, zs):
        nonlocal weighed
        weighed += sub.shape[0] * zs.shape[0]
        return block_weights_batch(sub, zs)

    monkeypatch.setattr(solver, "block_weights_batch", counting)

    def solves(**threshold):
        nonlocal weighed
        params = choose_params(128, 10 / 128, 16 / 128, strategy=solver.deviation(1), stop_on_first=True,
                               **threshold)
        got = []
        for seed in range(4):
            weighed = 0
            rep = solver.solve(inst, params, make_rng(seed))
            got.append((rep.nodes_visited, rep.naive_comparisons, weighed, rep.planted_found))
        return got

    # naive_threshold=128 keeps the walks these counts were recorded from
    assert solves(naive_threshold=128) == [(560, 293863, 499712, True), (185, 44776, 524006, True),
                                           (2901, 716247, 1572352, True), (1320, 161120, 737792, True)]
    assert solves() == [(78, 268745, 262144, True), (6, 99860, 262144, True),
                        (211, 650309, 524288, True), (32, 129847, 262144, True)]


def test_large_buckets_are_scanned(monkeypatch):
    """At the chosen threshold no bucket below the root is filtered again on the fixed-weight instance.

    Its largest root buckets hold a few hundred rows a side, at most the
    branching of 512, so scanning them costs less than filtering them.
    Each round walked draws one z batch and gathers one block, the root's:
    round 0 and one round per random_permutation draw after it.
    """
    inst = gen_instance(128, 1024, 16, DistributionModel("fixed", 0.3), seed=7)
    calls = {"draw_block_zs": 0, "block_local_rows": 0, "random_permutation": 0}

    def counted(name):
        real = getattr(solver, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counted(name))
    params = choose_params(128, 10 / 128, 16 / 128, strategy=solver.deviation(1), stop_on_first=True)
    for seed in range(4):
        calls.update(dict.fromkeys(calls, 0))
        rep = solver.solve(inst, params, make_rng(seed))
        assert rep.planted_found and rep.levels == 1
        assert calls["draw_block_zs"] == calls["block_local_rows"] == 1 + calls["random_permutation"]
