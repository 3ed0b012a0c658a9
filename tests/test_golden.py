"""CLI output pinned to recorded values: instance bytes and solver counters.

The instance generator, the file writer and the solver's random streams must
not drift: the same seeds give byte-identical files and identical searches.
"""

import hashlib

import numpy as np
import pytest

from hambucket import cli, solver
from hambucket.analysis import DistributionModel, choose_params
from hambucket.bitvec import block_local_rows, derive_seed, make_rng
from hambucket.generator import gen_instance


def run(capsys, *argv: str) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, derive_seed(7, 0, 1)])
def test_streams_are_numpy_default_pcg64(seed):
    """Every pin below is a PCG64 stream seeded through SeedSequence, numpy's default generator."""
    rng = make_rng(seed)
    assert type(rng.bit_generator) is np.random.PCG64
    want = np.random.default_rng(seed)
    assert np.array_equal(rng.random(8), want.random(8))
    assert np.array_equal(rng.integers(0, 2**63, size=8), want.integers(0, 2**63, size=8))


def test_uniform_instance_and_solves(tmp_path, capsys):
    path = tmp_path / "inst.cp"
    run(capsys, "gen", "--d", "64", "--n", "512", "--gamma", "8", "--seed", "7", "--out", str(path))
    assert sha256(path).startswith("bbfa845225a5a255")
    # --depth 2 and the thresholds 64 and 256 keep these pins on the walks
    # they were recorded from; the walks at the parameters chosen now are
    # pinned next
    out = run(capsys, "solve", "--in", str(path), "--depth", "2", "--threshold", "256")
    assert "matches=1 nodes=243 comparisons=2924 " in out
    out = run(capsys, "solve", "--in", str(path), "--threshold", "64")
    assert "matches=1 nodes=19 comparisons=3374 " in out
    assert out.endswith(" depth=3 branching=512 threshold=64\n")
    out = run(capsys, "solve", "--in", str(path), "--threshold", "256")
    assert "matches=1 nodes=19 comparisons=3374 " in out
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
    assert "nodes=1028 comparisons=154976 " in out


def test_fixed_weight_instance_and_solve(tmp_path, capsys):
    path = tmp_path / "inst.cp"
    run(capsys, "gen", "--d", "128", "--n", "1024", "--gamma", "16", "--model", "fixed:0.3",
        "--seed", "7", "--out", str(path))
    assert sha256(path).startswith("fabb8c7b5ab6e69f")
    # --threshold 128 keeps the first three pins on the walks they were
    # recorded from; the walks at the threshold chosen now are pinned next
    out = run(capsys, "solve", "--in", str(path), "--strategy", "dev:1", "--perms", "8", "--all", "--depth", "3",
              "--threshold", "128")
    assert "nodes=65581 comparisons=15055433 " in out
    # stop-on-first: the walk ends at the first leaf with a hit, so these
    # counters pin which leaves are committed before the early exit
    out = run(capsys, "solve", "--in", str(path), "--strategy", "dev:1", "--perms", "8", "--threshold", "128")
    assert "nodes=150 comparisons=28313 " in out
    out = run(capsys, "solve", "--in", str(path), "--threshold", "128")
    assert "nodes=619 comparisons=235064 " in out
    out = run(capsys, "solve", "--in", str(path), "--strategy", "dev:1", "--perms", "8", "--all", "--depth", "3")
    assert "nodes=4061 comparisons=13144813 " in out
    out = run(capsys, "solve", "--in", str(path), "--strategy", "dev:1", "--perms", "8")
    assert "nodes=20 comparisons=49070 " in out
    out = run(capsys, "solve", "--in", str(path))
    assert "nodes=619 comparisons=235064 " in out
    assert out.endswith(" depth=3 branching=512 threshold=512\n")


@pytest.mark.parametrize("d, n, model, prefix", [
    (64, 512, "bernoulli:0.4", "fa4e641882d171fa"),
    (100, 3000, "poisson:0.25", "19ffc389d2165cca"),  # many sampling slabs, rows across a word
    (100, 3000, "fixed:0.3", "3709816cf72ee88c"),
])
def test_weighted_instances(tmp_path, capsys, d, n, model, prefix):
    path = tmp_path / "inst.cp"
    run(capsys, "gen", "--d", str(d), "--n", str(n), "--gamma", "8", "--model", model,
        "--seed", "7", "--out", str(path))
    assert sha256(path).startswith(prefix)


def test_block_weights_before_the_first_hit():
    """Rows x z draws the filter weighs in stop-on-first solves of the d=128 instance.

    The walk stops inside a node's z batch, so these counts pin where the
    batch is split into slabs, along with the walk's own counters.
    """
    inst = gen_instance(128, 1024, 16, DistributionModel("fixed", 0.3), seed=7)

    def solves(**threshold):
        params = choose_params(128, 10 / 128, 16 / 128, strategy=solver.deviation(1), stop_on_first=True,
                               **threshold)
        reports = [solver.solve(inst, params, make_rng(seed)) for seed in range(4)]
        return [(rep.nodes_visited, rep.naive_comparisons, rep.weighed, rep.planted_found) for rep in reports]

    # naive_threshold=128 keeps the walks these counts were recorded from
    assert solves(naive_threshold=128) == [(150, 28313, 130741, True), (21, 55885, 65536, True),
                                           (49, 111487, 131072, True), (434, 52352, 218624, True)]
    assert solves() == [(20, 49070, 65536, True), (21, 55885, 65536, True),
                        (49, 111487, 131072, True), (9, 44688, 65536, True)]


def test_large_buckets_are_scanned(monkeypatch):
    """At the chosen threshold no bucket below the root is filtered again on the fixed-weight instance.

    Its largest root buckets hold a few hundred rows a side, at most the
    branching of 512, so scanning them costs less than filtering them.
    Each round walked gathers one block and weighs one z batch, the root's:
    every row against every z in the rounds before the last, and up to the
    hit in the last.  Blocks are gathered as the walk reaches their level,
    which the report does not show, so the gathers are counted.
    """
    inst = gen_instance(128, 1024, 16, DistributionModel("fixed", 0.3), seed=7)
    gathers = []

    def gather(mat, cols):
        gathers.append(cols.size)
        return block_local_rows(mat, cols)

    monkeypatch.setattr(solver, "block_local_rows", gather)
    params = choose_params(128, 10 / 128, 16 / 128, strategy=solver.deviation(1), stop_on_first=True)
    batch = 2 * inst.n * params.branching
    for seed in range(4):
        gathers.clear()
        rep = solver.solve(inst, params, make_rng(seed))
        assert rep.planted_found and rep.levels == 1 and len(gathers) == rep.rounds
        assert (rep.rounds - 1) * batch < rep.weighed <= rep.rounds * batch
