"""The hambucket command line.

Subcommands: gen, solve, naive, bench, exponent, verify.  Exit codes:
0 success, 1 verification failure, 2 usage or input errors.  Errors print
a one-line cause on stderr.
"""

from __future__ import annotations

import argparse
import math
import re
import statistics
import sys
import time

from .analysis import (
    choose_params,
    delta_gamma_star,
    expected_pairs_exponent,
    list_exponent,
    lower_bound_exponent,
    theta_distribution,
    theta_uniform,
    verify_survival_counts,
)
from .bench import emit_csv, run_bench
from .bitvec import make_rng
from .generator import DistributionModel, gen_instance, read_instance, write_instance
from .solver import Strategy, naive_search, solve


def _seed(text: str) -> int:
    """The argparse type of every --seed flag: a non-negative integer."""
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"want a non-negative integer, got {text!r}")
    return int(text)


def _add_tuning_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, help="tree depth (number of blocks)")
    p.add_argument("--branching", type=int, help="z draws per node")
    p.add_argument("--perms", dest="permutations", type=int, help="permutation rounds")
    p.add_argument("--delta", type=float, help="relative bucket radius")
    p.add_argument("--strategy", default="exact", help="exact | dev:<eps> | atmost")
    p.add_argument("--threshold", dest="naive_threshold", type=int, help="sublist size handed to the quadratic scan")
    p.add_argument("--seed", type=_seed, default=0, help="solver randomness seed")
    p.add_argument("--all", action="store_true", help="collect every match instead of stopping at the first")


def _tuning_overrides(args) -> dict:
    """The tuning flags given, as choose_params keywords."""
    names = ("depth", "branching", "permutations", "delta", "naive_threshold")
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _print_matches(matches, summary: str) -> None:
    for m in matches:
        print(f"{m.i} {m.j} {m.dist}")
    print(summary)


def cmd_gen(args) -> int:
    model = DistributionModel.from_token(args.model)
    inst = gen_instance(args.d, args.n, args.gamma, model, args.seed)
    write_instance(inst, args.out)
    print(f"wrote {args.out}: d={inst.d} n={inst.n} gamma={inst.gamma_count} planted={inst.planted[0]},{inst.planted[1]}")
    return 0


def cmd_solve(args) -> int:
    inst = read_instance(args.infile)
    if 2 * inst.gamma_count > inst.d:
        raise ValueError(f"gamma outside [0, d/2] for d={inst.d}: {inst.gamma_count}")
    params = choose_params(
        inst.d,
        list_exponent(inst.d, inst.n),
        inst.gamma_count / inst.d,
        strategy=Strategy.from_token(args.strategy),
        stop_on_first=not args.all,
        **_tuning_overrides(args),
    )
    report = solve(inst, params, make_rng(args.seed))
    planted = "n/a" if report.planted_found is None else str(report.planted_found).lower()
    _print_matches(
        report.matches,
        f"# matches={len(report.matches)} nodes={report.nodes_visited} "
        f"comparisons={report.naive_comparisons} levels={report.levels} time={report.wall_time:.6f}s "
        f"planted_found={planted} depth={params.depth} branching={params.branching} "
        f"threshold={params.naive_threshold}",
    )
    return 0


def cmd_naive(args) -> int:
    inst = read_instance(args.infile)
    t0 = time.perf_counter()
    matches = naive_search(inst)
    elapsed = time.perf_counter() - t0
    planted = "n/a"
    if inst.planted is not None:
        planted = str(tuple(inst.planted) in {(m.i, m.j) for m in matches}).lower()
    _print_matches(
        matches,
        f"# matches={len(matches)} comparisons={inst.n * inst.n} "
        f"time={elapsed:.6f}s planted_found={planted}",
    )
    return 0


_MAX_SWEEP_POINTS = 10_000


def _parse_sweep(text: str):
    """Relative gammas in [0, 1/2]: an a:b:step inclusive sweep, or one value.

    The sweep's values are a + i step for i = 0, 1, ... up to b, rounded to 12 decimals.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ValueError(f"malformed sweep {text!r}, want a:b:step")
    values = [float(x) for x in parts]
    if not all(math.isfinite(x) for x in values):
        raise ValueError(f"malformed sweep {text!r}: values must be finite")
    if len(values) == 3:
        a, b, step = values
        if step <= 0 or b < a:
            raise ValueError(f"malformed sweep {text!r}: need step > 0 and b >= a")
        span = (b + 1e-9 - a) / step
        if not span < _MAX_SWEEP_POINTS:
            raise ValueError(f"sweep {text!r} has {span + 1:.6g} points, more than {_MAX_SWEEP_POINTS}")
        values = [round(a + i * step, 12) for i in range(math.floor(span) + 1)]
    for g in values:
        if not 0.0 <= g <= 0.5:
            raise ValueError(f"gamma outside [0, 1/2]: {g}")
    return values


def cmd_bench(args) -> int:
    model = DistributionModel.from_token(args.model)
    gammas = _parse_sweep(args.gamma_sweep)
    records = run_bench(
        args.d,
        args.n,
        gammas,
        model,
        args.trials,
        Strategy.from_token(args.strategy),
        args.seed,
        stop_on_first=not args.all,
        **_tuning_overrides(args),
    )
    csv_text = emit_csv(records)
    if args.csv:
        with open(args.csv, "w", encoding="ascii", newline="\n") as fh:
            fh.write(csv_text)
        print(f"wrote {len(records)} records to {args.csv}")
    else:
        sys.stdout.write(csv_text)
    for g in gammas:
        print(bench_summary(g, [r for r in records if r.gamma == g]))
    return 0


def bench_summary(gamma: float, rows) -> str:
    """The summary line of one gamma's trials.

    Cost per success is the median solver time divided by the rate at which
    the planted pair was found: what one success costs when failed runs are
    repeated.  It is inf when no trial found the pair.
    """
    med_s = statistics.median(r.solver_ns for r in rows) / 1e9
    med_n = statistics.median(r.naive_ns for r in rows) / 1e9
    hits = sum(r.found for r in rows)
    cost = f"{med_s * len(rows) / hits:.4f}s" if hits else "inf"
    return (
        f"# gamma={gamma:g}: median solver {med_s:.4f}s, median naive {med_n:.4f}s, "
        f"ratio {med_s / med_n:.3f}, planted found {hits}/{len(rows)}, "
        f"cost per success {cost}"
    )


def cmd_exponent(args) -> int:
    gammas = _parse_sweep(args.gamma)
    model = DistributionModel.from_token(args.model)
    # the uniform model's reference values, printed for every model
    delta_star, gamma_star = delta_gamma_star(args.lam)
    if model.kind == "poisson":
        print("# poisson weight treated as fixed weight at its mean (approximation)")

    def result_at(gamma: float):
        if model.kind == "uniform":
            return theta_uniform(args.lam, gamma)
        return theta_distribution(args.lam, gamma, model)

    def regime(gamma: float) -> str:
        return "below-gamma-star" if gamma <= gamma_star else "above-gamma-star"

    if ":" in args.gamma:
        print("gamma,theta,delta,regime,lower_bound,pairs_exponent")
        for gamma in gammas:
            res = result_at(gamma)
            print(
                f"{gamma:.6f},{res.theta:.9f},{res.delta:.9f},{regime(gamma)},"
                f"{lower_bound_exponent(args.lam, gamma):.9f},"
                f"{expected_pairs_exponent(args.lam, gamma):.9f}"
            )
        return 0
    [gamma] = gammas
    res = result_at(gamma)
    print(f"lambda          {args.lam:g}")
    print(f"gamma           {gamma:g}")
    print(f"theta           {res.theta:.12f}")
    print(f"delta           {res.delta:.12f}")
    print(f"regime          {regime(gamma)}")
    print(f"delta_star      {delta_star:.12f}")
    print(f"gamma_star      {gamma_star:.12f}")
    print(f"lower_bound     {lower_bound_exponent(args.lam, gamma):.12f}")
    print(f"pairs_exponent  {expected_pairs_exponent(args.lam, gamma):.12f}")
    return 0


def cmd_verify(args) -> int:
    cases, mismatches = verify_survival_counts(args.kmax)
    if mismatches:
        for line in mismatches[:20]:
            print(f"error: {line}", file=sys.stderr)
        print(f"error: {len(mismatches)} mismatches in {cases} cases", file=sys.stderr)
        return 1
    print(
        f"ok: survival tables p and q match enumeration for exact, dev:1 and atmost, "
        f"all k <= {args.kmax} ({cases} cases)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hambucket",
        description="Bichromatic closest-pair search in the Hamming metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a planted instance file")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--n", type=int, required=True, help="vectors per list")
    p.add_argument("--gamma", type=int, required=True, help="planted distance (absolute count)")
    p.add_argument("--model", default="uniform", help="uniform | fixed:<eta> | bernoulli:<mu> | poisson:<f>")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="run the bucketing solver on an instance file")
    p.add_argument("--in", dest="infile", required=True, help="instance path")
    _add_tuning_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("naive", help="run the exhaustive quadratic scan")
    p.add_argument("--in", dest="infile", required=True, help="instance path")
    p.set_defaults(func=cmd_naive)

    p = sub.add_parser("bench", help="time solver vs naive over a gamma sweep")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma-sweep", required=True, help="a:b:step (relative gamma), or one value")
    p.add_argument("--model", default="uniform")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--csv", help="write records to this file instead of stdout")
    _add_tuning_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("exponent", help="asymptotic runtime exponents")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="list size exponent")
    p.add_argument("--gamma", default="0",
                   help="relative planted distance, or a:b:step for a CSV curve over gamma")
    p.add_argument("--model", default="uniform", help="uniform | fixed:<eta> | bernoulli:<mu> | poisson:<f>")
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser(
        "verify", help="check the survival tables p/q against enumeration for exact, dev:1 and atmost"
    )
    p.add_argument("--kmax", type=int, default=14)
    p.set_defaults(func=cmd_verify)

    return parser


def _join_negative_sweeps(argv: list[str]) -> list[str]:
    """Join a --gamma-sweep or --gamma value that starts with '-' to its flag.

    argparse takes a plain negative number such as -0.1 as an option's value,
    but reads -0.05:0.1:0.05 as an unknown flag; --gamma-sweep=-0.05:0.1:0.05
    reaches the range check in _parse_sweep.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--gamma-sweep", "--gamma") and re.match(r"-[\d.]", arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_negative_sweeps(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
