"""The workloads, and the round of operations a run repeats until its time is up.

A run sets up its instance set (generate and write each file), then repeats
identical rounds.  One round searches the next `searches` instances, taking
them in turn, reads back one instance file (round mod count) and runs the
naive scan on it, computes every exponent point, and runs the survival-count
check if the workload has one.  Each of those is one operation, checked by
the oracles, and timed on the speed.SpeedScale scale.  A search calls
solve() with automatic parameters and a fresh seed per attempt until the
planted pair is found; one that uses up ATTEMPT_BUDGET attempts failed.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from hambucket import analysis, generator, solver
from hambucket.bitvec import make_rng

import oracle
from speed import SpeedScale

ATTEMPT_BUDGET = 32
STRATEGY = "dev:1"
ROUNDTRIP_SAMPLE = 16


@dataclass(frozen=True)
class InstanceSpec:
    d: int
    log_n: int
    gamma: int
    model: str


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[InstanceSpec, ...]
    searches: int  # per round, taking the instances in turn
    points: tuple[tuple[float, float, str], ...]  # theta_distribution (lambda, gamma, model) per round
    verify_kmax: int | None = None


def _solve_workload(name: str, d: int, log_n: int, gamma: int, model: str, count: int, searches: int) -> Workload:
    # the exponent point is the workload's own configuration, as `hambucket exponent` reports it
    spec = InstanceSpec(d, log_n, gamma, model)
    return Workload(name, (spec,) * count, searches, ((log_n / d, gamma / d, model),))


SWEEP_MODELS = ("uniform", "fixed:0.3", "bernoulli:0.4")
SWEEP_GAMMAS = (0.05, 0.15, 0.25, 0.35, 0.45)

WORKLOADS = {
    w.name: w
    for w in (
        _solve_workload("solve-d64-uniform", 64, 12, 8, "uniform", count=32, searches=16),
        _solve_workload("solve-d128-fixed", 128, 10, 16, "fixed:0.3", count=96, searches=24),
        Workload(
            "exponent-sweep",
            tuple(InstanceSpec(64, 9, 8, m) for _ in range(32) for m in SWEEP_MODELS),
            searches=48,
            points=tuple((0.25, g, m) for m in SWEEP_MODELS for g in SWEEP_GAMMAS),
            verify_kmax=12,
        ),
    )
}


def derive(*parts) -> int:
    """Stable 63-bit seed from any tuple of ints and strings.

    Kept apart from the package's derive_seed, so that inputs stay the same
    when the package changes.
    """
    return int.from_bytes(hashlib.blake2b(repr(parts).encode(), digest_size=8).digest(), "little") >> 1


class Exhausted(Exception):
    """A search used its whole attempt budget without finding the planted pair."""

    def __init__(self, solve_s: float, reports: list):
        super().__init__(f"planted pair not found in {ATTEMPT_BUDGET} attempts")
        self.solve_s = solve_s
        self.reports = reports


def _fixed_weight(spec: InstanceSpec) -> int | None:
    kind, _, arg = spec.model.partition(":")
    return math.floor(float(arg) * spec.d + 0.5) if kind == "fixed" else None


class Run:
    """One run of one workload: set-up, timed rounds, checks and counters."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path, tracer=None, speed: SpeedScale | None = None):
        self.w = workload
        self.seed = seed
        self.tracer = tracer
        self.speed = speed  # None: raw seconds, as in traced runs
        self.paths = [work_dir / f"inst-{k}.cp" for k in range(len(workload.instances))]
        self.strategy = solver.Strategy.from_token(STRATEGY)
        self.attempted = self.failed = self.rounds = 0
        self.correct = True
        self.errors: list[str] = []
        self.tts: list[float] = []
        self.attempts: list[int] = []
        self.solve_total = 0.0
        self.naive_t: list[float] = []
        self.read_t: list[float] = []
        self.point_t: list[float] = []
        self.setup_t: list[float] = []
        self.twin_s = {False: 0.0, True: 0.0}  # trace mode: untraced / traced op seconds
        self.layer = Counter()
        self.ops = Counter()  # attempted operations by kind
        self.fails = Counter()  # failed operations by kind
        self.raw = {kind: [] for kind in ("search", "read", "naive", "exponent")}  # unscaled seconds

    # --- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Generate and write every instance, timing each, then build the oracles' references."""
        tr = self.tracer
        self.insts = []
        for k, spec in enumerate(self.w.instances):
            model = analysis.DistributionModel.from_token(spec.model)
            args = (spec.d, 1 << spec.log_n, spec.gamma, model, derive(self.w.name, self.seed, "inst", k))
            t0 = time.perf_counter()
            inst = self._call(tr, "generator.gen_instance", generator.gen_instance, *args)
            self._call(tr, "generator.write_instance", generator.write_instance, inst, self.paths[k])
            self.setup_t.append((time.perf_counter() - t0) * self._scale())
            self.insts.append(inst)
        self.refs = [oracle.parse_text(p.read_text(encoding="ascii")) for p in self.paths]
        self.instance_bytes = sum(p.stat().st_size for p in self.paths)
        self.expected: dict[int, int] = {}  # dot-product counts, made when an instance is first scanned
        self.samples = []
        for k, ref in enumerate(self.refs):
            pick = random.Random(derive(self.w.name, self.seed, "sample", k))
            self.samples.append(sorted({*pick.sample(range(ref.n), min(ROUNDTRIP_SAMPLE, ref.n)), *ref.planted}))
        self.matches = [set() for _ in self.refs]

    # --- operations ----------------------------------------------------------

    def _call(self, tr, name, fn, *args, **kwargs):
        if tr is None:
            return fn(*args, **kwargs)
        with tr.patched(solver):
            return tr.call(name, fn, *args, **kwargs)

    def _timed(self, tr, name, fn, *args):
        t0 = time.perf_counter()
        out = self._call(tr, name, fn, *args)
        return time.perf_counter() - t0, out

    def _scale(self) -> float:
        return 1.0 if self.speed is None else self.speed.factor()

    def _op(self, kind: str, fn, check):
        """One operation; in trace mode run untraced and traced on the same inputs, alternating order.

        Returns (scaled seconds, result) of the untraced run, or None if it failed.
        """
        self.attempted += 1
        self.ops[kind] += 1
        scale = 1.0
        try:
            if self.tracer is None:
                try:
                    seconds, out = fn(None)
                finally:
                    scale = self._scale()
                if kind in self.raw:
                    self.raw[kind].append(seconds)
                outs = {False: (seconds * scale, out)}
            else:
                order = (None, self.tracer) if self.rounds % 2 == 0 else (self.tracer, None)
                outs = {tr is not None: fn(tr) for tr in order}
                for traced, (seconds, _) in outs.items():
                    self.twin_s[traced] += seconds
            errors = [e for e in (check(out) for _, out in outs.values()) if e]
        except Exhausted as exc:
            self.solve_total += exc.solve_s * scale
            errors = [check(exc.reports)]  # the matches of a failed search must still be right
            if not errors[0]:
                return self._fail(kind, str(exc))
        except Exception as exc:  # any exception is a failed operation, never a time
            return self._fail(kind, f"{type(exc).__name__}: {exc}")
        if errors:
            self.correct = False
            return self._fail(kind, errors[0])
        if True in outs:
            self._count_layers(kind, outs[True])
        return outs[False]

    def _fail(self, kind: str, message: str) -> None:
        self.failed += 1
        self.fails[kind] += 1
        if len(self.errors) < 20:
            self.errors.append(f"{kind}: {message}")
        return None

    def _count_layers(self, kind: str, out) -> None:
        if kind == "search":
            for rep in out[1]:
                self.layer["nodes"] += rep.nodes_visited
                self.layer["leaf_pairs"] += rep.naive_comparisons
        elif kind == "naive":
            self.layer["naive_pairs"] += out[1][1]

    def _search(self, tr, k: int, inst):
        spec = self.w.instances[k]
        params = self._call(
            tr, "analysis.choose_params", analysis.choose_params,
            spec.d, spec.log_n / spec.d, spec.gamma / spec.d, strategy=self.strategy, stop_on_first=True,
        )
        reports, solve_s = [], 0.0
        for a in range(ATTEMPT_BUDGET):
            rng_seed = derive(self.w.name, self.seed, "solve", k, self.rounds, a)
            t0 = time.perf_counter()
            rep = self._call(tr, "solver.solve", solver.solve, inst, params, make_rng(rng_seed))
            solve_s += time.perf_counter() - t0
            reports.append(rep)
            if rep.planted_found:
                return solve_s, reports
        raise Exhausted(solve_s, reports)

    def _check_search(self, k: int, reports) -> str | None:
        for rep in reports:
            err = oracle.check_search(rep, self.refs[k])
            if err:
                return err
            self.matches[k].update((m.i, m.j) for m in rep.matches)
        return None

    def _check_read(self, k: int, inst) -> str | None:
        err = oracle.check_roundtrip(inst, self.insts[k], self.refs[k], self.samples[k])
        weight = _fixed_weight(self.w.instances[k])
        if err is None and weight is not None:
            err = oracle.check_fixed_weight([oracle.row_int(v.words) for v in inst.list1], weight)
        return err

    def _expected(self, k: int) -> int:
        if k not in self.expected:
            self.expected[k] = oracle.dot_product_count(self.refs[k])
        return self.expected[k]

    def _naive(self, tr, inst):
        seconds, count = self._timed(tr, "solver.naive_count", solver.naive_count, inst)
        return seconds, (count, inst.n * inst.n)

    def round(self) -> None:
        count = len(self.insts)
        for i in range(self.rounds * self.w.searches, (self.rounds + 1) * self.w.searches):
            k, inst = i % count, self.insts[i % count]
            res = self._op(
                "search",
                lambda tr: self._search(tr, k, inst),
                lambda reports: self._check_search(k, reports),
            )
            if res is not None:
                self.tts.append(res[0])
                self.solve_total += res[0]
                self.attempts.append(len(res[1]))
        k = self.rounds % count
        res = self._op(
            "read",
            lambda tr: self._timed(tr, "generator.read_instance", generator.read_instance, self.paths[k]),
            lambda inst: self._check_read(k, inst),
        )
        if res is not None:
            self.read_t.append(res[0])
        inst = self.insts[k] if res is None else res[1]
        res = self._op(
            "naive",
            lambda tr: self._naive(tr, inst),
            lambda out: oracle.check_naive(out[0], self._expected(k), len(self.matches[k])),
        )
        if res is not None:
            self.naive_t.append(res[0])
        for lam, gamma, token in self.w.points:
            model = analysis.DistributionModel.from_token(token)
            res = self._op(
                "exponent",
                lambda tr: self._timed(tr, "analysis.theta_distribution", analysis.theta_distribution, lam, gamma, model),
                lambda result: oracle.check_theta(result.theta, lam, gamma, token),
            )
            if res is not None:
                self.point_t.append(res[0])
        if self.w.verify_kmax is not None:
            self._op(
                "verify",
                lambda tr: self._timed(tr, "analysis.verify_survival_counts", analysis.verify_survival_counts, self.w.verify_kmax),
                lambda out: oracle.check_verify(*out),
            )
        self.rounds += 1

    def run(self, seconds: float) -> float:
        """Repeat whole rounds until `seconds` have passed; returns the measured seconds."""
        t0 = time.perf_counter()
        while True:
            self.round()
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return elapsed

    # --- results -------------------------------------------------------------

    def end_to_end(self, import_s: float) -> dict[str, tuple[float, str]]:
        samples = {"tts": self.tts, "naive": self.naive_t, "read": self.read_t, "exponent": self.point_t}
        empty = [k for k, v in samples.items() if not v]
        if empty:
            raise RuntimeError(f"no successful {', '.join(empty)} operation to time")
        return {
            "tts_p50_s": (statistics.median(self.tts), "s"),
            "cost_per_success_s": (self.solve_total / len(self.tts), "s"),
            "naive_s": (statistics.median(self.naive_t), "s"),
            "read_s": (statistics.median(self.read_t), "s"),
            # the instance set's set-up, taken as count x median per instance so one slow draw does not count
            "setup_s": (import_s + len(self.setup_t) * statistics.median(self.setup_t), "s"),
            "sweep_point_s": (statistics.median(self.point_t), "s"),
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Layer totals per round (set-up ones per instance set), from the traced twins."""
        if not self.layer["naive_pairs"] or not self.twin_s[False]:
            raise RuntimeError("no successful traced operation to measure")
        spans = self.tracer.totals()
        r = self.rounds

        def span(name: str, field: int = 0) -> float:
            return spans.get(name, (0.0, 0, 0.0))[field]

        untraced = self.twin_s[False]
        return {
            "solver.solve_s": (span("solver.solve") / r, "s"),
            "solver.solve_calls": (span("solver.solve", 1) / r, "count"),
            "solver.nodes": (self.layer["nodes"] / r, "count"),
            "solver.leaf_pairs": (self.layer["leaf_pairs"] / r, "count"),
            "solver.self_s": (span("solver.solve", 2) / r, "s"),
            "solver.naive_ns_per_pair": (1e9 * span("solver.naive_count") / self.layer["naive_pairs"], "ns"),
            "bitvec.block_weights_batch_s": (span("bitvec.block_weights_batch") / r, "s"),
            "bitvec.block_weights_batch_calls": (span("bitvec.block_weights_batch", 1) / r, "count"),
            "bitvec.block_weights": (self.tracer.counts["bitvec.block_weights"] / r, "count"),
            "bitvec.permute_columns_s": (span("bitvec.permute_columns") / r, "s"),
            "bitvec.permute_columns_calls": (span("bitvec.permute_columns", 1) / r, "count"),
            "bitvec.pack_rows_s": (span("bitvec.pack_rows") / r, "s"),
            "bitvec.draw_align_s": ((span("bitvec.draw_block_zs") + span("bitvec.align_block_zs")) / r, "s"),
            "generator.gen_instance_s": (span("generator.gen_instance"), "s"),
            "generator.write_instance_s": (span("generator.write_instance"), "s"),
            "generator.instance_bytes": (self.instance_bytes, "bytes"),
            "generator.read_instance_s": (span("generator.read_instance") / r, "s"),
            "analysis.theta_distribution_s": (span("analysis.theta_distribution") / r, "s"),
            "analysis.theta_distribution_calls": (span("analysis.theta_distribution", 1) / r, "count"),
            "analysis.verify_survival_counts_s": (span("analysis.verify_survival_counts") / r, "s"),
            "analysis.choose_params_s": (span("analysis.choose_params") / r, "s"),
            "trace.overhead_pct": (100.0 * (self.twin_s[True] - untraced) / untraced, "%"),
        }

    def summary(self) -> dict:
        """Reference figures that are not metrics: tail of tts, attempts, solver vs naive."""
        tts = sorted(self.tts)
        tail = {}
        for p in (0.9, 0.95, 0.99):
            if len(tts) * (1 - p) >= 10:  # a percentile needs ten samples beyond it
                tail[f"p{round(p * 100)}"] = tts[min(len(tts) - 1, math.ceil(p * len(tts)) - 1)]
        return {
            "rounds": self.rounds,
            "searches": len(tts),
            "tts_tail_s": {**tail, "max": tts[-1] if tts else None},
            "attempts_max": max(self.attempts, default=0),
            "attempts_mean": statistics.fmean(self.attempts) if self.attempts else None,
            "solver_over_naive": statistics.median(tts) / statistics.median(self.naive_t)
            if tts and self.naive_t else None,
            "attempted_by_kind": dict(self.ops),
            "failed_by_kind": dict(self.fails),
            "probe_median_s": None if self.speed is None else self.speed.median(),
            "unscaled_median_s": {kind: statistics.median(v) for kind, v in self.raw.items() if v},
            "errors": self.errors,
        }
