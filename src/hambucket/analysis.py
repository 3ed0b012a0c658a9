"""Survival probabilities and runtime exponents for the bucketing solver.

Everything here is closed-form combinatorics plus one-dimensional numeric
optimization.  Exponents are base-2 logarithms; impossible events are
float("-inf"), which saturates correctly under addition and comparison.
The parameter choice reads exact per-block survival tables, which
verify_survival_counts checks against enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitvec import block_bounds, check_dim, n_words, round_nearest
from .generator import DistributionModel
from .solver import _ELEM_BUDGET, _PAIR_BUDGET, AT_MOST, EXACT, SolverParams, Strategy, deviation

NEG_INF = float("-inf")
_LN2 = math.log(2.0)


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), with H(0) = H(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument outside [0, 1]: {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _entropy_arr(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = (x > 0.0) & (x < 1.0)
    xm = x[m]
    out[m] = -(xm * np.log2(xm) + (1.0 - xm) * np.log2(1.0 - xm))
    return out


def inverse_entropy(y: float) -> float:
    """The unique x in [0, 1/2] with H(x) = y, by bisection to full precision."""
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"inverse entropy argument outside [0, 1]: {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid


# --- asymptotic exponents ---------------------------------------------------


@dataclass(frozen=True)
class ExponentResult:
    """A runtime exponent theta together with the bucket radius achieving it."""

    theta: float
    delta: float


def delta_gamma_star(lam: float) -> tuple[float, float]:
    """(delta_star, gamma_star) = (Hinv(1 - lambda), 2 d*(1 - d*)).

    lambda = 0 (lists of one vector) gives delta_star = gamma_star = 1/2.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda outside [0, 1]: {lam}")
    ds = inverse_entropy(1.0 - lam)
    return ds, 2.0 * ds * (1.0 - ds)


def _bucket_exponent(delta, eta):
    """(1-eta) (1 - H((delta - eta/2) / (1-eta))), vectorized.

    The per-coordinate exponent of a pair at relative distance eta both
    landing in an exact radius-delta bucket.  Callers guarantee feasibility
    eta <= min(2 delta, 2 (1-delta)); values are clipped against float fuzz.
    """
    delta = np.asarray(delta, dtype=float)
    eta = np.asarray(eta, dtype=float)
    rem = 1.0 - eta
    safe = rem > 1e-12
    u = np.clip(np.divide(delta - eta / 2.0, rem, where=safe, out=np.zeros(np.broadcast(delta, eta).shape)), 0.0, 1.0)
    out = np.where(safe, rem * (1.0 - _entropy_arr(u)), 0.0)
    return out


def theta_uniform(lam: float, gamma: float) -> ExponentResult:
    """Runtime exponent of the bucketing solver on uniform lists.

    Below gamma_star the optimum bucket radius is delta_star and the solver
    beats the quadratic bound; above it the expected number of gamma-close
    pairs dominates and theta = 2 lambda + H(gamma) - 1.
    """
    if not 0.0 <= gamma <= 0.5:
        raise ValueError(f"gamma outside [0, 1/2]: {gamma}")
    ds, gs = delta_gamma_star(lam)
    if gamma <= gs:
        return ExponentResult(float(_bucket_exponent(ds, gamma)), ds)
    delta = 0.5 * (1.0 - math.sqrt(1.0 - 2.0 * gamma))
    return ExponentResult(2.0 * lam + binary_entropy(gamma) - 1.0, delta)


def expected_pairs_exponent(lam: float, gamma: float) -> float:
    """log2 E[#cross pairs at distance gamma d] / d, clamped at zero."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma outside [0, 1]: {gamma}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda outside [0, 1]: {lam}")
    return max(0.0, 2.0 * lam + binary_entropy(gamma) - 1.0)


def lower_bound_exponent(lam: float, gamma: float) -> float:
    """Optimum achievable exponent: max(lambda/(1-gamma), expected pairs)."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma outside [0, 1): {gamma}")
    return max(lam / (1.0 - gamma), expected_pairs_exponent(lam, gamma))


def _lpw_arr(model: DistributionModel, eta: np.ndarray) -> np.ndarray:
    """log2 Pr[wt(v + w) = eta d] / d for independent model draws v, w."""
    eta = np.asarray(eta, dtype=float)
    kind, par = model.kind, model.param
    if kind == "poisson":
        # Poisson weight concentrates at its mean on the exponential scale;
        # treat it as fixed weight there.  Tagged as an approximation at the
        # CLI surface.
        kind, par = "fixed", par
    if kind == "uniform":
        return _entropy_arr(eta) - 1.0
    if kind == "bernoulli":
        tau = 2.0 * par * (1.0 - par)
        if tau == 0.0:
            return np.where(eta == 0.0, 0.0, NEG_INF)
        t1 = np.where(eta > 0.0, eta * math.log2(tau), 0.0)
        t2 = np.where(eta < 1.0, (1.0 - eta) * math.log2(1.0 - tau), 0.0)
        return _entropy_arr(eta) + t1 + t2
    # fixed weight f: overlap counting over the two supports
    f = par
    if f == 0.0 or f == 1.0:
        return np.where(eta == 0.0, 0.0, NEG_INF)
    feas = eta <= 2.0 * min(f, 1.0 - f) + 1e-12
    u1 = np.clip(np.where(feas, eta, 0.0) / (2.0 * f), 0.0, 1.0)
    u2 = np.clip(np.where(feas, eta, 0.0) / (2.0 * (1.0 - f)), 0.0, 1.0)
    val = f * _entropy_arr(u1) + (1.0 - f) * _entropy_arr(u2) - binary_entropy(f)
    return np.where(feas, val, NEG_INF)


# Each zoom step grids a bracket with _ZOOM_POINTS points and keeps the two
# cells around the argmin, shrinking it 32-fold; _ZOOM_STEPS steps bring an
# initial bracket of width 1 down to a last grid spacing below 1e-12.
_ZOOM_POINTS = 65
_ZOOM_STEPS = 8


def _zoom_min(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise minimum of f over the brackets [lo, hi], by grid zooming.

    lo and hi have shape (r,); f maps an (r, p) array of points, row i inside
    bracket i, to an (r, p) array of values (inf where infeasible).  Every
    step grids each bracket and shrinks it to the two cells around its grid
    argmin, so a minimum survives as long as the objective has no dip
    narrower than one grid cell of the first step.  Returns the argmin and
    the minimum of the last grid in each row.
    """
    rows = np.arange(lo.size)
    for _ in range(_ZOOM_STEPS):
        x = np.linspace(lo, hi, _ZOOM_POINTS, axis=1)
        v = f(x)
        i = np.argmin(v, axis=1)
        lo = x[rows, np.maximum(i - 1, 0)]
        hi = x[rows, np.minimum(i + 1, _ZOOM_POINTS - 1)]
    return x[rows, i], v[rows, i]


def _stray_exponent(lam: float, deltas: np.ndarray, model: DistributionModel) -> np.ndarray:
    """Exponent of expected bucket collisions beyond the planted pair, per bucket radius.

    epsilon = 2 lambda - min over feasible pair distances eta in [0, 2 delta]
    of [bucket exponent at eta minus the pair-weight exponent], for every
    radius in deltas in one zoom.  The objective can be non-convex, so the
    minimum is found by zooming a grid over eta (_zoom_min) rather than by a
    local descent.
    """
    d = np.ravel(deltas)

    def cost(etas: np.ndarray) -> np.ndarray:
        return _bucket_exponent(d[:, None], etas) - _lpw_arr(model, etas)

    _, best = _zoom_min(cost, np.zeros_like(d), np.minimum(1.0, 2.0 * d))
    return (2.0 * lam - best).reshape(np.shape(deltas))


def theta_distribution(lam: float, gamma: float, model: DistributionModel) -> ExponentResult:
    """Runtime exponent for lists drawn from an arbitrary weight model.

    Minimizes, over bucket radii delta in [gamma/2, 1/2], the largest of the
    three tree costs: pair survival, list traversal, and stray collisions
    (_stray_exponent) on top of survival.  The search zooms a grid over
    delta (_zoom_min); every delta it evaluates gets its stray term from a
    full zoom over the pair distance, so the reported minimum is the exact
    objective at the reported radius.  For the uniform model this reproduces
    theta_uniform.
    """
    if not 0.0 <= gamma <= 0.5:
        raise ValueError(f"gamma outside [0, 1/2]: {gamma}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda outside [0, 1]: {lam}")

    def cost(deltas: np.ndarray) -> np.ndarray:
        survive = _bucket_exponent(deltas, gamma)
        traverse = lam + survive - (1.0 - _entropy_arr(deltas))
        stray = _stray_exponent(lam, deltas, model) + survive
        return np.maximum(np.maximum(survive, traverse), stray)

    x, v = _zoom_min(cost, np.array([gamma / 2.0]), np.array([0.5]))
    return ExponentResult(float(v[0]), float(x[0]))


# --- practical parameter choice ----------------------------------------------

# Largest automatic branching: it keeps failed subtree walks affordable, and
# several shallower permutation rounds recover the success probability.
_BRANCHING_CAP = 512

# Seconds per unit of predicted_work's counts, in its order, on a 2-vCPU
# x86-64 VM with numpy 2.4 on one thread: a non-negative least-squares fit,
# in relative error, of 2688 repeat-until-found searches (d = 32 to 128,
# n = 2^8 to 2^13, depth 1 to 5, uniform and weighted rows, dev:1,
# stop_on_first) against the operations each counted.  Its median error per
# search is 18%.  Scaling any one price by 0.8 or 1.25 leaves every
# configuration of the measured depth grid in tests/test_analysis.py at a
# depth within 1.3x of its fastest.  The scan prices were fitted before
# solver._scan_pairs dropped its per-pass concatenation and numpy's default
# ufunc buffer, so they overprice own passes; ROADMAP item 12 refits them.
_PRICES = np.array([
    370e-6,  # per solve call: stacking the lists, round 0's gathers, final distance checks
    150e-6,  # per inner node: its z draw and row gathers
    150e-6,  # per filter slab: nonzero, bucket edges and the visit of its children
    2.5e-9,  # per row x z draw x block-local word, weights through accept mask
    7.2e-9,  # per row pair in a ragged pass over many leaf buckets
    2.8e-9,  # per row pair in a leaf bucket scanned in a pass of its own
    30e-6,  # per such pass
])
_WIDE_ROW = 1.3  # pair prices of rows longer than one word, relative to one word


def _log_factorials(n: int) -> np.ndarray:
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))


def _log_comb_arr(lf: np.ndarray, n, m) -> np.ndarray:
    """ln C(n, m) elementwise from a table of ln k!, -inf where m is outside [0, n]."""
    top = lf.size - 1
    val = lf[np.minimum(np.maximum(n, 0), top)] - lf[np.minimum(np.maximum(m, 0), top)]
    val -= lf[np.minimum(np.maximum(n - m, 0), top)]
    return np.where((0 <= m) & (m <= n), val, -np.inf)


# Two memos: _survival_by_split's vector, which verify_survival_counts and
# every equal-width level ask for again, and choose_params' pick, which
# callers repeat.  No (gmax+1)^2 split table outlives a pick.


@lru_cache(maxsize=1024)
def _survival_by_split(width: int, lo: int, hi: int, gmax: int) -> np.ndarray:
    """Pr[both rows of a pair g apart inside a block have weights in the window [lo, hi]], for g = 0..gmax.

    The window is the block's bucket rule (SolverParams.window).  Over
    uniform z, with z siding with y on t of the g differing coordinates and
    flipping m of the others, the weights are t + m and g - t + m.  For
    each t the m that put both in the window form an interval, summed from
    the binomial CDF of width - g.
    """
    lf = _log_factorials(max(width, gmax))
    g = np.arange(gmax + 1)[:, None]
    t = np.arange(gmax + 1)[None, :]
    rest = width - g
    pt = np.exp(_log_comb_arr(lf, g, t) - g * _LN2)
    pm = np.exp(_log_comb_arr(lf, rest, np.arange(width + 1)) - np.maximum(rest, 0) * _LN2)
    cdf = np.concatenate((np.zeros((gmax + 1, 1)), np.cumsum(pm, axis=1)), axis=1)
    m_lo = np.minimum(np.maximum(lo - np.minimum(t, g - t), 0), width + 1)
    m_hi = np.maximum(np.minimum(hi - np.maximum(t, g - t), rest) + 1, 0)
    mass = np.maximum(cdf[g, m_hi] - cdf[g, m_lo], 0.0)
    out = (pt * mass).sum(axis=1)
    out.flags.writeable = False
    return out


def _split_probs(rest: int, width: int, gmax: int) -> np.ndarray:
    """[r, g]: Pr[g of r differing coordinates, uniform among rest, fall in a block of width]."""
    lf = _log_factorials(max(rest, gmax))
    k = np.arange(-gmax, gmax + 1)
    # ln C(n, k) for n = width, rest - width and rest, with k at column gmax + k
    in_block, out_block, total = _log_comb_arr(lf, np.array([[width], [rest - width], [rest]]), k)
    r = g = np.arange(gmax + 1)
    # more differing coordinates than remain is impossible: a zero row, not 0/0
    total = np.maximum(total[gmax + r], 0.0)[:, None]
    return np.exp(in_block[gmax + g] + out_block[gmax + r[:, None] - g] - total)


def block_survival(d: int, gamma_count: int, width: int, lo: int, hi: int) -> float:
    """Pr[under a uniform z, both rows of a planted pair have block weights in the window [lo, hi]], exactly.

    The gamma_count coordinates where the pair differs fall into a block of
    width of the d coordinates hypergeometrically, and each split g has its
    own survival (_survival_by_split): an odd g can never pass a window of
    one weight, and a last block wider than the others has its own width.
    """
    if not 1 <= width <= d:
        raise ValueError(f"block width outside [1, {d}]: {width}")
    if not 0 <= gamma_count <= d:
        raise ValueError(f"gamma_count outside [0, {d}]: {gamma_count}")
    split = _split_probs(d, width, gamma_count)[gamma_count]
    return float(split @ _survival_by_split(width, lo, hi, gamma_count))


def verify_survival_counts(kmax: int = 14) -> tuple[int, list[str]]:
    """Check the survival table against enumeration for every k <= kmax.

    A case is a block width k in [2, kmax], an even distance g and a target
    weight m in [0, k].  For each of exact, dev:1 and atmost, 2^k times the
    table's entry at g = 0 (p) and at g (q) must round to the number of z
    enumerated whose weights pass the rule, within a relative 1e-9.  The z
    are enumerated once per (k, g), with x = 0 and y the first g
    coordinates, as a joint histogram of (wt(x + z), wt(y + z)); the counts
    for every m are differences of its prefix sums.

    Returns (cases_checked, mismatch_descriptions); an empty second element
    means the table is exact on the whole range.
    """
    if not 2 <= kmax <= 20:
        raise ValueError("kmax must be in [2, 20]")
    mismatches: list[str] = []
    cases = 0
    for k in range(2, kmax + 1):
        z = np.arange(1 << k, dtype=np.uint64)
        wx = np.bitwise_count(z).astype(np.int64) * (k + 1)
        # per rule: the windows [lo, end) for every target m, cut to the
        # weights 0..k, and 2^k times the table at every m
        rules = []
        for strategy in (EXACT, deviation(1), AT_MOST):
            windows = [strategy.window(m) for m in range(k + 1)]
            table = np.stack([_survival_by_split(k, lo, hi, k) for lo, hi in windows]) * 2.0**k
            lo, hi = np.array(windows).T
            rules.append((strategy, lo, np.minimum(hi, k) + 1, table))
        for g in range(0, k + 1, 2):
            wy = np.bitwise_count(z ^ np.uint64((1 << g) - 1))
            hist = np.bincount(wx + wy, minlength=(k + 1) ** 2).reshape(k + 1, k + 1)
            # below[a, b]: the z with wt(x + z) < a and wt(y + z) < b
            below = np.zeros((k + 2, k + 2), dtype=np.int64)
            below[1:, 1:] = hist.cumsum(0).cumsum(1)
            cases += k + 1
            for strategy, lo, end, table in rules:
                p = below[end, -1] - below[lo, -1]
                q = below[end, end] - below[lo, end] - below[end, lo] + below[lo, lo]
                for name, count, got in (("p", p, table[:, 0]), ("q", q, table[:, g])):
                    for m in np.flatnonzero((np.rint(got) != count) | (abs(got - count) > 1e-9 * count)):
                        mismatches.append(
                            f"{name} mismatch at k={k} g={g} m={m} {strategy.token()}: "
                            f"table gives {float(got[m])!r}, enumeration {count[m]}"
                        )
    return cases, mismatches


def _first_hit(s: np.ndarray, tries: int, slab: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pr[one of tries draws hits], and given a hit, the first hit's index and the slabs filtered by then.

    Each draw hits with probability s, independently; draws are filtered
    slab at a time, so a hit at draw j has cost ceil(j / slab) slabs.
    """
    s = np.minimum(s, 1.0)  # a product of probabilities can round past 1
    slabs = -(-tries // slab)
    rare = tries * s < 1e-9  # hits spread evenly; the formulas below cancel
    log_miss = np.log1p(-s)
    hit = -np.expm1(tries * log_miss)
    miss = 1.0 - hit
    first = 1.0 / s - tries * miss / hit
    geo = np.expm1(slabs * slab * log_miss) / np.expm1(slab * log_miss)
    filtered = (geo - slabs * miss) / hit
    first = np.where(rare, (tries + 1) / 2, first)
    filtered = np.where(rare, (slabs + 1) / 2, filtered)
    return hit, first, filtered


@np.errstate(all="ignore")
def predicted_work(d: int, n: int, gamma_count: int, params: SolverParams) -> np.ndarray:
    """Expected operations per success of solve() with params on two lists of n uniform rows.

    In order: solve calls, inner nodes, filter slabs, block weights (rows x
    z draws x block-local words), row pairs in ragged leaf passes, row pairs
    in passes of their own, and own passes.  work[0] is 1 / Pr[a call finds
    the pair], so work / work[0] is one call's work.

    The model follows the walk, levels and blocks counted from 0.  A level-i
    node holds n p_0 ... p_(i-1) rows a side, where p_j is the share of z
    draws whose bucket, the window SolverParams.window gives block j, takes
    a uniform row.  It filters them against branching z draws, in slabs of
    _ELEM_BUDGET block-local words: the solver's slab in a full round.  A
    stop-on-first walk weighs a quarter of that a slab, so the model
    overcounts the filter work such a walk does past its hit.  A child is
    inner while it holds more than naive_threshold rows and levels remain,
    and otherwise a leaf, scanned in a ragged pass with its siblings or, once
    its pairs times _WIDE_ROW (for rows of several words) reach half a pass,
    in a pass of its own.

    The gamma_count coordinates where the planted pair differs split over
    the blocks hypergeometrically, and the split decides, level by level,
    which z draws keep the pair (_survival_by_split).  A round succeeds when
    some z at the root keeps the pair and the child's subtree finds it.
    With stop_on_first the walk ends at that hit, so a success costs the
    rounds that fail, walked in full, plus the walk up to the first hit of
    the round that succeeds.  Without it every call walks every round, and
    the work is a call's divided by its success probability.

    The root takes the leaf rule of every node: at most naive_threshold rows
    a side make it a leaf, which solve() hands to the naive scan, once, and
    which always finds the pair.  Every count is inf when the depth's blocks
    cannot hold the pair's differing coordinates and the root is filtered,
    or when any count is not finite: no round can find the pair, or a count
    overflows a float, with numpy's float warnings off throughout.
    """
    wide = 1.0 if n_words(d) == 1 else _WIDE_ROW
    tries = params.branching
    blocks = [(start, stop - start, *params.window(stop - start))
              for start, stop in block_bounds(d, params.depth)]
    # top-down: the rows per side at each level, down to the level whose
    # children are leaves
    levels, rows = [], float(n)
    for start, width, lo, hi in blocks:
        if rows <= params.naive_threshold:
            break
        survival = _survival_by_split(width, lo, hi, gamma_count)
        levels.append((width, survival, d - start, rows))
        # a row is a pair at distance 0: p is the table's first entry
        rows *= survival[0]
    # bottom-up over the pair's remaining differing coordinates r: Pr[the
    # subtree finds the pair] and the expected work of the walk that does
    x = rows * rows
    own = x * wide >= _PAIR_BUDGET / 2 or not levels
    full = np.array([0.0, 0, 0, 0, 0 if own else x, x if own else 0, own])
    found = np.ones(gamma_count + 1)
    found_work = np.tile(full, (gamma_count + 1, 1))
    for width, survival, rest, rows in reversed(levels):
        below = np.maximum(np.arange(gamma_count + 1)[:, None] - np.arange(gamma_count + 1), 0)
        slab = max(1, _ELEM_BUDGET // max(1, round(min(2 * rows, _ELEM_BUDGET)) * n_words(width)))
        per_z = 2 * rows * n_words(width)
        survive = survival * found[below]
        hit, first, filtered = _first_hit(survive, tries, slab)
        walk = (first - 1)[..., None] * full + found_work[below]
        # a node's own work is itself, its slabs and the weights they hold
        walk[..., 1:4] += np.stack((np.ones_like(first), filtered, np.minimum(tries, filtered * slab) * per_z), -1)
        kept = _split_probs(rest, width, gamma_count) * hit
        found = np.minimum(kept.sum(axis=1), 1.0)  # split shares can sum past 1 by rounding
        found_work = np.where(found[:, None] > 0, (kept[..., None] * walk).sum(axis=1) / found[:, None], 0.0)
        full = np.array([0, 1, -(-tries // slab), tries * per_z, 0, 0, 0]) + tries * full
    # the root holds all gamma_count of them; a call's rounds are draws that hit with p_round
    p_round, hit_work = found[-1], found_work[-1]
    p_call = _first_hit(p_round, params.permutations, 1)[0]
    if params.stop_on_first:
        work = (p_round * hit_work + (1.0 - p_round) * full) / p_round
    else:
        work = (params.permutations if levels else 1) * full / p_call
    work[0] = 1.0 / p_call
    # both weights of a kept pair lie in the window, so a block keeps at most
    # 2 hi of its differences; buckets above the mean size are filtered
    # further down, so every block of the depth counts, not only those walked
    if not np.isfinite(work).all() or (levels and sum(min(2 * hi, width) for _, width, _, hi in blocks) < gamma_count):
        return np.full(_PRICES.size, math.inf)
    return work


def predicted_cost(d: int, n: int, gamma_count: int, params: SolverParams) -> float:
    """Predicted seconds per success: predicted_work priced by _PRICES, pair prices x _WIDE_ROW past one-word rows."""
    pair = 1.0 if n_words(d) == 1 else _WIDE_ROW
    return float(predicted_work(d, n, gamma_count, params) @ (_PRICES * (1, 1, 1, 1, pair, pair, 1)))


def list_exponent(d: int, n: int) -> float:
    """lambda = log2(n) / d for lists of n vectors of d bits, refusing d and n outside the solver's range."""
    check_dim(d)
    if n < 1 or math.log2(n) > d:
        raise ValueError(f"n outside [1, 2^d] for d={d}: {n}")
    return math.log2(n) / d


@lru_cache(maxsize=256, typed=True)
def choose_params(
    d: int,
    lam: float,
    gamma: float,
    *,
    depth: int | None = None,
    branching: int | None = None,
    permutations: int = 4,
    delta: float | None = None,
    strategy: Strategy = EXACT,
    naive_threshold: int | None = None,
    stop_on_first: bool = False,
) -> SolverParams:
    """Concrete solver parameters for a d-dimensional instance; identical calls share one cached result.

    Every keyword given overrides the corresponding default; the rest are:

    - delta: theta_uniform's radius, delta_star below gamma_star, else the
      smallest radius that keeps pair survival possible, (1 - sqrt(1 - 2 gamma)) / 2
    - depth: the one in [1, min(8, d // 4)] (1 when d < 4) with the least
      predicted_cost, the seconds per success the walk model predicts for
      n = round(2^(lam d)) uniform rows a side and round(gamma d) differing
      coordinates; rows drawn otherwise get the depth chosen for uniform
      rows, and an explicit depth (--depth) overrides it.
      Costs within a relative 1e-9 of the least tie, and ties go to the
      lowest depth, as when the root holds at most naive_threshold rows and
      is scanned as one leaf at every depth.
      Depths predicted_work cannot price (inf cost) are skipped; ValueError if every depth is one.
    - branching: d / q for the exact survival q of the first block
      (block_survival), capped at _BRANCHING_CAP; from d = _BRANCHING_CAP
      on it is the cap without computing q
    - naive_threshold: max(32, branching) of the depth being priced.
      Filtering a bucket of t rows weighs t x branching blocks, at least
      the t^2 pairs of scanning it when t <= branching, so such a bucket is
      scanned at every level, the root included; weighted rows make some
      buckets several times the mean size, and those are scanned too
    """
    check_dim(d)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda outside [0, 1]: {lam}")
    if lam * d >= 1024:
        raise ValueError(f"2^(lambda d) rows overflow a float at d={d}, lambda={lam}")
    if not 0.0 <= gamma <= 0.5:
        raise ValueError(f"gamma outside [0, 1/2]: {gamma}")
    if delta is None:
        delta = theta_uniform(lam, gamma).delta
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta outside [0, 1]: {delta}")
    g_all = round_nearest(gamma * d)
    n = round(2.0 ** (lam * d))

    def at_depth(r: int) -> SolverParams:
        b = branching
        if b is None and d >= _BRANCHING_CAP:  # q <= 1, so d / q is capped whatever q is
            b = _BRANCHING_CAP
        elif b is None:
            _, width = block_bounds(d, r)[0]  # block 0 starts at bit 0
            q = block_survival(d, g_all, width, *strategy.window(round_nearest(delta * width)))
            b = _BRANCHING_CAP if d >= q * _BRANCHING_CAP else max(1, round_nearest(d / q))
        return SolverParams(
            depth=r,
            branching=b,
            permutations=permutations,
            delta=delta,
            strategy=strategy,
            naive_threshold=max(32, b) if naive_threshold is None else naive_threshold,
            stop_on_first=stop_on_first,
        )

    if depth is None:
        depths = range(1, (1 if d < 4 else min(8, d // 4)) + 1)
    elif 1 <= depth <= d:
        depths = [depth]
    else:
        raise ValueError(f"depth outside [1, {d}]: {depth}")
    costs = [(predicted_cost(d, n, g_all, p), p) for p in map(at_depth, depths)]
    least = min(c for c, _ in costs)
    if least == math.inf:
        raise ValueError(f"no depth has a finite predicted cost at gamma={gamma:g} with delta={delta:g}: "
                         "its walk cannot find the pair, or its counts overflow a float")
    return next(p for c, p in costs if c - least <= 1e-9 * abs(least))
