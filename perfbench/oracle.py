"""Correctness oracles that share no code with the package under test.

Rows are decoded from the instance text with plain Python ints, distances
are Python-int popcounts, the pair count comes from a dot-product scan over
unpacked 0/1 rows, and the uniform exponent is the closed form written out
again here.  Each check returns None when the result holds and a one-line
reason when it does not.  self_check() feeds every check one corrupted
result and fails if any check accepts it.
"""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import numpy as np

THETA_TOL = 1e-6
# Float fuzz allowed on the upper end of theta in [0, 2 lambda]; the fixed
# weight model reaches 2 lambda exactly at large gamma.
THETA_RANGE_FUZZ = 1e-12
_DOT_BUDGET = 1 << 22  # float32 distances per chunk of the dot-product scan


def parse_text(text: str) -> SimpleNamespace:
    """d, n, gamma, planted and both lists as Python ints, decoded from instance text.

    Hex digit t of a row holds coordinates 4t+1..4t+4, lowest coordinate in the lowest bit.
    """
    lines = text.split("\n")
    fields = dict(tok.split("=", 1) for tok in lines[0].split(" ")[2:])
    n = int(fields["n"])
    planted = None if fields["planted"] == "none" else tuple(int(x) for x in fields["planted"].split(","))
    # reversing the digits puts digit t at weight 16**t
    rows1 = [int(line[::-1], 16) for line in lines[1 : 1 + n]]
    rows2 = [int(line[::-1], 16) for line in lines[2 + n : 2 + 2 * n]]
    return SimpleNamespace(d=int(fields["d"]), n=n, gamma=int(fields["gamma"]), planted=planted, rows1=rows1, rows2=rows2)


def row_int(words) -> int:
    """A row given as little-endian 64-bit words, as one Python int."""
    return sum(int(w) << (64 * t) for t, w in enumerate(words))


def check_search(report, ref: SimpleNamespace) -> str | None:
    """Every match and the planted pair lie at distance gamma; planted_found agrees."""
    pairs = set()
    for m in report.matches:
        got = (ref.rows1[m.i] ^ ref.rows2[m.j]).bit_count()
        if m.dist != ref.gamma or got != ref.gamma:
            return f"match ({m.i}, {m.j}) reported at {m.dist}, popcount {got}, want {ref.gamma}"
        pairs.add((m.i, m.j))
    i, j = ref.planted
    if (ref.rows1[i] ^ ref.rows2[j]).bit_count() != ref.gamma:
        return f"planted pair ({i}, {j}) is not at distance {ref.gamma}"
    if bool(report.planted_found) != ((i, j) in pairs):
        return f"planted_found={report.planted_found} but planted pair in matches is {(i, j) in pairs}"
    return None


def _bit_matrix(rows: list[int], d: int) -> np.ndarray:
    nbytes = (d + 7) // 8
    raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(rows), nbytes), axis=1, bitorder="little")[:, :d]


def dot_product_count(ref: SimpleNamespace) -> int:
    """Cross pairs at distance gamma, from dist = wa + wb - 2 A B^T over 0/1 rows.

    float32 holds every integer up to 2^24 exactly, far above any distance here.
    """
    a = _bit_matrix(ref.rows1, ref.d).astype(np.float32)
    b = _bit_matrix(ref.rows2, ref.d).astype(np.float32)
    wa, wb = a.sum(axis=1), b.sum(axis=1)
    chunk = max(1, _DOT_BUDGET // len(ref.rows2))
    total = 0
    for lo in range(0, len(ref.rows1), chunk):
        dist = wa[lo : lo + chunk, None] + wb[None, :] - 2.0 * (a[lo : lo + chunk] @ b.T)
        total += int(np.count_nonzero(dist == ref.gamma))
    return total


def check_naive(count: int, expected: int, distinct_matches: int) -> str | None:
    """naive_count is at least 1, at least the distinct matches found, and the dot-product count."""
    if count < 1:
        return f"naive count {count} misses the planted pair"
    if count < distinct_matches:
        return f"naive count {count} below the {distinct_matches} distinct matches solve returned"
    if count != expected:
        return f"naive count {count} != dot-product count {expected}"
    return None


def check_roundtrip(read_back, original, ref: SimpleNamespace, sample: list[int]) -> str | None:
    """read_instance(write_instance(x)) == x, and sampled rows match the hex text."""
    if read_back != original:
        return "read_instance(write_instance(x)) differs from x"
    for i in sample:
        if row_int(read_back.list1[i].words) != ref.rows1[i] or row_int(read_back.list2[i].words) != ref.rows2[i]:
            return f"row {i} differs from its hex text"
    return None


def check_fixed_weight(rows: list[int], weight: int) -> str | None:
    for i, r in enumerate(rows):
        if r.bit_count() != weight:
            return f"list 1 row {i} has weight {r.bit_count()}, want {weight}"
    return None


def _entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def _inverse_entropy(y: float) -> float:
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def uniform_theta(lam: float, gamma: float) -> float:
    """Closed-form exponent on uniform lists, below and above gamma* = 2 delta*(1 - delta*)."""
    ds = _inverse_entropy(1.0 - lam)
    if gamma <= 2.0 * ds * (1.0 - ds):
        return (1.0 - gamma) * (1.0 - _entropy((ds - gamma / 2.0) / (1.0 - gamma)))
    return 2.0 * lam + _entropy(gamma) - 1.0


def check_theta(theta: float, lam: float, gamma: float, model_token: str) -> str | None:
    if not 0.0 <= theta <= 2.0 * lam + THETA_RANGE_FUZZ:
        return f"theta {theta} outside [0, {2 * lam}] at gamma={gamma} {model_token}"
    if model_token == "uniform":
        want = uniform_theta(lam, gamma)
        if abs(theta - want) > THETA_TOL:
            return f"uniform theta {theta} != closed form {want} at gamma={gamma}"
    return None


def check_verify(cases: int, mismatches: list) -> str | None:
    if cases < 1 or mismatches:
        return f"verify_survival_counts: {len(mismatches)} mismatches in {cases} cases"
    return None


def self_check() -> list[str]:
    """Feed each oracle a good and a corrupted result; list the oracles that misjudged."""
    bad = []
    rng = random.Random(1)
    d, gamma, n = 70, 6, 24
    rows1 = [rng.getrandbits(d) for _ in range(n)]
    rows2 = [rng.getrandbits(d) for _ in range(n)]
    rows2[5] = rows1[3] ^ (((1 << gamma) - 1) << 30)  # crosses the 64-bit word boundary
    text = "\n".join(
        [f"CPINST 1 d={d} n={n} gamma={gamma} planted=3,5 model=uniform seed=1"]
        + [format(r, f"0{(d + 3) // 4}x")[::-1] for r in rows1]
        + [""]
        + [format(r, f"0{(d + 3) // 4}x")[::-1] for r in rows2]
    ) + "\n"
    ref = parse_text(text)
    if ref.rows1 != rows1 or ref.rows2 != rows2:
        bad.append("parse_text")

    match = SimpleNamespace(i=3, j=5, dist=gamma)
    if check_search(SimpleNamespace(matches=[match], planted_found=True), ref) is not None:
        bad.append("check_search rejects a good report")
    wrong = SimpleNamespace(i=3, j=6, dist=gamma)
    if check_search(SimpleNamespace(matches=[match, wrong], planted_found=True), ref) is None:
        bad.append("check_search accepts a far match")
    if check_search(SimpleNamespace(matches=[], planted_found=True), ref) is None:
        bad.append("check_search accepts a false planted_found")

    brute = sum((x ^ y).bit_count() == gamma for x in rows1 for y in rows2)
    count = dot_product_count(ref)
    if count != brute or check_naive(count, count, 1) is not None:
        bad.append("dot_product_count / check_naive on a good count")
    if check_naive(count + 1, count, 1) is None or check_naive(0, 0, 0) is None:
        bad.append("check_naive accepts a wrong count")

    good = SimpleNamespace(list1=[SimpleNamespace(words=(r & (2**64 - 1), r >> 64)) for r in rows1],
                           list2=[SimpleNamespace(words=(r & (2**64 - 1), r >> 64)) for r in rows2])
    if check_roundtrip(good, good, ref, [0, 3, 5]) is not None:
        bad.append("check_roundtrip rejects a good read")
    corrupt = SimpleNamespace(list1=list(good.list1), list2=good.list2)
    corrupt.list1[3] = SimpleNamespace(words=(rows1[3] & (2**64 - 1) ^ 1, rows1[3] >> 64))
    if check_roundtrip(corrupt, corrupt, ref, [3]) is None or check_roundtrip(corrupt, good, ref, []) is None:
        bad.append("check_roundtrip accepts a corrupted row")

    if check_fixed_weight([0b111, 0b1011], 3) is not None or check_fixed_weight([0b111, 0b1111], 3) is None:
        bad.append("check_fixed_weight")

    lam = 0.25
    for g in (0.1, 0.45):  # one point below gamma*, one above
        theta = uniform_theta(lam, g)
        if check_theta(theta, lam, g, "uniform") is not None:
            bad.append("check_theta rejects the closed form")
        if check_theta(theta + 1e-5, lam, g, "uniform") is None:
            bad.append("check_theta accepts a shifted uniform theta")
    if check_theta(2 * lam + 1e-3, lam, 0.2, "fixed:0.3") is None or check_theta(-1e-3, lam, 0.2, "fixed:0.3") is None:
        bad.append("check_theta accepts theta outside [0, 2 lambda]")
    if check_verify(10, []) is not None or check_verify(10, ["p mismatch"]) is None:
        bad.append("check_verify")
    return bad
