"""Planted closest-pair instances and their plain-text file format.

An instance file is line-oriented ASCII:

    CPINST 1 d=<d> n=<n> gamma=<count> planted=<i>,<j> model=<token> seed=<seed>
    <n hex rows of list 1>
    <blank line>
    <n hex rows of list 2>

planted is "none" when no pair is tracked.  Each row is ceil(d/4) lowercase
hex digits; digit t encodes coordinates 4t+1..4t+4, lowest coordinate in the
lowest bit, i.e. nibble t of the packed word layout.  Padding bits beyond
the dimension must be zero; readers reject files that violate this.

read_instance and write_instance take a path and work on the file's bytes.
The header is read only in the form write_instance renders it: integers in
plain decimal (no sign, leading zero, underscore or whitespace), and the
model token as DistributionModel.token prints it (fixed:0.3, not fixed:3e-1).
After the header, the reader proves the whole layout at once: the file's
byte length, an LF ending each row and the separator, hex digits elsewhere.
Only a file that fails is split at every LF, to name its first fault; the
checks and their messages keep one order: non-ASCII, CRLF, header, line
count, separator, then each list's rows (digit count, hex, padding), and
last the planted distance.

Weighted rows come from the instance's one sequential random stream, drawn as
uniform keys in fixed-size slabs of rows and packed slab by slab: the slab
size bounds the memory a draw uses and never changes an instance's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .bitvec import (
    BitVector,
    check_dim,
    make_rng,
    mask_pad,
    n_words,
    round_nearest,
    rows_to_vectors,
    WORD_BITS,
)

_MAGIC = "CPINST"
_VERSION = "1"
_SLAB_KEYS = 1 << 14  # uniform keys per sampling slab: 128 KiB, stays in cache


class InstanceParseError(ValueError):
    """Raised when an instance file is malformed; messages carry line numbers."""


# --- weight models -----------------------------------------------------------


@dataclass(frozen=True)
class DistributionModel:
    """How list vectors are drawn: uniform, fixed weight, Bernoulli, or Poisson weight."""

    kind: str
    param: float | None = None

    _KINDS = ("uniform", "fixed", "bernoulli", "poisson")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.kind == "uniform":
            if self.param is not None:
                raise ValueError("uniform model takes no parameter")
        else:
            if self.param is None or not 0.0 <= self.param <= 1.0:
                raise ValueError(f"model parameter must be in [0, 1], got {self.param}")
            # a Python float, so token() prints it as from_token reads it back
            object.__setattr__(self, "param", float(self.param))

    @classmethod
    def uniform(cls) -> "DistributionModel":
        return cls("uniform")

    def token(self) -> str:
        """Wire form: uniform | fixed:<eta> | bernoulli:<mu> | poisson:<f>."""
        if self.kind == "uniform":
            return "uniform"
        return f"{self.kind}:{self.param!r}"

    @classmethod
    def from_token(cls, token: str) -> "DistributionModel":
        if token == "uniform":
            return cls.uniform()
        kind, sep, arg = token.partition(":")
        if not sep or kind not in cls._KINDS or kind == "uniform":
            raise ValueError(f"malformed model token {token!r}")
        try:
            param = float(arg)
        except ValueError:
            raise ValueError(f"malformed model parameter in {token!r}") from None
        return cls(kind, param)


def check_size(d: int, n: int, gamma_count: int, planted: Optional[tuple[int, int]] = None) -> None:
    """Refuse an instance size outside the format: d by check_dim, n >= 1, 0 <= gamma_count <= d, planted in [0, n)."""
    check_dim(d)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= gamma_count <= d:
        raise ValueError(f"gamma_count outside [0, {d}]: {gamma_count}")
    if planted is not None:
        i, j = planted
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"planted indices ({i}, {j}) outside [0, {n})")


@dataclass(frozen=True, eq=False)
class Instance:
    """Two lists of n vectors in F_2^d with an optional tracked pair.

    mat1 and mat2 hold the lists as read-only (n, n_words(d)) uint64
    matrices, one packed row per element; list1 and list2 give the same rows
    as BitVectors for scalar callers.
    """

    d: int
    n: int
    gamma_count: int
    mat1: np.ndarray
    mat2: np.ndarray
    planted: Optional[tuple[int, int]]
    model: DistributionModel
    seed: int

    def __post_init__(self):
        check_size(self.d, self.n, self.gamma_count, self.planted)
        shape = (self.n, n_words(self.d))
        pad = self.d % WORD_BITS
        for name in ("mat1", "mat2"):
            mat = getattr(self, name)
            if not isinstance(mat, np.ndarray) or mat.dtype != np.uint64 or mat.shape != shape:
                raise ValueError(f"{name} must be a uint64 matrix of shape {shape}")
            # an owned copy, so no caller can change rows after the checks below
            mat = np.array(mat, order="C", copy=True)
            if pad and (mat[:, -1] >> np.uint64(pad)).any():
                raise ValueError(f"{name}: padding bits beyond the dimension must be zero")
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)
        if self.planted is not None:
            i, j = self.planted
            got = int(np.bitwise_count(self.mat1[i] ^ self.mat2[j]).sum())
            if got != self.gamma_count:
                raise ValueError(
                    f"planted pair is at distance {got}, expected gamma_count={self.gamma_count}"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        head = (self.d, self.n, self.gamma_count, self.planted, self.model, self.seed)
        return (
            head == (other.d, other.n, other.gamma_count, other.planted, other.model, other.seed)
            and np.array_equal(self.mat1, other.mat1)
            and np.array_equal(self.mat2, other.mat2)
        )

    def __hash__(self) -> int:
        # equal instances share the header, so hashing it alone keeps the contract
        return hash((self.d, self.n, self.gamma_count, self.planted, self.model, self.seed))

    @cached_property
    def list1(self) -> tuple[BitVector, ...]:
        return rows_to_vectors(self.d, self.mat1)

    @cached_property
    def list2(self) -> tuple[BitVector, ...]:
        return rows_to_vectors(self.d, self.mat2)


def _slab_rows(rng: np.random.Generator, n: int, d: int, select) -> np.ndarray:
    """Pack n rows of d bits; select(keys, lo) gives the bool rows lo, lo + 1, ... of a slab.

    keys holds d uniform floats per row, drawn row by row, _SLAB_KEYS at a
    time: the stream, and so every row, is the same whatever the slab size.
    """
    out = np.zeros((n, n_words(d)), dtype=np.uint64)
    out8 = out.view(np.uint8)[:, : (d + 7) // 8]
    step = max(1, _SLAB_KEYS // d)
    for lo in range(0, n, step):
        keys = rng.random((min(step, n - lo), d))
        out8[lo : lo + len(keys)] = np.packbits(select(keys, lo), axis=1, bitorder="little")
    return out


def _lowest_key_rows(rng: np.random.Generator, d: int, ks: np.ndarray, fallback) -> np.ndarray:
    """Row r sets the bits of its ks[r] smallest keys out of d.

    A row's bits are the keys at or below its k-th smallest key.  Where the
    (k+1)-th key ties with that one, more than k keys qualify; the row's
    support is then fallback(keys, k), the tie-break each model's pinned
    instances were drawn with (tests/test_golden.py).
    """

    def select(keys: np.ndarray, lo: int) -> np.ndarray:
        m, k = len(keys), ks[lo : lo + len(keys)]
        # each row's keys sorted between sentinels: column k holds the k-th smallest key
        srt = np.empty((m, d + 2))
        srt[:, 0], srt[:, -1] = -np.inf, np.inf
        srt[:, 1:-1] = keys
        srt[:, 1:-1].sort(axis=1)
        rows = np.arange(m)
        kth = srt[rows, k]
        bits = keys <= kth[:, None]
        for r in np.flatnonzero(srt[rows, k + 1] == kth):
            bits[r] = False
            bits[r, fallback(keys[r], k[r])] = True
        return bits

    return _slab_rows(rng, len(ks), d, select)


def _uniform_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    words = rng.integers(0, 1 << WORD_BITS, size=(n, n_words(d)), dtype=np.uint64)
    return mask_pad(words, d)


def _fixed_rows(rng: np.random.Generator, n: int, d: int, w: int) -> np.ndarray:
    if w == 0:  # weight 0 draws no keys
        return np.zeros((n, n_words(d)), dtype=np.uint64)
    return _lowest_key_rows(rng, d, np.full(n, w), lambda keys, k: np.argpartition(keys, k - 1)[:k])


def _bernoulli_rows(rng: np.random.Generator, n: int, d: int, mu: float) -> np.ndarray:
    return _slab_rows(rng, n, d, lambda keys, lo: keys < mu)


def _poisson_rows(rng: np.random.Generator, n: int, d: int, mean_fraction: float) -> np.ndarray:
    weights = np.minimum(rng.poisson(mean_fraction * d, size=n), d)
    return _lowest_key_rows(rng, d, weights, lambda keys, k: np.argsort(keys)[:k])


def _draw_rows(rng: np.random.Generator, n: int, d: int, model: DistributionModel) -> np.ndarray:
    if model.kind == "uniform":
        return _uniform_rows(rng, n, d)
    if model.kind == "fixed":
        return _fixed_rows(rng, n, d, round_nearest(model.param * d))
    if model.kind == "bernoulli":
        return _bernoulli_rows(rng, n, d, model.param)
    return _poisson_rows(rng, n, d, model.param)


def gen_instance(d: int, n: int, gamma_count: int, model: DistributionModel, seed: int) -> Instance:
    """Draw both lists from the model and plant a pair at distance gamma_count.

    The planted x is the model draw already sitting at a random index of
    list 1; y = x + e for a uniform weight-gamma_count error e overwrites a
    random index of list 2.  (For non-uniform models the overwritten y may
    deviate from the model's weight profile; the pair distance is exact.)
    All randomness comes from one sequential stream, so the same seed gives
    byte-identical instances.
    """
    check_size(d, n, gamma_count)
    rng = make_rng(seed)
    mat1 = _draw_rows(rng, n, d, model)
    mat2 = _draw_rows(rng, n, d, model)
    i = int(rng.integers(n))
    j = int(rng.integers(n))
    flips = rng.permutation(d)[:gamma_count]  # distinct 0-based coordinates
    mat2[j] = mat1[i]
    np.bitwise_xor.at(mat2[j], flips // WORD_BITS, np.uint64(1) << (flips % WORD_BITS).astype(np.uint64))
    return Instance(
        d=d,
        n=n,
        gamma_count=gamma_count,
        mat1=mat1,
        mat2=mat2,
        planted=(i, j),
        model=model,
        seed=seed,
    )


# --- serialization -----------------------------------------------------------


_LF = 0x0A


def _header_line(
    d: int, n: int, gamma: int, planted: Optional[tuple[int, int]], model: DistributionModel, seed: int
) -> str:
    """The header line, without its LF: the one form the writer writes and the reader accepts."""
    pair = "none" if planted is None else f"{planted[0]},{planted[1]}"
    return f"{_MAGIC} {_VERSION} d={d} n={n} gamma={gamma} planted={pair} model={model.token()} seed={seed}"


def write_instance(inst: Instance, path: str | Path) -> None:
    """Write the instance to path in the plain-text format, LF line endings, trailing newline.

    The header is _header_line's, the only form read_instance accepts:
    integers in plain decimal and the model token as printed.  The file is
    built in one uint8 buffer; nibble v becomes the ASCII digit 48 + v, or
    48 + v + 39 (ord('a') + v - 10) for v > 9.
    """
    line = _header_line(inst.d, inst.n, inst.gamma_count, inst.planted, inst.model, inst.seed)
    header = (line + "\n").encode("ascii")
    digits = (inst.d + 3) // 4
    size = inst.n * (digits + 1)
    text = np.empty(len(header) + 2 * size + 1, dtype=np.uint8)
    text[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    text[len(header) + size] = _LF  # the blank line between the lists
    for start, mat in ((len(header), inst.mat1), (len(header) + size + 1, inst.mat2)):
        rows = text[start : start + size].reshape(inst.n, digits + 1)
        # each byte's low nibble, then its high nibble, as the two bytes of a little-endian uint16
        pairs = mat.view(np.uint8).astype("<u2")
        nibbles = ((pairs & 0x0F) | (pairs >> 4 << 8)).view(np.uint8)[:, :digits]
        rows[:, :digits] = nibbles + np.uint8(48) + np.uint8(39) * (nibbles > 9)
        rows[:, digits] = _LF
    with open(path, "wb") as fh:
        fh.write(text)


def _parse_header(line: str) -> tuple:
    """(d, n, gamma, planted, model, seed) from a header that reads as _header_line renders them."""
    tokens = line.split(" ")
    keys = ("d", "n", "gamma", "planted", "model", "seed")
    if len(tokens) != 2 + len(keys) or tokens[0] != _MAGIC:
        raise InstanceParseError(f"line 1: malformed header {line!r}")
    if tokens[1] != _VERSION:
        raise InstanceParseError(f"line 1: unsupported format version {tokens[1]!r}")
    fields = {}
    for key, token in zip(keys, tokens[2:]):
        name, sep, value = token.partition("=")
        if not sep or name != key:
            raise InstanceParseError(f"line 1: expected {key}=..., got {token!r}")
        fields[key] = value
    ints = {}
    for key in ("d", "n", "gamma", "seed"):
        try:
            ints[key] = int(fields[key])
        except ValueError:
            raise InstanceParseError(f"line 1: {key} is not an integer: {fields[key]!r}") from None
    planted = None
    if fields["planted"] != "none":
        left, _, right = fields["planted"].partition(",")
        try:
            planted = (int(left), int(right))
        except ValueError:
            raise InstanceParseError(f"line 1: malformed planted field {fields['planted']!r}") from None
    try:
        check_size(ints["d"], ints["n"], ints["gamma"], planted)
        model = DistributionModel.from_token(fields["model"])
    except ValueError as exc:
        raise InstanceParseError(f"line 1: {exc}") from None
    head = (ints["d"], ints["n"], ints["gamma"], planted, model, ints["seed"])
    # int() and float() take other spellings too (+8, 0_8, 01, 3e-1): refuse them
    for want, got in zip(_header_line(*head).split(" "), tokens):
        if want != got:
            raise InstanceParseError(f"line 1: expected {want!r}, got {got!r}")
    return head


_HEX_CHARS = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)
_NIBBLE = np.full(256, 0x100, dtype="<u2")  # ASCII code -> nibble, 0x100 if not a hex digit
_NIBBLE[_HEX_CHARS] = np.arange(16)
# Two adjacent digits, read as the little-endian uint16 c0 | c1 << 8, -> the
# byte nibble(c0) | nibble(c1) << 4, above 0xFF unless both are hex digits:
# an LF in either place is refused like any other byte.
_HEX_PAIR = (_NIBBLE[None, :] | _NIBBLE[:, None] << 4).ravel()
_LF_TERM = _NIBBLE[_LF] << 4  # what an LF adds to a pair as its second byte


def _hex_pairs(rows: np.ndarray) -> np.ndarray:
    """Rows of digits and their LF column as bytes of two digits each, above 0xFF where a digit is not hex."""
    digits = rows.shape[-1] - 1
    pairs = _HEX_PAIR.take(rows[..., : digits + 1 & ~1].view("<u2"))
    if digits % 2:  # an odd row's last pair ends in its LF column, which every caller has checked
        pairs[..., -1] ^= _LF_TERM
    return pairs


def _rows(pairs: np.ndarray, d: int, first_line_no: int) -> np.ndarray:
    """One list's _hex_pairs, all hex, as packed rows; row r is line first_line_no + r."""
    mat = np.zeros((len(pairs), n_words(d) * 8), dtype=np.uint8)
    mat[:, : pairs.shape[1]] = pairs
    mat = mat.view(np.uint64)
    pad = d % WORD_BITS
    if pad:
        bad = mat[:, -1] >> np.uint64(pad)
        if bad.any():
            row = int(np.nonzero(bad)[0][0])
            raise InstanceParseError(f"line {first_line_no + row}: nonzero padding bits beyond dimension {d}")
    return mat


def _locate_fault(data: np.ndarray, d: int, n: int) -> list[np.ndarray]:
    """Split a file whose layout read_instance could not prove at every LF, and raise at its first fault.

    Faults are named in the order line count, separator, then each list in turn.
    """
    ends = np.flatnonzero(data == _LF)  # line k ends at ends[k - 1]
    expected = 1 + n + 1 + n
    if ends.size < expected:
        raise InstanceParseError(
            f"line {ends.size + 1}: truncated file, expected {expected} lines, got {ends.size}"
        )
    if ends.size > expected:
        raise InstanceParseError(f"line {expected + 1}: trailing data after {expected} lines")
    lengths = np.diff(ends) - 1  # lengths[k] is the length of line k + 2
    if lengths[n]:
        raise InstanceParseError(f"line {n + 2}: expected a blank separator line")
    digits = (d + 3) // 4
    mats = []
    for start, lens, first_line_no in ((ends[0] + 1, lengths[:n], 2), (ends[n + 1] + 1, lengths[n + 1 :], n + 3)):
        # rows before the first one of wrong length are checked for hex digits
        # first, so the error names the first bad line whatever its fault
        wrong = np.flatnonzero(lens != digits)
        short = int(wrong[0]) if wrong.size else n
        text = data[start : start + short * (digits + 1)].reshape(short, digits + 1)
        pairs = _hex_pairs(text)
        if short and pairs.max() > 0xFF:
            row = int(np.argmax((pairs > 0xFF).any(axis=1)))
            payload = text[row, :digits].tobytes().decode("ascii")
            raise InstanceParseError(f"line {first_line_no + row}: non-hex payload {payload!r}")
        if short < n:
            raise InstanceParseError(
                f"line {first_line_no + short}: expected {digits} hex digits, got {lens[short]}"
            )
        mats.append(_rows(pairs, d, first_line_no))
    return mats


def read_instance(path: str | Path) -> Instance:
    """Parse the instance file at path; raises InstanceParseError with the offending line.

    The layout the header implies is proven for the whole file at once,
    and both lists are decoded from one (2, n, digits + 1) view; only a
    file that fails is walked line by line (module docstring).  A missing
    final LF is accepted; a CR before an LF is refused.  The header must
    read exactly as write_instance renders its fields; any other spelling
    is refused with the token expected and the one found.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii():
        at = int(np.argmax(np.frombuffer(raw, dtype=np.uint8) > 0x7F))
        line_no = raw.count(b"\n", 0, at) + 1
        raise InstanceParseError(f"line {line_no}: non-ASCII character {raw[at]:#04x}")
    crlf = raw.find(b"\r\n") if b"\r" in raw else -1  # the pair search is slow, a CR search is not
    if crlf >= 0:
        line_no = raw.count(b"\n", 0, crlf) + 1
        raise InstanceParseError(f"line {line_no}: CRLF line ending; instance files use LF")
    if raw and not raw.endswith(b"\n"):
        raw += b"\n"
    head = raw.find(b"\n")
    if head < 0:
        raise InstanceParseError("line 1: empty file")
    d, n, gamma, planted, model, seed = _parse_header(raw[:head].decode("ascii"))
    width = (d + 3) // 4 + 1  # a row's digits and its LF
    size = n * width  # one list's bytes
    pairs = None
    # 2n rows of digits and an LF around one blank line fill the file, the second
    # list just past the separator.  With every digit hex (an LF is not) no other LF exists.
    if len(raw) == head + 2 + 2 * size and raw[head + 1 + size] == _LF:
        rows = np.ndarray((2, n, width), np.uint8, buffer=raw, offset=head + 1, strides=(size + 1, width, 1))
        if (rows[..., -1] == _LF).all():
            pairs = _hex_pairs(rows)
    if pairs is not None and pairs.max() <= 0xFF:
        mats = [_rows(pairs[0], d, 2), _rows(pairs[1], d, n + 3)]
    else:
        mats = _locate_fault(np.frombuffer(raw, dtype=np.uint8), d, n)
    try:
        return Instance(d, n, gamma, mats[0], mats[1], planted, model, seed)
    except ValueError as exc:
        raise InstanceParseError(f"line 1: {exc}") from None
