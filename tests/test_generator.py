import gc
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hambucket import bench, cli, generator
from hambucket.analysis import DistributionModel, choose_params
from hambucket.bitvec import block_bounds, make_rng, pack_rows
from hambucket.generator import (
    Instance,
    InstanceParseError,
    gen_instance,
    read_instance,
    write_instance,
)
from oracle import (
    distance,
    from_coords,
    hex_row,
    reference_fixed_rows,
    reference_gen_instance,
    reference_poisson_rows,
    row_fault,
    weight,
    zeros,
)

UNIFORM = DistributionModel.uniform()

models = st.sampled_from(
    [
        DistributionModel.uniform(),
        DistributionModel("fixed", 0.3),
        DistributionModel("bernoulli", 0.2),
        DistributionModel("poisson", 0.25),
        # stored, and so written, as the Python floats 0.25 and 1.0
        DistributionModel("fixed", np.float64(0.25)),
        DistributionModel("bernoulli", 1),
    ]
)


def _file(tmp_path: Path, text: str) -> Path:
    """A file in tmp_path holding text, one byte per character, with no newline translation."""
    path = tmp_path / "inst.cpinst"
    path.write_bytes(text.encode("latin-1"))
    return path


@given(st.integers(2, 80), st.integers(1, 12), st.data(), models)
@settings(max_examples=60)
def test_planted_pair_at_exact_distance(d, n, data, model):
    gc = data.draw(st.integers(0, d))
    inst = gen_instance(d, n, gc, model, seed=data.draw(st.integers(0, 2**32)))
    i, j = inst.planted
    assert 0 <= i < n and 0 <= j < n
    assert distance(inst.list1[i], inst.list2[j]) == gc
    assert len(inst.list1) == len(inst.list2) == n
    assert all(v.dim == d for v in inst.list1 + inst.list2)


def test_generation_is_deterministic(tmp_path):
    a = gen_instance(64, 1024, 16, UNIFORM, seed=42)
    b = gen_instance(64, 1024, 16, UNIFORM, seed=42)
    assert (a == b) is True
    write_instance(a, tmp_path / "a.cpinst")
    write_instance(b, tmp_path / "b.cpinst")
    assert (tmp_path / "a.cpinst").read_bytes() == (tmp_path / "b.cpinst").read_bytes()
    assert gen_instance(64, 1024, 16, UNIFORM, seed=43) != a


def test_fixed_weight_rows_have_target_weight():
    inst = gen_instance(50, 40, 4, DistributionModel("fixed", 0.3), seed=9)
    w = round(0.3 * 50)
    assert all(weight(v) == w for v in inst.list1)
    # the planted partner is x + e, so only its distance is pinned
    i, j = inst.planted
    assert distance(inst.list1[i], inst.list2[j]) == 4


def test_poisson_weights_vary():
    inst = gen_instance(64, 200, 4, DistributionModel("poisson", 0.25), seed=2)
    ws = {weight(v) for v in inst.list1}
    assert len(ws) > 3
    assert all(0 <= w <= 64 for w in ws)


class CoarseKeys:
    """A random stream whose keys are rounded down to multiples of 1/levels.

    With few levels most rows have a tie at their k-th smallest key, which
    the samplers must break as the reference samplers do.
    """

    def __init__(self, seed: int, levels: int):
        self.rng = make_rng(seed)
        self.levels = levels

    def random(self, size):
        return np.floor(self.rng.random(size) * self.levels) / self.levels

    def poisson(self, lam, size):
        return self.rng.poisson(lam, size)


@pytest.mark.parametrize("d", [1, 63, 64, 65, 200, 1100])
@given(st.data())
@settings(max_examples=25, deadline=None)
def test_weighted_samplers_match_reference_under_tied_keys(d, data):
    step = max(1, generator._SLAB_KEYS // d)  # rows per slab
    n = data.draw(st.sampled_from([1, step - 1, step, step + 1, 2 * step + 3]).filter(bool), label="n")
    levels = data.draw(st.sampled_from([2, 5, 64, 1 << 40]), label="levels")
    seed = data.draw(st.integers(0, 2**32), label="seed")
    w = data.draw(st.sampled_from([0, 1, d // 3, d - 1, d]), label="w")
    got = generator._fixed_rows(CoarseKeys(seed, levels), n, d, w)
    assert np.array_equal(got, reference_fixed_rows(CoarseKeys(seed, levels), n, d, w))
    f = data.draw(st.sampled_from([0.0, 0.02, 0.3, 0.97, 2.0]), label="mean_fraction")
    got = generator._poisson_rows(CoarseKeys(seed, levels), n, d, f)
    assert np.array_equal(got, reference_poisson_rows(CoarseKeys(seed, levels), n, d, f))


@pytest.mark.parametrize("d", [1, 63, 64, 65, 130, 1100])
@pytest.mark.parametrize("token", ["uniform", "fixed:0.3", "bernoulli:0.2", "poisson:0.25"])
def test_planted_error_matches_the_packed_bit_row_reference(d, token):
    """XOR-ing the error's coordinates into the packed row gives the bytes of packing it from a row of bits."""
    model = DistributionModel.from_token(token)
    for gc in sorted({0, 1, d // 2, d}):
        for seed in (0, 7, 2**40 + 3):
            # Instance equality: the header and both matrices word for word
            assert gen_instance(d, 5, gc, model, seed) == reference_gen_instance(d, 5, gc, model, seed)


def test_uniform_mean_distance_concentrates():
    inst = gen_instance(64, 400, 8, UNIFORM, seed=31)
    total = sum(distance(a, b) for a, b in zip(inst.list1, inst.list2))
    assert abs(total / 400 - 32.0) < 1.0


def test_instance_validates_planted_distance():
    v = pack_rows([from_coords(8, [1])])
    w = pack_rows([from_coords(8, [1, 2])])
    with pytest.raises(ValueError):
        Instance(8, 1, 3, v, w, (0, 0), UNIFORM, 0)


def test_instance_validates_shapes():
    v = pack_rows([zeros(8)])
    vv = pack_rows([zeros(8)] * 2)
    with pytest.raises(ValueError):
        Instance(8, 2, 0, v, vv, (0, 0), UNIFORM, 0)
    with pytest.raises(ValueError):
        Instance(8, 1, 9, v, v, None, UNIFORM, 0)
    with pytest.raises(ValueError):
        Instance(8, 1, 0, v, v, (0, 1), UNIFORM, 0)
    with pytest.raises(ValueError, match="uint64"):
        Instance(8, 1, 0, v.astype(np.int64), v, None, UNIFORM, 0)
    with pytest.raises(ValueError, match="uint64"):
        Instance(8, 1, 0, v[0], v, None, UNIFORM, 0)
    with pytest.raises(ValueError, match="padding"):
        Instance(8, 1, 0, v | np.uint64(1 << 8), v, None, UNIFORM, 0)


def _refuse_in(entry, d, n, gamma_count, tmp_path, monkeypatch, capsys) -> str:
    """The message entry gives for an instance of this size; a CLI entry must exit 2."""
    try:
        if entry == "gen_instance":
            gen_instance(d, n, gamma_count, UNIFORM, 0)
        elif entry == "Instance":
            empty = np.zeros((1, 1), dtype=np.uint64)  # the size is checked before the rows
            Instance(d, n, gamma_count, empty, empty, None, UNIFORM, 0)
        elif entry == "read_instance":
            read_instance(_file(tmp_path, f"CPINST 1 d={d} n={n} gamma={gamma_count} planted=none model=uniform seed=0\n"))
        elif entry == "block_bounds":
            block_bounds(d, 1)
        elif entry == "choose_params":
            choose_params(d, 0.5, 0.125)
        else:
            def no_trial(*args, **kwargs):
                raise AssertionError("an instance was generated")

            monkeypatch.setattr(bench, "gen_instance", no_trial)
            argv = [entry, "--d", str(d), "--n", str(n)]
            if entry == "gen":
                argv += [f"--gamma={gamma_count}", "--out", str(tmp_path / "never.cpinst")]
            else:
                argv += ["--trials", "1", "--gamma-sweep", "0.125"]
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and not (tmp_path / "never.cpinst").exists()
            return err.removeprefix("error: ").removesuffix("\n")
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{entry} accepted d={d} n={n} gamma_count={gamma_count}")


# One field out of range each, and the message every check of it gives.
# block_bounds and choose_params take d alone; bench's gamma is relative, so
# only its d and n can leave the instance format.
_BAD_SIZES = [
    ("d", 0, 4, 0, "d outside [1, 1048576]: 0"),
    ("d", (1 << 20) + 1, 4, 0, "d outside [1, 1048576]: 1048577"),
    ("n", 8, 0, 0, "n must be positive, got 0"),
    ("n", 8, -3, 0, "n must be positive, got -3"),
    ("gamma", 8, 4, 9, "gamma_count outside [0, 8]: 9"),
    ("gamma", 8, 4, -1, "gamma_count outside [0, 8]: -1"),
]
_ENTRIES = {
    "gen_instance": ("d", "n", "gamma"),
    "Instance": ("d", "n", "gamma"),
    "read_instance": ("d", "n", "gamma"),
    "block_bounds": ("d",),
    "choose_params": ("d",),
    "gen": ("d", "n", "gamma"),
    "bench": ("d", "n"),
}


@pytest.mark.parametrize("entry, d, n, gamma_count, message", [
    pytest.param(entry, d, n, g, message, id=f"{entry}-{field}={(d, n, g)[('d', 'n', 'gamma').index(field)]}")
    for entry, fields in _ENTRIES.items() for field, d, n, g, message in _BAD_SIZES if field in fields
])
def test_each_instance_field_has_one_range_check(entry, d, n, gamma_count, message, tmp_path, monkeypatch, capsys):
    """Every entry point refuses d, n and gamma_count with the same message, the value included."""
    got = _refuse_in(entry, d, n, gamma_count, tmp_path, monkeypatch, capsys)
    assert got == ("line 1: " + message if entry == "read_instance" else message)


@pytest.mark.parametrize("planted", [(5, 0), (0, 4), (-1, 2)])
def test_planted_range_has_one_check(planted, tmp_path):
    """The header and Instance refuse planted indices outside [0, n) with one message naming them and n."""
    message = f"planted indices {planted} outside [0, 4)"
    empty = np.zeros((4, 1), dtype=np.uint64)
    with pytest.raises(ValueError) as exc:
        Instance(8, 4, 0, empty, empty, planted, UNIFORM, 0)
    assert str(exc.value) == message
    # refused at the header: no row follows it
    header = f"CPINST 1 d=8 n=4 gamma=0 planted={planted[0]},{planted[1]} model=uniform seed=0\n"
    with pytest.raises(InstanceParseError) as exc:
        read_instance(_file(tmp_path, header))
    assert str(exc.value) == "line 1: " + message


def test_matrices_are_read_only_and_match_row_view():
    inst = gen_instance(70, 6, 5, UNIFORM, seed=12)
    for mat, rows in ((inst.mat1, inst.list1), (inst.mat2, inst.list2)):
        assert mat.shape == (6, 2) and not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1
        assert np.array_equal(pack_rows(rows), mat)
    assert inst.list1 is inst.list1  # built once


def test_instance_owns_its_matrices():
    v = np.array([[0x0F]], dtype=np.uint64)
    inst = Instance(8, 1, 0, v, v.copy(), (0, 0), UNIFORM, 0)
    v[0, 0] = 0xFF  # the caller's buffer stays writable but is not shared
    assert inst.mat1[0, 0] == 0x0F


def test_instance_is_hashable_consistently_with_eq():
    a = gen_instance(40, 8, 3, UNIFORM, seed=5)
    b = gen_instance(40, 8, 3, UNIFORM, seed=5)
    assert a == b and hash(a) == hash(b)
    assert len({a, b, gen_instance(40, 8, 3, UNIFORM, seed=6)}) == 2


# --- serialization ------------------------------------------------------------


HAND_WRITTEN = "CPINST 1 d=8 n=1 gamma=4 planted=0,0 model=uniform seed=0\nf0\n\naa\n"


def test_hex_rows_read_low_coordinates_first(tmp_path):
    """Digit order follows coordinate order: f0 is 11110000, aa is 01010101."""
    inst = read_instance(_file(tmp_path, HAND_WRITTEN))
    assert inst.list1[0] == from_coords(8, [1, 2, 3, 4])
    assert inst.list2[0] == from_coords(8, [2, 4, 6, 8])
    assert distance(inst.list1[0], inst.list2[0]) == 4


def test_write_matches_hand_written_form(tmp_path):
    path = _file(tmp_path, HAND_WRITTEN)
    write_instance(read_instance(path), path)
    assert path.read_bytes() == HAND_WRITTEN.encode("ascii")


@given(st.integers(1, 70), st.integers(1, 8), st.integers(0, 2**32), models)
@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_roundtrip_through_text(tmp_path, d, n, seed, model):
    inst = gen_instance(d, n, min(2, d), model, seed=seed)
    path = tmp_path / "inst.cpinst"
    write_instance(inst, path)
    assert read_instance(path) == inst


@given(st.integers(1, 130), st.integers(1, 6), st.integers(0, 2**32), models)
@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_written_rows_match_scalar_hex(tmp_path, d, n, seed, model):
    inst = gen_instance(d, n, min(2, d), model, seed=seed)
    path = tmp_path / "inst.cpinst"
    write_instance(inst, path)
    lines = path.read_text(encoding="ascii").split("\n")
    assert lines[1 : 1 + n] == [hex_row(v) for v in inst.list1]
    assert lines[2 + n : 2 + 2 * n] == [hex_row(v) for v in inst.list2]


def test_roundtrip_through_path(tmp_path):
    inst = gen_instance(33, 5, 7, UNIFORM, seed=77)
    p = tmp_path / "inst.cpinst"
    write_instance(inst, p)
    assert read_instance(p) == inst
    assert read_instance(str(p)) == inst


def invalid_cases():
    """(label, text, message): one fault each, and the whole message the reader gives for it."""
    return [
        ("empty", "", "line 1: empty file"),
        (
            "bad magic",
            HAND_WRITTEN.replace("CPINST", "CPINSX"),
            "line 1: malformed header 'CPINSX 1 d=8 n=1 gamma=4 planted=0,0 model=uniform seed=0'",
        ),
        ("bad version", HAND_WRITTEN.replace("CPINST 1", "CPINST 9"), "line 1: unsupported format version '9'"),
        (
            "missing field",
            "CPINST 1 d=8 n=1 gamma=4 planted=0,0 model=uniform\nf0\n\naa\n",
            "line 1: malformed header 'CPINST 1 d=8 n=1 gamma=4 planted=0,0 model=uniform'",
        ),
        ("bad planted", HAND_WRITTEN.replace("planted=0,0", "planted=x"), "line 1: malformed planted field 'x'"),
        ("gamma out of range", HAND_WRITTEN.replace("gamma=4", "gamma=9"), "line 1: gamma_count outside [0, 8]: 9"),
        (
            "truncated list",
            "CPINST 1 d=8 n=2 gamma=4 planted=0,0 model=uniform seed=0\nf0\n\naa\n",
            "line 5: truncated file, expected 6 lines, got 4",
        ),
        (
            "missing separator",
            "CPINST 1 d=8 n=1 gamma=4 planted=0,0 model=uniform seed=0\nf0\naa\n",
            "line 4: truncated file, expected 4 lines, got 3",
        ),
        ("header only", HAND_WRITTEN.split("\n")[0], "line 2: truncated file, expected 4 lines, got 1"),
        ("trailing data", HAND_WRITTEN + "ff\n", "line 5: trailing data after 4 lines"),
        ("trailing blank line", HAND_WRITTEN + "\n", "line 5: trailing data after 4 lines"),
        ("separator not blank", HAND_WRITTEN.replace("\n\naa", "\n0\naa"), "line 3: expected a blank separator line"),
        ("bad hex digit", HAND_WRITTEN.replace("aa", "zz"), "line 4: non-hex payload 'zz'"),
        ("upper-case hex digit", HAND_WRITTEN.replace("f0", "F0"), "line 2: non-hex payload 'F0'"),
        ("wrong digit count", HAND_WRITTEN.replace("aa", "aaa"), "line 4: expected 2 hex digits, got 3"),
        ("empty row", HAND_WRITTEN.replace("f0", ""), "line 2: expected 2 hex digits, got 0"),
        (
            "planted distance off",
            HAND_WRITTEN.replace("gamma=4", "gamma=2"),
            "line 1: planted pair is at distance 4, expected gamma_count=2",
        ),
    ]


@pytest.mark.parametrize("label,text,message", invalid_cases(), ids=[c[0] for c in invalid_cases()])
def test_invalid_inputs_rejected(label, text, message, tmp_path):
    with pytest.raises(InstanceParseError) as exc:
        read_instance(_file(tmp_path, text))
    assert str(exc.value) == message


_HEADER_SPELLINGS = [
    ("d=8", "d=0_8", "expected 'd=8', got 'd=0_8'"),
    ("d=8", "d=+8", "expected 'd=8', got 'd=+8'"),
    ("n=1", "n=01", "expected 'n=1', got 'n=01'"),
    ("gamma=4", "gamma=-0", "expected 'gamma=0', got 'gamma=-0'"),
    ("seed=0", "seed=0\t", "expected 'seed=0', got 'seed=0\\t'"),
    ("planted=0,0", "planted=0,+0", "expected 'planted=0,0', got 'planted=0,+0'"),
    ("planted=0,0", "planted=00,0", "expected 'planted=0,0', got 'planted=00,0'"),
    ("model=uniform", "model=fixed:3e-1", "expected 'model=fixed:0.3', got 'model=fixed:3e-1'"),
    ("model=uniform", "model=fixed:.3", "expected 'model=fixed:0.3', got 'model=fixed:.3'"),
]


@pytest.mark.parametrize("token, spelling, message", _HEADER_SPELLINGS, ids=[c[1] for c in _HEADER_SPELLINGS])
def test_header_reads_only_as_written(token, spelling, message, tmp_path):
    """int() and float() take spellings write_instance never renders; the reader refuses them at line 1.

    A value out of range keeps its range message (_BAD_SIZES, invalid_cases,
    test_planted_range_has_one_check): the range checks come first.
    """
    with pytest.raises(InstanceParseError) as exc:
        read_instance(_file(tmp_path, HAND_WRITTEN.replace(token, spelling)))
    assert str(exc.value) == "line 1: " + message


def test_missing_final_newline_is_accepted(tmp_path):
    assert read_instance(_file(tmp_path, HAND_WRITTEN.removesuffix("\n"))) == read_instance(_file(tmp_path, HAND_WRITTEN))


def test_padding_bits_must_be_zero(tmp_path):
    text = "CPINST 1 d=5 n=1 gamma=0 planted=0,0 model=uniform seed=0\n1f\n\n1f\n"
    with pytest.raises(InstanceParseError, match="padding"):
        read_instance(_file(tmp_path, text))


def test_parse_errors_carry_line_numbers(tmp_path):
    text = "CPINST 1 d=8 n=1 gamma=4 planted=0,0 model=uniform seed=0\nf0\n\nzz\n"
    with pytest.raises(InstanceParseError, match="line 4"):
        read_instance(_file(tmp_path, text))


def test_parse_error_names_the_first_bad_line(tmp_path):
    head = "CPINST 1 d=8 n=3 gamma=0 planted=none model=uniform seed=0\n"
    hex_then_len = head + "00\nzz\n000\n\n00\n00\n00\n"
    with pytest.raises(InstanceParseError, match="line 3: non-hex"):
        read_instance(_file(tmp_path, hex_then_len))
    len_then_hex = head + "000\nzz\n00\n\n00\n00\n00\n"
    with pytest.raises(InstanceParseError, match="line 2: expected 2 hex digits"):
        read_instance(_file(tmp_path, len_then_hex))


def test_non_ascii_file_names_the_line(tmp_path):
    with pytest.raises(InstanceParseError, match=r"line 4: non-ASCII character 0xff"):
        read_instance(_file(tmp_path, HAND_WRITTEN.replace("aa", "a\xff")))
    with pytest.raises(InstanceParseError, match="line 1: non-ASCII character 0xf6"):
        read_instance(_file(tmp_path, HAND_WRITTEN.replace("uniform", "unif\u00f6rm")))


_ROW_FAULTS = {
    "length": "hex digits, got",
    "non-hex": "non-hex payload",
    "non-ASCII": "non-ASCII character",
    "padding": "nonzero padding bits",
}


@pytest.mark.parametrize("d", [1, 5, 63, 64, 65, 128, 200])
@given(data=st.data())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_corrupted_row_is_named_with_its_fault_and_line(d, data, tmp_path):
    """One fault in one row of either list: the reader names it, and the line 2 + row or n + 3 + row."""
    n = data.draw(st.integers(1, 9), label="n")
    inst = gen_instance(d, n, min(2, d), UNIFORM, seed=data.draw(st.integers(0, 2**32), label="seed"))
    path = tmp_path / "inst.cpinst"
    write_instance(inst, path)
    lines = path.read_text(encoding="ascii").split("\n")
    second = data.draw(st.booleans(), label="list 2")
    row = data.draw(st.integers(0, n - 1), label="row")
    line_no = n + 3 + row if second else 2 + row
    text = lines[line_no - 1]
    # a set bit beyond d exists in the text only where the last digit is partly padding
    kinds = ["length", "non-hex", "non-ASCII"] + (["padding"] if d % 4 else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    pos = data.draw(st.integers(0, len(text) - 1), label="position")
    if kind == "length":
        shorten = data.draw(st.booleans(), label="shorten")
        text = text[:pos] if shorten else text + "0" * data.draw(st.integers(1, 3), label="extra digits")
    elif kind == "non-hex":
        text = text[:pos] + data.draw(st.sampled_from("gzA F-._\t"), label="digit") + text[pos + 1 :]
    elif kind == "non-ASCII":
        text = text[:pos] + data.draw(st.sampled_from("\x80\xe9\xff"), label="character") + text[pos + 1 :]
    else:
        last = int(text[-1], 16) | 1 << data.draw(st.integers(d % 4, 3), label="pad bit")
        text = text[:-1] + "0123456789abcdef"[last]
    lines[line_no - 1] = text
    fault = row_fault(text, d)
    assert _ROW_FAULTS[kind] in fault
    with pytest.raises(InstanceParseError) as exc:
        read_instance(_file(tmp_path, "\n".join(lines)))
    assert str(exc.value) == f"line {line_no}: {fault}"


@pytest.mark.parametrize("d", [1, 5, 63, 64, 65, 128, 200])
@given(data=st.data())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_faults_that_keep_the_byte_and_lf_counts_are_named(d, data, tmp_path):
    """Faults that a check of the file's length and LF count alone would miss name their first faulty line.

    Either a row loses digits that a later row of the same list gains, or a
    row's LF trades places with one of its digits.
    """
    n = data.draw(st.integers(2, 9), label="n")
    inst = gen_instance(d, n, min(2, d), UNIFORM, seed=data.draw(st.integers(0, 2**32), label="seed"))
    path = tmp_path / "inst.cpinst"
    write_instance(inst, path)
    text = path.read_text(encoding="ascii")
    lines = text.split("\n")
    first = n + 3 if data.draw(st.booleans(), label="list 2") else 2  # the list's first line
    digits = (d + 3) // 4
    if data.draw(st.booleans(), label="move digits"):
        row = data.draw(st.integers(0, n - 2), label="row")
        later = data.draw(st.integers(row + 1, n - 1), label="later row")
        m = data.draw(st.integers(1, digits), label="digits moved")
        lines[first - 1 + row] = lines[first - 1 + row][m:]
        lines[first - 1 + later] += "0" * m
        faulty = "\n".join(lines)
    else:
        row = data.draw(st.integers(0, n - 1), label="row")
        start = sum(len(line) + 1 for line in lines[: first - 1 + row])
        pos = start + data.draw(st.integers(0, digits - 1), label="digit")
        chars = list(text)
        chars[pos], chars[start + digits] = chars[start + digits], chars[pos]
        faulty = "".join(chars)
    assert len(faulty) == len(text) and faulty.count("\n") == text.count("\n")
    line_no = first + row
    got = faulty.split("\n")
    assert all(row_fault(line, d) is None for line in got[first - 1 : line_no - 1])
    message = f"line {line_no}: {row_fault(got[line_no - 1], d)}"
    # a swap in a list's last row moves a line break past the separator or the
    # file's end: the line count and the separator are checked before any row
    if got[-1]:
        message = f"line {2 * n + 3}: trailing data after {2 * n + 2} lines"
    elif got[n + 1]:
        message = f"line {n + 2}: expected a blank separator line"
    with pytest.raises(InstanceParseError) as exc:
        read_instance(_file(tmp_path, faulty))
    assert str(exc.value) == message


def _refusal(path) -> str:
    """The message read_instance refuses the file at path with."""
    try:
        read_instance(path)
    except InstanceParseError as exc:
        return str(exc)
    raise AssertionError(f"{path} was read")


@pytest.mark.parametrize("d", [1, 5, 63, 64, 65, 128, 200])
def test_an_lf_for_a_digit_or_a_digit_for_an_lf_changes_the_line_count(d, tmp_path):
    """Either keeps the file's length: an LF among the digits, in either place of a pair, or a digit in a row's LF column."""
    n = 3
    path = tmp_path / "inst.cpinst"
    write_instance(gen_instance(d, n, min(2, d), UNIFORM, seed=d), path)
    text = path.read_bytes()
    start = text.index(b"\n") + 1  # list 1's first row
    end = start + (d + 3) // 4  # its LF
    for pos in range(start, end):
        path.write_bytes(text[:pos] + b"\n" + text[pos + 1 :])
        assert _refusal(path) == f"line {2 * n + 3}: trailing data after {2 * n + 2} lines"
    path.write_bytes(text[:end] + b"0" + text[end + 1 :])
    assert _refusal(path) == f"line {2 * n + 2}: truncated file, expected {2 * n + 2} lines, got {2 * n + 1}"


@pytest.mark.parametrize("d", [1, 5, 63, 64, 65, 128, 200])
@pytest.mark.parametrize("token", ["uniform", "fixed:0.3", "bernoulli:0.2", "poisson:0.25"])
def test_a_valid_file_never_reaches_the_fault_locator(d, token, tmp_path, monkeypatch):
    """A written instance is read by the bulk layout proof alone, with or without its final LF."""

    def locate_fault(*args):
        raise AssertionError("a valid file was split at every LF")

    monkeypatch.setattr(generator, "_locate_fault", locate_fault)
    inst = gen_instance(d, 7, min(2, d), DistributionModel.from_token(token), seed=d)
    path = tmp_path / "inst.cpinst"
    write_instance(inst, path)
    assert read_instance(path) == inst
    path.write_bytes(path.read_bytes().removesuffix(b"\n"))
    assert read_instance(path) == inst


def test_crlf_line_endings_are_refused(tmp_path):
    """A CR before an LF names the first such line, before any other check can misread it."""
    with pytest.raises(InstanceParseError) as exc:
        read_instance(_file(tmp_path, HAND_WRITTEN.replace("\n", "\r\n")))
    assert str(exc.value) == "line 1: CRLF line ending; instance files use LF"
    # only the separator line ends in CRLF; the file is otherwise valid
    with pytest.raises(InstanceParseError) as exc:
        read_instance(_file(tmp_path, HAND_WRITTEN.replace("\n\naa", "\n\r\naa")))
    assert str(exc.value) == "line 3: CRLF line ending; instance files use LF"
    # a CR that no LF follows is a non-hex digit
    with pytest.raises(InstanceParseError) as exc:
        read_instance(_file(tmp_path, HAND_WRITTEN.replace("aa\n", "a\r")))
    assert str(exc.value) == "line 4: non-hex payload 'a\\r'"


def _profiled_calls(fn, *args) -> int:
    """Python and C function calls fn(*args) makes, as sys.setprofile sees them.

    The cyclic collector is emptied first and kept off while fn runs: a
    collection inside it would run finalizers of earlier tests' objects,
    and the profiler would count their calls as fn's.
    """
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
        if was_enabled:
            gc.enable()
    return count


def test_file_layer_makes_no_per_row_calls(tmp_path):
    """Reading and writing a d=64 instance make as many calls at n=4096 as at n=64.

    Every row is handled inside numpy, so the count of Python and C calls
    does not grow with n.  This rule only tightens: a later reader or writer
    may make fewer calls, never a number that grows with the rows.
    """
    counts = {}
    for n in (64, 4096):
        inst = gen_instance(64, n, 8, UNIFORM, seed=n)
        path = tmp_path / f"inst-{n}.cpinst"
        write_instance(inst, path)  # warm: first calls may import or cache
        read_instance(path)
        counts[n] = (_profiled_calls(write_instance, inst, path), _profiled_calls(read_instance, path))
    assert counts[64] == counts[4096]


def test_a_refused_file_makes_no_per_row_calls(tmp_path):
    """Refusing a d=64 file for a fault in its last row makes as many calls at n=4096 as at n=64.

    The fault locator splits the file at every LF inside numpy, as the
    layout proof does its checks, so naming the fault does not grow with n.
    """
    counts = {}
    for n in (64, 4096):
        inst = gen_instance(64, n, 8, UNIFORM, seed=n)
        path = tmp_path / f"inst-{n}.cpinst"
        write_instance(inst, path)
        text = path.read_bytes()
        faults = (
            (text[:-2] + b"z\n", f"line {2 * n + 2}: non-hex payload {(text[-17:-2] + b'z').decode()!r}"),
            (text[:-2] + b"\n", f"line {2 * n + 2}: expected 16 hex digits, got 15"),
        )
        counts[n] = []
        for faulty, message in faults:
            path.write_bytes(faulty)
            assert _refusal(path) == message  # warm: first calls may import or cache
            counts[n].append(_profiled_calls(_refusal, path))
    assert counts[64] == counts[4096]
