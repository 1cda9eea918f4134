"""Text serialization round trips and format validation."""
import re
import tracemalloc

import numpy as np
import pytest

from symtensor import (
    FactorModel,
    SymmetryPattern,
    read_model,
    read_tensor,
    write_model,
    write_tensor,
)
from symtensor import io as st_io


def test_tensor_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 2, 5))
    path = tmp_path / "t.txt"
    write_tensor(path, t)
    np.testing.assert_array_equal(read_tensor(path), t)


def test_tensor_header_and_comments(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(
        "# a comment\n"
        "3 2 2 1  # inline comment after header\n"
        "1 2\n"
        "# another comment\n"
        "3 4\n"
    )
    t = read_tensor(path)
    assert t.shape == (2, 2, 1)
    # values are column-major: first index fastest
    np.testing.assert_array_equal(t[:, :, 0], np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_tensor_rejects_bad_order(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("5 2 2 2 2 2\n" + " ".join(["0"] * 32))
    with pytest.raises(ValueError, match="order"):
        read_tensor(path)


def test_tensor_rejects_wrong_count(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("3 2 2 2\n1 2 3\n")
    with pytest.raises(ValueError, match="expected 8 values"):
        read_tensor(path)


@pytest.mark.parametrize(
    "body,index,value",
    [("nan 1 1 inf", 0, "nan"), ("1 1 inf 1", 2, "inf"), ("1 -inf 1 1", 1, "-inf"),
     ("1 1 1 1e400", 3, "inf")],
    ids=["nan-first", "inf", "minus-inf", "overflowing-token"],
)
def test_tensor_rejects_non_finite_entries(tmp_path, body, index, value):
    path = tmp_path / "t.txt"
    path.write_text("3 2 2 1\n" + body + "\n")
    with pytest.raises(ValueError) as info:
        read_tensor(path)
    msg = str(info.value)
    assert msg.startswith(f"{path}: entry {index} ")
    assert f" is {value};" in msg


def test_tensor_fault_order(tmp_path):
    """A non-finite value among the first ``count`` is named once they are
    all in: after a bad token among them and a short file, before extra
    values and a bad token among those."""
    path = tmp_path / "t.txt"
    cases = [("1 nan 1 1 5 6", "entry 1 .* is nan; tensor entries"),
             ("1 nan 1 1 zz", "entry 1 .* is nan; tensor entries"),
             ("1 nan abc 1 5", "entry 2 .*'abc'"),
             ("1 inf 1", "expected 4 values .*, found 3$")]
    for body, message in cases:
        path.write_text("3 2 2 1\n" + body + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            read_tensor(path)


def test_tensor_rejects_malformed_number(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("3 2 2 1\n1 2 abc 4\n")
    with pytest.raises(ValueError) as info:
        read_tensor(path)
    msg = str(info.value)
    assert msg.startswith(f"{path}: entry 2 (0-based, column-major)")
    assert "'abc'" in msg
    for header in ("x 2 2 1", "3 2 2.0 1"):
        path.write_text(header + "\n1 2 3 4\n")
        with pytest.raises(ValueError, match="expected an integer, found") as info:
            read_tensor(path)
        assert str(info.value).startswith(f"{path}: ")


def test_tensor_rejects_empty(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="empty tensor file"):
        read_tensor(path)
    path.write_text("3 2 2\n")
    with pytest.raises(ValueError, match="header ended before 3 dimensions"):
        read_tensor(path)


def test_tensor_rejects_non_positive_dims(tmp_path):
    path = tmp_path / "t.txt"
    for dims in ("0 2 3", "2 -1 3"):
        path.write_text(f"3 {dims}\n")
        with pytest.raises(ValueError, match="dimensions must be positive") as info:
            read_tensor(path)
        assert str(info.value).startswith(f"{path}: ")


def test_write_tensor_rejects_matrix(tmp_path):
    path = tmp_path / "t.txt"
    with pytest.raises(ValueError, match="order 2"):
        write_tensor(path, np.zeros((2, 2)))
    # a zero-size tensor's header would be one that read_tensor refuses
    with pytest.raises(ValueError, match=r"dimensions must be positive, got \(0, 0, 3\)"):
        write_tensor(path, np.zeros((0, 0, 3)))
    assert not path.exists()


def test_model_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    model = FactorModel(
        SymmetryPattern.PSYM4_CASE2,
        [rng.standard_normal((4, 3)), rng.standard_normal((3, 3)), rng.standard_normal((5, 3))],
    )
    path = tmp_path / "m.txt"
    write_model(path, model)
    back = read_model(path)
    assert back.pattern is model.pattern
    for f, g in zip(model.factors, back.factors):
        np.testing.assert_array_equal(f, g)


def test_model_rejects_unknown_pattern(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("nosuch 1\n2 1\n1 2\n")
    with pytest.raises(ValueError, match="unknown pattern"):
        read_model(path)


def test_model_rejects_truncated(tmp_path):
    path = tmp_path / "m.txt"
    for text in ("psym3 2\n2 2\n1 2 3 4\n", "psym3 2\n2 2\n1 2\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="ended early"):
            read_model(path)
    path.write_text("# nothing here\n")
    with pytest.raises(ValueError, match="empty model file"):
        read_model(path)


def test_model_rejects_column_count_other_than_rank(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("psym3 2\n2 1\n1 2\n1 2\n3 4\n")
    with pytest.raises(ValueError, match="factor has 1 columns, rank is 2"):
        read_model(path)
    for rank in (0, -1):
        path.write_text(f"psym3 {rank}\n2 {rank}\n4 {rank}\n")
        with pytest.raises(ValueError, match=f"rank must be positive, got {rank}") as info:
            read_model(path)
        assert str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize("rows", [0, -1])
def test_model_rejects_non_positive_rows(tmp_path, rows):
    path = tmp_path / "m.txt"
    path.write_text(f"psym3 2\n{rows} 2\n4 2\n1 2 3 4 5 6 7 8\n")
    with pytest.raises(ValueError, match=f"factor 0 rows must be positive, got {rows}") as info:
        read_model(path)
    assert str(info.value).startswith(f"{path}: ")


def test_model_rejects_trailing_garbage(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("psym3 1\n2 1\n1 2\n1 1\n3\n99\n")
    with pytest.raises(ValueError, match="trailing"):
        read_model(path)


@pytest.mark.parametrize(
    "text,factor,index,value",
    [("psym3 1\n2 1\nnan 1\n1 1\n3\n", 0, 0, "nan"),
     ("psym3 1\n2 1\n1 2\n1 1\n-inf\n", 1, 0, "-inf"),
     ("psym3 1\n2 1\n1 1e400\n1 1\n3\n", 0, 1, "inf")],
    ids=["nan", "minus-inf", "overflowing-token"],
)
def test_model_rejects_non_finite_entries(tmp_path, text, factor, index, value):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_model(path)
    msg = str(info.value)
    assert msg.startswith(f"{path}: factor {factor}: entry {index} ")
    assert f" is {value};" in msg


@pytest.mark.parametrize(
    "text,factor,index,token",
    [("psym3 1\n2 1\n1 abc\n1 1\n3\n", 0, 1, "abc"),
     ("psym3 1\n2 1\n1 2\n1 1\n3x\n", 1, 0, "3x")],
    ids=["first-factor", "second-factor"],
)
def test_model_rejects_malformed_number(tmp_path, text, factor, index, token):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_model(path)
    msg = str(info.value)
    assert msg.startswith(f"{path}: factor {factor}: entry {index} (0-based, column-major)")
    assert repr(token) in msg
    for header in ("psym3 one\n2 1\n", "psym3 1\n2 y\n"):
        path.write_text(header + "1 2\n1 1\n3\n")
        with pytest.raises(ValueError, match="expected an integer, found") as info:
            read_model(path)
        assert str(info.value).startswith(f"{path}: ")


# --------------------------------------------------------------------- #
# Files longer than one read chunk                                       #
# --------------------------------------------------------------------- #

_DIMS = (20, 20, 20)  # 8,000 values, about 2.5 chunks of text


def _value_lines(flat):
    """``flat`` as written files hold it: six values per line, 17 digits."""
    return [" ".join("%.17g" % v for v in flat[i : i + 6]) + "\n" for i in range(0, flat.size, 6)]


def _with_token(line, j, token):
    """``line`` with its ``j``-th token replaced by ``token``."""
    toks = line.split()
    toks[j] = token
    return " ".join(toks) + "\n"


def _past_first_chunk(lines):
    """Index of the first line that starts more than one and a half read
    chunks into ``lines``."""
    chars = 0
    for i, line in enumerate(lines):
        if chars > 1.5 * st_io._READ_BYTES:
            return i
        chars += len(line)
    raise AssertionError("lines shorter than one and a half chunks")


def test_tensor_chunks_keep_header_line_values_and_comments(tmp_path):
    x = np.random.default_rng(2).standard_normal(_DIMS)
    lines = _value_lines(x.ravel(order="F"))
    k = _past_first_chunk(lines)
    lines[k] = lines[k].rstrip("\n") + "  # inline comment 1 2 3\n"
    lines.insert(k + 1, "# a comment line 4 5 6\n")
    path = tmp_path / "t.txt"
    # the header shares its line with the first values
    path.write_text("3 20 20 20 " + "".join(lines))
    np.testing.assert_array_equal(read_tensor(path), x)


def test_tensor_names_bad_token_in_a_later_chunk_by_global_entry(tmp_path):
    flat = np.random.default_rng(3).standard_normal(np.prod(_DIMS))
    lines = _value_lines(flat)
    k = _past_first_chunk(lines)
    lines[k] = _with_token(lines[k], 1, "abc")
    path = tmp_path / "t.txt"
    path.write_text("3 20 20 20\n" + "".join(lines))
    with pytest.raises(ValueError) as info:
        read_tensor(path)
    msg = str(info.value)
    assert msg.startswith(f"{path}: entry {6 * k + 1} (0-based, column-major)")
    assert "'abc'" in msg


def test_tensor_non_finite_across_chunks(tmp_path):
    """Of non-finite values in several chunks the first is named, and only
    after a value in a later chunk that is not a number."""
    flat = np.random.default_rng(7).standard_normal(np.prod(_DIMS))
    lines = _value_lines(flat)
    k = _past_first_chunk(lines)
    lines[0] = _with_token(lines[0], 3, "-inf")
    lines[k] = _with_token(lines[k], 2, "nan")
    path = tmp_path / "t.txt"
    path.write_text("3 20 20 20\n" + "".join(lines))
    at = re.escape(str(path))
    with pytest.raises(ValueError, match=f"^{at}: entry 3 .* is -inf; tensor entries"):
        read_tensor(path)
    lines[k] = _with_token(lines[k], 1, "abc")
    path.write_text("3 20 20 20\n" + "".join(lines))
    with pytest.raises(ValueError, match=f"^{at}: entry {6 * k + 1} .*'abc'"):
        read_tensor(path)


def test_tensor_count_errors_count_every_token_across_chunks(tmp_path):
    count = int(np.prod(_DIMS))
    lines = _value_lines(np.random.default_rng(4).standard_normal(count + 5000))
    path = tmp_path / "t.txt"
    path.write_text("3 20 20 20\n" + "".join(lines))
    found = f"expected {count} values for dims \\(20, 20, 20\\), found {count + 5000}$"
    with pytest.raises(ValueError, match=found):
        read_tensor(path)
    # a token past the count is still parsed, and named by its entry
    k = len(lines) - 2
    lines[k] = _with_token(lines[k], 0, "zz")
    path.write_text("3 20 20 20\n" + "".join(lines))
    with pytest.raises(ValueError, match=f"entry {6 * k} \\(0-based, column-major\\).*'zz'"):
        read_tensor(path)
    k = _past_first_chunk(lines)
    path.write_text("3 20 20 20\n" + "".join(lines[:k]))
    with pytest.raises(ValueError, match=f"found {6 * k}$"):
        read_tensor(path)


def test_header_claiming_more_values_than_the_file_holds(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("3 100000 100000 100000\n1 2\n")
    with pytest.raises(ValueError, match=r"expected 1000000000000000 values .*, found 2$"):
        read_tensor(path)
    # 65536 ** 4 is 2 ** 64: the count is exact, not wrapped to zero
    path.write_text("4 65536 65536 65536 65536\n")
    with pytest.raises(ValueError, match=r"expected 18446744073709551616 values .*, found 0$"):
        read_tensor(path)
    path.write_text("psym3 2\n1000000000000 2\n1 2\n")
    with pytest.raises(ValueError, match="model file ended early"):
        read_model(path)


def _big_model():
    rng = np.random.default_rng(5)
    factors = [rng.standard_normal((1200, 8)), rng.standard_normal((900, 8))]
    return FactorModel(SymmetryPattern.PSYM3, factors)


def test_model_values_across_chunks(tmp_path):
    model = _big_model()
    path = tmp_path / "m.txt"
    write_model(path, model)
    back = read_model(path)
    for f, g in zip(model.factors, back.factors):
        np.testing.assert_array_equal(f, g)
    text = path.read_text()
    second = text.index("\n900 8\n")
    assert second > 2 * st_io._READ_BYTES  # the first factor spans chunks
    path.write_text(text[: second + len("\n900 8\n") + 3 * st_io._READ_BYTES // 2])
    with pytest.raises(ValueError, match="model file ended early"):
        read_model(path)
    lines = text[second + 1 :].splitlines(keepends=True)
    k = _past_first_chunk(lines[1:]) + 1
    lines[k] = _with_token(lines[k], 2, "3x")
    path.write_text(text[: second + 1] + "".join(lines))
    with pytest.raises(ValueError) as info:
        read_model(path)
    msg = str(info.value)
    assert msg.startswith(f"{path}: factor 1: entry {6 * (k - 1) + 2} (0-based, column-major)")
    assert "'3x'" in msg


def _traced_peak(fn, *args):
    fn(*args)  # first-call caches are not the reader's memory
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _chunk_peak(path):
    """Traced peak of loading the first chunk of ``path``'s tokens."""

    def first_chunk():
        with open(path, encoding="utf-8") as fh:
            next(st_io._Tokens(fh))

    return _traced_peak(first_chunk)


def test_read_memory_is_the_output_plus_one_chunk(tmp_path):
    x = np.random.default_rng(6).standard_normal((40, 40, 40))
    path = tmp_path / "t.txt"
    write_tensor(path, x)
    assert _traced_peak(read_tensor, path) < 1.5 * x.nbytes + _chunk_peak(path)
    model = _big_model()
    path = tmp_path / "m.txt"
    write_model(path, model)
    nbytes = sum(f.nbytes for f in model.factors)
    assert _traced_peak(read_model, path) < 1.5 * nbytes + _chunk_peak(path)


def test_read_tensor_peaks_under_one_byte_per_value_above_the_output(tmp_path):
    """Values are checked for finiteness chunk by chunk, with no mask over
    the whole array: on a 90^3 file the read's peak above the output array
    is one chunk, under 0.75 byte per value."""
    x = np.random.default_rng(8).standard_normal((90, 90, 90))
    path = tmp_path / "t.txt"
    write_tensor(path, x)
    assert (_traced_peak(read_tensor, path) - x.nbytes) / x.size < 0.75
