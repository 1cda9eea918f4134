"""Text serialization round trips and format validation."""
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
