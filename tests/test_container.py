import json

import numpy as np
import pytest

from chansbgm.container import ArrayReader, ArrayWriter, output_directory, read_array, write_array
from chansbgm.errors import InvalidArgumentError


def tree(directory):
    """Map of name to content bytes for each file of ``directory``."""
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_complex_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    write_array(tmp_path / "x", arr, role="test")
    back, meta = read_array(tmp_path / "x")
    assert back.tobytes() == arr.tobytes()
    assert meta["dtype"] == "c128"
    assert meta["shape"] == [7, 5]


def test_real_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.standard_normal(11)
    write_array(tmp_path / "x", arr, role="test")
    back, meta = read_array(tmp_path / "x")
    assert back.tobytes() == arr.tobytes()
    assert meta["dtype"] == "f64"


def test_rewrite_is_byte_identical(tmp_path):
    rng = np.random.default_rng(2)
    arr = rng.standard_normal((3, 4))
    write_array(tmp_path / "a", arr, role="test")
    write_array(tmp_path / "b", arr, role="test")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_empty_array_round_trip(tmp_path):
    arr = np.zeros((0, 6), dtype=complex)
    write_array(tmp_path / "x", arr, role="test")
    back, _ = read_array(tmp_path / "x")
    assert back.shape == (0, 6)


def test_truncated_payload_rejected(tmp_path):
    write_array(tmp_path / "x", np.ones(4), role="test")
    payload = (tmp_path / "x.bin").read_bytes()
    (tmp_path / "x.bin").write_bytes(payload[:-8])
    with pytest.raises(InvalidArgumentError):
        read_array(tmp_path / "x")


def test_streamed_write_is_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    arr = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    write_array(tmp_path / "whole", arr, role="test")
    with ArrayWriter(tmp_path / "streamed", role="test") as writer:
        for rows in (slice(0, 3), slice(3, 3), slice(3, 4), slice(4, 10)):
            writer.append(arr[rows])
    for suffix in (".bin", ".json"):
        assert (tmp_path / f"streamed{suffix}").read_bytes() == (
            tmp_path / f"whole{suffix}"
        ).read_bytes()


def test_reader_rows_match_whole(tmp_path):
    rng = np.random.default_rng(4)
    arr = rng.standard_normal((9, 2, 3))
    write_array(tmp_path / "x", arr, role="test")
    reader = ArrayReader(tmp_path / "x")
    assert len(reader) == 9
    parts = [reader[rows] for rows in (slice(0, 2), slice(2, 2), slice(2, 9))]
    assert np.concatenate(parts).tobytes() == arr.tobytes()
    assert reader[5:].tobytes() == arr[5:].tobytes()
    assert reader[:].tobytes() == arr.tobytes()


@pytest.mark.parametrize("rows", [slice(0, 10, 2), slice(10, 0, -1), 3], ids=["2", "-1", "int"])
def test_reader_takes_only_row_slices_of_step_1(tmp_path, rows):
    write_array(tmp_path / "x", np.arange(12.0), role="test")
    reader = ArrayReader(tmp_path / "x")
    assert reader[0:12:1].tobytes() == np.arange(12.0).tobytes()
    with pytest.raises(InvalidArgumentError, match="step 1"):
        reader[rows]


def test_row_assignment_rewrites_rows_in_place(tmp_path):
    rng = np.random.default_rng(5)
    arr = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
    write_array(tmp_path / "x", arr, role="test")
    size = (tmp_path / "x.bin").stat().st_size
    reader = ArrayReader(tmp_path / "x")
    block = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    reader[4:7] = block
    reader[9:] = arr[:0]  # no rows: nothing is written
    arr[4:7] = block
    assert reader[4:7].tobytes() == block.tobytes()
    assert reader[:].tobytes() == arr.tobytes()
    assert (tmp_path / "x.bin").stat().st_size == size


@pytest.mark.parametrize(
    "rows, block",
    [(slice(0, 2), np.zeros((2, 3))), (slice(0, 2), np.zeros((3, 3), dtype=complex)),
     (slice(0, 2), np.zeros((2, 2), dtype=complex)), (slice(0, 4, 2), np.zeros((2, 3), complex))],
    ids=["dtype", "rows", "row-shape", "step-2"],
)
def test_row_assignment_of_another_block_rejected(tmp_path, rows, block):
    arr = np.arange(12.0).reshape(4, 3) * (1 + 1j)
    write_array(tmp_path / "x", arr, role="test")
    reader = ArrayReader(tmp_path / "x")
    with pytest.raises(InvalidArgumentError):
        reader[rows] = block
    assert reader[:].tobytes() == arr.tobytes()


def test_failed_write_leaves_final_names_untouched(tmp_path):
    out = tmp_path / "out"
    with output_directory(out, "x.json") as staged:
        write_array(staged / "x", np.ones(4), role="test")
    before = tree(out)
    with pytest.raises(RuntimeError):
        with output_directory(out, "x.json") as staged:
            with ArrayWriter(staged / "x", role="test") as writer:
                writer.append(np.zeros(3))
                raise RuntimeError("disk full")
    # the earlier directory is whole and no staging directory is left
    assert tree(out) == before
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize(
    "block", [np.zeros((2, 4)), np.zeros((2, 3), dtype=complex)], ids=["row-shape", "dtype"]
)
def test_block_not_continuing_the_array_rejected(tmp_path, block):
    with pytest.raises(InvalidArgumentError, match="does not continue"):
        with output_directory(tmp_path / "out", "x.json") as staged:
            with ArrayWriter(staged / "x", role="test") as writer:
                writer.append(np.zeros((2, 3)))
                writer.append(block)
    assert list(tmp_path.iterdir()) == []


def test_output_directory_replaces_an_earlier_output_whole(tmp_path):
    out, plain = tmp_path / "out", tmp_path / "plain"
    plain.mkdir()
    for stems in (["x", "stale"], ["x"]):
        with output_directory(out, "x.json") as staged:
            for stem in stems:
                write_array(staged / stem, np.ones(2), role="test")
    assert sorted(tree(out)) == ["x.bin", "x.json"]
    # staged with mkdir, so the mode is a plain directory's, not mkdtemp's 0700
    assert out.stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "plain"]


@pytest.mark.parametrize("shape", [[5], [3, 1], [], "4", [4.0]])
def test_sidecar_shape_disagreeing_with_payload_rejected(tmp_path, shape):
    write_array(tmp_path / "x", np.ones(4), role="test")
    sidecar = json.loads((tmp_path / "x.json").read_text())
    sidecar["shape"] = shape
    (tmp_path / "x.json").write_text(json.dumps(sidecar))
    with pytest.raises(InvalidArgumentError):
        read_array(tmp_path / "x")
