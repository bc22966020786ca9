"""Dataset IO: IDX, rawf32, csv round-trips and the synthetic generators."""

import re
import struct

import numpy as np
import pytest

from snapclust.datasets import (
    detect_format,
    load_dataset,
    load_idx_images,
    load_idx_labels,
    load_labels,
    load_rawf32,
    make_blobs,
    make_moons,
    save_labels,
    save_rawf32,
)
from snapclust.errors import DataError


def write_idx_images(path, arr):
    n, rows, cols = arr.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 2051, n, rows, cols))
        fh.write(arr.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 2049, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def test_idx_images_round_trip(tmp_path):
    gen = np.random.default_rng(0)
    raw = gen.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    path = tmp_path / "imgs.idx"
    write_idx_images(path, raw)
    X = load_idx_images(path)
    assert X.shape == (5, 12)
    assert np.allclose(X, raw.reshape(5, 12) / 255.0)
    assert X.min() >= 0.0 and X.max() <= 1.0


def test_idx_labels_round_trip(tmp_path):
    path = tmp_path / "labels.idx"
    write_idx_labels(path, [3, 1, 4, 1, 5])
    y = load_idx_labels(path)
    assert y.tolist() == [3, 1, 4, 1, 5]
    assert y.dtype == np.int64


def test_idx_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 1234, 1, 2, 2) + b"\x00" * 4)
    with pytest.raises(DataError, match="magic"):
        load_idx_images(path)


def test_idx_truncated(tmp_path):
    path = tmp_path / "short.idx"
    path.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + b"\x00" * 3)
    with pytest.raises(DataError):
        load_idx_images(path)


@pytest.mark.parametrize(
    "content, load, error",
    [
        (struct.pack(">IIII", 2051, 2, 1, 2) + bytes([0, 255, 51, 102]), load_dataset, None),
        (struct.pack(">I", 2049), load_idx_labels, "truncated idx header"),
        (struct.pack(">II", 2051, 1), load_idx_labels, "bad idx label magic 2051, expected 2049"),
        (struct.pack(">II", 2049, 3) + b"\x00\x01", load_idx_labels, "truncated idx payload"),
    ],
    ids=["images-auto", "labels-header", "labels-magic", "labels-payload"],
)
def test_idx_files_load_or_name_the_bad_file(tmp_path, content, load, error):
    path = tmp_path / "data.idx"
    path.write_bytes(content)
    if error is None:
        # detected as idx by its magic and scaled to [0, 1]
        assert np.array_equal(load(path), [[0.0, 1.0], [0.2, 0.4]])
    else:
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {error}')}$"):
            load(path)


def test_rawf32_round_trip(tmp_path):
    X = np.array([[1.5, -2.25], [0.0, 7.125], [3.0, 4.0]], dtype=np.float64)
    path = tmp_path / "data.rawf32"
    save_rawf32(path, X)
    raw = path.read_bytes()
    assert raw[:4] == b"SSCD"
    n, d = struct.unpack("<II", raw[4:12])
    assert (n, d) == (3, 2)
    back = load_rawf32(path)
    assert back.dtype == np.float32
    # exact: the chosen values are representable in f32
    assert np.array_equal(back, X)


def test_rawf32_truncated(tmp_path):
    path = tmp_path / "short.rawf32"
    path.write_bytes(b"SSCD" + struct.pack("<II", 3, 2) + b"\x00" * 8)
    with pytest.raises(DataError):
        load_rawf32(path)


def test_rawf32_with_trailing_bytes(tmp_path):
    path = tmp_path / "long.rawf32"
    save_rawf32(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(DataError, match=r"rawf32 of 2 x 3 needs 36 bytes, file has 44$"):
        load_rawf32(path)


def test_csv_matrix(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    X = load_dataset(path, "csv")
    assert np.array_equal(X, [[1.0, 2.0], [3.0, 4.0]])


def test_csv_bad_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(DataError):
        load_dataset(path, "csv")


def test_csv_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(DataError):
        load_dataset(path, "csv")


def test_detect_format(tmp_path):
    raw = tmp_path / "a.bin"
    save_rawf32(raw, np.ones((2, 2)))
    assert detect_format(raw) == "rawf32"
    idx = tmp_path / "b.bin"
    write_idx_images(idx, np.zeros((1, 2, 2), dtype=np.uint8))
    assert detect_format(idx) == "idx"
    csv = tmp_path / "c.csv"
    csv.write_text("1,2\n")
    assert detect_format(csv) == "csv"


def test_load_dataset_auto(tmp_path):
    path = tmp_path / "auto.bin"
    X = np.random.default_rng(1).normal(size=(4, 3)).astype(np.float32).astype(np.float64)
    save_rawf32(path, X)
    assert np.array_equal(load_dataset(path), X)


def test_labels_text_round_trip(tmp_path):
    path = tmp_path / "y.txt"
    save_labels(path, np.array([2, 0, 1, 1]))
    assert path.read_text() == "2\n0\n1\n1\n"
    assert load_labels(path).tolist() == [2, 0, 1, 1]
    save_labels(path, np.array([0, 12, 3]))
    assert path.read_bytes() == b"0\n12\n3\n"
    # written a block at a time; the blocks join into one line per label
    many = np.arange(10_000) % 13
    save_labels(path, many)
    assert path.read_text() == "".join(f"{v}\n" for v in many.tolist())


def test_labels_idx_sniffed(tmp_path):
    path = tmp_path / "y.idx"
    write_idx_labels(path, [1, 0, 1])
    assert load_labels(path).tolist() == [1, 0, 1]


def test_make_blobs_structure():
    X, y = make_blobs(100, 5, 3, separation=4.0, noise_sigma=0.2, seed=9)
    assert X.shape == (100, 5)
    assert y.shape == (100,)
    # labels sorted, sizes as even as possible (34, 33, 33)
    assert np.all(np.diff(y) >= 0)
    assert np.bincount(y).tolist() == [34, 33, 33]
    # same seed reproduces, different seed varies
    X2, _ = make_blobs(100, 5, 3, separation=4.0, noise_sigma=0.2, seed=9)
    assert np.array_equal(X, X2)
    X3, _ = make_blobs(100, 5, 3, separation=4.0, noise_sigma=0.2, seed=10)
    assert not np.array_equal(X, X3)


def test_make_blobs_separation_scales_centers():
    X1, y1 = make_blobs(90, 4, 3, separation=1.0, noise_sigma=1e-9, seed=5)
    X8, y8 = make_blobs(90, 4, 3, separation=8.0, noise_sigma=1e-9, seed=5)
    c1 = np.array([X1[y1 == c].mean(axis=0) for c in range(3)])
    c8 = np.array([X8[y8 == c].mean(axis=0) for c in range(3)])
    assert np.allclose(c8, 8.0 * c1, atol=1e-6)


def test_make_moons_structure():
    X, y = make_moons(80, noise_sigma=0.02, seed=3)
    assert X.shape == (80, 2)
    assert set(np.unique(y)) == {0, 1}
    X2, y2 = make_moons(80, noise_sigma=0.02, seed=3)
    assert np.array_equal(X, X2) and np.array_equal(y, y2)


def test_make_blobs_validates():
    with pytest.raises(Exception):
        make_blobs(10, 2, 0)
    with pytest.raises(Exception):
        make_blobs(2, 2, 3)  # fewer points than clusters
