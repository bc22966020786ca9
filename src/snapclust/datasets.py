"""Dataset ingestion (idx, csv, rawf32), label files and seeded synthetics.

idx is the classic big-endian image/label container (magic 2051/2049);
byte images are scaled to [0, 1] as float64. rawf32 is a minimal
little-endian float32 matrix container for round-tripping embeddings; it
loads as float32. csv is plain numeric text, loaded as float64.
`check_matrix` is the one input check of the pipeline and the trainer.
Synthetic generators are fully seeded so experiment suites need no
downloads.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from .distances import _CHUNK_ENTRIES
from .errors import ConfigError, DataError
from .rng import STAGE_SYNTH, SeedStream

FORMATS = ("auto", "idx", "csv", "rawf32")
# labels save_labels formats per write; each line is a str of about 50 bytes
_LABEL_BLOCK = 4096

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049
RAWF32_MAGIC = b"SSCD"


def _read_bytes(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


@contextlib.contextmanager
def writing_to(out_dir, written=(), what: str = ""):
    """An OSError from creating or filling `out_dir` is a DataError (exit 3).

    Each path listed in `written` by then is removed first, so a caller
    that lists every file just before it writes it leaves none of them
    behind, not even one cut short. `what` names the files in the message.
    """
    try:
        yield
    except OSError as exc:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        target = f"{what} to {out_dir}" if what else f"to {out_dir}"
        raise DataError(f"cannot write {target}: {exc}") from None


def load_idx_images(path) -> np.ndarray:
    """n x (rows*cols) float64 matrix in [0, 1] from an idx image file."""
    data = _read_bytes(path)
    if len(data) < 16:
        raise DataError(f"{path}: truncated idx header")
    magic, n, rows, cols = struct.unpack_from(">IIII", data, 0)
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(f"{path}: bad idx image magic {magic}, expected {IDX_IMAGES_MAGIC}")
    need = 16 + n * rows * cols
    if len(data) < need:
        raise DataError(f"{path}: truncated idx payload ({len(data)} < {need} bytes)")
    pixels = np.frombuffer(data, dtype=np.uint8, count=n * rows * cols, offset=16)
    return pixels.reshape(n, rows * cols).astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    data = _read_bytes(path)
    if len(data) < 8:
        raise DataError(f"{path}: truncated idx header")
    magic, n = struct.unpack_from(">II", data, 0)
    if magic != IDX_LABELS_MAGIC:
        raise DataError(f"{path}: bad idx label magic {magic}, expected {IDX_LABELS_MAGIC}")
    if len(data) < 8 + n:
        raise DataError(f"{path}: truncated idx payload")
    return np.frombuffer(data, dtype=np.uint8, count=n, offset=8).astype(np.int64)


def load_csv(path) -> np.ndarray:
    """Plain numeric csv, no header, consistent row widths."""
    try:
        X = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise DataError(f"{path}: malformed csv: {exc}") from None
    if X.size == 0:
        raise DataError(f"{path}: empty csv")
    return X


def save_rawf32(path, X: np.ndarray) -> None:
    X = np.ascontiguousarray(X, dtype="<f4")
    if X.ndim != 2:
        raise DataError("rawf32 stores 2-D matrices")
    with open(path, "wb") as fh:
        fh.write(RAWF32_MAGIC)
        fh.write(struct.pack("<II", X.shape[0], X.shape[1]))
        fh.write(X.tobytes())


def load_rawf32(path) -> np.ndarray:
    """n x d float32 matrix: a read-only view over the file's bytes, not a copy."""
    data = _read_bytes(path)
    if len(data) < 12 or data[:4] != RAWF32_MAGIC:
        raise DataError(f"{path}: bad rawf32 magic, expected {RAWF32_MAGIC!r}")
    n, d = struct.unpack_from("<II", data, 4)
    need = 12 + 4 * n * d
    if len(data) != need:
        raise DataError(f"{path}: rawf32 of {n} x {d} needs {need} bytes, file has {len(data)}")
    flat = np.frombuffer(data, dtype="<f4", count=n * d, offset=12)
    return flat.reshape(n, d)


def detect_format(path) -> str:
    """Sniff idx/rawf32 by magic, falling back to csv."""
    head = _read_bytes(path)[:4]
    if head == RAWF32_MAGIC:
        return "rawf32"
    if len(head) == 4:
        (magic,) = struct.unpack(">I", head)
        if magic in (IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC):
            return "idx"
    return "csv"


def load_dataset(path, fmt: str = "auto") -> np.ndarray:
    """Load a data matrix; idx values land in [0,1], others pass through."""
    if fmt == "auto":
        fmt = detect_format(path)
    if fmt == "idx":
        return load_idx_images(path)
    if fmt == "csv":
        return load_csv(path)
    if fmt == "rawf32":
        return load_rawf32(path)
    raise ConfigError(f"unknown dataset format {fmt!r}; expected one of {FORMATS}")


def check_matrix(X, what: str = "dataset") -> np.ndarray:
    """X as a C-contiguous nonempty 2-D matrix of finite float32 or float64.

    float32 and float64 keep their dtype, so a float32 input is not
    widened here; every other dtype is widened to float64. Finiteness is
    checked one row block of _CHUNK_ENTRIES entries at a time, so the check
    holds no n x d temporary, and the error names the first bad entry.
    `what` names the input in the errors.
    """
    X = np.asarray(X)
    if X.dtype not in (np.float32, np.float64):
        X = X.astype(np.float64)
    X = np.ascontiguousarray(X)
    if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
        raise DataError(f"{what} must be a nonempty 2-D matrix")
    n, d = X.shape
    block = max(1, _CHUNK_ENTRIES // d)
    finite = np.empty((min(block, n), d), dtype=bool)
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = np.isfinite(X[start:stop], out=finite[: stop - start])
        if not rows.all():
            row, col = np.argwhere(~rows)[0]
            raise DataError(
                f"{what} contains non-finite values, first at row {start + row}, "
                f"column {col}; remove or impute that row"
            )
    return X


def load_labels(path) -> np.ndarray:
    """Ground-truth labels: an idx label file or one integer per line."""
    head = _read_bytes(path)[:4]
    if len(head) == 4 and struct.unpack(">I", head)[0] == IDX_LABELS_MAGIC:
        return load_idx_labels(path)
    try:
        labels = np.loadtxt(path, dtype=np.int64, ndmin=1)
    except ValueError as exc:
        raise DataError(f"{path}: malformed label file: {exc}") from None
    if labels.ndim != 1 or labels.size == 0:
        raise DataError(f"{path}: label file must hold one integer per line")
    return labels


def save_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels).astype(np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, labels.size, _LABEL_BLOCK):
            fh.write("".join(f"{v}\n" for v in labels[start : start + _LABEL_BLOCK].tolist()))


def make_blobs(
    n: int,
    d: int,
    k: int,
    separation: float = 5.0,
    noise_sigma: float = 0.3,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """k isotropic Gaussian clusters around randomly placed centers.

    Cluster sizes are as equal as n allows (the first n mod k clusters
    get one extra point); labels come out sorted by cluster id.
    """
    if k < 1 or n < k or d < 1:
        raise ConfigError(f"blobs need n >= k >= 1 and d >= 1, got n={n}, k={k}, d={d}")
    gen = SeedStream(seed).child(STAGE_SYNTH).generator()
    centers = gen.standard_normal((k, d)) * separation
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    labels = np.repeat(np.arange(k, dtype=np.int64), sizes)
    X = centers[labels] + gen.standard_normal((n, d)) * noise_sigma
    return X, labels


def make_moons(
    n: int, noise_sigma: float = 0.05, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Two interleaved 2-D half circles, the classic non-convex pair."""
    if n < 2:
        raise ConfigError(f"moons need n >= 2, got n={n}")
    n_out = n // 2
    n_in = n - n_out
    t_out = np.linspace(0.0, np.pi, n_out)
    t_in = np.linspace(0.0, np.pi, n_in)
    X = np.concatenate(
        [
            np.column_stack([np.cos(t_out), np.sin(t_out)]),
            np.column_stack([1.0 - np.cos(t_in), 0.5 - np.sin(t_in)]),
        ]
    )
    labels = np.concatenate(
        [np.zeros(n_out, dtype=np.int64), np.ones(n_in, dtype=np.int64)]
    )
    gen = SeedStream(seed).child(STAGE_SYNTH).generator()
    X = X + gen.standard_normal(X.shape) * noise_sigma
    return X, labels
