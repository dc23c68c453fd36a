"""Dataset ingestion, synthetic data generation, and forget-set plumbing.

The parameter attacks' per-class subsets are drawn here too, as row
indices into the dataset (``per_class_rows``); no sample is copied.

Two sources: the classic IDX binary pair (big-endian headers, u8 payload,
pixels scaled to [0,1]) and seeded synthetic Gaussian blobs whose features
are min-max normalized into [0,1] so every dataset shares the box domain
the black-box attack searches.
"""

from __future__ import annotations

import struct
import zipfile
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """IDX byte stream violates the format contract."""


class DatasetFormatError(ValueError):
    """A dataset archive is truncated, corrupted or not one at all."""


@dataclass(frozen=True)
class LabeledDataset:
    """Samples plus labels; immutable once constructed. Every feature
    must be finite, so training checks no batch for NaN or inf.

    ``filtered`` marks splits that intentionally drop classes (a forget
    split, a single-class subset); only unfiltered datasets must cover
    every declared class.
    """

    x: np.ndarray
    y: np.ndarray
    n_classes: int
    split: str = "full"
    filtered: bool = False

    def __post_init__(self):
        object.__setattr__(self, "x", np.ascontiguousarray(self.x, dtype=np.float64))
        object.__setattr__(self, "y", np.ascontiguousarray(self.y, dtype=np.int64))
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(f"{self.x.shape[0]} samples vs {self.y.shape[0]} labels")
        if not np.isfinite(self.x).all():
            bad = ~np.isfinite(self.x).reshape(len(self.x), -1).all(axis=1)
            raise ValueError(f"non-finite features in row {int(np.flatnonzero(bad)[0])}")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.n_classes):
            raise ValueError(f"labels outside [0,{self.n_classes})")
        if not self.filtered:
            present = np.unique(self.y)
            if len(present) != self.n_classes:
                missing = sorted(set(range(self.n_classes)) - set(present.tolist()))
                raise ValueError(f"unfiltered split is missing classes {missing}")

    def __len__(self) -> int:
        return self.x.shape[0]

    def take(self, indices, split: str, filtered: bool = True) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.x[idx], self.y[idx], self.n_classes, split, filtered)

    def class_indices(self, class_id: int) -> np.ndarray:
        return np.flatnonzero(self.y == class_id)


@dataclass(frozen=True)
class ForgetTask:
    forget_classes: frozenset
    dataset_id: str = "unnamed"

    def __post_init__(self):
        object.__setattr__(self, "forget_classes", frozenset(int(c) for c in self.forget_classes))
        if not self.forget_classes:
            raise ValueError("forget set must be non-empty")

    def validate_against(self, n_classes: int) -> None:
        bad = [c for c in self.forget_classes if not 0 <= c < n_classes]
        if bad:
            raise ValueError(f"forget classes {sorted(bad)} outside [0,{n_classes})")
        if len(self.forget_classes) >= n_classes:
            raise ValueError("forget set must be a strict subset of the classes")


def _read_idx_header(blob: bytes, expected_magic: int, n_dims: int, what: str):
    need = 4 * (1 + n_dims)
    if len(blob) < need:
        raise IdxFormatError(f"{what}: header needs {need} bytes, got {len(blob)}")
    magic = struct.unpack_from(">I", blob, 0)[0]
    if magic != expected_magic:
        raise IdxFormatError(f"{what}: magic 0x{magic:08x}, expected 0x{expected_magic:08x}")
    dims = struct.unpack_from(f">{n_dims}I", blob, 4)
    return dims, need


def parse_idx(image_bytes: bytes, label_bytes: bytes, split: str = "idx") -> LabeledDataset:
    """Parse an IDX image/label pair into a dataset of (H,W,1) float images."""
    (n_img, rows, cols), img_off = _read_idx_header(image_bytes, IDX_IMAGE_MAGIC, 3, "images")
    (n_lab,), lab_off = _read_idx_header(label_bytes, IDX_LABEL_MAGIC, 1, "labels")
    want = n_img * rows * cols
    if len(image_bytes) - img_off != want:
        raise IdxFormatError(f"images: header claims {n_img}x{rows}x{cols} "
                             f"({want} bytes), payload holds {len(image_bytes) - img_off}")
    if len(label_bytes) - lab_off != n_lab:
        raise IdxFormatError(f"labels: header claims {n_lab}, payload holds "
                             f"{len(label_bytes) - lab_off}")
    if n_img != n_lab:
        raise IdxFormatError(f"{n_img} images but {n_lab} labels")
    pixels = np.frombuffer(image_bytes, dtype=np.uint8, offset=img_off)
    x = pixels.reshape(n_img, rows, cols, 1).astype(np.float64) / 255.0
    y = np.frombuffer(label_bytes, dtype=np.uint8, offset=lab_off).astype(np.int64)
    t = int(y.max()) + 1 if y.size else 0
    return LabeledDataset(x, y, n_classes=t, split=split)


def gen_blobs(n_classes: int, n_per_class: int, dim: int, separation: float,
              seed: int) -> LabeledDataset:
    """Gaussian blobs at separation*u_c with unit covariance, then min-max
    squashed into [0,1] per feature.

    The u_c are orthonormal-ish class directions: seeded Gaussians run
    through Gram-Schmidt (exactly orthonormal while T <= dim).
    """
    if n_classes < 2 or dim < 1 or n_per_class < 1:
        raise ValueError("need n_classes >= 2, dim >= 1, n_per_class >= 1")
    gen = rngmod.stream(seed, rngmod.STREAM_DATA)
    raw_dirs = gen.normal(size=(n_classes, dim))
    dirs = np.zeros_like(raw_dirs)
    for c in range(n_classes):
        v = raw_dirs[c].copy()
        for j in range(c):
            v -= (v @ dirs[j]) * dirs[j]
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            v = raw_dirs[c]
            norm = np.linalg.norm(v)
        dirs[c] = v / norm
    xs, ys = [], []
    for c in range(n_classes):
        pts = separation * dirs[c] + gen.normal(size=(n_per_class, dim))
        xs.append(pts)
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    lo, hi = x.min(axis=0), x.max(axis=0)
    span = np.where(hi - lo < 1e-12, 1.0, hi - lo)
    x = (x - lo) / span
    return LabeledDataset(x, y, n_classes=n_classes, split=f"blobs-s{seed}")


def split_forget(dataset: LabeledDataset, task: ForgetTask):
    """Partition into (retained, forgotten); together they cover the dataset."""
    task.validate_against(dataset.n_classes)
    mask = np.isin(dataset.y, sorted(task.forget_classes))
    d_rest = dataset.take(np.flatnonzero(~mask), split=f"{dataset.split}/rest")
    d_unlearn = dataset.take(np.flatnonzero(mask), split=f"{dataset.split}/forget")
    return d_rest, d_unlearn


def per_class_rows(dataset: LabeledDataset, k: int, m_models: int,
                   seed: int) -> list:
    """m_models label-pure subsets of k samples for every class, as
    (class_id, row indices into ``dataset.x``) pairs, class by class.

    Each subset is drawn without replacement from its class's own stream;
    different subsets of the same class may overlap. Deterministic per
    (dataset, k, m_models, seed).
    """
    if k < 1 or m_models < 1:
        raise ValueError("need k >= 1 and m_models >= 1")
    out = []
    for c in range(dataset.n_classes):
        pool = dataset.class_indices(c)
        if len(pool) < k:
            raise ValueError(f"class {c} holds {len(pool)} samples, need k={k}")
        gen = rngmod.stream(seed, rngmod.STREAM_SUBSET, c)
        out.extend((c, gen.choice(pool, size=k, replace=False))
                   for _ in range(m_models))
    return out


def save_dataset(dataset: LabeledDataset, path: str) -> str:
    """Persist a dataset as an .npz archive; returns the path written."""
    if not path.endswith(".npz"):
        path += ".npz"
    with open(path, "wb") as fh:
        np.savez(fh, x=dataset.x, y=dataset.y,
                 n_classes=np.int64(dataset.n_classes),
                 split=np.str_(dataset.split),
                 filtered=np.bool_(dataset.filtered))
    return path


def load_dataset(path: str) -> LabeledDataset:
    """Read a ``save_dataset`` archive. A truncated, corrupted or foreign
    file raises DatasetFormatError; a missing one raises OSError."""
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as archive:
                missing = sorted({"x", "y", "n_classes", "split", "filtered"}
                                 - set(archive.files))
                if not missing:
                    x, y = archive["x"], archive["y"]
                    meta = (int(archive["n_classes"]), str(archive["split"].item()),
                            bool(archive["filtered"]))
        except (zipfile.BadZipFile, EOFError, NotImplementedError, RuntimeError,
                OSError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"{path}: not a readable dataset archive "
                                     f"({type(exc).__name__}: {exc})") from exc
    if missing:
        raise DatasetFormatError(f"{path}: missing arrays {missing}")
    return LabeledDataset(x, y, *meta)
