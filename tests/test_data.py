import os
import struct

import numpy as np
import pytest

from ulklab import data

MNIST_COUNTS = [980, 1135, 1032, 1010, 982, 892, 958, 1028, 974, 1009]


def idx_images(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">IIII", data.IDX_IMAGE_MAGIC, n, rows, cols) + images.astype(
        np.uint8).tobytes()


def idx_labels(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", data.IDX_LABEL_MAGIC, len(labels)) + labels.tobytes()


def test_parse_idx_hand_built_pair():
    imgs = np.array([[[0, 51], [102, 255]],
                     [[255, 204], [153, 0]]], dtype=np.uint8)
    ds = data.parse_idx(idx_images(imgs), idx_labels([1, 0]))
    assert len(ds) == 2
    assert ds.x.shape == (2, 2, 2, 1)
    assert np.allclose(ds.x[0, :, :, 0], [[0.0, 0.2], [0.4, 1.0]])
    assert np.allclose(ds.x[1, :, :, 0], [[1.0, 0.8], [0.6, 0.0]])
    assert ds.y.tolist() == [1, 0]
    assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0


def test_parse_idx_rejects_bad_image_magic():
    imgs = np.zeros((1, 2, 2), dtype=np.uint8)
    blob = struct.pack(">IIII", 0x00000804, 1, 2, 2) + imgs.tobytes()
    with pytest.raises(data.IdxFormatError, match="magic"):
        data.parse_idx(blob, idx_labels([0]))


def test_parse_idx_rejects_short_payload():
    blob = struct.pack(">IIII", data.IDX_IMAGE_MAGIC, 3, 2, 2) + b"\x00" * 8
    with pytest.raises(data.IdxFormatError, match="payload"):
        data.parse_idx(blob, idx_labels([0, 1, 2]))


def test_parse_idx_rejects_count_mismatch():
    imgs = np.zeros((2, 2, 2), dtype=np.uint8)
    with pytest.raises(data.IdxFormatError, match="images but"):
        data.parse_idx(idx_images(imgs), idx_labels([0, 1, 2]))


def test_mnist_label_histogram_if_available():
    root = os.environ.get("ULK_MNIST_DIR", "")
    img_path = os.path.join(root, "t10k-images-idx3-ubyte")
    lab_path = os.path.join(root, "t10k-labels-idx1-ubyte")
    if not (root and os.path.exists(img_path) and os.path.exists(lab_path)):
        pytest.skip("set ULK_MNIST_DIR to run the official-file check")
    ds = data.parse_idx(open(img_path, "rb").read(), open(lab_path, "rb").read())
    assert len(ds) == 10000
    assert np.bincount(ds.y, minlength=10).tolist() == MNIST_COUNTS


def test_gen_blobs_deterministic_and_in_unit_box():
    a = data.gen_blobs(5, 30, 8, separation=6.0, seed=42)
    b = data.gen_blobs(5, 30, 8, separation=6.0, seed=42)
    c = data.gen_blobs(5, 30, 8, separation=6.0, seed=43)
    assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
    assert not np.array_equal(a.x, c.x)
    assert a.x.min() >= 0.0 and a.x.max() <= 1.0
    assert len(a) == 150 and a.n_classes == 5


def test_gen_blobs_zero_separation_means_coincide():
    ds = data.gen_blobs(4, 200, 6, separation=0.0, seed=7)
    sigma = ds.x.std(axis=0).mean()
    grand = ds.x.mean(axis=0)
    for c in range(4):
        mu = ds.x[ds.y == c].mean(axis=0)
        assert np.linalg.norm(mu - grand) < 3.0 * sigma / np.sqrt(200) * np.sqrt(6)


def test_split_forget_is_a_partition():
    ds = data.gen_blobs(6, 20, 4, separation=5.0, seed=1)
    task = data.ForgetTask(frozenset({3}))
    rest, forget = data.split_forget(ds, task)
    assert set(forget.y.tolist()) == {3}
    assert 3 not in rest.y
    assert len(rest) + len(forget) == len(ds)
    joined = np.sort(np.concatenate([rest.x, forget.x]), axis=0)
    assert np.array_equal(joined, np.sort(ds.x, axis=0))


def test_split_forget_rejects_non_strict_subset():
    ds = data.gen_blobs(3, 10, 4, separation=5.0, seed=1)
    with pytest.raises(ValueError, match="strict subset"):
        data.split_forget(ds, data.ForgetTask(frozenset({0, 1, 2})))
    with pytest.raises(ValueError, match="outside"):
        data.split_forget(ds, data.ForgetTask(frozenset({5})))
    with pytest.raises(ValueError, match="non-empty"):
        data.ForgetTask(frozenset())


def test_per_class_rows_shape_purity_and_determinism():
    ds = data.gen_blobs(4, 50, 6, separation=5.0, seed=2)
    picks = data.per_class_rows(ds, k=10, m_models=5, seed=9)
    assert [c for c, _ in picks] == [c for c in range(4) for _ in range(5)]
    for c, rows in picks:
        assert rows.shape == (10,)
        assert (ds.y[rows] == c).all()
    again = data.per_class_rows(ds, k=10, m_models=5, seed=9)
    for (ca, a), (cb, b) in zip(picks, again):
        assert ca == cb and a.tobytes() == b.tobytes()
    # within one subset: sampled without replacement, so rows are distinct
    assert len(set(picks[0][1].tolist())) == 10


def test_per_class_rows_rejects_small_population():
    ds = data.gen_blobs(3, 5, 4, separation=5.0, seed=3)
    with pytest.raises(ValueError, match="need k"):
        data.per_class_rows(ds, k=6, m_models=2, seed=0)


def test_unfiltered_dataset_requires_every_class():
    with pytest.raises(ValueError, match="missing classes"):
        data.LabeledDataset(np.zeros((3, 2)), np.array([0, 0, 1]), n_classes=3)
    ok = data.LabeledDataset(np.zeros((3, 2)), np.array([0, 0, 1]), n_classes=3,
                             split="part", filtered=True)
    assert len(ok) == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features_naming_the_row(bad):
    x = np.zeros((6, 2, 2))
    x[4, 1, 0] = bad
    x[5, 0, 0] = bad
    with pytest.raises(ValueError, match="non-finite features in row 4"):
        data.LabeledDataset(x, np.array([0, 1, 0, 1, 0, 1]), n_classes=2)
    with pytest.raises(ValueError, match="row 0"):
        data.LabeledDataset(x[4:], np.array([0, 1]), n_classes=2)
    assert len(data.LabeledDataset(x[:4], np.array([0, 1, 0, 1]), n_classes=2)) == 4


def test_load_dataset_rejects_truncated_and_bit_flipped_archives(tmp_path):
    ds = data.gen_blobs(3, 4, 2, separation=4.0, seed=1)
    raw = open(data.save_dataset(ds, str(tmp_path / "ok.npz")), "rb").read()
    want = (ds.x.tobytes(), ds.y.tobytes(), ds.n_classes, ds.split, ds.filtered)
    cases = [raw[:cut] for cut in range(0, len(raw), 7)]
    for off in range(0, len(raw), 3):
        flipped = bytearray(raw)
        flipped[off] ^= 1 << (off % 8)
        cases.append(bytes(flipped))
    bad = tmp_path / "bad.npz"
    rejected = 0
    for blob in cases:
        bad.write_bytes(blob)
        try:
            got = data.load_dataset(str(bad))
        except data.DatasetFormatError:
            rejected += 1
            continue
        # zip timestamps are not checked, so a flip there loads unchanged
        assert (got.x.tobytes(), got.y.tobytes(), got.n_classes, got.split,
                got.filtered) == want
    assert rejected > len(cases) // 2
    with pytest.raises(FileNotFoundError):
        data.load_dataset(str(tmp_path / "absent.npz"))
