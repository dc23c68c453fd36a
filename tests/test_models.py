import numpy as np
import pytest

from ulklab import models


def test_build_is_deterministic_per_seed():
    spec = models.mlp_spec(4, 3, hidden=8)
    a = models.build(spec, seed=7)
    b = models.build(spec, seed=7)
    c = models.build(spec, seed=8)
    for pa, pb in zip(a.params, b.params):
        for key in pa:
            assert pa[key].tobytes() == pb[key].tobytes()
    assert not np.array_equal(a.params[0]["W"], c.params[0]["W"])


def test_head_vector_length_counts_weights_and_biases():
    spec = models.mlp_spec(4, 3, hidden=8)
    m = models.build(spec, seed=0)
    assert models.head_vector(m).values.shape == (8 * 3 + 3,)
    assert models.head_vector(m, include_bias=False).values.shape == (8 * 3,)


def test_head_vector_hand_set_flatten_order():
    spec = models.mlp_spec(2, 2, hidden=2)
    m = models.build(spec, seed=0)
    m.params[m.feature_boundary]["W"] = np.array([[1.0, 2.0], [3.0, 4.0]])
    m.params[m.feature_boundary]["b"] = np.array([5.0, 6.0])
    v = models.head_vector(m)
    assert np.array_equal(v.values, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert v.head_only


def test_head_vector_round_trips_through_unflatten():
    spec = models.mlp_spec(5, 4, hidden=6)
    m = models.build(spec, seed=3)
    head = models.unflatten_head(m, models.head_vector(m).values)
    assert np.array_equal(head["W"], m.params[m.feature_boundary]["W"])
    assert np.array_equal(head["b"], m.params[m.feature_boundary]["b"])


def test_head_vector_is_injective_on_distinct_heads():
    spec = models.mlp_spec(3, 2, hidden=4)
    a = models.build(spec, seed=1)
    b = models.build(spec, seed=2)
    assert not np.array_equal(models.head_vector(a).values, models.head_vector(b).values)


def test_clone_copies_features_and_reinits_head():
    spec = models.mlp_spec(6, 4, hidden=8)
    target = models.build(spec, seed=5)
    clone = models.clone_frozen_head_template(target, seed=99, class_id=2)
    fb = target.feature_boundary
    for i in range(fb):
        for key in target.params[i]:
            assert clone.params[i][key].tobytes() == target.params[i][key].tobytes()
    assert not np.array_equal(clone.params[fb]["W"], target.params[fb]["W"])
    assert clone.trainable_from == fb
    assert clone.provenance["role"] == "auxiliary"
    assert clone.provenance["class_id"] == 2


def test_spec_validation_rejects_bad_shapes():
    with pytest.raises(ValueError, match="at least 2"):
        models.ModelSpec("mlp", (4, 8, 1), (4,), 1)
    with pytest.raises(ValueError, match="final layer"):
        models.ModelSpec("mlp", (4, 8, 3), (4,), 5)
    with pytest.raises(ValueError, match="kind"):
        models.ModelSpec("rnn", (4, 3), (4,), 3)


def test_cnn_stack_shapes_for_28x28():
    spec = models.cnn_spec(28, 28, 1, 10)
    m = models.build(spec, seed=0)
    head = m.layers[m.feature_boundary]
    assert head.in_dim == 5 * 5 * 16
    logits = m.logits(np.zeros((2, 28, 28, 1)))
    assert logits.shape == (2, 10)


def test_predict_proba_rows_sum_to_one():
    spec = models.mlp_spec(4, 3, hidden=8)
    m = models.build(spec, seed=1)
    p = m.predict_proba(np.random.default_rng(0).normal(size=(10, 4)))
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    for spec in (models.mlp_spec(4, 3, hidden=8), models.cnn_spec(12, 12, 1, 4)):
        m = models.build(spec, seed=11)
        m.provenance["method"] = "rt"
        path = str(tmp_path / f"{spec.kind}.ulkm")
        models.save_checkpoint(m, path)
        back = models.load_checkpoint(path)
        assert back.spec == m.spec
        assert back.provenance == m.provenance
        assert back.feature_boundary == m.feature_boundary
        for pa, pb in zip(m.params, back.params):
            assert set(pa) == set(pb)
            for key in pa:
                assert pa[key].tobytes() == pb[key].tobytes()


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "m.ulkm")
    m = models.build(models.mlp_spec(3, 2, hidden=4), seed=0)
    models.save_checkpoint(m, path)
    raw = bytearray(open(path, "rb").read())
    raw[:4] = b"NOPE"
    open(path, "wb").write(bytes(raw))
    with pytest.raises(models.CheckpointMagicError):
        models.load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    path = str(tmp_path / "m.ulkm")
    m = models.build(models.mlp_spec(3, 2, hidden=4), seed=0)
    models.save_checkpoint(m, path)
    raw = bytearray(open(path, "rb").read())
    raw[4:6] = (9).to_bytes(2, "little")
    open(path, "wb").write(bytes(raw))
    with pytest.raises(models.CheckpointVersionError):
        models.load_checkpoint(path)


def test_checkpoint_truncated_by_one_byte(tmp_path):
    path = str(tmp_path / "m.ulkm")
    m = models.build(models.mlp_spec(3, 2, hidden=4), seed=0)
    models.save_checkpoint(m, path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-1])
    with pytest.raises(models.CheckpointTruncatedError):
        models.load_checkpoint(path)


def test_checkpoint_trailing_garbage_rejected(tmp_path):
    path = str(tmp_path / "m.ulkm")
    m = models.build(models.mlp_spec(3, 2, hidden=4), seed=0)
    models.save_checkpoint(m, path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * 8)
    with pytest.raises(models.CheckpointArrayError):
        models.load_checkpoint(path)


def _saved_bytes(tmp_path):
    path = str(tmp_path / "m.ulkm")
    m = models.build(models.mlp_spec(3, 2, hidden=4), seed=0)
    m.provenance["method"] = "rt"
    models.save_checkpoint(m, path)
    return path, m, bytearray(open(path, "rb").read())


def test_checkpoint_flipped_payload_bit_rejected(tmp_path):
    path, _, raw = _saved_bytes(tmp_path)
    raw[-models.DIGEST_BYTES - 3] ^= 0x01    # inside the last array
    open(path, "wb").write(bytes(raw))
    with pytest.raises(models.CheckpointDigestError):
        models.load_checkpoint(path)


def test_checkpoint_flipped_descriptor_byte_rejected(tmp_path):
    path, _, raw = _saved_bytes(tmp_path)
    at = raw.index(b'"method": "rt"') + len(b'"method": "r')
    raw[at:at + 1] = b"s"                    # still valid JSON, same length
    open(path, "wb").write(bytes(raw))
    with pytest.raises(models.CheckpointDigestError):
        models.load_checkpoint(path)


def test_checkpoint_version_1_still_loads(tmp_path):
    path, m, raw = _saved_bytes(tmp_path)
    assert raw[4:6] == (2).to_bytes(2, "little")
    v1 = raw[:-models.DIGEST_BYTES]
    v1[4:6] = (1).to_bytes(2, "little")
    open(path, "wb").write(bytes(v1))
    back = models.load_checkpoint(path)
    assert back.provenance == m.provenance
    for pa, pb in zip(m.params, back.params):
        for key in pa:
            assert pa[key].tobytes() == pb[key].tobytes()
    open(path, "wb").write(bytes(v1 + b"\x00" * 8))
    with pytest.raises(models.CheckpointArrayError):
        models.load_checkpoint(path)


def test_checkpoint_errors_are_distinct_classes():
    kinds = {models.CheckpointMagicError, models.CheckpointVersionError,
             models.CheckpointTruncatedError, models.CheckpointArrayError,
             models.CheckpointDigestError}
    assert len(kinds) == 5
    for k in kinds:
        assert issubclass(k, models.CheckpointError)


def test_accuracy_on_empty_set_raises():
    m = models.build(models.mlp_spec(3, 2, hidden=4), seed=0)
    with pytest.raises(ValueError):
        m.accuracy(np.zeros((0, 3)), np.zeros(0, dtype=int))
