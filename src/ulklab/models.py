"""Model definitions, head-parameter extraction, and checkpoint persistence.

Two desk-scale architectures: "mlp" (dense-relu-dense) for vector data and
"cnn" (two conv-relu-pool blocks plus a dense head) for 28x28 images. Both
end in a single dense classifier head; the layers before it form the
feature extractor. That split is what the parameter-space attacks rely on,
so every artifact records its boundary index explicitly.

Checkpoints use a small self-describing container (extension ``.ulkm``):

    magic   b"ULKM"
    version u16 little-endian, currently 2
    desc    u32 little-endian byte length, then that many bytes of UTF-8
            JSON: spec, feature boundary, provenance, array manifest
    blobs   the arrays from the manifest, concatenated, each row-major
            little-endian float64
    digest  (version 2 only) the 32-byte SHA-256 of every byte above

Version 1 files, which end after the blobs, still load. The digest is
checked after every structural check, so a short or overlong file still
fails as truncated or malformed. Round-trips are bit-exact. Head vectors flatten the final dense layer
layer-major: weight matrix first in row-major order, then the bias
entries. That order is part of the format and must not change.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng as rngmod

MAGIC = b"ULKM"
VERSION = 2
DIGEST_BYTES = 32
FORWARD_CHUNK = 512  # rows per batch-mode forward pass; bounds its memory


class CheckpointError(ValueError):
    """Base class for checkpoint parse failures."""


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


class CheckpointArrayError(CheckpointError):
    """Declared shapes/byte counts disagree with the payload."""


class CheckpointDescriptorError(CheckpointError):
    """The descriptor is not UTF-8 JSON, lacks a field or holds a bad value."""


class CheckpointDigestError(CheckpointError):
    """The stored SHA-256 does not match the header, descriptor and payload."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    dims: tuple
    input_shape: tuple
    n_classes: int

    def __post_init__(self):
        if self.kind not in ("mlp", "cnn"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        if self.dims[-1] != self.n_classes:
            raise ValueError(
                f"final layer width {self.dims[-1]} != class count {self.n_classes}")
        if self.kind == "mlp":
            if len(self.input_shape) != 1 or self.dims[0] != self.input_shape[0]:
                raise ValueError(f"mlp dims {self.dims} do not start at input "
                                 f"shape {self.input_shape}")
        else:
            if len(self.input_shape) != 3 or self.dims[0] != self.input_shape[2]:
                raise ValueError(f"cnn dims {self.dims} do not start at input "
                                 f"channels of {self.input_shape}")


def mlp_spec(input_dim: int, n_classes: int, hidden: int = 64) -> ModelSpec:
    return ModelSpec("mlp", (input_dim, hidden, n_classes), (input_dim,), n_classes)


def cnn_spec(height: int, width: int, channels: int, n_classes: int) -> ModelSpec:
    return ModelSpec("cnn", (channels, 8, 16, n_classes), (height, width, channels),
                     n_classes)


def _conv_out(side: int) -> int:
    return (side - 2) // 2  # 3x3 valid conv then 2x2 pool


def layers_for_spec(spec: ModelSpec):
    """Layer stack plus the index of the classifier-head dense layer."""
    if spec.kind == "mlp":
        layers = []
        for a, b in zip(spec.dims[:-1], spec.dims[1:]):
            layers.append(ad.Dense(a, b))
            layers.append(ad.Relu())
        layers.pop()  # logits stay pre-activation
        return layers, len(layers) - 1
    h, w, c = spec.input_shape
    _, c1, c2, t = spec.dims
    h2, w2 = _conv_out(h), _conv_out(w)
    h3, w3 = _conv_out(h2), _conv_out(w2)
    if h3 <= 0 or w3 <= 0:
        raise ValueError(f"input {h}x{w} too small for the cnn stack")
    flat = h3 * w3 * c2
    layers = [
        ad.Conv2D(3, 3, c, c1), ad.Relu(), ad.MaxPool2(),
        ad.Conv2D(3, 3, c1, c2), ad.Relu(), ad.MaxPool2(),
        ad.Flatten(), ad.Dense(flat, t),
    ]
    return layers, len(layers) - 1


def param_shapes(spec: ModelSpec):
    """Expected parameter keys and shapes per layer."""
    layers, _ = layers_for_spec(spec)
    shapes = []
    for layer in layers:
        if isinstance(layer, ad.Dense):
            shapes.append({"W": (layer.in_dim, layer.out_dim), "b": (layer.out_dim,)})
        elif isinstance(layer, ad.Conv2D):
            shapes.append({"K": (layer.kh, layer.kw, layer.in_ch, layer.out_ch),
                           "b": (layer.out_ch,)})
        else:
            shapes.append({})
    return shapes


def init_params(spec: ModelSpec, gen: np.random.Generator):
    """Fan-in scaled Gaussian weights, zero biases."""
    params = []
    for shapes in param_shapes(spec):
        p = {}
        for key, shape in shapes.items():
            if key == "b":
                p[key] = np.zeros(shape)
            else:
                fan_in = int(np.prod(shape[:-1]))
                p[key] = gen.normal(size=shape) / np.sqrt(fan_in)
        params.append(p)
    return params


def copy_params(params):
    return [{k: v.copy() for k, v in p.items()} for p in params]


def chunked_forward(layers, params, x: np.ndarray) -> np.ndarray:
    """The stack's output on a batch ``x``, run ``FORWARD_CHUNK`` rows at a
    time."""
    outs = [ad.forward(layers, params, x[i:i + FORWARD_CHUNK]).data
            for i in range(0, x.shape[0], FORWARD_CHUNK)]
    return np.concatenate(outs, axis=0)


@dataclass
class ModelArtifact:
    """A spec plus concrete parameters and where they came from.

    Treated as immutable: anything that changes parameters builds a new
    artifact. ``trainable_from`` marks the first trainable layer index;
    0 for ordinary models, the head index for frozen-feature clones.
    """

    spec: ModelSpec
    layers: list
    params: list
    feature_boundary: int
    provenance: dict
    trainable_from: int = 0

    def __post_init__(self):
        if not (0 < self.feature_boundary < len(self.layers)):
            raise ValueError(f"feature boundary {self.feature_boundary} outside "
                             f"layer list of length {len(self.layers)}")
        if not self.provenance:
            raise ValueError("provenance must be set")

    def with_params(self, params, provenance: dict) -> "ModelArtifact":
        return ModelArtifact(self.spec, self.layers, params, self.feature_boundary,
                             provenance, self.trainable_from)

    def logits(self, x: np.ndarray, rows: bool = False) -> np.ndarray:
        """Logits of one sample or a batch; ``rows=True`` runs the batch in
        autodiff's rows mode, each row bit-equal to that row alone. One
        sample runs as a one-row batch in rows mode."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == len(self.spec.input_shape):
            return ad.forward(self.layers, self.params, x[None], rows=True).data[0]
        if rows:
            return ad.forward(self.layers, self.params, x, rows=True).data
        return chunked_forward(self.layers, self.params, x)

    def predict_proba(self, x: np.ndarray, rows: bool = False) -> np.ndarray:
        return ad.softmax(self.logits(x, rows=rows))

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=-1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        if len(y) == 0:
            raise ValueError("accuracy of an empty set is undefined")
        return float(np.mean(self.predict(x) == np.asarray(y)))


def build(spec: ModelSpec, seed: int) -> ModelArtifact:
    layers, boundary = layers_for_spec(spec)
    gen = rngmod.stream(seed, rngmod.STREAM_INIT)
    params = init_params(spec, gen)
    return ModelArtifact(spec, layers, params, boundary,
                         provenance={"role": "original", "seed": seed})


def aux_init(spec: ModelSpec, seed: int, class_id: int, index: int) -> list:
    """Fresh parameters for one auxiliary clone, from its own
    ``(STREAM_AUX, class_id, index)`` stream, so sibling clones start from
    distinct heads; only the head layers are used."""
    return init_params(spec, rngmod.stream(seed, rngmod.STREAM_AUX, class_id, index))


def clone_frozen_head_template(target: ModelArtifact, seed: int, class_id: int,
                               index: int) -> ModelArtifact:
    """Copy the feature extractor, re-initialize the head, freeze the rest.

    The head init is ``aux_init(target.spec, seed, class_id, index)``.
    """
    fresh = aux_init(target.spec, seed, class_id, index)
    prov = {"role": "auxiliary", "seed": seed, "class_id": class_id, "index": index}
    params = copy_params(target.params)
    for i in range(target.feature_boundary, len(params)):
        params[i] = fresh[i]
    return ModelArtifact(target.spec, target.layers, params, target.feature_boundary,
                         prov, trainable_from=target.feature_boundary)


def head_vector(model: ModelArtifact) -> np.ndarray:
    """Flatten the classifier head: row-major weights, then biases."""
    head = model.params[model.feature_boundary]
    return np.concatenate([head["W"].ravel(order="C"), head["b"].ravel(order="C")])


# ---------------------------------------------------------------------------
# checkpoint container


def save_checkpoint(model: ModelArtifact, path: str) -> str:
    manifest = []
    blobs = []
    for i, p in enumerate(model.params):
        for key in sorted(p):
            arr = np.ascontiguousarray(p[key], dtype=np.float64)
            manifest.append({"layer": i, "key": key, "shape": list(arr.shape),
                             "nbytes": arr.nbytes})
            blobs.append(arr.astype("<f8").tobytes())
    desc = {
        "spec": {"kind": model.spec.kind, "dims": list(model.spec.dims),
                 "input_shape": list(model.spec.input_shape),
                 "n_classes": model.spec.n_classes},
        "feature_boundary": model.feature_boundary,
        "trainable_from": model.trainable_from,
        "provenance": model.provenance,
        "arrays": manifest,
    }
    desc_bytes = json.dumps(desc, sort_keys=True).encode("utf-8")
    body = b"".join([MAGIC, struct.pack("<H", VERSION),
                     struct.pack("<I", len(desc_bytes)), desc_bytes, *blobs])
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(hashlib.sha256(body).digest())
    return path


def load_checkpoint(path: str) -> ModelArtifact:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _parse_checkpoint(path, raw)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # JSON errors included
        raise CheckpointDescriptorError(
            f"{path}: bad descriptor: {type(exc).__name__}: {exc}") from exc


def _parse_checkpoint(path: str, raw: bytes) -> ModelArtifact:
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 10:
        raise CheckpointTruncatedError(f"{path}: header truncated at {len(raw)} bytes")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version not in (1, VERSION):
        raise CheckpointVersionError(
            f"{path}: version {version}, expected 1 or {VERSION}")
    body_end = len(raw) - (DIGEST_BYTES if version == VERSION else 0)
    (desc_len,) = struct.unpack_from("<I", raw, 6)
    if body_end < 10 + desc_len:
        raise CheckpointTruncatedError(f"{path}: descriptor truncated")
    desc = json.loads(raw[10:10 + desc_len].decode("utf-8"))
    spec = ModelSpec(desc["spec"]["kind"], tuple(desc["spec"]["dims"]),
                     tuple(desc["spec"]["input_shape"]), desc["spec"]["n_classes"])
    layers, boundary = layers_for_spec(spec)
    if boundary != desc["feature_boundary"]:
        raise CheckpointArrayError(
            f"{path}: feature boundary {desc['feature_boundary']} does not match "
            f"the {spec.kind} layer stack")
    params = [dict() for _ in layers]
    offset = 10 + desc_len
    for entry in desc["arrays"]:
        shape = tuple(entry["shape"])
        want = int(np.prod(shape)) * 8 if shape else 8
        if want != entry["nbytes"]:
            raise CheckpointArrayError(
                f"{path}: array layer={entry['layer']} key={entry['key']} declares "
                f"{entry['nbytes']} bytes but shape {shape} needs {want}")
        if offset + want > body_end:
            raise CheckpointTruncatedError(
                f"{path}: payload truncated inside layer={entry['layer']} "
                f"key={entry['key']}")
        arr = np.frombuffer(raw, dtype="<f8", count=int(np.prod(shape)),
                            offset=offset).reshape(shape).astype(np.float64)
        if not (0 <= entry["layer"] < len(params)):
            raise CheckpointArrayError(f"{path}: array targets layer {entry['layer']} "
                                       f"outside the stack")
        params[entry["layer"]][entry["key"]] = arr
        offset += want
    if offset != body_end:
        raise CheckpointArrayError(f"{path}: {body_end - offset} trailing bytes after "
                                   f"declared arrays")
    for i, (got, want_p) in enumerate(zip(params, param_shapes(spec))):
        if set(got) != set(want_p):
            raise CheckpointArrayError(
                f"{path}: layer {i} holds keys {sorted(got)}, stack expects "
                f"{sorted(want_p)}")
        for key in got:
            if got[key].shape != want_p[key]:
                raise CheckpointArrayError(
                    f"{path}: layer {i} key {key} shape {got[key].shape} != "
                    f"{want_p[key]}")
    if version == VERSION and hashlib.sha256(raw[:body_end]).digest() != raw[body_end:]:
        raise CheckpointDigestError(f"{path}: SHA-256 digest does not match the contents")
    return ModelArtifact(spec, layers, params, boundary, desc["provenance"],
                         desc.get("trainable_from", 0))
