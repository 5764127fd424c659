"""Checkpoint save/load for the concrete models."""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .cfm import CfmConfig, CfmModel
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .fsq import FsqCodec, FsqConfig
from .seqlm import ToyLM, Vocabulary


def _named(model) -> list[tuple[str, np.ndarray]]:
    return [(f"p{i:03d}", p.data) for i, p in enumerate(model.parameters())]


def _restore(model, params: dict[str, np.ndarray]) -> None:
    own = model.parameters()
    if len(own) != len(params):
        raise ValueError(f"checkpoint has {len(params)} arrays, model needs {len(own)}")
    for i, p in enumerate(own):
        arr = params[f"p{i:03d}"]
        if arr.shape != p.data.shape:
            raise ValueError(f"parameter p{i:03d} shape {arr.shape} != {p.data.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"parameter p{i:03d} holds a non-finite value")
        p.data = arr.astype(np.float64).copy()


def _load(path, module: str, values, build):
    """The model ``build(metadata)`` makes, with the parameters saved in ``path``.

    ``values(metadata)`` is the number of parameter values that model has,
    a sum of products of sizes read by ``_size``. No size is negative, so
    each bounds its product and the count bounds every size. The count must
    equal the number the header's shapes hold, which the file's size
    bounds, before ``build`` allocates anything.
    """
    found, params, meta = load_checkpoint(path)
    if found != module:
        raise CheckpointError(f"{path}: checkpoint holds {found}, not {module}")
    try:
        implied, held = values(meta), sum(arr.size for arr in params.values())
        if implied != held:
            raise ValueError(f"metadata implies {implied} parameter values, "
                             f"the header's shapes hold {held}")
        model = build(meta)
        _restore(model, params)
    except KeyError as exc:
        raise CheckpointError(f"{path}: checkpoint lacks {exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return model


def _size(meta, key: str, least: int = 1) -> int:
    """The integer ``meta[key]``, which must be at least ``least``."""
    value = int(meta[key])
    if value < least:
        raise ValueError(f"metadata {key}={value} is below {least}")
    return value


def _block_values(dim: int) -> int:
    """Parameter values of a TransformerBlock: two norms, four dim x dim
    layers and the 4 x dim MLP, biases included."""
    return 12 * dim * dim + 13 * dim


def save_lm(path, model: ToyLM) -> None:
    meta = {
        "speech_size": str(model.vocab.speech_size),
        "text_size": str(model.vocab.text_size),
        "dim": str(model.dim),
        "n_blocks": str(len(model.blocks)),
        "max_len": str(model.max_len),
    }
    save_checkpoint(path, "seqlm.ToyLM", _named(model), meta)


def load_lm(path) -> ToyLM:
    def vocab(meta) -> Vocabulary:
        return Vocabulary(int(meta["speech_size"]), int(meta["text_size"]))

    def values(meta) -> int:  # embedding, positions, blocks, final norm, head
        size, dim = vocab(meta).size, _size(meta, "dim")
        return (2 * size + _size(meta, "max_len")) * dim \
            + _size(meta, "n_blocks", 0) * _block_values(dim) + 2 * dim + size

    return _load(path, "seqlm.ToyLM", values, lambda meta: ToyLM(
        vocab(meta), dim=int(meta["dim"]), n_blocks=int(meta["n_blocks"]),
        max_len=int(meta["max_len"])))


def save_cfm(path, model: CfmModel) -> None:
    meta = {f.name: repr(getattr(model.config, f.name)) for f in fields(CfmConfig)}
    save_checkpoint(path, "cfm.CfmModel", _named(model), meta)


def load_cfm(path) -> CfmModel:
    def config(meta) -> CfmConfig:
        return CfmConfig(**{f.name: type(f.default)(meta[f.name]) for f in fields(CfmConfig)})

    def values(meta) -> int:  # embedding, conv, projection, blocks, estimator in/out
        e, h, f = (_size(meta, key) for key in ("token_embed", "hidden", "n_features"))
        est_in = 2 * f + _size(meta, "time_dim") + h + e + _size(meta, "speaker_dim")
        blocks = _size(meta, "n_align_blocks", 0) + _size(meta, "n_estimator_blocks", 0)
        return _size(meta, "token_vocab") * e + _size(meta, "lookahead", 0) + 1 \
            + (e + 1) * h + blocks * _block_values(h) + (est_in + 1) * h + 2 * h + (h + 1) * f

    return _load(path, "cfm.CfmModel", values, lambda meta: CfmModel(config(meta)))


def save_codec(path, codec: FsqCodec) -> None:
    meta = {"d": str(codec.config.d), "k": str(codec.config.k),
            "hidden": str(codec.hidden)}
    save_checkpoint(path, "fsq.FsqCodec", _named(codec), meta)


def load_codec(path) -> FsqCodec:
    def values(meta) -> int:  # the two projections
        d, hidden = _size(meta, "d"), _size(meta, "hidden")
        return 2 * d * hidden + d + hidden

    return _load(path, "fsq.FsqCodec", values, lambda meta: FsqCodec(
        FsqConfig(int(meta["d"]), int(meta["k"])), hidden=int(meta["hidden"])))
