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
        p.data = arr.astype(np.float64).copy()


def _load(path, module: str, build):
    """The model ``build(metadata)`` makes, with the parameters saved in ``path``."""
    found, params, meta = load_checkpoint(path)
    if found != module:
        raise CheckpointError(f"{path}: checkpoint holds {found}, not {module}")
    try:
        model = build(meta)
        _restore(model, params)
    except KeyError as exc:
        raise CheckpointError(f"{path}: checkpoint lacks {exc}") from None
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return model


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
    return _load(path, "seqlm.ToyLM", lambda meta: ToyLM(
        Vocabulary(int(meta["speech_size"]), int(meta["text_size"])),
        dim=int(meta["dim"]), n_blocks=int(meta["n_blocks"]), max_len=int(meta["max_len"])))


def save_cfm(path, model: CfmModel) -> None:
    meta = {f.name: repr(getattr(model.config, f.name)) for f in fields(CfmConfig)}
    save_checkpoint(path, "cfm.CfmModel", _named(model), meta)


def load_cfm(path) -> CfmModel:
    return _load(path, "cfm.CfmModel", lambda meta: CfmModel(CfmConfig(**{
        f.name: type(f.default)(meta[f.name]) for f in fields(CfmConfig)})))


def save_codec(path, codec: FsqCodec) -> None:
    meta = {"d": str(codec.config.d), "k": str(codec.config.k),
            "hidden": str(codec.hidden)}
    save_checkpoint(path, "fsq.FsqCodec", _named(codec), meta)


def load_codec(path) -> FsqCodec:
    return _load(path, "fsq.FsqCodec", lambda meta: FsqCodec(
        FsqConfig(int(meta["d"]), int(meta["k"])), hidden=int(meta["hidden"])))
