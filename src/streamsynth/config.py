"""Run configuration: flat key=value sections, strict validation, seed split."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

from .cfm import MaskKind
from .fileio import read_text

__all__ = ["ConfigError", "RunConfig", "load_config", "split_seed"]


class ConfigError(ValueError):
    """Carries every violation found in a config file at once."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid config: " + "; ".join(problems))
        self.problems = problems


@dataclass
class FsqSection:
    d: int = 8
    k: int = 1
    hidden: int = 16


@dataclass
class SeqlmSection:
    n: int = 5
    m: int = 15
    text_alphabet: int = 64
    dim: int = 48
    n_blocks: int = 2
    max_len: int = 512
    pairs: int = 50
    min_text_len: int = 3
    max_text_len: int = 8
    train_steps: int = 1500
    lr: float = 3e-3
    batch_size: int = 16
    target_loss: float = 0.05


@dataclass
class CfmSection:
    n_features: int = 8
    token_embed: int = 16
    hidden: int = 24
    speaker_dim: int = 16
    lookahead: int = 3
    nfe: int = 10
    beta: float = 0.7
    mask: str = "chunk"
    chunk_frames: int = 30
    p_uncond: float = 0.2
    train_steps: int = 800
    lr: float = 2e-3


@dataclass
class RlSection:
    tau: float = 1.0
    beta_dpo: float = 0.1
    reward_weight: float = 1.0
    steps: int = 500
    lr: float = 3e-4


@dataclass
class LatencySection:
    d_lm: float = 0.010
    d_fm: float = 0.005
    d_voc: float = 0.002
    d_llm: float = 0.020


@dataclass
class RunSection:
    seed: int = 0


@dataclass
class RunConfig:
    run: RunSection = field(default_factory=RunSection)
    fsq: FsqSection = field(default_factory=FsqSection)
    seqlm: SeqlmSection = field(default_factory=SeqlmSection)
    cfm: CfmSection = field(default_factory=CfmSection)
    rl: RlSection = field(default_factory=RlSection)
    latency: LatencySection = field(default_factory=LatencySection)

    def canonical_lines(self) -> list[str]:
        lines = []
        for sec_field in fields(self):
            sec = getattr(self, sec_field.name)
            for f in fields(sec):
                lines.append(f"{sec_field.name}.{f.name}={getattr(sec, f.name)!r}")
        return lines

    def config_hash(self) -> str:
        digest = hashlib.sha256("\n".join(self.canonical_lines()).encode()).hexdigest()
        return digest[:16]


def _validate(cfg: RunConfig, problems: list[str]) -> None:
    if cfg.run.seed < 0:
        problems.append("run.seed must be >= 0")
    if cfg.fsq.d < 1 or cfg.fsq.k < 1:
        problems.append("fsq.d and fsq.k must be >= 1")
    if cfg.seqlm.n < 1 or cfg.seqlm.m < 1:
        problems.append("seqlm.n and seqlm.m must be >= 1")
    if cfg.seqlm.text_alphabet < 1:
        problems.append("seqlm.text_alphabet must be >= 1")
    if cfg.seqlm.pairs < 1:
        problems.append("seqlm.pairs must be >= 1")
    if not 1 <= cfg.seqlm.min_text_len <= cfg.seqlm.max_text_len:
        problems.append("seqlm.min_text_len and seqlm.max_text_len must satisfy "
                        "1 <= min_text_len <= max_text_len")
    if cfg.cfm.nfe < 1:
        problems.append("cfm.nfe must be >= 1")
    if cfg.cfm.beta < 0:
        problems.append("cfm.beta must be >= 0")
    masks = tuple(kind.value for kind in MaskKind)
    if cfg.cfm.mask not in masks:
        problems.append(f"cfm.mask must be one of {masks}")
    if cfg.cfm.chunk_frames < 1:
        problems.append("cfm.chunk_frames must be >= 1")
    if not 0.0 <= cfg.cfm.p_uncond < 1.0:
        problems.append("cfm.p_uncond must lie in [0, 1)")
    if cfg.rl.tau <= 0:
        problems.append("rl.tau must be positive")
    if cfg.rl.beta_dpo <= 0:
        problems.append("rl.beta_dpo must be positive")
    for f in fields(cfg.latency):
        if getattr(cfg.latency, f.name) < 0:
            problems.append(f"latency.{f.name} must be >= 0")


def load_config(path=None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse `[section]` / `key=value` lines; reject unknown keys, report all."""
    cfg = RunConfig()
    sections = {f.name for f in fields(cfg)}
    problems: list[str] = []
    entries: list[tuple[str, str, str, str]] = []  # (section, key, value, where)

    if path is not None:
        text = read_text(path, lambda message: ConfigError([message]))
        section = None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in sections:
                    problems.append(f"line {lineno}: unknown section [{section}]")
                    section = None
                continue
            key, eq, value = line.partition("=")
            if not eq:
                problems.append(f"line {lineno}: expected key=value, got {line!r}")
                continue
            if section is None:
                problems.append(f"line {lineno}: key outside any [section]")
                continue
            entries.append((section, key.strip(), value.strip(), f"line {lineno}"))

    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.partition(".")
        if section not in sections:
            problems.append(f"override {dotted!r}: unknown section")
            continue
        entries.append((section, key, value, f"override {dotted}"))

    for section, key, value, where in entries:
        sec = getattr(cfg, section)
        if key not in {f.name for f in fields(sec)}:
            problems.append(f"{where}: unknown key {section}.{key}")
            continue
        kind = type(getattr(sec, key))
        try:
            parsed = kind(value)
        except ValueError:
            problems.append(f"{where}: {section}.{key} expects {kind.__name__}, "
                            f"got {value!r}")
            continue
        if kind is float and not math.isfinite(parsed):
            problems.append(f"{where}: {section}.{key} must be finite, got {value!r}")
            continue
        setattr(sec, key, parsed)

    _validate(cfg, problems)
    if problems:
        raise ConfigError(problems)
    return cfg


def split_seed(seed: int, module: str) -> int:
    """Per-module seed stream; adding modules never perturbs existing ones."""
    digest = hashlib.sha256(f"{module}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
