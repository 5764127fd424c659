"""Synthetic corpora, toy feature targets and the text file formats.

The paired corpus follows a fixed rule: every text symbol maps to a motif of
three speech tokens, so speech is a deterministic function of text and both
alignment and consistency are learnable at desk scale.
"""

from __future__ import annotations

import numpy as np

from .cfm import UPSAMPLE, FeatureSeq
from .fileio import read_text, write_lines
from .rl import PreferencePair
from .seqlm import Vocabulary

__all__ = [
    "MOTIF_LEN",
    "motif_map",
    "motifs_of",
    "gen_pairs",
    "CorpusFileError",
    "PreferenceFileError",
    "SpeakerFileError",
    "write_corpus",
    "read_corpus",
    "write_speaker_file",
    "read_speaker_file",
    "features_for_tokens",
    "write_preference_file",
    "read_preference_file",
]

MOTIF_LEN = 3


class CorpusFileError(ValueError):
    """A corpus file cannot be read, is not UTF-8 text or holds a malformed line."""


class PreferenceFileError(ValueError):
    """A preference file cannot be read, is not UTF-8 text or holds a malformed line."""


class SpeakerFileError(ValueError):
    """A speaker file cannot be read, is not UTF-8 text or is not a vector of
    the expected finite reals."""


def _lines(path, error: type[ValueError]) -> list[tuple[int, str]]:
    """(line number, stripped text) of every non-blank line of a UTF-8 file."""
    return [(n, line.strip()) for n, line in enumerate(read_text(path, error).split("\n"), 1)
            if line.strip()]


def _ints(field: str, path, lineno: int, error: type[ValueError]) -> list[int]:
    try:
        return [int(t) for t in field.split()]
    except ValueError:
        raise error(f"{path}:{lineno}: non-integer token") from None


def motif_map(vocab: Vocabulary, rng: np.random.Generator) -> dict[int, tuple[int, ...]]:
    """Each text id gets a fixed motif of MOTIF_LEN speech tokens.

    Within each motif position the symbols use distinct tokens (when the
    speech alphabet allows), so no two text symbols collide anywhere.
    """
    columns = []
    for _ in range(MOTIF_LEN):
        if vocab.speech_size >= vocab.text_size:
            col = rng.permutation(vocab.speech_size)[: vocab.text_size]
        else:
            col = rng.integers(0, vocab.speech_size, vocab.text_size)
        columns.append(col)
    return {
        vocab.text_id(i): tuple(int(columns[j][i]) for j in range(MOTIF_LEN))
        for i in range(vocab.text_size)
    }


def speech_for_text(text: list[int], motifs: dict[int, tuple[int, ...]]) -> list[int]:
    out: list[int] = []
    for t in text:
        out.extend(motifs[t])
    return out


def motifs_of(pairs) -> dict[int, tuple[int, ...]]:
    """The motif map a corpus was rendered with: the inverse of
    :func:`speech_for_text` over groups of MOTIF_LEN speech tokens, for every
    text symbol the corpus uses (its first occurrence decides)."""
    motifs: dict[int, tuple[int, ...]] = {}
    for text, speech in pairs:
        for i, t in enumerate(text):
            motifs.setdefault(t, tuple(speech[MOTIF_LEN * i : MOTIF_LEN * (i + 1)]))
    return motifs


def gen_pairs(vocab: Vocabulary, motifs: dict[int, tuple[int, ...]],
              rng: np.random.Generator, n_pairs: int,
              min_len: int = 3, max_len: int = 8) -> list[tuple[list[int], list[int]]]:
    pairs = []
    for _ in range(n_pairs):
        n = int(rng.integers(min_len, max_len + 1))
        text = [vocab.text_id(int(i)) for i in rng.integers(0, vocab.text_size, n)]
        pairs.append((text, speech_for_text(text, motifs)))
    return pairs


def write_corpus(path, pairs) -> None:
    write_lines(path, ("TEXT " + " ".join(str(t) for t in text)
                       + " | SPEECH " + " ".join(str(s) for s in speech)
                       for text, speech in pairs))


def read_corpus(path) -> list[tuple[list[int], list[int]]]:
    pairs = []
    for lineno, line in _lines(path, CorpusFileError):
        left, sep, right = line.partition(" | SPEECH")
        if not left.startswith("TEXT") or not sep:
            raise CorpusFileError(f"{path}:{lineno}: malformed corpus line")
        pairs.append((_ints(left[len("TEXT"):], path, lineno, CorpusFileError),
                      _ints(right, path, lineno, CorpusFileError)))
    if not pairs:
        raise CorpusFileError(f"{path}: no pairs")
    return pairs


def write_speaker_file(path, speaker: np.ndarray) -> None:
    write_lines(path, [" ".join(repr(float(x)) for x in speaker)])


def read_speaker_file(path, dim: int) -> np.ndarray:
    """The speaker vector: ``dim`` finite reals separated by whitespace."""
    fields = read_text(path, SpeakerFileError).split()
    try:
        speaker = np.array([float(x) for x in fields])
    except ValueError:
        raise SpeakerFileError(f"{path}: non-numeric value") from None
    if not np.isfinite(speaker).all():
        raise SpeakerFileError(f"{path}: non-finite value")
    if speaker.size != dim:
        raise SpeakerFileError(f"{path}: {speaker.size} values, expected {dim}")
    return speaker


_TABLE_SEED = 977  # seeds the fixed per-token and speaker tables of the toy targets


def features_for_tokens(tokens: list[int], speaker_v: np.ndarray, n_features: int,
                        rng: np.random.Generator | None = None) -> FeatureSeq:
    """Toy acoustic targets: per-token base vectors under a speaker-dependent
    affine map, upsampled by two with a parity offset, plus gaussian noise of
    std 0.05 drawn from ``rng`` when one is given."""
    speaker_v = np.asarray(speaker_v, dtype=np.float64)
    gain = 1.0 + 0.1 * float(np.tanh(speaker_v.sum()))
    mix = np.random.default_rng((_TABLE_SEED, 1)).normal(0.0, 0.2, (speaker_v.size, n_features))
    shift = speaker_v @ mix
    parity = np.random.default_rng((_TABLE_SEED, 2)).normal(0.0, 0.3, n_features)
    frames = np.empty((UPSAMPLE * len(tokens), n_features))
    for i, tok in enumerate(tokens):
        base = np.random.default_rng((_TABLE_SEED, 3, int(tok))).normal(0.0, 1.0, n_features)
        for p in range(UPSAMPLE):
            frames[UPSAMPLE * i + p] = gain * base + shift + p * parity
    if rng is not None:
        frames += 0.05 * rng.standard_normal(frames.shape)
    return FeatureSeq(frames)


def _moon_arcs(labels, theta):
    """Point at angle ``theta`` on the upper (label 0) or lower (label 1) moon."""
    x = np.where(labels == 0, np.cos(theta), 1.0 - np.cos(theta))
    y = np.where(labels == 0, np.sin(theta), 0.5 - np.sin(theta))
    return np.stack([x, y], axis=1)


# benchmark geometry for the flow-matching sampler: centered, slightly
# enlarged moons with tight arc blobs
MOON_BINS = 32
MOON_NOISE = 0.03
MOON_SCALE = 1.4
_MOON_CENTER = np.array([0.5, 0.25])


def _moon_points(labels, theta):
    return (_moon_arcs(labels, theta) - _MOON_CENTER) * MOON_SCALE


def two_moons_tokens(rng: np.random.Generator, n: int):
    """Two-moons points with fine-grained arc tokens.

    Token = moon * MOON_BINS + arc bin; theta is uniform so every token is
    equiprobable and the pooled marginal is the plain two-moons cloud.
    """
    labels = rng.integers(0, 2, size=n)
    arc = rng.integers(0, MOON_BINS, size=n)
    theta = (arc + rng.uniform(0.0, 1.0, size=n)) * (np.pi / MOON_BINS)
    pts = _moon_points(labels, theta) + MOON_NOISE * rng.standard_normal((n, 2))
    return pts, labels * MOON_BINS + arc


def moon_frames_for_token(token: int, rng: np.random.Generator) -> np.ndarray:
    """Independent draws from one arc-token's blob, one per upsampled frame:
    shape [UPSAMPLE, 2]."""
    label, arc = divmod(int(token), MOON_BINS)
    theta = (arc + rng.uniform(0.0, 1.0, size=UPSAMPLE)) * (np.pi / MOON_BINS)
    labels = np.full(UPSAMPLE, label)
    return _moon_points(labels, theta) + MOON_NOISE * rng.standard_normal((UPSAMPLE, 2))


def write_preference_file(path, records) -> None:
    write_lines(path, ("Y " + " ".join(str(t) for t in rec.context)
                       + " | W " + " ".join(str(t) for t in rec.preferred)
                       + " | L " + " ".join(str(t) for t in rec.rejected)
                       for rec in records))


def read_preference_file(path) -> list[PreferencePair]:
    records = []
    for lineno, line in _lines(path, PreferenceFileError):
        parts = line.split(" | ")
        if len(parts) != 3 or not parts[0].startswith("Y") \
                or not parts[1].startswith("W") or not parts[2].startswith("L"):
            raise PreferenceFileError(f"{path}:{lineno}: malformed preference line")
        fields = [_ints(part[1:], path, lineno, PreferenceFileError) for part in parts]
        try:
            records.append(PreferencePair(*fields))
        except ValueError as exc:  # an empty field
            raise PreferenceFileError(f"{path}:{lineno}: {exc}") from None
    return records
