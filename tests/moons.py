"""Two-moons data and a parameter EMA for the flow-matching sampling test
(acceptance criterion 08)."""

from typing import Sequence

import numpy as np

from streamsynth.cfm import UPSAMPLE
from streamsynth.tensor import Tensor

# benchmark geometry for the flow-matching sampler: centered, slightly
# enlarged moons with tight arc blobs
MOON_BINS = 32
MOON_NOISE = 0.03
MOON_SCALE = 1.4
_MOON_CENTER = np.array([0.5, 0.25])


def _moon_arcs(labels, theta):
    """Point at angle ``theta`` on the upper (label 0) or lower (label 1) moon."""
    x = np.where(labels == 0, np.cos(theta), 1.0 - np.cos(theta))
    y = np.where(labels == 0, np.sin(theta), 0.5 - np.sin(theta))
    return np.stack([x, y], axis=1)


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


class Ema:
    """Exponential moving average of parameters for evaluation."""

    decay = 0.999

    def __init__(self, params: Sequence[Tensor]):
        self.params = list(params)
        self.shadow = [p.data.copy() for p in self.params]
        self.updates = 0

    def update(self) -> None:
        self.updates += 1
        d = min(self.decay, (1.0 + self.updates) / (10.0 + self.updates))
        for s, p in zip(self.shadow, self.params):
            s *= d
            s += (1.0 - d) * p.data

    def copy_to(self) -> None:
        for s, p in zip(self.shadow, self.params):
            p.data = s.copy()
