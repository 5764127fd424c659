"""Central-difference gradient check for the tests."""

from typing import Callable, Sequence

import numpy as np

from streamsynth.tensor import Tape, Tensor


def check_gradients(
    f: Callable[[], Tensor],
    point: Sequence[Tensor],
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare reverse-mode gradients of ``f`` against central differences
    with step 1e-4.

    ``f`` must be a deterministic closure over the tensors in ``point``.
    Returns the maximum relative error over all checked coordinates; pass
    ``max_coords`` to subsample coordinates of large parameter sets.
    """
    step = 1e-4
    for p in point:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in point]

    worst = 0.0
    for p, a in zip(point, analytic):
        flat = p.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            gen = rng if rng is not None else np.random.default_rng(0)
            coords = gen.choice(flat.size, size=max_coords, replace=False)
        aflat = a.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            up = f().item()
            flat[c] = orig - step
            down = f().item()
            flat[c] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(aflat[c] - numeric) / max(abs(aflat[c]) + abs(numeric), 1e-6)
            if err > worst:
                worst = err
    return worst
