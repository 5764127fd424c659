"""Memory and minor page faults of one optimizer step of each training objective.

Usage: python tools/step_memory.py

Builds the ``train`` benchmark workload at seed ``SEED`` with
``bench/workloads.py`` (its set-up and its ``Train`` losses: the
default-config LM and flow-matching model, the default corpus, preference
pairs and the toy ASR backend) and measures its four steps, as
``Train.run`` takes them: LM SFT (``lm``), CFM (``cfm``), DPO (``dpo``)
and the ASR reward (``asr``). Prints one ``key=value`` line per figure:

- ``<kind>.retained_mb``: memory that ``tracemalloc`` sees held when the
  forward pass returns, above the step's start;
- ``<kind>.peak_mb``: the ``tracemalloc`` peak of the whole step
  (forward, backward, Adam) above the step's start;
- ``<kind>.minflt``: the median minor page faults of this process
  (``getrusage``) over ``STEPS`` untraced steps, after one warm-up step.

Each kind keeps the one Adam that ``Train`` gives it, and the kinds run in
turn: every step of one kind, then the next.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import workloads  # noqa: E402
from streamsynth import rl  # noqa: E402
from streamsynth import tensor as T  # noqa: E402
from streamsynth.config import split_seed  # noqa: E402

SEED = 0
STEPS = 7
MB = 1024 * 1024
LOSSES = dict(zip(workloads.Train.KINDS, (
    workloads.Train._lm_loss, workloads.Train._cfm_loss,
    workloads.Train._dpo_loss, workloads.Train._asr_loss)))


def step(train: workloads.Train, kind: str, rng) -> tuple[int, int]:
    """One step of ``kind``, as ``Train.run`` takes it. While ``tracemalloc``
    traces: (retained after forward, peak of the step), in bytes above the
    step's start."""
    start = tracemalloc.get_traced_memory()[0]
    opt = train.opt[kind]
    opt.zero_grad()
    with T.Tape() as tape:
        loss = LOSSES[kind](train, rng)
    retained = tracemalloc.get_traced_memory()[0] - start
    tape.backward(loss)
    if kind == "asr":
        rl._clip_grads(opt.params, 1.0)
    opt.step()
    return retained, tracemalloc.get_traced_memory()[1] - start


def minor_faults(train: workloads.Train, kind: str, rng) -> int:
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    step(train, kind, rng)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        assets, _ = workloads.setup(SEED, Path(tmp))
    train = workloads.Train(assets, SEED)
    print(f"seed={SEED}")
    print(f"steps={STEPS}")
    for kind in workloads.Train.KINDS:
        rng = np.random.default_rng(split_seed(SEED, f"step-memory-{kind}"))
        minor_faults(train, kind, rng)
        faults = statistics.median(minor_faults(train, kind, rng) for _ in range(STEPS))
        gc.collect()
        tracemalloc.start()
        try:
            retained, peak = step(train, kind, rng)
        finally:
            tracemalloc.stop()
        print(f"{kind}.retained_mb={retained / MB:.1f}")
        print(f"{kind}.peak_mb={peak / MB:.1f}")
        print(f"{kind}.minflt={faults:.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
