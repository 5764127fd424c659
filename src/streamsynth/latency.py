"""First-package latency model and a virtual-clock pipeline simulator.

The analytical model charges every speech token of the first package once
per stage: L_tts = M*(d_lm + d_fm + d_voc). In a chat setting the text
source adds at most N*d_llm before synthesis can start. The simulator
replays a token pipeline (LM chunks -> feature stage -> vocoder stub) on a
virtual clock, never sleeping, and reports when the first package's
samples leave the vocoder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

__all__ = [
    "StageTiming",
    "LatencyReport",
    "SimulationError",
    "l_tts",
    "l_chat_bound",
    "simulate",
    "scripted_token_source",
]


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class StageTiming:
    d_lm: float = 0.0
    d_fm: float = 0.0
    d_voc: float = 0.0
    d_llm: float = 0.0

    def __post_init__(self):
        for name in ("d_lm", "d_fm", "d_voc", "d_llm"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0 seconds per token")


@dataclass
class LatencyReport:
    first_package_seconds: float
    tokens_before_first_package: int
    breakdown: dict[str, float] = field(default_factory=dict)

    def total_breakdown(self) -> float:
        return sum(self.breakdown.values())


def l_tts(m: int, timing: StageTiming) -> float:
    if m < 1:
        raise ValueError("package size m must be >= 1")
    return m * timing.d_lm + m * timing.d_fm + m * timing.d_voc


def l_chat_bound(n: int, m: int, timing: StageTiming) -> float:
    """Upper bound on chat first-package latency: N*d_llm + L_tts."""
    if n < 1:
        raise ValueError("text group size n must be >= 1")
    return n * timing.d_llm + l_tts(m, timing)


def scripted_token_source(total_tokens: int, m: int) -> Iterable[Sequence[int]]:
    """Stand-in LM stream: chunks of m dummy tokens, a short tail allowed."""
    for start in range(0, total_tokens, m):
        yield list(range(start, min(start + m, total_tokens)))


def simulate(token_chunks: Iterable[Sequence[int]], timing: StageTiming, m: int,
             n_text: int = 0, overlap: bool = False,
             feature_stage: Callable | None = None,
             wall_clock: bool = False) -> LatencyReport:
    """Measure the virtual first-package latency of a chunked pipeline.

    ``token_chunks`` feeds speech-token packages (from the streaming LM or a
    script); the first package is their first ``m`` tokens, or all of them
    if the stream ends sooner. Each token is charged d_lm at the LM, d_fm at
    the feature stage and d_voc at the vocoder. ``n_text`` > 0 additionally
    charges the chat text source d_llm per token before the LM may start. In
    the default sequential mode the stages of the first package run back to
    back, matching the additive bound; with ``overlap`` each stage starts as
    soon as its input token exists. An optional ``feature_stage`` is invoked
    on the package; with ``wall_clock`` its measured time is charged as
    ``compute``, otherwise time comes from the virtual clock alone.
    """
    text_ready = n_text * timing.d_llm
    first: list[int] = []
    for chunk in token_chunks:  # read no further than the first package needs
        first.extend(chunk)
        if len(first) >= m:
            break
    first = first[:m]
    if not first:
        raise SimulationError("pipeline produced no first package")

    k = len(first)
    start = time.perf_counter() if wall_clock else 0.0
    if feature_stage is not None:
        feature_stage(first)
    elapsed = (time.perf_counter() - start) if wall_clock else 0.0

    if overlap:
        # token i leaves the LM at text_ready + (i+1)*d_lm, then flows on
        lm_done = fm_done = voc_done = text_ready
        for _ in range(k):
            lm_done = lm_done + timing.d_lm
            fm_done = max(fm_done, lm_done) + timing.d_fm
            voc_done = max(voc_done, fm_done) + timing.d_voc
        total = voc_done + elapsed
        lm_t = k * timing.d_lm
        voc_t = voc_done - fm_done
        # fm takes what the other stages leave of the total, so it reconciles
        breakdown = {"llm": text_ready, "lm": lm_t,
                     "fm": total - text_ready - lm_t - voc_t - elapsed,
                     "voc": voc_t, "compute": elapsed}
    else:
        lm_t = k * timing.d_lm
        fm_t = k * timing.d_fm
        voc_t = k * timing.d_voc
        total = text_ready + lm_t + fm_t + voc_t + elapsed
        breakdown = {"llm": text_ready, "lm": lm_t, "fm": fm_t, "voc": voc_t,
                     "compute": elapsed}
    report = LatencyReport(total, k, breakdown)
    if abs(report.total_breakdown() - total) > 1e-9:
        raise SimulationError("latency breakdown does not reconcile")
    return report
