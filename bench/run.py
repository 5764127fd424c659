#!/usr/bin/env python3
"""streamsynth benchmark: one workload per run, closed loop, one client.

    python3 bench/run.py --workload stream_tts --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the repository root. Workloads are defined in ``workloads.py``:
``stream_tts``, ``offline_tts`` and ``train``. One process with one thread
runs operations back to back with no think time; BLAS and OpenMP are pinned
to one thread before numpy is imported.

A run lasts ``--seconds`` and then finishes the cycle of inputs in progress
(texts of 12, 22, 32 and 22 symbols for ``stream_tts``), so every run sees
the same mix.
Every operation's output is checked outside its timed interval; a failed
check or an exception counts the operation as failed and the run goes on.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics. Per operation (a request for
the two TTS workloads, a round of four optimizer steps for ``train``):

- ``first_ms_*``: operation start to its first output. For ``stream_tts``
  that is text in to first frames out (first-package latency); for
  ``offline_tts`` the single package; for ``train`` the first step (LM SFT).
- ``op_s_*``: operation start to its last output.
- ``out_per_s``: frames per second of request time, or optimizer steps per
  second of round time.
- ``setup_s``: median of several complete set-ups, warm-up included.
- ``peak_rss_mb``: the process's peak resident set.

Times are reported at the host's nominal speed: between operations, outside
their timed intervals, the benchmark times three fixed reference kernels
(``hostspeed.py``), and divides each operation's wall time by the host
factor measured around it. The shared host's speed drifts by tens of
percent over minutes; this keeps runs made minutes apart comparable. Wall
times and the host factor are printed as ``detail.wall_*`` and
``detail.host_factor_p50``.

A ``_tail`` is the highest whole percentile with at least 10 samples beyond
it, and at least p50; the percentile and sample count are printed beside
it. Workload-specific
figures (``ttfp_ms_p50``, ``package_gap_ms_*``, ``lm_step_s_p50``, ...) are
printed as ``detail.*`` lines.

``--trace 1`` first runs an untraced pass for half the time, then the same
operations again with every public function of ``tensor``, ``nn``,
``seqlm``, ``cfm``, ``rl``, ``latency`` and ``persist`` wrapped in spans
(see ``tracing.py``), and reports per-layer metrics per operation. Both
passes must produce the same output digest. Spans are written to
``bench/out/trace-<workload>.npz``.
"""

from __future__ import annotations

import os

PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5

if not (SRC / "streamsynth").is_dir():
    sys.exit(f"error: no streamsynth sources under {SRC}")
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values) -> tuple[float, int]:
    """(value, percentile) at the highest whole percentile with >= 10 samples
    beyond it, and never below p50: under 20 samples the tail is the median."""
    n = len(values)
    p = max(50, math.floor(100.0 * (n - 10) / n))
    return percentile(values, p), p


class Tally:
    """Counts attempted and failed operations; failures never abort the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, op, tracer=None):
        self.attempted += 1
        try:
            result = op()
            if tracer is not None:
                tracer.paused = True
            result.check()
            return result
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            if tracer is not None:
                tracer.paused = True

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"error: {message}", file=sys.stderr)


def run_pass(wl, tally: Tally, seconds: float, min_ops: int, cycle: int,
             max_ops=None, tracer=None, host: HostSpeed | None = None):
    """Operations 0, 1, ... until ``seconds`` have passed, at least ``min_ops``
    ran and the last cycle of inputs is complete; or exactly ``max_ops``.

    Before each operation, untimed, the previous one's garbage is collected
    and, with ``host``, the host speed is sampled; each result then gets the
    host factor around it."""
    results, digests, starts = [], [], []
    start = perf_counter()
    i = 0
    while (i < max_ops) if max_ops is not None else \
            (i < min_ops or i % cycle or perf_counter() - start < seconds):
        gc.collect()
        if host is not None:
            host.maybe_sample()
        if tracer is not None:
            tracer.request = i
            tracer.paused = False
        t = perf_counter()
        r = tally.attempt(lambda: wl.run(i), tracer)
        if r is not None:
            results.append(r)
            digests.append(r.digest_bytes)
            starts.append(t)
            if tracer is not None and r.frames is not None:
                tracer.count("seqlm.tokens", r.parts["tokens"])
                tracer.count("cfm.frames_emitted", r.outputs)
        i += 1
    if host is not None:
        host.sample()
        for t, r in zip(starts, results):
            r.host_factor = host.around(t, t + r.seconds)
    return results, digests


def set_up(name: str, seed: int, repeats: int, host: HostSpeed | None = None):
    """Complete set-ups (models, checkpoint round trip, corpus, ASR backend,
    one warm-up operation); returns the last workload, each set-up's phases
    and, with ``host``, the host factor around each set-up."""
    def once():
        assets, timings = W.setup(seed, OUT / "setup")
        wl = W.WORKLOADS[name](assets, seed)
        t = perf_counter()
        wl.run(0).check()
        timings["warmup_s"] = perf_counter() - t
        return wl, timings

    phases, factors = [], []
    wl = None
    for _ in range(repeats):
        wl = None  # the previous set-up is freed before the next one is built
        gc.collect()
        if host is not None:
            host.sample()
        t = perf_counter()
        wl, timings = once()
        phases.append(timings)
        if host is not None:
            host.sample()
            factors.append(host.around(t, perf_counter()))
    gc.collect()
    return wl, phases, factors


def check_digest(name: str, seed: int, digests, tally: Tally) -> str:
    k = W.DIGEST_OPS[name]
    got = W.digest(digests[:k]) if len(digests) >= k else "incomplete"
    want = W.RECORDED_DIGESTS[name]
    if seed == W.DEFAULT_SEED and got != want:
        tally.fail(f"digest of the first {k} operations is {got}, recorded {want}")
    return got


def provenance(config_hash: str, name: str, seed: int, seconds: float,
               trace: bool) -> list[str]:
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "streamsynth").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # numpy builds differ in what they report
        openblas = "unknown"
    return [
        f"provenance.commit={commit}",
        f"provenance.source_sha256={src.hexdigest()}",
        f"provenance.python={platform.python_version()}",
        f"provenance.numpy={np.__version__}",
        f"provenance.blas={openblas}",
        f"provenance.nproc={os.cpu_count()}",
        f"provenance.pinned_threads={PINNED_THREADS}",
        f"provenance.workload={name}",
        f"provenance.seed={seed}",
        f"provenance.seconds={seconds}",
        f"provenance.trace={int(trace)}",
        f"provenance.config_hash={config_hash}",
    ]


def line(prefix, name, value, unit, note="") -> str:
    return f"{prefix}.{name}={value!r} {unit}{(' ' + note) if note else ''}"


def end_to_end(name, results, phases, setup_factors, host, lines, metrics):
    """Fill ``metrics`` with the end-to-end set and print workload details.

    Every time is divided by the host factor around it (``hostspeed.py``):
    it is the time at the host's nominal speed. Wall times are printed as
    ``detail.wall_*`` lines beside them."""
    def at_nominal(r, seconds):
        return seconds / r.host_factor

    first_ms = [at_nominal(r, r.first_seconds) * 1000.0 for r in results]
    op_s = [at_nominal(r, r.seconds) for r in results]
    n = len(results)

    def put(key, value, unit, note=""):
        metrics[key] = {"value": value, "unit": unit}
        lines.append(line("metric", key, value, unit, note))

    def detail(key, value, unit, note=""):
        lines.append(line("detail", key, value, unit, note))

    setups = [sum(p.values()) for p in phases]
    put("setup_s", statistics.median(s / f for s, f in zip(setups, setup_factors)), "s",
        f"median of {len(phases)}")
    put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    put("first_ms_p50", percentile(first_ms, 50), "ms", f"n={n}")
    value, p = tail(first_ms)
    put("first_ms_tail", value, "ms", f"p{p} n={n}")
    put("op_s_p50", percentile(op_s, 50), "s", f"n={n}")
    value, p = tail(op_s)
    put("op_s_tail", value, "s", f"p{p} n={n}")
    put("out_per_s", sum(r.outputs for r in results) / sum(op_s), "1/s")

    factors = [r.host_factor for r in results]
    detail("host_factor_p50", statistics.median(factors), "ratio",
           f"min={min(factors):.4f} max={max(factors):.4f} samples={len(host.factors)}")
    detail("wall_setup_s", statistics.median(setups), "s")
    detail("wall_first_ms_p50", percentile([r.first_seconds * 1000.0 for r in results], 50),
           "ms")
    detail("wall_op_s_p50", percentile([r.seconds for r in results], 50), "s")
    detail("wall_out_per_s", sum(r.outputs for r in results) / sum(r.seconds for r in results),
           "1/s")

    if name == "train":
        for kind in ("lm", "cfm", "dpo", "asr"):
            detail(f"{kind}_step_s_p50",
                   percentile([at_nominal(r, r.parts[f"{kind}_step_s"]) for r in results], 50),
                   "s", f"n={n}")
        return
    detail("request_s_p50", percentile(op_s, 50), "s", f"n={n}")
    value, p = tail(op_s)
    detail("request_s_tail", value, "s", f"p{p} n={n}")
    detail("frames_per_s", metrics["out_per_s"]["value"], "1/s")
    if name == "stream_tts":
        detail("ttfp_ms_p50", percentile(first_ms, 50), "ms", f"n={n}")
        value, p = tail(first_ms)
        detail("ttfp_ms_tail", value, "ms", f"p{p} n={n}")
        gaps = [at_nominal(r, g) * 1000.0 for r in results for g in r.gaps]
        if gaps:
            detail("package_gap_ms_p50", percentile(gaps, 50), "ms", f"n={len(gaps)}")
            value, p = tail(gaps)
            detail("package_gap_ms_tail", value, "ms", f"p{p} n={len(gaps)}")
        detail("packages_per_request_p50",
               percentile([r.parts["packages"] for r in results], 50), "count")


def latency_explained(wl, results, lines):
    """Measured first-package latency beside the analytic L_TTS.

    d_lm and d_fm are measured seconds per token: LM time over tokens
    emitted, CFM busy time over tokens integrated (re-integration counted).
    """
    from streamsynth import cfm, latency

    m = wl.a.icfg.m
    tokens = sum(r.parts["tokens"] for r in results)
    integrated = sum(r.parts["frames_integrated"] for r in results) / cfm.UPSAMPLE
    d_lm = sum(r.parts["lm_s"] for r in results) / tokens
    d_fm = sum(r.parts["cfm_busy_s"] for r in results) / integrated
    timing = latency.StageTiming(d_lm=d_lm, d_fm=d_fm)
    l_tts_ms = latency.l_tts(m, timing) * 1000.0
    ttfp_ms = percentile([r.first_seconds * 1000.0 for r in results], 50)
    waited = statistics.median(r.parts["tokens_first"] for r in results)
    seed = wl.noise_seed(0)

    def real_cfm(package):
        return wl.offline_frames(package, wl.spec, seed)

    compute = []
    for _ in range(3):
        report = latency.simulate(wl.token_packages(0), timing, m,
                                  feature_stage=real_cfm, wall_clock=True)
        compute.append(report.breakdown["compute"] * 1000.0)
    lines += [
        f"latency.ttfp_ms_p50={ttfp_ms!r}",
        f"latency.l_tts_ms={l_tts_ms!r} (M={m}, d_lm={d_lm * 1e3:.4f} ms/token, "
        f"d_fm={d_fm * 1e3:.4f} ms/token, d_voc=0)",
        f"latency.gap_ms={ttfp_ms - l_tts_ms!r} (the first package waited for "
        f"{waited:g} tokens, L_TTS charges M={m}; CFM re-integration and the LM's "
        f"prefix reruns make later tokens dearer than d_lm and d_fm average)",
    ]
    return l_tts_ms, ttfp_ms - l_tts_ms, statistics.median(compute)


def per_layer(name, wl, untraced, traced, tracer, phases, overhead, lines, metrics):
    n = max(len(traced), 1)
    spans = tracer.summary(min_request=0)
    cnt = tracer.counters

    def calls(span):
        return spans.get(span, (0, 0.0, 0.0))[0]

    def ms(span):
        return spans.get(span, (0, 0.0, 0.0))[1] * 1000.0

    def ratio(a, b):
        return a / b if b else 0.0

    def put(key, value, unit):
        metrics[key] = {"value": float(value), "unit": unit}
        lines.append(line("metric", key, float(value), unit))

    tokens = cnt.get("seqlm.tokens", 0.0)
    rows = cnt.get("seqlm.rows_computed", 0.0)
    ll_calls = calls("seqlm.logits_last")
    put("seqlm.logits_last.calls", ll_calls / n, "count")
    put("seqlm.logits_last.ms", ms("seqlm.logits_last") / n, "ms")
    put("seqlm.rows_computed", rows / n, "count")
    put("seqlm.useful_row_ratio", ratio(ll_calls, rows), "ratio")
    put("seqlm.ms_per_token", ratio(ms("seqlm.logits_last"), tokens), "ms")
    put("seqlm.probe_calls", max(ll_calls - tokens, 0.0) / n, "count")

    integrated = cnt.get("cfm.frames_integrated", 0.0)
    emitted = cnt.get("cfm.frames_emitted", 0.0)
    put("cfm.integrations", cnt.get("cfm.integrations", 0.0) / n, "count")
    put("cfm.frames_integrated", integrated / n, "count")
    put("cfm.frames_emitted", emitted / n, "count")
    put("cfm.useful_frame_ratio", ratio(emitted, integrated), "ratio")
    tts = name != "train"
    busy = sum(r.parts["cfm_busy_s"] for r in untraced) if tts else 0.0
    offline = sum(r.parts["offline_cfm_s"] for r in untraced) if tts else 0.0
    put("cfm.stream_offline_cost_ratio", ratio(busy, offline), "ratio")
    put("cfm.field.calls", (calls("cfm.field") + calls("cfm.field_uncond")) / n, "count")
    put("cfm.field.ms", (ms("cfm.field") + ms("cfm.field_uncond")) / n, "ms")
    put("cfm.field_uncond.ms", ms("cfm.field_uncond") / n, "ms")
    put("cfm.token_conditions.ms", ms("cfm.token_conditions") / n, "ms")
    u = max(len(untraced), 1)
    put("cfm.wait_tokens_ms",
        sum(r.parts["lm_s"] for r in untraced) * 1000.0 / u if tts else 0.0, "ms")
    put("cfm.busy_ms", busy * 1000.0 / u, "ms")

    put("tensor.masked_attention.calls", calls("tensor.masked_attention") / n, "count")
    put("tensor.masked_attention.fwd_ms", ms("tensor.masked_attention") / n, "ms")
    put("tensor.masked_attention.bwd_ms", ms("tensor.masked_attention.bwd") / n, "ms")
    put("tensor.masked_attention.pairs",
        cnt.get("tensor.masked_attention.pairs", 0.0) / n, "count")
    put("tensor.matmul.calls", calls("tensor.matmul") / n, "count")
    put("tensor.matmul.fwd_ms", ms("tensor.matmul") / n, "ms")
    put("tensor.matmul.bwd_ms", ms("tensor.matmul.bwd") / n, "ms")
    put("tensor.matmul.flops", cnt.get("tensor.matmul.flops", 0.0) / n, "flop")
    put("tensor.matmul.bytes", cnt.get("tensor.matmul.bytes", 0.0) / n, "B")
    for prim in ("layer_norm", "embedding_lookup"):
        put(f"tensor.{prim}.fwd_ms", ms(f"tensor.{prim}") / n, "ms")
        put(f"tensor.{prim}.bwd_ms", ms(f"tensor.{prim}.bwd") / n, "ms")
    put("tensor.tape.backward_ms", ms("tensor.tape.backward") / n, "ms")
    put("tensor.tape.nodes", cnt.get("tensor.tape.nodes", 0.0) / n, "count")
    put("nn.adam.step_ms", ms("nn.adam.step") / n, "ms")

    put("rl.sample_speech_guided.ms", ms("rl.sample_speech_guided") / n, "ms")
    put("rl.asr_reward_step.ms", ms("rl.asr_reward_step") / n, "ms")
    put("rl.sequence_logprob.calls", calls("rl.sequence_logprob") / n, "count")
    put("rl.sequence_logprob.ms", ms("rl.sequence_logprob") / n, "ms")

    l_tts_ms = gap_ms = compute_ms = 0.0
    if name == "stream_tts" and untraced:
        l_tts_ms, gap_ms, compute_ms = latency_explained(wl, untraced, lines)
    put("latency.l_tts_model_ms", l_tts_ms, "ms")
    put("latency.ttfp_gap_ms", gap_ms, "ms")
    put("latency.simulate_compute_ms", compute_ms, "ms")

    for phase in ("models_s", "checkpoint_s", "corpus_s", "asr_backend_s", "warmup_s"):
        put(f"setup.{phase}", statistics.median(p[phase] for p in phases), "s")
    put("trace.overhead_ratio", overhead, "ratio")

    top = sorted(spans.items(), key=lambda kv: -kv[1][2])[:15]
    lines.append("self-time per operation (span: calls, total ms, self ms):")
    for span, (c, total, own) in top:
        lines.append(f"  {span}: {c / n:.1f} {total * 1e3 / n:.3f} {own * 1e3 / n:.3f}")


def run(name: str, seed: int, seconds: float, trace: bool, repeats=SETUP_REPEATS,
        whole_cycles=True):
    """One benchmark run; returns (result JSON object, printed lines)."""
    tally = Tally()
    lines: list[str] = []
    metrics: dict = {}
    host = HostSpeed()
    wl, phases, setup_factors = set_up(name, seed, repeats, host)
    lines += provenance(wl.a.cfg.config_hash(), name, seed, seconds, trace)
    min_ops = W.DIGEST_OPS[name]
    cycle = wl.cycle if whole_cycles else 1
    if not trace:
        results, digests = run_pass(wl, tally, seconds, min_ops, cycle, host=host)
        lines.append(f"digest={check_digest(name, seed, digests, tally)}")
        if results:
            end_to_end(name, results, phases, setup_factors, host, lines, metrics)
    else:
        untraced, digests = run_pass(wl, tally, seconds / 2.0, min_ops, cycle, host=host)
        lines.append(f"digest={check_digest(name, seed, digests, tally)}")
        n_ops = tally.attempted
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
        try:
            # a fresh model state, so training repeats the same steps
            tracer.paused = True
            wl, _, _ = set_up(name, seed, 1)
            traced, traced_digests = run_pass(wl, tally, 0.0, 0, 1, max_ops=n_ops,
                                              tracer=tracer, host=host)
        finally:
            installed.uninstall()
        if W.digest(traced_digests) != W.digest(digests):
            tally.fail("traced pass output digest differs from the untraced pass")
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.save(OUT / f"trace-{name}.npz")
        lines.append(f"trace.spans={len(tracer.start)} written to "
                     f"{(OUT / f'trace-{name}.npz').relative_to(ROOT)}")
        if untraced and traced:
            # operation time in both passes, at the host's nominal speed
            overhead = sum(r.seconds / r.host_factor for r in traced) \
                / sum(r.seconds / r.host_factor for r in untraced)
            per_layer(name, wl, untraced, traced, tracer, phases, overhead, lines, metrics)
    lines.append(f"detail.failed_ratio={tally.failed / max(tally.attempted, 1)!r} "
                 f"ratio failed={tally.failed} attempted={tally.attempted}")
    result = {"correct": tally.failed == 0 and bool(metrics),
              "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    return result, lines


def smoke() -> int:
    """Every workload once, traced and untraced; every printed metric name
    must be in BENCHMARK.json, and a corrupted frame must count as failed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in W.WORKLOADS:
        for trace in (0, 1):
            t = perf_counter()
            result, lines = run(name, W.DEFAULT_SEED, 0.0, bool(trace), repeats=1,
                                whole_cycles=False)
            printed = {ln.split("=", 1)[0][len("metric."):]
                       for ln in lines if ln.startswith("metric.")}
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: not correct")
            if set(result["metrics"]) != want[trace]:
                problems.append(f"{name} trace={trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(result['metrics']) ^ want[trace])}")
            if not printed <= want[trace]:
                problems.append(f"{name} trace={trace}: printed names not in "
                                f"BENCHMARK.json: {sorted(printed - want[trace])}")
            print(f"smoke {name} trace={trace}: {perf_counter() - t:.1f}s "
                  f"{len(result['metrics'])} metrics")

    wl, _, _ = set_up("stream_tts", W.DEFAULT_SEED, 1)
    tally = Tally()

    def corrupted():
        r = wl.run(0)
        r.frames[0, 0] = math.nextafter(r.frames[0, 0], math.inf)
        return r

    print("smoke: a CheckFailed for one corrupted frame is expected next", flush=True)
    tally.attempt(corrupted)
    if tally.failed != 1:
        problems.append("a corrupted frame was not counted as failed")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long self-check of the benchmark")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.smoke:
        return smoke()
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
