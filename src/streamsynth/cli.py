"""Command-line entry point: gen-data, train, synthesize, finetune,
bench-latency, eval.

Every command is deterministic given (config, seed): randomness flows from
the single run seed through per-module streams, outputs carry no
timestamps, and inputs are never mutated. STREAMSYNTH_OUT overrides the
output root for relative --out paths.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import cfm as cfm_mod
from . import dataio
from . import fsq as fsq_mod
from . import latency as lat_mod
from . import persist
from . import rl as rl_mod
from . import seqlm
from .config import ConfigError, RunConfig, load_config, split_seed
from .fileio import write_lines
from .metrics import MetricsReport
from .nn import Adam


def _out_path(raw: str) -> Path:
    """The --out directory, under STREAMSYNTH_OUT if relative; raises
    ``NotADirectoryError`` when it, or its nearest existing ancestor, is a file."""
    root = os.environ.get("STREAMSYNTH_OUT")
    path = Path(raw)
    if root and not path.is_absolute():
        path = Path(root) / path
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {path}: {existing} is not a directory")
    return path


def _out_dir(raw: str) -> Path:
    path = _out_path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_cfg(args) -> RunConfig:
    overrides = {}
    for kv in args.set or []:
        key, eq, value = kv.partition("=")
        if not eq:
            raise ConfigError([f"override {kv!r}: expected SECTION.KEY=VALUE"])
        overrides[key] = value
    cfg = load_config(args.config, overrides)
    if getattr(args, "seed", None) is not None:
        cfg.run.seed = args.seed
    return cfg


def _vocab(cfg: RunConfig) -> seqlm.Vocabulary:
    codebook = fsq_mod.FsqConfig(cfg.fsq.d, cfg.fsq.k).codebook_size
    return seqlm.Vocabulary(codebook, cfg.seqlm.text_alphabet)


def _lm_shape(cfg: RunConfig) -> dict:
    """The ToyLM shape arguments that [fsq] and [seqlm] set."""
    return {"vocab": _vocab(cfg), "dim": cfg.seqlm.dim, "n_blocks": cfg.seqlm.n_blocks,
            "max_len": cfg.seqlm.max_len}


def _cfm_config(cfg: RunConfig) -> cfm_mod.CfmConfig:
    return cfm_mod.CfmConfig(token_vocab=_vocab(cfg).speech_size, **{
        f.name: getattr(cfg.cfm, f.name) for f in dataclasses.fields(cfm_mod.CfmConfig)
        if hasattr(cfg.cfm, f.name)})


# The config key that sets each shape value a checkpoint records. A checkpoint
# does not fix the sampler settings cfm.nfe and cfm.beta, nor cfm.p_uncond,
# which only training reads.
_LM_KEYS = {"speech_size": "fsq.d/fsq.k codebook", "text_size": "seqlm.text_alphabet",
            "dim": "seqlm.dim", "n_blocks": "seqlm.n_blocks", "max_len": "seqlm.max_len"}
_CFM_KEYS = {"token_vocab": "fsq.d/fsq.k codebook", **{
    name: f"cfm.{name}" for name in ("n_features", "token_embed", "hidden", "speaker_dim",
                                      "lookahead")}}


def _load_models(cfg: RunConfig, lm_path: str, cfm_path: str | None = None):
    """The LM and flow-matching checkpoints, once every config key they fix agrees."""
    lm = persist.load_lm(_require_file(lm_path, "LM checkpoint"))
    want = _lm_shape(cfg)
    want.update(dataclasses.asdict(want.pop("vocab")))
    have = {**dataclasses.asdict(lm.vocab), "dim": lm.dim, "n_blocks": len(lm.blocks),
            "max_len": lm.max_len}
    found = [(lm_path, _LM_KEYS, want, have)]
    model = None
    if cfm_path is not None:
        model = persist.load_cfm(_require_file(cfm_path, "flow-matching checkpoint"))
        found.append((cfm_path, _CFM_KEYS, dataclasses.asdict(_cfm_config(cfg)),
                      dataclasses.asdict(model.config)))
    problems = [f"{key} is {want[name]} in the config but {have[name]} in {path}"
                for path, keys, want, have in found for name, key in keys.items()
                if want[name] != have[name]]
    if problems:
        raise ConfigError(problems)
    return lm, model


def _sampling(cfg: RunConfig) -> dict:
    """The flow-matching sampler settings, which streaming and offline share."""
    return {"nfe": cfg.cfm.nfe, "beta": cfg.cfm.beta,
            "spec": cfm_mod.MaskSpec(cfm_mod.MaskKind(cfg.cfm.mask), cfg.cfm.chunk_frames)}


def _corpus_assets(cfg: RunConfig):
    vocab = _vocab(cfg)
    rng = np.random.default_rng(split_seed(cfg.run.seed, "corpus"))
    motifs = dataio.motif_map(vocab, rng)
    pairs = dataio.gen_pairs(vocab, motifs, rng, cfg.seqlm.pairs,
                             cfg.seqlm.min_text_len, cfg.seqlm.max_text_len)
    return vocab, motifs, pairs


def _report(cfg: RunConfig, metrics: dict[str, float]) -> MetricsReport:
    return MetricsReport(metrics, config_hash=cfg.config_hash(), seed=cfg.run.seed)


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"missing {what}: {p}")
    return p


def _corpus(data: Path, vocab: seqlm.Vocabulary) -> list[tuple[list[int], list[int]]]:
    path = _require_file(data / "corpus.txt", "corpus")
    pairs = dataio.read_corpus(path)
    for text, speech in pairs:
        bad = [t for t in text if not vocab.is_text(t)] + \
            [t for t in speech if not vocab.is_speech(t)]
        if bad:
            raise dataio.CorpusFileError(f"{path}: id {bad[0]} outside the {vocab}")
    return pairs


def _cfm_speaker_path(cfm_path) -> Path:
    """Where the speaker vector a flow-matching checkpoint was trained on
    lies: ``runs/cfm.ssyn`` has ``runs/cfm.speaker.txt``."""
    return Path(cfm_path).with_suffix(".speaker.txt")


def _cfm_speaker(cfm_path, dim: int) -> np.ndarray:
    """The speaker vector a flow-matching checkpoint was trained on."""
    return dataio.read_speaker_file(
        _require_file(_cfm_speaker_path(cfm_path), f"speaker vector of {cfm_path}"), dim)


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args.out)
    vocab, motifs, pairs = _corpus_assets(cfg)
    dataio.write_corpus(out / "corpus.txt", pairs)
    speaker = np.random.default_rng(split_seed(cfg.run.seed, "speaker")).normal(
        0.0, 1.0, cfg.cfm.speaker_dim)
    dataio.write_speaker_file(out / "speaker.txt", speaker)
    feat_dir = out / "features"
    feat_dir.mkdir(exist_ok=True)
    frng = np.random.default_rng(split_seed(cfg.run.seed, "features"))
    for i, (_, speech) in enumerate(pairs):
        seq = dataio.features_for_tokens(speech, speaker, cfg.cfm.n_features, frng)
        cfm_mod.write_feature_file(feat_dir / f"pair_{i:03d}.sfea", seq)
    _report(cfg, {
        "pairs": float(len(pairs)),
        "speech_tokens": float(sum(len(s) for _, s in pairs)),
    }).write(out / "report_gen_data.txt")
    print(f"wrote corpus of {len(pairs)} pairs to {out}")
    return 0


def _target_features(data: Path, i: int, speech, n_features: int) -> cfm_mod.FeatureSeq:
    """The frames of corpus pair ``i``, whose speech ids are ``speech``:
    ``UPSAMPLE`` frames per id, each of ``n_features`` values."""
    corpus = data / "corpus.txt"
    path = _require_file(data / "features" / f"pair_{i:03d}.sfea",
                         f"feature file of pair {i} in {corpus}")
    feats = cfm_mod.read_feature_file(path)
    want = (cfm_mod.UPSAMPLE * len(speech), n_features)
    if feats.frames.shape != want:
        raise cfm_mod.FeatureFileError(
            f"{path}: {feats.frames.shape[0]} frames of {feats.frames.shape[1]} values, but "
            f"pair {i} in {corpus} needs {want[0]} of {want[1]}")
    return feats


def _train_sequences(cfg, vocab, pairs):
    icfg = seqlm.InterleaveConfig(cfg.seqlm.n, cfg.seqlm.m)
    seqs = []
    for text, speech in pairs:
        seqs.append(seqlm.build_nonstream(vocab, text, speech))
        seqs.append(seqlm.build_stream(vocab, text, speech, icfg))
    return seqs


def _token_accuracy(model, seqs) -> float:
    hit = total = 0
    for seq in seqs:
        logits = model.forward(seq.ids).data
        for i, scored in enumerate(seq.loss_mask):
            if scored:
                total += 1
                hit += int(np.argmax(logits[i]) == seq.targets[i])
    return hit / max(total, 1)


def _train_lm(cfg: RunConfig, data: Path, out: str) -> dict[str, float]:
    vocab = _vocab(cfg)
    pairs = _corpus(data, vocab)
    seqs = _train_sequences(cfg, vocab, pairs)
    model = seqlm.ToyLM(**_lm_shape(cfg),
                        rng=np.random.default_rng(split_seed(cfg.run.seed, "lm-init")))
    rng = np.random.default_rng(split_seed(cfg.run.seed, "lm-train"))
    if cfg.seqlm.train_steps > 0:
        loss = seqlm.train_lm(model, seqs, cfg.seqlm.train_steps, rng,
                              lr=cfg.seqlm.lr, batch_size=cfg.seqlm.batch_size,
                              target_loss=cfg.seqlm.target_loss)
    else:
        loss = seqlm.evaluate_loss(model, seqs)
    persist.save_lm(_out_dir(out) / "lm.ssyn", model)
    return {"loss": loss, "token_accuracy": _token_accuracy(model, seqs)}


def _train_cfm(cfg: RunConfig, data: Path, out: str) -> dict[str, float]:
    pairs = _corpus(data, _vocab(cfg))
    speaker = dataio.read_speaker_file(_require_file(data / "speaker.txt", "speaker vector"),
                                       cfg.cfm.speaker_dim)
    features = [_target_features(data, i, speech, cfg.cfm.n_features)
                for i, (_, speech) in enumerate(pairs)]
    model = cfm_mod.CfmModel(_cfm_config(cfg),
                             np.random.default_rng(split_seed(cfg.run.seed, "cfm-init")))
    rng = np.random.default_rng(split_seed(cfg.run.seed, "cfm-train"))
    params = model.parameters()
    opt = Adam(params, lr=cfg.cfm.lr)
    history = []
    for _ in range(cfg.cfm.train_steps):
        i = int(rng.integers(len(pairs)))
        loss = opt.minimize(lambda: cfm_mod.training_step(
            model, features[i], speaker, pairs[i][1], rng, chunk=cfg.cfm.chunk_frames))
        history.append(loss.item())
    path = _out_dir(out) / "cfm.ssyn"
    persist.save_cfm(path, model)
    dataio.write_speaker_file(_cfm_speaker_path(path), speaker)
    span = min(100, max(len(history) // 2, 1))
    return {
        "loss_first": float(np.mean(history[:span])) if history else 0.0,
        "loss_last": float(np.mean(history[-span:])) if history else 0.0,
    }


def _train_fsq(cfg: RunConfig, data: Path, out: str) -> dict[str, float]:
    vocab = _vocab(cfg)
    pairs = _corpus(data, vocab)
    codec, accuracy, util = fsq_mod.train_toy_tokenizer(
        fsq_mod.FsqConfig(cfg.fsq.d, cfg.fsq.k), cfg.fsq.hidden,
        [[t - vocab.speech_size for t in text] for text, _ in pairs],
        cfg.seqlm.text_alphabet, max(cfg.seqlm.train_steps, 1), cfg.run.seed)
    persist.save_codec(_out_dir(out) / "fsq.ssyn", codec)
    return {"accuracy": accuracy, "utilization": util}


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    trainers = {"lm": _train_lm, "cfm": _train_cfm, "fsq": _train_fsq}
    metrics = trainers[args.target](cfg, Path(args.data), args.out)
    _report(cfg, metrics).write(_out_dir(args.out) / f"report_train_{args.target}.txt")
    summary = ", ".join(f"{k}={v:.6g}" for k, v in metrics.items())
    print(f"trained {args.target}: {summary}")
    return 0


def _parse_text(vocab: seqlm.Vocabulary, raw: str) -> list[int]:
    symbols = raw.split()
    if not symbols or not all(x.removeprefix("-").isdecimal() for x in symbols):
        raise ValueError(f"--text must be space-separated integer symbol ids, got {raw!r}")
    try:
        return [vocab.text_id(int(x)) for x in symbols]
    except ValueError as exc:
        raise ValueError(f"--text: {exc}") from None


def cmd_synthesize(args) -> int:
    cfg = _load_cfg(args)
    lm, model = _load_models(cfg, args.lm, args.cfm)
    vocab = lm.vocab
    icfg = seqlm.InterleaveConfig(cfg.seqlm.n, cfg.seqlm.m)
    text = _parse_text(vocab, args.text)
    speaker = _cfm_speaker(args.cfm, model.config.speaker_dim)
    seed = split_seed(cfg.run.seed, "synthesize-noise")
    ref = cfm_mod.FeatureSeq(np.zeros((0, model.config.n_features)))

    mode = "stream" if args.mode == "stream" else "nonstream"
    prompt = seqlm.build_icl_prompt(vocab, [], text, [], mode, icfg)
    if args.mode == "stream":
        result = seqlm.GenerationResult([], [], [])
        chunk_iter = seqlm.generate_chunks(lm, prompt, vocab, icfg, _sink=result)
        frames = []
        for k, feat in enumerate(cfm_mod.stream_generate(
                model, chunk_iter, speaker, ref, **_sampling(cfg), seed=seed)):
            frames.append(feat.frames)
            print(f"--chunk {k}--")
        feats = cfm_mod.FeatureSeq(np.concatenate(frames, axis=0) if frames
                                   else np.zeros((0, model.config.n_features)))
    else:
        result = seqlm.generate(lm, prompt, vocab, icfg)
        cond = cfm_mod.ConditionSet(speaker, result.speech, ref)
        feats = cfm_mod.sample(model, cond, cfm_mod.UPSAMPLE * len(result.speech),
                               **_sampling(cfg), seed=seed)
    tokens = result.speech
    out = _out_dir(args.out)
    fsq_mod.write_token_file(out / "tokens.txt", tokens,
                             fsq_mod.FsqConfig(cfg.fsq.d, cfg.fsq.k))
    cfm_mod.write_feature_file(out / "features.sfea", feats)
    if result.truncated:
        print("warning: generation hit the length budget before E")
    if result.flags:
        print("warning: generation flags: " + ", ".join(result.flags))
    print(f"synthesized {len(tokens)} tokens -> {len(feats)} frames ({args.mode})")
    return 0


def cmd_finetune(args) -> int:
    cfg = _load_cfg(args)
    lm, _ = _load_models(cfg, args.lm)
    vocab = lm.vocab
    pairs = _corpus(Path(args.data), vocab)
    for i, (text, speech) in enumerate(pairs):  # the ASR backend reads speech by motif
        if len(speech) != dataio.MOTIF_LEN * len(text):
            raise dataio.CorpusFileError(
                f"{Path(args.data) / 'corpus.txt'}: pair {i} has {len(speech)} speech ids for "
                f"{len(text)} text ids, not {dataio.MOTIF_LEN} per text id")
    motifs = dataio.motifs_of(pairs)

    fcfg = fsq_mod.FsqConfig(cfg.fsq.d, cfg.fsq.k)
    arng = np.random.default_rng(split_seed(cfg.run.seed, "asr"))
    codec = fsq_mod.FsqCodec(fcfg, hidden=cfg.fsq.hidden, rng=arng)
    asr = rl_mod.ToyAsrBackend(codec, vocab, rng=arng)
    rl_mod.train_asr_backend(asr, pairs, steps=min(400, 8 * len(pairs)), rng=arng)

    rng = np.random.default_rng(split_seed(cfg.run.seed, "finetune"))
    texts = [t for t, _ in pairs]
    metrics: dict[str, float] = {}

    if args.objective in ("dpo", "both"):
        prefs = rl_mod.make_preference_pairs(lm, asr, texts, motifs, rng)
        if not prefs:
            print("no usable preference pairs (all candidates identical)")
            return 1
        dataio.write_preference_file(_out_dir(args.out) / "preferences.txt", prefs)
        metrics["margin_before"] = rl_mod.preference_margin(lm, prefs)
        rl_mod.finetune_dpo(lm, prefs, cfg.rl.steps, rng, beta_dpo=cfg.rl.beta_dpo,
                            lr=cfg.rl.lr)
        metrics["margin_after"] = rl_mod.preference_margin(lm, prefs)
    if args.objective in ("asr", "both"):
        icfg = seqlm.InterleaveConfig(cfg.seqlm.n, cfg.seqlm.m)

        def generated_asr_loss() -> float:
            losses = []
            for text in texts[:10]:
                prompt = seqlm.build_icl_prompt(vocab, [], text, [], "nonstream", icfg)
                gen = seqlm.generate(lm, prompt, vocab, icfg)
                losses.append(rl_mod.asr_nll_hard(asr, gen.speech, text))
            return float(np.mean(losses))

        metrics["asr_loss_before"] = generated_asr_loss()
        rl_mod.finetune_asr(lm, asr, texts, cfg.rl.steps, rng, tau=cfg.rl.tau,
                            lr=cfg.rl.lr)
        metrics["asr_loss_after"] = generated_asr_loss()

    out = _out_dir(args.out)
    persist.save_lm(out / "lm_finetuned.ssyn", lm)
    _report(cfg, metrics).write(out / "report_finetune.txt")
    print("finetune done: " + ", ".join(f"{k}={v:.4f}" for k, v in metrics.items()))
    return 0


def cmd_bench_latency(args) -> int:
    cfg = _load_cfg(args)
    timing = lat_mod.StageTiming(**dataclasses.asdict(cfg.latency))
    n, m = cfg.seqlm.n, cfg.seqlm.m
    bound_tts = lat_mod.l_tts(m, timing)
    bound_chat = lat_mod.l_chat_bound(n, m, timing)
    report = lat_mod.simulate(lat_mod.scripted_token_source(3 * m, m),
                              timing, m, n_text=0, overlap=args.overlap)
    chat = lat_mod.simulate(lat_mod.scripted_token_source(3 * m, m),
                            timing, m, n_text=n, overlap=args.overlap)
    lines = [
        f"l_tts_formula={bound_tts!r}",
        f"l_tts_simulated={report.first_package_seconds!r}",
        f"l_chat_bound={bound_chat!r}",
        f"l_chat_simulated={chat.first_package_seconds!r}",
        f"tokens_before_first_package={report.tokens_before_first_package}",
        f"overlap={args.overlap}",
    ]
    print("stage      seconds")
    for stage, secs in report.breakdown.items():
        print(f"{stage:<10} {secs:.6f}")
    print(f"{'total':<10} {report.first_package_seconds:.6f}")
    for line in lines:
        print(line)
    if args.out:
        write_lines(_out_dir(args.out) / "report_latency.txt", lines)
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    data = Path(args.data)
    lm, model = _load_models(cfg, args.lm, args.cfm)
    vocab = lm.vocab
    pairs = _corpus(data, vocab)
    if model is not None:
        speaker = _cfm_speaker(args.cfm, model.config.speaker_dim)
    seqs = _train_sequences(cfg, vocab, pairs)
    metrics = {
        "loss": seqlm.evaluate_loss(lm, seqs),
        "token_accuracy": _token_accuracy(lm, seqs),
    }
    all_tokens = [tok for _, speech in pairs for tok in speech]
    util, _ = fsq_mod.utilization(all_tokens, fsq_mod.FsqConfig(cfg.fsq.d, cfg.fsq.k))
    metrics["utilization"] = util
    if model is not None:
        ref = cfm_mod.FeatureSeq(np.zeros((0, model.config.n_features)))
        sampled, target = [], []
        for i, (_, speech) in enumerate(pairs[:5]):
            cond = cfm_mod.ConditionSet(speaker, speech, ref)
            feats = cfm_mod.sample(model, cond, cfm_mod.UPSAMPLE * len(speech),
                                   **_sampling(cfg), seed=split_seed(cfg.run.seed, f"eval-{i}"))
            sampled.append(feats.frames)
            target.append(_target_features(data, i, speech, cfg.cfm.n_features).frames)
        metrics["energy_distance"] = cfm_mod.energy_distance(
            np.concatenate(sampled), np.concatenate(target))
    _report(cfg, metrics).write(_out_dir(args.out) / "report_eval.txt")
    print("eval: " + ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streamsynth",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def config_options(p):
        p.add_argument("--config", default=None, help="key=value section config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="config override")

    def common(p):
        config_options(p)
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-data", help="synthesize the paired toy corpus")
    common(p)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a module on generated data")
    common(p)
    p.add_argument("--target", choices=("fsq", "lm", "cfm"), required=True)
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("synthesize", help="text ids -> speech tokens -> features")
    common(p)
    p.add_argument("--lm", required=True, help="LM checkpoint path")
    p.add_argument("--cfm", required=True, help="flow-matching checkpoint path")
    p.add_argument("--text", required=True, help="space-separated text symbol ids")
    p.add_argument("--mode", choices=("offline", "stream"), default="offline")
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("finetune", help="DPO / differentiable ASR-reward tuning")
    common(p)
    p.add_argument("--lm", required=True, help="LM checkpoint path")
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.add_argument("--objective", choices=("dpo", "asr", "both"), required=True)
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("bench-latency", help="first-package latency model + simulator")
    config_options(p)
    p.add_argument("--overlap", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_bench_latency)

    p = sub.add_parser("eval", help="corpus metrics for trained checkpoints")
    common(p)
    p.add_argument("--lm", required=True, help="LM checkpoint path")
    p.add_argument("--data", required=True, help="gen-data output directory")
    p.add_argument("--cfm", default=None, help="optional flow-matching checkpoint")
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            _out_path(args.out)  # before any work, so a bad --out costs none
        return args.fn(args)
    except (ConfigError, cfm_mod.StreamingMaskError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
