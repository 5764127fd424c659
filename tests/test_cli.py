import argparse
import dataclasses
import hashlib
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from streamsynth import cfm, cli, dataio, fsq
from streamsynth.cfm import CfmConfig, CfmModel
from streamsynth.checkpoint import load_checkpoint, save_checkpoint
from streamsynth.cli import build_parser, main
from streamsynth.config import CfmSection, RunConfig, split_seed
from streamsynth.persist import load_cfm, save_cfm, save_lm
from streamsynth.seqlm import ToyLM, Vocabulary

TINY = [
    "--seed", "5",
    "--set", "fsq.d=4", "--set", "fsq.k=1", "--set", "fsq.hidden=12",
    "--set", "seqlm.text_alphabet=16", "--set", "seqlm.pairs=12",
    "--set", "seqlm.max_text_len=5", "--set", "seqlm.dim=32",
    "--set", "seqlm.train_steps=300",
    "--set", "cfm.n_features=4", "--set", "cfm.hidden=12",
    "--set", "cfm.token_embed=8", "--set", "cfm.train_steps=40",
]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-data plus trained lm/cfm checkpoints for the tiny world."""
    root = tmp_path_factory.mktemp("cli")
    data, runs = root / "data", root / "runs"
    assert run("gen-data", "--out", data, *TINY) == 0
    assert run("train", "--target", "lm", "--data", data, "--out", runs, *TINY) == 0
    assert run("train", "--target", "cfm", "--data", data, "--out", runs, *TINY) == 0
    corpus_text = (data / "corpus.txt").read_text().splitlines()[0]
    first_text = [int(t) - 81 for t in
                  corpus_text.split(" | ")[0].split()[1:]]
    return root, data, runs, " ".join(str(t) for t in first_text)


class TestGenData:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen-data", "--out", a, *TINY) == 0
        assert run("gen-data", "--out", b, *TINY) == 0
        assert (a / "corpus.txt").read_bytes() == (b / "corpus.txt").read_bytes()
        assert (a / "speaker.txt").read_bytes() == (b / "speaker.txt").read_bytes()
        for f in sorted((a / "features").iterdir()):
            assert f.read_bytes() == (b / "features" / f.name).read_bytes()

    def test_corpus_counts_match_config(self, workspace):
        _, data, _, _ = workspace
        lines = [l for l in (data / "corpus.txt").read_text().splitlines() if l]
        assert len(lines) == 12
        assert len(list((data / "features").iterdir())) == 12

    def test_different_seed_changes_corpus(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen-data", "--out", a, *TINY) == 0
        argv = list(TINY)
        argv[argv.index("5")] = "6"
        assert run("gen-data", "--out", b, *argv) == 0
        assert (a / "corpus.txt").read_bytes() != (b / "corpus.txt").read_bytes()

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STREAMSYNTH_OUT", str(tmp_path / "rooted"))
        assert run("gen-data", "--out", "d", *TINY) == 0
        assert (tmp_path / "rooted" / "d" / "corpus.txt").exists()


class TestValidation:
    def test_invalid_config_key_named(self, tmp_path, capsys):
        code = run("gen-data", "--out", tmp_path / "x", "--set", "fsq.bogus=1")
        assert code == 2
        assert "fsq.bogus" in capsys.readouterr().err

    def test_override_without_value_named(self, tmp_path, capsys):
        code = run("gen-data", "--out", tmp_path / "x", "--set", "seqlm.pairs")
        assert code == 2
        assert "seqlm.pairs" in capsys.readouterr().err

    def test_non_utf8_config_named(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"[run]\nseed=0 # caf\xe9\n")
        code = run("gen-data", "--config", bad, "--out", tmp_path / "x")
        err = capsys.readouterr().err
        assert code == 2
        assert "bad.cfg: not UTF-8" in err and "Traceback" not in err

    def test_directory_as_config_named(self, tmp_path, capsys):
        code = run("bench-latency", "--config", tmp_path)
        err = capsys.readouterr().err
        assert code == 2
        assert f"{tmp_path}: cannot read" in err and "Traceback" not in err

    def test_non_finite_float_exits_2(self, capsys):
        code = run("bench-latency", "--set", "latency.d_lm=nan")
        out, err = capsys.readouterr()
        assert code == 2
        assert "latency.d_lm must be finite" in err and "Traceback" not in err
        assert "l_tts_formula" not in out

    def test_no_option_shadows_a_config_key(self):
        cfg = RunConfig()
        keys = {f.name for section in dataclasses.fields(cfg)
                for f in dataclasses.fields(getattr(cfg, section.name))}
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                assert action.dest == "seed" or action.dest not in keys, \
                    f"{name} --{action.dest} shadows a config key"

    def test_missing_checkpoint_names_path(self, tmp_path, capsys):
        code = run("eval", "--lm", tmp_path / "nope.ssyn", "--data", tmp_path,
                   "--out", tmp_path / "o", *TINY)
        assert code == 1
        assert "nope.ssyn" in capsys.readouterr().err

    def test_out_path_that_is_a_file_exits_1(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_bytes(b"")
        code = run("gen-data", "--out", taken, *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "taken" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "finetune", "synthesize", "eval"])
    @pytest.mark.parametrize("under", ["", "sub"], ids=["file", "under-file"])
    def test_out_file_rejected_before_any_work(self, workspace, tmp_path, capsys,
                                               monkeypatch, command, under):
        _, data, runs, _ = workspace

        def reached(*args, **kwargs):
            raise AssertionError("work ran before --out was checked")

        monkeypatch.setattr(cli.seqlm, "train_lm", reached)
        monkeypatch.setattr(cli.persist, "load_lm", reached)
        lm, cfm = ["--lm", runs / "lm.ssyn"], ["--cfm", runs / "cfm.ssyn"]
        extra = {"train": ["--target", "lm", "--data", data],
                 "finetune": [*lm, "--data", data, "--objective", "dpo"],
                 "synthesize": [*lm, *cfm, "--text", "1 2"],
                 "eval": [*lm, *cfm, "--data", data]}[command]
        taken = tmp_path / "taken"
        taken.write_bytes(b"")
        code = run(command, *extra, "--out", taken / under, *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert f"{taken} is not a directory" in err and "Traceback" not in err

    @pytest.mark.parametrize("spelling", ["override", "file"])
    @pytest.mark.parametrize("section", ["config_hash", "canonical_lines"])
    def test_method_name_is_an_unknown_section(self, tmp_path, capsys, spelling, section):
        if spelling == "override":
            code = run("bench-latency", "--set", f"{section}.x=1")
        else:
            (tmp_path / "c.cfg").write_text(f"[{section}]\nx=1\n")
            code = run("bench-latency", "--config", tmp_path / "c.cfg")
        out, err = capsys.readouterr()
        assert code == 2
        assert "unknown section" in err and section in err and "Traceback" not in err
        assert "l_tts_formula" not in out

    def test_output_file_that_is_a_directory_exits_1(self, tmp_path, capsys):
        (tmp_path / "d" / "corpus.txt").mkdir(parents=True)
        code = run("gen-data", "--out", tmp_path / "d", *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "corpus.txt" in err and "Traceback" not in err

    def test_unusable_corpus_settings_exit_2(self, tmp_path, capsys):
        code = run("gen-data", "--out", tmp_path / "x", "--set", "seqlm.pairs=0")
        assert code == 2
        assert "seqlm.pairs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    corpus_commands = pytest.mark.parametrize("command", [
        ("train", "--target", "lm"), ("train", "--target", "fsq"),
        ("train", "--target", "cfm"), ("finetune", "--objective", "asr"),
        ("finetune", "--objective", "dpo"), ("eval",)],
        ids=["train-lm", "train-fsq", "train-cfm", "finetune-asr", "finetune-dpo", "eval"])

    @staticmethod
    def _run_on_corpus(runs, tmp_path, command, corpus: str) -> tuple[int, Path]:
        data = tmp_path / "data"
        data.mkdir()
        (data / "corpus.txt").write_text(corpus)
        lm = [] if command[0] == "train" else ["--lm", runs / "lm.ssyn"]
        return run(*command, *lm, "--data", data, "--out", tmp_path / "o", *TINY), data

    @corpus_commands
    def test_empty_corpus_named_and_writes_no_out_dir(self, workspace, tmp_path, capsys,
                                                      command):
        _, _, runs, _ = workspace
        code, data = self._run_on_corpus(runs, tmp_path, command, "")
        out, err = capsys.readouterr()
        assert code == 1
        assert f"{data / 'corpus.txt'}: no pairs" in err
        assert "Traceback" not in err and "Warning" not in out + err
        assert not (tmp_path / "o").exists()

    # TINY's vocabulary: speech ids 0-80, text ids 81-96
    @corpus_commands
    @pytest.mark.parametrize("corpus, bad", [
        ("TEXT 81 82 | SPEECH 5 6\nTEXT 83 | SPEECH 7 939 6509\n", 939),
        ("TEXT 81 6561 | SPEECH 5 6\n", 6561),
        ("TEXT 81 5 | SPEECH 5 6\n", 5),
        ("TEXT 81 | SPEECH 5 81\n", 81)], ids=["speech", "text", "speech-as-text",
                                               "text-as-speech"])
    def test_corpus_id_outside_vocabulary_named_and_writes_no_out_dir(
            self, workspace, tmp_path, capsys, command, corpus, bad):
        _, _, runs, _ = workspace
        code, data = self._run_on_corpus(runs, tmp_path, command, corpus)
        out, err = capsys.readouterr()
        assert code == 1
        assert f"{data / 'corpus.txt'}: id {bad} outside the Vocabulary(" in err
        assert "Traceback" not in err and "Warning" not in out + err
        assert not (tmp_path / "o").exists()

    def test_missing_corpus_named(self, workspace, tmp_path, capsys):
        _, _, runs, _ = workspace
        code = run("eval", "--lm", runs / "lm.ssyn", "--data", tmp_path / "void",
                   "--out", tmp_path / "o", *TINY)
        assert code == 1
        assert "corpus" in capsys.readouterr().err


class TestTrainEval:
    def test_train_reports_metrics(self, workspace):
        _, _, runs, _ = workspace
        report = (runs / "report_train_lm.txt").read_text()
        assert "metric.loss=" in report
        assert "provenance.seed=5" in report

    def test_untrained_eval_near_uniform(self, workspace, tmp_path):
        _, data, _, _ = workspace
        out = tmp_path / "o"
        argv = [a if a != "seqlm.train_steps=300" else "seqlm.train_steps=0"
                for a in TINY]
        assert run("train", "--target", "lm", "--data", data, "--out", out,
                   *argv) == 0
        assert run("eval", "--lm", out / "lm.ssyn", "--data", data,
                   "--out", out, *argv) == 0
        report = (out / "report_eval.txt").read_text()
        loss = float(next(l for l in report.splitlines()
                          if l.startswith("metric.loss=")).split("=")[1])
        vocab_size = 81 + 16 + 4
        assert loss == pytest.approx(np.log(vocab_size), rel=1e-6)

    def test_fsq_training_writes_codec(self, workspace, tmp_path):
        _, data, _, _ = workspace
        out = tmp_path / "o"
        argv = [a if a != "seqlm.train_steps=300" else "seqlm.train_steps=150"
                for a in TINY]
        assert run("train", "--target", "fsq", "--data", data, "--out", out,
                   *argv) == 0
        assert (out / "fsq.ssyn").exists()
        report = (out / "report_train_fsq.txt").read_text()
        assert "metric.utilization=" in report


class TestSynthesize:
    def test_offline_equals_stream_bytes(self, workspace, tmp_path):
        _, _, runs, text = workspace
        off, strm = tmp_path / "off", tmp_path / "strm"
        base = ["synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                "--text", text, "--set", "cfm.nfe=4", "--set", "cfm.mask=chunk", *TINY]
        assert run(*base, "--mode", "offline", "--out", off) == 0
        assert run(*base, "--mode", "stream", "--out", strm) == 0
        assert (off / "tokens.txt").read_bytes() == (strm / "tokens.txt").read_bytes()
        assert (off / "features.sfea").read_bytes() == \
            (strm / "features.sfea").read_bytes()

    def test_stream_prints_chunk_markers(self, workspace, tmp_path, capsys):
        _, _, runs, text = workspace
        assert run("synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                   "--text", text, "--set", "cfm.nfe=2", "--mode", "stream",
                   "--out", tmp_path / "s", *TINY) == 0
        assert "--chunk 0--" in capsys.readouterr().out

    def test_over_long_offline_text_ends_truncated(self, workspace, tmp_path, capsys):
        # 511 symbols leave no room for speech within seqlm.max_len 512
        _, _, runs, _ = workspace
        out = tmp_path / "o"
        code = run("synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                   "--text", " ".join(["0"] * 511), "--set", "cfm.nfe=2",
                   "--mode", "offline", "--out", out, *TINY)
        stdout = capsys.readouterr().out
        assert code == 0
        assert "warning: generation hit the length budget" in stdout
        assert "synthesized 0 tokens -> 0 frames (offline)" in stdout
        assert (out / "tokens.txt").read_text() == "#fsq D=4 K=1\n"
        assert (out / "features.sfea").read_text() == "SFEA 0 4\n"

    def test_stream_eos_with_text_left_warns(self, workspace, tmp_path, capsys):
        # the tiny LM, trained on texts of at most 5 symbols, says E long
        # before it has read 511
        _, _, runs, _ = workspace
        code = run("synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                   "--text", " ".join(["0"] * 511), "--set", "cfm.nfe=2",
                   "--mode", "stream", "--out", tmp_path / "o", *TINY)
        stdout = capsys.readouterr().out
        assert code == 0
        warnings = [ln for ln in stdout.splitlines() if ln.startswith("warning:")]
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: generation flags: ")
        assert "eos-with-text-left" in warnings[0]

    def test_repeat_run_identical(self, workspace, tmp_path):
        _, _, runs, text = workspace
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                "--text", text, "--set", "cfm.nfe=2", "--mode", "offline", *TINY]
        assert run(*base, "--out", a) == 0
        assert run(*base, "--out", b) == 0
        assert (a / "tokens.txt").read_bytes() == (b / "tokens.txt").read_bytes()
        assert (a / "features.sfea").read_bytes() == (b / "features.sfea").read_bytes()

    def test_inputs_not_mutated(self, workspace, tmp_path):
        _, data, runs, text = workspace
        before = {f.name: f.read_bytes() for f in data.iterdir() if f.is_file()}
        assert run("synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                   "--text", text, "--set", "cfm.nfe=2", "--mode", "offline",
                   "--out", tmp_path / "o", *TINY) == 0
        after = {f.name: f.read_bytes() for f in data.iterdir() if f.is_file()}
        assert before == after

    def test_truncated_checkpoint_exits_cleanly(self, workspace, tmp_path, capsys):
        _, _, runs, text = workspace
        raw = (runs / "lm.ssyn").read_bytes()
        cut = tmp_path / "cut.ssyn"
        cut.write_bytes(raw[: 12 + int.from_bytes(raw[8:12], "little") + 3])
        code = run("synthesize", "--lm", cut, "--cfm", runs / "cfm.ssyn", "--text", text,
                   "--set", "cfm.nfe=2", "--mode", "stream", "--out", tmp_path / "o", *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert "truncated" in err and "Traceback" not in err

    def test_checkpoint_without_metadata_key_exits_cleanly(self, workspace, tmp_path, capsys):
        _, _, runs, text = workspace
        module, params, meta = load_checkpoint(runs / "lm.ssyn")
        extra = {k: v for k, v in meta.items()
                 if k not in ("module", "dim") and not k.startswith("shape.")}
        save_checkpoint(tmp_path / "nodim.ssyn", module, list(params.items()), extra)
        code = run("synthesize", "--lm", tmp_path / "nodim.ssyn", "--cfm", runs / "cfm.ssyn",
                   "--text", text, "--set", "cfm.nfe=2", "--out", tmp_path / "o", *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert "nodim.ssyn" in err and "dim" in err and "Traceback" not in err

    @pytest.mark.parametrize("key,value", [("max_len", "1000000000000000"), ("dim", "-4")])
    def test_checkpoint_sizes_past_the_file_exit_cleanly(self, workspace, tmp_path, capsys,
                                                         key, value):
        _, _, runs, text = workspace
        module, params, meta = load_checkpoint(runs / "lm.ssyn")
        extra = {k: v for k, v in meta.items() if k != "module" and not k.startswith("shape.")}
        extra[key] = value
        save_checkpoint(tmp_path / "huge.ssyn", module, list(params.items()), extra)
        code = run("synthesize", "--lm", tmp_path / "huge.ssyn", "--cfm", runs / "cfm.ssyn",
                   "--text", text, "--set", "cfm.nfe=2", "--out", tmp_path / "o", *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert "huge.ssyn: metadata" in err and "Traceback" not in err

    def test_non_finite_checkpoint_exits_cleanly(self, workspace, tmp_path, capsys):
        _, _, runs, text = workspace
        module, params, meta = load_checkpoint(runs / "lm.ssyn")
        extra = {k: v for k, v in meta.items() if k != "module" and not k.startswith("shape.")}
        params["p002"] = params["p002"].copy()
        params["p002"][0] = np.nan
        save_checkpoint(tmp_path / "nan.ssyn", module, list(params.items()), extra)
        code = run("synthesize", "--lm", tmp_path / "nan.ssyn", "--cfm", runs / "cfm.ssyn",
                   "--text", text, "--set", "cfm.nfe=2", "--out", tmp_path / "o", *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert "nan.ssyn: parameter p002 holds a non-finite value" in err
        assert "Traceback" not in err

    def test_bad_feature_file_exits_cleanly(self, workspace, tmp_path, capsys):
        _, data, _, _ = workspace
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        frame = bad / "features" / "pair_000.sfea"
        lines = frame.read_text().splitlines()
        lines[1] = "x" + lines[1]
        frame.write_text("\n".join(lines) + "\n")
        code = run("train", "--target", "cfm", "--data", bad, "--out", tmp_path / "o",
                   *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert "pair_000.sfea:2: non-numeric value" in err and "Traceback" not in err


    def test_nfe_from_config_changes_features(self, workspace, tmp_path):
        _, _, runs, text = workspace
        base = ["synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                "--text", text, "--mode", "offline", *TINY]
        assert run(*base, "--set", "cfm.nfe=2", "--out", tmp_path / "a") == 0
        assert run(*base, "--set", "cfm.nfe=3", "--out", tmp_path / "b") == 0
        assert (tmp_path / "a" / "features.sfea").read_bytes() != \
            (tmp_path / "b" / "features.sfea").read_bytes()

    @pytest.mark.parametrize("mask", ["chunk2", "noncausal"])
    def test_stream_rejects_unstreamable_mask(self, workspace, tmp_path, capsys, mask):
        _, _, runs, text = workspace
        code = run("synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                   "--text", text, "--set", "cfm.nfe=2", "--set", f"cfm.mask={mask}",
                   "--mode", "stream", "--out", tmp_path / "s", *TINY)
        out, err = capsys.readouterr()
        assert code == 2
        assert f"not {mask}" in err and "Traceback" not in err
        assert "--chunk" not in out
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("command", ["synthesize", "eval", "finetune"])
    def test_missing_lm_writes_no_out_dir(self, workspace, tmp_path, capsys, command):
        _, data, runs, text = workspace
        extra = {"synthesize": ["--cfm", runs / "cfm.ssyn", "--text", text],
                 "eval": ["--data", data, "--cfm", runs / "cfm.ssyn"],
                 "finetune": ["--data", data, "--objective", "dpo"]}[command]
        code = run(command, "--lm", tmp_path / "nope.ssyn", *extra,
                   "--out", tmp_path / "o", *TINY)
        assert code == 1
        assert "nope.ssyn" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        ("", "--text must be space-separated integer symbol ids, got ''"),
        ("a b", "--text must be space-separated integer symbol ids, got 'a b'"),
        ("1 99", "--text: text symbol 99 out of range"),
    ])
    def test_bad_text_named(self, workspace, tmp_path, capsys, text, message):
        _, _, runs, _ = workspace
        code = run("synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                   "--text", text, "--out", tmp_path / "s", *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert message in err and "Traceback" not in err

    def test_short_speaker_vector_exits_cleanly(self, workspace, tmp_path, capsys):
        # eval reads the checkpoint's speaker, not this one (see below)
        _, data, _, _ = workspace
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        (bad / "speaker.txt").write_text("0.1 0.2\n")
        code = run("train", "--target", "cfm", "--data", bad, "--out", tmp_path / "o", *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert "speaker.txt: 2 values, expected 16" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_synthesize_conditions_on_the_trained_speaker(self, workspace, tmp_path):
        # models trained on the seed-5 corpus: --seed 6 draws seed-6 noise but
        # keeps the seed-5 speaker that train --target cfm wrote beside cfm.ssyn
        _, data, runs, text = workspace
        argv = list(TINY)
        argv[argv.index("--seed") + 1] = "6"
        out = tmp_path / "s6"
        assert run("synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                   "--text", text, "--set", "cfm.nfe=2", "--mode", "offline",
                   "--out", out, *argv) == 0
        assert (runs / "cfm.speaker.txt").read_bytes() == (data / "speaker.txt").read_bytes()
        tokens, _ = fsq.read_token_file(out / "tokens.txt")
        model = load_cfm(runs / "cfm.ssyn")
        ref = cfm.FeatureSeq(np.zeros((0, model.config.n_features)))
        spec = cfm.MaskSpec(cfm.MaskKind.CHUNK, CfmSection().chunk_frames)

        def features(speaker):
            return cfm.sample(model, cfm.ConditionSet(speaker, tokens, ref),
                              cfm.UPSAMPLE * len(tokens), nfe=2, beta=CfmSection().beta,
                              spec=spec, seed=split_seed(6, "synthesize-noise")).frames

        got = cfm.read_feature_file(out / "features.sfea").frames
        trained = dataio.read_speaker_file(data / "speaker.txt", 16)
        seed6 = np.random.default_rng(split_seed(6, "speaker")).normal(0.0, 1.0, 16)
        assert got.tobytes() == features(trained).tobytes()
        assert got.tobytes() != features(seed6).tobytes()

    @pytest.mark.parametrize("command", ["synthesize", "eval"])
    @pytest.mark.parametrize("content, message", [
        (None, "missing speaker vector of"),
        ("0.1 0.2\n", "cfm.speaker.txt: 2 values, expected 16")], ids=["missing", "short"])
    def test_bad_checkpoint_speaker_exits_cleanly(self, workspace, tmp_path, capsys,
                                                  content, message, command):
        _, data, runs, text = workspace
        moved = tmp_path / "runs"
        moved.mkdir()
        shutil.copy(runs / "cfm.ssyn", moved / "cfm.ssyn")
        if content is not None:
            (moved / "cfm.speaker.txt").write_text(content)
        extra = {"synthesize": ["--text", text], "eval": ["--data", data]}[command]
        code = run(command, "--lm", runs / "lm.ssyn", "--cfm", moved / "cfm.ssyn", *extra,
                   "--set", "cfm.nfe=2", "--out", tmp_path / "o", *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_eval_conditions_on_the_trained_speaker(self, workspace, tmp_path):
        # seed-5 models evaluated against a seed-6 corpus: eval samples with
        # the seed-5 speaker beside cfm.ssyn, whatever <data>/speaker.txt says
        _, _, runs, _ = workspace
        argv = list(TINY)
        argv[argv.index("--seed") + 1] = "6"
        data6 = tmp_path / "data6"
        assert run("gen-data", "--out", data6, *argv) == 0
        other = tmp_path / "runs6"
        other.mkdir()
        shutil.copy(runs / "cfm.ssyn", other / "cfm.ssyn")
        shutil.copy(data6 / "speaker.txt", other / "cfm.speaker.txt")

        def report(cfm_path, name):
            assert run("eval", "--lm", runs / "lm.ssyn", "--cfm", cfm_path, "--data", data6,
                       "--set", "cfm.nfe=2", "--out", tmp_path / name, *TINY) == 0
            return (tmp_path / name / "report_eval.txt").read_bytes()

        trained = report(runs / "cfm.ssyn", "trained")
        seed6 = report(other / "cfm.ssyn", "seed6")
        (data6 / "speaker.txt").unlink()
        assert report(runs / "cfm.ssyn", "no-data-speaker") == trained
        assert seed6 != trained


# (config arguments, token vocabulary of a CFM checkpoint made apart from the
# workspace or None, [(key, config value, checkpoint value, checkpoint)])
SHAPE_MISMATCHES = {
    "fsq.d": ([*TINY, "--set", "fsq.d=2"], None,
              [("fsq.d/fsq.k codebook", 9, 81, "lm"), ("fsq.d/fsq.k codebook", 9, 81, "cfm")]),
    "cfm.speaker_dim": ([*TINY, "--set", "cfm.speaker_dim=5"], None,
                        [("cfm.speaker_dim", 5, 16, "cfm")]),
    "seqlm.max_len": ([*TINY, "--set", "seqlm.max_len=8"], None,
                      [("seqlm.max_len", 8, 512, "lm")]),
    "cfm.lookahead": ([*TINY, "--set", "cfm.lookahead=0"], None,
                      [("cfm.lookahead", 0, 3, "cfm")]),
    "no-tiny": ([], None,
                [("fsq.d/fsq.k codebook", 6561, 81, "lm"), ("seqlm.text_alphabet", 64, 16, "lm"),
                 ("seqlm.dim", 48, 32, "lm"), ("fsq.d/fsq.k codebook", 6561, 81, "cfm"),
                 ("cfm.n_features", 8, 4, "cfm"), ("cfm.token_embed", 16, 8, "cfm"),
                 ("cfm.hidden", 24, 12, "cfm")]),
    "lm-cfm-codebooks": (TINY, 9, [("fsq.d/fsq.k codebook", 81, 9, "cfm")]),
}


def _shape_cases():
    for name, (config, cfm_vocab, mismatches) in SHAPE_MISMATCHES.items():
        for command in ("synthesize", "eval", "finetune"):
            # finetune loads no CFM
            found = [m for m in mismatches if command != "finetune" or m[3] == "lm"]
            if found:
                yield pytest.param(command, config, cfm_vocab, found, id=f"{command}-{name}")


class TestCheckpointShape:
    @pytest.mark.parametrize("command, config, cfm_vocab, mismatches", _shape_cases())
    def test_mismatch_listed_before_any_work(self, workspace, tmp_path, capsys, command,
                                             config, cfm_vocab, mismatches):
        _, data, runs, text = workspace
        paths = {"lm": runs / "lm.ssyn", "cfm": runs / "cfm.ssyn"}
        if cfm_vocab is not None:
            paths["cfm"] = tmp_path / "cfm.ssyn"
            save_cfm(paths["cfm"], CfmModel(CfmConfig(n_features=4, token_vocab=cfm_vocab,
                                                      token_embed=8, hidden=12)))
        argv = {"synthesize": ["--cfm", paths["cfm"], "--text", text, "--mode", "stream",
                               "--set", "cfm.nfe=2"],
                "eval": ["--cfm", paths["cfm"], "--data", data],
                "finetune": ["--data", data, "--objective", "dpo"]}[command]
        code = run(command, "--lm", paths["lm"], *argv, "--out", tmp_path / "o", *config)
        out, err = capsys.readouterr()
        assert code == 2
        for key, want, have, model in mismatches:
            assert f"{key} is {want} in the config but {have} in {paths[model]}" in err
        assert err.count(" in the config but ") == len(mismatches)
        assert "Traceback" not in err
        assert "--chunk" not in out and "synthesized" not in out
        assert not (tmp_path / "o").exists()

    def test_every_shared_key_is_compared_or_excluded(self, tmp_path):
        shared = ({f.name for f in dataclasses.fields(CfmConfig)}
                  & {f.name for f in dataclasses.fields(CfmSection)})
        assert shared - set(cli._CFM_KEYS) == {"nfe", "beta", "p_uncond"}
        assert all(cli._CFM_KEYS[name] == f"cfm.{name}"
                   for name in shared & set(cli._CFM_KEYS))
        save_lm(tmp_path / "lm.ssyn", ToyLM(Vocabulary(3, 2), dim=8, n_blocks=1, max_len=4))
        _, _, meta = load_checkpoint(tmp_path / "lm.ssyn")
        recorded = {k for k in meta if k != "module" and not k.startswith("shape.")}
        assert recorded == set(cli._LM_KEYS)
        assert all(key.startswith(("seqlm.", "fsq.")) for key in cli._LM_KEYS.values())


class TestBenchLatency:
    def test_report_lines(self, tmp_path, capsys):
        assert run("bench-latency", "--set", "seqlm.n=5", "--set", "seqlm.m=15",
                   "--set", "latency.d_lm=0.01", "--set", "latency.d_fm=0.005",
                   "--set", "latency.d_voc=0.002", "--set", "latency.d_llm=0.02",
                   "--out", tmp_path / "lat") == 0
        out = capsys.readouterr().out
        assert "l_tts_formula=0.255" in out
        assert "l_chat_bound=0.355" in out
        report = (tmp_path / "lat" / "report_latency.txt").read_text()
        assert "l_tts_simulated=0.255" in report

    def test_overlap_flag(self, capsys):
        assert run("bench-latency", "--set", "seqlm.m=10", "--set", "latency.d_lm=0.01",
                   "--overlap") == 0
        assert "overlap=True" in capsys.readouterr().out


class TestFinetuneCommand:
    def test_dpo_objective_runs(self, workspace, tmp_path):
        _, data, runs, _ = workspace
        out = tmp_path / "ft"
        assert run("finetune", "--lm", runs / "lm.ssyn", "--data", data,
                   "--objective", "dpo", "--set", "rl.steps=10", "--out", out, *TINY) == 0
        report = (out / "report_finetune.txt").read_text()
        assert "metric.margin_before=" in report
        assert (out / "preferences.txt").exists()
        assert (out / "lm_finetuned.ssyn").exists()


# sha256 of every file that gen-data, train (lm, cfm, fsq), finetune, synthesize
# and eval write for TINY in the pipeline below. The float sums, and so the
# bytes, depend on the OpenBLAS bundled with numpy 2.4.6, the version CI pins
# in PINNED_DEPS, as the bench digests do.
PIPELINE_DIGESTS = {
    "data/corpus.txt": "238d585ae91a557bf7b4e14131243601c6980528ccbff6870e0fbd6b07f76781",
    "data/features/pair_000.sfea": "05f3dabe93502055c9480b0895e6a4fa933073c8310f92cac979c1aca272d598",
    "data/features/pair_001.sfea": "f88cc55020e753f8842d2a220e28fec0712d6073965375414dafc0684139ee14",
    "data/features/pair_002.sfea": "e3836d16e2ef4a9a2d97723944385e6f8691746948b862740bfb7da83cab3567",
    "data/features/pair_003.sfea": "c054fd116e9d3aa89558a8239308c1f26fdf795092594a83ba79102ac50050df",
    "data/features/pair_004.sfea": "022573f774c7c5c25b48c839008064a6324fcb0eadab4622ad7f6b9d4ae4d5c8",
    "data/features/pair_005.sfea": "53c76ee4806b1f972c2b66bcbc00e6e8f54b5f146829427a2e51f7eebb277247",
    "data/features/pair_006.sfea": "f26412d7bc76d24cc801f14c7c6fa39fef0b51db001bb4d2e57a8b1291f93f43",
    "data/features/pair_007.sfea": "2c98951d3524a15211538d76cc8e55620f3648e7543754c3c60664fa5c51b51c",
    "data/features/pair_008.sfea": "17a850e1c34f7e6f6c4a1c3df07facd7007f66bd8133328ce2e84fece8331e90",
    "data/features/pair_009.sfea": "024cf4f2c4fb368b408011c2148faddb853f24a78d79dba1381b8bf221730081",
    "data/features/pair_010.sfea": "b0af33b24e17df06f047e61bdd6ab782d988ba6e81f23aeff3affdee44476dcc",
    "data/features/pair_011.sfea": "c91f7e9db2ec140062014b41e87a728319580e55c84c5b12862123ebe0a37626",
    "data/report_gen_data.txt": "2c32594cf4b865afad3e267828fb79105fb710b3d1d69cf86b6f2ec08b5735f5",
    "data/speaker.txt": "140bf327f98d30960c70ed27c7ce428c3461a8db1e7b0c4abb163442485b57d4",
    "eval/report_eval.txt": "566a8afe8eaeec43e82c23e1a5f12248af31ff479522ef8d2c94ab6a61b3280a",
    "finetune/lm_finetuned.ssyn": "1f7dfba9d5856431da979991712847387849574be4b22f62e52d7d6e63a4d29e",
    "finetune/preferences.txt": "4ac4ad74afd5a83208545afb45834bf60eda64815e606bc788b6704f79c0b040",
    "finetune/report_finetune.txt": "a53d6905b2c28c929ba1d4710ab9e0dc754922d104d62c2a04f808fcd99f556c",
    "fsq/fsq.ssyn": "97ca97a2c163888c49d5684450b06bccce828e4fe5de7ec6a938f17aa42c29a4",
    "fsq/report_train_fsq.txt": "eb5743aa14eec6d07ebcb63464f78aadc106346b81ccb1425bf09dbdf6734958",
    "offline/features.sfea": "0f86d7b4b9a05c973f98d8de9b956523747fb3ef686ff9a7b4a8f5c59e0d92f9",
    "offline/tokens.txt": "f87289cd07e3cb83a7f75c1a2f2467f14c8a49330966fa39eebd995567f577f2",
    "stream/features.sfea": "0f86d7b4b9a05c973f98d8de9b956523747fb3ef686ff9a7b4a8f5c59e0d92f9",
    "stream/tokens.txt": "f87289cd07e3cb83a7f75c1a2f2467f14c8a49330966fa39eebd995567f577f2",
    "runs/cfm.speaker.txt": "140bf327f98d30960c70ed27c7ce428c3461a8db1e7b0c4abb163442485b57d4",
    "runs/cfm.ssyn": "0d0c2e221587512747ce075b8525f34876bbeb4253bab156b3c3989f3b84139b",
    "runs/lm.ssyn": "f76596919e5d49ad6b64da09d0ec18d3f91fbe94299e66d4400f89dd88b9c498",
    "runs/report_train_cfm.txt": "31603b9fd396b91adca4406c3b10b2060f368cd20e8f8648d22411a711eb49d1",
    "runs/report_train_lm.txt": "bf1db10e6e65136f87717acd91c900f931561befaabe44ca28f62487b856fe86",
}


def _digests(base: Path) -> dict[str, str]:
    return {f.relative_to(base).as_posix(): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(base.rglob("*")) if f.is_file()}


class TestPinnedBytes:
    def test_pipeline_outputs_match_pinned_digests(self, workspace, tmp_path):
        root, data, runs, text = workspace
        lm, cfm = runs / "lm.ssyn", runs / "cfm.ssyn"
        assert run("train", "--target", "fsq", "--data", data, "--out", tmp_path / "fsq",
                   *TINY) == 0
        assert run("finetune", "--lm", lm, "--data", data, "--objective", "both",
                   "--set", "rl.steps=3", "--out", tmp_path / "finetune", *TINY) == 0
        for mode in ("stream", "offline"):
            assert run("synthesize", "--lm", lm, "--cfm", cfm, "--text", text,
                       "--set", "cfm.nfe=2", "--mode", mode, "--out", tmp_path / mode,
                       *TINY) == 0
        assert run("eval", "--lm", lm, "--data", data, "--cfm", cfm, "--set", "cfm.nfe=2",
                   "--out", tmp_path / "eval", *TINY) == 0
        found = _digests(root) | _digests(tmp_path)
        assert sorted(found) == sorted(PIPELINE_DIGESTS)
        differ = [name for name, digest in PIPELINE_DIGESTS.items() if found[name] != digest]
        assert not differ, f"differ from their pinned bytes: {differ}"


def _readme_commands() -> list[str]:
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    commands, current = [], ""
    for line in lines:
        line = line.strip()
        if current or line.startswith("streamsynth "):
            current += line.rstrip("\\") + " "
            if not line.endswith("\\"):
                commands.append(current)
                current = ""
    return commands


class TestReadme:
    def test_every_cli_example_parses(self):
        commands = _readme_commands()
        assert any(c.startswith("streamsynth bench-latency") for c in commands)
        parser = build_parser()
        for command in commands:
            try:
                parser.parse_args(shlex.split(command)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {command}")
