import argparse
import dataclasses
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from streamsynth.checkpoint import load_checkpoint, save_checkpoint
from streamsynth.cli import build_parser, main
from streamsynth.config import RunConfig

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

    @pytest.mark.parametrize("command", ["synthesize", "eval"])
    def test_missing_lm_writes_no_out_dir(self, workspace, tmp_path, capsys, command):
        _, data, runs, text = workspace
        extra = {"synthesize": ["--cfm", runs / "cfm.ssyn", "--text", text],
                 "eval": ["--data", data, "--cfm", runs / "cfm.ssyn"]}[command]
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
        _, data, _, _ = workspace
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        (bad / "speaker.txt").write_text("0.1 0.2\n")
        code = run("train", "--target", "cfm", "--data", bad, "--out", tmp_path / "o",
                   *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert "speaker.txt: 2 values, expected 16" in err and "Traceback" not in err


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
