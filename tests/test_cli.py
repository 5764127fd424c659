import numpy as np
import pytest

from streamsynth.cli import main

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
                "--text", text, "--nfe", "4", "--mask", "chunk", *TINY]
        assert run(*base, "--mode", "offline", "--out", off) == 0
        assert run(*base, "--mode", "stream", "--out", strm) == 0
        assert (off / "tokens.txt").read_bytes() == (strm / "tokens.txt").read_bytes()
        assert (off / "features.sfea").read_bytes() == \
            (strm / "features.sfea").read_bytes()

    def test_stream_prints_chunk_markers(self, workspace, tmp_path, capsys):
        _, _, runs, text = workspace
        assert run("synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                   "--text", text, "--nfe", "2", "--mode", "stream",
                   "--out", tmp_path / "s", *TINY) == 0
        assert "--chunk 0--" in capsys.readouterr().out

    def test_repeat_run_identical(self, workspace, tmp_path):
        _, _, runs, text = workspace
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                "--text", text, "--nfe", "2", "--mode", "offline", *TINY]
        assert run(*base, "--out", a) == 0
        assert run(*base, "--out", b) == 0
        assert (a / "tokens.txt").read_bytes() == (b / "tokens.txt").read_bytes()
        assert (a / "features.sfea").read_bytes() == (b / "features.sfea").read_bytes()

    def test_inputs_not_mutated(self, workspace, tmp_path):
        _, data, runs, text = workspace
        before = {f.name: f.read_bytes() for f in data.iterdir() if f.is_file()}
        assert run("synthesize", "--lm", runs / "lm.ssyn", "--cfm", runs / "cfm.ssyn",
                   "--text", text, "--nfe", "2", "--mode", "offline",
                   "--out", tmp_path / "o", *TINY) == 0
        after = {f.name: f.read_bytes() for f in data.iterdir() if f.is_file()}
        assert before == after

    def test_truncated_checkpoint_exits_cleanly(self, workspace, tmp_path, capsys):
        _, _, runs, text = workspace
        raw = (runs / "lm.ssyn").read_bytes()
        cut = tmp_path / "cut.ssyn"
        cut.write_bytes(raw[: 12 + int.from_bytes(raw[8:12], "little") + 3])
        code = run("synthesize", "--lm", cut, "--cfm", runs / "cfm.ssyn", "--text", text,
                   "--nfe", "2", "--mode", "stream", "--out", tmp_path / "o", *TINY)
        err = capsys.readouterr().err
        assert code == 1
        assert "truncated" in err and "Traceback" not in err


class TestBenchLatency:
    def test_report_lines(self, tmp_path, capsys):
        assert run("bench-latency", "--n", "5", "--m", "15", "--d-lm", "0.01",
                   "--d-fm", "0.005", "--d-voc", "0.002", "--d-llm", "0.02",
                   "--out", tmp_path / "lat") == 0
        out = capsys.readouterr().out
        assert "l_tts_formula=0.255" in out
        assert "l_chat_bound=0.355" in out
        report = (tmp_path / "lat" / "report_latency.txt").read_text()
        assert "l_tts_simulated=0.255" in report

    def test_overlap_flag(self, capsys):
        assert run("bench-latency", "--m", "10", "--d-lm", "0.01", "--overlap") == 0
        assert "overlap=True" in capsys.readouterr().out


class TestFinetuneCommand:
    def test_dpo_objective_runs(self, workspace, tmp_path):
        _, data, runs, _ = workspace
        out = tmp_path / "ft"
        assert run("finetune", "--lm", runs / "lm.ssyn", "--data", data,
                   "--objective", "dpo", "--steps", "10", "--out", out, *TINY) == 0
        report = (out / "report_finetune.txt").read_text()
        assert "metric.margin_before=" in report
        assert (out / "preferences.txt").exists()
        assert (out / "lm_finetuned.ssyn").exists()
