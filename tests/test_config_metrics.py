import dataclasses

import numpy as np
import pytest

from streamsynth.config import ConfigError, RunConfig, load_config, split_seed
from streamsynth.dataio import (MOTIF_LEN, CorpusFileError, gen_pairs, motif_map,
                                motifs_of, read_corpus, read_preference_file, write_corpus,
                                write_preference_file)
from streamsynth.metrics import MetricsReport, ReportFileError
from streamsynth.rl import PreferencePair
from streamsynth.seqlm import Vocabulary


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.fsq.d == 8 and cfg.fsq.k == 1
        assert cfg.seqlm.n == 5 and cfg.seqlm.m == 15
        assert cfg.cfm.nfe == 10 and cfg.cfm.beta == 0.7

    def test_file_parse(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nseed=7\n\n[fsq]\nd=4\nk=2\n# comment\n[cfm]\nbeta=0.5\n")
        cfg = load_config(path)
        assert cfg.run.seed == 7
        assert (cfg.fsq.d, cfg.fsq.k) == (4, 2)
        assert cfg.cfm.beta == 0.5

    def test_unknown_key_lists_all_violations(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[fsq]\nbogus=1\nd=0\n[nosuch]\nx=2\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        text = str(err.value)
        assert "fsq.bogus" in text
        assert "nosuch" in text
        assert "fsq.d" in text
        assert len(err.value.problems) >= 3

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            load_config(None, {"fsq.nope": "3"})
        assert "fsq.nope" in str(err.value)

    def test_type_errors_reported(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[seqlm]\nn=five\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "seqlm.n" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_floats_rejected(self, value):
        cfg = RunConfig()
        keys = [f"{sec.name}.{f.name}" for sec in dataclasses.fields(cfg)
                for f in dataclasses.fields(getattr(cfg, sec.name))
                if isinstance(getattr(getattr(cfg, sec.name), f.name), float)]
        assert len(keys) == 13
        for key in keys:
            with pytest.raises(ConfigError) as err:
                load_config(None, {key: value})
            assert err.value.problems == [
                f"override {key}: {key} must be finite, got {value!r}"]

    def test_non_finite_float_in_file_names_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[rl]\ntau=0.5\nlr=nan\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.problems == ["line 3: rl.lr must be finite, got 'nan'"]

    @pytest.mark.parametrize("overrides, problem", [
        ({"seqlm.pairs": "0"}, "seqlm.pairs must be >= 1"),
        ({"seqlm.pairs": "-3"}, "seqlm.pairs must be >= 1"),
        ({"seqlm.min_text_len": "9"}, "1 <= min_text_len <= max_text_len"),
        ({"seqlm.min_text_len": "0"}, "1 <= min_text_len <= max_text_len"),
        ({"seqlm.min_text_len": "0", "seqlm.max_text_len": "0"},
         "1 <= min_text_len <= max_text_len"),
        ({"seqlm.max_text_len": "2"}, "1 <= min_text_len <= max_text_len"),
    ], ids=["pairs-0", "pairs-negative", "min-above-max", "min-0", "both-0", "max-below-min"])
    def test_corpus_settings_validated(self, overrides, problem):
        with pytest.raises(ConfigError) as err:
            load_config(None, overrides)
        assert len(err.value.problems) == 1 and problem in err.value.problems[0]

    def test_corpus_settings_bounds_accepted(self):
        cfg = load_config(None, {"seqlm.pairs": "1", "seqlm.min_text_len": "1",
                                 "seqlm.max_text_len": "1"})
        assert (cfg.seqlm.pairs, cfg.seqlm.min_text_len, cfg.seqlm.max_text_len) == (1, 1, 1)

    def test_mask_name_validated(self):
        with pytest.raises(ConfigError):
            load_config(None, {"cfm.mask": "diagonal"})

    def test_hash_changes_with_values(self):
        a = load_config(None)
        b = load_config(None, {"run.seed": "5"})
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == load_config(None).config_hash()

    def test_seed_split_stable_and_distinct(self):
        assert split_seed(0, "lm") == split_seed(0, "lm")
        assert split_seed(0, "lm") != split_seed(0, "cfm")
        assert split_seed(0, "lm") != split_seed(1, "lm")


class TestMetricsReport:
    def test_roundtrip_lossless(self):
        report = MetricsReport({"loss": 0.12345678901234567, "acc": 1.0},
                               config_hash="abc123", seed=9)
        back = MetricsReport.from_text(report.to_text())
        assert back.metrics == report.metrics
        assert back.config_hash == "abc123" and back.seed == 9

    def test_file_roundtrip(self, tmp_path):
        report = MetricsReport({"x": 1e-17}, config_hash="ff", seed=1)
        path = tmp_path / "report.txt"
        report.write(path)
        assert MetricsReport.read(path).metrics["x"] == 1e-17

    def test_unknown_line_rejected(self):
        with pytest.raises(ValueError):
            MetricsReport.from_text("garbage=1\n")

    @pytest.mark.parametrize("body, message", [
        (b"provenance.seed=1\nmetric.x=\xe9\n", r"report\.txt: not UTF-8 text"),
        (b"provenance.seed=1\nmetric.x=abc\n", r"report\.txt:2: 'abc' is not a number"),
        (b"provenance.seed=x\n", r"report\.txt:1: 'x' is not an integer"),
        (b"metric.x=1.0\n\ngarbage=1\n", r"report\.txt:3: unknown report line 'garbage=1'"),
    ])
    def test_bad_file_names_path_and_line(self, tmp_path, body, message):
        path = tmp_path / "report.txt"
        path.write_bytes(body)
        with pytest.raises(ReportFileError, match=message):
            MetricsReport.read(path)


class TestDataIO:
    def test_motifs_fixed_length_and_distinct_columns(self):
        vocab = Vocabulary(81, 16)
        motifs = motif_map(vocab, np.random.default_rng(0))
        assert len(motifs) == 16
        for motif in motifs.values():
            assert len(motif) == MOTIF_LEN
        for j in range(MOTIF_LEN):
            column = [motifs[vocab.text_id(i)][j] for i in range(16)]
            assert len(set(column)) == 16

    def test_pairs_follow_motifs(self):
        vocab = Vocabulary(81, 16)
        rng = np.random.default_rng(1)
        motifs = motif_map(vocab, rng)
        pairs = gen_pairs(vocab, motifs, rng, 20, 2, 5)
        for text, speech in pairs:
            assert len(speech) == MOTIF_LEN * len(text)
            for i, t in enumerate(text):
                assert tuple(speech[MOTIF_LEN * i: MOTIF_LEN * (i + 1)]) == motifs[t]

    def test_motifs_of_inverts_the_corpus(self):
        vocab = Vocabulary(81, 16)
        rng = np.random.default_rng(3)
        motifs = motif_map(vocab, rng)
        pairs = gen_pairs(vocab, motifs, rng, 6, 2, 4)
        used = {t for text, _ in pairs for t in text}
        found = motifs_of(pairs)
        assert set(found) == used and len(used) < len(motifs)
        assert all(found[t] == motifs[t] for t in used)

    def test_corpus_roundtrip(self, tmp_path):
        vocab = Vocabulary(81, 16)
        rng = np.random.default_rng(2)
        pairs = gen_pairs(vocab, motif_map(vocab, rng), rng, 8, 2, 4)
        path = tmp_path / "corpus.txt"
        write_corpus(path, pairs)
        assert read_corpus(path) == pairs

    def test_corpus_without_pairs_named(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("\n\n")
        with pytest.raises(CorpusFileError, match="corpus.txt: no pairs"):
            read_corpus(path)

    def test_corpus_malformed_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("SPEECH 1 2 3\n")
        with pytest.raises(ValueError):
            read_corpus(path)

    def test_preference_roundtrip(self, tmp_path):
        records = [PreferencePair([5, 6], [1, 2, 3], [4, 5, 6])]
        path = tmp_path / "prefs.txt"
        write_preference_file(path, records)
        back = read_preference_file(path)
        assert back[0].context == [5, 6]
        assert back[0].preferred == [1, 2, 3]
        assert back[0].rejected == [4, 5, 6]
