"""Readers of the file formats fail on bad input with their typed error.

Each fuzz test mutates a valid file (byte flips, insertions, deletions,
replacements, truncation) and requires that the reader either parses the
result or raises the format's typed ``ValueError`` subclass with the path in
its message; any other exception fails the test.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamsynth import cfm, dataio, fsq, rl
from streamsynth.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from streamsynth.config import ConfigError, load_config
from streamsynth.metrics import MetricsReport, ReportFileError
from streamsynth.persist import load_lm, save_lm
from streamsynth.seqlm import ToyLM, Vocabulary

VOCAB = Vocabulary(27, 8)


def _corpus(path):
    rng = np.random.default_rng(0)
    dataio.write_corpus(path, dataio.gen_pairs(VOCAB, dataio.motif_map(VOCAB, rng), rng,
                                               3, 2, 3))


def _preferences(path):
    dataio.write_preference_file(path, [rl.PreferencePair([30, 31], [1, 2, 3], [4, 5]),
                                        rl.PreferencePair([29], [6], [7, 8])])


def _speaker(path):
    dataio.write_speaker_file(path, np.array([0.5, -1.25, 3.0e-4]))


def _read_speaker(path):
    return dataio.read_speaker_file(path, 3)


def _tokens(path):
    fsq.write_token_file(path, [0, 5, 26, 13], fsq.FsqConfig(3, 1))


def _features(path):
    cfm.write_feature_file(path, cfm.FeatureSeq([[0.5, -1.25], [2.0, 3.75], [0.0, 1e-3]]))


def _checkpoint(path):
    save_checkpoint(path, "demo", [("w", np.array([[1.5, -2.0]])), ("b", np.array([0.25]))],
                    {"dim": "2"})


FORMATS = {
    "corpus": (_corpus, dataio.read_corpus, dataio.CorpusFileError),
    "preferences": (_preferences, dataio.read_preference_file, dataio.PreferenceFileError),
    "speaker": (_speaker, _read_speaker, dataio.SpeakerFileError),
    # a token outside the codebook is the codec's RangeError, which names the path too
    "tokens": (_tokens, fsq.read_token_file, (fsq.TokenFileError, fsq.RangeError)),
    "features": (_features, cfm.read_feature_file, cfm.FeatureFileError),
    "checkpoint": (_checkpoint, load_checkpoint, CheckpointError),
}

_edit = st.tuples(st.sampled_from(["flip", "insert", "delete", "replace", "truncate"]),
                  st.integers(0, 2**16), st.binary(min_size=1, max_size=4))


def _mutate(raw: bytes, edits) -> bytes:
    out = bytearray(raw)
    for op, pos, data in edits:
        i = pos % (len(out) + 1)
        if op == "flip" and i < len(out):
            out[i] ^= data[0] or 1
        elif op == "insert":
            out[i:i] = data
        elif op == "delete":
            del out[i : i + len(data)]
        elif op == "replace":
            out[i : i + len(data)] = data
        elif op == "truncate":
            del out[i:]
    return bytes(out)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("formats")
    files = {}
    for name, (write, read, _) in FORMATS.items():
        path = root / f"valid_{name}"
        write(path)
        read(path)  # the unmutated file parses
        files[name] = path.read_bytes()
    return root, files


@pytest.mark.parametrize("name", list(FORMATS))
def test_mutated_file_parses_or_raises_typed_error(valid_files, name):
    root, files = valid_files
    _, read, error = FORMATS[name]
    path = root / f"mutated_{name}"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(_edit, min_size=1, max_size=4))
    def check(edits):
        path.write_bytes(_mutate(files[name], edits))
        try:
            read(path)
        except error as exc:
            assert str(path) in str(exc)

    check()


@pytest.mark.parametrize("name", list(FORMATS))
def test_non_utf8_names_path(valid_files, name):
    root, files = valid_files
    _, read, error = FORMATS[name]
    raw = files[name]
    # inside the text for the line formats, inside the metadata for checkpoints
    path = root / f"latin1_{name}"
    path.write_bytes(raw[:14] + b"\xe9" + raw[14:])
    with pytest.raises(error, match="not UTF-8"):
        read(path)


@pytest.mark.parametrize("name", list(FORMATS))
def test_directory_names_path(tmp_path, name):
    _, read, error = FORMATS[name]
    with pytest.raises(error, match=re.escape(f"{tmp_path}: cannot read")):
        read(tmp_path)


@pytest.mark.parametrize("read,error", [
    (MetricsReport.read, ReportFileError),
    (load_config, ConfigError),
])
def test_directory_names_path_report_and_config(tmp_path, read, error):
    with pytest.raises(error, match=re.escape(f"{tmp_path}: cannot read")):
        read(tmp_path)


def test_token_outside_codebook_named_with_line(tmp_path):
    path = tmp_path / "tokens.txt"
    path.write_text("#fsq D=2 K=1\n3\n\n9\n")
    with pytest.raises(fsq.RangeError, match="tokens.txt:4: token 9 outside codebook"):
        fsq.read_token_file(path)


def test_token_writer_leaves_no_file_for_token_outside_codebook(tmp_path):
    path = tmp_path / "tokens.txt"
    with pytest.raises(fsq.RangeError):
        fsq.write_token_file(path, [3, 9], fsq.FsqConfig(2, 1))
    assert not path.exists()


@pytest.mark.parametrize("read,error,text", [
    (dataio.read_corpus, dataio.CorpusFileError, "TEXT 28 29 | SPEECH 1 2\nTEXT 28 x | SPEECH 3\n"),
    (dataio.read_corpus, dataio.CorpusFileError, "TEXT 28 | SPEECH 1 2.5\n"),
    (dataio.read_preference_file, dataio.PreferenceFileError, "Y 30 | W 1 | L 2\n\nY 30 | W 1 | L q\n"),
])
def test_non_integer_token_named_with_line(tmp_path, read, error, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    line = len(text.rstrip("\n").split("\n"))
    with pytest.raises(error, match=f"bad.txt:{line}: non-integer token"):
        read(path)


def test_preference_empty_field_named_with_line(tmp_path):
    path = tmp_path / "prefs.txt"
    path.write_text("Y 30 | W 1 | L 2\nY | W 1 | L 2\n")
    with pytest.raises(dataio.PreferenceFileError, match="prefs.txt:2: .*non-empty"):
        dataio.read_preference_file(path)


@pytest.mark.parametrize("text,why", [
    ("0.1 abc 0.3\n", "non-numeric value"),
    ("0.1 nan 0.3\n", "non-finite value"),
    ("0.1 -inf 0.3\n", "non-finite value"),
    ("0.1 0.2\n", "2 values, expected 3"),
    ("", "0 values, expected 3"),
])
def test_speaker_file_errors(tmp_path, text, why):
    path = tmp_path / "speaker.txt"
    path.write_text(text)
    with pytest.raises(dataio.SpeakerFileError, match=f"speaker.txt: {why}"):
        dataio.read_speaker_file(path, 3)


def test_speaker_file_roundtrip_bytes(tmp_path):
    path = tmp_path / "speaker.txt"
    vector = np.array([0.1, -2.5e-7, 1.0 / 3.0])
    dataio.write_speaker_file(path, vector)
    assert path.read_bytes() == b"0.1 -2.5e-07 0.3333333333333333\n"
    assert np.array_equal(dataio.read_speaker_file(path, 3), vector)


@pytest.mark.parametrize("shape", ["2,x", "-1,-2", "1.5", "2,,1"])
def test_checkpoint_non_integer_shape(tmp_path, shape):
    path = tmp_path / "bad.ssyn"
    save_checkpoint(path, "demo", [("w", np.zeros((1, 2)))])
    raw = path.read_bytes()
    meta_len = int.from_bytes(raw[8:12], "little")
    meta = raw[12 : 12 + meta_len].replace(b"shape.w=1,2", b"shape.w=" + shape.encode())
    path.write_bytes(raw[:8] + len(meta).to_bytes(4, "little") + meta + raw[12 + meta_len:])
    with pytest.raises(CheckpointError, match="bad.ssyn: shape.w="):
        load_checkpoint(path)


def _resave_without(src, dst, key):
    module, params, meta = load_checkpoint(src)
    extra = {k: v for k, v in meta.items()
             if k != "module" and not k.startswith("shape.") and k != key}
    save_checkpoint(dst, module, list(params.items()), extra)


class TestModelMetadata:
    @pytest.fixture
    def lm_path(self, tmp_path):
        path = tmp_path / "lm.ssyn"
        save_lm(path, ToyLM(VOCAB, dim=8, n_blocks=1, max_len=16))
        return path

    def test_missing_key_names_path_and_key(self, lm_path, tmp_path):
        bad = tmp_path / "nodim.ssyn"
        _resave_without(lm_path, bad, "dim")
        with pytest.raises(CheckpointError, match=r"nodim.ssyn: checkpoint lacks 'dim'"):
            load_lm(bad)

    def test_non_integer_value_names_path(self, lm_path, tmp_path):
        module, params, meta = load_checkpoint(lm_path)
        extra = {k: v for k, v in meta.items() if k != "module" and not k.startswith("shape.")}
        bad = tmp_path / "wide.ssyn"
        save_checkpoint(bad, module, list(params.items()), {**extra, "dim": "eight"})
        with pytest.raises(CheckpointError, match="wide.ssyn"):
            load_lm(bad)

    def test_wrong_module_names_both(self, tmp_path):
        path = tmp_path / "other.ssyn"
        save_checkpoint(path, "fsq.FsqCodec", [])
        with pytest.raises(CheckpointError, match="other.ssyn: .*fsq.FsqCodec.*seqlm.ToyLM"):
            load_lm(path)
