"""The one file-access rule, and the guard that keeps every module on it."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from streamsynth.fileio import read_binary, read_text, write_lines, write_parts

SRC = Path(__file__).resolve().parents[1] / "src" / "streamsynth"
FILE_METHODS = {"read_text", "write_text", "read_bytes", "write_bytes"}


class Bad(ValueError):
    pass


def file_calls(source: str) -> list[int]:
    """Line numbers of calls to ``open`` or to a file method other than ``fileio``'s."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open" or isinstance(f, ast.Attribute) \
                and f.attr in FILE_METHODS \
                and not (isinstance(f.value, ast.Name) and f.value.id == "fileio"):
            found.append(node.lineno)
    return found


def test_guard_finds_direct_file_access():
    source = ("open(p)\nPath(p).read_text()\np.write_text(s)\nfileio.read_text(p, E)\n"
              "read_bytes(p, E)\np.write_bytes(b)\n")
    assert file_calls(source) == [1, 2, 3, 6]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "fileio.py"))
def test_module_reads_and_writes_through_fileio(module):
    assert file_calls((SRC / module).read_text(encoding="utf-8")) == [], \
        f"{module} opens or reads a file itself; use streamsynth.fileio"


def _read_binary(path, error) -> bytes:
    with read_binary(path, error) as f:
        return f.read()


@pytest.mark.parametrize("read", [read_text, pytest.param(_read_binary, id="read_binary")])
def test_unreadable_path_is_the_callers_error(tmp_path, read):
    with pytest.raises(Bad, match="^" + re.escape(f"{tmp_path}: cannot read (")):
        read(tmp_path, Bad)
    with pytest.raises(FileNotFoundError):
        read(tmp_path / "missing", Bad)


def test_text_is_utf8_with_lf(tmp_path):
    path = tmp_path / "t.txt"
    write_lines(path, ["a", "é"])
    assert path.read_bytes() == "a\né\n".encode("utf-8")
    path.write_bytes(b"a\r\nb\rc\n")
    assert read_text(path, Bad) == "a\nb\nc\n"
    path.write_bytes(b"caf\xe9\n")
    with pytest.raises(Bad, match="t.txt: not UTF-8 text"):
        read_text(path, Bad)


def test_parts_are_written_in_turn_without_joining(tmp_path):
    path = tmp_path / "b.bin"
    values = np.array([[1.5, -2.0], [0.25, 3.0]])
    write_parts(path, [b"head", values, b"", values[1]])
    assert _read_binary(path, Bad) == b"head" + values.tobytes() + values[1].tobytes()
