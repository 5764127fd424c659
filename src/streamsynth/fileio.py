"""The one file-access rule that every reader and writer of the package follows.

Text files are UTF-8 with LF line ends. A reader names its format's typed
error: bytes that are not UTF-8, or a path that cannot be read (a directory,
no read permission), raise that error with the path in its message. A missing
file stays a ``FileNotFoundError``, and a path that cannot be written raises
its ``OSError``, which the command line reports as an error exit.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable

Error = Callable[[str], Exception]


def _read(path, error: Error, read):
    try:
        return read(Path(path))
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None


def read_text(path, error: Error) -> str:
    """The file as UTF-8 text, with CRLF and CR line ends read as LF."""
    return _read(path, error, lambda p: p.read_text(encoding="utf-8"))


def read_bytes(path, error: Error) -> bytes:
    return _read(path, error, Path.read_bytes)


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each line followed by LF, as UTF-8; ``lines`` is consumed before
    the file opens, so a line that raises leaves no file."""
    text = "".join(line + "\n" for line in lines)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def write_bytes(path, data: bytes) -> None:
    Path(path).write_bytes(data)
