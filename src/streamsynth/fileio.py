"""The one file-access rule that every reader and writer of the package follows.

Text files are UTF-8 with LF line ends. A reader names its format's typed
error: bytes that are not UTF-8, or a path that cannot be read (a directory,
no read permission), raise that error with the path in its message. A missing
file stays a ``FileNotFoundError``, and a path that cannot be written raises
its ``OSError``, which the command line reports as an error exit.

Binary files are written from a list of parts and read from an open file, so
neither side holds a second copy of a large array: ``write_parts`` hands each
part's buffer to the file as it is, and a reader of ``read_binary`` reads
each value straight into the array that keeps it.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

Error = Callable[[str], Exception]


@contextmanager
def _reading(path, error: Error) -> Iterator[None]:
    try:
        yield
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None


def read_text(path, error: Error) -> str:
    """The file as UTF-8 text, with CRLF and CR line ends read as LF."""
    with _reading(path, error):
        return Path(path).read_text(encoding="utf-8")


@contextmanager
def read_binary(path, error: Error) -> Iterator[BinaryIO]:
    """The file, open for binary reading until the block ends. A path that
    cannot be opened or read raises ``error``, as ``read_text`` does."""
    with _reading(path, error), open(path, "rb") as f:
        yield f


def write_lines(path, lines: Iterable[str]) -> None:
    """Write each line followed by LF, as UTF-8; ``lines`` is consumed before
    the file opens, so a line that raises leaves no file."""
    text = "".join(line + "\n" for line in lines)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def write_parts(path, parts: Iterable) -> None:
    """Write the bytes-like ``parts`` (``bytes``, C-contiguous arrays) in turn
    as one binary file. Each part's buffer goes to the file as it is, so no
    part is copied and the parts are never joined."""
    with open(path, "wb") as f:
        for part in parts:
            f.write(part)
