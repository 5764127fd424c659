"""Named scalar metrics with provenance; lossless text round trip."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

ARTIFACT_VERSION = "streamsynth-0.1.0"


class ReportFileError(ValueError):
    """A metrics report is malformed; the message names the file and line."""


@dataclass
class MetricsReport:
    metrics: dict[str, float] = field(default_factory=dict)
    config_hash: str = ""
    seed: int = 0
    version: str = ARTIFACT_VERSION

    def to_text(self) -> str:
        lines = [
            f"provenance.version={self.version}",
            f"provenance.config_hash={self.config_hash}",
            f"provenance.seed={self.seed}",
        ]
        for name in sorted(self.metrics):
            lines.append(f"metric.{name}={self.metrics[name]!r}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="utf-8", newline="\n")

    @classmethod
    def from_text(cls, text: str) -> "MetricsReport":
        return cls._parse(text, "<text>")

    @classmethod
    def read(cls, path) -> "MetricsReport":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ReportFileError(f"{path}: not UTF-8 text") from None
        return cls._parse(text, path)

    @classmethod
    def _parse(cls, text: str, source) -> "MetricsReport":
        report = cls()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            key, _, value = line.partition("=")
            where = f"{source}:{lineno}"
            if key == "provenance.version":
                report.version = value
            elif key == "provenance.config_hash":
                report.config_hash = value
            elif key == "provenance.seed":
                report.seed = _number(int, value, where)
            elif key.startswith("metric."):
                report.metrics[key[len("metric."):]] = _number(float, value, where)
            else:
                raise ReportFileError(f"{where}: unknown report line {line!r}")
        return report


def _number(parse, value: str, where: str):
    try:
        return parse(value)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ReportFileError(f"{where}: {value!r} is not {kind}") from None
