"""Named scalar metrics with provenance; lossless text round trip."""

from __future__ import annotations

from dataclasses import dataclass, field

from .fileio import read_text, write_lines

ARTIFACT_VERSION = "streamsynth-0.1.0"


class ReportFileError(ValueError):
    """A metrics report is malformed; the message names the file and line."""


@dataclass
class MetricsReport:
    metrics: dict[str, float] = field(default_factory=dict)
    config_hash: str = ""
    seed: int = 0
    version: str = ARTIFACT_VERSION

    def _lines(self) -> list[str]:
        lines = [
            f"provenance.version={self.version}",
            f"provenance.config_hash={self.config_hash}",
            f"provenance.seed={self.seed}",
        ]
        for name in sorted(self.metrics):
            lines.append(f"metric.{name}={self.metrics[name]!r}")
        return lines

    def to_text(self) -> str:
        return "".join(line + "\n" for line in self._lines())

    def write(self, path) -> None:
        write_lines(path, self._lines())

    @classmethod
    def from_text(cls, text: str) -> "MetricsReport":
        return cls._parse(text, "<text>")

    @classmethod
    def read(cls, path) -> "MetricsReport":
        return cls._parse(read_text(path, ReportFileError), path)

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
