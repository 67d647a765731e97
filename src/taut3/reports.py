"""Structured run reports.

A report is a tree of sections, each carrying values, the tolerances and
resolutions they were computed at, and any warnings raised along the way.
Wall-clock timings live in a separate block so two reports from identical
inputs are byte-identical everywhere else.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

REPORT_VERSION = 3


def manifest_digest(data) -> str:
    """SHA-256 of a manifest's canonical JSON, blind to key order and layout."""
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    if isinstance(value, float):
        return float(value)
    return value


@dataclass
class Section:
    name: str
    values: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_dict(self):
        return {
            "values": _jsonable(self.values),
            "tolerances": _jsonable(self.tolerances),
            "metadata": _jsonable(self.metadata),
            "warnings": list(self.warnings),
        }


@dataclass
class InvariantReport:
    manifest_digest: str
    sections: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def section(self, name: str) -> Section:
        if name not in self.sections:
            self.sections[name] = Section(name)
        return self.sections[name]

    def to_dict(self):
        return {
            "report_version": REPORT_VERSION,
            "manifest_digest": self.manifest_digest,
            "sections": {k: self.sections[k].to_dict() for k in sorted(self.sections)},
            "timings": {k: self.timings[k] for k in sorted(self.timings)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    def to_text(self) -> str:
        lines = [f"taut3 report v{REPORT_VERSION}  manifest {self.manifest_digest[:12]}"]
        for name in sorted(self.sections):
            sec = self.sections[name]
            lines.append(f"\n[{name}]")
            for k in sorted(sec.values):
                lines.append(f"  {k} = {_jsonable(sec.values[k])!r}")
            for k in sorted(sec.tolerances):
                lines.append(f"  tolerance:{k} = {sec.tolerances[k]!r}")
            for k in sorted(sec.metadata):
                lines.append(f"  meta:{k} = {_jsonable(sec.metadata[k])!r}")
            for w in sec.warnings:
                lines.append(f"  warning: {w}")
        if self.timings:
            lines.append("\n[timings]")
            for k in sorted(self.timings):
                lines.append(f"  {k} = {self.timings[k]:.3f}s")
        return "\n".join(lines) + "\n"
