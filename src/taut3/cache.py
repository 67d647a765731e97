"""Content-addressed on-disk cache for derived data (today: torsion sums).

Keys are SHA-256 hashes of a canonical-JSON description of the inputs and the
package version, so an entry written by another version is a miss; each entry
is a JSON file with a versioned header and a payload checksum.  A
checksum mismatch (truncated write, manual edit) discards the entry and the
caller recomputes — corruption can cost time, never correctness.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from . import __version__

CACHE_VERSION = 1
ENV_VAR = "TAUT3_CACHE_DIR"


def cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "taut3"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_key(inputs) -> str:
    """Stable key for a JSON-serializable description of the inputs."""
    return hashlib.sha256(_canonical(inputs).encode()).hexdigest()


class Cache:
    """get/put of JSON payloads; disabled mode never touches the filesystem."""

    def __init__(self, directory: Path | None = None, enabled: bool = True):
        self.directory = Path(directory) if directory else cache_dir()
        self.enabled = enabled
        self.warnings: list[str] = []

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    @staticmethod
    def _key(inputs) -> str:
        return content_key({"taut3": __version__, "inputs": inputs})

    def get(self, inputs):
        """Payload for these inputs, or None on miss / corruption."""
        if not self.enabled:
            return None
        key = self._key(inputs)
        path = self._path(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
            if not isinstance(entry, dict):
                raise ValueError("not a JSON object")
            if entry.get("version") != CACHE_VERSION:
                raise ValueError("version mismatch")
            payload = entry["payload"]
            digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
            if digest != entry.get("checksum"):
                raise ValueError("checksum mismatch")
            return payload
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            self.warnings.append(f"cache entry {key[:12]}... corrupt ({exc}); recomputing")
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, inputs, payload) -> None:
        if not self.enabled:
            return
        key = self._key(inputs)
        self.directory.mkdir(parents=True, exist_ok=True)
        entry = {
            "version": CACHE_VERSION,
            "key": key,
            "checksum": hashlib.sha256(_canonical(payload).encode()).hexdigest(),
            "payload": payload,
        }
        # one temporary file per writer, so concurrent writers never interleave
        with tempfile.NamedTemporaryFile(
            "w", dir=self.directory, suffix=".tmp", delete=False
        ) as tmp:
            tmp.write(_canonical(entry))
        os.replace(tmp.name, self._path(key))
