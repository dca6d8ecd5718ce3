"""Run records and the optional on-disk result cache.

Every command run can be captured as a :class:`RunRecord`: the resolved
parameter set, the command name, the primary outputs and enough
provenance (truncation, tolerances, oracle settings, package version) to
reproduce the run bit-identically.  Records serialize to JSON and round
trip losslessly; data files themselves never carry timestamps, so
identical flags give byte-identical primary outputs while the sidecar
record holds the when/how.

Expensive results (finite-difference oracle runs, acceptance artifacts)
can be cached across processes in the directory named by the
MODEGUIDE_CACHE environment variable; caching is disabled when the
variable is unset.  Entries are keyed on a digest of the package's
sources as well as the caller's key, so no entry written by other code
is served, and they are written through a temporary file that is renamed
into place, so a reader never sees a half-written entry (an unreadable
entry counts as a miss).
"""

from __future__ import annotations

import dataclasses
import datetime
import functools
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["RunRecord", "cache_get", "cache_put", "cache_dir"]

CACHE_ENV = "MODEGUIDE_CACHE"


@dataclasses.dataclass
class RunRecord:
    """Reproducibility sidecar for one command invocation."""

    command: str
    config: dict[str, Any]
    outputs: dict[str, Any]
    provenance: dict[str, Any]
    created: str = ""

    def __post_init__(self) -> None:
        if not self.created:
            self.created = datetime.datetime.now(datetime.timezone.utc).isoformat()

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        data = json.loads(text)
        return cls(**data)


def cache_dir() -> Path | None:
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


@functools.cache
def _source_digest() -> str:
    """sha256 over the package's ``*.py`` sources, read on the first cache use."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def _full_key(key: dict[str, Any]) -> dict[str, Any]:
    return {"source": _source_digest(), "key": key}


def _cache_path(key: dict[str, Any]) -> Path | None:
    root = cache_dir()
    if root is None:
        return None
    blob = json.dumps(_full_key(key), sort_keys=True).encode()
    return root / (hashlib.sha256(blob).hexdigest()[:24] + ".json")


def cache_get(key: dict[str, Any]) -> Any | None:
    path = _cache_path(key)
    if path is None:
        return None
    try:
        return json.loads(path.read_text())["payload"]
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        # absent, truncated or garbled: a miss, recomputed and overwritten
        return None


def cache_put(key: dict[str, Any], payload: Any) -> None:
    path = _cache_path(key)
    if path is None:
        return
    text = json.dumps({"key": _full_key(key), "payload": payload}, sort_keys=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
