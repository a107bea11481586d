"""JSON-file result cache keyed by content hashes.

One cache entry is one file ``<key>.json`` under the cache directory, where
``key`` is the task's content hash (see :mod:`repro.parallel.hashing`).
Writes are atomic (temp file + ``os.replace``) so a cache shared between
concurrent runs never exposes half-written entries; corrupt or unreadable
entries are treated as misses, never as errors.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Union


class ResultCache:
    """Directory-backed cache of JSON payloads keyed by content hash."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """File that does / would hold the entry for ``key``."""
        if not key or any(c in key for c in "/\\"):
            raise ValueError(f"invalid cache key {key!r}")
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached payload for ``key``, or ``None`` on a miss.

        A corrupt or unreadable entry is reported as a miss so the caller
        simply recomputes (and overwrites) it.
        """
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Atomically store ``payload`` under ``key``."""
        path = self.path_for(key)
        handle = tempfile.NamedTemporaryFile(
            mode="w",
            encoding="utf-8",
            dir=str(self.directory),
            prefix=f".{key}.",
            suffix=".tmp",
            delete=False,
        )
        try:
            with handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
