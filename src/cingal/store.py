"""Per-node content-addressable store and symbolic name binders.

The store maps digest keys to canonical bundle bytes and never updates
an existing entry; where update semantics are needed, the binders
provide them by rebinding symbolic names. Entries persist as one file
per key under ``<data-dir>/store/``. Binders live in memory; the node
persists only the service binder (sbinder), in ``binders.doc``.
"""

from __future__ import annotations

import threading
from pathlib import Path

from .bundle import Bundle, parse_bundle, serialize_bundle
from .errors import CorruptState, KeyNotFound, NotBound, SchemaViolation
from .guid import Guid, compute_guid


class Store:
    """Append-only content-addressed bundle storage."""

    def __init__(self, directory: str | Path | None = None,
                 digest: str = "md5"):
        self._dir = Path(directory) if directory is not None else None
        self._digest = digest
        self._entries: dict[Guid, bytes] = {}
        self._lock = threading.Lock()
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            self._load()

    def _load(self) -> None:
        for path in sorted(self._dir.glob("*.bundle")):
            data = path.read_bytes()
            key = Guid(path.stem)
            if compute_guid(data, self._digest) != key:
                raise CorruptState(f"store entry {path.name} fails its digest")
            self._entries[key] = data

    def put(self, b: Bundle | bytes) -> Guid:
        """Insert a bundle; returns its digest key. Idempotent on content."""
        data = b if isinstance(b, bytes) else serialize_bundle(b)
        key = compute_guid(data, self._digest)
        with self._lock:
            if key not in self._entries:
                self._entries[key] = data
                if self._dir is not None:
                    (self._dir / f"{key.hex}.bundle").write_bytes(data)
        return key

    def get_bytes(self, key: Guid) -> bytes:
        with self._lock:
            try:
                return self._entries[key]
            except KeyError:
                raise KeyNotFound(str(key)) from None

    def get(self, key: Guid) -> Bundle:
        return parse_bundle(self.get_bytes(key))

    def __contains__(self, key: Guid) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[Guid]:
        with self._lock:
            return sorted(self._entries, key=lambda g: g.hex)


class Binder:
    """Symbolic name -> value map with put/get/remove; rebind replaces.

    ``on_change(bindings)`` runs after each change, under the binder's lock.
    """

    def __init__(self, on_change=lambda bindings: None):
        self._bindings: dict[str, object] = {}
        self._lock = threading.Lock()
        self._on_change = on_change

    def put(self, name: str, value) -> None:
        if not name:
            raise SchemaViolation("binder names must be non-empty")
        with self._lock:
            if name in self._bindings and self._bindings[name] == value:
                return
            self._bindings[name] = value
            self._on_change(self._bindings)

    def get(self, name: str):
        with self._lock:
            try:
                return self._bindings[name]
            except KeyError:
                raise NotBound(name) from None

    def remove(self, name: str) -> None:
        with self._lock:
            if name not in self._bindings:
                raise NotBound(name)
            del self._bindings[name]
            self._on_change(self._bindings)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._bindings)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._bindings

    def __len__(self) -> int:
        with self._lock:
            return len(self._bindings)
