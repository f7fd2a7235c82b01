"""Disk-backed ring table cache with integrity checking.

Tables are stored one compact JSON file per (n, k) under a cache
directory, `ring-N-K.v2.json`, holding a `grasscohom.ring-table/2`
payload (exponent vectors and integers, see `rings.table_to_dict`)
wrapped in an envelope carrying a sha256 checksum of the canonical JSON
payload.  Loads verify the checksum, then `rings.table_from_dict` checks
the structure: the relations, the number of degree sections, every
exponent vector's length, entries and degree, the basis sizes against the
q-binomial, pivots distinct and outside the basis, basis plus pivots
covering every monomial of each degree, basis indices in range, and
coefficient types.  A mismatch raises CacheIntegrityError rather than
silently rebuilding, so corruption is always surfaced (delete the file to
recover).  Files of other formats, such as `ring-N-K.v1.json`, are never
read: such a directory misses once and is rebuilt.  Writes go through a
temp file and os.replace, so a crash mid-write can never leave a
truncated table behind.

Directory resolution order: explicit argument, the GRASSCOHOM_CACHE_DIR
environment variable, then ~/.cache/grasscohom (respecting
XDG_CACHE_HOME).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .rings import RingSpec, RingTable, build_ring, table_from_dict, table_to_dict

ENV_CACHE_DIR = "GRASSCOHOM_CACHE_DIR"


class CacheIntegrityError(Exception):
    """A cached table failed its checksum or structural validation."""


def canonical_json(obj) -> str:
    """Deterministic JSON rendering used for checksums and comparisons."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def payload_checksum(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "grasscohom"


class DiskRingCache:
    """Memory-over-disk ring table cache.

    Duck-compatible with the in-memory RingCache (`get(spec)` returns a
    table), so it can be passed anywhere a cache is accepted.  Hit/miss
    counters and the bytes read from and written to table files are
    exposed for observability; they never change what is returned, so
    output built from a cached table is byte-identical to output built
    from a fresh one.
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = Path(directory) if directory is not None else default_cache_dir()
        self._memory: dict[tuple[int, int], RingTable] = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def path_for(self, spec: RingSpec) -> Path:
        # schema version in the name keeps incompatible formats apart
        return self.directory / f"ring-{spec.n}-{spec.k}.v2.json"

    def _load_disk(self, spec: RingSpec) -> RingTable | None:
        path = self.path_for(spec)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as err:
            raise CacheIntegrityError(f"cannot read {path}: {err}") from err
        self.bytes_read += len(raw)
        try:
            envelope = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise CacheIntegrityError(f"{path} is not valid JSON: {err}") from err
        if not isinstance(envelope, dict) or set(envelope) != {"checksum", "table"}:
            raise CacheIntegrityError(f"{path} has an unexpected envelope shape")
        payload = envelope["table"]
        expected = envelope["checksum"]
        actual = payload_checksum(payload)
        if actual != expected:
            raise CacheIntegrityError(
                f"{path} failed its checksum (stored {expected[:12]}..., "
                f"recomputed {actual[:12]}...)")
        try:
            table = table_from_dict(payload)
        except (KeyError, ValueError, TypeError) as err:
            raise CacheIntegrityError(f"{path} payload rejected: {err}") from err
        if table.spec != spec:
            raise CacheIntegrityError(
                f"{path} contains {table.spec}, expected {spec}")
        return table

    def _store_disk(self, spec: RingSpec, table: RingTable) -> None:
        payload = table_to_dict(table)
        envelope = {"checksum": payload_checksum(payload), "table": payload}
        data = canonical_json(envelope).encode("utf-8")
        path = self.path_for(spec)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.directory,
                                       prefix=path.name, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as err:
            raise CacheIntegrityError(f"cannot write {path}: {err}") from err
        self.bytes_written += len(data)

    def get(self, spec: RingSpec) -> RingTable:
        key = (spec.n, spec.k)
        table = self._memory.get(key)
        if table is not None:
            self.memory_hits += 1
            return table
        table = self._load_disk(spec)
        if table is not None:
            self.disk_hits += 1
        else:
            self.misses += 1
            table = build_ring(spec)
            self._store_disk(spec, table)
        self._memory[key] = table
        return table
