"""The one ring table cache: memory, then an optional directory, then a build.

`RingCache(directory=None)` looks a table up in memory, then on disk when
it has a directory, and otherwise builds it; without a directory it never
touches the disk.  `get_table` uses the memory-only `DEFAULT_CACHE` when
no cache is passed.

A table file, `ring-N-K.v2.json`, is exactly `{"checksum":"`, 64 lowercase
hex digits, `","table":`, the canonical JSON payload (`rings.table_to_dict`
with sorted keys and no whitespace) and `}`.  The checksum is the sha256
of the payload bytes as stored, so a load checks that layout, hashes the
payload slice and decodes only it; `rings.table_from_dict` then checks the
structure.  Any mismatch raises CacheIntegrityError rather than silently
rebuilding (delete the file to recover).  Other formats, such as
`ring-N-K.v1.json`, are never read.  Writes go through a temp file and
os.replace, so a crash never leaves a truncated table, and files get the
mode open() gives under the process umask.

The CLI's directory is `--cache-dir`, else `default_cache_dir()`: the
GRASSCOHOM_CACHE_DIR environment variable, then ~/.cache/grasscohom
(respecting XDG_CACHE_HOME).
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from pathlib import Path

from .rings import RingSpec, RingTable, build_ring, table_from_dict, table_to_dict

ENV_CACHE_DIR = "GRASSCOHOM_CACHE_DIR"

# the canonical envelope {"checksum":"<64 hex>","table":<payload>}
_PREFIX = b'{"checksum":"'
_MIDDLE = b'","table":'
_CHECKSUM_END = len(_PREFIX) + 64
_PAYLOAD_START = _CHECKSUM_END + len(_MIDDLE)


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


class RingCache:
    """Ring table cache over memory and an optional directory.

    Hit/miss counters and the bytes read from and written to table files
    are exposed for observability; they never change what is returned, so
    output built from a cached table is byte-identical to output built
    from a fresh one.
    """

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = Path(directory) if directory is not None else None
        self._tables: dict[tuple[int, int], RingTable] = {}
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
        if (not raw.startswith(_PREFIX) or not raw.endswith(b"}")
                or raw[_CHECKSUM_END:_PAYLOAD_START] != _MIDDLE):
            raise CacheIntegrityError(
                f"{path} is not a checksum envelope in canonical layout")
        stored = raw[len(_PREFIX):_CHECKSUM_END].decode("ascii", "replace")
        body = raw[_PAYLOAD_START:-1]
        actual = hashlib.sha256(body).hexdigest()
        if actual != stored:
            raise CacheIntegrityError(
                f"{path} failed its checksum (stored {stored[:12]}..., "
                f"recomputed {actual[:12]}...)")
        try:
            # json.JSONDecodeError and UnicodeDecodeError are ValueErrors
            table = table_from_dict(json.loads(body))
        except (KeyError, ValueError, TypeError) as err:
            raise CacheIntegrityError(f"{path} payload rejected: {err}") from err
        if table.spec != spec:
            raise CacheIntegrityError(
                f"{path} contains {table.spec}, expected {spec}")
        return table

    def _store_disk(self, spec: RingSpec, table: RingTable) -> None:
        body = canonical_json(table_to_dict(table)).encode("utf-8")
        checksum = hashlib.sha256(body).hexdigest().encode("ascii")
        data = _PREFIX + checksum + _MIDDLE + body + b"}"
        path = self.path_for(spec)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            try:
                # mode "x" creates with 0o666 under the umask, as open() does
                with open(tmp, "xb") as handle:
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
        table = self._tables.get(key)
        if table is not None:
            self.memory_hits += 1
            return table
        table = self._load_disk(spec) if self.directory is not None else None
        if table is not None:
            self.disk_hits += 1
        else:
            self.misses += 1
            table = build_ring(spec)
            if self.directory is not None:
                self._store_disk(spec, table)
        self._tables[key] = table
        return table


# perfbench/ binds this name; it is the same class
DiskRingCache = RingCache

DEFAULT_CACHE = RingCache()


def get_table(spec: RingSpec, cache: RingCache | None = None) -> RingTable:
    """Table lookup through the given cache, or the process-wide default."""
    return (cache if cache is not None else DEFAULT_CACHE).get(spec)
