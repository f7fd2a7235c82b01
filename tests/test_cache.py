import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grasscohom.cache as cache_module
from grasscohom.cache import (
    ENV_CACHE_DIR,
    CacheIntegrityError,
    RingCache,
    canonical_json,
    default_cache_dir,
    payload_checksum,
)
from grasscohom.cli import main
from grasscohom.rings import RingSpec, build_ring


def test_canonical_json_is_order_insensitive():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b
    assert payload_checksum({"b": 1, "a": [1, 2]}) == payload_checksum(
        {"a": [1, 2], "b": 1}
    )


def test_miss_then_disk_hit_then_memory_hit(tmp_path):
    spec = RingSpec(4, 2)
    first = RingCache(tmp_path)
    table = first.get(spec)
    assert first.misses == 1
    assert first.path_for(spec).exists()

    # same instance: served from memory
    assert first.get(spec) is table
    assert first.memory_hits == 1

    # fresh instance: served from disk, identical content
    second = RingCache(tmp_path)
    reloaded = second.get(spec)
    assert second.disk_hits == 1
    assert reloaded.basis == table.basis
    assert reloaded.betti_numbers == table.betti_numbers


def test_disk_payload_is_deterministic(tmp_path):
    spec = RingSpec(5, 2)
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_cache = RingCache(a_dir)
    b_cache = RingCache(b_dir)
    a_cache.get(spec)
    b_cache.get(spec)
    a_bytes = a_cache.path_for(spec).read_bytes()
    b_bytes = b_cache.path_for(spec).read_bytes()
    assert a_bytes == b_bytes


def test_corrupt_payload_raises(tmp_path):
    spec = RingSpec(4, 2)
    cache = RingCache(tmp_path)
    cache.get(spec)
    path = cache.path_for(spec)

    path.write_text("not json at all")
    with pytest.raises(CacheIntegrityError):
        RingCache(tmp_path).get(spec)

    path.write_text(json.dumps({"wrong": "shape"}))
    with pytest.raises(CacheIntegrityError):
        RingCache(tmp_path).get(spec)


def test_tampered_table_raises(tmp_path):
    spec = RingSpec(4, 2)
    cache = RingCache(tmp_path)
    cache.get(spec)
    path = cache.path_for(spec)

    envelope = json.loads(path.read_text())
    section = envelope["table"]["degrees"][2]
    section["basis"] = section["basis"][:1]
    path.write_text(json.dumps(envelope))
    with pytest.raises(CacheIntegrityError):
        RingCache(tmp_path).get(spec)


def _put(value, *keys):
    def edit(payload):
        *head, last = keys
        for key in head:
            payload = payload[key]
        payload[last] = value
    return edit


# Edits to the stored G(6,2) payload.  Its degree-6 section is
#   basis [[2, 2], [0, 3]], reduction [[[4, 1], [[0, 3], [1, -1]]],
#                                      [[6, 0], [[0, 9], [1, -4]]]]
# and its degree-8 section reduces [2, 3] to [[0, 1]].
TAMPERS = {
    # drops c1^4*c2 = 3*c1^2*c2^2 - c2^3, so it would pass as a basis monomial
    "reduction-row-deleted": lambda t: t["degrees"][6]["reduction"].pop(0),
    "pivot-in-basis": _put([2, 2], "degrees", 6, "reduction", 0, 0),
    "pivot-repeats": lambda t: t["degrees"][6]["reduction"].append([[4, 1], [[0, 1]]]),
    "basis-repeats": _put([2, 2], "degrees", 6, "basis", 1),
    # c2^3 demoted to a pivot: one basis monomial short of [6 2]_q in degree 6
    "basis-size-wrong": _put(
        {"basis": [[2, 2]],
         "reduction": [[[0, 3], []], [[4, 1], [[0, 3]]], [[6, 0], [[0, 9]]]]},
        "degrees", 6),
    "exponents-wrong-length": _put([2, 2, 0], "degrees", 6, "basis", 0),
    "exponents-wrong-degree": _put([5, 1], "degrees", 6, "reduction", 0, 0),
    "exponent-negative": _put([8, -1], "degrees", 6, "basis", 0),
    "exponent-float": _put([2.0, 2], "degrees", 6, "basis", 0),
    "degree-section-added": lambda t: t["degrees"].append({"basis": [], "reduction": []}),
    "coefficient-true": _put(True, "degrees", 8, "reduction", 0, 1, 0, 1),
    "coefficient-float": _put(3.0, "degrees", 6, "reduction", 0, 1, 0, 1),
    "basis-index-out-of-range": _put(2, "degrees", 6, "reduction", 0, 1, 1, 0),
    "basis-index-repeats": _put([[0, 3], [0, -1]], "degrees", 6, "reduction", 0, 1),
    "relations-differ": _put("c1^5", "relations", 0),
    # c2^4 demoted to a pivot reducing to zero, c1^2*c2^3 promoted to basis
    "top-generator-vanishes": _put(
        {"basis": [[2, 3]],
         "reduction": [[[0, 4], []], [[4, 2], [[0, 2]]], [[6, 1], [[0, 5]]],
                       [[8, 0], [[0, 14]]]]},
        "degrees", 8),
}


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_tampered_table_with_recomputed_checksum_raises(tmp_path, name):
    spec = RingSpec(6, 2)
    cache = RingCache(tmp_path)
    cache.get(spec)
    path = cache.path_for(spec)
    envelope = json.loads(path.read_text())
    payload = envelope["table"]
    assert payload["degrees"][6] == {
        "basis": [[2, 2], [0, 3]],
        "reduction": [[[4, 1], [[0, 3], [1, -1]]], [[6, 0], [[0, 9], [1, -4]]]],
    }
    assert payload["degrees"][8]["reduction"][0] == [[2, 3], [[0, 1]]]

    TAMPERS[name](payload)
    envelope["checksum"] = payload_checksum(payload)
    path.write_text(canonical_json(envelope))
    with pytest.raises(CacheIntegrityError):
        RingCache(tmp_path).get(spec)
    assert main(["ring", "6", "2", "--cache-dir", str(tmp_path)]) == 3


def test_v1_files_are_never_read(tmp_path):
    (tmp_path / "ring-4-2.v1.json").write_text("not json at all")
    cache = RingCache(tmp_path)
    table = cache.get(RingSpec(4, 2))
    assert cache.misses == 1 and cache.disk_hits == 0
    assert table.betti_numbers == [1, 1, 2, 1, 1]


def test_byte_counters_match_the_file_size(tmp_path):
    spec = RingSpec(5, 2)
    first = RingCache(tmp_path)
    table = first.get(spec)
    size = first.path_for(spec).stat().st_size
    assert size > 0
    assert (first.misses, first.bytes_read, first.bytes_written) == (1, 0, size)

    second = RingCache(tmp_path)
    reloaded = second.get(spec)
    assert (second.disk_hits, second.bytes_read, second.bytes_written) == (1, size, 0)
    assert reloaded.basis == table.basis
    assert reloaded.reduction == table.reduction


def test_checksum_must_match_recomputation(tmp_path):
    spec = RingSpec(4, 2)
    cache = RingCache(tmp_path)
    cache.get(spec)
    path = cache.path_for(spec)

    envelope = json.loads(path.read_text())
    envelope["checksum"] = "0" * 64
    path.write_text(json.dumps(envelope))
    with pytest.raises(CacheIntegrityError) as info:
        RingCache(tmp_path).get(spec)
    assert "checksum" in str(info.value)


def test_file_for_wrong_spec_raises(tmp_path):
    cache = RingCache(tmp_path)
    cache.get(RingSpec(4, 2))
    # drop the (4,2) payload where (4,1) is expected
    wrong = RingCache(tmp_path)
    os.replace(cache.path_for(RingSpec(4, 2)), wrong.path_for(RingSpec(4, 1)))
    with pytest.raises(CacheIntegrityError):
        wrong.get(RingSpec(4, 1))


def test_no_temp_files_left_behind(tmp_path):
    cache = RingCache(tmp_path)
    cache.get(RingSpec(4, 2))
    cache.get(RingSpec(5, 2))
    leftovers = [p for p in tmp_path.iterdir() if not p.name.endswith(".json")]
    assert leftovers == []


def test_env_var_controls_default_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "override"))
    assert default_cache_dir() == tmp_path / "override"
    assert main(["ring", "4", "2"]) == 0
    assert RingCache(tmp_path / "override").path_for(RingSpec(4, 2)).exists()


def test_memory_only_cache_never_touches_the_disk(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
    calls = []
    for name in ("_load_disk", "_store_disk"):
        monkeypatch.setattr(RingCache, name,
                            lambda self, *args, name=name: calls.append(name))
    store = RingCache()
    store.get(RingSpec(4, 2))
    assert (store.misses, store.disk_hits, store.bytes_written) == (1, 0, 0)
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_one_cache_class_behind_every_name():
    import grasscohom.rings as rings
    assert rings.RingCache is cache_module.RingCache is cache_module.DiskRingCache
    assert rings.DEFAULT_CACHE is cache_module.DEFAULT_CACHE
    src = str(Path(cache_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("cache", "rings", "maps", "solver", "cli"):
        proc = subprocess.run([sys.executable, "-c", f"import grasscohom.{module}"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, (module, proc.stderr)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_table_files_get_the_umask_mode(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        store = RingCache(tmp_path)
        store.get(RingSpec(4, 2))
    finally:
        os.umask(old)
    assert store.path_for(RingSpec(4, 2)).stat().st_mode & 0o777 == mode


def test_file_bytes_are_pinned(tmp_path):
    store = RingCache(tmp_path)
    store.get(RingSpec(6, 2))
    raw = store.path_for(RingSpec(6, 2)).read_bytes()
    assert hashlib.sha256(raw).hexdigest() == (
        "4db413f3d9d0e36b65f6e9b986e247366d306a5adb721b3c18b9178fc0dc4e42")


def test_changed_payload_digit_fails_the_checksum(tmp_path):
    spec = RingSpec(6, 2)
    RingCache(tmp_path).get(spec)
    path = RingCache(tmp_path).path_for(spec)
    raw = path.read_bytes()
    # degree 6 reduces c1^6 to 9*c2^3 - 4*c1^2*c2^2; make the 9 an 8
    assert raw.count(b"[[6,0],[[0,9],[1,-4]]]") == 1
    path.write_bytes(raw.replace(b"[[6,0],[[0,9],", b"[[6,0],[[0,8],"))
    with pytest.raises(CacheIntegrityError, match="checksum"):
        RingCache(tmp_path).get(spec)


# Rewrites of a valid G(6,2) file that keep a matching sha256 of the payload.
LAYOUTS = {
    "whitespace": lambda raw: json.dumps(json.loads(raw)).encode(),
    "prefix-key": lambda raw: raw.replace(b'{"checksum":', b'{"checksun":', 1),
    "separator-key": lambda raw: raw.replace(b'","table":', b'","tabla":', 1),
    "suffix": lambda raw: raw[:-1] + b"]",
}


@pytest.mark.parametrize("name", sorted(LAYOUTS))
def test_non_canonical_layout_is_refused(tmp_path, name):
    spec = RingSpec(6, 2)
    RingCache(tmp_path).get(spec)
    path = RingCache(tmp_path).path_for(spec)
    raw = path.read_bytes()
    envelope = json.loads(raw)
    assert envelope["checksum"] == payload_checksum(envelope["table"])
    path.write_bytes(LAYOUTS[name](raw))
    with pytest.raises(CacheIntegrityError, match="checksum"):
        RingCache(tmp_path).get(spec)


def test_cached_table_matches_fresh_build(tmp_path):
    spec = RingSpec(6, 2)
    cache = RingCache(tmp_path)
    stored = cache.get(spec)
    fresh = build_ring(spec)
    assert stored.basis == fresh.basis
    assert stored.betti_numbers == fresh.betti_numbers
    reloaded = RingCache(tmp_path).get(spec)
    assert reloaded.basis == fresh.basis
