import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grasscohom.cli as cli
import grasscohom.rings as rings
from grasscohom.cache import RingCache
from grasscohom.cli import main
from grasscohom.rings import RingSpec
from grasscohom.solver import admissible_tuples


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ring_json_golden(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "ring", "4", "2",
                           "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["betti_topological"] == [1, 0, 1, 0, 2, 0, 1, 0, 1]
    assert payload["total_rank"] == 6
    assert payload["complex_dimension"] == 4
    assert payload["topological_dimension"] == 8
    assert payload["top_power"]["coefficient"] == 2
    assert payload["top_power"]["verified"] is True
    assert payload["duality_note"] is None


def test_ring_duality_note(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "ring", "4", "3",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    assert "note:" in out
    assert "G(4,1)" in out


def test_ring_invalid_parameters(capsys, tmp_path):
    code, _, err = run_cli(capsys, "ring", "4", "9",
                           "--cache-dir", str(tmp_path))
    assert code == 2
    assert "invalid parameters" in err


def test_verify_facts_all_pass(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "verify-facts", "5", "2",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("FACT ")]
    assert len(lines) == 6
    assert all(": PASS" in l for l in lines)


def test_verify_facts_computes_each_rank_profile_once(capsys, tmp_path,
                                                     monkeypatch):
    import grasscohom.maps as maps
    calls = []
    original = maps.rank_profile

    def counting(h, cache=None):
        calls.append((h.source, h.target))
        return original(h, cache)

    monkeypatch.setattr(maps, "rank_profile", counting)
    monkeypatch.setattr(cli, "rank_profile", counting, raising=False)
    code, _, _ = run_cli(capsys, "verify-facts", "6", "3",
                         "--cache-dir", str(tmp_path))
    assert code == 0
    assert len(calls) == 2
    assert len(set(calls)) == 2


def test_certify_only_trivial(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "certify", "1", "2", "5", "3",
                           "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["conclusion"] == "only-trivial"
    assert payload["method"] == "dimension-shortcut"


def test_certify_unverified_hypotheses(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "certify", "2", "2", "9", "5",
                           "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 4
    payload = json.loads(out)
    assert payload["conclusion"] == "unverified-hypotheses"


def test_conjecture_exit_codes(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "conjecture", "4", "2",
                           "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["conclusion"] == "only-trivial"

    # starved budget cannot decide, which is reported, not hidden
    code, out, _ = run_cli(capsys, "conjecture", "5", "2",
                           "--budget-steps", "1",
                           "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 5
    assert json.loads(out)["conclusion"] == "inconclusive"


def test_bad_budget_is_invalid(capsys, tmp_path):
    code, _, err = run_cli(capsys, "conjecture", "4", "2",
                           "--budget-steps", "0",
                           "--cache-dir", str(tmp_path))
    assert code == 2
    assert "invalid parameters" in err


def test_scan_emits_ndjson(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "scan", "1", "2", "6", "4",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows
    assert all(row["conclusion"] == "only-trivial" for row in rows)
    assert {"k": 1, "l": 2, "m": 5, "n": 3,
            "method": "dimension-shortcut",
            "conclusion": "only-trivial"} in rows


def test_scan_deterministic(capsys, tmp_path):
    _, first, _ = run_cli(capsys, "scan", "1", "2", "6", "4",
                          "--cache-dir", str(tmp_path))
    _, second, _ = run_cli(capsys, "scan", "1", "2", "6", "4",
                           "--cache-dir", str(tmp_path))
    assert first == second


def test_scan_aborts_on_witness(capsys, tmp_path, monkeypatch):
    class CannedWitness:
        method = "reduction+solve"
        conclusion = "witness"
        evidence = {"witness": {"images": ["c1"]}}

    calls = []

    def fake_certify(k, l, m, n, strict_inequality=True, budgets=None, cache=None):
        calls.append((k, l, m, n))
        return CannedWitness()

    monkeypatch.setattr(cli, "certify_rigidity", fake_certify)
    code, out, _ = run_cli(capsys, "scan", "2", "3", "10", "6",
                           "--cache-dir", str(tmp_path))
    assert code == 6
    rows = [json.loads(line) for line in out.splitlines()]
    # stops after the first tuple instead of scanning the rest
    assert len(rows) == 1 == len(calls)
    assert rows[0]["witness"] == {"images": ["c1"]}


def test_replay_round_trip(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "1", "2", "5", "3",
                           "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    path.write_text(out)

    code, out, _ = run_cli(capsys, "replay-cert", str(path),
                           "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["match"] is True


def test_certify_and_replay_skip_the_relations_of_a_huge_target(
        capsys, tmp_path, monkeypatch):
    # the target G(100000,2) is read through degree 3, below its first
    # relation (degree 99999); asking for its relations would hang
    original = rings.grassmann_relations

    def guarded(spec):
        assert spec.n < 100000, f"relations of {spec} computed"
        return original(spec)

    monkeypatch.setattr(rings, "grassmann_relations", guarded)
    path = tmp_path / "cert.json"
    code, out, _ = run_cli(capsys, "certify", "1", "2", "100000", "3",
                           "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["conclusion"] == "only-trivial"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "replay-cert", str(path),
                           "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 0
    assert json.loads(out)["match"] is True


def test_replay_detects_tampering(capsys, tmp_path):
    path = tmp_path / "cert.json"
    _, out, _ = run_cli(capsys, "certify", "1", "2", "5", "3",
                        "--format", "json", "--cache-dir", str(tmp_path))
    payload = json.loads(out)
    payload["conclusion"] = "witness"
    path.write_text(json.dumps(payload))

    code, out, _ = run_cli(capsys, "replay-cert", str(path),
                           "--format", "json", "--cache-dir", str(tmp_path))
    assert code == 1
    report = json.loads(out)
    assert report["match"] is False
    assert "conclusion" in report["mismatched_fields"]


def test_replay_missing_and_malformed_files(capsys, tmp_path):
    code, _, err = run_cli(capsys, "replay-cert", str(tmp_path / "absent.json"),
                           "--cache-dir", str(tmp_path))
    assert code == 2
    assert "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run_cli(capsys, "replay-cert", str(bad),
                           "--cache-dir", str(tmp_path))
    assert code == 2
    assert "not valid JSON" in err

    # well-formed JSON that is not a certificate is refused, naming the field
    code, out, _ = run_cli(capsys, "certify", "1", "2", "5", "3", "--format", "json",
                           "--cache-dir", str(tmp_path))
    assert code == 0
    text_k = json.loads(out)
    text_k["parameters"]["k"] = "a"
    # a string for the flag would otherwise be echoed back as a match
    text_strict = {**json.loads(out), "strict_inequality": "off"}
    for payload, field in (({"schema": "grasscohom.rigidity-certificate/1"}, "parameters"),
                           ([1, 2], "not a JSON object"),
                           (text_k, "parameters.k"),
                           (text_strict, "strict_inequality")):
        bad.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, "replay-cert", str(bad),
                               "--cache-dir", str(tmp_path))
        assert code == 2, payload
        assert "invalid parameters" in err
        assert field in err


def test_seed_flag_is_an_argparse_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify-facts", "4", "2", "--seed", "1", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_corrupt_cache_exit_code(capsys, tmp_path):
    run_cli(capsys, "ring", "4", "2", "--cache-dir", str(tmp_path))
    target = RingCache(tmp_path).path_for(RingSpec(4, 2))
    assert target.exists()
    target.write_text("garbage")
    code, _, err = run_cli(capsys, "ring", "4", "2",
                           "--cache-dir", str(tmp_path))
    assert code == 3
    assert "cache integrity" in err


def test_cache_reuse_gives_identical_output(capsys, tmp_path):
    _, first, _ = run_cli(capsys, "ring", "6", "2",
                          "--format", "json", "--cache-dir", str(tmp_path))
    _, second, _ = run_cli(capsys, "ring", "6", "2",
                           "--format", "json", "--cache-dir", str(tmp_path))
    assert first == second


def _snapshot(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def _fail_on_disk_read(self, spec):
    raise AssertionError(f"{spec} was read from the cache directory")


@pytest.mark.parametrize("argv", [("2", "3", "14", "8"), ("1", "3", "9", "2")])
def test_warm_certify_prints_the_cold_bytes(capsys, tmp_path, monkeypatch, argv):
    cold = run_cli(capsys, "certify", *argv, "--cache-dir", str(tmp_path))
    # certify builds the target degrees it uses in memory and writes nothing
    assert _snapshot(tmp_path) == {}

    # a directory holding both complete tables is neither read nor changed
    k, l, m, n = map(int, argv)
    store = RingCache(tmp_path)
    store.get(RingSpec(n, k))
    store.get(RingSpec(m, l))
    before = _snapshot(tmp_path)
    assert len(before) == 2
    monkeypatch.setattr(RingCache, "_load_disk", _fail_on_disk_read)
    warm = run_cli(capsys, "certify", *argv, "--cache-dir", str(tmp_path))
    assert cold[0] == 0
    assert warm == cold
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("start", ["empty", "prefilled", "corrupt"])
def test_certify_and_replay_leave_the_cache_dir_unchanged(capsys, tmp_path, start):
    tables = tmp_path / "tables"
    tables.mkdir()
    store = RingCache(tables)
    if start == "prefilled":
        store.get(RingSpec(8, 2))
        store.get(RingSpec(14, 3))
    elif start == "corrupt":
        store.path_for(RingSpec(14, 3)).write_text("garbage")
    before = _snapshot(tables)

    code, out, _ = run_cli(capsys, "certify", "2", "3", "14", "8",
                           "--format", "json", "--cache-dir", str(tables))
    assert code == 0
    cert = tmp_path / "cert.json"
    cert.write_text(out)
    code, out, _ = run_cli(capsys, "replay-cert", str(cert),
                           "--format", "json", "--cache-dir", str(tables))
    assert code == 0
    assert json.loads(out)["match"] is True
    assert _snapshot(tables) == before

    if start == "corrupt":
        # a command that reads complete tables still refuses the file
        code, _, err = run_cli(capsys, "ring", "14", "3", "--cache-dir", str(tables))
        assert code == 3
        assert "cache integrity" in err


def _fresh_interpreter(argv, hash_seed="0"):
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "grasscohom", *argv],
                          capture_output=True, env=env, timeout=300)


def test_consecutive_calls_share_no_parsed_state(capsys, tmp_path):
    assert cli._build_parser() is cli._build_parser()
    calls = [
        ("certify", "2", "3", "9", "5", "--format", "json", "--budget-steps", "50"),
        ("certify", "2", "3", "9", "5"),
        ("ring", "4", "2"),
        ("certify", "2", "3", "9", "5", "--format", "json"),
    ]
    for i, argv in enumerate(calls):
        argv = (*argv, "--cache-dir", str(tmp_path / str(i)))
        code, out, _ = run_cli(capsys, *argv)
        fresh = _fresh_interpreter(argv)
        assert (code, out) == (fresh.returncode, fresh.stdout.decode())


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "grasscohom", "ring", "4", "2",
         "--format", "json", "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_rank"] == 6


# Each digest is the sha256 of the whole stdout of
#   PYTHONHASHSEED=0 python -m grasscohom ARGV --format json --cache-dir <fresh empty dir>
# run from a checkout with src/ on PYTHONPATH.
@pytest.mark.parametrize("argv, digest, writes_tables", [
    (("conjecture", "7", "3"),
     "b1fa1b9905965aa4c8d27228f76fd896577a1b313def1dc8319ed49438b6f73b", False),
    (("certify", "3", "4", "9", "7"),
     "a9f63b340a20695c1c9ef0128331ef47f37ec478ff00af437b053423b4c2bf03", False),
    (("verify-facts", "6", "3"),
     "e5cbe10597e394bee5b9e3c48d87669aa9978915da8a7819863fbe4f7ebabafd", True),
], ids=["argv0", "argv1", "argv2"])
def test_json_output_is_independent_of_hash_seed(tmp_path, argv, digest, writes_tables):
    outputs = []
    for seed in ("0", "1"):
        proc = _fresh_interpreter(
            [*argv, "--format", "json", "--cache-dir", str(tmp_path / seed)], seed)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])
    assert hashlib.sha256(outputs[0]).hexdigest() == digest
    # cut tables are never written; complete ones match across hash seeds
    tables = [_snapshot(tmp_path / seed) if (tmp_path / seed).exists() else {}
              for seed in ("0", "1")]
    assert bool(tables[0]) == writes_tables
    assert tables[0] == tables[1]


# Each digest is the sha256 of the concatenated stdout of a batch of
# in-process calls, in order, each with its own fresh empty --cache-dir:
#   certify: `certify K L M N --format json` for every (k, l, m, n) in
#     admissible_tuples(2, 3, 14, 8) (139 tuples);
#   verify-facts: `verify-facts N K --format json` for the 11 rings in
#     _FACT_RINGS.
# Both reproduce under PYTHONHASHSEED 0 and 7.
_FACT_RINGS = ((4, 2), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3), (8, 2), (8, 3),
               (9, 2), (9, 3), (8, 4))


@pytest.mark.parametrize("batch, count, digest", [
    ("certify", 139,
     "c27d17ed58cf3d8e99ee549926bc366936a2d0203902aab4a104e51691a5e788"),
    ("verify-facts", 11,
     "c08c0ad0dc6a316e367b00cecb82ef65293eb6f15c749269776659066d553935"),
])
def test_batch_stdout_digests(capsys, tmp_path, batch, count, digest):
    if batch == "certify":
        argvs = [map(str, t) for t in admissible_tuples(2, 3, 14, 8)]
    else:
        argvs = [(str(n), str(k)) for n, k in _FACT_RINGS]
    assert len(argvs) == count
    stdout = hashlib.sha256()
    for i, args in enumerate(argvs):
        code, out, _ = run_cli(capsys, batch, *args, "--format", "json",
                               "--cache-dir", str(tmp_path / str(i)))
        assert code == 0
        stdout.update(out.encode())
    assert stdout.hexdigest() == digest
