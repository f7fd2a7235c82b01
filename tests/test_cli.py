import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import grasscohom.cache
import grasscohom.cli as cli
from grasscohom.cache import DiskRingCache
from grasscohom.cli import main
from grasscohom.rings import RingSpec


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


def test_corrupt_cache_exit_code(capsys, tmp_path):
    run_cli(capsys, "ring", "4", "2", "--cache-dir", str(tmp_path))
    target = DiskRingCache(tmp_path).path_for(RingSpec(4, 2))
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


@pytest.mark.parametrize("argv", [("2", "3", "14", "8"), ("1", "3", "9", "2")])
def test_warm_certify_prints_the_cold_bytes(capsys, tmp_path, monkeypatch, argv):
    cold = run_cli(capsys, "certify", *argv, "--cache-dir", str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"ring-{n}-{k}.v2.json" for n, k in {(int(argv[3]), int(argv[0])),
                                             (int(argv[2]), int(argv[1]))})

    def no_build(spec):
        raise AssertionError(f"{spec} was rebuilt, not read from the cache")

    monkeypatch.setattr(grasscohom.cache, "build_ring", no_build)
    warm = run_cli(capsys, "certify", *argv, "--cache-dir", str(tmp_path))
    assert cold[0] == 0
    assert warm == cold


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "grasscohom", "ring", "4", "2",
         "--format", "json", "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_rank"] == 6


@pytest.mark.parametrize("argv", [("conjecture", "7", "3"), ("certify", "3", "4", "9", "7")])
def test_json_output_is_independent_of_hash_seed(tmp_path, argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "grasscohom", *argv, "--format", "json",
             "--cache-dir", str(tmp_path / seed)],
            capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])
    tables = [{p.name: p.read_bytes() for p in (tmp_path / seed).iterdir()}
              for seed in ("0", "1")]
    assert tables[0] and tables[0] == tables[1]
