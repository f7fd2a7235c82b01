"""Self-test of the benchmark.

    python3 -m pytest perfbench -q

Tiny runs must emit every metric named in BENCHMARK.json with its unit,
decks must hold the workloads' pools, a tampered certificate must be
counted as failed, and the tracer's span counts must match counts made by
hand on small requests.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from grasscohom import cli, rings, solver  # noqa: E402
from grasscohom.rings import RingCache, RingSpec  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def _tiny_run_all(trace: int) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def _check_emitted(lines: list[str], expected: dict[str, str]) -> None:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= len(WORKLOAD_NAMES)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        f"{w}.{name}": unit for w in WORKLOAD_NAMES for name, unit in expected.items()}
    for workload in WORKLOAD_NAMES:
        for name, unit in expected.items():
            assert any(line.startswith(f"{workload} {name} = ")
                       and line.endswith(f" {unit}") for line in lines), (workload, name)


def test_benchmark_lists_the_metrics_the_code_prints():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracing.PER_LAYER


def test_tiny_run_emits_every_end_to_end_metric_for_every_workload():
    _check_emitted(_tiny_run_all(0), {m["name"]: m["unit"] for m in BENCH["end_to_end"]})


def test_tiny_traced_run_emits_every_per_layer_metric_for_every_workload():
    _check_emitted(_tiny_run_all(1), {m["name"]: m["unit"] for m in BENCH["per_layer"]})


def test_decks_hold_the_pools():
    certify = workloads.WORKLOADS["certify-warm"].deck(tiny=False)
    assert [r.args for r in certify] == solver.admissible_tuples(2, 3, 14, 8)
    # 1/C(n,k) copies, rounded, relative to the largest ring of each kind
    facts = Counter(r.args for r in workloads.WORKLOADS["facts-cold"].deck(tiny=False))
    assert facts[(9, 3)] == facts[(8, 4)] == 1 and facts[(4, 2)] == round(84 / 6)
    assert len(facts) == 11 and sum(facts.values()) == 47
    selfmap = Counter((r.kind, r.args) for r in
                      workloads.WORKLOADS["selfmap-solve"].deck(tiny=False))
    assert selfmap[("unpinned", (9, 2, None))] == 1
    assert selfmap[("unpinned", (4, 2, None))] == round(36 / 6)
    assert selfmap[("conjecture", (14, 2))] == 1
    assert selfmap[("conjecture", (7, 3))] == round(91 / 35)
    assert selfmap[("unpinned", (6, 3, 300))] == selfmap[("certify", (3, 4, 9, 7))] == 1


def test_band_percentiles():
    assert bench.percentile([7.0], 0.9) == 7.0
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    # ranks 46..55 and 86..95, each weighing one
    assert abs(bench.percentile(values, 0.5) - 50.5) < 1e-9
    assert abs(bench.percentile(values, 0.9) - 90.5) < 1e-9
    # a fixed two-kind mix gives the same value at every multiple of it
    mix = [1.0] * 88 + [2.0] * 12
    assert abs(bench.percentile(mix, 0.9) - 1.7) < 1e-9
    assert abs(bench.percentile(mix * 3, 0.9) - 1.7) < 1e-9


def _run_deck(workload, ctx, deck) -> Counter:
    stats = {"attempted": 0, "latencies": [], "status": Counter(), "spent": 0.0,
             "reference": []}
    bench._loop(workload, ctx, deck, random.Random(0), 0, None, stats)
    assert stats["attempted"] == len(deck)
    return stats["status"]


def test_tampered_certificate_is_counted_as_failed(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["certify-warm"]
    deck = workload.deck(tiny=True)
    ctx = workload.setup(tmp_path, deck)
    assert _run_deck(workload, ctx, deck) == Counter(ok=len(deck))

    honest = workloads._call_cli

    def tampering(argv):
        code, out, err = honest(argv)
        if argv[0] == "certify":
            cert = json.loads(out)
            cert["method"] = "tampered"
            out = json.dumps(cert)
        return code, out, err

    monkeypatch.setattr(workloads, "_call_cli", tampering)
    assert _run_deck(workload, ctx, deck) == Counter(failed=len(deck))


def _traced(request):
    tracer = tracing.Tracer()
    originals = (rings.integer_rref, solver.buchberger, solver.check_well_defined)
    tracer.install()
    try:
        assert not tracer.missing
        # the wrappers must sit at the importing modules' own bindings
        assert rings.integer_rref is not originals[0]
        assert solver.buchberger is not originals[1]
        assert solver.check_well_defined is not originals[2]
        tracer.begin_request(0)
        request()
        tracer.end_request()
    finally:
        tracer.uninstall()
    assert (rings.integer_rref, solver.buchberger, solver.check_well_defined) == originals
    return tracer


def test_span_counts_match_hand_count_for_unpinned_solve():
    tables = RingCache()
    spec = RingSpec(4, 2)
    tables.get(spec)
    outcome = []
    tracer = _traced(lambda: outcome.append(solver.solve_system(
        solver.build_hom_system(spec, spec, cache=tables), cache=tables)))
    assert outcome[0].kind == "witness"
    m = tracer.layer_metrics(decks=1, overhead=1.0)
    # G(4,2) has Betti numbers 1,1,2,1,1: unknowns are the degree-1 and
    # degree-2 basis (1 + 2), constraints the degree-3 and degree-4 basis
    # (1 + 1).  One Buchberger run leaves positive dimension, the identity
    # pattern answers, and its check substitutes into both relations.
    assert m["solver.build_hom_system.self_s"] > 0
    assert m["solver.solve_system.calls"] == 1
    assert m["solver.unknowns"] == 3
    assert m["solver.constraints"] == 2
    assert m["solver.outcome.witness"] == 1
    assert m["groebner.buchberger.calls"] == 1
    assert m["groebner.minimal_polynomial.self_s"] == 0
    assert m["maps.check_well_defined.calls"] == 1
    assert m["polynomials.substitute.calls"] == 2
    assert m["rings.build_ring.calls"] == 0
    assert m["cli.main.calls"] == 0


def test_span_counts_match_hand_count_for_cold_facts(tmp_path):
    def verify_facts():
        code, out, _ = workloads._call_cli(["verify-facts", "4", "2", "--format", "json",
                                            "--cache-dir", str(tmp_path)])
        assert code == cli.EXIT_OK and json.loads(out)["all_pass"]

    tracer = _traced(verify_facts)
    m = tracer.layer_metrics(decks=1, overhead=1.0)
    # verify-facts 4 2 builds G(4,2) and the restriction sources G(5,2)
    # and G(5,3), each missed once and written once
    assert m["cli.main.calls"] == 1
    assert m["rings.build_ring.calls"] == 3
    assert m["cache.misses"] == 3
    assert m["cache.disk_hits"] == 0
    assert m["rings.table_to_dict.self_s"] > 0
    assert m["rings.table_from_dict.self_s"] == 0
    assert m["maps.check_well_defined.calls"] == 2
    assert m["solver.solve_system.calls"] == 0
    # build_ring row-reduces each degree 0..dim once: dims 4, 6 and 6
    names = tracer.names
    under_build = sum(
        1 for i in range(len(tracer.name))
        if names[tracer.name[i]] == "linalg.integer_rref"
        and tracer.parent[i] >= 0
        and names[tracer.name[tracer.parent[i]]] == "rings.build_ring")
    assert under_build == 5 + 7 + 7
    assert m["linalg.integer_rref.calls"] >= under_build

