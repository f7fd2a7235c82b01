"""The three benchmark workloads: their request decks, set-up, and checks.

Every workload is a closed loop with one client.  A deck is a fixed
multiset of requests drawn from the workload's pool; the loop shuffles it
with the workload seed and replays whole decks, so every run does the same
mix of work and only the order depends on the seed.  Request costs differ
by up to three orders of magnitude, so drawing with replacement would make
the share of heavy requests, and with it every percentile, change from
seed to seed.

certify-warm holds each of its 139 pool entries once per deck.  The pools
of facts-cold and selfmap-solve have 11 and 20 entries, so a uniform deck
of them would need 50-60 s for the 100 requests a 90th percentile needs.
Their decks follow a traffic model instead: a ring G(n,k) is asked about
at a rate inversely proportional to its size, the rank C(n,k) of its
cohomology, and within each kind of request the largest ring is asked
once per deck (`_by_ring_size`).

`run` is timed; `check` is not and returns "ok", "unsolved" (a sound
`inconclusive` where the answer is known) or "failed" (wrong output,
unexpected exit code, or an exception).

Pool edges, measured at the seed commit on a 2-core Xeon box, where a
fixed pure-Python loop varied 0.31-0.41 s over 8 runs:

* facts-cold stops at G(9,3) and G(8,4): cold `verify-facts 10 4` takes
  94 s because its restriction check builds G(11,5).
* selfmap-solve pins no G(n,3) with n > 7: pinned G(8,3) takes 8.8 s,
  G(9,3) 34 s, and pinned G(8,4) had not finished after 500 s.
* selfmap-solve stops the unpinned G(n,2) solves at n = 9: G(10,2) takes
  13 s, most of a run on its own.
* The unpinned G(6,3) solve costs about 11 ms per Groebner step, hours at
  the default budget, although the identity pattern would answer it at
  once; that pattern is only tried after elimination.  It runs at a
  300-step budget, comes back `inconclusive` after 0.8 s, and counts as
  unsolved, so the pair-selection blow-up stays visible in `solved_frac`.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from math import comb
from pathlib import Path

from grasscohom import cache, cli, groebner, maps, rings, solver
from grasscohom.rings import RingSpec


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _by_ring_size(entries: list[tuple[tuple[int, int], Request]]) -> list[Request]:
    """Copies of each (ring, request) entry in proportion to 1/C(n,k),
    rounded, with the largest ring of the entries once."""
    top = max(comb(n, k) for (n, k), _ in entries)
    return [req for (n, k), req in entries
            for _ in range(max(1, round(top / comb(n, k))))]


class FactsCold:
    """`verify-facts N K` with a fresh empty cache directory per request."""

    name = "facts-cold"

    def deck(self, tiny: bool) -> list[Request]:
        if tiny:
            return [Request("verify-facts", (4, 2)), Request("verify-facts", (5, 2))]
        pool = [(n, k) for n in range(4, 10) for k in range(2, min(3, n // 2) + 1)] + [(8, 4)]
        return _by_ring_size([(ring, Request("verify-facts", ring)) for ring in pool])

    def setup(self, workdir: Path, deck: list[Request]) -> dict:
        scratch = workdir / "facts"
        scratch.mkdir()
        return {"scratch": scratch}

    def run(self, ctx: dict, req: Request):
        n, k = req.args
        directory = tempfile.mkdtemp(dir=ctx["scratch"])
        return directory, _call_cli(["verify-facts", str(n), str(k), "--format", "json",
                                     "--cache-dir", directory])

    def check(self, ctx: dict, req: Request, result) -> tuple[str, str]:
        directory, (code, out, err) = result
        shutil.rmtree(directory, ignore_errors=True)
        if code != 0:
            return "failed", f"exit code {code}: {err.strip()[:200]}"
        payload = json.loads(out)
        facts = payload.get("facts", [])
        if not payload.get("all_pass") or len(facts) != 6 or not all(f["pass"] for f in facts):
            return "failed", f"facts not all passing: {out.strip()[:200]}"
        return "ok", ""


class CertifyWarm:
    """`certify K L M N` then `replay-cert` of the emitted certificate,
    against a cache directory prefilled during set-up.  `cli.main` opens a
    fresh disk cache per call, so every request reads, checksums and parses
    its tables from disk."""

    name = "certify-warm"

    def deck(self, tiny: bool) -> list[Request]:
        tuples = solver.admissible_tuples(2, 3, 14, 8)
        if tiny:
            return [Request("certify", t) for t in tuples[:2]]
        return [Request("certify", t) for t in tuples]

    def setup(self, workdir: Path, deck: list[Request]) -> dict:
        tables = workdir / "tables"
        store = cache.DiskRingCache(tables)
        specs = sorted({(n, k) for k, l, m, n in (r.args for r in deck)}
                       | {(m, l) for k, l, m, n in (r.args for r in deck)})
        for n, k in specs:
            store.get(RingSpec(n, k))
        return {"tables": tables, "cert": workdir / "cert.json"}

    def run(self, ctx: dict, req: Request):
        tables = str(ctx["tables"])
        certified = _call_cli(["certify", *map(str, req.args), "--format", "json",
                               "--cache-dir", tables])
        ctx["cert"].write_text(certified[1], encoding="utf-8")
        replayed = _call_cli(["replay-cert", str(ctx["cert"]), "--format", "json",
                              "--cache-dir", tables])
        return certified, replayed

    def check(self, ctx: dict, req: Request, result) -> tuple[str, str]:
        (code, out, err), (rcode, rout, rerr) = result
        replay = json.loads(rout) if rout else {}
        if rcode != 0 or not replay.get("match") or replay.get("mismatched_fields"):
            return "failed", (f"replay exit code {rcode}, mismatched fields "
                              f"{replay.get('mismatched_fields')}: {rerr.strip()[:200]}")
        conclusion = json.loads(out).get("conclusion") if out else None
        if code == cli.EXIT_INCONCLUSIVE and conclusion == "inconclusive":
            return "unsolved", "inconclusive"
        if code != 0 or conclusion != "only-trivial":
            return "failed", f"exit code {code}, conclusion {conclusion}: {err.strip()[:200]}"
        return "ok", ""


class SelfmapSolve:
    """Library solves against an explicit in-memory table cache warmed
    during set-up: unpinned endomorphism systems (answer: the identity),
    pinned conjecture probes and one in-range certificate (answer: only
    the zero map)."""

    name = "selfmap-solve"

    def deck(self, tiny: bool) -> list[Request]:
        if tiny:
            return [Request("unpinned", (4, 2, None)), Request("conjecture", (4, 2))]
        unpinned = [((n, 2), Request("unpinned", (n, 2, None))) for n in range(4, 10)]
        conjectures = [((n, k), Request("conjecture", (n, k)))
                       for n, k in [(n, 2) for n in range(4, 15)] + [(7, 3)]]
        return (_by_ring_size(unpinned) + _by_ring_size(conjectures)
                + [Request("unpinned", (6, 3, 300)), Request("certify", (3, 4, 9, 7))])

    def setup(self, workdir: Path, deck: list[Request]) -> dict:
        specs = set()
        for req in deck:
            if req.kind == "certify":
                k, l, m, n = req.args
                specs |= {(n, k), (m, l)}
            else:
                specs.add(req.args[:2])
        tables = rings.RingCache()
        for n, k in sorted(specs):
            tables.get(RingSpec(n, k))
        return {"tables": tables}

    def run(self, ctx: dict, req: Request):
        tables = ctx["tables"]
        if req.kind == "unpinned":
            n, k, steps = req.args
            spec = RingSpec(n, k)
            budgets = groebner.Budgets(max_steps=steps) if steps else None
            system = solver.build_hom_system(spec, spec, cache=tables)
            return solver.solve_system(system, budgets, cache=tables)
        if req.kind == "conjecture":
            return solver.conjecture_scan(*req.args, cache=tables).conclusion
        return solver.certify_rigidity(*req.args, cache=tables).conclusion

    def check(self, ctx: dict, req: Request, result) -> tuple[str, str]:
        if req.kind == "unpinned":
            kind = result.kind
            if kind == "witness":
                k = req.args[1]
                images = tuple(p.to_text() for p in result.hom.images)
                identity = tuple(f"c{i}" for i in range(1, k + 1))
                if images != identity:
                    return "failed", f"witness images {images} are not the identity"
                if not maps.check_well_defined(result.hom, ctx["tables"]).ok:
                    return "failed", "witness is not well defined"
                return "ok", ""
        else:
            kind = result
            if kind == "only-trivial":
                return "ok", ""
        if kind == "inconclusive":
            return "unsolved", "inconclusive"
        return "failed", f"unexpected outcome {kind}"


WORKLOADS = {w.name: w for w in (FactsCold(), CertifyWarm(), SelfmapSolve())}
