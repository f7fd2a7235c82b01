"""Command line interface.

Commands:

* ring N K            print the graded rank data of one ring
* verify-facts N K    run the structural fact battery for one ring
* certify K L M N     decide rigidity for maps G(N,K) -> G(M,L)
* scan KM LM MM NM    certify every admissible tuple in the given ranges
* conjecture N K      solve the pinned endomorphism system of G(N,K)
* replay-cert PATH    re-run a stored certificate and compare

Degrees in output are topological (the complex grading doubled), so odd
Betti numbers appear as explicit zeros.  Exit codes: 0 success or
only-trivial, 1 a checked fact failed, 2 invalid parameters, 3 cache
integrity, 4 unverified hypotheses, 5 inconclusive, 6 witness found.
The scan command emits newline-delimited JSON, continues past
inconclusive tuples, and aborts on the first witness.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cache import CacheIntegrityError, RingCache, default_cache_dir
from .groebner import Budgets
from .maps import (
    check_well_defined,
    hom_to_dict,
    rank_profile,
    restriction_i,
    restriction_j,
)
from .rings import RingSpec, freeness_check, pairing_is_unimodular, top_identity
from .solver import admissible_tuples, certify_rigidity, conjecture_scan, replay_certificate

EXIT_OK = 0
EXIT_FAILED_FACT = 1
EXIT_INVALID_PARAMETERS = 2
EXIT_CACHE_INTEGRITY = 3
EXIT_UNVERIFIED_HYPOTHESES = 4
EXIT_INCONCLUSIVE = 5
EXIT_WITNESS = 6

_EXIT_BY_CONCLUSION = {
    "only-trivial": EXIT_OK,
    "unverified-hypotheses": EXIT_UNVERIFIED_HYPOTHESES,
    "inconclusive": EXIT_INCONCLUSIVE,
    "witness": EXIT_WITNESS,
}


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _emit(payload: dict, args, table_lines) -> None:
    if args.format == "json":
        print(_json_line(payload))
    else:
        for line in table_lines:
            print(line)


def _topological_betti(betti: list[int]) -> list[int]:
    out = []
    for r, b in enumerate(betti):
        out.append(b)
        if r < len(betti) - 1:
            out.append(0)
    return out


def cmd_ring(args, cache: RingCache) -> int:
    requested = RingSpec(args.n, args.k)
    canonical = requested.canonical()
    table = cache.get(canonical)
    d = canonical.dim
    coeff, verified = top_identity(table)
    identity_text = f"c1^{d} = {coeff} * c{canonical.k}^{canonical.n - canonical.k}"
    duality = None
    if canonical != requested:
        duality = (f"G({requested.n},{requested.k}) is isomorphic to the "
                   f"canonical G({canonical.n},{canonical.k}) by complementing "
                   "subspaces; data below is computed there")
    topo = _topological_betti(table.betti_numbers)
    payload = {
        "command": "ring",
        "parameters": {"n": requested.n, "k": requested.k},
        "canonical": {"n": canonical.n, "k": canonical.k},
        "complex_dimension": d,
        "topological_dimension": 2 * d,
        "betti_topological": topo,
        "total_rank": table.total_rank,
        "top_power": {"exponent": d, "coefficient": coeff,
                      "identity": identity_text, "verified": verified},
        "duality_note": duality,
    }
    lines = [f"ring: G({requested.n},{requested.k})"]
    if duality:
        lines.append(f"note: {duality}")
    lines += [
        f"complex dimension: {d}",
        f"topological dimension: {2 * d}",
        "betti numbers (topological degrees 0..%d): %s"
        % (2 * d, " ".join(str(b) for b in topo)),
        f"total rank: {table.total_rank}",
        f"top power: {identity_text} ({'verified' if verified else 'FAILED'})",
    ]
    _emit(payload, args, lines)
    return EXIT_OK if verified else EXIT_FAILED_FACT


def cmd_verify_facts(args, cache: RingCache) -> int:
    spec = RingSpec(args.n, args.k)
    n, k, d = spec.n, spec.k, spec.dim
    table = cache.get(spec)
    facts = []

    freeness = freeness_check(spec, seed=args.seed)
    facts.append((
        "hilbert-series", freeness.hilbert_ok,
        f"graded ranks match the Gaussian binomial [{n} {k}]_q"))

    detail = "every graded piece is free abelian"
    if not freeness.ok:
        detail = f"torsion suspected in degrees {freeness.offending_degrees}"
    facts.append(("integral-freeness", freeness.ok, detail))

    coeff, verified = top_identity(table)
    facts.append((
        "top-power-identity", verified,
        f"c1^{d} = {coeff} * c{k}^{n - k} with a rank-1 top degree"))

    facts.append((
        "poincare-pairing-unimodular",
        all(pairing_is_unimodular(table, r) for r in range(d + 1)),
        "every complementary-degree pairing matrix has determinant +-1"))

    restrictions = (
        ("plane-restriction-iso-range", restriction_i(n, k), n - k,
         f"G({n + 1},{k}) -> G({n},{k}) is well defined, onto, and an "
         f"isomorphism through complex degree {n - k}"),
        ("subspace-restriction-iso-range", restriction_j(n, k), k,
         f"G({n + 1},{k + 1}) -> G({n},{k}) is well defined, onto, and an "
         f"isomorphism through complex degree {k}"),
    )
    for name, hom, bound, detail in restrictions:
        ok = check_well_defined(hom, cache).ok
        if ok:
            profile = rank_profile(hom, cache)
            ok = (all(e.surjective for e in profile)
                  and all(e.bijective for e in profile if e.degree <= bound))
        facts.append((name, ok, detail))

    all_pass = all(ok for _, ok, _ in facts)
    payload = {
        "command": "verify-facts",
        "parameters": {"n": n, "k": k},
        "facts": [{"name": name, "pass": ok, "detail": detail}
                  for name, ok, detail in facts],
        "all_pass": all_pass,
    }
    lines = [f"FACT {name}: {'PASS' if ok else 'FAIL'} - {detail}"
             for name, ok, detail in facts]
    lines.append(f"verified {sum(ok for _, ok, _ in facts)}/{len(facts)} "
                 f"facts for G({n},{k})")
    _emit(payload, args, lines)
    return EXIT_OK if all_pass else EXIT_FAILED_FACT


def _budgets_from(args) -> Budgets:
    if args.budget_steps <= 0:
        raise ValueError("--budget-steps must be positive")
    return Budgets(max_steps=args.budget_steps)


def _certificate_lines(cert) -> list[str]:
    p = cert.parameters
    lines = [
        "certify: maps G(%d,%d) -> G(%d,%d)" % (p["n"], p["k"], p["m"], p["l"]),
        f"strict quadratic bound: {'on' if cert.strict_inequality else 'off'}",
    ]
    for hyp in cert.hypotheses:
        mark = "ok" if hyp["holds"] else "FAILED"
        lines.append(f"hypothesis {hyp['name']}: {mark} ({hyp['detail']})")
    lines.append(f"method: {cert.method or '-'}")
    lines.append(f"conclusion: {cert.conclusion}")
    for step in cert.evidence.get("solver_steps", []):
        lines.append(f"  solver: {step}")
    if "over_algebraic_closure" in cert.evidence:
        where = ("over the algebraic closure" if cert.evidence["over_algebraic_closure"]
                 else "over the rationals (closure not excluded)")
        lines.append(f"only the zero map exists {where}")
    if "witness" in cert.evidence:
        images = cert.evidence["witness"]["images"]
        lines.append(f"witness images: {images}")
    return lines


def cmd_certify(args, cache: RingCache) -> int:
    cert = certify_rigidity(args.k, args.l, args.m, args.n,
                            strict_inequality=(args.strict_bound == "on"),
                            budgets=_budgets_from(args), cache=cache)
    _emit(cert.to_dict(), args, _certificate_lines(cert))
    return _EXIT_BY_CONCLUSION[cert.conclusion]


def cmd_scan(args, cache: RingCache) -> int:
    budgets = _budgets_from(args)
    strict = args.strict_bound == "on"
    saw_inconclusive = False
    for (k, l, m, n) in admissible_tuples(args.k_max, args.l_max,
                                          args.m_max, args.n_max, strict):
        cert = certify_rigidity(k, l, m, n, strict_inequality=strict,
                                budgets=budgets, cache=cache)
        line = {"k": k, "l": l, "m": m, "n": n,
                "method": cert.method, "conclusion": cert.conclusion}
        if cert.conclusion == "witness":
            line["witness"] = cert.evidence["witness"]
        print(_json_line(line), flush=True)
        if cert.conclusion == "witness":
            return EXIT_WITNESS
        if cert.conclusion == "inconclusive":
            saw_inconclusive = True
    return EXIT_INCONCLUSIVE if saw_inconclusive else EXIT_OK


def cmd_conjecture(args, cache: RingCache) -> int:
    report = conjecture_scan(args.n, args.k, budgets=_budgets_from(args),
                             cache=cache)
    payload = {
        "command": "conjecture",
        "parameters": {"n": args.n, "k": args.k},
        "conclusion": report.conclusion,
        "unknowns": report.system.unknown_count,
        "pinned": len(report.system.pinned),
        "steps": list(report.steps),
        "witness": hom_to_dict(report.witness) if report.witness else None,
    }
    lines = [
        f"conjecture: endomorphisms of G({args.n},{args.k}) "
        "with the degree-1 coefficient pinned to zero",
        f"unknowns: {report.system.unknown_count} "
        f"(pinned: {len(report.system.pinned)})",
        f"conclusion: {report.conclusion}",
    ]
    lines += [f"  solver: {s}" for s in report.steps]
    if report.witness is not None:
        lines.append("WITNESS: " + json.dumps(hom_to_dict(report.witness)))
    _emit(payload, args, lines)
    return _EXIT_BY_CONCLUSION[report.conclusion]


def cmd_replay(args, cache: RingCache) -> int:
    try:
        raw = open(args.path, "r", encoding="utf-8").read()
    except OSError as err:
        print(f"cannot read certificate: {err}", file=sys.stderr)
        return EXIT_INVALID_PARAMETERS
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as err:
        print(f"certificate is not valid JSON: {err}", file=sys.stderr)
        return EXIT_INVALID_PARAMETERS
    match, mismatched, fresh = replay_certificate(payload, cache=cache)
    out = {
        "command": "replay-cert",
        "match": match,
        "mismatched_fields": mismatched,
        "conclusion": fresh.conclusion,
    }
    lines = [
        f"replay: {'MATCH' if match else 'MISMATCH'}",
        f"conclusion: {fresh.conclusion}",
    ]
    if mismatched:
        lines.append("mismatched fields: " + ", ".join(mismatched))
    _emit(out, args, lines)
    return EXIT_OK if match else EXIT_FAILED_FACT


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (scan always emits NDJSON)")
    common.add_argument("--cache-dir", default=None,
                        help="ring table cache directory "
                             "(default: $GRASSCOHOM_CACHE_DIR or ~/.cache/grasscohom)")
    common.add_argument("--strict-bound", choices=("on", "off"), default="on",
                        help="use the strict form of the quadratic hypothesis")
    common.add_argument("--budget-steps", type=int, default=1_000_000,
                        help="step budget for the polynomial solver")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized freeness verification")

    parser = argparse.ArgumentParser(
        prog="grasscohom",
        description="Exact cohomology rings of complex Grassmannians and "
                    "rigidity certificates for graded ring maps between them.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ring", parents=[common],
                       help="graded rank data of one ring")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("verify-facts", parents=[common],
                       help="run the structural fact battery")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_verify_facts)

    p = sub.add_parser("certify", parents=[common],
                       help="decide rigidity for maps G(n,k) -> G(m,l)")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("scan", parents=[common],
                       help="certify every admissible tuple in the ranges")
    p.add_argument("k_max", type=int)
    p.add_argument("l_max", type=int)
    p.add_argument("m_max", type=int)
    p.add_argument("n_max", type=int)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("conjecture", parents=[common],
                       help="solve the pinned endomorphism system")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("replay-cert", parents=[common],
                       help="re-run a stored certificate and compare")
    p.add_argument("path")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cache = RingCache(args.cache_dir if args.cache_dir is not None
                          else default_cache_dir())
        return args.func(args, cache)
    except CacheIntegrityError as err:
        print(f"cache integrity error: {err}", file=sys.stderr)
        return EXIT_CACHE_INTEGRITY
    except ValueError as err:
        print(f"invalid parameters: {err}", file=sys.stderr)
        return EXIT_INVALID_PARAMETERS


if __name__ == "__main__":
    sys.exit(main())
