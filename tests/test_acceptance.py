"""End-to-end battery.

Each test prints one ACCEPTANCE line (PASS or FAIL) so the battery can
be read off a plain pytest run, then asserts.  All comparisons are
exact integer or rational arithmetic; the only tolerances anywhere are
the two wall-clock budgets, pinned at 60 s for the ring sweep and
600 s for the certificate batch.
"""

import json
import math
import random
import time

from grasscohom.groebner import Budgets, buchberger, reduce_poly
from grasscohom.maps import (
    GradedHom,
    check_well_defined,
    rank_profile,
    restriction_i,
    restriction_j,
)
from grasscohom.polynomials import Polynomial, monomials_of_degree
from grasscohom.rings import (
    RingSpec,
    freeness_check,
    gaussian_binomial,
    grassmann_relations,
    hilbert_check,
    top_identity,
)
from grasscohom.solver import (
    WitnessFound,
    admissible_tuples,
    build_hom_system,
    certify_rigidity,
    conjecture_scan,
    replay_certificate,
    solve_system,
)

HILBERT_TIME_BUDGET = 60.0
CERTIFICATE_TIME_BUDGET = 600.0


def _report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")


def _sweep_specs(n_max):
    for n in range(2, n_max + 1):
        for k in range(1, n // 2 + 1):
            yield RingSpec(n, k)


def test_acceptance_hilbert_series_sweep(capsys):
    start = time.monotonic()
    failures = []
    count = 0
    for spec in _sweep_specs(10):
        count += 1
        if not hilbert_check(spec):
            failures.append(str(spec))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < HILBERT_TIME_BUDGET
    detail = (f"{count} rings up to G(10,5) match their Gaussian binomial "
              f"series in {elapsed:.1f}s (budget {HILBERT_TIME_BUDGET:.0f}s)")
    if failures:
        detail = "series mismatch at " + ", ".join(failures)
    _report(capsys, "hilbert-series-sweep", ok, detail)
    assert ok, detail


def test_acceptance_integral_freeness_sweep(capsys):
    failures = []
    count = 0
    for spec in _sweep_specs(10):
        count += 1
        report = freeness_check(spec)
        if not report.ok:
            failures.append(f"{spec} degrees {report.offending_degrees}")
    ok = not failures
    detail = (f"all graded pieces of {count} rings up to G(10,5) are free "
              "abelian (every invariant factor is 1)")
    if failures:
        detail = "torsion reported at " + "; ".join(failures)
    _report(capsys, "integral-freeness-sweep", ok, detail)
    assert ok, detail


def test_acceptance_top_power_identity(capsys, tables):
    expected = {(4, 2): 2, (5, 2): 5, (6, 2): 14, (6, 3): 42, (7, 3): 462}
    failures = []
    for (n, k), frozen in expected.items():
        number, verified = top_identity(tables.get(RingSpec(n, k)))
        if not (verified and isinstance(number, int) and number > 0
                and number == frozen):
            failures.append(f"G({n},{k}): got {number}, verified={verified}")
    ok = not failures
    detail = ("c1^dim = N * ck^(n-k) holds with N = "
              + ", ".join(f"{v} in G({n},{k})" for (n, k), v in expected.items()))
    if failures:
        detail = "; ".join(failures)
    _report(capsys, "top-power-identity", ok, detail)
    assert ok, detail


def _restriction_sweep(n_max, cache):
    """(maps checked, failures) for both restriction maps onto every
    G(n,k) with n <= n_max; one rank profile per map gives both the
    surjectivity and the isomorphism range."""
    failures = []
    pairs = 0
    for n in range(2, n_max + 1):
        for k in range(1, n):
            pairs += 1
            spec = RingSpec(n, k)
            for name, h, bound in (("i*", restriction_i(n, k), n - k),
                                   ("j*", restriction_j(n, k), k)):
                if not check_well_defined(h, cache).ok:
                    failures.append(f"{name} onto {spec} not well defined")
                    continue
                profile = rank_profile(h, cache)
                if not all(e.surjective for e in profile):
                    failures.append(f"{name} onto {spec} not surjective")
                elif not all(e.bijective for e in profile if e.degree <= bound):
                    failures.append(f"{name} onto {spec} not iso through "
                                    f"degree {bound}")
    return pairs, failures


def test_acceptance_restriction_maps(capsys, tables):
    pairs, failures = _restriction_sweep(8, tables)
    ok = not failures
    detail = (f"both restriction maps onto all {pairs} rings with n <= 8 are "
              "well defined, surjective in every degree, and isomorphisms "
              "through complex degrees n-k and k")
    if failures:
        detail = "; ".join(failures[:4])
    _report(capsys, "restriction-maps", ok, detail)
    assert ok, detail


def test_restriction_sweep_ranks_each_map_once(monkeypatch, tables):
    calls = []
    original = rank_profile

    def counting(h, cache=None):
        calls.append((h.source, h.target))
        return original(h, cache)

    monkeypatch.setitem(globals(), "rank_profile", counting)
    pairs, failures = _restriction_sweep(5, tables)
    assert not failures
    assert len(calls) == 2 * pairs == len(set(calls))


def test_acceptance_rigidity_certificates(capsys, tables):
    start = time.monotonic()
    batch = admissible_tuples(2, 3, 10, 6)
    required = [(1, 2, 5, 3), (1, 2, 6, 4), (2, 3, 9, 5)]
    failures = []
    for tup in required:
        if tup not in batch:
            failures.append(f"required tuple {tup} missing from the batch")
    for (k, l, m, n) in batch:
        cert = certify_rigidity(k, l, m, n, cache=tables)
        if cert.conclusion != "only-trivial":
            failures.append(f"({k},{l},{m},{n}) concluded {cert.conclusion}")
            continue
        payload = json.loads(json.dumps(cert.to_dict()))
        match, mismatched, _ = replay_certificate(payload, cache=tables)
        if not match:
            failures.append(f"({k},{l},{m},{n}) replay mismatch: {mismatched}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < CERTIFICATE_TIME_BUDGET
    detail = (f"{len(batch)} admissible tuples with k<=2, l<=3, m<=10, n<=6 "
              f"all certify only-trivial and replay exactly in {elapsed:.1f}s "
              f"(budget {CERTIFICATE_TIME_BUDGET:.0f}s)")
    if failures:
        detail = "; ".join(failures[:4])
    _report(capsys, "rigidity-certificates", ok, detail)
    assert ok, detail


# the paper's binding range beyond k = 2: each tuple satisfies every
# hypothesis, and (4,5,33,*) and (4,6,34,10) sit on the quadratic bound
# m - l > 2k^2 - k - 1 = 27
BINDING_RANGE = [(3, 4, 19, 6), (3, 4, 19, 7), (3, 5, 20, 8), (3, 4, 25, 9),
                 (4, 5, 33, 8), (4, 5, 33, 9), (4, 5, 33, 10), (4, 6, 34, 10)]


def test_acceptance_binding_range(capsys, tables):
    failures = []
    for tup in BINDING_RANGE:
        cert = certify_rigidity(*tup, budgets=Budgets(max_steps=200_000), cache=tables)
        if not cert.hypotheses_ok:
            failures.append(f"{tup} fails the hypothesis checklist")
        elif cert.conclusion != "only-trivial":
            failures.append(f"{tup} concluded {cert.conclusion}")
        elif cert.evidence["over_algebraic_closure"] is not True:
            failures.append(f"{tup} is only-trivial over Q only")
    ok = not failures
    detail = (f"{len(BINDING_RANGE)} tuples with k = 3, 4 certify only-trivial "
              "over the algebraic closure within 200000 steps")
    if failures:
        detail = "; ".join(failures)
    _report(capsys, "binding-range", ok, detail)
    assert ok, detail


def test_acceptance_negative_controls(capsys, tables):
    failures = []

    for n, k in [(4, 2), (5, 2)]:
        spec = RingSpec(n, k)
        out = solve_system(build_hom_system(spec, spec, cache=tables),
                           cache=tables)
        if not isinstance(out, WitnessFound):
            failures.append(f"self-map search on G({n},{k}) missed the identity")
        elif [p.to_text() for p in out.hom.images] != ["c1", "c2"]:
            failures.append(f"unexpected witness on G({n},{k})")

    broken = GradedHom(RingSpec(3, 1), RingSpec(4, 1),
                       (Polynomial.generator(1, 0),))
    report = check_well_defined(broken, tables)
    if report.ok:
        failures.append("c1 -> c1 from G(3,1) to G(4,1) accepted, "
                        "but c1^3 does not map to zero")

    ok = not failures
    detail = ("identity witness recovered on G(4,2) and G(5,2); "
              "ill-defined c1 -> c1 into G(4,1) rejected with witness")
    if failures:
        detail = "; ".join(failures)
    _report(capsys, "negative-controls", ok, detail)
    assert ok, detail


def test_acceptance_conjecture_probe(capsys, tables):
    failures = []
    findings = []
    for n, k in [(4, 2), (5, 2)]:
        report = conjecture_scan(n, k, cache=tables)
        if report.conclusion == "witness":
            findings.append(f"G({n},{k}): {report.witness}")
        elif report.conclusion != "only-trivial":
            failures.append(f"G({n},{k}) probe was {report.conclusion}")
    ok = not failures
    if findings:
        detail = ("REPORTABLE FINDING - nontrivial pinned endomorphism: "
                  + "; ".join(findings))
    else:
        detail = ("pinned endomorphism systems of G(4,2) and G(5,2) have "
                  "only the zero solution over the rationals")
    if failures:
        detail = "; ".join(failures)
    _report(capsys, "conjecture-probe", ok, detail)
    assert ok, detail


def _random_elements(spec, count, rng):
    k = spec.k
    degree_pool = []
    for r in range(0, spec.dim + 3):
        degree_pool.append(monomials_of_degree(k, r))
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(5):
            monos = []
            while not monos:
                monos = degree_pool[rng.randrange(len(degree_pool))]
            exps = monos[rng.randrange(len(monos))]
            coeff = rng.choice([c for c in range(-9, 10) if c])
            terms[exps] = terms.get(exps, 0) + coeff
        out.append(Polynomial(k, {e: c for e, c in terms.items() if c}))
    return out


def test_acceptance_normal_form_oracle(capsys, tables):
    failures = []
    checked = 0
    for n in range(2, 7):
        for k in range(1, n):
            spec = RingSpec(n, k)
            ring = tables.get(spec)
            gb = buchberger(grassmann_relations(spec))
            rng = random.Random(1000 * n + k)
            for poly in _random_elements(spec, 100, rng):
                checked += 1
                via_table = Polynomial(k, ring.normal_form_terms(poly))
                via_division = reduce_poly(poly, gb)
                if via_table != via_division:
                    failures.append(f"{spec}: {poly.to_text()}")
    ok = not failures
    detail = (f"slice reduction and relation-by-relation division agree on "
              f"{checked} random elements across all rings with n <= 6")
    if failures:
        detail = "disagreement at " + "; ".join(failures[:3])
    _report(capsys, "normal-form-oracle", ok, detail)
    assert ok, detail
