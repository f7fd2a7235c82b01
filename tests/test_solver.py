import dataclasses
import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grasscohom.groebner import Budgets
from grasscohom.maps import apply_hom, check_well_defined, zero_hom
from grasscohom.polynomials import Polynomial, parse_polynomial
from grasscohom.rings import RingSpec
from grasscohom.solver import (
    Inconclusive,
    OnlyTrivial,
    WitnessFound,
    admissible_tuples,
    build_hom_system,
    c1_vanishing_shortcut,
    certify_rigidity,
    conjecture_scan,
    endo_reduction,
    hypothesis_checklist,
    macaulay_degrees,
    replay_certificate,
    solve_system,
)

G42 = RingSpec(4, 2)
G52 = RingSpec(5, 2)


# -- system construction ------------------------------------------------

def test_system_counts(tables):
    system = build_hom_system(G42, G42, cache=tables)
    # one unknown per target basis monomial in each generator degree
    assert system.unknown_count == 3
    # one constraint per target basis monomial in each relation degree
    assert system.constraint_count == 2
    assert system.pinned == frozenset()


def test_pinning_fixes_variables_not_counts(tables):
    plain = build_hom_system(G42, G42, cache=tables)
    pinned = build_hom_system(G42, G42, pin_c1_zero=True, cache=tables)
    assert pinned.unknown_count == plain.unknown_count
    # the single degree-1 unknown is held at zero
    assert pinned.pinned == frozenset({0})
    assert pinned.unknowns[0].generator == 1


def test_cross_ring_system_counts(tables):
    system = build_hom_system(G52, RingSpec(9, 3), cache=tables)
    target = tables.get(RingSpec(9, 3))
    assert system.unknown_count == 3
    assert system.constraint_count == target.betti(4) + target.betti(5)


def test_zero_assignment_always_solves(tables):
    for source, target in [(G42, G42), (G52, RingSpec(9, 3)), (G42, G52)]:
        system = build_hom_system(source, target, cache=tables)
        zeros = [0] * system.unknown_count
        for constraint in system.constraints:
            assert constraint.evaluate(zeros) == 0


def test_generator_blocks_partition_unknowns(tables):
    system = build_hom_system(G52, RingSpec(9, 3), cache=tables)
    blocks = system.generator_blocks()
    flat = sorted(i for block in blocks for i in block)
    assert flat == list(range(system.unknown_count))
    for g, block in enumerate(blocks, start=1):
        for idx in block:
            assert system.unknowns[idx].generator == g


# -- solving ------------------------------------------------------------

def test_pinned_endo_rational_only(tables):
    system = build_hom_system(G42, G42, pin_c1_zero=True, cache=tables)
    out = solve_system(system, cache=tables)
    assert isinstance(out, OnlyTrivial)
    # the residual binary form has complex zeros, so closure stays False
    assert out.closure is False
    assert any("no nontrivial rational zero" in line for line in out.steps)


def test_unpinned_endo_finds_identity(tables):
    system = build_hom_system(G42, G42, cache=tables)
    out = solve_system(system, cache=tables)
    assert isinstance(out, WitnessFound)
    assert [p.to_text() for p in out.hom.images] == ["c1", "c2"]
    assert check_well_defined(out.hom, tables).ok


def test_witness_for_restriction_pair(tables):
    system = build_hom_system(G52, G42, cache=tables)
    out = solve_system(system, cache=tables)
    assert isinstance(out, WitnessFound)
    assert [p.to_text() for p in out.hom.images] == ["c1", "c2"]


def test_wrong_way_map_only_trivial(tables):
    system = build_hom_system(G42, G52, cache=tables)
    out = solve_system(system, cache=tables)
    assert isinstance(out, OnlyTrivial)


def test_cross_case_closure_strong(tables):
    system = build_hom_system(G52, RingSpec(9, 3), cache=tables)
    out = solve_system(system, cache=tables)
    assert isinstance(out, OnlyTrivial)
    assert out.closure is True
    assert "Macaulay matrices" in out.steps[-1]
    assert "from D0 = 7," in out.steps[-1]


def test_univariate_source_closure_strong(tables):
    system = build_hom_system(RingSpec(3, 1), G52, cache=tables)
    out = solve_system(system, cache=tables)
    assert isinstance(out, OnlyTrivial)
    assert out.closure is True


def test_starved_budget_is_inconclusive_not_wrong(tables):
    system = build_hom_system(G52, RingSpec(9, 3), cache=tables)
    out = solve_system(system, budgets=Budgets(max_steps=1), cache=tables)
    assert isinstance(out, Inconclusive)
    assert "budget" in out.reason


def test_solver_deterministic(tables):
    system = build_hom_system(G52, G42, cache=tables)
    first = solve_system(system, cache=tables)
    second = solve_system(system, cache=tables)
    assert first.steps == second.steps
    assert [p.to_text() for p in first.hom.images] == [
        p.to_text() for p in second.hom.images
    ]


def test_scaled_restriction_also_well_defined(tables):
    # grading symmetry: scaling the degree-i image by t^i preserves the
    # relations, so these scaled maps are exactly the ring's other points
    from grasscohom.maps import GradedHom

    scaled = GradedHom(G52, G42, (
        parse_polynomial("2*c1", 2),
        parse_polynomial("4*c2", 2),
    ))
    assert check_well_defined(scaled, tables).ok
    half = GradedHom(G52, G42, (
        parse_polynomial("1/2*c1", 2),
        parse_polynomial("1/4*c2", 2),
    ))
    assert check_well_defined(half, tables).ok


def test_huge_binary_form_runs_into_the_budget(tables):
    # u2_0^2 + N*u2_1^2: its rational-root search would try every divisor
    # of N up to sqrt(N); one constraint in two unknowns skips the rung
    spec = RingSpec(6, 2)
    system = build_hom_system(spec, spec, pin_c1_zero=True, cache=tables)
    form = parse_polynomial(f"c2^2 + {10 ** 29 + 7}*c3^2", system.unknown_count)
    system = dataclasses.replace(system, constraints=(form,),
                                 constraint_labels=system.constraint_labels[:1])
    out = solve_system(system, budgets=Budgets(max_steps=1000), cache=tables)
    assert isinstance(out, Inconclusive)
    assert out.reason == "step budget exhausted"
    assert out.steps[-1].startswith("rational-root search aborted")


# -- the Macaulay rung --------------------------------------------------

def _weighted_monomials(weights, degree):
    return [e for e in itertools.product(*(range(degree // w + 1) for w in weights))
            if sum(x * w for x, w in zip(e, weights)) == degree]


_NONZERO = st.integers(-4, 4).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_macaulay_rung_never_certifies_a_planted_point(data):
    # subtracting f(a) * m / m(a) from each f, with m a monomial of f's
    # weight, makes the nonzero rational point a a common zero
    weights = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    point = [Fraction(data.draw(_NONZERO), data.draw(st.integers(1, 3)))
             for _ in weights]
    polys = []
    for _ in range(data.draw(st.integers(len(weights), len(weights) + 2))):
        monos = _weighted_monomials(weights, data.draw(st.integers(1, 6)))
        if not monos:
            continue
        f = Polynomial(len(weights), {m: data.draw(_NONZERO) for m in monos})
        anchor = Polynomial.monomial(data.draw(st.sampled_from(monos)))
        planted = f - anchor.scale(Fraction(f.evaluate(point)) / anchor.evaluate(point))
        if not planted.is_zero():
            polys.append(planted)
    assert all(p.evaluate(point) == 0 for p in polys)
    assert macaulay_degrees(polys, weights) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=1, max_size=3))
def test_macaulay_rung_certifies_pure_powers(pairs):
    # every monomial of weight above sum((e - 1) * w) is a multiple of
    # some x_v^e_v, which the Macaulay bound reaches
    weights = tuple(w for w, _ in pairs)
    polys = [Polynomial.generator(len(pairs), v, e) for v, (_, e) in enumerate(pairs)]
    proof = macaulay_degrees(polys, weights)
    assert proof is not None
    start, tried = proof
    assert start <= sum((e - 1) * w for w, e in pairs) + 1
    window = tried[-max(weights):]
    assert [d for d, _, _, _ in window] == list(range(start, start + max(weights)))
    assert all(rank == cols for _, _, cols, rank in window)


def test_macaulay_rung_rejects_inhomogeneous_input():
    with pytest.raises(AssertionError):
        macaulay_degrees([parse_polynomial("c1^2 + c2", 2)], (1, 1))


def test_pinned_even_grassmannians_are_closure_strong(tables):
    # the binary-form rung used to decide these, over Q only
    for j in range(3, 8):
        spec = RingSpec(2 * j, 2)
        out = solve_system(build_hom_system(spec, spec, pin_c1_zero=True, cache=tables),
                           cache=tables)
        assert isinstance(out, OnlyTrivial)
        assert out.closure is True
        assert out.steps[-1].startswith("Macaulay matrices")


def test_unpinned_endomorphisms_skip_the_rung(tables, monkeypatch):
    import grasscohom.solver as solver

    def rung(*args):
        raise AssertionError("the identity solves the system; the rung cannot succeed")

    monkeypatch.setattr(solver, "macaulay_degrees", rung)
    for n in range(4, 8):
        spec = RingSpec(n, 2)
        out = solve_system(build_hom_system(spec, spec, cache=tables), cache=tables)
        assert isinstance(out, WitnessFound)
        assert [p.to_text() for p in out.hom.images] == ["c1", "c2"]


def test_rung_charges_its_rows_to_the_budget(tables):
    spec = RingSpec(6, 2)
    system = build_hom_system(spec, spec, pin_c1_zero=True, cache=tables)
    out = solve_system(system, budgets=Budgets(max_steps=1), cache=tables)
    assert isinstance(out, Inconclusive)
    assert out.reason == "step budget exhausted"
    assert out.steps[-1] == "Macaulay rung aborted: step budget exhausted"


# -- shortcut and reduction ---------------------------------------------

def test_c1_vanishing_shortcut(tables):
    assert c1_vanishing_shortcut(RingSpec(3, 1), G52, tables)
    assert not c1_vanishing_shortcut(G52, RingSpec(3, 1), tables)
    assert not c1_vanishing_shortcut(G42, G42, tables)


def test_certify_computes_the_target_c1_power_once(monkeypatch):
    import grasscohom.solver as solver
    calls = []
    original = solver.generator_element

    def counting(ring, index, power=1):
        calls.append((ring.spec, index, power))
        return original(ring, index, power)

    monkeypatch.setattr(solver, "generator_element", counting)
    cert = certify_rigidity(2, 3, 9, 5)
    assert cert.evidence["c1_shortcut"]["holds"]
    assert calls == [(RingSpec(9, 3), 0, 1)]


def test_endo_reduction_of_zero_map(tables):
    phi = zero_hom(RingSpec(3, 1), G52)
    endo = endo_reduction(1, 2, 5, 3, phi, tables)
    assert endo.source == endo.target == RingSpec(4, 1)
    assert endo.is_zero_map()
    assert check_well_defined(endo, tables).ok


def test_endo_reduction_rejects_mismatched_map(tables):
    phi = zero_hom(RingSpec(3, 1), G52)
    with pytest.raises(ValueError):
        endo_reduction(2, 3, 9, 5, phi, tables)


# -- hypotheses ---------------------------------------------------------

def test_hypothesis_checklist_passing_tuples():
    for tup in [(1, 2, 5, 3), (1, 2, 6, 4), (2, 3, 9, 5)]:
        checks = hypothesis_checklist(*tup)
        assert all(c["holds"] for c in checks), (tup, checks)


def test_hypothesis_checklist_failures():
    # k < l fails
    assert not all(c["holds"] for c in hypothesis_checklist(2, 2, 9, 5))
    # codimension gap fails: m - l = 1 <= n - k = 1
    assert not all(c["holds"] for c in hypothesis_checklist(1, 2, 3, 2))


def test_quadratic_bound_boundary_strictness():
    # k=4: the bound is 2*16-4-1 = 27 and m-l is exactly 27
    strict = hypothesis_checklist(4, 5, 32, 8, strict_inequality=True)
    relaxed = hypothesis_checklist(4, 5, 32, 8, strict_inequality=False)
    names = [c["name"] for c in strict]
    idx = names.index("quadratic-bound-or-small-k")
    assert not strict[idx]["holds"]
    assert relaxed[idx]["holds"]


def test_admissible_tuples_enumeration():
    tuples = admissible_tuples(2, 3, 10, 6)
    assert (1, 2, 5, 3) in tuples
    assert (1, 2, 6, 4) in tuples
    assert (2, 3, 9, 5) in tuples
    assert tuples == sorted(tuples)
    for k, l, m, n in tuples:
        assert all(c["holds"] for c in hypothesis_checklist(k, l, m, n))


# -- certificates -------------------------------------------------------

def test_certify_k1_uses_shortcut(tables):
    cert = certify_rigidity(1, 2, 5, 3, cache=tables)
    assert cert.conclusion == "only-trivial"
    assert cert.method == "dimension-shortcut"
    assert cert.hypotheses_ok
    assert cert.evidence["over_algebraic_closure"] is True


def test_certify_k2_reduction_solve(tables):
    cert = certify_rigidity(2, 3, 9, 5, cache=tables)
    assert cert.conclusion == "only-trivial"
    assert cert.method == "reduction+solve"
    assert cert.evidence["over_algebraic_closure"] is True


def test_certify_reports_failed_hypotheses(tables):
    cert = certify_rigidity(2, 2, 9, 5, cache=tables)
    assert cert.conclusion == "unverified-hypotheses"
    assert cert.method is None
    assert not cert.hypotheses_ok


def test_certificate_replay_round_trip(tables):
    cases = [((2, 3, 9, 5), None, "only-trivial"),
             ((3, 4, 9, 7), Budgets(max_steps=1), "inconclusive"),
             ((2, 2, 9, 5), None, "unverified-hypotheses")]
    for args, budgets, conclusion in cases:
        cert = certify_rigidity(*args, budgets=budgets, cache=tables)
        assert cert.conclusion == conclusion
        # the fields are JSON-native: a round trip changes no value or type
        # (a tuple, a Fraction or an int key would come back different)
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload == cert.to_dict()
        ok, mismatched, fresh = replay_certificate(payload, cache=tables)
        assert ok
        assert mismatched == []
        assert fresh.conclusion == conclusion


def test_certificate_replay_flags_tampering(tables):
    cert = certify_rigidity(1, 2, 5, 3, cache=tables)
    bad = json.loads(json.dumps(cert.to_dict()))
    bad["conclusion"] = "witness"
    ok, mismatched, _ = replay_certificate(bad, cache=tables)
    assert not ok
    assert "conclusion" in mismatched


# -- conjecture scan ----------------------------------------------------

def test_conjecture_scan_small_rings(tables):
    for n, k in [(4, 2), (5, 2)]:
        report = conjecture_scan(n, k, cache=tables)
        assert report.conclusion == "only-trivial"
        assert report.spec == RingSpec(n, k)
        assert len(report.system.pinned) == 1
