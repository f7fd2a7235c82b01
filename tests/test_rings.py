import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import grasscohom.rings as rings
from grasscohom import linalg
from grasscohom.cache import RingCache, get_table
from grasscohom.polynomials import Polynomial, monomials_of_degree, parse_polynomial
from grasscohom.rings import (
    RingElement,
    RingSpec,
    build_ring,
    freeness_check,
    gaussian_binomial,
    generator_element,
    grassmann_relations,
    hilbert_check,
    nilpotency_degree,
    pairing_is_unimodular,
    pairing_matrix,
    rectangle_tableau_count,
    table_from_dict,
    table_to_dict,
    top_identity,
)


# -- specs and counting -------------------------------------------------

def test_spec_validation():
    spec = RingSpec(5, 2)
    assert spec.dim == 6
    assert str(spec) == "G(5,2)"
    with pytest.raises(ValueError):
        RingSpec(1, 1)
    with pytest.raises(ValueError):
        RingSpec(4, 0)
    with pytest.raises(ValueError):
        RingSpec(4, 4)


def test_spec_canonical():
    assert RingSpec(4, 3).canonical() == RingSpec(4, 1)
    assert RingSpec(7, 3).canonical() == RingSpec(7, 3)
    assert RingSpec(6, 3).is_canonical
    assert not RingSpec(6, 4).is_canonical


def test_gaussian_binomial_small():
    assert gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert gaussian_binomial(5, 2) == [1, 1, 2, 2, 2, 1, 1]
    assert gaussian_binomial(6, 3) == [1, 1, 2, 3, 3, 3, 3, 2, 1, 1]


@given(st.integers(min_value=2, max_value=10), st.data())
def test_gaussian_binomial_identities(n, data):
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    coeffs = gaussian_binomial(n, k)
    assert len(coeffs) == k * (n - k) + 1
    assert sum(coeffs) == math.comb(n, k)
    assert coeffs == coeffs[::-1]
    assert coeffs == gaussian_binomial(n, n - k)
    # coefficient r counts partitions of r inside a k x (n-k) box; by
    # conjugation, the degree-r monomials c1^e1..ck^ek (part i taken e_i
    # times) with at most n-k parts, e1 + ... + ek <= n-k
    assert coeffs == [
        sum(1 for e in monomials_of_degree(k, r) if sum(e) <= n - k)
        for r in range(len(coeffs))
    ]


def test_rectangle_tableau_count_frozen():
    # single row: only one filling
    assert rectangle_tableau_count(1, 5) == 1
    assert rectangle_tableau_count(2, 2) == 2
    assert rectangle_tableau_count(2, 3) == 5
    assert rectangle_tableau_count(2, 4) == 14
    assert rectangle_tableau_count(3, 3) == 42
    assert rectangle_tableau_count(3, 4) == 462


# -- relations ----------------------------------------------------------

def test_relations_shape():
    spec = RingSpec(6, 2)
    rels = grassmann_relations(spec)
    assert len(rels) == 2
    assert [h.max_degree() for h in rels] == [5, 6]
    for h in rels:
        assert h.is_homogeneous()
        # the pure c1 power appears with a unit coefficient
        lead = h.coefficient((h.max_degree(), 0))
        assert abs(lead) == 1


def test_relations_match_inverse_series():
    rels = grassmann_relations(RingSpec(4, 2))
    h3 = parse_polynomial("-c1^3 + 2*c1*c2", 2)
    h4 = parse_polynomial("c1^4 - 3*c1^2*c2 + c2^2", 2)
    assert rels[0] in (h3, -h3)
    assert rels[1] in (h4, -h4)


# -- hilbert and freeness certificates ----------------------------------

def test_hilbert_check_standard():
    for n, k in [(2, 1), (4, 2), (5, 2), (6, 3)]:
        assert hilbert_check(RingSpec(n, k))


def test_hilbert_check_rejects_wrong_relations():
    # relations of G(5,2) produce the wrong series for G(4,2)
    wrong = grassmann_relations(RingSpec(5, 2))
    assert not hilbert_check(RingSpec(4, 2), wrong)
    # right degrees but wrong content: c1 powers leave c2 alive forever
    powers = [parse_polynomial("c1^3", 2), parse_polynomial("c1^4", 2)]
    assert not hilbert_check(RingSpec(4, 2), powers)


def test_freeness_check_standard():
    for n, k in [(4, 2), (5, 2), (6, 2)]:
        report = freeness_check(RingSpec(n, k))
        assert report.ok
        assert report.offending_degrees == []
        assert report.total_rank == math.comb(n, k)


def test_freeness_check_detects_torsion():
    doubled = [parse_polynomial("2*c1^2", 1)]
    report = freeness_check(RingSpec(3, 1), doubled)
    assert not report.ok
    assert 2 in report.offending_degrees


def test_freeness_check_ranks_nonstandard_relations_exactly():
    # three relations for k = 2 are outside the standard shape, so the
    # q-binomial rank is no upper bound: degree 3 has rows {c1^3, 2*c1*c2}
    # of rank 2 with cokernel Z/2, and degree 4 has the same torsion
    rels = [parse_polynomial(t, 2) for t in ("c1^3", "2*c1*c2", "c2^2")]
    report = freeness_check(RingSpec(4, 2), rels)
    assert not report.ok
    assert report.offending_degrees == [3, 4]
    assert report.degrees[3].rank == 2
    assert report.degrees[3].betti == 0
    assert not report.hilbert_ok


def test_freeness_report_carries_the_hilbert_verdict():
    spec = RingSpec(4, 2)
    report = freeness_check(spec)
    assert report.window_vanishes and report.hilbert_ok
    wrong = grassmann_relations(RingSpec(5, 2))
    assert not freeness_check(spec, wrong).hilbert_ok
    powers = [parse_polynomial("c1^3", 2), parse_polynomial("c1^4", 2)]
    report = freeness_check(spec, powers)
    assert not report.window_vanishes and not report.hilbert_ok


def _count_slices(monkeypatch):
    calls = []
    original = rings.ideal_slice

    def counting(relations, k, r):
        calls.append(r)
        return original(relations, k, r)

    monkeypatch.setattr(rings, "ideal_slice", counting)
    return calls


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (7, 2)])
def test_freeness_check_slices_each_degree_once(monkeypatch, n, k):
    spec = RingSpec(n, k)
    calls = _count_slices(monkeypatch)
    assert freeness_check(spec).ok
    assert len(calls) == spec.dim + 1 + k
    assert sorted(calls) == list(range(spec.dim + k + 1))


def test_hilbert_check_slices_each_degree_once(monkeypatch):
    spec = RingSpec(6, 3)
    calls = _count_slices(monkeypatch)
    assert hilbert_check(spec)
    assert len(calls) == spec.dim + 1 + spec.k


def _record_calls(monkeypatch, name):
    calls = []
    original = getattr(rings, name)

    def recording(rows, ncols, *args):
        calls.append((rows, ncols))
        return original(rows, ncols, *args)

    monkeypatch.setattr(rings, name, recording)
    return calls


def test_build_and_checks_share_one_reduction_per_degree(monkeypatch):
    # one rule for every caller: integer_rref once per degree 0..dim, and
    # the k window degrees above the top through rank_lower_bound_certified
    spec = RingSpec(6, 3)
    exact = []
    original_exact = linalg.rank_exact
    monkeypatch.setattr(linalg, "rank_exact",
                        lambda *args: exact.append(args) or original_exact(*args))
    assert not hasattr(rings, "rank_exact")
    seen = []
    for run in (lambda: build_ring(spec), lambda: hilbert_check(spec),
                lambda: freeness_check(spec).ok):
        with monkeypatch.context() as patch:
            slices = _count_slices(patch)
            reductions = _record_calls(patch, "integer_rref")
            windows = _record_calls(patch, "rank_lower_bound_certified")
            assert run()
        assert len(reductions) == spec.dim + 1
        assert [ncols for _, ncols in reductions] == [
            len(rings.monomials_of_degree(spec.k, r)) for r in range(spec.dim + 1)]
        assert len(windows) == spec.k
        assert sorted(slices) == list(range(spec.dim + spec.k + 1))
        seen.append((reductions, windows))
    assert seen[0] == seen[1] == seen[2]
    assert exact == []


def test_redundant_relation_gives_the_standard_report():
    # c1*h3 lies in the ideal, so the quotient is still G(4,2)'s, although
    # three relations in two variables are not a regular sequence
    spec = RingSpec(4, 2)
    h3, h4 = grassmann_relations(spec)
    redundant = [h3, h4, Polynomial.generator(2, 0) * h3]
    report = freeness_check(spec, redundant)
    standard = freeness_check(spec)
    assert report.degrees == standard.degrees
    assert report.ok and report.window_vanishes and report.hilbert_ok
    assert hilbert_check(spec, redundant)


# -- ring tables --------------------------------------------------------

def test_betti_numbers_match_series(tables):
    for n, k in [(4, 2), (5, 2), (6, 3)]:
        ring = tables.get(RingSpec(n, k))
        assert ring.betti_numbers == gaussian_binomial(n, k)
        assert ring.total_rank == math.comb(n, k)
        assert ring.betti(-1) == 0
        assert ring.betti(ring.spec.dim + 1) == 0


def test_basis_is_boxed_partitions(tables):
    ring = tables.get(RingSpec(5, 2))
    # degree 3 basis in grevlex-descending order
    assert ring.basis[3] == [(3, 0), (1, 1)]
    for r, monos in ring.basis.items():
        for exps in monos:
            assert sum((i + 1) * e for i, e in enumerate(exps)) == r


def test_normal_forms_in_g42(tables):
    ring = tables.get(RingSpec(4, 2))
    c1 = generator_element(ring, 0)
    c2 = generator_element(ring, 1)
    assert c1 ** 3 == RingElement(ring, {(1, 1): 2})
    assert c1 ** 4 == RingElement(ring, {(0, 2): 2})
    assert (c1 ** 4).to_text() == "2*c2^2"
    assert (c1 * c1 * c2).to_text() == "c2^2"
    assert (c1 * c2 * c1 * c2).is_zero()
    assert (c1 ** 5).is_zero()
    assert (c2 ** 3).is_zero()


def test_element_arithmetic(tables):
    # sums, scalars and grading are Polynomial's; products stay in the ring
    ring = tables.get(RingSpec(5, 2))
    c1, c2 = Polynomial.generator(2, 0), Polynomial.generator(2, 1)
    x = RingElement(ring, c1 * c1 - c2)
    assert x ** 2 == x * x == RingElement(ring, (c1 * c1 - c2) ** 2)
    assert RingElement(ring, x.as_poly() - x.as_poly()).is_zero()
    s = RingElement(ring, c1 + c2).as_poly()
    assert s.graded_component(1) == c1
    assert s.graded_component(2) == c2
    assert not s.is_homogeneous()
    assert RingElement(ring, 3 * c2) == RingElement(ring, c2 + c2 + c2)
    with pytest.raises(ValueError):
        x * generator_element(tables.get(RingSpec(4, 2)), 0)


def test_coords_and_top_coefficient(tables):
    ring = tables.get(RingSpec(4, 2))
    c1 = generator_element(ring, 0)
    assert (c1 ** 2).coords(2) == [1, 0]
    assert (c1 ** 3).coords(3) == [2]
    assert (c1 ** 4).top_coefficient() == 2


def test_top_identity_frozen(tables):
    for n, k, count in [(4, 2, 2), (5, 2, 5), (6, 2, 14), (6, 3, 42)]:
        number, verified = top_identity(tables.get(RingSpec(n, k)))
        assert verified
        assert number == count


def test_pairing_matrix_g42(tables):
    ring = tables.get(RingSpec(4, 2))
    assert pairing_matrix(ring, 2) == [[2, 1], [1, 1]]
    for r in range(0, 5):
        assert pairing_is_unimodular(ring, r)


def test_pairing_unimodular_g52(tables):
    ring = tables.get(RingSpec(5, 2))
    for r in range(0, ring.spec.dim + 1):
        assert pairing_is_unimodular(ring, r)


def test_nilpotency_degrees(tables):
    ring = tables.get(RingSpec(4, 2))
    c1 = generator_element(ring, 0)
    c2 = generator_element(ring, 1)
    assert nilpotency_degree(ring, c1) == ring.spec.dim + 1
    assert nilpotency_degree(ring, c2) == 3
    with pytest.raises(ValueError):
        nilpotency_degree(ring, RingElement(ring, c1.as_poly() + c2.as_poly()))


def test_non_canonical_spec_builds():
    ring = build_ring(RingSpec(4, 3))
    assert ring.betti_numbers == [1, 1, 1, 1]
    assert ring.total_rank == 4


@pytest.mark.parametrize("n,k", [(8, 4), (9, 3), (10, 4)])
def test_modular_table_build_needs_no_exact_fallback(monkeypatch, n, k):
    # every slice reduction of these rings is integral with coefficients
    # below 2^30, so each one is certified on the modular path
    def refuse(rows, ncols):
        raise AssertionError("integer_rref fell back to the exact path")

    monkeypatch.setattr(linalg, "_rref_exact", refuse)
    ring = build_ring(RingSpec(n, k))
    assert ring.total_rank == math.comb(n, k)


def test_cut_table_refuses_degrees_above_the_cut():
    cut = build_ring(RingSpec(14, 3), through=13)
    assert cut.through == 13
    assert not cut.complete
    empty = RingElement(cut, {})
    for r in range(14, 34):
        with pytest.raises(ValueError):
            cut.normal_form_terms(Polynomial.generator(3, 0, r))
        with pytest.raises(ValueError):
            cut.betti(r)
        with pytest.raises(ValueError):
            empty.coords(r)
    # beyond the top degree the ring vanishes, cut or not
    for r in (34, 35, 40):
        assert cut.normal_form_terms(Polynomial.generator(3, 0, r)) == {}
        assert cut.betti(r) == 0
        assert empty.coords(r) == []
    with pytest.raises(ValueError):
        generator_element(cut, 0).top_coefficient()
    with pytest.raises(ValueError):
        cut.betti_numbers
    with pytest.raises(ValueError):
        table_to_dict(cut)


def test_cut_table_matches_the_complete_one(tables):
    full = tables.get(RingSpec(14, 3))
    cut = build_ring(RingSpec(14, 3), through=13)
    assert sorted(cut.basis) == sorted(cut.reduction) == list(range(14))
    for r in range(14):
        assert cut.basis[r] == full.basis[r]
        assert cut.reduction[r] == full.reduction[r]
        assert cut.betti(r) == full.betti(r)
    probe = parse_polynomial("c1^4 - c1*c2 + 3*c2^2*c3 + c3^4", 3)
    assert cut.normal_form_terms(probe) == full.normal_form_terms(probe)


def test_cut_at_or_above_the_top_is_complete():
    ring = build_ring(RingSpec(4, 2), through=9)
    assert ring.complete
    assert ring.through == 4
    assert ring.top_unit is not None
    assert ring.betti_numbers == [1, 1, 2, 1, 1]


def test_cut_below_every_relation_never_computes_them(monkeypatch):
    # G(100000,2) has its first relation in degree 99999: a cut through
    # degree 3 needs none, and expanding the inverse series to degree
    # 100000 would hang, so the counter refuses that ring
    asked = []
    original = rings.grassmann_relations

    def counting(spec):
        asked.append(spec)
        assert spec.n < 100000, f"relations of {spec} computed"
        return original(spec)

    monkeypatch.setattr(rings, "grassmann_relations", counting)
    ring = build_ring(RingSpec(100000, 2), through=3)
    assert asked == []
    assert ring.through == 3
    for r in range(4):
        assert ring.basis[r] == list(monomials_of_degree(2, r))
        assert ring.reduction[r] == {}
    # a complete table needs them for its window, even when dim = n - k,
    # and a cut above n - k for its slices
    build_ring(RingSpec(5, 1))
    build_ring(RingSpec(6, 2), through=5)
    assert asked == [RingSpec(5, 1), RingSpec(6, 2)]


# -- serialization and caching ------------------------------------------

def _coefficient_types(table):
    return {(r, piv, b): type(c) for r, rows in table.reduction.items()
            for piv, expr in rows.items() for b, c in expr.items()}


def test_table_round_trip(tables):
    for n, k in [(5, 2), (8, 3), (14, 3)]:
        ring = tables.get(RingSpec(n, k))
        payload = json.loads(json.dumps(table_to_dict(ring)))
        back = table_from_dict(payload)
        assert back.spec == ring.spec
        assert back.relations == ring.relations
        assert back.basis == ring.basis
        assert back.reduction == ring.reduction
        assert _coefficient_types(back) == _coefficient_types(ring)
        assert back.betti_numbers == ring.betti_numbers
        assert back.top_unit == ring.top_unit
        probe = parse_polynomial("c1^4 - c1*c2 + 3*c2^2", k)
        assert back.normal_form_terms(probe) == ring.normal_form_terms(probe)


def test_table_round_trip_keeps_fractions(tables):
    ring = tables.get(RingSpec(5, 2))
    reduction = {r: {piv: dict(expr) for piv, expr in rows.items()}
                 for r, rows in ring.reduction.items()}
    r = min(r for r, rows in reduction.items() if rows)
    piv = min(reduction[r])
    b = min(reduction[r][piv])
    reduction[r][piv][b] = Fraction(-3, 4)
    hand = rings.RingTable(ring.spec, ring.relations, ring.basis, reduction)
    payload = json.loads(json.dumps(table_to_dict(hand)))
    back = table_from_dict(payload)
    assert back.reduction == hand.reduction
    assert type(back.reduction[r][piv][b]) is Fraction

    # the string form must be a reduced p/q with q > 1
    (row,) = [terms for p, terms in payload["degrees"][r]["reduction"] if tuple(p) == piv]
    (term,) = [t for t in row if t[1] == "-3/4"]
    for bad in ("-6/8", "3/1", "-0.75", "-3 / 4"):
        term[1] = bad
        with pytest.raises(ValueError):
            table_from_dict(payload)


def test_cache_memoizes():
    cache = RingCache()
    first = cache.get(RingSpec(4, 2))
    second = cache.get(RingSpec(4, 2))
    assert first is second
    assert get_table(RingSpec(4, 2), cache) is first


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_ring_multiplication_stays_in_basis(a, b):
    ring = get_table(RingSpec(5, 2))
    c1 = generator_element(ring, 0)
    c2 = generator_element(ring, 1)
    product = c1 ** a * c2 ** b
    for r in product.as_poly().degrees():
        basis = set(ring.basis.get(r, []))
        for exps, coeff in product.as_poly().graded_component(r).terms.items():
            assert exps in basis
            assert coeff != 0
