from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grasscohom.groebner import (
    BudgetExceeded,
    Budgets,
    _Meter,
    binary_form_rational_zeros,
    buchberger,
    is_zero_dimensional,
    leading_term,
    minimal_polynomial,
    rational_roots,
    reduce_poly,
    staircase,
)
from grasscohom.polynomials import (
    Polynomial,
    grevlex_key,
    mono_divides,
    mono_mul,
    mono_quotient,
    parse_polynomial,
)


def P(text, nvars):
    return parse_polynomial(text, nvars)


# -- rational roots -----------------------------------------------------

def test_rational_roots_known_factorizations():
    # 2x^3 - 3x^2 + 1 = (x-1)^2 (2x+1)
    assert rational_roots([1, 0, -3, 2]) == [Fraction(-1, 2), Fraction(1)]
    assert rational_roots([0, 0, 0, 1]) == [Fraction(0)]
    # 6x^2 - 5x + 1 = (2x-1)(3x-1)
    assert rational_roots([1, -5, 6]) == [Fraction(1, 3), Fraction(1, 2)]


def test_rational_roots_irrational_cases():
    assert rational_roots([1, 0, 1]) == []
    assert rational_roots([-2, 0, 1]) == []


def test_rational_roots_fraction_coefficients():
    half = Fraction(1, 2)
    assert rational_roots([-half, 0, half]) == [Fraction(-1), Fraction(1)]


def test_rational_roots_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        rational_roots([0, 0])


def test_rational_roots_charges_each_trial_divisor():
    # x^2 - 36: divisors of 1 tried up to 1, of 36 up to 6
    assert rational_roots([-36, 0, 1], Budgets(max_steps=7)) == [Fraction(-6), Fraction(6)]
    with pytest.raises(BudgetExceeded):
        rational_roots([-36, 0, 1], Budgets(max_steps=6))
    # a huge trailing coefficient runs into the budget instead of trying
    # every divisor up to its square root, also under the default budget
    with pytest.raises(BudgetExceeded):
        rational_roots([10 ** 29 + 7, 0, 1], Budgets(max_steps=1000))
    with pytest.raises(BudgetExceeded):
        rational_roots([10 ** 29 + 7, 0, 1])


def test_binary_form_charges_its_root_search():
    with pytest.raises(BudgetExceeded):
        binary_form_rational_zeros(P("c1^2 + 10000000019*c2^2", 2), 0, 1,
                                   Budgets(max_steps=50))


# -- binary forms -------------------------------------------------------

def test_binary_form_anisotropic():
    # discriminant of 2 + 2t + t^2 is negative, so no rational zeros
    f = P("2*c1^2 + 2*c1*c2 + c2^2", 2)
    assert binary_form_rational_zeros(f, 0, 1) == []


def test_binary_form_split_cases():
    f = P("c1^2 - c2^2", 2)
    assert sorted(binary_form_rational_zeros(f, 0, 1)) == [
        (Fraction(1), Fraction(-1)),
        (Fraction(1), Fraction(1)),
    ]
    assert sorted(binary_form_rational_zeros(P("c1*c2", 2), 0, 1)) == [
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(0)),
    ]
    assert binary_form_rational_zeros(P("c1^2", 2), 0, 1) == [
        (Fraction(0), Fraction(1))
    ]
    assert binary_form_rational_zeros(P("c2^3", 2), 0, 1) == [
        (Fraction(1), Fraction(0))
    ]


def test_binary_form_embedded_variables():
    f = P("c2^2 + c3^2", 3)
    assert binary_form_rational_zeros(f, 1, 2) == []


def test_binary_form_input_validation():
    with pytest.raises(ValueError):
        binary_form_rational_zeros(P("c1^2 + c2", 2), 0, 1)
    with pytest.raises(ValueError):
        binary_form_rational_zeros(P("c1^2 + c1*c3", 3), 0, 1)


# -- buchberger ---------------------------------------------------------

def test_univariate_pure_power():
    gb = buchberger([P("-c1^3", 1)])
    assert [g.to_text() for g in gb] == ["c1^3"]
    assert is_zero_dimensional(gb, 1)
    mp = minimal_polynomial(gb, 0, 1)
    assert mp == [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
    assert rational_roots(mp) == [Fraction(0)]


def test_textbook_zero_dimensional():
    gb = buchberger([P("c1^2 - 1", 2), P("c2 - c1", 2)])
    assert is_zero_dimensional(gb, 2)
    assert rational_roots(minimal_polynomial(gb, 0, 2)) == [Fraction(-1), Fraction(1)]
    assert rational_roots(minimal_polynomial(gb, 1, 2)) == [Fraction(-1), Fraction(1)]
    assert len(staircase(gb, 2)) == 2


def test_single_form_positive_dimensional():
    gb = buchberger([P("2*c1^2 + 2*c1*c2 + c2^2", 2)])
    assert len(gb) == 1
    assert not is_zero_dimensional(gb, 2)


def test_origin_only_system_has_pure_power_minimal_polys():
    # any common zero other than the origin would show up as a nonzero
    # coefficient below the lead in one of the minimal polynomials
    g1 = P("c1^4 - 3*c1^2*c2 + c2^2", 2)
    g2 = P("-c1^5 + 4*c1^3*c2 - 3*c1*c2^2", 2)
    gb = buchberger([g1, g2])
    assert is_zero_dimensional(gb, 2)
    for var in (0, 1):
        mp = minimal_polynomial(gb, var, 2)
        assert rational_roots(mp) == [Fraction(0)]
        assert all(c == 0 for c in mp[:-1])


def test_system_with_rational_points():
    gb = buchberger([P("c1^2 - 4", 2), P("c2 - 3", 2)])
    assert is_zero_dimensional(gb, 2)
    assert rational_roots(minimal_polynomial(gb, 0, 2)) == [Fraction(-2), Fraction(2)]
    assert rational_roots(minimal_polynomial(gb, 1, 2)) == [Fraction(3)]


def test_inconsistent_system_collapses_to_unit():
    gb = buchberger([P("c1", 2), P("c1 - 1", 2)])
    assert len(gb) == 1
    assert gb[0].max_degree() == 0
    assert is_zero_dimensional(gb, 2)
    assert staircase(gb, 2) == []


CYCLIC_GENS = [
    P("c1 + c2 + c3", 3),
    P("c1*c2 + c2*c3 + c3*c1", 3),
    P("c1*c2*c3 - 1", 3),
]
DETERMINISTIC_GENS = [P("c1^2*c2 - 1", 3), P("c1*c2^2 - c3", 3), P("c3^2 - c1", 3)]
BUDGET_GENS = [
    P("c1^2 + c2^2 + c3^2 - 1", 3),
    P("c1*c2*c3 - 1", 3),
    P("c1^3 - c2", 3),
]


def test_budget_exceeded_raises():
    with pytest.raises(BudgetExceeded) as info:
        buchberger(BUDGET_GENS, Budgets(max_steps=5))
    assert "budget" in str(info.value)


def test_buchberger_deterministic():
    first = [g.to_text() for g in buchberger(DETERMINISTIC_GENS)]
    second = [g.to_text() for g in buchberger(DETERMINISTIC_GENS)]
    assert first == second


@pytest.mark.parametrize("gens, steps", [
    (CYCLIC_GENS, 18),
    (DETERMINISTIC_GENS, 27),
    (BUDGET_GENS, 162),
])
def test_buchberger_step_count_pins_pair_order(gens, steps):
    # the exact step count depends on which S-pair is reduced when, so a
    # change in the selection order moves these budget boundaries
    buchberger(gens, Budgets(max_steps=steps))
    with pytest.raises(BudgetExceeded):
        buchberger(gens, Budgets(max_steps=steps - 1))


def test_cyclic_three():
    gb = buchberger(CYCLIC_GENS)
    assert is_zero_dimensional(gb, 3)
    assert len(staircase(gb, 3)) == 6
    assert Fraction(1) in rational_roots(minimal_polynomial(gb, 0, 3))


# -- division properties ------------------------------------------------

CYCLIC_GB = buchberger(CYCLIC_GENS)
# not a Groebner basis: c1^2*c2 has a different remainder in each order
ORDERED_BASIS = [P("c1*c2 - c3", 3), P("c1^2 - c2", 3), P("c2*c3 - c1 + 2", 3)]


def _random_poly(rng_ints, nvars=3, max_exp=3, terms=4):
    data = {}
    it = iter(rng_ints)
    for _ in range(terms):
        exps = tuple(next(it) % (max_exp + 1) for _ in range(nvars))
        coeff = next(it) % 19 - 9
        if coeff:
            data[exps] = data.get(exps, 0) + coeff
    return Polynomial(nvars, data)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=16, max_size=16))
def test_reduction_is_idempotent_and_exact(ints):
    p = _random_poly(ints)
    r = reduce_poly(p, CYCLIC_GB)
    assert reduce_poly(r, CYCLIC_GB) == r
    # the subtracted part is in the ideal, so it reduces to zero
    assert reduce_poly(p - r, CYCLIC_GB).is_zero()
    # no term of the remainder is divisible by a leading monomial
    leads = [leading_term(g)[0] for g in CYCLIC_GB]
    for exps in r.terms:
        assert not any(all(e >= l for e, l in zip(exps, lead)) for lead in leads)


def _reference_reduce(poly, basis, meter):
    """Division by re-scanning for the largest term at every step."""
    lts = [leading_term(b) for b in basis]
    work = dict(poly.terms)
    remainder = {}
    while work:
        exps = max(work, key=grevlex_key)
        coeff = work.pop(exps)
        hit = next(((b, lt) for b, lt in zip(basis, lts)
                    if lt is not None and mono_divides(lt[0], exps)), None)
        if hit is None:
            remainder[exps] = coeff
            continue
        meter.tick()
        b, (lexps, lcoeff) = hit
        q = mono_quotient(exps, lexps)
        factor = Fraction(coeff) / Fraction(lcoeff)
        for e, c in b.terms.items():
            if e == lexps:
                continue
            target = mono_mul(q, e)
            acc = work.get(target, 0) - factor * c
            if acc:
                work[target] = acc
            else:
                work.pop(target, None)
    return Polynomial(poly.nvars, remainder)


def test_ordered_basis_division_depends_on_order():
    p = P("c1^2*c2", 3)
    assert reduce_poly(p, ORDERED_BASIS) != reduce_poly(p, ORDERED_BASIS[::-1])


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=16, max_size=16),
       st.sampled_from([CYCLIC_GB, ORDERED_BASIS, ORDERED_BASIS[::-1]]))
def test_reduction_matches_reference_division(ints, basis):
    p = _random_poly(ints, max_exp=4)
    budgets = Budgets()
    fast, slow = _Meter(budgets), _Meter(budgets)
    leads = [leading_term(b) for b in basis]
    r = reduce_poly(p, basis, fast, leads)
    ref = _reference_reduce(p, basis, slow)
    assert list(r.terms.items()) == list(ref.terms.items())
    assert fast.steps == slow.steps
    assert reduce_poly(p, basis) == r


def test_leading_term_uses_grevlex():
    p = P("c1*c2 + c2^2 + c1^3", 3)
    exps, coeff = leading_term(p)
    assert exps == (3, 0, 0)
    assert coeff == 1
    assert all(grevlex_key(exps) >= grevlex_key(e) for e in p.terms)
