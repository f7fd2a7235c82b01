from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasscohom.polynomials import (
    Polynomial,
    grevlex_key,
    inverse_series,
    mono_degree,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quotient,
    monomials_of_degree,
    parse_polynomial,
)


def P(text, nvars):
    return parse_polynomial(text, nvars)


# -- term order ---------------------------------------------------------


def test_grevlex_two_vars_degree_slice():
    # within one weighted degree the order is by exponent sum, then the
    # rightmost differing exponent (smaller wins)
    assert monomials_of_degree(2, 4) == ((4, 0), (2, 1), (0, 2))
    assert monomials_of_degree(3, 4) == ((4, 0, 0), (2, 1, 0), (0, 2, 0), (1, 0, 1))
    assert monomials_of_degree(2, 5) == ((5, 0), (3, 1), (1, 2))


def test_grevlex_key_total_order():
    # higher exponent sum wins first
    assert grevlex_key((3, 0)) > grevlex_key((1, 1))
    # tie on sum: the rightmost differing exponent decides, smaller wins
    assert grevlex_key((1, 1)) > grevlex_key((0, 2))
    assert grevlex_key((2, 0, 1)) > grevlex_key((1, 1, 1))
    # the textbook 3-variable case: y^2 beats x*z
    assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))


def test_monomials_of_degree_counts_partitions():
    # degree-r monomials in k weighted vars = partitions of r with parts <= k
    assert len(monomials_of_degree(2, 6)) == 4   # 6=2+2+2=2+2+1+1=...
    assert len(monomials_of_degree(1, 5)) == 1
    assert monomials_of_degree(2, 0) == ((0, 0),)
    assert monomials_of_degree(2, -1) == ()


def test_mono_helpers():
    assert mono_mul((1, 2), (3, 0)) == (4, 2)
    assert mono_divides((1, 0), (1, 2))
    assert not mono_divides((2, 0), (1, 2))
    assert mono_quotient((4, 2), (1, 2)) == (3, 0)
    assert mono_lcm((1, 2), (3, 0)) == (3, 2)
    assert mono_degree((2, 1)) == 4  # deg c1 = 1, deg c2 = 2


# -- arithmetic ---------------------------------------------------------


coeffs = st.integers(min_value=-6, max_value=6)


def polys(nvars, max_terms=4, max_exp=3):
    exps = st.tuples(*([st.integers(0, max_exp)] * nvars))
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: Polynomial(nvars, d))


@settings(max_examples=60, deadline=None)
@given(polys(2), polys(2), polys(2))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()
    assert a + Polynomial.zero(2) == a
    assert a * Polynomial.one(2) == a


@settings(max_examples=30, deadline=None)
@given(polys(3, max_terms=3, max_exp=2))
def test_power_matches_repeated_product(a):
    assert a ** 0 == Polynomial.one(3)
    assert a ** 1 == a
    assert a ** 3 == a * a * a


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        Polynomial.one(2) ** -1


def test_mismatched_ring_rejected():
    with pytest.raises(ValueError):
        Polynomial.one(2) + Polynomial.one(3)
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})


# -- grading ------------------------------------------------------------


def test_graded_parts_partition_terms():
    p = P("c1^4 - 3*c1^2*c2 + c2^2 + c1 - 7", 2)
    assert p.degrees() == {0, 1, 4}
    parts = [p.graded_component(d) for d in sorted(p.degrees())]
    assert parts[2] == P("c1^4 - 3*c1^2*c2 + c2^2", 2)
    assert parts[1] == P("c1", 2)
    assert sum(parts, Polynomial.zero(2)) == p
    assert p.graded_component(3).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(2))
def test_graded_components_reassemble(a):
    total = Polynomial.zero(2)
    for d in sorted(a.degrees()):
        comp = a.graded_component(d)
        assert comp.is_homogeneous(d)
        total = total + comp
    assert total == a


def test_homogeneity_flags():
    assert P("c1^2 + 2*c2", 2).is_homogeneous(2)
    assert not P("c1^2 + c1", 2).is_homogeneous()
    assert Polynomial.zero(2).is_homogeneous()
    assert Polynomial.zero(2).is_homogeneous(5)
    assert P("c1^2 + c2", 2).max_degree() == 2
    assert Polynomial.zero(2).max_degree() == -1


# -- substitution and evaluation ---------------------------------------


def test_substitute_into_larger_ring():
    p = P("c1^2 - c2", 2)
    images = [P("c1", 3), P("c2 + c1^2", 3)]
    assert p.substitute(images) == P("-c2", 3)


def test_substitute_strict_degree_enforcement():
    p = P("c1", 1)
    with pytest.raises(ValueError):
        p.substitute([P("c2", 2)])  # degree 2 image for a degree-1 generator


def test_substitute_zero_image_kills_terms():
    p = P("c1*c2 + c2^2", 2)
    out = p.substitute([P("c1", 2), Polynomial.zero(2)])
    assert out.is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(2), st.integers(-4, 4), st.integers(-4, 4))
def test_evaluate_is_ring_map(a, x, y):
    b = a * a
    assert b.evaluate([x, y]) == a.evaluate([x, y]) ** 2


# -- text round trips ---------------------------------------------------


def test_canonical_text_examples():
    assert P("c1^4 - 3*c1^2*c2 + c2^2", 2).to_text() == "c1^4 - 3*c1^2*c2 + c2^2"
    assert Polynomial.zero(2).to_text() == "0"
    assert Polynomial.constant(2, -5).to_text() == "-5"
    assert P("3/2*c1 - 1/2", 1).to_text() == "3/2*c1 - 1/2"
    assert Polynomial.monomial((0, 1), Fraction(1, 3)).to_text() == "1/3*c2"


@settings(max_examples=60, deadline=None)
@given(polys(3))
def test_text_round_trip(a):
    assert parse_polynomial(a.to_text(), 3) == a


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("c9", 2)
    with pytest.raises(ValueError):
        parse_polynomial("c1 $ c2", 2)


def test_custom_names_round_trip():
    p = Polynomial(2, {(1, 0): 2, (0, 3): -1})
    text = p.to_text(["x", "y"])
    assert text == "-y^3 + 2*x"
    assert parse_polynomial(text, 2, ["x", "y"]) == p


# -- inverse series -----------------------------------------------------


@pytest.mark.parametrize("nvars,depth", [(1, 6), (2, 8), (3, 9)])
def test_inverse_series_is_inverse(nvars, depth):
    # independent oracle: (1 + c1 + ... + ck) * (sum of graded terms) must
    # telescope to 1 through the requested degree
    terms = inverse_series(nvars, depth)
    assert terms[0] == Polynomial.one(nvars)
    total = Polynomial.zero(nvars)
    for t in terms:
        total = total + t
    full = Polynomial.one(nvars)
    for i in range(nvars):
        full = full + Polynomial.generator(nvars, i)
    product = full * total
    assert product.graded_component(0) == Polynomial.one(nvars)
    for r in range(1, depth + 1):
        assert product.graded_component(r).is_zero(), r


def test_inverse_series_known_values():
    # k = 1: alternating signs
    t = inverse_series(1, 4)
    assert [x.to_text() for x in t] == ["1", "-c1", "c1^2", "-c1^3", "c1^4"]
    # k = 2, degree 3 and 4 terms
    t = inverse_series(2, 4)
    assert t[3] == P("-c1^3 + 2*c1*c2", 2)
    assert t[4] == P("c1^4 - 3*c1^2*c2 + c2^2", 2)


def test_inverse_series_terms_homogeneous():
    for r, term in enumerate(inverse_series(3, 7)):
        assert term.is_homogeneous(r)
