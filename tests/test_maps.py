import json
from fractions import Fraction

import pytest

from grasscohom.maps import (
    _matrix_rank,
    GradedHom,
    apply_hom,
    bijective_through_degree,
    check_well_defined,
    compose,
    compose_alpha_beta,
    hom_from_dict,
    hom_to_dict,
    identity_hom,
    rank_profile,
    restriction_i,
    restriction_j,
    surjective_every_degree,
    zero_hom,
)
from grasscohom.polynomials import Polynomial, parse_polynomial
from grasscohom.rings import RingElement, RingSpec


def test_constructor_rejects_wrong_image_count(tables):
    with pytest.raises(ValueError):
        GradedHom(RingSpec(5, 2), RingSpec(5, 2),
                  (Polynomial.generator(2, 0),))


def test_constructor_rejects_wrong_degree(tables):
    # image of the degree-2 generator must be homogeneous of degree 2
    with pytest.raises(ValueError):
        GradedHom(RingSpec(5, 2), RingSpec(5, 2),
                  (Polynomial.generator(2, 0), Polynomial.generator(2, 0)))


def test_identity_and_zero_maps(tables):
    ident = identity_hom(RingSpec(4, 2))
    zero = zero_hom(RingSpec(4, 2), RingSpec(5, 2))
    assert check_well_defined(ident, tables).ok
    assert check_well_defined(zero, tables).ok
    assert zero.is_zero_map()
    assert not ident.is_zero_map()


def test_hyperplane_restriction_kills_top_power(tables):
    h = restriction_i(2, 1)
    assert h.source == RingSpec(3, 1)
    assert h.target == RingSpec(2, 1)
    assert check_well_defined(h, tables).ok
    source = tables.get(RingSpec(3, 1))
    c1_sq = RingElement(source, parse_polynomial("c1^2", 1))
    assert apply_hom(h, c1_sq, tables).is_zero()


def test_subspace_restriction_drops_last_generator(tables):
    j = restriction_j(3, 1)
    assert j.source == RingSpec(4, 2)
    assert j.target == RingSpec(3, 1)
    assert check_well_defined(j, tables).ok
    assert j.images[-1].is_zero()


def test_restriction_surjective_and_iso_in_range(tables):
    h = restriction_i(4, 2)  # (5,2) -> (4,2)
    assert check_well_defined(h, tables).ok
    assert surjective_every_degree(h, tables)
    # iso through complex degree n - k of the target, here 2
    assert bijective_through_degree(h, 2, tables)
    assert not bijective_through_degree(h, 3, tables)
    profile = rank_profile(h, tables)
    assert all(entry.surjective for entry in profile)
    by_degree = {entry.degree: entry for entry in profile}
    assert by_degree[2].rank == by_degree[2].source_betti == 2
    # one dimension is lost at degree 3, so the map is onto but not 1-1
    assert by_degree[3].source_betti == 2
    assert by_degree[3].rank == by_degree[3].target_betti == 1


def test_subspace_restriction_iso_range(tables):
    j = restriction_j(8, 4)  # (9,5) -> (8,4)
    assert check_well_defined(j, tables).ok
    assert bijective_through_degree(j, 4, tables)


def test_broken_map_reports_witness(tables):
    broken = GradedHom(RingSpec(3, 1), RingSpec(4, 1),
                       (Polynomial.generator(1, 0),))
    report = check_well_defined(broken, tables)
    assert not report.ok
    assert report.relation_index == 0
    assert report.witness is not None
    assert report.witness.to_text() == "-c1^3"


def test_compose_alpha_beta_well_defined(tables):
    alpha, beta = compose_alpha_beta(5, 2, 3, 1, tables)
    assert alpha.source == RingSpec(5, 2)
    assert alpha.target == RingSpec(4, 1)
    assert beta.source == RingSpec(4, 1)
    assert beta.target == RingSpec(3, 1)
    assert check_well_defined(alpha, tables).ok
    assert check_well_defined(beta, tables).ok


def test_compose_matches_sequential_application(tables):
    alpha, beta = compose_alpha_beta(5, 2, 3, 1, tables)
    both = compose(beta, alpha, tables)
    ring = tables.get(RingSpec(5, 2))
    x = RingElement(ring, parse_polynomial("c1^2 + 3*c2", 2))
    lhs = apply_hom(both, x, tables)
    rhs = apply_hom(beta, apply_hom(alpha, x, tables), tables)
    assert lhs == rhs


def test_compose_rejects_mismatched_specs(tables):
    h = restriction_i(4, 2)  # (5,2) -> (4,2)
    with pytest.raises(ValueError):
        compose(h, h, tables)


def test_hom_json_round_trip(tables):
    alpha, _ = compose_alpha_beta(5, 2, 3, 1, tables)
    payload = json.loads(json.dumps(hom_to_dict(alpha)))
    assert hom_from_dict(payload) == alpha


def test_rank_profile_covers_all_source_degrees(tables):
    h = restriction_i(3, 1)  # (4,1) -> (3,1)
    profile = rank_profile(h, tables)
    # the profile runs through the target's top degree
    assert [entry.degree for entry in profile] == [0, 1, 2]
    assert profile[-1].target_betti == 1


def test_matrix_rank_clears_denominators():
    assert _matrix_rank([]) == 0
    assert _matrix_rank([[0, 0], [0, 0]]) == 0
    assert _matrix_rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert _matrix_rank([[Fraction(1, 3), 0, 1], [0, Fraction(2, 5), 1],
                         [1, 1, 0]]) == 3
