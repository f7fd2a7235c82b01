"""Graded ring homomorphisms between Grassmannian cohomology rings.

A GradedHom stores only its source/target parameters and the generator
images (degree-preserving polynomials); everything else is recomputed from
ring tables on demand.  Construction never checks that relations map to
zero: `check_well_defined` is the single source of truth for that, and
deliberately broken maps are representable so the check has something to
reject.

The two restriction families are

* plane-count restriction (n+1,k) -> (n,k): every c_r maps to c_r; an
  isomorphism on cohomology in complex degrees <= n-k;
* subspace-dimension restriction (n+1,k+1) -> (n,k): c_r maps to c_r for
  r <= k and the top generator c_{k+1} maps to 0; an isomorphism in
  complex degrees <= k.

Composites of these realize the two legs used by the rigidity argument,
and `compose_alpha_beta` cross-checks the chain against the direct
generator-substitution description, so a miscounted chain cannot pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cache import RingCache, get_table
from .linalg import clear_denominators, rank_exact
from .polynomials import Polynomial, parse_polynomial
from .rings import RingElement, RingSpec

HOM_SCHEMA = "grasscohom.graded-hom/1"


@dataclass(frozen=True)
class GradedHom:
    """A graded homomorphism candidate, stored by generator images.

    images[i] is the polynomial image of c_{i+1} in the target generators;
    each must be zero or homogeneous of complex degree i+1 (that much is
    structural for a graded map and is enforced here), but whether the
    source relations die in the target is `check_well_defined`'s job.
    """

    source: RingSpec
    target: RingSpec
    images: tuple[Polynomial, ...]

    def __post_init__(self):
        if len(self.images) != self.source.k:
            raise ValueError(
                f"expected {self.source.k} generator images, got {len(self.images)}"
            )
        for i, img in enumerate(self.images):
            if img.nvars != self.target.k:
                raise ValueError(
                    f"image of c{i + 1} written in {img.nvars} generators, "
                    f"target has {self.target.k}"
                )
            if not img.is_zero() and not img.is_homogeneous(i + 1):
                raise ValueError(
                    f"image of c{i + 1} is not homogeneous of degree {i + 1}"
                )

    def __str__(self) -> str:
        parts = ", ".join(
            f"c{i + 1} -> {img.to_text()}" for i, img in enumerate(self.images)
        )
        return f"{self.source} -> {self.target}: {parts}"

    def is_zero_map(self) -> bool:
        return all(img.is_zero() for img in self.images)


def identity_hom(spec: RingSpec) -> GradedHom:
    images = tuple(Polynomial.generator(spec.k, i) for i in range(spec.k))
    return GradedHom(spec, spec, images)


def zero_hom(source: RingSpec, target: RingSpec) -> GradedHom:
    images = tuple(Polynomial.zero(target.k) for _ in range(source.k))
    return GradedHom(source, target, images)


def restriction_i(n: int, k: int) -> GradedHom:
    """Restriction along one extra ambient dimension:
    (n+1,k) -> (n,k), c_r -> c_r."""
    source = RingSpec(n + 1, k)
    target = RingSpec(n, k)
    images = tuple(Polynomial.generator(k, i) for i in range(k))
    return GradedHom(source, target, images)


def restriction_j(n: int, k: int) -> GradedHom:
    """Restriction dropping the top generator:
    (n+1,k+1) -> (n,k), c_r -> c_r for r <= k, c_{k+1} -> 0."""
    source = RingSpec(n + 1, k + 1)
    target = RingSpec(n, k)
    images = tuple(Polynomial.generator(k, i) for i in range(k))
    images = images + (Polynomial.zero(k),)
    return GradedHom(source, target, images)


def apply_hom(h: GradedHom, x: RingElement,
              cache: RingCache | None = None) -> RingElement:
    """Image of x: substitute generator images, reduce in the target."""
    if x.ring.spec != h.source:
        raise ValueError(f"element lives in {x.ring.spec}, hom expects {h.source}")
    target_ring = get_table(h.target, cache)
    substituted = x.as_poly().substitute(list(h.images))
    return RingElement(target_ring, substituted)


def apply_hom_poly(h: GradedHom, poly: Polynomial,
                   cache: RingCache | None = None) -> RingElement:
    """Image of a raw source polynomial (no source reduction first)."""
    target_ring = get_table(h.target, cache)
    return RingElement(target_ring, poly.substitute(list(h.images)))


def compose(g: GradedHom, h: GradedHom,
            cache: RingCache | None = None) -> GradedHom:
    """The composite x -> g(h(x)); h runs first.

    Images are reduced to normal form in the final target so equal
    composites compare equal.
    """
    if h.target != g.source:
        raise ValueError(
            f"cannot compose: {h.target} (after first map) != {g.source}"
        )
    target_ring = get_table(g.target, cache)
    images = []
    for img in h.images:
        pushed = img.substitute(list(g.images))
        images.append(RingElement(target_ring, pushed).as_poly())
    return GradedHom(h.source, g.target, tuple(images))


@dataclass(frozen=True)
class WellDefinedReport:
    ok: bool
    relation_index: int | None = None
    relation_text: str | None = None
    witness: RingElement | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_well_defined(h: GradedHom,
                       cache: RingCache | None = None) -> WellDefinedReport:
    """A graded hom is well defined iff every source relation maps to zero
    in the target; on failure the offending relation and its nonzero image
    are returned as the witness."""
    source_ring = get_table(h.source, cache)
    for idx, rel in enumerate(source_ring.relations):
        image = apply_hom_poly(h, rel, cache)
        if not image.is_zero():
            return WellDefinedReport(False, idx, rel.to_text(), image)
    return WellDefinedReport(True)


def degree_matrix(h: GradedHom, r: int,
                  cache: RingCache | None = None) -> list[list[Fraction]]:
    """Rows: images of the source degree-r basis in target coordinates."""
    source_ring = get_table(h.source, cache)
    rows = []
    for mono in source_ring.basis.get(r, []):
        img = apply_hom_poly(h, Polynomial.monomial(mono), cache)
        rows.append(img.coords(r))
    return rows


def _matrix_rank(rows) -> int:
    if not rows:
        return 0
    sparse = [clear_denominators({j: v for j, v in enumerate(row) if v})[0]
              for row in rows]
    return rank_exact(sparse, len(rows[0]))


@dataclass(frozen=True)
class DegreeRank:
    degree: int
    source_betti: int
    target_betti: int
    rank: int

    @property
    def surjective(self) -> bool:
        return self.rank == self.target_betti

    @property
    def bijective(self) -> bool:
        return self.rank == self.source_betti == self.target_betti


def rank_profile(h: GradedHom,
                 cache: RingCache | None = None) -> list[DegreeRank]:
    """Per-degree image ranks up to the target's top degree."""
    source_ring = get_table(h.source, cache)
    target_ring = get_table(h.target, cache)
    out = []
    for r in range(target_ring.spec.dim + 1):
        rank = _matrix_rank(degree_matrix(h, r, cache))
        out.append(DegreeRank(r, source_ring.betti(r), target_ring.betti(r), rank))
    return out


def surjective_every_degree(h: GradedHom,
                            cache: RingCache | None = None) -> bool:
    return all(e.surjective for e in rank_profile(h, cache))


def bijective_through_degree(h: GradedHom, bound: int,
                             cache: RingCache | None = None) -> bool:
    profile = rank_profile(h, cache)
    return all(e.bijective for e in profile if e.degree <= bound)


def compose_alpha_beta(m: int, l: int, n: int, k: int,
                       cache: RingCache | None = None) -> tuple[GradedHom, GradedHom]:
    """The two restriction legs used by the rigidity argument.

    alpha: (m,l) -> (m-l+k,k) drops the top generator l-k times;
    beta: (m-l+k,k) -> (n,k) forgets ambient dimensions one at a time.
    Requires k < l and m-l > n-k so both chains are nonempty and valid.
    Each chain is cross-checked against its one-step substitution
    description; a miscounted chain fails loudly here, not downstream.
    """
    if not k < l:
        raise ValueError(f"need k < l, got k={k}, l={l}")
    if not m - l > n - k:
        raise ValueError(f"need m-l > n-k, got m-l={m - l}, n-k={n - k}")
    mid = m - l + k

    alpha = None
    spec_n, spec_k = m - 1, l - 1
    for _ in range(l - k):
        step = restriction_j(spec_n, spec_k)
        alpha = step if alpha is None else compose(step, alpha, cache)
        spec_n -= 1
        spec_k -= 1
    assert alpha is not None and alpha.target == RingSpec(mid, k)
    mid_ring = get_table(RingSpec(mid, k), cache)
    alpha_canon = tuple(RingElement(mid_ring, img).as_poly() for img in alpha.images)
    direct = tuple(
        RingElement(mid_ring,
                    Polynomial.generator(k, i) if i < k
                    else Polynomial.zero(k)).as_poly()
        for i in range(l)
    )
    if alpha_canon != direct:
        raise AssertionError("restriction chain disagrees with substitution")

    beta = None
    for ambient in range(mid - 1, n - 1, -1):
        step = restriction_i(ambient, k)
        beta = step if beta is None else compose(step, beta, cache)
    assert beta is not None and beta.target == RingSpec(n, k)
    final_ring = get_table(RingSpec(n, k), cache)
    beta_canon = tuple(RingElement(final_ring, img).as_poly() for img in beta.images)
    direct_beta = tuple(
        RingElement(final_ring, Polynomial.generator(k, i)).as_poly()
        for i in range(k)
    )
    if beta_canon != direct_beta:
        raise AssertionError("ambient chain disagrees with substitution")
    return alpha, beta


# -- serialization ------------------------------------------------------


def hom_to_dict(h: GradedHom) -> dict:
    return {
        "schema": HOM_SCHEMA,
        "source": {"n": h.source.n, "k": h.source.k},
        "target": {"n": h.target.n, "k": h.target.k},
        "images": [img.to_text() for img in h.images],
    }


def hom_from_dict(payload: dict) -> GradedHom:
    if payload.get("schema") != HOM_SCHEMA:
        raise ValueError(f"unsupported hom schema: {payload.get('schema')!r}")
    source = RingSpec(payload["source"]["n"], payload["source"]["k"])
    target = RingSpec(payload["target"]["n"], payload["target"]["k"])
    images = tuple(
        parse_polynomial(text, target.k) for text in payload["images"]
    )
    return GradedHom(source, target, images)
