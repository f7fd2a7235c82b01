"""Cohomology rings of complex Grassmannians as explicit graded quotients.

H*(G_{n,k}; Z) is presented as Z[c1..ck] modulo the ideal generated by the
degree n-k+1 .. n terms of the inverse series of 1 + c1 + ... + ck.  This
module turns that presentation into data: per-degree monomial bases, exact
reduction of arbitrary polynomials to normal form, Betti numbers, the
Poincare pairing, and integer certificates that each graded piece is a free
abelian group of the predicted rank.

Degrees are complex degrees throughout (deg ci = i); callers that want
topological degrees double at the boundary.

Correctness scheme for the degree-r slice of the ideal (the span of m * h_j
over monomials m of degree r - j):

* rank: for any relation list, each degree 0..dim is reduced once by
  `linalg.integer_rref` (`_graded_reduction`), whose pivot count is the
  slice's exact rank over Q and whose free columns are the basis; the
  table, the Hilbert check and the freeness check all read that one
  reduction.  The k degrees above the top are only shown to vanish
  (`_window_vanishes`): `linalg.rank_lower_bound_certified` proves full
  column rank mod 2^31 - 1, else exactly, so no conclusion rests on a
  prime alone.  Each monomial of a higher degree is a generator times a
  monomial in that window, so every higher degree vanishes too, and the
  Hilbert series is read off the free-column counts of degrees 0..dim.
* freeness: integer row operations only; see `linalg.cokernel_is_free`.
* table: `build_ring` takes each degree's reductions from
  `linalg.integer_rref`, which row-reduces the slice modulo p = 2^31 - 1,
  lifts the residues to symmetric integers and accepts them only if every
  slice row maps to zero under the lifted reduction; otherwise it
  eliminates exactly.  Nothing rests on p: the rank over Q is at least the
  rank mod p, the pivot count, which is the dimension of the reduction's
  kernel, and the check puts the row space inside that kernel, so the two
  are equal.  Each reduction uses only free monomials after its pivot, so
  the pivots are the row space's leading monomials and the table is the
  unique reduced echelon form.  A table read from disk passes the same
  proof (`certify_table`), with `linalg.rank_lower_bound_certified`
  supplying the rank bound and the order checked rather than built in.

Tables serialize to `grasscohom.ring-table/2` (`table_to_dict`): the
relations as text, then per degree the basis as exponent vectors and the
reduction rows as basis indices with JSON-integer coefficients, so a load
is a `json` parse plus conversion.  `table_from_dict` checks the structure
as it converts (relations, section count, exponent vectors, basis sizes,
pivots, indices, coefficient types) and raises ValueError on a mismatch.
`cache.RingCache` is the one table cache: memory-only unless given a
directory, where it stores these payloads checksummed over their bytes.

A cut table, `build_ring(spec, through=c)` with c < dim, reduces degrees
0..c only, with the same per-degree checks; the window and top-degree
checks need the whole ring and run only on a complete table.  A graded
map G(n,k) -> G(m,l) needs the target only in degrees <= n, where the
source relations live, so certify and its relatives ask for no more.  A
cut table refuses (ValueError) to read any degree in (c, dim]: reductions,
Betti numbers, coordinates, the top coefficient and serialization all
raise there instead of reading zero, and degrees above dim still vanish.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .linalg import (
    bareiss_determinant,
    cokernel_is_free,
    integer_rref,
    rank_lower_bound_certified,
    rows_in_kernel,
)
from .polynomials import (
    Polynomial,
    grevlex_key,
    inverse_series,
    mono_degree,
    mono_mul,
    monomials_of_degree,
)


@dataclass(frozen=True)
class RingSpec:
    """Parameters (n, k) of the Grassmannian of k-planes in C^n.

    Any 1 <= k <= n-1 is accepted: the presentation is valid on both sides
    of the duality G_{n,k} ~ G_{n,n-k}, and the restriction maps need the
    redundant side (a plane-restriction source can have k > n/2).  Callers
    that want the canonical representative use `canonical()`.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(
                f"need 1 <= k <= n-1, got k={self.k} with n={self.n}"
            )

    @property
    def dim(self) -> int:
        """Complex dimension k(n-k); the top nonzero complex degree."""
        return self.k * (self.n - self.k)

    @property
    def is_canonical(self) -> bool:
        return 2 * self.k <= self.n

    def canonical(self) -> "RingSpec":
        """The duality-normalized spec with k <= n/2."""
        if self.is_canonical:
            return self
        return RingSpec(self.n, self.n - self.k)

    def __str__(self) -> str:
        return f"G({self.n},{self.k})"


@functools.cache
def grassmann_relations(spec: RingSpec) -> tuple[Polynomial, ...]:
    """The defining relations: inverse-series terms of degree n-k+1 .. n.

    Memoized per spec (builds, loads and map checks all ask for them); the
    tuple and its polynomials are immutable, so the shared value is safe.
    """
    series = inverse_series(spec.k, spec.n)
    return tuple(series[spec.n - spec.k + 1:])


def gaussian_binomial(n: int, k: int) -> list[int]:
    """Coefficient list of the q-binomial [n k]_q, length k(n-k)+1.

    Computed as prod_{i=1..k} (1 - q^{n-k+i}) / (1 - q^i) with exact
    polynomial division; every division is checked to leave no remainder.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got {k}, {n}")
    coeffs = [1]
    for i in range(1, k + 1):
        a = n - k + i
        t = coeffs + [0] * a
        for idx in range(a, len(t)):
            t[idx] -= coeffs[idx - a] if idx - a < len(coeffs) else 0
        quot = [0] * (len(t) - i)
        rem = t[:]
        for idx in range(len(quot)):
            quot[idx] = rem[idx]
            rem[idx + i] += rem[idx]
        if any(rem[len(quot):]):
            raise ArithmeticError("q-binomial division left a remainder")
        coeffs = quot
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
    return coeffs


def rectangle_tableau_count(rows: int, cols: int) -> int:
    """Number of standard Young tableaux of rows x cols rectangular shape:
    (rows*cols)! * prod_{i<rows} i! / prod_{i=cols}^{cols+rows-1} i!.

    This integer is the multiplier in the top-degree identity
    c1^d = N * ck^(n-k) (with rows=k, cols=n-k); the division is checked.
    """
    num = factorial(rows * cols)
    for i in range(rows):
        num *= factorial(i)
    den = 1
    for i in range(cols, cols + rows):
        den *= factorial(i)
    if num % den:
        raise ArithmeticError("tableau count formula is not integral")
    return num // den


def ideal_slice(relations: list[Polynomial], k: int, r: int):
    """Rows of the degree-r slice of the ideal over degree-r monomials.

    The relations must be homogeneous.  Returns (rows, monos, col_index):
    each row is {column: int} for one product m * h_j with
    deg m = r - deg h_j; monos is grevlex-descending.
    """
    monos = monomials_of_degree(k, r)
    col = {e: i for i, e in enumerate(monos)}
    rows = []
    for h in relations:
        if h.is_zero():
            continue
        j = mono_degree(next(iter(h.terms)))
        if j > r:
            continue
        items = list(h.terms.items())
        for m in monomials_of_degree(k, r - j):
            rows.append({col[mono_mul(m, e)]: c for e, c in items})
    return rows, monos, col


def _graded_reduction(relations: list[Polynomial], k: int, top: int):
    """Yield (rows, monos, reduced, free_cols) for each degree 0..top: the
    slice of `ideal_slice` and its certified `integer_rref` reduction, whose
    pivot count is the slice's exact rank for any relation list."""
    for r in range(top + 1):
        rows, monos, _ = ideal_slice(relations, k, r)
        reduced, free_cols = integer_rref(rows, len(monos))
        yield rows, monos, reduced, free_cols


def _window_vanishes(relations: list[Polynomial], k: int, d: int) -> bool:
    """True iff the quotient vanishes in degrees d+1 .. d+k, each slice
    certified to have full column rank, and so in every degree above d."""
    for r in range(d + 1, d + k + 1):
        rows, monos, _ = ideal_slice(relations, k, r)
        if not rank_lower_bound_certified(rows, len(monos), len(monos)):
            return False
    return True


def hilbert_check(spec: RingSpec, relations: list[Polynomial] | None = None) -> bool:
    """True iff the quotient's Hilbert series equals the q-binomial [n k]_q:
    the k degrees above d = k(n-k) vanish and every degree r <= d leaves
    exactly [n k]_q[r] free monomials in its `_graded_reduction`.
    """
    if relations is None:
        relations = grassmann_relations(spec)
    gauss = gaussian_binomial(spec.n, spec.k)
    return _window_vanishes(relations, spec.k, spec.dim) and all(
        len(free_cols) == gauss[r] for r, (_, _, _, free_cols) in enumerate(
            _graded_reduction(relations, spec.k, spec.dim)))


@dataclass(frozen=True)
class DegreeFreeness:
    degree: int
    rank: int
    betti: int
    free: bool


@dataclass(frozen=True)
class FreenessReport:
    """Per-degree freeness plus the Hilbert verdict of the same rank pass."""

    spec: RingSpec
    degrees: tuple[DegreeFreeness, ...]
    ok: bool
    window_vanishes: bool
    hilbert_ok: bool

    @property
    def offending_degrees(self) -> list[int]:
        return [e.degree for e in self.degrees if not e.free]

    @property
    def total_rank(self) -> int:
        return sum(e.betti for e in self.degrees)


def freeness_check(spec: RingSpec,
                   relations: list[Polynomial] | None = None) -> FreenessReport:
    """Certify that every graded piece of the quotient is free abelian.

    Per degree the certificate shows all Smith invariant factors of the
    integer slice matrix are 1: unit-lead staircase rows exhibit a +-1
    maximal minor directly, and any residual lattice is decided by
    factoring the gcd of sampled maximal minors and checking full rank
    modulo each prime divisor (a torsion prime divides every maximal
    minor, so primes outside the gcd need no check).  Each degree's rank is
    the pivot count of the same `_graded_reduction` that `hilbert_check`
    reads, whose verdict the report carries.

    The minors are sampled from a fixed `Random(0x5eed)`: which minors are
    drawn changes only how fast the gcd shrinks, never the verdict, since
    every prime the gcd leaves is checked exactly.
    """
    if relations is None:
        relations = grassmann_relations(spec)
    gauss = gaussian_binomial(spec.n, spec.k)
    rng = random.Random(0x5eed)
    window_vanishes = _window_vanishes(relations, spec.k, spec.dim)
    entries = []
    for r, (rows, monos, reduced, free_cols) in enumerate(
            _graded_reduction(relations, spec.k, spec.dim)):
        free = cokernel_is_free(rows, len(monos), len(reduced), rng)
        entries.append(DegreeFreeness(r, len(reduced), len(free_cols), free))
    return FreenessReport(
        spec, tuple(entries),
        ok=all(e.free for e in entries),
        window_vanishes=window_vanishes,
        hilbert_ok=window_vanishes and all(
            e.betti == gauss[e.degree] for e in entries),
    )


# -- the ring table ----------------------------------------------------


class RingTable:
    """Immutable per-degree basis and reduction data for one ring.

    basis[r] lists the monomials spanning degree r in grevlex-descending
    order; reduction[r] rewrites each non-basis monomial of degree r as
    {basis monomial: coefficient}.  All coefficients come out integral for
    these ideals; the code tolerates Fractions.

    A table holds degrees 0..through.  A complete table (through = dim) is
    checked in its top degree on construction.  A cut table (through <
    dim) refuses every read of a degree in (through, dim] with ValueError
    rather than reading it as zero; degrees above dim still vanish.
    """

    __slots__ = ("spec", "relations", "basis", "reduction", "top_unit", "through")

    def __init__(self, spec, relations, basis, reduction, through=None):
        self.spec = spec
        self.relations = relations
        self.basis = basis
        self.reduction = reduction
        self.through = spec.dim if through is None else min(through, spec.dim)
        self.top_unit = None
        if not self.complete:
            return
        top = self.basis[spec.dim]
        if len(top) != 1:
            raise ValueError(f"top degree of {spec} is not rank 1")
        # coordinate of ck^(n-k) against the top basis monomial
        ck_top = [0] * spec.k
        ck_top[spec.k - 1] = spec.n - spec.k
        coeff = self._reduce_monomial(tuple(ck_top)).get(top[0], 0)
        if coeff == 0:
            raise ValueError(f"ck^(n-k) vanishes in top degree of {spec}")
        self.top_unit = coeff

    @property
    def complete(self) -> bool:
        return self.through == self.spec.dim

    def covers(self, through: int | None = None) -> bool:
        """True if the table holds degrees 0..through (None: every degree)."""
        d = self.spec.dim
        return self.through >= (d if through is None else min(through, d))

    def _has_degree(self, r: int) -> bool:
        """True if degree r is stored, False if the ring vanishes there;
        ValueError if the cut dropped it."""
        if r > self.through:
            if r <= self.spec.dim:
                raise ValueError(f"{self.spec} table is cut at degree "
                                 f"{self.through}; degree {r} was not built")
            return False
        return r >= 0

    def _reduce_monomial(self, exps):
        r = sum((i + 1) * e for i, e in enumerate(exps))
        red = self.reduction[r].get(exps)
        if red is not None:
            return red
        return {exps: 1}

    def degree_basis(self, r: int) -> list:
        """basis[r], empty outside 0..dim."""
        return self.basis[r] if self._has_degree(r) else []

    def betti(self, r: int) -> int:
        return len(self.degree_basis(r))

    @property
    def betti_numbers(self) -> list[int]:
        return [self.betti(r) for r in range(self.spec.dim + 1)]

    @property
    def total_rank(self) -> int:
        return sum(self.betti_numbers)

    def normal_form_terms(self, poly: Polynomial) -> dict:
        """Reduce every graded component; degrees beyond the top vanish."""
        if poly.nvars != self.spec.k:
            raise ValueError(
                f"polynomial has {poly.nvars} generators, ring expects {self.spec.k}"
            )
        cut = self.through
        out: dict = {}
        for exps, coeff in poly.terms.items():
            r = sum((i + 1) * e for i, e in enumerate(exps))
            if r > cut and not self._has_degree(r):
                continue
            red = self.reduction[r].get(exps)
            if red is None:
                acc = out.get(exps, 0) + coeff
                if acc:
                    out[exps] = acc
                else:
                    out.pop(exps, None)
            else:
                for b, c in red.items():
                    acc = out.get(b, 0) + coeff * c
                    if acc:
                        out[b] = acc
                    else:
                        out.pop(b, None)
        return out


def build_ring(spec: RingSpec, through: int | None = None) -> RingTable:
    """Construct basis and reduction data by exact row reduction of every
    ideal slice of degree 0..through (default: the top degree dim), then,
    for a complete table, certify the vanishing window above the top.

    The basis in each degree consists of the non-pivot monomials; its size
    is checked against the q-binomial coefficient [n k]_q[r].  Each degree
    is reduced on its own, so a cut table agrees with the complete one in
    every degree it holds.  A cut below the top and at or below degree n-k
    lies under every relation (degrees n-k+1..n), so it holds no relations
    and never computes them.
    """
    k = spec.k
    d = spec.dim
    cut = d if through is None else min(through, d)
    relations = () if cut < d and cut <= spec.n - k else grassmann_relations(spec)
    gauss = gaussian_binomial(spec.n, k)
    basis: dict[int, list] = {}
    reduction: dict[int, dict] = {}
    for r, (_, monos, reduced, free_cols) in enumerate(
            _graded_reduction(relations, k, cut)):
        if len(free_cols) != gauss[r]:
            raise AssertionError(
                f"{spec} degree {r}: basis size {len(free_cols)}, "
                f"expected {gauss[r]}"
            )
        basis[r] = [monos[j] for j in free_cols]
        reduction[r] = {monos[piv]: {monos[j]: c for j, c in expr.items()}
                        for piv, expr in reduced.items()}
    if cut == d and not _window_vanishes(relations, k, d):
        raise AssertionError(f"{spec}: degrees {d + 1}..{d + k} fail to vanish")
    return RingTable(spec, relations, basis, reduction, cut)


class RingElement:
    """An element of a quotient ring, stored by its normal-form terms.

    Sums, scalars and grading are `Polynomial`'s, reached through
    `as_poly()`; this class keeps ring products, powers and coordinates.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingTable, poly_or_terms):
        self.ring = ring
        if isinstance(poly_or_terms, Polynomial):
            self.terms = ring.normal_form_terms(poly_or_terms)
        else:
            self.terms = dict(poly_or_terms)

    def as_poly(self) -> Polynomial:
        return Polynomial(self.ring.spec.k, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ring), frozenset(self.terms.items())))

    def __mul__(self, other: "RingElement") -> "RingElement":
        if self.ring is not other.ring:
            raise ValueError("elements live in different rings")
        return RingElement(self.ring, self.as_poly() * other.as_poly())

    def __pow__(self, power: int) -> "RingElement":
        if power < 0:
            raise ValueError("negative powers are not defined here")
        result = RingElement(self.ring, Polynomial.one(self.ring.spec.k))
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def coords(self, r: int) -> list:
        """Coefficient vector over basis[r] (zero-padded)."""
        return [self.terms.get(b, 0) for b in self.ring.degree_basis(r)]

    def top_coefficient(self):
        """Coefficient of ck^(n-k) in the top-degree component."""
        top_mono = self.ring.degree_basis(self.ring.spec.dim)[0]
        coeff = self.terms.get(top_mono, 0)
        if coeff == 0:
            return 0
        value = Fraction(coeff) / Fraction(self.ring.top_unit)
        return int(value) if value.denominator == 1 else value

    def to_text(self) -> str:
        return self.as_poly().to_text()

    def __repr__(self) -> str:
        return f"<{self.ring.spec} element {self.to_text()}>"


def generator_element(ring: RingTable, index: int, power: int = 1) -> RingElement:
    return RingElement(ring, Polynomial.generator(ring.spec.k, index, power))


def top_identity(ring: RingTable) -> tuple[int, bool]:
    """(N, verified): N from the factorial formula; verified means
    betti(d) == 1 and c1^d == N * ck^(n-k) in normal form."""
    spec = ring.spec
    d = spec.dim
    n_formula = rectangle_tableau_count(spec.k, spec.n - spec.k)
    if ring.betti(d) != 1:
        return n_formula, False
    c1_top = generator_element(ring, 0, d)
    ck = [0] * spec.k
    ck[spec.k - 1] = spec.n - spec.k
    ck_top = RingElement(ring, Polynomial.monomial(tuple(ck), n_formula))
    return n_formula, c1_top == ck_top


def pairing_matrix(ring: RingTable, r: int) -> list[list]:
    """Matrix of top-coefficient(a * b) over basis[r] x basis[d-r]."""
    d = ring.spec.dim
    if not 0 <= r <= d:
        raise ValueError(f"degree {r} outside [0, {d}]")
    rows = []
    for a in ring.degree_basis(r):
        ea = RingElement(ring, Polynomial.monomial(a))
        row = []
        for b in ring.degree_basis(d - r):
            eb = RingElement(ring, Polynomial.monomial(b))
            row.append((ea * eb).top_coefficient())
        rows.append(row)
    return rows


def pairing_is_unimodular(ring: RingTable, r: int) -> bool:
    mat = pairing_matrix(ring, r)
    if any(not isinstance(v, int) for row in mat for v in row):
        return False
    return abs(bareiss_determinant(mat)) == 1


def nilpotency_degree(ring: RingTable, element: RingElement) -> int:
    """Least e >= 1 with element^e == 0; needs positive homogeneous degree."""
    degs = element.as_poly().degrees()
    if not degs:
        return 1
    if len(degs) != 1 or min(degs) < 1:
        raise ValueError("need a homogeneous element of positive degree")
    r = degs.pop()
    bound = ring.spec.dim // r + 1
    power = element
    for e in range(1, bound + 2):
        if power.is_zero():
            return e
        power = power * element
    raise AssertionError("element failed to vanish beyond the top degree")


# -- serialization ------------------------------------------------------

TABLE_SCHEMA = "grasscohom.ring-table/2"

_FRACTION_RE = re.compile(r"-?[1-9][0-9]*/[1-9][0-9]*")


def _coeff_to_json(c):
    return int(c) if c.denominator == 1 else str(c)


def table_to_dict(ring: RingTable) -> dict:
    """Format v2: the relations as text, then one section per degree
    r = 0..dim holding `basis`, exponent vectors in grevlex-descending
    order, and `reduction`, one `[pivot, [[basis index, coeff], ...]]`
    entry per non-basis monomial, sorted by the pivot's grevlex key, with
    terms sorted by basis index.  A coefficient is a JSON int, or a "p/q"
    string for a non-integral Fraction.  A cut table raises ValueError."""
    spec = ring.spec
    degrees = []
    for r in range(spec.dim + 1):
        basis = ring.degree_basis(r)
        index = {b: i for i, b in enumerate(basis)}
        reduction = [
            [list(piv), [[i, _coeff_to_json(c)]
                         for i, c in sorted((index[b], c) for b, c in expr.items())]]
            for piv, expr in sorted(ring.reduction[r].items(),
                                    key=lambda t: grevlex_key(t[0]))
        ]
        degrees.append({"basis": [list(b) for b in basis], "reduction": reduction})
    return {
        "schema": TABLE_SCHEMA,
        "n": spec.n,
        "k": spec.k,
        "relations": [h.to_text() for h in ring.relations],
        "degrees": degrees,
    }


def _exponents(value, k: int, r: int):
    if (type(value) is not list or len(value) != k
            or any(type(e) is not int or e < 0 for e in value)
            or sum(w * e for w, e in enumerate(value, 1)) != r):
        raise ValueError(f"degree {r}: {value!r} is not an exponent vector "
                         f"of length {k} and degree {r}")
    return tuple(value)


def _fraction_from_json(value):
    if type(value) is str and _FRACTION_RE.fullmatch(value):
        frac = Fraction(value)
        if frac.denominator > 1 and str(frac) == value:
            return frac
    raise ValueError(f"coefficient {value!r} is neither an int nor a "
                     f"reduced p/q string")


def table_from_dict(payload: dict) -> RingTable:
    """Inverse of `table_to_dict`, checking the structure as it converts.

    Raises ValueError unless the relations equal `grassmann_relations`,
    there are dim+1 degree sections, every exponent vector has length k,
    non-negative int entries and the section's degree, each basis holds
    [n k]_q[r] distinct monomials, the pivots are distinct and outside the
    basis, basis and pivots together count every degree-r monomial, every
    basis index is in range (and increasing within a row), and every
    coefficient is an int or a reduced "p/q" string.
    """
    if not isinstance(payload, dict) or payload.get("schema") != TABLE_SCHEMA:
        raise ValueError("unsupported table payload or schema")
    n, k = payload["n"], payload["k"]
    spec = RingSpec(n, k)
    d = spec.dim
    relations = grassmann_relations(spec)
    if payload["relations"] != [h.to_text() for h in relations]:
        raise ValueError(f"relations differ from those of {spec}")
    sections = payload["degrees"]
    if type(sections) is not list or len(sections) != d + 1:
        raise ValueError(f"expected {d + 1} degree sections")
    gauss = gaussian_binomial(n, k)
    basis: dict[int, list] = {}
    reduction: dict[int, dict] = {}
    for r, section in enumerate(sections):
        monos = [_exponents(v, k, r) for v in section["basis"]]
        size = len(monos)
        if size != gauss[r] or len(set(monos)) != size:
            raise ValueError(f"degree {r}: basis is not {gauss[r]} distinct monomials")
        entries = section["reduction"]
        table = {}
        for piv, terms in entries:
            expr = {}
            last = -1
            for i, c in terms:
                if type(i) is not int or not last < i < size:
                    raise ValueError(f"degree {r}: basis index {i!r} out of "
                                     f"range or order")
                last = i
                expr[monos[i]] = c if type(c) is int else _fraction_from_json(c)
            table[_exponents(piv, k, r)] = expr
        if len(table) != len(entries) or not table.keys().isdisjoint(monos):
            raise ValueError(f"degree {r}: pivots repeat or meet the basis")
        count = len(monomials_of_degree(k, r))
        if size + len(table) != count:
            raise ValueError(f"degree {r}: basis and pivots cover "
                             f"{size + len(table)} of {count} monomials")
        basis[r] = monos
        reduction[r] = table
    return RingTable(spec, relations, basis, reduction)


def certify_table(table: RingTable) -> None:
    """Prove that every stored degree of `table` is its slice's row
    reduction, as the module docstring's table bullet argues; ValueError
    otherwise.

    Per degree r: each pivot's row uses only basis monomials after the
    pivot in grevlex-descending order, every row of `ideal_slice` maps to
    zero under the table (`rows_in_kernel`), and the slice has rank at
    least the number of pivots (`rank_lower_bound_certified`).  A table
    read from disk passes this before it is used.
    """
    spec = table.spec
    for r in range(table.through + 1):
        rows, monos, col = ideal_slice(table.relations, spec.k, r)
        reduced = {}
        for piv, expr in table.reduction[r].items():
            p = col[piv]
            row = {col[b]: c for b, c in expr.items()}
            if any(j <= p for j in row):
                raise ValueError(f"{spec} degree {r}: the reduction of "
                                 f"{piv} uses a basis monomial before it")
            reduced[p] = row
        free_cols = sorted(col[b] for b in table.basis[r])
        if not (rows_in_kernel(rows, len(monos), reduced, free_cols)
                and rank_lower_bound_certified(rows, len(monos), len(reduced))):
            raise ValueError(f"{spec} degree {r}: the reductions are not the "
                             f"row reduction of the relation slice")


def __getattr__(name):
    # perfbench/ reads rings.RingCache and rings.DEFAULT_CACHE; the one
    # table cache lives in the cache module, which imports this one
    if name in ("RingCache", "DEFAULT_CACHE"):
        from . import cache
        return getattr(cache, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
