"""Exact rational polynomial-system tools for the homomorphism solver.

Small systems only (a handful of unknowns), so the emphasis is on
determinism and honest resource accounting rather than raw speed:

* Buchberger's algorithm over Q with graded-reverse-lexicographic order,
  deterministic pair selection, and hard budgets on reduction steps and
  coefficient size.  Exceeding a budget raises BudgetExceeded; callers
  turn that into an explicit inconclusive outcome, never a silent answer.
  Each basis element's leading term is computed once, when it joins the
  basis, and the pending pairs sit in a heap keyed by (grevlex lcm, i, j);
  division pops its next term from a heap of monomials.
* zero-dimensionality test and staircase enumeration;
* minimal polynomial of a variable modulo a zero-dimensional ideal, by
  linear algebra over the staircase basis;
* exact rational root enumeration for univariate polynomials, which also
  decides whether a binary form has nontrivial rational zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .polynomials import (
    Polynomial,
    grevlex_key,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quotient,
)

_STAIRCASE_CAP = 4096  # staircase entries before a solve turns inconclusive


@dataclass(frozen=True)
class Budgets:
    """Resource limits for one solve."""
    max_steps: int = 1_000_000
    max_coeff_bytes: int = 64 * 1024 * 1024


class BudgetExceeded(Exception):
    """Raised when a solve hits its step or coefficient-size budget."""

    def __init__(self, what: str):
        super().__init__(what)
        self.what = what


class _Meter:
    """Mutable step/size counter shared across one Buchberger run."""

    __slots__ = ("budgets", "steps")

    def __init__(self, budgets: Budgets):
        self.budgets = budgets
        self.steps = 0

    def tick(self, count: int = 1) -> None:
        self.steps += count
        if self.steps > self.budgets.max_steps:
            raise BudgetExceeded("step budget exhausted")

    def check_size(self, basis) -> None:
        total = 0
        for p in basis:
            for c in p.terms.values():
                f = Fraction(c)
                total += (f.numerator.bit_length() + f.denominator.bit_length()) // 8
        if total > self.budgets.max_coeff_bytes:
            raise BudgetExceeded("coefficient budget exhausted")


def leading_term(poly: Polynomial):
    """(exponents, coefficient) of the grevlex-largest term; None if zero."""
    if not poly.terms:
        return None
    exps = max(poly.terms, key=grevlex_key)
    return exps, poly.terms[exps]


def _monic(poly: Polynomial) -> Polynomial:
    lt = leading_term(poly)
    if lt is None:
        return poly
    c = Fraction(lt[1])
    if c == 1:
        return poly
    return Polynomial(poly.nvars,
                      {e: Fraction(v) / c for e, v in poly.terms.items()})


def _descending_key(exps):
    """Key whose ascending order is descending grevlex (see grevlex_key)."""
    return (-sum(exps), exps[::-1])


def reduce_poly(poly: Polynomial, basis: list[Polynomial],
                meter: _Meter | None = None, leads: list | None = None) -> Polynomial:
    """Full remainder of poly on division by basis (list order breaks ties).

    `leads`, when given, holds `leading_term(b)` for each b in basis.
    Every eliminated term counts as one step against the meter.
    """
    if leads is None:
        leads = [leading_term(b) for b in basis]
    divisors = [(lt[0], lt[1], b.terms) for b, lt in zip(basis, leads) if lt is not None]
    work = dict(poly.terms)
    heap = [(_descending_key(e), e) for e in work]
    heapify(heap)
    remainder: dict = {}
    while heap:
        exps = heappop(heap)[1]
        # an entry is stale when its term cancelled; every term added below
        # is smaller than exps, so a popped monomial never comes back
        coeff = work.pop(exps, None)
        if coeff is None:
            continue
        for lexps, lcoeff, bterms in divisors:
            if mono_divides(lexps, exps):
                break
        else:
            remainder[exps] = coeff
            continue
        if meter is not None:
            meter.tick()
        q = mono_quotient(exps, lexps)
        factor = Fraction(coeff) / Fraction(lcoeff)
        for e, c in bterms.items():
            if e == lexps:
                continue
            target = mono_mul(q, e)
            if target not in work:
                heappush(heap, (_descending_key(target), target))
            acc = work.get(target, 0) - factor * c
            if acc:
                work[target] = acc
            else:
                work.pop(target, None)
    return Polynomial(poly.nvars, remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    (fe, fc) = leading_term(f)
    (ge, gc) = leading_term(g)
    lcm = mono_lcm(fe, ge)
    mf = mono_quotient(lcm, fe)
    mg = mono_quotient(lcm, ge)
    left = f.mul_monomial(mf).scale(Fraction(1) / Fraction(fc))
    right = g.mul_monomial(mg).scale(Fraction(1) / Fraction(gc))
    return left - right


def buchberger(gens: list[Polynomial], budgets: Budgets | None = None) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal, grevlex, monic leads.

    Pair selection is the normal strategy (smallest lcm first) with index
    tie-breaks, so runs are reproducible.  Raises BudgetExceeded rather
    than running away on hostile inputs.
    """
    if budgets is None:
        budgets = Budgets()
    meter = _Meter(budgets)
    basis: list[Polynomial] = []
    leads: list[tuple] = []
    pairs: list[tuple] = []

    def append(poly: Polynomial) -> None:
        lead = leading_term(poly)
        for t, (other, _) in enumerate(leads):
            heappush(pairs, (grevlex_key(mono_lcm(lead[0], other)), len(basis), t))
        basis.append(poly)
        leads.append(lead)

    for g in gens:
        if not g.is_zero():
            append(_monic(g))
    while pairs:
        _, i, j = heappop(pairs)
        fi, fj = basis[i], basis[j]
        ei, ej = leads[i][0], leads[j][0]
        # coprime leads never produce a new element
        if mono_lcm(ei, ej) == mono_mul(ei, ej):
            continue
        meter.tick()
        rem = reduce_poly(s_polynomial(fi, fj), basis, meter, leads)
        if rem.is_zero():
            continue
        new_index = len(basis)
        append(_monic(rem))
        if new_index % 8 == 0:
            meter.check_size(basis)
    return _reduce_basis(basis, leads, meter)


def _reduce_basis(basis: list[Polynomial], leads: list[tuple],
                  meter: _Meter) -> list[Polynomial]:
    """Minimalize (drop redundant leads) then inter-reduce, monic.

    `leads` holds `leading_term(p)` for each p in basis, all monic.
    """
    order = sorted(range(len(basis)), key=lambda t: grevlex_key(leads[t][0]))
    leads = [leads[t] for t in order]
    minimal: list[Polynomial] = []
    minimal_leads: list[tuple] = []
    for idx, t in enumerate(order):
        # sorted ascending, so only an earlier lead can divide this one
        if any(mono_divides(leads[s][0], leads[idx][0]) for s in range(idx)):
            continue
        minimal.append(basis[t])
        minimal_leads.append(leads[idx])
    if len(minimal) == 1:
        return minimal
    # no lead of a minimal basis divides another's lead, so each remainder
    # keeps its monic lead and the list stays in grevlex order
    return [reduce_poly(p, minimal[:idx] + minimal[idx + 1:], meter,
                        minimal_leads[:idx] + minimal_leads[idx + 1:])
            for idx, p in enumerate(minimal)]


def is_zero_dimensional(gb: list[Polynomial], nvars: int) -> bool:
    """True iff every variable has a pure-power leading monomial in gb
    (equivalently the staircase is finite)."""
    if any(not p.is_zero() and p.max_degree() == 0 for p in gb):
        return True  # ideal is (1): empty variety
    covered = [False] * nvars
    for p in gb:
        e = leading_term(p)[0]
        nz = [i for i, x in enumerate(e) if x]
        if len(nz) == 1:
            covered[nz[0]] = True
    return all(covered)


def staircase(gb: list[Polynomial], nvars: int) -> list[tuple]:
    """Monomials outside the leading-term ideal, for a zero-dim gb.

    Raises BudgetExceeded past `_STAIRCASE_CAP` entries (callers treat that
    as an inconclusive solve, not an error).
    """
    leads = [leading_term(p)[0] for p in gb]
    seen = set()
    out = []
    frontier = [tuple([0] * nvars)]
    while frontier:
        nxt = []
        for e in frontier:
            if e in seen:
                continue
            if any(mono_divides(l, e) for l in leads):
                continue
            seen.add(e)
            out.append(e)
            if len(out) > _STAIRCASE_CAP:
                raise BudgetExceeded("staircase larger than cap")
            for i in range(nvars):
                bumped = list(e)
                bumped[i] += 1
                nxt.append(tuple(bumped))
        frontier = nxt
    out.sort(key=grevlex_key)
    return out


def minimal_polynomial(gb: list[Polynomial], var: int, nvars: int,
                       budgets: Budgets | None = None) -> list[Fraction]:
    """Monic minimal polynomial of x_var modulo a zero-dimensional ideal,
    as coefficient list [c0, c1, ..., 1] (degree = len-1).

    Found as the first linear dependence among normal forms of successive
    powers of x_var over the staircase basis.
    """
    meter = _Meter(budgets or Budgets())
    monos = staircase(gb, nvars)
    index = {m: i for i, m in enumerate(monos)}
    dim = len(monos)
    leads = [leading_term(g) for g in gb]
    # rows of (power, vector) pairs kept in echelon form over Fractions
    echelon: dict[int, tuple[list[Fraction], list[Fraction]]] = {}
    power = Polynomial.one(nvars)
    x = Polynomial.generator(nvars, var)
    for s in range(dim + 1):
        nf = reduce_poly(power, gb, meter, leads) if s else power
        vec = [Fraction(0)] * dim
        for e, c in nf.terms.items():
            vec[index[e]] = Fraction(c)
        combo = [Fraction(0)] * (dim + 2)
        combo[s] = Fraction(1)
        for piv in range(dim):
            if vec[piv] == 0:
                continue
            entry = echelon.get(piv)
            if entry is None:
                inv = Fraction(1) / vec[piv]
                echelon[piv] = ([v * inv for v in vec], [c * inv for c in combo])
                break
            pvec, pcombo = entry
            f = vec[piv]
            vec = [v - f * pv for v, pv in zip(vec, pvec)]
            combo = [c - f * pc for c, pc in zip(combo, pcombo)]
        else:
            # vec reduced to zero: combo holds the dependence
            coeffs = combo[:s + 1]
            lead = coeffs[-1]
            return [c / lead for c in coeffs]
        power = power * x
    raise AssertionError("no dependence found within staircase dimension")


def rational_roots(coeffs: list, budgets: Budgets | None = None) -> list[Fraction]:
    """All rational roots of sum(coeffs[i] * x^i), exact.

    Uses the rational root theorem after clearing denominators; the zero
    root is reported when the trailing coefficient vanishes.  Every trial
    divisor is one step against the budget, since the search runs up to
    the square root of the end coefficients.
    """
    meter = _Meter(budgets or Budgets())
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has every rational root")
    if len(cs) == 1:
        return []
    denom = 1
    for c in cs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ics = [int(c * denom) for c in cs]
    roots = []
    low = 0
    while ics[low] == 0:
        low += 1
    if low > 0:
        roots.append(Fraction(0))
    ics = ics[low:]
    if len(ics) == 1:
        return roots
    a0, an = abs(ics[0]), abs(ics[-1])

    def divisors(v: int) -> list[int]:
        out = []
        d = 1
        while d * d <= v:
            meter.tick()
            if v % d == 0:
                out.append(d)
                if d != v // d:
                    out.append(v // d)
            d += 1
        return sorted(out)

    leading_divisors = divisors(an)
    for p in divisors(a0):
        for q in leading_divisors:
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = Fraction(0)
                for c in reversed(ics):
                    acc = acc * cand + c
                if acc == 0 and cand not in roots:
                    roots.append(cand)
    roots.sort()
    return roots


def binary_form_rational_zeros(poly: Polynomial, u: int, v: int,
                               budgets: Budgets | None = None) -> list[tuple]:
    """Nontrivial rational zeros (up to scaling) of a form in x_u, x_v.

    The polynomial must involve only those two variables and be homogeneous
    in them; returns representative (value_u, value_v) pairs, one per
    projective root, empty when the form is anisotropic over Q.  The
    root search is charged to `budgets` as in `rational_roots`.
    """
    degs = set()
    for e, c in poly.terms.items():
        if any(x and i not in (u, v) for i, x in enumerate(e)):
            raise ValueError("form involves other variables")
        degs.add(e[u] + e[v])
    if len(degs) != 1:
        raise ValueError("not homogeneous in the two variables")
    d = degs.pop()
    # coefficient of x_u^(d-t) x_v^t
    coeff = [Fraction(0)] * (d + 1)
    for e, c in poly.terms.items():
        coeff[e[v]] += Fraction(c)
    zeros = []
    # zero at (0 : 1) iff the x_v^d coefficient vanishes
    if coeff[d] == 0:
        zeros.append((Fraction(0), Fraction(1)))
    # every other zero has x_u nonzero: dehomogenize t = x_v / x_u,
    # so t = 0 covers the (1 : 0) point
    for root in rational_roots(coeff, budgets):
        zeros.append((Fraction(1), root))
    return zeros
