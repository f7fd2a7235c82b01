"""Exact linear algebra over Z and Q for the per-degree ring tables.

Everything here works on small sparse matrices whose rows are dicts mapping
column index to a nonzero int (or Fraction after back-substitution).  The
three jobs are:

* integer row reduction that yields, per degree, the reduction of every
  pivot monomial as a Q-combination of the free (basis) monomials;
* integer cokernel analysis certifying that a quotient slice is free as an
  abelian group (all Smith invariant factors 1), organized so that the
  dense Smith form is only a last resort;
* determinants and ranks used by the pairing and rank-profile checks
  (fraction-free Bareiss, and a mod-p rank shortcut with exact fallback).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import numpy as np

Row = dict  # column index -> nonzero coefficient

_RANK_PRIME = (1 << 61) - 1  # Mersenne prime; collisions never trusted, only used
                             # to certify *full* column rank cheaply
_DENSE_PRIME = (1 << 31) - 1  # products of residues stay inside int64


def row_content(row: Row) -> int:
    g = 0
    for c in row.values():
        g = gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def normalize_row(row: Row) -> Row:
    """Divide out the content and make the leading (min-column) entry positive."""
    if not row:
        return row
    g = row_content(row)
    lead = row[min(row)]
    if lead < 0:
        g = -g
    if g != 1:
        row = {j: c // g for j, c in row.items()}
    return row


def _forward_echelon(rows: list[Row]) -> dict[int, Row]:
    """Fraction-free forward elimination (cross-multiplication, content
    division): one row per pivot column, keyed by its lead column."""
    echelon: dict[int, Row] = {}
    for raw in rows:
        row = {j: c for j, c in raw.items() if c}
        while row:
            lead = min(row)
            pivot_row = echelon.get(lead)
            if pivot_row is None:
                echelon[lead] = normalize_row(row)
                break
            a = pivot_row[lead]
            b = row[lead]
            g = gcd(a, b)
            ma, mb = a // g, b // g
            # row := ma*row - mb*pivot_row  kills column `lead`
            new_row: Row = {}
            for j, c in row.items():
                new_row[j] = c * ma
            for j, c in pivot_row.items():
                acc = new_row.get(j, 0) - c * mb
                if acc:
                    new_row[j] = acc
                else:
                    new_row.pop(j, None)
            row = new_row
        # fully reduced to zero: dependent row, drop it
    return echelon


def integer_rref(rows: list[Row], ncols: int) -> tuple[dict[int, Row], list[int]]:
    """Reduced row echelon form over Q of an integer matrix, kept exact.

    Returns (pivots, free_cols) where pivots maps each pivot column to a row
    {free_col: Fraction} expressing  e_pivot = sum coeff * e_free  modulo the
    row space, i.e. the pivot row rewritten as
    pivot = -sum(coeff_free * free)  with the sign already folded in:
    stored row gives pivot_monomial = sum(stored[j] * basis_monomial_j).

    Forward phase is `_forward_echelon`; back-substitution introduces
    Fractions only at the end.
    """
    echelon = _forward_echelon(rows)
    # back-substitution, right-to-left, to clear pivot columns above
    free_cols = [j for j in range(ncols) if j not in echelon]
    free_set = set(free_cols)
    reduced: dict[int, dict[int, Fraction]] = {}
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        a = row[lead]
        expr: dict[int, Fraction] = {}
        for j, c in row.items():
            if j == lead:
                continue
            coeff = Fraction(-c, a)  # pivot = sum over non-pivot columns
            if j in free_set:
                expr[j] = expr.get(j, Fraction(0)) + coeff
            else:
                # j is a later pivot column, already expressed over free cols
                for jj, cc in reduced[j].items():
                    acc = expr.get(jj, Fraction(0)) + coeff * cc
                    if acc:
                        expr[jj] = acc
                    else:
                        expr.pop(jj, None)
        reduced[lead] = {j: c for j, c in expr.items() if c}
    return reduced, free_cols


def clear_denominators(row: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """Return (integer row, denominator) with row = int_row / denominator."""
    denom = 1
    for c in row.values():
        denom = denom * c.denominator // gcd(denom, c.denominator)
    return {j: int(c * denom) for j, c in row.items()}, denom


def smith_invariant_factors_all_one(rows: list[Row], ncols: int,
                                    expected_rank: int) -> bool:
    """True iff the integer matrix has Smith normal form diag(1,...,1,0,...)
    with exactly `expected_rank` ones.

    Equivalent statement: the cokernel Z^ncols / rowspace is free of rank
    ncols - expected_rank.  No content division is done anywhere: that would
    change the row lattice and hence the cokernel.
    """
    # dense working copy; slices are small (worst case a few hundred columns)
    mat = [[0] * ncols for _ in rows]
    for i, row in enumerate(rows):
        for j, c in row.items():
            mat[i][j] = c
    m = len(mat)
    n = ncols
    ones = 0
    top = 0  # rows/cols above `top` are finished
    while top < m and top < n:
        # find a pivot with minimal absolute value in the working block
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = mat[i][j]
                if v:
                    if best is None or abs(v) < abs(best[2]):
                        best = (i, j, v)
                        if abs(v) == 1:
                            break
            if best is not None and abs(best[2]) == 1:
                break
        if best is None:
            break  # block is zero
        bi, bj, _ = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for row_ in mat:
            row_[top], row_[bj] = row_[bj], row_[top]
        # clear column and row of the pivot; repeat while remainders appear
        while True:
            p = mat[top][top]
            dirty = False
            for i in range(top + 1, m):
                v = mat[i][top]
                if v:
                    q = v // p
                    if q:
                        for j in range(top, n):
                            mat[i][j] -= q * mat[top][j]
                    if mat[i][top]:
                        # remainder smaller than p: swap up and restart
                        mat[top], mat[i] = mat[i], mat[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, n):
                v = mat[top][j]
                if v:
                    q = v // p
                    if q:
                        for i in range(top, m):
                            mat[i][j] -= q * mat[i][top]
                    if mat[top][j]:
                        for row_ in mat:
                            row_[top], row_[j] = row_[j], row_[top]
                        dirty = True
                        break
            if not dirty:
                break
        p = abs(mat[top][top])
        if p != 1:
            # first non-unit invariant factor: freeness already fails
            # unless the remaining block is entirely zero AND p divides it,
            # but p != 1 alone sinks the all-ones requirement when this
            # pivot is genuinely needed for the rank.
            return False
        ones += 1
        top += 1
    # remaining block must be zero; any nonzero entry would raise the rank
    for i in range(top, m):
        for j in range(top, n):
            if mat[i][j]:
                return False
    return ones == expected_rank


def bareiss_determinant(mat: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def rank_mod_prime(rows: list[Row], ncols: int, prime: int = _RANK_PRIME,
                   stop: int | None = None) -> int:
    """Rank of the matrix over F_prime (a lower bound for the rank over Q).

    With `stop` set, returns as soon as that many pivots are found; rows are
    visited lead-column-first so the early exit triggers quickly.
    """
    work = []
    for row in rows:
        r = {j: c % prime for j, c in row.items()}
        r = {j: c for j, c in r.items() if c}
        if r:
            work.append(r)
    work.sort(key=lambda r: (min(r), len(r)))
    pivots: dict[int, Row] = {}
    for row in work:
        if stop is not None and len(pivots) >= stop:
            break
        while row:
            lead = min(row)
            pivot_row = pivots.get(lead)
            if pivot_row is None:
                inv = pow(row[lead], prime - 2, prime)
                pivots[lead] = {j: (c * inv) % prime for j, c in row.items()}
                break
            factor = row[lead]
            new_row: Row = {}
            for j, c in row.items():
                new_row[j] = c
            for j, c in pivot_row.items():
                acc = (new_row.get(j, 0) - factor * c) % prime
                if acc:
                    new_row[j] = acc
                else:
                    new_row.pop(j, None)
            row = new_row
    return len(pivots)


def rank_mod_prime_dense(rows: list[Row], ncols: int,
                         prime: int = _DENSE_PRIME,
                         stop: int | None = None) -> int:
    """Rank over F_prime by vectorized dense elimination.

    Residues and their pairwise products fit in int64 for primes below
    2^31.5, so the arithmetic is exact.  Like every mod-p rank this is a
    lower bound for the rank over Q; callers escalate on a shortfall.
    """
    if not rows or ncols == 0:
        return 0
    mat = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, c in row.items():
            mat[i, j] = c % prime
    m = len(rows)
    rank = 0
    for j in range(ncols):
        if rank >= m or (stop is not None and rank >= stop):
            break
        col = mat[rank:, j]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            mat[[rank, pr]] = mat[[pr, rank]]
        inv = pow(int(mat[rank, j]), prime - 2, prime)
        mat[rank, j:] = mat[rank, j:] * inv % prime
        col = mat[rank + 1:, j]
        hit = np.nonzero(col)[0]
        if hit.size:
            block = mat[rank + 1 + hit, j:]
            block = (block - col[hit, None] * mat[rank, j:]) % prime
            mat[rank + 1 + hit, j:] = block
        rank += 1
    return rank


def rank_lower_bound_certified(rows: list[Row], ncols: int, expected: int) -> bool:
    """True iff the rank over Q is at least `expected`, decided exactly.

    Escalation ladder: dense 31-bit mod-p, sparse 61-bit mod-p, exact
    fraction-free elimination.  Mod-p ranks only ever under-report, so a
    hit at any tier is conclusive and a miss just escalates.
    """
    if expected <= 0:
        return True
    if rank_mod_prime_dense(rows, ncols, stop=expected) >= expected:
        return True
    if rank_mod_prime(rows, ncols, stop=expected) >= expected:
        return True
    return rank_exact(rows, ncols) >= expected


def rank_exact(rows: list[Row], ncols: int) -> int:
    """Rank over Q: the pivot count of `integer_rref`'s forward phase, with
    no back-substitution."""
    return len(_forward_echelon(rows))


# -- cokernel freeness --------------------------------------------------
#
# The certificate that Z^ncols / rowspace is torsion-free proceeds in
# tiers.  Tier 1 runs integer row operations (never content division, so
# the lattice is preserved) keeping only rows whose lead coefficient is a
# unit; those form a staircase with a +-1 maximal minor.  Rows that stall
# on a non-unit lead are parked, their pivot-column entries are cleared,
# and the small residual lattice is decided in tier 2: collect a few
# nonzero maximal minors, factor their gcd, and check full rank modulo
# each prime factor.  A torsion prime divides every maximal minor, hence
# the gcd, so primes outside the factorization need no check.  A dense
# Smith form remains as the (practically unreached) tier 3.


def unit_echelon(rows: list[Row], stop: int) -> tuple[dict[int, Row], list[Row]]:
    """Integer echelon built from unit-lead rows only.

    Every operation is row -= c * pivot with integer c, so the span over Z
    of echelon rows plus parked rows equals the span of the input rows.
    Stops early once `stop` pivots exist: a full-rank unit staircase makes
    all remaining rows redundant for cokernel questions (see below).
    """
    echelon: dict[int, Row] = {}
    parked: list[Row] = []
    order = sorted((i for i in range(len(rows)) if rows[i]),
                   key=lambda i: (min(rows[i]), len(rows[i])))
    for i in order:
        if len(echelon) >= stop:
            break
        row = dict(rows[i])
        while row:
            lead = min(row)
            piv = echelon.get(lead)
            if piv is None:
                lc = row[lead]
                if lc < 0:
                    row = {j: -c for j, c in row.items()}
                    lc = -lc
                if lc == 1:
                    echelon[lead] = row
                else:
                    parked.append(row)
                break
            c = row[lead]
            for j, pc in piv.items():
                acc = row.get(j, 0) - c * pc
                if acc:
                    row[j] = acc
                else:
                    row.pop(j, None)
    return echelon, parked


def _clear_pivot_columns(row: Row, echelon: dict[int, Row]) -> Row:
    """Eliminate every pivot-column entry of `row`.  One left-to-right pass
    suffices because echelon rows have no entries left of their lead."""
    row = dict(row)
    for pc in sorted(echelon):
        c = row.get(pc)
        if c:
            for j, v in echelon[pc].items():
                acc = row.get(j, 0) - c * v
                if acc:
                    row[j] = acc
                else:
                    row.pop(j, None)
    return row


def sample_nonzero_minor(rows: list[Row], ncols: int, size: int,
                         rng: random.Random,
                         width: int | None = None) -> int | None:
    """Fraction-free determinant of some nonsingular size x size submatrix
    found greedily after shuffling rows and columns; None if the greedy
    path dies out.  `width` restricts the search to that many shuffled
    columns, which cuts the update cost; a failed narrow search is just a
    None, so callers retry wider."""
    idx = list(range(len(rows)))
    cols = list(range(ncols))
    rng.shuffle(idx)
    rng.shuffle(cols)
    if width is not None and width < ncols:
        if width < size:
            width = size
        cols = cols[:width]
        ncols = width
    mat = [[rows[i].get(j, 0) for j in cols] for i in idx]
    m = len(mat)
    sign = 1
    prev = 1
    used_cols: set[int] = set()
    row_at = 0
    for _ in range(size):
        found_col = None
        for j in range(ncols):
            if j in used_cols:
                continue
            for i in range(row_at, m):
                if mat[i][j]:
                    if i != row_at:
                        mat[row_at], mat[i] = mat[i], mat[row_at]
                        sign = -sign
                    found_col = j
                    break
            if found_col is not None:
                break
        if found_col is None:
            return None
        used_cols.add(found_col)
        p = mat[row_at][found_col]
        for i in range(row_at + 1, m):
            v = mat[i][found_col]
            ri, rt = mat[i], mat[row_at]
            for j in range(ncols):
                if j in used_cols:
                    continue
                ri[j] = (ri[j] * p - v * rt[j]) // prev
            ri[found_col] = 0
        prev = p
        row_at += 1
    return sign * prev


# Miller-Rabin with these witnesses is deterministic below this bound.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_TRIAL_FACTOR_BOUND = 100_000


def _is_proven_prime(value: int) -> bool:
    if value >= _MR_DETERMINISTIC_BOUND:
        return False
    if value < 2:
        return False
    for p in _MR_WITNESSES:
        if value % p == 0:
            return value == p
    d = value - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, value)
        if x in (1, value - 1):
            continue
        for _ in range(s - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


def _factor_completely(value: int) -> tuple[list[int], int]:
    """(distinct prime factors, unfactored leftover) of |value| using trial
    division plus a proven-range primality test; leftover 1 means success."""
    v = abs(value)
    primes = []
    for p in range(2, _TRIAL_FACTOR_BOUND):
        if p * p > v:
            break
        if v % p == 0:
            primes.append(p)
            while v % p == 0:
                v //= p
    if v > 1 and _is_proven_prime(v):
        primes.append(v)
        v = 1
    return primes, v


def cokernel_is_free(rows: list[Row], ncols: int, rank: int,
                     rng: random.Random | None = None,
                     _depth: int = 0) -> bool:
    """True iff Z^ncols / span_Z(rows) is free, given the span has `rank`.

    Early stopping is sound: once a sublattice with full rank and free
    cokernel is exhibited, every remaining row maps to a torsion class of a
    free group, hence to zero, so it already lies in the sublattice.
    """
    if rank == 0:
        return True
    if rng is None:
        rng = random.Random(0x5eed)
    echelon, parked = unit_echelon(rows, rank)
    retries = 0
    while parked and len(echelon) < rank and retries < 2:
        retries += 1
        before = len(echelon)
        merged = list(echelon.values()) + parked
        echelon, parked = unit_echelon(merged, rank)
        if len(echelon) <= before:
            break
    if len(echelon) >= rank:
        return True
    need = rank - len(echelon)
    cleaned = [r for r in (_clear_pivot_columns(p, echelon) for p in parked) if r]
    if not cleaned:
        # parked rows all died inside the staircase lattice yet the rank is
        # short of the target: the stated rank must be wrong
        raise ValueError("cokernel rank exceeds the span of the given rows")
    core_cols = sorted({j for row in cleaned for j in row})
    cmap = {j: i for i, j in enumerate(core_cols)}
    core = [{cmap[j]: c for j, c in row.items()} for row in cleaned]
    if _depth < 8:
        probe, _ = unit_echelon(core, need)
        if probe:
            return cokernel_is_free(core, len(core_cols), need, rng, _depth + 1)
    ncc = len(core_cols)
    minor = None
    for attempt in range(4):
        w = need + 32 if attempt < 2 else None
        minor = sample_nonzero_minor(core, ncc, need, rng, width=w)
        if minor is not None:
            break
    if minor is None:
        return smith_invariant_factors_all_one(core, ncc, need)
    # prime support of the torsion, if any, divides every maximal minor;
    # extra minors only serve to shrink an unfactorable leftover
    support = abs(minor)
    primes, leftover = _factor_completely(support)
    for _ in range(2):
        if leftover == 1:
            break
        extra = sample_nonzero_minor(core, ncc, need, rng)
        if extra is None:
            break
        support = gcd(support, extra)
        primes, leftover = _factor_completely(support)
    if leftover != 1:
        return smith_invariant_factors_all_one(core, ncc, need)
    for p in primes:
        if p < _DENSE_PRIME:
            rank_p = rank_mod_prime_dense(core, ncc, prime=p, stop=need)
        else:
            rank_p = rank_mod_prime(core, ncc, prime=p, stop=need)
        if rank_p < need:
            return False
    return True
