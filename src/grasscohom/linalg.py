"""Exact linear algebra over Z and Q for the per-degree ring tables.

Everything here works on small sparse matrices whose rows are dicts mapping
column index to a nonzero int (or Fraction after back-substitution).  The
three jobs are:

* table: row reduction that yields, per degree, the reduction of every
  pivot monomial as a Q-combination of the free (basis) monomials.
  `integer_rref` row-reduces modulo p = 2^31 - 1, lifts each pivot row's
  residues to symmetric integers, and keeps the result only if every
  input row maps to zero under the lifted reduction (`rows_in_kernel`),
  trusting nothing about p.  The rank over Q is at least the rank mod p,
  which is the pivot count, which is the dimension of the reduction's
  kernel; the check puts the row space inside that kernel, so the two
  are equal.  Each lifted row lives on free columns right of its pivot,
  so the pivots are the row space's leading columns and the result is
  the unique reduced echelon form.  A wrong lift, a pivot set that
  depends on p or a fractional entry fails the check, and the exact
  fraction-free elimination (`_rref_exact`) runs instead;
* integer cokernel analysis certifying that a quotient slice is free as an
  abelian group (all Smith invariant factors 1), organized so that the
  dense Smith form is only a last resort;
* determinants and ranks used by the pairing and rank-profile checks
  (fraction-free Bareiss, and a mod-p rank shortcut with exact fallback).

Every elimination modulo a prime, whatever its size, is the one dense
routine `_echelon_mod_prime`: `integer_rref`, `rank_mod_prime` (the
cokernel check's rank modulo each torsion candidate) and the first rung of
`rank_lower_bound_certified` all call it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np

Row = dict  # column index -> nonzero coefficient

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
    {free_col: coefficient} expressing  e_pivot = sum coeff * e_free  modulo
    the row space, i.e. the pivot row rewritten as
    pivot = -sum(coeff_free * free)  with the sign already folded in:
    stored row gives pivot_monomial = sum(stored[j] * basis_monomial_j).

    The reduction is computed modulo `_DENSE_PRIME` and lifted to
    symmetric integers, then accepted only through `rows_in_kernel` (see
    the module docstring); otherwise `_rref_exact` computes it with
    Fraction coefficients.  Both give the same pivots, free columns and
    values, each an int when integral.
    """
    if not rows:  # a degree below the first relation
        return {}, list(range(ncols))
    mat, pivot_cols = _echelon_mod_prime(rows, ncols, _DENSE_PRIME, reduced=True)
    pivot_set = set(pivot_cols)
    free_cols = [j for j in range(ncols) if j not in pivot_set]
    # stored = -(symmetric residue): p - v above p/2, -v otherwise
    block = mat[:len(pivot_cols)][:, free_cols]
    lifted = np.where(block > _DENSE_PRIME // 2, _DENSE_PRIME - block, -block)
    reduced = {
        p: {free_cols[t]: v for t, v in enumerate(values) if v}
        for p, values in zip(pivot_cols, lifted.tolist())
    }
    if rows_in_kernel(rows, ncols, reduced, free_cols):
        return reduced, free_cols
    return _rref_exact(rows, ncols)


def _rref_exact(rows: list[Row], ncols: int) -> tuple[dict[int, Row], list[int]]:
    """`integer_rref` by fraction-free forward elimination
    (`_forward_echelon`) and a back-substitution that introduces Fractions
    only at the end; integral entries come back as ints, as on the modular
    path."""
    echelon = _forward_echelon(rows)
    # back-substitution, right-to-left, to clear pivot columns above
    free_cols = [j for j in range(ncols) if j not in echelon]
    free_set = set(free_cols)
    reduced: dict[int, Row] = {}
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
        reduced[lead] = {j: c.numerator if c.denominator == 1 else c
                         for j, c in expr.items() if c}
    return reduced, free_cols


def rows_in_kernel(rows: list[Row], ncols: int, reduced: dict[int, Row],
                   free_cols: list[int]) -> bool:
    """True iff every row maps to zero under the reduction map phi:
    e_f -> e_f for a free column f, e_p -> sum(reduced[p][f] * e_f) for a
    pivot column p (entries are ints or Fractions, and only free columns).

    Exact: phi is scaled by the common denominator of its entries, and the
    dense product runs in int64 only when no partial sum can leave its
    range (largest row sum of |rows| times the largest |phi| below 2^63),
    otherwise over Python ints.
    """
    if not rows or not free_cols:
        return True
    slot = {f: t for t, f in enumerate(free_cols)}
    denom = 1
    for expr in reduced.values():
        for c in expr.values():
            if c.denominator != 1:
                denom = lcm(denom, c.denominator)
    phi = [(f, t, denom) for f, t in slot.items()]
    phi += [(p, slot[f], int(c * denom))
            for p, expr in reduced.items() for f, c in expr.items()]
    entries = [(i, j, c) for i, row in enumerate(rows) for j, c in row.items()]
    row_sums = [0] * len(rows)
    for i, _, c in entries:
        row_sums[i] += abs(c)
    bound = max(row_sums) * max(abs(v) for _, _, v in phi)
    dtype = np.int64 if bound < 1 << 63 else object
    product = (_dense(entries, (len(rows), ncols), dtype)
               @ _dense(phi, (ncols, len(free_cols)), dtype))
    return not np.count_nonzero(product)


def _dense(entries: list[tuple[int, int, int]], shape: tuple[int, int],
           dtype) -> np.ndarray:
    """Dense array of the given shape holding (row, column, value) entries."""
    mat = np.zeros(shape, dtype=dtype)
    if entries:
        ii, jj, vv = zip(*entries)
        mat[ii, jj] = vv
    return mat


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


def _echelon_mod_prime(rows: list[Row], ncols: int, prime: int,
                       stop: int | None = None,
                       reduced: bool = False) -> tuple[np.ndarray, list[int]]:
    """Vectorized dense elimination over F_prime, for any prime.

    Up to 2^31 - 1 residues and their pairwise products fit in int64;
    above it the matrix holds Python ints (numpy object dtype), so the
    arithmetic is exact either way.  Returns (mat, pivot_cols): row i
    of mat, for i < len(pivot_cols), is monic at pivot_cols[i] and zero
    left of it.  Below the pivot rows mat is zero (unless `stop` cut the
    elimination short after that many pivots); with `reduced` each pivot
    column is also zero above its row, so the pivot rows are the RREF.
    """
    m = len(rows)
    mat = _dense([(i, j, c % prime) for i, row in enumerate(rows)
                  for j, c in row.items()], (m, ncols),
                 np.int64 if prime <= _DENSE_PRIME else object)
    pivot_cols: list[int] = []
    for j in range(ncols):
        rank = len(pivot_cols)
        if rank >= m or (stop is not None and rank >= stop):
            break
        nz = mat[rank:, j].nonzero()[0]
        if nz.size == 0:
            continue
        pr = rank + int(nz[0])
        if pr != rank:
            mat[[rank, pr]] = mat[[pr, rank]]
        inv = pow(int(mat[rank, j]), -1, prime)
        mat[rank, j:] = mat[rank, j:] * inv % prime
        lo = 0 if reduced else rank + 1
        hit = lo + mat[lo:, j].nonzero()[0]
        hit = hit[hit != rank]
        if hit.size:
            block = mat[hit, j:]
            mat[hit, j:] = (block - block[:, :1] * mat[rank, j:]) % prime
        pivot_cols.append(j)
    return mat, pivot_cols


def rank_mod_prime(rows: list[Row], ncols: int, prime: int = _DENSE_PRIME,
                   stop: int | None = None) -> int:
    """Rank over F_prime by `_echelon_mod_prime`, stopping after `stop`
    pivots.  Like every mod-p rank this is a lower bound for the rank over
    Q."""
    return len(_echelon_mod_prime(rows, ncols, prime, stop)[1])


def rank_lower_bound_certified(rows: list[Row], ncols: int, expected: int) -> bool:
    """True iff the rank over Q is at least `expected`, decided exactly.

    Two rungs: the rank mod 2^31 - 1 (`_echelon_mod_prime`), then exact
    fraction-free elimination.  A mod-p rank only ever under-reports, so a
    hit on the first rung is conclusive and a miss escalates.
    """
    if expected <= 0:
        return True
    pivots = _echelon_mod_prime(rows, ncols, _DENSE_PRIME, expected)[1]
    return len(pivots) >= expected or rank_exact(rows, ncols) >= expected


def rank_exact(rows: list[Row], ncols: int) -> int:
    """Rank over Q: the pivot count of `_rref_exact`'s forward phase, with
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
    return all(rank_mod_prime(core, ncc, prime=p, stop=need) >= need
               for p in primes)
