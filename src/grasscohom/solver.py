"""Rigidity solver: graded homomorphisms as exact polynomial systems.

A graded ring map between two Grassmannian cohomology rings is pinned
down by where the generators go, and each generator image is a rational
combination of the target basis in the matching degree.  Treating those
combination coefficients as unknowns, the requirement that every source
relation die in the target becomes a finite polynomial system over Q:
one constraint per (relation, target basis element in that degree) pair.
The zero assignment always solves it (the zero map is graded), so the
interesting question is whether anything else does.

`solve_system` decides that by an exact ladder, cheapest first:

1. substitute pinned and forced-zero unknowns, repeatedly;
2. linear constraints: row reduce, variables with no freedom are zero;
3. single-variable constraints: rational roots, {0} forces the variable;
4. two-variable homogeneous constraints: a form with no nontrivial
   rational zero kills both variables (recorded as rational-only, since
   the form may still vanish over the closure);
5. Groebner basis of what is left; when zero-dimensional, the rational
   points are enumerated exactly through per-variable minimal
   polynomials and checked against every constraint;
6. otherwise a deterministic witness search over a small rational grid,
   trying the identity pattern first for endomorphism systems;
7. anything still undecided is reported as Inconclusive with the reason,
   never silently truncated.

Nonzero solutions are returned as verified homomorphisms (the
well-definedness check is re-run on the reconstructed map, a separate
code path from the constraint system).  `certify_rigidity` wraps the
solve for a parameter tuple (k, l, m, n): it evaluates the hypothesis
checklist, applies the dimension shortcut that forces the degree-1
coefficient to vanish when the source ring is smaller than the target,
and emits a replayable JSON certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .cache import RingCache, get_table
from .groebner import (
    BudgetExceeded,
    Budgets,
    binary_form_rational_zeros,
    buchberger,
    is_zero_dimensional,
    minimal_polynomial,
    rational_roots,
)
from .linalg import clear_denominators, integer_rref
from .maps import GradedHom, check_well_defined, compose, compose_alpha_beta, hom_to_dict
from .polynomials import Polynomial, mono_degree
from .rings import RingSpec, generator_element, grassmann_relations

CERT_SCHEMA = "grasscohom.rigidity-certificate/1"

# deterministic witness-search values, zero first so assignments stay sparse
_GRID_VALUES = (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                Fraction(-2), Fraction(1, 2), Fraction(-1, 2))
_GRID_CAP = 200_000


# -- system construction ------------------------------------------------


@dataclass(frozen=True)
class Unknown:
    """One coefficient of one generator image.

    `generator` is the 1-based source generator index, which is also the
    complex degree; `basis_monomial` is the target basis monomial it
    multiplies.
    """

    generator: int
    basis_monomial: tuple
    name: str


@dataclass(frozen=True)
class HomSystem:
    """The polynomial system cut out by one (source, target) pair.

    `constraints[t]` is the coefficient of `constraint_labels[t][1]` (a
    target basis monomial of degree `constraint_labels[t][0]`) in the
    image of the relation of that degree; zero constraints are kept so
    the count always equals the sum of target Betti numbers over the
    relation degrees.  `pinned` lists unknown indices the caller has
    already set to zero (the degree-1 block under the dimension
    shortcut); pinning never changes the unknown count.
    """

    source: RingSpec
    target: RingSpec
    unknowns: tuple[Unknown, ...]
    constraints: tuple[Polynomial, ...]
    constraint_labels: tuple[tuple[int, tuple], ...]
    pinned: frozenset[int]

    @property
    def unknown_count(self) -> int:
        return len(self.unknowns)

    @property
    def constraint_count(self) -> int:
        return len(self.constraints)

    def generator_blocks(self) -> list[list[int]]:
        """Unknown indices grouped by source generator (1..k)."""
        blocks: list[list[int]] = [[] for _ in range(self.source.k)]
        for idx, u in enumerate(self.unknowns):
            blocks[u.generator - 1].append(idx)
        return blocks


def _sym_mul(a: dict, b: dict, table, prod_cache: dict) -> dict:
    """Product of two symbolic elements.

    A symbolic element maps target basis monomials to coefficient
    polynomials in the unknowns; basis products reduce through the ring
    table.
    """
    out: dict = {}
    for ea, pa in a.items():
        for eb, pb in b.items():
            key = (ea, eb)
            base = prod_cache.get(key)
            if base is None:
                prod = tuple(x + y for x, y in zip(ea, eb))
                base = table.normal_form_terms(Polynomial.monomial(prod))
                prod_cache[key] = base
            if not base:
                continue
            pp = pa * pb
            if pp.is_zero():
                continue
            for e2, c2 in base.items():
                piece = pp.scale(c2)
                cur = out.get(e2)
                out[e2] = piece if cur is None else cur + piece
    return {e: p for e, p in out.items() if not p.is_zero()}


def build_hom_system(source: RingSpec, target: RingSpec,
                     pin_c1_zero: bool = False,
                     cache: RingCache | None = None) -> HomSystem:
    """Set up the polynomial system for graded maps source -> target."""
    table = get_table(target, cache)
    dim = table.spec.dim

    unknowns: list[Unknown] = []
    blocks: list[list[int]] = []
    for i in range(1, source.k + 1):
        block = []
        basis = table.basis[i] if i <= dim else []
        for pos, mono in enumerate(basis):
            block.append(len(unknowns))
            unknowns.append(Unknown(i, mono, f"u{i}_{pos}"))
        blocks.append(block)
    n_unknowns = len(unknowns)

    # symbolic generator images: basis monomial -> unknown polynomial
    images: list[dict] = []
    for block in blocks:
        images.append({unknowns[idx].basis_monomial:
                       Polynomial.generator(n_unknowns, idx) for idx in block})

    prod_cache: dict = {}
    power_cache: dict = {}

    def image_power(gen: int, e: int) -> dict:
        got = power_cache.get((gen, e))
        if got is None:
            if e == 1:
                got = images[gen]
            else:
                got = _sym_mul(image_power(gen, e - 1), images[gen],
                               table, prod_cache)
            power_cache[(gen, e)] = got
        return got

    constraints: list[Polynomial] = []
    labels: list[tuple[int, tuple]] = []
    for relation in grassmann_relations(source):
        degree = relation.max_degree()
        acc: dict = {}
        for exps, coeff in relation.terms.items():
            term = {(0,) * target.k: Polynomial.constant(n_unknowns, coeff)}
            for gen, e in enumerate(exps):
                if e:
                    term = _sym_mul(term, image_power(gen, e),
                                    table, prod_cache)
            for mono, poly in term.items():
                cur = acc.get(mono)
                acc[mono] = poly if cur is None else cur + poly
        acc = {e: p for e, p in acc.items() if not p.is_zero()}
        basis = table.basis[degree] if degree <= dim else []
        for mono in acc:
            if mono_degree(mono) != degree or mono not in basis:
                raise AssertionError("relation image left the graded basis")
        for mono in basis:
            constraints.append(acc.get(mono, Polynomial.zero(n_unknowns)))
            labels.append((degree, mono))

    pinned = frozenset(blocks[0]) if (pin_c1_zero and blocks) else frozenset()
    return HomSystem(source, target, tuple(unknowns), tuple(constraints),
                     tuple(labels), pinned)


# -- solve outcomes -----------------------------------------------------


@dataclass(frozen=True)
class OnlyTrivial:
    """Zero is the only rational solution; `closure` marks when the
    argument also rules out every solution over the algebraic closure
    (all forcing steps were closure-valid, e.g. pure powers u^e = 0)."""

    closure: bool
    steps: tuple[str, ...]
    kind: ClassVar[str] = "only-trivial"


@dataclass(frozen=True)
class WitnessFound:
    """A nonzero solution, re-verified as a well-defined graded map."""

    hom: GradedHom
    assignment: tuple
    steps: tuple[str, ...]
    kind: ClassVar[str] = "witness"


@dataclass(frozen=True)
class Inconclusive:
    """The ladder ran out of sound moves or budget; `reason` says which."""

    reason: str
    steps: tuple[str, ...]
    kind: ClassVar[str] = "inconclusive"


SolveOutcome = OnlyTrivial | WitnessFound | Inconclusive


def _subs_zero(poly: Polynomial, zero_vars: set[int]) -> Polynomial:
    if not zero_vars:
        return poly
    kept = {e: c for e, c in poly.terms.items()
            if not any(e[v] for v in zero_vars)}
    return Polynomial(poly.nvars, kept)


def _support(poly: Polynomial) -> list[int]:
    seen: set[int] = set()
    for e in poly.terms:
        for i, x in enumerate(e):
            if x:
                seen.add(i)
    return sorted(seen)


def _linear_forced(linear: list[Polynomial], nvars: int) -> set[int]:
    """Variables that vanish on the whole kernel of the linear part."""
    rows = []
    for p in linear:
        frac_row = {e.index(1): Fraction(c) for e, c in p.terms.items()}
        int_row, _ = clear_denominators(frac_row)
        rows.append(int_row)
    pivots, _ = integer_rref(rows, nvars)
    return {piv for piv, expr in pivots.items() if not expr}


def _project(poly: Polynomial, var_map: dict[int, int], nvars: int) -> Polynomial:
    terms = {}
    for e, c in poly.terms.items():
        new = [0] * nvars
        for old, x in enumerate(e):
            if x:
                new[var_map[old]] = x
        terms[tuple(new)] = c
    return Polynomial(nvars, terms)


def _build_hom(system: HomSystem, assignment: list[Fraction]) -> GradedHom:
    images = []
    for block in system.generator_blocks():
        terms = {}
        for idx in block:
            value = assignment[idx]
            if value:
                coeff = int(value) if value.denominator == 1 else value
                terms[system.unknowns[idx].basis_monomial] = coeff
        images.append(Polynomial(system.target.k, terms))
    return GradedHom(system.source, system.target, tuple(images))


def _verified_witness(system: HomSystem, assignment: list[Fraction],
                      steps: list[str],
                      cache: RingCache | None) -> WitnessFound:
    hom = _build_hom(system, assignment)
    report = check_well_defined(hom, cache)
    if not report.ok:
        raise AssertionError(
            "assignment solves the constraint system but the rebuilt map "
            f"is not well defined (relation {report.relation_text})")
    names = [u.name for u in system.unknowns]
    shown = ", ".join(f"{names[i]}={assignment[i]}"
                      for i in range(len(assignment)) if assignment[i])
    steps.append(f"witness verified well defined: {shown}")
    return WitnessFound(hom, tuple(assignment), tuple(steps))


def _identity_assignment(system: HomSystem) -> list[Fraction] | None:
    if system.source != system.target:
        return None
    assignment = [Fraction(0)] * system.unknown_count
    for idx, u in enumerate(system.unknowns):
        gen_mono = tuple(1 if t == u.generator - 1 else 0
                         for t in range(system.target.k))
        if u.basis_monomial == gen_mono:
            assignment[idx] = Fraction(1)
    return assignment if any(assignment) else None


def solve_system(system: HomSystem, budgets: Budgets | None = None,
                 cache: RingCache | None = None) -> SolveOutcome:
    """Decide whether the system has a nonzero rational solution."""
    budgets = budgets if budgets is not None else Budgets()
    n_unknowns = system.unknown_count
    names = [u.name for u in system.unknowns]

    def render(poly: Polynomial) -> str:
        return poly.to_text(names)

    steps: list[str] = []
    forced: set[int] = set(system.pinned)
    if system.pinned:
        steps.append("pinned to zero: "
                     + ", ".join(names[i] for i in sorted(system.pinned)))
    if n_unknowns == 0:
        steps.append("no unknowns: the zero map is the only graded candidate")
        return OnlyTrivial(True, tuple(steps))

    closure_ok = True
    stashed_roots: dict[int, set[Fraction]] = {}

    while True:
        live = [q for q in (_subs_zero(p, forced) for p in system.constraints)
                if not q.is_zero()]
        remaining = [i for i in range(n_unknowns) if i not in forced]
        if not remaining:
            break
        progressed = False

        linear = [p for p in live if p.max_degree() == 1]
        if linear:
            hits = _linear_forced(linear, n_unknowns) - forced
            if hits:
                steps.append("linear constraints force zero: "
                             + ", ".join(names[i] for i in sorted(hits)))
                forced |= hits
                progressed = True

        for p in live:
            support = _support(p)
            if len(support) != 1 or support[0] in forced:
                continue
            var = support[0]
            degree = p.max_degree()
            coeffs = [Fraction(0)] * (degree + 1)
            for e, c in p.terms.items():
                coeffs[e[var]] += Fraction(c)
            roots = rational_roots(coeffs)
            if roots == [Fraction(0)]:
                pure = len(p.terms) == 1
                closure_ok = closure_ok and pure
                note = "" if pure else " (rational-only)"
                steps.append(f"{render(p)} = 0 forces {names[var]} = 0{note}")
                forced.add(var)
                progressed = True
            else:
                stashed_roots.setdefault(var, set()).update(roots)

        if progressed:
            continue

        for p in live:
            support = _support(p)
            if len(support) != 2 or any(v in forced for v in support):
                continue
            try:
                zeros = binary_form_rational_zeros(p, support[0], support[1])
            except ValueError:
                continue
            if not zeros:
                closure_ok = False
                steps.append(
                    f"{render(p)} = 0 has no nontrivial rational zero: "
                    f"{names[support[0]]}, {names[support[1]]} forced to zero "
                    "(rational-only)")
                forced.update(support)
                progressed = True

        if not progressed:
            break

    live = [q for q in (_subs_zero(p, forced) for p in system.constraints)
            if not q.is_zero()]
    remaining = [i for i in range(n_unknowns) if i not in forced]
    if not remaining:
        steps.append("all unknowns forced to zero")
        return OnlyTrivial(closure_ok, tuple(steps))

    if not live:
        assignment = [Fraction(0)] * n_unknowns
        assignment[remaining[0]] = Fraction(1)
        steps.append("no constraints restrict the remaining unknowns")
        return _verified_witness(system, assignment, steps, cache)

    var_map = {old: new for new, old in enumerate(remaining)}
    seen: set[str] = set()
    projected: list[Polynomial] = []
    for p in live:
        q = _project(p, var_map, len(remaining))
        text = q.to_text()
        if text not in seen:
            seen.add(text)
            projected.append(q)

    try:
        gb = buchberger(projected, budgets)
    except BudgetExceeded as failure:
        steps.append(f"elimination aborted: {failure.what}")
        return Inconclusive(failure.what, tuple(steps))

    if any(not p.is_zero() and p.max_degree() == 0 for p in gb):
        raise AssertionError("constraint system excludes the zero map")

    if is_zero_dimensional(gb, len(remaining)):
        try:
            minpolys = [minimal_polynomial(gb, v, len(remaining), budgets)
                        for v in range(len(remaining))]
        except BudgetExceeded as failure:
            steps.append(f"minimal-polynomial stage aborted: {failure.what}")
            return Inconclusive(failure.what, tuple(steps))
        roots = [rational_roots(mp) for mp in minpolys]
        pure = all(all(c == 0 for c in mp[:-1]) for mp in minpolys)
        steps.append(
            "zero-dimensional after elimination; minimal-polynomial degrees: "
            + ", ".join(f"{names[remaining[v]]}: {len(minpolys[v]) - 1}"
                        for v in range(len(remaining))))
        total = 1
        for r in roots:
            total *= len(r)
        if total > _GRID_CAP:
            steps.append(f"rational candidate grid of size {total} exceeds cap")
            return Inconclusive("candidate grid too large", tuple(steps))
        checked = 0
        for combo in itertools.product(*roots):
            if not any(combo):
                continue
            checked += 1
            assignment = [Fraction(0)] * n_unknowns
            for v, value in enumerate(combo):
                assignment[remaining[v]] = value
            if all(c.evaluate(assignment) == 0 for c in system.constraints):
                steps.append("nonzero rational point found among "
                             f"{total} candidates")
                return _verified_witness(system, assignment, steps, cache)
        steps.append(f"all {checked} nonzero rational candidates fail "
                     "the constraints; zero is the only rational solution")
        if pure:
            steps.append("every minimal polynomial is a pure power, so zero "
                         "is the only solution over the algebraic closure")
        return OnlyTrivial(closure_ok and pure, tuple(steps))

    steps.append("solution set may have positive dimension; "
                 "searching for a rational witness")
    candidates: list[list[Fraction]] = []
    for v in remaining:
        values = list(_GRID_VALUES)
        for extra in sorted(stashed_roots.get(v, ())):
            if extra not in values:
                values.append(extra)
        candidates.append(values)

    ident = _identity_assignment(system)
    if ident is not None and not any(ident[i] for i in forced):
        if all(c.evaluate(ident) == 0 for c in system.constraints):
            steps.append("identity pattern solves the system")
            return _verified_witness(system, ident, steps, cache)

    tested = 0
    for combo in itertools.product(*candidates):
        if not any(combo):
            continue
        tested += 1
        if tested > _GRID_CAP:
            steps.append(f"witness search stopped at {_GRID_CAP} assignments")
            return Inconclusive("witness search budget exhausted", tuple(steps))
        assignment = [Fraction(0)] * n_unknowns
        for v, value in zip(remaining, combo):
            assignment[v] = value
        if all(c.evaluate(assignment) == 0 for c in system.constraints):
            steps.append(f"rational witness found after {tested} assignments")
            return _verified_witness(system, assignment, steps, cache)
    steps.append(f"no rational witness among {tested} sampled assignments")
    return Inconclusive(
        "solution set not decided: elimination left positive dimension and "
        "no rational witness was found", tuple(steps))


# -- dimension shortcut -------------------------------------------------


def c1_vanishing_shortcut(source: RingSpec, target: RingSpec,
                          cache: RingCache | None = None,
                          verify: bool = True) -> bool:
    """True when dim(source) < dim(target), which forces the degree-1
    generator to map to zero.

    The point: c1^(d+1) vanishes in the source (degree past the top) but
    not in the target, and the degree-1 image is a scalar multiple of c1,
    so that scalar must be nilpotent in Q, hence zero.  With `verify` the
    two power computations are actually run rather than trusted.
    """
    ds, dt = source.dim, target.dim
    holds = ds < dt
    if holds and verify:
        power = ds + 1
        src_c1 = generator_element(get_table(source, cache), 0)
        tgt_c1 = generator_element(get_table(target, cache), 0)
        if not (src_c1 ** power).is_zero():
            raise AssertionError(f"c1^{power} unexpectedly nonzero in {source}")
        if (tgt_c1 ** power).is_zero():
            raise AssertionError(f"c1^{power} unexpectedly zero in {target}")
    return holds


# -- endomorphism reduction and the endo conjecture ---------------------


def endo_reduction(k: int, l: int, m: int, n: int, phi: GradedHom,
                   cache: RingCache | None = None) -> GradedHom:
    """The induced endomorphism of the comparison ring (m-l+k, k).

    Precomposing phi: (n,k) -> (m,l) with the ambient-raising restriction
    chain and postcomposing with the generator-dropping chain gives a
    self-map of one smaller ring; rigidity for the pair reduces to the
    structure of such self-maps.
    """
    if phi.source != RingSpec(n, k) or phi.target != RingSpec(m, l):
        raise ValueError(
            f"expected a map G({n},{k}) -> G({m},{l}), "
            f"got {phi.source} -> {phi.target}")
    alpha, beta = compose_alpha_beta(m, l, n, k, cache)
    return compose(alpha, compose(phi, beta, cache), cache)


@dataclass(frozen=True)
class ConjectureReport:
    """Outcome of the pinned endomorphism solve for one ring."""

    spec: RingSpec
    conclusion: str
    witness: GradedHom | None
    steps: tuple[str, ...]
    system: HomSystem


def conjecture_scan(n: int, k: int, budgets: Budgets | None = None,
                    cache: RingCache | None = None) -> ConjectureReport:
    """Solve the endomorphism system of G(n,k) with the degree-1
    coefficient pinned to zero.

    Only the zero map is expected; a witness here is the loud, surprising
    outcome and callers should treat it as such.
    """
    spec = RingSpec(n, k)
    system = build_hom_system(spec, spec, pin_c1_zero=True, cache=cache)
    outcome = solve_system(system, budgets, cache)
    witness = outcome.hom if isinstance(outcome, WitnessFound) else None
    return ConjectureReport(spec, outcome.kind, witness, outcome.steps, system)


# -- hypothesis checklist and certificates ------------------------------


def hypothesis_checklist(k: int, l: int, m: int, n: int,
                         strict_inequality: bool = True) -> list[dict]:
    """The certified-range conditions on (k, l, m, n), each with a
    human-readable detail string and its truth value."""
    quad = 2 * k * k - k - 1
    comparator = ">" if strict_inequality else ">="
    quad_ok = (m - l > quad) if strict_inequality else (m - l >= quad)
    return [
        {"name": "source-parameters",
         "detail": f"n >= 2 and 1 <= k <= floor(n/2): n={n}, k={k}",
         "holds": bool(n >= 2 and 1 <= k <= n // 2)},
        {"name": "target-parameters",
         "detail": f"m >= 2 and 1 <= l <= floor(m/2): m={m}, l={l}",
         "holds": bool(m >= 2 and 1 <= l <= m // 2)},
        {"name": "generator-count-grows",
         "detail": f"k < l: k={k}, l={l}",
         "holds": bool(k < l)},
        {"name": "codimension-gap",
         "detail": f"m - l > n - k: m-l={m - l}, n-k={n - k}",
         "holds": bool(m - l > n - k)},
        {"name": "quadratic-bound-or-small-k",
         "detail": (f"m - l {comparator} 2k^2-k-1 = {quad} or k <= 3: "
                    f"m-l={m - l}, k={k}"),
         "holds": bool(quad_ok or k <= 3)},
    ]


def admissible_tuples(k_max: int, l_max: int, m_max: int, n_max: int,
                      strict_inequality: bool = True) -> list[tuple[int, int, int, int]]:
    """All (k, l, m, n) within the ranges passing every hypothesis, in
    lexicographic order."""
    out = []
    for k in range(1, k_max + 1):
        for l in range(1, l_max + 1):
            for m in range(2, m_max + 1):
                for n in range(2, n_max + 1):
                    checks = hypothesis_checklist(k, l, m, n, strict_inequality)
                    if all(c["holds"] for c in checks):
                        out.append((k, l, m, n))
    return out


def _jsonable(value):
    """Normalize to JSON-native types so serialized certificates compare
    equal to freshly built ones."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class RigidityCertificate:
    """Replayable record of one rigidity decision."""

    parameters: dict
    strict_inequality: bool
    hypotheses: list
    hypotheses_ok: bool
    method: str | None
    conclusion: str
    budgets: dict
    evidence: dict

    def to_dict(self) -> dict:
        return {
            "schema": CERT_SCHEMA,
            "parameters": _jsonable(self.parameters),
            "strict_inequality": self.strict_inequality,
            "hypotheses": _jsonable(self.hypotheses),
            "hypotheses_ok": self.hypotheses_ok,
            "method": self.method,
            "conclusion": self.conclusion,
            "budgets": _jsonable(self.budgets),
            "evidence": _jsonable(self.evidence),
        }


def _system_evidence(system: HomSystem) -> dict:
    names = [u.name for u in system.unknowns]
    target_names = [f"c{i}" for i in range(1, system.target.k + 1)]

    def mono_text(mono):
        return Polynomial.monomial(mono).to_text(target_names)

    return {
        "unknowns": [
            {"name": u.name, "generator": u.generator,
             "basis_monomial": mono_text(u.basis_monomial)}
            for u in system.unknowns],
        "pinned": [names[i] for i in sorted(system.pinned)],
        "constraints": [
            {"relation_degree": degree,
             "basis_monomial": mono_text(mono),
             "polynomial": poly.to_text(names) if not poly.is_zero() else "0"}
            for (degree, mono), poly in zip(system.constraint_labels,
                                            system.constraints)],
    }


def certify_rigidity(k: int, l: int, m: int, n: int,
                     strict_inequality: bool = True,
                     budgets: Budgets | None = None,
                     cache: RingCache | None = None) -> RigidityCertificate:
    """Decide rigidity for maps G(n,k) -> G(m,l) in the certified range.

    All hypotheses are actually evaluated; if any fails the conclusion is
    `unverified-hypotheses` and no solve is attempted.  Otherwise the
    dimension shortcut pins the degree-1 coefficient when it applies and
    the pinned system is solved exactly.  The method tag records which
    route decided: `dimension-shortcut` (k = 1, nothing left after the
    pin), `reduction+solve` (pin plus higher-degree solve), or
    `full-solve` (no pin available).
    """
    budgets = budgets if budgets is not None else Budgets()
    parameters = {"k": k, "l": l, "m": m, "n": n}
    budget_info = {"max_steps": budgets.max_steps,
                   "max_coeff_bytes": budgets.max_coeff_bytes}
    hypotheses = hypothesis_checklist(k, l, m, n, strict_inequality)
    hypotheses_ok = all(h["holds"] for h in hypotheses)
    if not hypotheses_ok:
        return RigidityCertificate(
            parameters=parameters,
            strict_inequality=strict_inequality,
            hypotheses=hypotheses,
            hypotheses_ok=False,
            method=None,
            conclusion="unverified-hypotheses",
            budgets=budget_info,
            evidence={"note": "hypothesis checklist failed; no solve attempted"},
        )

    source = RingSpec(n, k)
    target = RingSpec(m, l)
    shortcut = c1_vanishing_shortcut(source, target, cache)
    system = build_hom_system(source, target, pin_c1_zero=shortcut, cache=cache)
    outcome = solve_system(system, budgets, cache)

    if shortcut and k == 1:
        method = "dimension-shortcut"
    elif shortcut:
        method = "reduction+solve"
    else:
        method = "full-solve"

    evidence: dict = {
        "source": {"n": n, "k": k, "dimension": source.dim},
        "target": {"n": m, "k": l, "dimension": target.dim},
        "c1_shortcut": {
            "holds": shortcut,
            "checked": (f"c1^{source.dim + 1} = 0 in G({n},{k}) and "
                        f"c1^{source.dim + 1} != 0 in G({m},{l})")
            if shortcut else "source dimension not below target dimension",
        },
        "system": _system_evidence(system),
        "solver_steps": list(outcome.steps),
    }
    if isinstance(outcome, OnlyTrivial):
        evidence["over_algebraic_closure"] = outcome.closure
    elif isinstance(outcome, WitnessFound):
        evidence["witness"] = hom_to_dict(outcome.hom)
        evidence["assignment"] = [str(v) for v in outcome.assignment]
    else:
        evidence["reason"] = outcome.reason

    return RigidityCertificate(
        parameters=parameters,
        strict_inequality=strict_inequality,
        hypotheses=hypotheses,
        hypotheses_ok=True,
        method=method,
        conclusion=outcome.kind,
        budgets=budget_info,
        evidence=evidence,
    )


def replay_certificate(payload: dict,
                       cache: RingCache | None = None
                       ) -> tuple[bool, list[str], RigidityCertificate]:
    """Re-run the computation a certificate records and compare.

    Returns (match, mismatched_fields, fresh_certificate); the solver is
    deterministic, so an honest certificate replays field for field.
    """
    if payload.get("schema") != CERT_SCHEMA:
        raise ValueError(f"unsupported certificate schema: {payload.get('schema')!r}")
    params = payload["parameters"]
    budgets = Budgets(payload["budgets"]["max_steps"],
                      payload["budgets"]["max_coeff_bytes"])
    fresh = certify_rigidity(params["k"], params["l"], params["m"], params["n"],
                             strict_inequality=payload["strict_inequality"],
                             budgets=budgets, cache=cache)
    fresh_dict = fresh.to_dict()
    mismatched = [key for key in fresh_dict
                  if fresh_dict[key] != payload.get(key)]
    return (not mismatched, mismatched, fresh)
